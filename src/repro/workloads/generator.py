"""Synthetic memory-trace generation from benchmark profiles.

A trace is an infinite iterator of ``(gap_instructions, address, is_write,
pc)`` tuples — the post-L1 access stream one core feeds the shared L2.

Structure per profile:

* accesses arrive in **bursts** (loop bodies touching several lines before
  the next compute phase): a burst draws ``burst_len`` ops with tiny gaps,
  then a long inter-burst gap restores the profile's mean access rate.
  Burstiness is what makes controller scheduling *order* matter — it is
  exactly the paper's Fig. 4 scenario, where a run of demand reads is
  interrupted by a writeback's tag read;
* a ``seq_fraction`` of bursts come from ``num_streams`` concurrent
  sequential walkers, each striding one block at a time through its own
  slice of the footprint (row-buffer locality + bank-level parallelism);
  walkers occasionally jump to a random position (phase changes);
* the rest are uniform random accesses over the whole footprint
  (pointer-chasing);
* each walker has a stable fake PC and random accesses draw from a small
  PC pool, so the MAP-I predictor sees the per-instruction correlation it
  exploits in real workloads;
* stores are marked with profile probability, creating the dirty lines
  whose evictions become the writeback requests central to the paper.

Determinism: everything derives from one ``random.Random(seed)``; a given
(profile, seed, scale) triple always yields the identical trace.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.workloads.profiles import BenchmarkProfile

BLOCK = 64


def make_trace(profile: BenchmarkProfile, seed: int = 0,
               core_offset: int = 0,
               footprint_scale: float = 1.0) -> Iterator[tuple]:
    """Build the infinite access stream for one core.

    Parameters
    ----------
    profile:
        The benchmark model.
    seed:
        Trace RNG seed (per-core unique in multiprogrammed runs).
    core_offset:
        Added to every address: gives each core a private address space
        (the paper's workloads are multiprogrammed, not shared-memory).
    footprint_scale:
        Multiplies the footprint; use the inverse of the config's capacity
        scale so hit-rate regimes are preserved in scaled runs.
    """
    if footprint_scale <= 0:
        raise ValueError("footprint_scale must be positive")
    rng = random.Random(seed)
    footprint_blocks = max(1024, int(
        profile.footprint_bytes * footprint_scale) // BLOCK)
    mean_gap = profile.mean_gap_instructions
    # Never more walkers than blocks: a tiny scaled footprint must not
    # produce zero-width segments (randrange(0) raises).
    n_streams = min(profile.num_streams, footprint_blocks)

    # Each walker owns one contiguous segment of the footprint.  The
    # boundaries tile [0, footprint_blocks) exactly, so the tail blocks a
    # truncating ``footprint_blocks // n_streams`` split would strand are
    # reachable by the last walker.
    seg_start = [footprint_blocks * s // n_streams for s in range(n_streams)]
    seg_len = [footprint_blocks * (s + 1) // n_streams - seg_start[s]
               for s in range(n_streams)]
    stream_pos = [rng.randrange(seg_len[s]) for s in range(n_streams)]
    stream_pc = [0x400000 + 64 * s for s in range(n_streams)]
    random_pcs = [0x500000 + 64 * i for i in range(8)]

    seq_fraction = profile.seq_fraction
    store_fraction = profile.store_fraction
    jump_prob = profile.jump_prob
    mean_burst = profile.mean_burst
    expovariate = rng.expovariate
    random_u = rng.random
    getrandbits = rng.getrandbits
    # Integer draws inline CPython's ``randrange(n)``: ``getrandbits(k)``
    # with ``k = n.bit_length()``, redrawn while ``>= n``.  That consumes
    # the generator exactly as ``randrange`` does, minus its two Python
    # frames per draw; tests/test_workloads.py pins the stream against a
    # ``randrange`` reference.
    fp_bits = footprint_blocks.bit_length()
    stream_bits = n_streams.bit_length()
    seg_bits = [n.bit_length() for n in seg_len]

    def gen() -> Iterator[tuple]:
        while True:
            # One burst: several ops close together, then a long gap that
            # restores the profile's mean inter-access distance.
            burst_len = 1 + int(expovariate(1.0 / mean_burst))
            head_gap = max(0, int(expovariate(1.0 / (mean_gap * burst_len))))
            sequential = random_u() < seq_fraction
            if sequential:
                s = getrandbits(stream_bits)          # randrange(n_streams)
                while s >= n_streams:
                    s = getrandbits(stream_bits)
                if random_u() < jump_prob:
                    pos = getrandbits(seg_bits[s])    # randrange(seg_len[s])
                    while pos >= seg_len[s]:
                        pos = getrandbits(seg_bits[s])
                    stream_pos[s] = pos
                pc = stream_pc[s]
            for k in range(burst_len):
                if k == 0:
                    gap = head_gap
                else:
                    gap = getrandbits(2)              # randrange(1, 3)
                    while gap >= 2:
                        gap = getrandbits(2)
                    gap += 1
                if sequential:
                    pos = stream_pos[s]
                    stream_pos[s] = (pos + 1) % seg_len[s]
                    block = seg_start[s] + pos
                else:
                    block = getrandbits(fp_bits)      # randrange(footprint_blocks)
                    while block >= footprint_blocks:
                        block = getrandbits(fp_bits)
                    pc = random_pcs[block & 7]
                addr = core_offset + block * BLOCK
                is_write = random_u() < store_fraction
                yield gap, addr, is_write, pc

    return gen()
