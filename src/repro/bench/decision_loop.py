"""Decision-loop microbenchmark: naive scan vs indexed fast path.

Each scenario models the steady-state per-slot scheduling decision: pick
one access from a full queue, remove it, and admit a replacement.  The
**naive** engine reproduces the pre-indexing code shape — a plain Python
list, full-queue candidate filters, per-access row-state classification
and O(n) ``list.remove`` — while the **indexed** engine drives the same
decision through :class:`repro.core.queues.AccessQueue`'s per-class bank
bucket maps and the schedulers' ``pick_banked``.

Both engines consume the *same* ``Access`` objects and the same
replacement stream, so (selection being bit-identical — the property
tests pin this) their queue states evolve in lockstep and the measured
work is directly comparable.  ``verify_equivalence`` additionally steps
both engines pick-by-pick before anything is timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.config import BLISSConfig, DRAMOrganization, DRAMTimings
from repro.core.access import Access, AccessRole, CacheRequest, Priority, RequestType
from repro.core.bliss import BLISSScheduler
from repro.core.frfcfs import FRFCFSScheduler
from repro.core.dca import ofs_bucket_filter, ofs_naive_candidates
from repro.core.queues import AccessQueue
from repro.core.rrpc import RRPCTable
from repro.dram.channel import Channel

#: OFS flushing factor used by the OFS scenario (the paper's FF-4).
_FF = 4


@dataclass
class ScenarioResult:
    """Throughput of one scenario under both engines."""

    name: str
    decisions: int
    queue_size: int
    naive_s: float
    indexed_s: float

    @property
    def naive_per_s(self) -> float:
        return self.decisions / self.naive_s if self.naive_s else 0.0

    @property
    def indexed_per_s(self) -> float:
        return self.decisions / self.indexed_s if self.indexed_s else 0.0

    @property
    def speedup(self) -> float:
        return self.naive_s / self.indexed_s if self.indexed_s else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "decisions": self.decisions,
            "queue_size": self.queue_size,
            "naive_s": round(self.naive_s, 6),
            "indexed_s": round(self.indexed_s, 6),
            "naive_per_s": round(self.naive_per_s, 1),
            "indexed_per_s": round(self.indexed_per_s, 1),
            "speedup": round(self.speedup, 3),
        }


class _State:
    """Shared fixture: channel, schedulers, access stream, candidate fns."""

    def __init__(self, mode: str, queue_size: int, n_decisions: int,
                 seed: int):
        self.mode = mode
        rng = random.Random(seed)
        org = DRAMOrganization()
        self.channel = Channel(DRAMTimings.stacked(), org)
        self.banks_per_rank = org.banks_per_rank
        nbanks = org.ranks_per_channel * org.banks_per_rank
        self.nbanks = nbanks
        n_rows = 32
        num_cores = 8

        # Open rows in half the banks so row-hit classification matters.
        t = 0
        for b in range(0, nbanks, 2):
            rank, bank = divmod(b, org.banks_per_rank)
            _s, t = self.channel.issue(rank, bank, rng.randrange(n_rows),
                                       False, t)

        # BLISS is the controllers' default underlying scheduler, so every
        # scenario runs it except the explicit FR-FCFS one.
        use_bliss = mode != "frfcfs_all"
        if use_bliss:
            make = lambda: BLISSScheduler(BLISSConfig(), num_cores)
        else:
            make = lambda: FRFCFSScheduler()
        self.sched_naive = make()
        self.sched_indexed = make()
        if use_bliss:
            for c in (1, 5):     # some blacklisted cores, same in both
                self.sched_naive.blacklist[c] = True
                self.sched_indexed.blacklist[c] = True

        self.rrpc = RRPCTable(nbanks)
        for _ in range(nbanks // 2):   # warm some banks' RRPC counters
            self.rrpc.on_priority_read(rng.randrange(nbanks))

        def mk_access(role: AccessRole, rtype: RequestType) -> Access:
            gb = rng.randrange(nbanks)
            rank, bank = divmod(gb, org.banks_per_rank)
            req = CacheRequest(rtype, rng.randrange(1 << 24), rng.randrange(num_cores))
            return Access(role, req, channel=0, rank=rank, bank=bank,
                          row=rng.randrange(n_rows), col=0, global_bank=gb,
                          arrival=0)

        def mk_initial() -> Access:
            if mode == "write_drain":
                return mk_access(AccessRole.DATA_WRITE, RequestType.WRITEBACK)
            pr_fraction = 0.10 if mode == "dca_ofs" else 0.60
            rtype = (RequestType.READ if rng.random() < pr_fraction
                     else RequestType.WRITEBACK)
            return mk_access(AccessRole.TAG_READ, rtype)

        def mk_replacements() -> dict[Priority, Access]:
            """One candidate replacement per priority class.

            The decision loop replaces the picked access with the
            same-class variant, so the queue's size *and* composition
            stay in steady state — without this, class-selective
            scenarios (PR-only, OFS) would drain their picked class and
            grow the rest without bound, and the naive engine's O(n)
            scans would degrade quadratically instead of measuring the
            steady-state cost.  Both engines share the same objects.
            """
            if mode == "write_drain":
                return {Priority.WRITE: mk_access(AccessRole.DATA_WRITE,
                                                  RequestType.WRITEBACK)}
            return {
                Priority.PR: mk_access(AccessRole.TAG_READ, RequestType.READ),
                Priority.LR: mk_access(AccessRole.TAG_READ,
                                       RequestType.WRITEBACK),
            }

        self.initial = [mk_initial() for _ in range(queue_size)]
        self.stream = [mk_replacements() for _ in range(n_decisions)]

    # -- candidate construction, naive (pre-indexing shape) -----------------

    def naive_candidates(self, pool: list[Access]) -> list[Access]:
        if self.mode == "pr_subset":
            return [a for a in pool if a.priority == Priority.PR]
        if self.mode == "dca_ofs":
            return ofs_naive_candidates(pool, self.channel, self.rrpc, _FF)
        return pool

    # -- candidate construction, indexed ------------------------------------

    def indexed_buckets(self, q: AccessQueue) -> tuple:
        """The class maps ``pick_banked`` searches (their union is the
        candidate set)."""
        if self.mode == "pr_subset":
            return q.pr_only
        if self.mode == "dca_ofs":
            # The controller's own bucket filter — shared, so the bench
            # always times the production OFS computation.
            return (ofs_bucket_filter(q.lr_banks, self.channel.open_rows,
                                      self.rrpc, _FF),)
        return q.classes


def _naive_step(state: _State, pool: list[Access],
                repl: dict[Priority, Access]) -> Optional[Access]:
    a = state.sched_naive.pick(state.naive_candidates(pool), state.channel, 0)
    if a is not None:
        pool.remove(a)
        pool.append(repl[a.priority])
    return a


def _indexed_step(state: _State, q: AccessQueue,
                  repl: dict[Priority, Access]) -> Optional[Access]:
    a = state.sched_indexed.pick_banked(state.indexed_buckets(q),
                                        state.channel, 0)
    if a is not None:
        q.remove(a)
        q.push(repl[a.priority])
    return a


def verify_equivalence(mode: str, queue_size: int = 48,
                       decisions: int = 300, seed: int = 1234) -> None:
    """Step both engines in lockstep; raise if any pick diverges."""
    state = _State(mode, queue_size, decisions, seed)
    pool = list(state.initial)
    q = AccessQueue(queue_size or 1)
    for a in state.initial:
        q.push(a)
    for i, repl in enumerate(state.stream):
        a_naive = _naive_step(state, pool, repl)
        a_indexed = _indexed_step(state, q, repl)
        if a_naive is not a_indexed:
            raise AssertionError(
                f"{mode}: pick #{i} diverged: naive={a_naive!r} "
                f"indexed={a_indexed!r}")


def bench_scenario(mode: str, name: str, queue_size: int,
                   n_decisions: int, seed: int = 0) -> ScenarioResult:
    """Time one scenario under both engines on identical streams."""
    state = _State(mode, queue_size, n_decisions, seed)

    pool = list(state.initial)
    candidates = state.naive_candidates
    sched, channel = state.sched_naive, state.channel
    t0 = perf_counter()
    for repl in state.stream:
        a = sched.pick(candidates(pool), channel, 0)
        if a is not None:
            pool.remove(a)
            pool.append(repl[a.priority])
    naive_s = perf_counter() - t0

    q = AccessQueue(queue_size or 1)
    for a in state.initial:
        q.push(a)
    sched, buckets = state.sched_indexed, state.indexed_buckets
    t0 = perf_counter()
    for repl in state.stream:
        a = sched.pick_banked(buckets(q), channel, 0)
        if a is not None:
            q.remove(a)
            q.push(repl[a.priority])
    indexed_s = perf_counter() - t0

    return ScenarioResult(name=name, decisions=n_decisions,
                          queue_size=queue_size,
                          naive_s=naive_s, indexed_s=indexed_s)


#: (mode, reported name, queue size) — queue sizes follow Table II.
SCENARIOS = (
    ("bliss_all", "bliss_read_queue_64", 64),
    ("pr_subset", "bliss_pr_partition_64", 64),
    ("dca_ofs", "dca_ofs_candidates_64", 64),
    ("write_drain", "bliss_write_drain_96", 96),
    ("frfcfs_all", "frfcfs_read_queue_64", 64),
)


def run_decision_loop(quick: bool = False, seed: int = 0) -> dict:
    """Run every scenario; returns a JSON-ready summary."""
    n = 3_000 if quick else 25_000
    for mode, _name, _qs in SCENARIOS:
        verify_equivalence(mode, seed=seed + 1234)
    results = [bench_scenario(mode, name, qs, n, seed=seed)
               for mode, name, qs in SCENARIOS]
    speedups = [r.speedup for r in results]
    geomean = 1.0
    for s in speedups:
        geomean *= s
    geomean **= 1.0 / len(speedups)
    return {
        "decisions_per_scenario": n,
        "equivalence_checked": True,
        "scenarios": [r.to_dict() for r in results],
        "geomean_speedup": round(geomean, 3),
        "min_speedup": round(min(speedups), 3),
    }
