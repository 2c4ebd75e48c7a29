"""Full-system wiring: cores -> shared L2 -> DRAM-cache controller -> memory.

One :class:`System` is one simulation: a multiprogrammed mix of benchmark
traces (one per core), the shared L2 with MSHRs, the chosen DRAM-cache
controller design over the stacked-DRAM substrate, and off-chip main
memory.  The Fig. 19 variant installs Lee et al.'s DRAM-aware writeback
policy at the L2.

Timing notes:

* L2 hit latency is charged to cores as an un-hidable fraction (OoO cores
  hide most of a 20-cycle hit under MLP);
* the L2's 20-cycle lookup on the *miss* path is a design-independent
  constant adder and is folded out (all compared designs shift equally);
* the on-chip bus (256-bit @ 4 GHz: 0.5 ns per block) is folded out for
  the same reason.

Warm-up: stats of every component reset when the *last* core crosses its
warm-up budget; per-core IPC is measured from each core's own crossing to
its own finish, matching the paper's fast-forward-then-measure flow.
"""

from __future__ import annotations

import dataclasses
import gc
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Mapping, Optional, Sequence

from repro.config import SystemConfig
from repro.core import make_controller
from repro.core.access import REQ_READ, REQ_WRITEBACK, CacheRequest
from repro.mem.llc_writeback import DRAMAwareWritebackIndex
from repro.mem.mainmem import BankedMainMemory
from repro.mem.mshr import MSHREntry, MSHRFile
from repro.mem.prefetch import PrefetchStats, Prefetcher, make_prefetcher
from repro.mem.sram import SRAMCache
from repro.mem.writebuffer import L2WriteBuffer
from repro.sim.cpu import Core, L2_HIT, MISS, MSHR_FULL
from repro.sim.engine import make_simulator
from repro.snapshot import WARM_STATE_VERSION, WarmState, WarmStateError
from repro.workloads.cursor import TraceCursor
from repro.workloads.profiles import BenchmarkProfile

#: Version of the :class:`SystemResult` on-disk schema.  Bump whenever the
#: result fields, the metrics hierarchy, or the semantics of any reported
#: value change — the experiment cache keys on it, so entries written by
#: older code are invalidated instead of silently reused (see DESIGN.md).
#: v4: exact run termination (Simulator.stop at the last core's retiring
#: event) — trailing-event accumulation differs from v3 entries.
#: v5: pluggable substrate fidelity — SystemConfig.substrate selects the
#: DRAM model, and command-fidelity runs carry extra ChannelStats
#: counters (refreshes, tFAW/tRRD/refresh stalls, policy closes) in the
#: metrics snapshot.  Burst-fidelity values are bit-identical to v4; the
#: bump invalidates cache entries because the key space gained an input.
#: v6: topology-generalised memory system — mainmem.model selects a flat
#: or banked off-chip memory (banked runs carry ``mainmem_dev`` per-channel
#: groups and a ``mainmem_total`` rollup), MainMemoryStats gained
#: write-latency/bus-wait counters, ChannelStats gained ``rank_switches``,
#: and multi-rank command-fidelity runs publish per-rank groups plus a
#: cross-channel ``rank_totals`` rollup.  Flat/default values are
#: bit-identical to v5 up to the new (deterministic) counters.
#: v7: cache-hierarchy realism — prefetcher (prefetch.kind), bounded L2
#: write buffer (writebuf.depth/policy) and pluggable replacement
#: (l2.replacement / org.replacement).  The metrics tree gained ``mshr``
#: (now a MetricGroup with demand-latency accumulators) and ``writebuf``
#: groups unconditionally and a ``prefetch`` group when a prefetcher is
#: configured; SystemResult gained prefetch_issued / prefetch_useful /
#: writebuf_drain_stalls headline fields; the MSHR wakeup path wakes
#: min(free slots, waiters) FIFO and counts one full stall per held op.
#: Default-config values are bit-identical to v6 up to the new keys.
RESULT_SCHEMA_VERSION = 7


class ResultSchemaError(ValueError):
    """A serialised result does not match the current schema version."""


@dataclass
class SystemResult:
    """Everything the experiment harness needs, as plain picklable data.

    This is a thin typed facade over the system's metrics registry: the
    named fields are the headline values every figure reads, and
    :attr:`metrics` carries the full hierarchical snapshot (all counters
    of every component) for anything else, so adding a metric no longer
    requires a field here.
    """

    SCHEMA_VERSION: ClassVar[int] = RESULT_SCHEMA_VERSION

    design: str
    organization: str
    xor_remap: bool
    benchmarks: list[str]
    ipcs: list[float]
    elapsed_ps: int
    # controller-level
    mean_read_latency_ps: float
    dram_read_hit_rate: float
    reads_done: int
    writebacks: int
    refills: int
    read_priority_inversions: int
    lr_ofs_issues: int
    lr_drain_issues: int
    # substrate-level
    accesses_per_turnaround: float
    read_row_hit_rate: float
    turnarounds: int
    dram_accesses: int
    # hierarchy-level
    l2_hit_rate: float
    mainmem_reads: int
    mainmem_writes: int
    lee_eager_writebacks: int = 0
    # cache-hierarchy realism (v7): 0 under the default config
    prefetch_issued: int = 0
    prefetch_useful: int = 0
    writebuf_drain_stalls: int = 0
    meta: dict[str, Any] = field(default_factory=dict)
    #: full registry snapshot: {component: {counter/derived: value}}
    metrics: dict[str, Any] = field(default_factory=dict)
    schema_version: int = RESULT_SCHEMA_VERSION

    def to_cache_dict(self) -> dict[str, Any]:
        """Plain-JSON form for the result store."""
        return dataclasses.asdict(self)

    @classmethod
    def from_cache_dict(cls, data: Mapping[str, Any]) -> "SystemResult":
        """Rebuild from :meth:`to_cache_dict` output, validating the schema.

        Raises :class:`ResultSchemaError` when the entry was written by a
        different schema version or its field set doesn't match the current
        dataclass — both mean the entry is stale, never "close enough".
        """
        if not isinstance(data, Mapping):
            raise ResultSchemaError(f"expected a mapping, got {type(data)}")
        version = data.get("schema_version")
        if version != cls.SCHEMA_VERSION:
            raise ResultSchemaError(
                f"schema version {version!r} != current {cls.SCHEMA_VERSION}")
        expected = {f.name for f in dataclasses.fields(cls)}
        got = set(data)
        if got != expected:
            raise ResultSchemaError(
                f"field set mismatch: missing {sorted(expected - got)}, "
                f"unknown {sorted(got - expected)}")
        return cls(**data)


class System:
    """A complete simulated machine for one workload mix."""

    def __init__(self, cfg: SystemConfig, design: str,
                 benchmarks: Sequence[BenchmarkProfile],
                 organization: str = "sa", xor_remap: bool = False,
                 use_mapi: bool = True, scheduler: str = "bliss",
                 lee_writeback: bool = False, seed: int = 0,
                 footprint_scale: float = 1.0, model_l1: bool = False,
                 engine: Optional[str] = None):
        if not benchmarks:
            raise ValueError("need at least one benchmark")
        cfg = replace(cfg, num_cores=len(benchmarks))
        self.cfg = cfg
        self.design = design.upper()
        self.organization = organization
        self.xor_remap = xor_remap
        self.benchmarks = list(benchmarks)
        # Calendar buckets sized to the DRAM command clock: every bank
        # or bus hazard resolves a small multiple of tCK ahead, so the
        # near-future ring absorbs virtually all scheduling.  ``engine``
        # (None = the module default, normally "calendar") exists for
        # the perf harness's old-vs-new comparison and the lockstep
        # equivalence tests.
        self.sim = make_simulator(engine, bucket_ps=cfg.timings.tCK)
        self.controller = make_controller(
            design, self.sim, cfg, organization=organization,
            xor_remap=xor_remap, use_mapi=use_mapi, scheduler=scheduler)

        # A *bound method*, not a closure: closures deep-copy/pickle as
        # atoms, so a snapshotted L2 would keep calling into the donor
        # system's array (see repro/snapshot.py).
        self._row_of = self._array_row
        self.l2 = SRAMCache(cfg.l2,
                            row_of=self._row_of if lee_writeback else None)
        self.lee: Optional[DRAMAwareWritebackIndex] = None
        if lee_writeback:
            self.lee = DRAMAwareWritebackIndex(self.l2, self._row_of)
        # MSHR capacity partition (Sniper-style): a configured prefetcher
        # carves its entries out of the shared file, so speculative
        # traffic can never stall a demand miss — and never inflates the
        # demand partition either.
        prefetch_mshrs = (cfg.prefetch.mshr_entries
                          if cfg.prefetch.kind != "none" else 0)
        if prefetch_mshrs >= cfg.l2_mshrs:
            raise ValueError(
                f"prefetch.mshr_entries ({prefetch_mshrs}) must leave at "
                f"least one demand MSHR out of l2_mshrs ({cfg.l2_mshrs})")
        self.mshr = MSHRFile(cfg.l2_mshrs - prefetch_mshrs,
                             prefetch_capacity=prefetch_mshrs)
        self.prefetcher: Optional[Prefetcher] = None
        self.prefetch_stats = PrefetchStats()
        if cfg.prefetch.kind != "none":
            self.prefetcher = make_prefetcher(cfg.prefetch,
                                              cfg.l2.block_bytes)
        #: blocks brought in by an un-promoted prefetch, awaiting their
        #: first demand hit (membership tests only — never iterated)
        self._prefetched: set[int] = set()
        # Writebacks drain through the buffer into the controller; the
        # sink is a bound method (snapshot-safe, see L2WriteBuffer).
        self.writebuf = L2WriteBuffer(self.sim, cfg.writebuf,
                                      self._submit_writeback)
        self.l1s = ([SRAMCache(cfg.l1) for _ in benchmarks]
                    if model_l1 else None)

        self._l2_stall_ps = round(cfg.l2.latency_cycles * cfg.cpu.cycle_ps
                                  * cfg.cpu.l2_hit_stall_fraction)
        self._block_mask = ~(cfg.l2.block_bytes - 1)

        self._footprint_scale = footprint_scale
        self._seed = seed
        self.cores: list[Core] = []
        for i, prof in enumerate(benchmarks):
            # Trace-source protocol: any workload frontend (synthetic
            # profile, phased/adversarial scenario, trace-file replay)
            # builds its own stream; see repro/workloads/scenarios.py.
            # The TraceCursor wrapper makes the stream positioned and
            # reconstructible, which is what lets a snapshot of this
            # system be captured at all (see repro/workloads/cursor.py).
            trace = TraceCursor(prof, seed=seed * 1000003 + i * 7919 + 1,
                                core_offset=i << 44,
                                footprint_scale=footprint_scale)
            self.cores.append(Core(self.sim, i, cfg.cpu, trace, self))

        self._mshr_waiters: list[Core] = []
        self._pending_entry: Optional[MSHREntry] = None
        self._warmed = 0
        self._finished = 0

        # Unified metrics tree over every live counter group in the
        # machine; SystemResult.metrics is exactly its snapshot.  The
        # controller's registry (already holding ``controller`` +
        # ``substrate``) is extended in place, so there is one tree —
        # a group registered at either level shows up everywhere.
        self.metrics = self.controller.metrics
        self.metrics.register("l2", self.l2.stats)
        self.metrics.register("mshr", self.mshr.stats)
        self.metrics.register("writebuf", self.writebuf.stats)
        if self.prefetcher is not None:
            # Mounted only where the mechanism is real, like lee/mapi:
            # default runs keep their exact metric-tree key set.
            self.metrics.register("prefetch", self.prefetch_stats)
        self.metrics.register("mainmem", self.controller.mainmem.stats)
        if isinstance(self.controller.mainmem, BankedMainMemory):
            # The banked model's per-channel substrate groups mount as a
            # subtree, so results expose off-chip bank/bus behaviour with
            # the same shape as the cache's own substrate.
            self.metrics.register("mainmem_dev", self.controller.mainmem.metrics)
        if self.controller.mapi is not None:
            self.metrics.register("mapi", self.controller.mapi.stats)
        if self.lee is not None:
            self.metrics.register("lee", self.lee.stats)

    def _array_row(self, addr: int) -> int:
        """DRAM-cache row holding the tag structure guarding ``addr``."""
        return (self.controller.array.tag_location(addr)
                // self.cfg.dram_cache.row_bytes)

    # ------------------------------------------------------------- memory path

    def mem_access(self, core: Core, addr: int, is_write: bool,
                   pc: int, retrying: bool = False) -> tuple[int, int]:
        """The core-facing memory operation.  Returns (outcome, stall_ps).

        ``retrying`` marks the re-issue of an op the core already held on
        MSHR_FULL: the MSHR skips the (already counted) stall bump and
        the prefetcher is not re-trained on the repeated access.
        """
        addr &= self._block_mask
        if self.l1s is not None:
            l1 = self.l1s[core.core_id]
            hit, victim = l1.access(addr, is_write)
            if victim is not None:
                # L1 dirty victim: write-through into the L2 functionally
                # (an L2 miss on this path allocates directly — the victim
                # travels with its data, no fetch needed).
                if not self.l2.touch(victim, True):
                    wb_victim = self.l2.fill(victim, dirty=True)
                    if wb_victim is not None:
                        self._emit_writebacks(wb_victim, core.core_id)
            if hit:
                return L2_HIT, 0
            is_write = False  # L1 write-allocate turns the L2 access into a fetch

        if self.l2.touch(addr, is_write):
            if self.prefetcher is not None:
                if addr in self._prefetched:
                    # First demand touch of a block a prefetch brought in.
                    self._prefetched.discard(addr)
                    self.prefetch_stats.useful += 1
                if not retrying:
                    self._issue_prefetches(
                        self.prefetcher.on_access(addr, pc, True),
                        core.core_id)
            return L2_HIT, self._l2_stall_ps

        entry, fresh = self.mshr.allocate(addr, self.sim.now,
                                          is_write=is_write, retry=retrying)
        if entry is not None and entry.is_prefetch and not entry.promoted:
            # Demand miss caught an in-flight prefetch: issued in time to
            # help (useful) but not early enough to hide the latency
            # (late).  The entry keeps its prefetch-partition slot.
            entry.promoted = True
            self.prefetch_stats.useful += 1
            self.prefetch_stats.late += 1
        if self.prefetcher is not None and not retrying:
            self._issue_prefetches(
                self.prefetcher.on_access(addr, pc, False), core.core_id)
        if entry is None:
            return MSHR_FULL, 0
        self._pending_entry = entry
        if fresh:
            # A buffered writeback of this very block must reach the
            # controller first: its pending-write entry then serves the
            # read by forwarding instead of a stale array fetch.
            self.writebuf.flush(addr)
            req = CacheRequest(REQ_READ, addr, core.core_id, pc=pc,
                               on_done=self._l2_fill_done)
            self.controller.submit(req)
        return MISS, 0

    def _issue_prefetches(self, cands: Sequence[int], core_id: int) -> None:
        """Filter, admit and submit prefetch candidates (all kinds)."""
        st = self.prefetch_stats
        for addr in cands:
            addr &= self._block_mask
            if addr < 0:
                continue   # a negative stride ran off the address space
            if self.l2.probe(addr) or self.mshr.lookup(addr) is not None:
                st.drops_present += 1
                continue
            entry = self.mshr.allocate_prefetch(addr, self.sim.now)
            if entry is None:
                st.drops_mshr += 1
                continue
            st.issued += 1
            self.writebuf.flush(addr)
            self.controller.submit(
                CacheRequest(REQ_READ, addr, core_id,
                             on_done=self._l2_fill_done, prefetch=True))

    def register_load(self, core: Core, token: int) -> None:
        """Attach the issuing load to the MSHR entry just touched."""
        entry = self._pending_entry
        assert entry is not None   # mem_access just allocated it
        entry.waiters.append((core, token))

    def wait_for_mshr(self, core: Core) -> None:
        self._mshr_waiters.append(core)

    def _l2_fill_done(self, req: CacheRequest) -> None:
        """DRAM cache (or memory) returned data for an L2 miss."""
        entry = self.mshr.complete(req.addr, self.sim.now)
        victim = self.l2.fill(req.addr, dirty=entry.any_write)
        if victim is not None:
            self._emit_writebacks(victim, req.core_id)
        if entry.is_prefetch and not entry.promoted:
            self._prefetched.add(req.addr)
        for core, token in entry.waiters:
            core.load_done(token)
        if not entry.is_prefetch and self._mshr_waiters:
            # Wakeup fairness: exactly one *demand* slot freed, so wake
            # min(free slots, waiters) cores FIFO — never the whole list
            # (a prefetch completion frees no demand slot and wakes
            # nobody).  Waking more would stampede cores into retries
            # that mostly re-stall.
            n = min(self.mshr.demand_free, len(self._mshr_waiters))
            if n:
                woken = self._mshr_waiters[:n]
                del self._mshr_waiters[:n]
                for core in woken:
                    core.mshr_freed()
        if self.prefetcher is not None and entry.is_prefetch:
            # Tagged prefetching: a prefetch fill may extend its stream.
            self._issue_prefetches(self.prefetcher.on_fill(req.addr),
                                   req.core_id)

    def _emit_writebacks(self, victim_addr: int, core_id: int) -> None:
        """Dirty L2 eviction -> write buffer (+ Lee's row batch)."""
        self.writebuf.push(victim_addr, core_id)
        if self.lee is not None:
            for addr in self.lee.on_dirty_eviction(victim_addr):
                self.writebuf.push(addr, core_id)

    def _submit_writeback(self, addr: int, core_id: int) -> None:
        """Write-buffer drain sink: hand one writeback to the controller."""
        self.controller.submit(
            CacheRequest(REQ_WRITEBACK, addr, core_id))

    # ------------------------------------------------------------- lifecycle

    def core_warmed(self, _core: Core) -> None:
        self._warmed += 1
        if self._warmed == len(self.cores):
            self.controller.reset_stats()
            self.controller.mainmem.reset_stats()
            self.l2.stats.reset()
            self.mshr.stats.reset()
            self.prefetch_stats.reset()
            self.writebuf.reset_accounting(self.sim.now)

    def core_finished(self, _core: Core) -> None:
        self._finished += 1
        if self._finished == len(self.cores):
            # Exact termination: the run ends at this event, not at the
            # next multiple of the drain's check interval.  Without this
            # the end state would depend on how the event loop was
            # sliced, breaking the snapshot layer's bit-identity
            # invariant (restored continuations slice differently).
            self.sim.stop()

    def functional_warmup(self, replay_accesses: int = 20_000,
                          prefill: bool = True) -> None:
        """Warm caches without timing, like the paper's fast-forward phase.

        ``prefill`` bulk-inserts each benchmark's footprint into the
        DRAM-cache array (vectorised; models the steady-state contents a
        4-billion-instruction fast-forward would leave behind).  The
        *replay* then consumes ``replay_accesses`` operations from each
        core's trace through the functional L2 + DRAM-cache state, warming
        L2 contents, dirty bits and stream positions.
        """
        # A sweep's finished systems are cyclic garbage (cores, controller
        # and engine callbacks refer to one another) that only a full
        # collection frees.  Collecting before this system fills its
        # caches bounds peak memory at about one system's state, instead
        # of wherever CPython's generation-2 threshold happens to trip.
        gc.collect()
        array = self.controller.array
        scale = self._footprint_scale
        if prefill:
            # Consecutive bulk ranges go to one bulk_fill_many call,
            # which computes the contents they leave in closed form;
            # insertion order — and thus LRU clocks, evictions, and
            # final contents — is exactly the sequential per-benchmark
            # order, so a prefill_blocks workload in the middle just
            # flushes the pending batch first.
            pending: list[tuple[int, int, float, int]] = []
            for i, prof in enumerate(self.benchmarks):
                prefill_blocks = getattr(prof, "prefill_blocks", None)
                if prefill_blocks is not None:
                    if pending:
                        array.bulk_fill_many(pending)
                        pending = []
                    # Workloads with non-contiguous footprints (trace
                    # replay, adversaries) name their exact warm set; the
                    # contiguous bulk fill below would warm blocks they
                    # never touch.  Linear in distinct blocks — the same
                    # order as generating/parsing the workload itself.
                    for addr, dirty in prefill_blocks():
                        array.fill((i << 44) + addr, dirty=dirty)
                    continue
                n_blocks = max(1024, int(prof.footprint_bytes * scale)
                               // self.cfg.l2.block_bytes)
                pending.append((i << 44, n_blocks,
                                prof.store_fraction, i + 1))
            if pending:
                array.bulk_fill_many(pending)
        l2 = self.l2
        for core in self.cores:
            trace = core.trace
            for _ in range(replay_accesses):
                _gap, addr, is_write, _pc = next(trace)
                addr &= self._block_mask
                if not l2.touch(addr, is_write):
                    victim = l2.fill(addr, dirty=is_write)
                    if victim is not None:
                        if not array.lookup_write(victim).hit:
                            array.fill(victim, dirty=True)
                    if not array.lookup_read(addr).hit:
                        array.fill(addr, dirty=False)
        array.reset_counters()
        l2.stats.reset()

    # ------------------------------------------------------------- warm state

    def capture_warm_state(self) -> WarmState:
        """Freeze the design-independent warm-up products of this system.

        Must be called after :meth:`functional_warmup` and before any
        timed simulation: the captured image is exactly the functional
        state (DRAM-cache contents, L2 contents, trace positions) that
        every controller design over the same (workload, seed, substrate)
        prefix shares, so one capture forks a whole design sweep.  The
        set-associative array is captured as immutable column bytes — the
        donor keeps simulating unperturbed (see
        ``DRAMCacheArray.capture_state``).
        """
        if self.sim.events_run or self.sim.now:
            raise WarmStateError(
                "warm state must be captured before timed simulation "
                f"(events_run={self.sim.events_run}, now={self.sim.now})")
        return WarmState(
            schema_version=WARM_STATE_VERSION,
            organization=self.organization,
            seed=self._seed,
            benchmarks=[b.name for b in self.benchmarks],
            footprint_scale=self._footprint_scale,
            lee_writeback=self.lee is not None,
            dram_cache_geometry=dataclasses.asdict(self.cfg.dram_cache),
            l2_geometry=dataclasses.asdict(self.cfg.l2),
            array_replacement=self.cfg.org.replacement,
            trace_counts=[c.trace.count for c in self.cores],
            array_state=self.controller.array.capture_state(),
            l2_state=self.l2.capture_state(),
        )

    def restore_warm_state(self, warm: WarmState) -> None:
        """Adopt a :class:`WarmState` instead of running the warm-up.

        The system must be freshly constructed (nothing simulated, traces
        unconsumed) and built over the same warm-relevant prefix — any
        mismatch raises :class:`WarmStateError` rather than silently
        producing a run that is *almost* the cold-run result.  After the
        restore the run is bit-identical to one that performed
        :meth:`functional_warmup` itself (the warm-cache invariant,
        enforced by tests/test_warm_cache.py).
        """
        if warm.schema_version != WARM_STATE_VERSION:
            raise WarmStateError(
                f"warm state schema {warm.schema_version} != current "
                f"{WARM_STATE_VERSION}")
        mine = dict(
            organization=self.organization, seed=self._seed,
            benchmarks=[b.name for b in self.benchmarks],
            footprint_scale=self._footprint_scale,
            lee_writeback=self.lee is not None,
            dram_cache_geometry=dataclasses.asdict(self.cfg.dram_cache),
            l2_geometry=dataclasses.asdict(self.cfg.l2),
            array_replacement=self.cfg.org.replacement)
        theirs = {k: getattr(warm, k) for k in mine}
        if mine != theirs:
            diffs = {k: (theirs[k], mine[k])
                     for k in mine if mine[k] != theirs[k]}
            raise WarmStateError(
                f"warm state does not match this system: {diffs}")
        if self.sim.events_run or self.sim.now:
            raise WarmStateError("cannot restore into a running system")
        # Validate everything before mutating anything: a partial restore
        # (some traces fast-forwarded, then an error) would leave the
        # system silently unusable for a cold-run fallback.
        for core in self.cores:
            if core.trace.count:
                raise WarmStateError("cannot restore into a consumed trace")
        for core, count in zip(self.cores, warm.trace_counts):
            core.trace.skip(count)
        self.controller.array.restore_state(warm.array_state)
        self.l2.restore_state(warm.l2_state)

    # ------------------------------------------------------------- execution

    def begin(self, warmup_insts: int = 20_000,
              measure_insts: int = 200_000,
              functional_warmup: bool = True,
              replay_accesses: Optional[int] = None,
              warm_state: Optional[WarmState] = None) -> None:
        """Warm up (or restore a warm state) and start every core.

        Split out of :meth:`run` so callers can drive the event loop in
        slices (``self.sim.run(max_events=...)``) between ``begin`` and
        :meth:`finish` — the snapshot differential tests capture
        mid-simulation this way.

        ``replay_accesses`` defaults to 20 000 for the functional warm-up
        path.  When a ``warm_state`` is supplied *and* an explicit
        ``replay_accesses`` is requested, the warm state must have been
        captured with exactly that replay budget (its per-core trace
        counts record it) — otherwise the run would silently differ from
        that configuration's cold result.
        """
        if warm_state is not None:
            if replay_accesses is not None and any(
                    c != replay_accesses for c in warm_state.trace_counts):
                raise WarmStateError(
                    f"warm state was captured with per-core trace counts "
                    f"{warm_state.trace_counts}, not the requested replay "
                    f"budget {replay_accesses}")
            self.restore_warm_state(warm_state)
        elif functional_warmup:
            self.functional_warmup(
                replay_accesses=(20_000 if replay_accesses is None
                                 else replay_accesses))
        for core in self.cores:
            core.start(warmup_insts, measure_insts)

    def finish(self) -> SystemResult:
        """Run the event loop until every core retires; gather metrics.

        Termination is exact — ``core_finished`` stops the engine at the
        retiring event itself — so the result is a pure function of the
        simulation state, however the caller sliced the event loop up to
        that point.  The stop is a one-shot request consumed by the
        slice that executes the retiring event: a caller that keeps
        running slices *afterwards* executes trailing post-retirement
        events (cores generate work indefinitely) and ``finish`` then
        reports that later state — don't slice past the stop if the
        result must match a straight-through run.  The drain predicate
        is only the safety net for a stop consumed by an earlier manual
        ``sim.run`` slice.
        """
        if self._finished < len(self.cores):
            self.sim.drain(lambda: self._finished >= len(self.cores),
                           check_every=1024)
        return self._result()

    def run(self, warmup_insts: int = 20_000,
            measure_insts: int = 200_000,
            functional_warmup: bool = True,
            replay_accesses: Optional[int] = None,
            warm_state: Optional[WarmState] = None) -> SystemResult:
        """Simulate until every core retires its budget; gather metrics.

        ``warmup_insts`` is the *timed* warm-up (queues, predictors, row
        buffers reach steady state; stats reset at its end); the functional
        warm-up handles cache contents (see :meth:`functional_warmup`).
        A ``warm_state`` replaces the functional warm-up with a restore
        of a previously captured image (see :meth:`capture_warm_state`);
        passing ``replay_accesses`` alongside it asserts the state was
        captured with that replay budget (see :meth:`begin`).
        """
        self.begin(warmup_insts, measure_insts,
                   functional_warmup=functional_warmup,
                   replay_accesses=replay_accesses, warm_state=warm_state)
        return self.finish()

    def _result(self) -> SystemResult:
        snap = self.metrics.snapshot()
        cs = snap["controller"]
        mm = snap["mainmem"]
        # Substrate totals: merge the per-channel groups, then derive.
        ds = self.controller.device.total_stats().snapshot()
        snap["substrate_total"] = ds
        # Topology rollups appear only where the topology is real, so the
        # default (flat, single-rank) metric tree keeps its exact key set.
        mmem = self.controller.mainmem
        if isinstance(mmem, BankedMainMemory):
            snap["mainmem_total"] = mmem.total_stats().snapshot()
        rank_totals = self.controller.device.rank_totals()
        if rank_totals:
            snap["rank_totals"] = {f"rank{j}": g.snapshot()
                                   for j, g in enumerate(rank_totals)}
        return SystemResult(
            design=self.design,
            organization=self.organization,
            xor_remap=self.xor_remap,
            benchmarks=[b.name for b in self.benchmarks],
            ipcs=[c.measured_ipc() for c in self.cores],
            elapsed_ps=self.sim.now,
            mean_read_latency_ps=cs["mean_read_latency_ps"],
            dram_read_hit_rate=cs["dram_read_hit_rate"],
            reads_done=cs["reads_done"],
            writebacks=cs["writebacks_submitted"],
            refills=cs["refills_submitted"],
            read_priority_inversions=cs["read_priority_inversions"],
            lr_ofs_issues=cs["lr_ofs_issues"],
            lr_drain_issues=cs["lr_drain_issues"],
            accesses_per_turnaround=ds["accesses_per_turnaround"],
            read_row_hit_rate=ds["read_row_hit_rate"],
            turnarounds=ds["turnarounds"],
            dram_accesses=ds["total_accesses"],
            l2_hit_rate=snap["l2"]["hit_rate"],
            mainmem_reads=mm["reads"],
            mainmem_writes=mm["writes"],
            lee_eager_writebacks=(snap["lee"]["eager_writebacks"]
                                  if "lee" in snap else 0),
            prefetch_issued=(snap["prefetch"]["issued"]
                             if "prefetch" in snap else 0),
            prefetch_useful=(snap["prefetch"]["useful"]
                             if "prefetch" in snap else 0),
            writebuf_drain_stalls=snap["writebuf"]["drain_stalls"],
            metrics=snap,
        )
