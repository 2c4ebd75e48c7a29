"""Shared DRAM-cache controller machinery.

Everything the three designs (CD / ROD / DCA) have in common lives here:

* request admission with per-channel overflow FIFOs (Table II queue sizes
  apply to *new* requests; continuation accesses of in-flight requests use
  reserved slots, as real controllers do to avoid deadlock);
* the request state machines driven by access-completion callbacks (the
  staged translation of the paper's Fig. 2, including dirty-victim reads
  and main-memory traffic);
* MAP-I miss-probe handling (parallel memory fetch on predicted misses,
  discarded when the tag check turns out to be a hit — the cached copy may
  be dirtier than memory);
* the write-queue flush state machine with low/high watermarks;
* the pipelined scheduling loop: a new scheduling decision is taken when
  the previous access's data burst *starts*, so the next access's bank
  preparation (PRE/ACT) overlaps the in-flight burst — one-deep lookahead,
  identical for every design.

Subclasses implement exactly two hooks:

* :meth:`BaseController._route` — which queue an access belongs to
  (this is the entire CD-vs-ROD distinction);
* :meth:`BaseController._select` — which queued access to issue at a
  scheduling slot (this is where DCA's PR/LR handling lives).
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Optional, Sequence

from repro.cache.dramcache import DRAMCacheArray
from repro.cache.mapi import MAPIPredictor
from repro.cache.translator import Translator
from repro.config import SystemConfig
from repro.core.access import (
    DATA_READ,
    LR,
    REQ_READ,
    REQ_REFILL,
    REQ_WRITEBACK,
    TAG_READ,
    Access,
    CacheRequest,
)
from repro.core.bliss import BLISSScheduler, BucketColumns
from repro.core.frfcfs import FRFCFSScheduler
from repro.core.queues import AccessQueue, first_length
from repro.dram.device import DRAMDevice
from repro.mem.mainmem import AnyMainMemory, make_mainmem
from repro.metrics.registry import MetricGroup, MetricRegistry, derived
from repro.sim.engine import Simulator


class ControllerStats(MetricGroup):
    """Controller-level counters (substrate counters live on the channels)."""

    COUNTERS = (
        "reads_submitted",
        "writebacks_submitted",
        "refills_submitted",
        "reads_done",
        "read_latency_sum_ps",
        "read_hits",
        "read_misses",
        "writeback_hits",
        "writeback_misses",
        "memory_fetches",
        "wasted_fetches",           # MAP-I predicted miss, tag said hit
        "victim_mem_writes",
        "forced_flushes",
        "opportunistic_flushes",
        # Any LR-class issue (from whichever queue holds it — ROD's RTw sit
        # in its write queue) while a PR-class read waits in the read queue.
        "read_priority_inversions",
        "lr_ofs_issues",             # DCA: LRs drained by OFS
        "lr_drain_issues",           # DCA: LRs drained by Algorithm 1 hysteresis
        "forwarded_reads",           # reads served from the write buffer
    )

    @derived
    def mean_read_latency_ps(self) -> float:
        return (self.read_latency_sum_ps / self.reads_done
                if self.reads_done else 0.0)

    @derived
    def dram_read_hit_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0


_SCHEDULERS = {"bliss": BLISSScheduler, "frfcfs": FRFCFSScheduler}


class BaseController:
    """Common controller: queues, translation, flushing, scheduling loop."""

    #: paper name; set by subclasses ("CD" / "ROD" / "DCA")
    design = "BASE"

    def __init__(self, sim: Simulator, cfg: SystemConfig,
                 organization: str = "sa", xor_remap: bool = False,
                 use_mapi: bool = True, scheduler: str = "bliss",
                 mainmem: Optional[AnyMainMemory] = None):
        if not cfg.queues_explicit:
            # Stock config: substitute the per-design Table II queue
            # sizes.  Explicitly overridden queues (sweep axes) win.
            cfg = cfg.with_queues_for(self.design)
        self.sim = sim
        self.cfg = cfg
        self.organization = organization
        self.device = DRAMDevice(cfg.timings, cfg.org, xor_remap=xor_remap,
                                 substrate=cfg.substrate)
        self.array = DRAMCacheArray(cfg.dram_cache, organization,
                                    replacement=cfg.org.replacement)
        self.translator = Translator(self.array, self.device.mapper)
        self.mapi = MAPIPredictor(cfg.num_cores) if use_mapi else None
        self.mainmem = (mainmem if mainmem is not None
                        else make_mainmem(sim, cfg.mainmem))

        nch = cfg.org.channels
        try:
            sched_cls = _SCHEDULERS[scheduler.lower()]
        except KeyError:
            raise ValueError(f"unknown scheduler {scheduler!r}") from None
        self.read_q = [AccessQueue(cfg.queues.read_entries) for _ in range(nch)]
        self.write_q = [AccessQueue(cfg.queues.write_entries) for _ in range(nch)]
        # Admission overflow FIFOs, one per (channel, target queue): a
        # writeback stalled on write-queue space must not block a demand
        # read from entering the read queue (independent structures in
        # real controllers).
        self.waiting_r: list[deque] = [deque() for _ in range(nch)]
        self.waiting_w: list[deque] = [deque() for _ in range(nch)]
        self.flushing = [False] * nch
        self.sched = [sched_cls(cfg.bliss, cfg.num_cores) for _ in range(nch)]
        self._decision_pending = [False] * nch
        #: per channel, the burst end times of the issued but not yet
        #: completed accesses, oldest first.  Bursts on one channel
        #: serialize on its bus, so they end (and complete) in issue order.
        self._in_flight: list[deque[int]] = [deque() for _ in range(nch)]
        q = cfg.queues
        self._window = q.issue_window
        # Watermark tests as queue-length thresholds, found by evaluating
        # the occupancy predicates themselves, so they agree exactly.
        wcap = q.write_entries
        #: write-queue lengths above the low watermark start at this one
        self._wq_above_low = first_length(
            wcap, lambda occ: occ > q.write_low_watermark)
        #: write-queue lengths at or above the high watermark
        self._wq_high = first_length(
            wcap, lambda occ: occ >= q.write_high_watermark)
        self._opp_flushing = [False] * nch
        self._opp_batch = [0] * nch
        #: block addr -> youngest in-flight writeback/refill (write buffer
        #: contents; reads to these blocks are forwarded, never scheduled)
        self._pending_writes: dict[int, CacheRequest] = {}
        #: end-of-run drain: ignore the low watermark so queues empty out
        self.draining = False
        self.stats = ControllerStats()
        #: unified metrics tree: controller counters + per-channel substrate
        #: counters, consumed generically by the system-level registry
        self.metrics = MetricRegistry()
        self.metrics.register("controller", self.stats)
        self.metrics.register("substrate", self.device.metrics)

    # ------------------------------------------------------------------ admission

    def submit(self, req: CacheRequest) -> None:
        """Accept an L2-level request (read / writeback / refill)."""
        now = self.sim.now
        req.arrival = now
        st = self.stats
        rtype = req.rtype
        if rtype == REQ_READ:
            st.reads_submitted += 1
            if req.addr in self._pending_writes:
                # Write-buffer forwarding: the freshest copy of this block
                # sits in a pending writeback/refill; serve it directly.
                st.forwarded_reads += 1
                req.hit = True
                self.sim.after(self.cfg.queues.forward_latency_ps,
                               self._read_done, req)
                return
            if self.mapi is not None and not req.prefetch:
                # Prefetch reads never train or consult MAP-I: the
                # predictor models demand-PC locality and speculative
                # probes would both pollute it and burn memory bandwidth.
                predicted_miss = self.mapi.predict_miss(req.core_id, req.pc)
                req.meta["pred_miss"] = predicted_miss
                if predicted_miss:
                    # MAP-I: probe main memory in parallel with the tag read.
                    req.meta["probing"] = True
                    st.memory_fetches += 1
                    # Bound method + request arg, not a closure: scheduled
                    # callbacks must survive snapshot capture (see
                    # MainMemory.fetch and repro/snapshot.py).
                    self.mainmem.fetch(req.addr, self._mem_fetch_done, req)
        elif rtype == REQ_WRITEBACK:
            st.writebacks_submitted += 1
            self._pending_writes[req.addr] = req
        else:
            st.refills_submitted += 1
            self._pending_writes[req.addr] = req

        first = self.translator.initial_access(req, now)
        ch = first.channel
        q, waitq = self._queue_and_waitq(first)
        if q.has_room() and not waitq:
            self._enqueue(first)
        else:
            waitq.append(first)

    def _queue_and_waitq(self, access: Access) -> tuple[AccessQueue, deque]:
        if self._route(access) == "read":
            return self.read_q[access.channel], self.waiting_r[access.channel]
        return self.write_q[access.channel], self.waiting_w[access.channel]

    def _queue_for(self, access: Access) -> AccessQueue:
        return self._queue_and_waitq(access)[0]

    def _enqueue(self, access: Access) -> None:
        self._queue_for(access).push(access, self.sim.now)
        self._kick(access.channel)

    def _admit(self, ch: int) -> None:
        """Move waiting requests into queues as slots free up (FIFO per queue)."""
        rq, wq = self.read_q[ch], self.write_q[ch]
        w = self.waiting_r[ch]
        while w and rq.has_room():
            self._enqueue(w.popleft())
        w = self.waiting_w[ch]
        while w and wq.has_room():
            self._enqueue(w.popleft())

    # ------------------------------------------------------------------ scheduling

    def _kick(self, ch: int) -> None:
        """Arrange a scheduling decision for channel ``ch`` at the current time.

        Nothing is scheduled while the issue window is full and its
        oldest burst ends after now: no completion on this channel can
        run before that decide, so it would issue nothing.  The oldest
        burst's completion kicks again.
        """
        if self._decision_pending[ch]:
            return
        now = self.sim.now
        ends = self._in_flight[ch]
        if len(ends) >= self._window and ends[0] > now:
            return
        self._decision_pending[ch] = True
        self.sim.at(now, self._decide, ch)

    def _decide(self, ch: int) -> None:
        """Issue accesses until the in-flight window fills or nothing is ready.

        Each iteration re-runs the design's selection against the updated
        queue/bank/bus state, so priorities are re-evaluated at every
        issue.  Bursts serialize on the channel bus in issue order; bank
        preparations of distinct banks overlap in flight.
        """
        self._decision_pending[ch] = False
        window = self._window
        now = self.sim.now
        # Hot loop: every bound method / container indexed below is
        # loop-invariant per channel, so resolve each exactly once.
        issue = self.device.channels[ch].issue
        ends = self._in_flight[ch]
        rq = self.read_q[ch]
        stats = self.stats
        select = self._select
        on_served = self.sched[ch].on_served
        on_issued = self._on_issued
        sim_at = self.sim.at
        complete = self._access_complete
        admit = self._admit
        while len(ends) < window:
            picked = select(ch)
            if picked is None:
                return
            access, queue = picked
            queue.remove(access, now)

            # Observable read-priority-inversion accounting: an LR-class
            # access issued (from either queue) while a PR-class read
            # waits in this channel's read queue.
            if access.priority == LR and rq.pr_count:
                stats.read_priority_inversions += 1

            _start, end = issue(access.rank, access.bank, access.row,
                                access.is_write, now)
            ends.append(end)
            on_served(access.core_id)
            on_issued(access)
            sim_at(end, complete, access)
            admit(ch)

    # -- write-flush state machine -------------------------------------------------

    def _flush_exit_check(self, ch: int) -> None:
        n = self.write_q[ch].size
        if self.flushing[ch] and (not n or n < self._wq_above_low):
            self.flushing[ch] = False

    def _flush_enter_forced(self, ch: int) -> None:
        if (not self.flushing[ch]
                and self.write_q[ch].size >= self._wq_high):
            self.flushing[ch] = True
            self.stats.forced_flushes += 1

    def _reads_preempt(self, ch: int) -> bool:
        """Are there reads that should preempt an opportunistic write drain?

        Overridden by DCA: its held LRs are deliberately *not* preemptive
        (they are background work, like the writes themselves).
        """
        return self.read_q[ch].size > 0

    def _continue_opportunistic(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        """Keep an in-progress idle-time write drain going.

        The drain continues to the low watermark; after the minimum batch
        has amortized the turnaround pair, arriving reads preempt it.
        """
        if not self._opp_flushing[ch]:
            return None
        n = self.write_q[ch].size
        if (n and (self.draining or n >= self._wq_above_low)
                and (self._opp_batch[ch] < self.cfg.queues.opportunistic_min_batch
                     or not self._reads_preempt(ch))):
            picked = self._pick_write(ch)
            if picked is not None:
                self._opp_batch[ch] += 1
                return picked
        self._opp_flushing[ch] = False
        return None

    def _start_opportunistic(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        """No serviceable reads this slot: begin an idle-time write drain
        if the write queue is above the low watermark (the paper's second
        flush trigger).  In end-of-run ``draining`` mode the watermark is
        ignored so residual writes empty out."""
        n = self.write_q[ch].size
        if n and (self.draining or n >= self._wq_above_low):
            picked = self._pick_write(ch)
            if picked is not None:
                self.stats.opportunistic_flushes += 1
                self._opp_flushing[ch] = True
                self._opp_batch[ch] = 1
            return picked
        return None

    def flush_all(self) -> None:
        """Drain every queued access regardless of watermarks.

        For end-of-simulation and tests: the passive write policy otherwise
        (correctly) parks writes below the low watermark forever when no
        further traffic arrives.  Run the simulator after calling this.
        """
        self.draining = True
        for ch in range(self.cfg.org.channels):
            self._kick(ch)

    def _pick_write(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        wq = self.write_q[ch]
        a = self.sched[ch].pick_banked(wq.classes,
                                       self.device.channels[ch], self.sim.now)
        return (a, wq) if a is not None else None

    def _pick_read(self, ch: int,
                   classes: Sequence[Mapping[int, BucketColumns]]
                   ) -> Optional[tuple[Access, AccessQueue]]:
        """Select from the read queue; ``classes`` is a tuple of
        ``global_bank -> `` non-empty same-bank candidate group maps whose
        union is the candidate set (see ``pick_banked``)."""
        rq = self.read_q[ch]
        a = self.sched[ch].pick_banked(classes, self.device.channels[ch],
                                       self.sim.now)
        return (a, rq) if a is not None else None

    # -- design hooks ---------------------------------------------------------------

    def _route(self, access: Access) -> str:
        """Return ``"read"`` or ``"write"``: which queue holds this access."""
        raise NotImplementedError

    def _select(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        """Pick the next access to issue on channel ``ch`` (or None)."""
        raise NotImplementedError

    def _on_issued(self, access: Access) -> None:
        """Post-issue hook (DCA updates its RRPC counters here)."""

    # ------------------------------------------------------------------ completion

    def _access_complete(self, access: Access) -> None:
        self._in_flight[access.channel].popleft()
        req = access.request
        role = access.role
        if role == TAG_READ:
            self._tag_read_done(req)
        elif role == DATA_READ:
            if req.rtype == REQ_READ:
                self._read_done(req)
            else:
                self._victim_read_done(req)
        else:  # TAG_WRITE / DATA_WRITE
            if access.critical:
                req.accesses_left -= 1
                if req.accesses_left == 0:
                    self._write_request_done(req)
        self._kick(access.channel)

    def _tag_read_done(self, req: CacheRequest) -> None:
        now = self.sim.now
        outcome = self.translator.after_tag_read(req, now)
        st = self.stats
        if req.rtype == REQ_READ:
            if self.mapi is not None and not req.prefetch:
                self.mapi.update(req.core_id, req.pc, outcome.hit,
                                 req.meta.get("pred_miss", False))
            if outcome.hit:
                st.read_hits += 1
                if req.meta.get("probing"):
                    st.wasted_fetches += 1  # memory data must be discarded
                if not outcome.next_accesses:
                    # Direct-mapped: the TAD read carried the data.
                    self._read_done(req)
                else:
                    for a in outcome.next_accesses:
                        self._enqueue(a)
            else:
                st.read_misses += 1
                if req.meta.get("probing"):
                    if req.meta.get("mem_data_ready"):
                        # Fetch already returned; deliver + refill now.
                        self._complete_missed_read(req)
                    # else: the in-flight fetch will complete the request.
                else:
                    st.memory_fetches += 1
                    self.mainmem.fetch(req.addr, self._mem_fetch_done, req)
            return

        # Writeback / refill.
        if outcome.hit:
            st.writeback_hits += 1
        else:
            st.writeback_misses += 1
        req.accesses_left = len(outcome.next_accesses)
        if outcome.victim_read is not None:
            # Dirty victim (set-assoc): read its data before overwriting.
            req.meta["pending_writes"] = outcome.next_accesses
            req.meta["victim_addr"] = outcome.victim_mem_write
            self._enqueue(outcome.victim_read)
        else:
            if outcome.victim_mem_write is not None:
                # Direct-mapped: victim data arrived with the TAD read.
                st.victim_mem_writes += 1
                self.mainmem.write(outcome.victim_mem_write)
            for a in outcome.next_accesses:
                self._enqueue(a)

    def _victim_read_done(self, req: CacheRequest) -> None:
        """RDw finished: ship the victim to memory, then do the writes."""
        victim = req.meta.pop("victim_addr", None)
        if victim is not None:
            self.stats.victim_mem_writes += 1
            self.mainmem.write(victim)
        for a in req.meta.pop("pending_writes", []):
            self._enqueue(a)

    def _mem_fetch_done(self, req: CacheRequest) -> None:
        """Main-memory data arrived for a (predicted or actual) read miss."""
        if req.hit is None:
            # Tag check still pending; remember the data is here.
            req.meta["mem_data_ready"] = True
            return
        if req.hit:
            # Predicted miss but the tags said hit — the fetch was wasted
            # (counted at tag-read completion; nothing more to do).
            return
        self._complete_missed_read(req)

    def _complete_missed_read(self, req: CacheRequest) -> None:
        """Deliver miss data to the L2 and spawn the refill."""
        if req.done_time >= 0:
            return
        self._read_done(req)
        refill = CacheRequest(REQ_REFILL, req.addr, req.core_id,
                              pc=req.pc)
        self.submit(refill)

    def _read_done(self, req: CacheRequest) -> None:
        if req.done_time >= 0:
            return
        now = self.sim.now
        req.done_time = now
        st = self.stats
        st.reads_done += 1
        st.read_latency_sum_ps += now - req.arrival
        if req.on_done is not None:
            req.on_done(req)

    def _write_request_done(self, req: CacheRequest) -> None:
        req.done_time = self.sim.now
        if self._pending_writes.get(req.addr) is req:
            del self._pending_writes[req.addr]
        if req.on_done is not None:
            req.on_done(req)

    # ------------------------------------------------------------------ reporting

    def reset_stats(self) -> None:
        """Zero controller + substrate counters (warm-up boundary).

        Deliberately narrower than ``self.metrics.reset()``: the system
        harness mounts further groups into this registry, some of which
        (MAP-I, Lee) accumulate across the warm-up boundary.  Queue
        occupancy integrals restart here too, so ``mean_occupancy``
        covers the measured interval only.
        """
        self.stats.reset()
        self.device.metrics.reset()
        self.array.reset_counters()
        now = self.sim.now
        for q in self.read_q:
            q.reset_accounting(now)
        for q in self.write_q:
            q.reset_accounting(now)

    def queues_empty(self) -> bool:
        return (all(not q.size for q in self.read_q)
                and all(not q.size for q in self.write_q)
                and all(not w for w in self.waiting_r)
                and all(not w for w in self.waiting_w))
