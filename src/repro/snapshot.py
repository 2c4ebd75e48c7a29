"""Simulation snapshot/restore and the warm-state cache.

Two snapshot flavours, one invariant
------------------------------------

**Full snapshots** (:func:`capture` / :func:`restore`) freeze a complete
mid-run simulator — event heap + clock, cores, access queues with their
PR/LR/bank indexes, scheduler state, DRAM bank/row/bus timing, DRAM-cache
and L2 contents, MSHRs, metrics — and the hard invariant is **bit
identity**: a restored run must continue exactly as the captured one
would have, event for event, counter for counter (enforced property-style
over every design x scheduler in ``tests/test_snapshot_diff.py``).

**Warm states** (:class:`WarmState`, captured via
``System.capture_warm_state``) freeze only the *design-independent*
warm-up products — DRAM-cache array contents, L2 contents, trace
positions.  Everything a controller design influences (timing, queues,
predictors) is exactly what a fresh system starts with zeroed, so one
warm state forks an entire controller-design sweep: ``run_grid`` groups
points by :func:`~repro.experiments.common.warm_group_key` (the run
prefix with controller-irrelevant fields masked) and the warm invariant
is that a forked run equals a cold run bit-for-bit.

How full capture works
----------------------

The simulator is a plain object graph: ``copy.deepcopy`` with its memo is
precisely a graph-preserving state copy (aliasing, cycles and the shared
metrics registry all survive), and bound methods deep-copy by re-binding
to the copied owner.  Three things had to be engineered for this to be
*correct* rather than merely convenient, and they are the real contract
of this module (see DESIGN.md "Snapshot/restore"):

* **no closures in live state** — a closure deep-copies as an atom and
  would keep pointing into the donor run ("System._row_of", the MAP-I
  fetch callbacks); all scheduled callbacks are bound methods or module
  functions;
* **no raw generators in live state** — traces are consumed through
  :class:`~repro.workloads.cursor.TraceCursor`, which rebuilds + replays
  on copy;
* **no hidden globals** — the scheduler age tiebreak (``Access.seq``)
  is drawn from a per-system counter on the Translator, not a class
  global, so a restored simulation continues its own numbering and any
  number of simulations (donor + restored forks) may run interleaved in
  one process without contaminating each other.

Snapshots are schema-versioned; :func:`save`/:func:`load` persist them
with a validated header so stale payloads fail loudly, never "close
enough".
"""

from __future__ import annotations

import copy
import io
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

#: Version of the full-snapshot payload.  Bump whenever the simulator's
#: state shape changes in a way that would make an old payload lie.
#: v2: channel bus captures gained the last-burst rank (tCS turnaround)
#: and the main-memory image is the model's own capture_state dict (flat
#: bus_free or banked per-channel substrate state) instead of a bare int.
#: v3: the DRAM-cache array payload changed from a set dict to three byte strings.
#: v4: controller access queues keep one bank-bucket map per priority
#: class (no entries list or position maps), the controller's in-flight
#: state is per-channel deques of burst end times instead of counts, and
#: ``DRAMCacheArray.is_direct_mapped`` became an instance attribute.
SNAPSHOT_SCHEMA_VERSION = 4

#: Version of the :class:`WarmState` payload (independent of the full
#: snapshot: warm states are a narrow, explicitly-enumerated subset).
#: v2: identity gained the array replacement policy (``array_replacement``
#: alongside the l2 geometry's own ``replacement`` field) — contents laid
#: out under one victim policy must not seed a run using another.
#: v3: the DRAM-cache array payload changed from a set dict to three byte strings.
WARM_STATE_VERSION = 3


class SnapshotError(RuntimeError):
    """A snapshot payload cannot be (safely) restored."""


class WarmStateError(RuntimeError):
    """A warm state does not fit the system it is being restored into."""


@dataclass
class WarmState:
    """Design-independent warm-up products of one (workload, substrate) run.

    Produced by ``System.capture_warm_state`` immediately after the
    functional warm-up; consumed by ``System.restore_warm_state`` on a
    *fresh* system built over the same prefix.  The identifying fields
    double as a safety net: restore refuses a mismatched system instead
    of silently diverging from the cold-run result.

    KEEP IN SYNC: the identity fields here, the comparison in
    ``System.restore_warm_state`` and the hash inputs of
    ``repro.experiments.common.warm_group_key`` must cover the same
    warm-relevant inputs (the replay budget is carried by
    ``trace_counts`` and re-asserted by ``System.begin``).
    """

    schema_version: int
    organization: str
    seed: int
    benchmarks: list[str]
    footprint_scale: float
    lee_writeback: bool
    #: resolved geometries the contents were laid out under — adopted
    #: sets indexed for a different geometry would be silently wrong,
    #: so restore compares these, not just the organization string
    dram_cache_geometry: dict
    l2_geometry: dict
    #: victim policy the DRAM-cache array contents evolved under
    array_replacement: str
    #: trace operations each core consumed during the functional warm-up
    trace_counts: list[int]
    #: ``DRAMCacheArray.capture_state()`` payload (immutable column bytes)
    array_state: dict
    #: ``SRAMCache.capture_state()`` payload
    l2_state: dict
    meta: dict = field(default_factory=dict)


@dataclass
class SimSnapshot:
    """A complete, restorable image of one simulation."""

    schema_version: int
    #: the frozen object graph (a deep copy of the captured System)
    state: Any
    meta: dict = field(default_factory=dict)


def capture(system, meta: Optional[dict] = None) -> SimSnapshot:
    """Freeze a complete image of ``system`` at its current event.

    The donor system is not perturbed (verified by the differential
    tests: a captured run finishes identically to an uncaptured one) and
    may keep running; the snapshot is immutable from its point of view.
    Call between event-loop slices, never from inside a callback.
    """
    return SimSnapshot(
        schema_version=SNAPSHOT_SCHEMA_VERSION,
        state=copy.deepcopy(system),
        meta=dict(meta or {}),
    )


def restore(snapshot: SimSnapshot):
    """Materialise an independent, runnable system from ``snapshot``.

    Each call returns a fresh copy, so one snapshot forks any number of
    runs; donor and forks are fully isolated (including their access
    sequence numbering) and may run interleaved.
    """
    if snapshot.schema_version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema {snapshot.schema_version!r} != current "
            f"{SNAPSHOT_SCHEMA_VERSION}")
    return copy.deepcopy(snapshot.state)


# ------------------------------------------------------------------ persistence

#: Magic header of the on-disk snapshot container.
_MAGIC = b"DCASNAP1"


def save(snapshot: SimSnapshot, path) -> Path:
    """Persist a snapshot (atomic: tmp file + rename).

    The payload is a pickle of the frozen object graph behind a validated
    magic + version header, so a foreign or stale file is rejected before
    any unpickling happens.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(SNAPSHOT_SCHEMA_VERSION.to_bytes(4, "little"))
    pickle.dump(snapshot, buf, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(buf.getvalue())
    tmp.replace(path)
    return path


def load(path) -> SimSnapshot:
    """Load a snapshot written by :func:`save`, validating the header."""
    data = Path(path).read_bytes()
    if data[:len(_MAGIC)] != _MAGIC:
        raise SnapshotError(f"{path}: not a snapshot file (bad magic)")
    version = int.from_bytes(data[len(_MAGIC):len(_MAGIC) + 4], "little")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"{path}: snapshot schema {version} != current "
            f"{SNAPSHOT_SCHEMA_VERSION}")
    snapshot = pickle.loads(data[len(_MAGIC) + 4:])
    if not isinstance(snapshot, SimSnapshot):
        raise SnapshotError(f"{path}: payload is not a SimSnapshot")
    return snapshot


# ------------------------------------------------------------------ warm cache

class WarmCache:
    """Bounded in-process cache of :class:`WarmState` keyed by run prefix.

    ``run_grid`` consults one instance per worker process: the first
    design point of a (mix, substrate) group populates it, every later
    point forks from it.  Entries are evicted FIFO beyond ``capacity`` —
    warm states share their array backing with live runs cheaply, but an
    unbounded cache across many sweeps would still pin every footprint
    ever warmed.
    """

    def __init__(self, capacity: int = 8):
        if capacity <= 0:
            raise ValueError("warm cache capacity must be positive")
        self.capacity = capacity
        self._entries: dict[str, WarmState] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[WarmState]:
        warm = self._entries.get(key)
        if warm is None:
            self.misses += 1
        else:
            self.hits += 1
        return warm

    def put(self, key: str, warm: WarmState) -> None:
        if key not in self._entries and len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = warm

    def clear(self) -> None:
        self._entries.clear()


# ------------------------------------------------------------------ test hooks

def state_signature(system) -> dict:
    """A comparable, value-only digest of the complete simulator state.

    Built for the differential tests: two systems with equal signatures
    are in the same state for every observable the simulation can branch
    on.  Objects are summarised by value (never identity), so signatures
    of independent copies — original vs. restored — compare equal exactly
    when the restore was faithful.
    """
    def req_sig(r) -> tuple:
        return (int(r.rtype), r.addr, r.core_id, r.pc, r.arrival,
                r.done_time, r.hit, r.accesses_left, r.prefetch,
                sorted(k for k in r.meta))

    def access_sig(a) -> tuple:
        return (int(a.role), int(a.priority), a.channel, a.rank, a.bank,
                a.row, a.col, a.global_bank, a.arrival, a.seq, a.critical,
                a.core_id, req_sig(a.request))

    ctl = system.controller
    sig: dict[str, Any] = {
        "engine": system.sim.signature(),
        "design": ctl.design,
        "metrics": system.metrics.snapshot(),
    }

    sig["translator_seq"] = ctl.translator._seq
    sig["queues"] = [
        {
            "read": [access_sig(a) for a in rq.entries],
            "write": [access_sig(a) for a in wq.entries],
            "waiting_r": [access_sig(a) for a in ctl.waiting_r[ch]],
            "waiting_w": [access_sig(a) for a in ctl.waiting_w[ch]],
            "read_acct": (rq._occupancy_integral, rq._last_t, rq._t0),
            "write_acct": (wq._occupancy_integral, wq._last_t, wq._t0),
        }
        for ch, (rq, wq) in enumerate(zip(ctl.read_q, ctl.write_q))
    ]
    sig["controller"] = {
        "flushing": list(ctl.flushing),
        "decision_pending": list(ctl._decision_pending),
        "in_flight": [list(ends) for ends in ctl._in_flight],
        "opp_flushing": list(ctl._opp_flushing),
        "opp_batch": list(ctl._opp_batch),
        "draining": ctl.draining,
        "pending_writes": {addr: req_sig(r)
                           for addr, r in ctl._pending_writes.items()},
    }
    sig["schedulers"] = [
        {slot: getattr(s, slot)
         for slot in ("blacklist", "_last_core", "_streak", "_last_clear",
                      "served")
         if hasattr(s, slot)}
        for s in ctl.sched
    ]
    if hasattr(ctl, "schedule_all"):            # DCA extras
        sig["dca"] = {"schedule_all": list(ctl.schedule_all),
                      "rrpc": (ctl.rrpc._global, list(ctl.rrpc._set_at))}
    # One value-image per channel through the substrate protocol, so every
    # fidelity's full timing state (banks + bus, plus refresh/ACT-window/
    # page-policy bookkeeping at command level) participates.
    sig["substrate"] = [chan.capture_state()
                       for chan in ctl.device.channels]
    sig["mainmem"] = ctl.mainmem.capture_state()
    sig["array"] = ctl.array.contents_signature()
    sig["l2"] = {
        "clock": system.l2._clock,
        "sets": sorted((k, [tuple(e) for e in v.values()])
                       for k, v in system.l2._sets.items()),
        "dirty_rows": sorted((row, sorted(blocks)) for row, blocks
                             in system.l2._dirty_rows.items()),
    }
    sig["mshr"] = {
        "entries": sorted(
            (addr, e.issued_at, e.any_write, e.is_prefetch, e.promoted,
             len(e.waiters))
            for addr, e in system.mshr._entries.items()),
        "used": (system.mshr._demand_used, system.mshr._prefetch_used),
        "counts": system.mshr.stats.snapshot(),
        "waiters": len(system._mshr_waiters),
    }
    sig["writebuf"] = system.writebuf.capture_state()
    if system.prefetcher is not None:
        sig["prefetcher"] = {
            "state": system.prefetcher.capture_state(),
            "prefetched": sorted(system._prefetched),
        }
    if ctl.mapi is not None:
        sig["mapi"] = [list(t) for t in ctl.mapi.tables]
    sig["cores"] = [
        {
            "icount": c.icount, "token": c._token, "blocked": c.blocked,
            "resume_base": c._resume_base, "budget": c.budget,
            "warmup_at": c.warmup_at, "finish_time": c.finish_time,
            "warmup_time": c.warmup_time, "warmup_icount": c.warmup_icount,
            "loads": c.loads_issued, "stores": c.stores_issued,
            "stall_blocked_ps": c.stall_blocked_ps,
            "blocked_since": c._blocked_since,
            "outstanding": sorted(c.outstanding.items()),
            "trace_count": c.trace.count,
            "next_op": c._next_op, "retry_op": c._retry_op,
        }
        for c in system.cores
    ]
    sig["warmed"] = system._warmed
    sig["finished"] = system._finished
    return sig
