"""Controller access queues with watermark state and scheduling indexes.

One :class:`AccessQueue` holds the accesses waiting to be scheduled on one
channel's bus for one direction class (the designs differ in *what* they
route here — see cd/rod/dca modules).  Capacity applies to *admission of
new requests*: continuation accesses of an in-flight request (the RD/WT
that follow a completed tag read) always fit, mirroring how real
controllers reserve slots for request continuations to avoid deadlock.

Scheduling layout
-----------------
Every queued access sits in exactly one place: the
``global_bank -> `` :class:`BankBucket` map of its priority class (PR,
LR or WRITE — ``Access.priority``).  Integer counters give the queue
length and the PR/LR counts without a scan.  A scheduling decision hands
the schedulers' ``pick_banked`` a tuple of the class maps it may pick
from (``classes`` for the whole queue, ``pr_only`` for DCA's priority
reads, or a filtered map for OFS), so row-hit classification is done
once per *bank* instead of once per *access* and no per-decision
candidate list is ever built.

Buckets are **struct-of-arrays**: each keeps the scheduler-relevant
fields of its members (``seqs`` / ``rows`` / ``cores``) as parallel flat
lists alongside the access objects, mirroring the channel's SoA bank
state.  ``pick_banked`` scans those int columns — the candidate-readiness
classification (row hit? blacklisted? age) batches into list index math
per bank with no per-candidate attribute chases, and only the winning
index dereferences an ``Access``.

Which map or bucket the scheduler visits first cannot change its pick:
every selection policy in this codebase totally orders candidates with
the globally unique ``Access.seq`` as the final tiebreak, so the argmin
is unique and independent of visit order (see DESIGN.md, "Indexed
scheduling fast path").
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.core.access import LR, PR, Access


class BankBucket:
    """Same-bank candidates as parallel columns (one slot per access).

    ``accs[i]`` / ``seqs[i]`` / ``rows[i]`` / ``cores[i]`` describe one
    queued access, in arrival order.  The scheduler fast paths read the
    int columns directly; iteration yields the access objects.
    """

    __slots__ = ("accs", "seqs", "rows", "cores")

    def __init__(self) -> None:
        self.accs: list[Access] = []
        self.seqs: list[int] = []
        self.rows: list[int] = []
        self.cores: list[int] = []

    def __len__(self) -> int:
        return len(self.accs)

    def __iter__(self) -> Iterator[Access]:
        return iter(self.accs)

    def __contains__(self, access: Access) -> bool:
        return access in self.accs

    def add(self, access: Access) -> None:
        self.accs.append(access)
        self.seqs.append(access.seq)
        self.rows.append(access.row)
        self.cores.append(access.core_id)

    def discard(self, access: Access) -> bool:
        """Delete ``access`` from every column; True when emptied.

        Raises ValueError when ``access`` is not in the bucket.  A bucket
        holds the few queued accesses of one bank and class, so the
        C-level identity scan of ``list.index`` is cheaper than keeping
        a position map up to date.
        """
        accs = self.accs
        i = accs.index(access)
        del accs[i], self.seqs[i], self.rows[i], self.cores[i]
        return not accs

    def row_hits(self, open_row: int) -> "FrozenBucket":
        """Filtered copy keeping only candidates whose row is ``open_row``.

        Used by DCA's OFS filter when a bank admits only its safe (row
        hit) candidates; the result is a read-only column group the
        schedulers consume exactly like a live bucket.
        """
        accs = self.accs
        cores = self.cores
        seqs = self.seqs
        keep = [i for i, row in enumerate(self.rows) if row == open_row]
        return FrozenBucket([accs[i] for i in keep],
                            [seqs[i] for i in keep],
                            [open_row] * len(keep),
                            [cores[i] for i in keep])


class FrozenBucket:
    """Read-only column group (a filtered view of a :class:`BankBucket`)."""

    __slots__ = ("accs", "seqs", "rows", "cores")

    def __init__(self, accs: list[Access], seqs: list[int],
                 rows: list[int], cores: list[int]) -> None:
        self.accs = accs
        self.seqs = seqs
        self.rows = rows
        self.cores = cores

    def __len__(self) -> int:
        return len(self.accs)

    def __iter__(self) -> Iterator[Access]:
        return iter(self.accs)


#: ``global_bank -> bucket`` map of one priority class.
ClassMap = dict[int, BankBucket]


class AccessQueue:
    """A bounded scheduling pool (not FIFO: schedulers pick by policy)."""

    __slots__ = ("capacity", "size", "pr_count", "lr_count",
                 "pr_banks", "lr_banks", "write_banks", "classes", "pr_only",
                 "_occupancy_integral", "_last_t", "_t0")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        #: queued accesses in total, and in the PR and LR read classes
        self.size = 0
        self.pr_count = 0
        self.lr_count = 0
        # One ``global_bank -> bucket`` map per priority class; empty
        # buckets are deleted, so iteration is proportional to the
        # occupied banks.
        self.pr_banks: ClassMap = {}
        self.lr_banks: ClassMap = {}
        self.write_banks: ClassMap = {}
        #: the class maps indexed by ``Priority`` value: the whole queue
        #: as ``pick_banked`` takes it
        self.classes: tuple[ClassMap, ...] = (
            self.pr_banks, self.lr_banks, self.write_banks)
        #: the PR class alone (DCA's normal scheduling slot)
        self.pr_only: tuple[ClassMap, ...] = (self.pr_banks,)
        # time-weighted occupancy, for average-occupancy reporting
        self._occupancy_integral = 0
        self._last_t = 0
        self._t0 = 0

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Access]:
        return iter(self.entries)

    def __contains__(self, access: Access) -> bool:
        bucket = self.classes[access.priority].get(access.global_bank)
        return bucket is not None and access in bucket

    @property
    def entries(self) -> list[Access]:
        """The queued accesses, oldest (lowest ``seq``) first; O(n log n).

        Derived for snapshots, the naive reference selectors and tests;
        the scheduling path never builds it.
        """
        return sorted((a for banks in self.classes
                       for bucket in banks.values() for a in bucket.accs),
                      key=_seq_of)

    @property
    def occupancy(self) -> float:
        """Fill fraction; may exceed 1.0 transiently via continuations."""
        return self.size / self.capacity

    def has_room(self) -> bool:
        """Admission check for *new* requests."""
        return self.size < self.capacity

    def push(self, access: Access, now: int = 0) -> None:
        """Add an access (continuations may exceed nominal capacity)."""
        if now > self._last_t:
            self._account(now)
        prio = access.priority
        if prio == PR:
            self.pr_count += 1
        elif prio == LR:
            self.lr_count += 1
        self.size += 1
        banks = self.classes[prio]
        gb = access.global_bank
        bucket = banks.get(gb)
        if bucket is None:
            bucket = banks[gb] = BankBucket()
        bucket.add(access)

    def remove(self, access: Access, now: int = 0) -> None:
        if now > self._last_t:
            self._account(now)
        prio = access.priority
        banks = self.classes[prio]
        gb = access.global_bank
        try:
            emptied = banks[gb].discard(access)
        except (KeyError, ValueError):
            raise ValueError("access not in queue") from None
        if emptied:
            del banks[gb]
        self.size -= 1
        if prio == PR:
            self.pr_count -= 1
        elif prio == LR:
            self.lr_count -= 1

    # -- occupancy accounting ---------------------------------------------------

    def _account(self, now: int) -> None:
        if now > self._last_t:
            self._occupancy_integral += self.size * (now - self._last_t)
            self._last_t = now

    def reset_accounting(self, now: int) -> None:
        """Restart the time-weighted occupancy integral at ``now``.

        Called at the warm-up boundary so :meth:`mean_occupancy` reports
        the measured interval only, not warm-up traffic from t=0.
        """
        self._occupancy_integral = 0
        self._last_t = now
        self._t0 = now

    def mean_occupancy(self, now: int) -> float:
        """Time-averaged entry count since construction or the last
        :meth:`reset_accounting`."""
        self._account(now)
        span = now - self._t0
        return self._occupancy_integral / span if span > 0 else 0.0

    # -- filtered views used by the designs -------------------------------------

    def priority_reads(self) -> list[Access]:
        return sorted((a for bucket in self.pr_banks.values() for a in bucket),
                      key=_seq_of)

    def low_priority_reads(self) -> list[Access]:
        return sorted((a for bucket in self.lr_banks.values() for a in bucket),
                      key=_seq_of)

    def filtered(self, pred: Callable[[Access], bool]) -> list[Access]:
        return [a for a in self.entries if pred(a)]

    def oldest(self) -> Optional[Access]:
        entries = self.entries
        return entries[0] if entries else None

    # -- self-checks (tests only; O(n)) -----------------------------------------

    def check_invariants(self) -> None:
        """Assert the per-class layout is consistent (test hook).

        Every access sits in exactly one bucket — the one of its own
        class and bank — the counters equal the bucket sizes, no bucket
        is empty, and every column lane describes its access.
        """
        counts: list[int] = []
        seen: set[int] = set()
        for prio, banks in enumerate(self.classes):
            n = 0
            for gb, bucket in banks.items():
                assert bucket, f"class {prio}: empty bucket {gb}"
                assert (len(bucket.accs) == len(bucket.seqs)
                        == len(bucket.rows) == len(bucket.cores)), (prio, gb)
                for a, seq, row, core in zip(bucket.accs, bucket.seqs,
                                             bucket.rows, bucket.cores):
                    assert a.priority == prio and a.global_bank == gb
                    assert (seq, row, core) == (a.seq, a.row, a.core_id)
                    assert id(a) not in seen, f"{a!r} queued twice"
                    seen.add(id(a))
                n += len(bucket)
            counts.append(n)
        assert self.pr_banks is self.classes[PR]
        assert self.lr_banks is self.classes[LR]
        assert self.pr_only == (self.pr_banks,)
        assert (self.pr_count, self.lr_count) == (counts[PR], counts[LR])
        assert self.size == sum(counts)


def _seq_of(access: Access) -> int:
    return access.seq


#: Queue lengths at or above this count as "never reached".
_NEVER = 1 << 62


def first_length(capacity: int, holds: Callable[[float], bool]) -> int:
    """Smallest queue length ``n`` with ``holds(n / capacity)`` true.

    ``holds`` is an occupancy test that is false below some fill level
    and true from it on (``occ > x``, ``occ >= x``).  The controllers
    compare queue lengths against these precomputed thresholds instead of
    dividing per decision; because the threshold is found by evaluating
    the float predicate itself, ``n >= first_length(c, holds)`` agrees
    with ``holds(n / c)`` for every ``n`` with no rounding argument.
    Returns ``_NEVER`` when the test holds at no reachable length.
    """
    if holds(0 / capacity):
        return 0
    hi = 1
    while not holds(hi / capacity):     # exponential search for a bound
        if hi >= _NEVER:
            return _NEVER
        hi *= 2
    lo = hi // 2                        # holds(hi) and not holds(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid / capacity):
            hi = mid
        else:
            lo = mid
    return hi
