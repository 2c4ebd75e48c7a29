"""The vocabulary of DRAM-cache requests and DRAM accesses (paper Fig. 2).

A **request** is what the L2 sends the DRAM-cache controller: a cache read
(demand miss), a cache writeback (dirty eviction), or a cache refill (block
arriving from main memory).  A **access** is one DRAM array operation the
request translates into:

    read request (set-assoc):  RTr -> [hit] RDr + WTr
    writeback / refill:        RTw -> WDw + WTw (+ RDw if the victim is dirty)
    read request (direct-mapped): one TAD read
    writeback / refill (dm):   TAD read -> TAD write

The **role** names (``RT``/``RD``/``WT``/``WD`` with request-type subscript)
follow the paper's Figs. 4-7.  The controller designs differ only in which
queue each access is routed to and in what priority class it is served
(DCA's PR/LR split), so those attributes live on the access itself.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Callable, Optional


class RequestType(IntEnum):
    """What the L2 asked for."""

    READ = 0        # demand fetch (critical path)
    WRITEBACK = 1   # dirty eviction from L2
    REFILL = 2      # block returning from main memory into the cache


# Module-level aliases of the enum members, for code that runs per access.
# On CPython 3.11 ``EnumType`` defines a Python ``__getattr__``, so every
# ``RequestType.READ`` load inside a function goes through the slow slot
# getattr hook: ~136 ns, against ~16 ns for a module global (``timeit``,
# CPython 3.11.7, x86-64 Xeon).  dca-lint R3 flags enum member loads
# inside function bodies of the per-access packages.
REQ_READ = RequestType.READ
REQ_WRITEBACK = RequestType.WRITEBACK
REQ_REFILL = RequestType.REFILL


class AccessRole(IntEnum):
    """Which array operation this access performs."""

    TAG_READ = 0    # RT* : read a tag block (or TAD in direct-mapped)
    DATA_READ = 1   # RD* : read a data block
    TAG_WRITE = 2   # WT* : write a tag block (replacement bits / tag insert)
    DATA_WRITE = 3  # WD* : write a data block (or TAD in direct-mapped)


TAG_READ = AccessRole.TAG_READ
DATA_READ = AccessRole.DATA_READ
TAG_WRITE = AccessRole.TAG_WRITE
DATA_WRITE = AccessRole.DATA_WRITE

#: Roles that drive the DRAM bus in read mode.
_READ_ROLES = frozenset({TAG_READ, DATA_READ})


class Priority(IntEnum):
    """DCA's read-access classes (paper §IV-B).

    PR — priority reads: tag/data reads belonging to cache-read requests
    (the critical path).  LR — low-priority reads: tag reads belonging to
    writeback and refill requests.  Write accesses carry ``WRITE`` for
    uniform bookkeeping.
    """

    PR = 0
    LR = 1
    WRITE = 2


PR = Priority.PR
LR = Priority.LR
WRITE_CLASS = Priority.WRITE


class CacheRequest:
    """One L2-level request to the DRAM cache."""

    __slots__ = ("rtype", "addr", "core_id", "pc", "arrival", "done_time",
                 "on_done", "hit", "accesses_left", "prefetch", "meta")

    _counter = 0

    def __init__(self, rtype: RequestType, addr: int, core_id: int,
                 pc: int = 0, arrival: int = 0,
                 on_done: Optional[Callable[["CacheRequest"], None]] = None,
                 prefetch: bool = False):
        self.rtype = rtype
        self.addr = addr
        self.core_id = core_id
        self.pc = pc
        self.arrival = arrival
        self.done_time: int = -1
        self.on_done = on_done
        self.hit: Optional[bool] = None   # resolved at tag-read completion
        self.accesses_left = 0            # live accesses gating completion
        self.prefetch = prefetch          # speculative read: LR class, no MAP-I
        self.meta: dict = {}              # experiment hooks (kept small)

    @property
    def is_read(self) -> bool:
        return self.rtype == REQ_READ

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheRequest({self.rtype.name}, addr={self.addr:#x}, "
                f"core={self.core_id}, t={self.arrival})")


class Access:
    """One DRAM array access; the unit the controller schedules."""

    __slots__ = ("role", "request", "channel", "rank", "bank", "row", "col",
                 "global_bank", "arrival", "seq", "priority", "on_complete",
                 "critical", "core_id", "is_write")

    _seq = 0

    def __init__(self, role: AccessRole, request: CacheRequest,
                 channel: int, rank: int, bank: int, row: int, col: int,
                 global_bank: int, arrival: int,
                 on_complete: Optional[Callable[["Access", int], None]] = None,
                 critical: bool = True, seq: Optional[int] = None):
        self.role = role
        self.request = request
        self.channel = channel
        self.rank = rank
        self.bank = bank
        self.row = row
        self.col = col
        self.global_bank = global_bank
        self.arrival = arrival
        if seq is None:
            # Convenience fallback for hand-built accesses (tests, perf
            # benches).  The simulator proper always passes an explicit
            # seq from the per-system Translator counter: a class-global
            # here would be hidden state that snapshot capture/restore
            # could not make bit-faithful (see repro/snapshot.py).
            # Static class-var assignment: mypyc-legal (ClassVar
            # through the class, never an instance).
            Access._seq += 1  # dca-lint: disable=R7
            seq = Access._seq
        self.seq = seq                    # age tiebreak for schedulers
        # Flattened from the owning request: the scheduler inner loop reads
        # this per candidate, and a slot is much cheaper than a property.
        self.core_id = request.core_id
        self.on_complete = on_complete
        #: completion of this access gates the request's completion
        self.critical = critical
        # Priority class per DCA's taxonomy; identical labels are kept for
        # CD/ROD so stats can distinguish inverted reads there too.
        if role in _READ_ROLES:
            # Prefetch reads are speculative: they ride in the LR class
            # so DCA never inverts a demand read behind one.
            self.priority = (PR if request.rtype == REQ_READ
                             and not request.prefetch else LR)
            # Flattened like core_id: does this access drive the bus in
            # write mode?  Read per scheduling decision and per issue, so
            # a slot beats recomputing the role test as a property.
            self.is_write = False
        else:
            self.priority = WRITE_CLASS
            self.is_write = True

    @property
    def is_bus_read(self) -> bool:
        return not self.is_write

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Access({self.role.name}, {self.priority.name}, "
                f"ch{self.channel} b{self.bank} r{self.row})")
