"""Request -> access translation (paper Fig. 2).

The translator turns an L2-level cache request into the staged sequence of
DRAM array accesses the controller must schedule, consulting the functional
tag array at tag-read completion time to decide the hit/miss leg:

=====================  ==========================================
request                accesses (set-associative)
=====================  ==========================================
cache read             RTr ; on hit -> RDr + WTr
cache writeback        RTw ; on hit -> WDw + WTw
                       on miss -> [RDw victim if dirty ->] WDw + WTw
cache refill           identical to writeback (insert clean)
=====================  ==========================================

=====================  ==========================================
request                accesses (direct-mapped / Alloy)
=====================  ==========================================
cache read             one TAD read (tag+data in a single burst)
cache writeback/refill TAD read ; -> TAD write (victim data, if
                       dirty, arrived with the TAD read)
=====================  ==========================================

The translator is pure policy: it builds :class:`~repro.core.access.Access`
objects with their array coordinates but does not touch queues or timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cache.dramcache import DRAMCacheArray
from repro.core.access import (
    DATA_READ,
    DATA_WRITE,
    REQ_READ,
    REQ_WRITEBACK,
    TAG_READ,
    TAG_WRITE,
    Access,
    AccessRole,
    CacheRequest,
)
from repro.dram.address import AddressMapper


@dataclass
class TagOutcome:
    """What the controller must do after a request's tag read completes."""

    hit: bool
    #: accesses to enqueue now (already routed through the address mapper)
    next_accesses: list[Access] = field(default_factory=list)
    #: a dirty-victim data read that must complete before the writes issue
    victim_read: Optional[Access] = None
    #: block address whose data must be written to main memory (dirty victim)
    victim_mem_write: Optional[int] = None
    #: the read request missed: fetch the block from main memory
    memory_fetch: bool = False


class Translator:
    """Builds access plans against one organization + address mapping."""

    def __init__(self, array: DRAMCacheArray, mapper: AddressMapper):
        self.array = array
        self.mapper = mapper
        # Per-system access age counter (the schedulers' final tiebreak).
        # Owned here — not by the Access class — so it travels with the
        # simulation through snapshot capture/restore and two live
        # simulations never interleave their sequence numbers.
        self._seq = 0

    # -- access construction ----------------------------------------------------

    def _make(self, role: AccessRole, req: CacheRequest, array_addr: int,
              now: int, critical: bool = True) -> Access:
        channel, rank, bank, row, col, global_bank = self.mapper.locate(
            array_addr)
        self._seq += 1
        return Access(role, req, channel, rank, bank, row, col, global_bank,
                      now, critical=critical, seq=self._seq)

    # -- stage 1 ------------------------------------------------------------------

    def initial_access(self, req: CacheRequest, now: int) -> Access:
        """The tag read that begins every request.

        In the direct-mapped organization a *read* request's tag read is the
        TAD read itself (tag and data return together), so a read hit
        finishes with this single access.
        """
        tag_addr = self.array.tag_location(req.addr)
        return self._make(TAG_READ, req, tag_addr, now)

    # -- stage 2 ------------------------------------------------------------------

    def after_tag_read(self, req: CacheRequest, now: int) -> TagOutcome:
        """Resolve hit/miss functionally and build the follow-on accesses."""
        if req.rtype == REQ_READ:
            return self._after_read_tag(req, now)
        return self._after_write_tag(req, now)

    def _after_read_tag(self, req: CacheRequest, now: int) -> TagOutcome:
        res = self.array.lookup_read(req.addr)
        req.hit = res.hit
        if not res.hit:
            return TagOutcome(hit=False, memory_fetch=True)
        if self.array.is_direct_mapped:
            # TAD read already returned the data; no further access.
            return TagOutcome(hit=True)
        data = self._make(DATA_READ, req,
                          self.array.data_location(req.addr, res.way), now)
        # Replacement-bit update; off the critical path.
        tagw = self._make(TAG_WRITE, req,
                          self.array.tag_location(req.addr), now,
                          critical=False)
        return TagOutcome(hit=True, next_accesses=[data, tagw])

    def _after_write_tag(self, req: CacheRequest, now: int) -> TagOutcome:
        """Writeback / refill: update in place on hit, allocate on miss."""
        res = self.array.lookup_write(req.addr)
        req.hit = res.hit
        dirty_insert = req.rtype == REQ_WRITEBACK
        if res.hit:
            way = res.way
            victim_mem_write = None
            victim_read = None
        else:
            fill = self.array.fill(req.addr, dirty=dirty_insert)
            way = fill.way
            victim_mem_write = (fill.victim_block_addr
                                if fill.victim_dirty else None)
            victim_read = None
            if fill.victim_dirty and not self.array.is_direct_mapped:
                # RDw: the victim's data must be read before it is
                # overwritten (paper Fig. 2).  In the direct-mapped
                # organization the TAD read already returned it.
                victim_read = self._make(
                    DATA_READ, req,
                    self.array.data_location(req.addr, way), now)

        if self.array.is_direct_mapped:
            # One TAD write carries tag+data together.
            writes = [self._make(DATA_WRITE, req,
                                 self.array.tag_location(req.addr), now)]
        else:
            writes = [
                self._make(DATA_WRITE, req,
                           self.array.data_location(req.addr, way), now),
                self._make(TAG_WRITE, req,
                           self.array.tag_location(req.addr), now),
            ]
        return TagOutcome(hit=res.hit, next_accesses=writes,
                          victim_read=victim_read,
                          victim_mem_write=victim_mem_write)

    # -- static shape helpers (used by tests and the Fig. 18 study) -------------

    def accesses_per_read_hit(self) -> int:
        """How many array accesses a read hit costs (3 SA, 1 DM)."""
        return 1 if self.array.is_direct_mapped else 3

    def accesses_per_writeback_hit(self) -> int:
        """How many array accesses a writeback hit costs (3 SA, 2 DM)."""
        return 2 if self.array.is_direct_mapped else 3
