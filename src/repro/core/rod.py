"""ROD — the Request-Oriented Design (paper §III-B).

Accesses are routed by *request type*: everything belonging to a cache
read goes to the read queue; everything belonging to a writeback or refill
— including their **tag reads** (RTw) — goes to the write queue.  The one
exception (paper footnote 1) is the tag *write* of a read request, which
goes to the write queue for performance.

This keeps writeback/refill tag reads (RTw) out of the read queue, so
they never compete there with demand reads and most RRC disappears by
construction.  It does not make read priority inversion impossible: RTw
still issue from the write queue during flushes while demand reads wait,
and ``ControllerStats.read_priority_inversions`` counts every LR-class
issue made while a PR-class read waits in the read queue.  The write
queue now holds a mixture of bus reads and bus writes: draining
it bounces the bus direction back and forth (turnaround storms), and the
RTw work that CD performed opportunistically during read idle time is now
deferred until a flush — so flushes are longer and delay subsequent reads.
Table II gives ROD a 32-entry read queue and a 96-entry write queue (the
write queue carries more access types).
"""

from __future__ import annotations

from typing import Optional

from repro.core.access import REQ_READ, TAG_WRITE, Access
from repro.core.base import BaseController
from repro.core.queues import AccessQueue


class RODController(BaseController):
    """Route by request type; serve the read queue first."""

    design = "ROD"

    def _route(self, access: Access) -> str:
        if access.request.rtype == REQ_READ:
            # Footnote 1: WTr goes to the write queue even in ROD.
            if access.role == TAG_WRITE:
                return "write"
            return "read"
        return "write"

    def _select(self, ch: int) -> Optional[tuple[Access, AccessQueue]]:
        self._flush_exit_check(ch)
        self._flush_enter_forced(ch)
        if self.flushing[ch]:
            picked = self._pick_write(ch)
            if picked is not None:
                return picked
            self.flushing[ch] = False
        picked = self._continue_opportunistic(ch)
        if picked is not None:
            return picked
        picked = self._pick_read(ch, self.read_q[ch].classes)
        if picked is not None:
            return picked
        return self._start_opportunistic(ch)
