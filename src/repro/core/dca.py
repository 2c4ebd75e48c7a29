"""DCA — the DRAM-Cache-Aware controller (paper §IV).

DCA keeps CD's queue mapping (bus reads in the read queue, bus writes in
the write queue) so turnarounds stay rare, but teaches the read-queue
scheduler about *request* type:

* **PR (priority reads)** — tag/data reads of cache-read requests: served
  in every normal scheduling slot (BLISS order).
* **LR (low-priority reads)** — tag reads of writeback/refill requests:
  *held* in the read queue like a write queue, drained only when safe.

LRs drain through two mechanisms (paper Algorithm 1 + §IV-C):

1. **Occupancy hysteresis** — if read-queue occupancy exceeds 85 %,
   ``ScheduleAll`` turns on and every read (PR and LR) is eligible until
   occupancy falls below 75 %.
2. **OFS (Opportunistic Flushing Scheme)** — when no PR is pending, an LR
   may issue if its bank shows no row conflict (row hit or closed row), or
   if the bank's RRPC counter has decayed below the flushing factor
   (FF-4): no priority read has touched that bank recently, so the LR is
   unlikely to steal a row a PR is about to reuse.

The RRPC table is updated **only by PRs** (paper §IV-C): on each PR issue
all bank counters decay by one and the PR's bank is set to 7.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.core.access import LR, PR, Access
from repro.core.base import BaseController
from repro.core.queues import AccessQueue, BankBucket, FrozenBucket, first_length
from repro.core.rrpc import RRPCTable
from repro.dram.bank import ROW_CONFLICT


def ofs_naive_candidates(entries: Iterable[Access], channel, rrpc: RRPCTable,
                         flushing_factor: int) -> list[Access]:
    """LRs passing the OFS criteria (§IV-C) — naive full-scan reference.

    The executable specification :func:`ofs_bucket_filter` is tested
    against; classifies every access's row state individually.  Shared
    by the controller (reference path) and the perf benchmark's naive
    engine.
    """
    out = []
    for a in entries:
        if a.priority != LR:
            continue
        bank = channel.banks[channel.bank_index(a.rank, a.bank)]
        if bank.row_state(a.row) != ROW_CONFLICT:
            out.append(a)          # row hit or closed row: safe
        elif rrpc.allows_flush(a.global_bank, flushing_factor):
            out.append(a)          # conflicting, but the bank is cold
    return out


def ofs_bucket_filter(lr_buckets: Mapping[int, BankBucket],
                      open_rows: Sequence[int], rrpc: RRPCTable,
                      flushing_factor: int) -> dict[int, BankBucket | FrozenBucket]:
    """Apply the OFS criteria (§IV-C) per *bank* over LR bank buckets.

    A closed row (``open_rows[i] == -1`` in the channel's SoA columns) or
    a decayed RRPC counter admits a bank's whole bucket — passed through
    *by reference*, no copy; otherwise only its row hits are safe, and
    the bucket's ``rows`` column is membership-tested once before any
    filtered copy is built.  The bucket's channel-local bank is
    ``global_bank % len(open_rows)`` (see ``AddressMapper.global_bank``).
    Shared by the controller hot path and the perf benchmark so the two
    can't drift apart.
    """
    nbanks = len(open_rows)
    out: dict[int, BankBucket | FrozenBucket] = {}
    for gb, bucket in lr_buckets.items():
        open_row = open_rows[gb % nbanks]
        if open_row < 0 or rrpc.allows_flush(gb, flushing_factor):
            out[gb] = bucket
        elif open_row in bucket.rows:
            out[gb] = bucket.row_hits(open_row)
    return out


class DCAController(BaseController):
    """CD's routing + PR/LR-aware read scheduling + OFS."""

    design = "DCA"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rrpc = RRPCTable(self.cfg.org.total_banks,
                              max_value=self.cfg.dca.rrpc_max)
        self.schedule_all = [False] * self.cfg.org.channels
        q = self.cfg.queues
        # Algorithm 1's occupancy tests as read-queue length thresholds
        # (see ``first_length``): ScheduleAll turns on from ``_drain_on``
        # entries and off below ``_drain_hold``.
        self._drain_on = first_length(
            q.read_entries, lambda occ: occ > q.lr_drain_high)
        self._drain_hold = first_length(
            q.read_entries, lambda occ: occ >= q.lr_drain_low)

    def _route(self, access: Access) -> str:
        return "write" if access.is_write else "read"

    def _on_issued(self, access: Access) -> None:
        if access.priority == PR:
            self.rrpc.on_priority_read(access.global_bank)

    # -- Algorithm 1 ---------------------------------------------------------------

    def _update_schedule_all(self, ch: int) -> None:
        if self.draining:
            # End-of-run flush: held LRs must leave regardless of OFS.
            self.schedule_all[ch] = True
            return
        n = self.read_q[ch].size
        if n >= self._drain_on:
            self.schedule_all[ch] = True
        elif n < self._drain_hold:
            self.schedule_all[ch] = False

    def _ofs_candidates(self, ch: int) -> list[Access]:
        """LRs passing the OFS criteria (§IV-C) — naive reference.

        Kept as the specification the fast path is tested against
        (see :meth:`_ofs_buckets`); the hot path never calls this.
        """
        return ofs_naive_candidates(self.read_q[ch].entries,
                                    self.device.channels[ch], self.rrpc,
                                    self.cfg.dca.flushing_factor)

    def _ofs_buckets(self, ch: int) -> dict[int, BankBucket | FrozenBucket]:
        """OFS candidates as per-bank buckets, from the LR index.

        Same candidate set as :meth:`_ofs_candidates`, computed with one
        row-state and one RRPC check per *bank* instead of per access.
        """
        return ofs_bucket_filter(self.read_q[ch].lr_banks,
                                 self.device.channels[ch].open_rows,
                                 self.rrpc, self.cfg.dca.flushing_factor)

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

        self._update_schedule_all(ch)
        rq = self.read_q[ch]
        if self.schedule_all[ch]:
            picked = self._pick_read(ch, rq.classes)
            if picked is not None:
                if picked[0].priority == LR:
                    self.stats.lr_drain_issues += 1
                return picked
        else:
            picked = self._pick_read(ch, rq.pr_only)
            if picked is not None:
                return picked
            # Algorithm 1 line 15-18: no PR was ready -> OFS flush.
            picked = self._pick_read(ch, (self._ofs_buckets(ch),))
            if picked is not None:
                self.stats.lr_ofs_issues += 1
                return picked

        return self._start_opportunistic(ch)

    def _reads_preempt(self, ch: int) -> bool:
        """Only *priority* reads preempt an idle-time write drain: held LRs
        are background work like the writes themselves."""
        if self.schedule_all[ch]:
            return self.read_q[ch].size > 0
        return self.read_q[ch].pr_count > 0
