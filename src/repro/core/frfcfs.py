"""FR-FCFS: first-ready, first-come-first-served scheduling.

The classic row-hit-first baseline.  Provided as an alternative underlying
scheduler (the paper's designs all run on BLISS, but notes "our scheme is
not limited to any scheduling algorithm" — swapping this in demonstrates
that claim and is exercised by the ablation benchmark).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.core.access import Access
from repro.core.queues import BankBucket, FrozenBucket
from repro.dram.bank import ROW_HIT
from repro.dram.channel import Channel

#: Sentinel above any real ``Access.seq`` (see bliss.py).
_SEQ_MAX = 1 << 62


class FRFCFSScheduler:
    """Row-hit-first, then oldest.  Application-blind."""

    __slots__ = ("served",)

    def __init__(self, *_args, **_kwargs):
        self.served = 0

    def maybe_clear(self, now: int) -> None:
        """No periodic state (interface parity with BLISS)."""

    def on_served(self, core_id: int) -> None:
        self.served += 1

    def pick(self, candidates: Iterable[Access], channel: Channel,
             now: int) -> Optional[Access]:
        """Naive reference selector (per-access row-state classification)."""
        best: Optional[Access] = None
        best_key: tuple[int, int] | None = None
        for a in candidates:
            row_hit = (channel.banks[
                channel.bank_index(a.rank, a.bank)].row_state(a.row) == ROW_HIT)
            key = (0 if row_hit else 1, a.seq)
            if best_key is None or key < best_key:
                best, best_key = a, key
        return best

    def pick_banked(self,
                    classes: "Sequence[Mapping[int, BankBucket | FrozenBucket]]",
                    channel: Channel, now: int) -> Optional[Access]:
        """Fast-path selection over bank-bucketed candidate columns (see
        BLISS).

        ``classes`` is a tuple of ``global_bank -> `` same-bank column
        bucket maps whose union is the candidate set; the oldest row-hit
        wins, else the oldest access.  A bucket with no hit on its bank's
        open row is one class, so its argmin batches into C-level
        ``min``/``index`` over the ``seqs`` column.  Bit-identical to
        :meth:`pick` on the flattened set: the unique ``seq`` tiebreak
        makes the argmin independent of visit order.
        """
        open_rows = channel.open_rows   # SoA: -1 = closed (see BLISS)
        nbanks = len(open_rows)
        b_hit = b_miss = None
        s_hit = s_miss = _SEQ_MAX
        for buckets in classes:
            for gb, bucket in buckets.items():
                open_row = open_rows[gb % nbanks]
                seqs = bucket.seqs
                rows = bucket.rows
                if open_row < 0 or open_row not in rows:
                    m = min(seqs)          # pure-miss bucket: one class
                    if m < s_miss:
                        s_miss = m
                        b_miss = bucket.accs[seqs.index(m)]
                    continue
                for i in range(len(seqs)):
                    s = seqs[i]
                    if rows[i] == open_row:
                        if s < s_hit:
                            s_hit = s
                            b_hit = bucket.accs[i]
                    elif s < s_miss:
                        s_miss = s
                        b_miss = bucket.accs[i]
        return b_hit if b_hit is not None else b_miss
