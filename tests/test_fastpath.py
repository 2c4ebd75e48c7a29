"""Indexed scheduling fast path: bit-identity with the naive scan path,
and DCA ScheduleAll hysteresis boundary pinning.

The fast path (``AccessQueue`` per-class bank bucket maps +
``pick_banked`` over a tuple of them +
``DCAController._ofs_buckets``) must select exactly the access the naive
reference selectors (``pick`` over flat candidate lists,
``_ofs_candidates``) would.  ``Access.seq`` is globally unique and the
final tiebreak of every policy, so the argmin is unique — these tests
pin that equivalence over randomized queue states, bank states,
blacklists and RRPC states.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BLISSConfig, DRAMOrganization, DRAMTimings, scaled_config
from repro.core import make_controller
from repro.core.access import Access, AccessRole, CacheRequest, Priority, RequestType
from repro.core.bliss import BLISSScheduler
from repro.core.frfcfs import FRFCFSScheduler
from repro.core.queues import AccessQueue
from repro.dram.channel import Channel
from repro.sim.engine import Simulator

NUM_CORES = 8


def random_state(rng, n_accesses, read_fraction=0.6, writes=False):
    """A random queue + channel with some open rows."""
    org = DRAMOrganization()
    channel = Channel(DRAMTimings.stacked(), org)
    nbanks = org.ranks_per_channel * org.banks_per_rank
    t = 0
    for b in range(nbanks):
        if rng.random() < 0.5:     # open a row in about half the banks
            rank, bank = divmod(b, org.banks_per_rank)
            _s, t = channel.issue(rank, bank, rng.randrange(8), False, t)
    q = AccessQueue(max(n_accesses, 1))
    for _ in range(n_accesses):
        gb = rng.randrange(nbanks)
        rank, bank = divmod(gb, org.banks_per_rank)
        if writes:
            role, rtype = AccessRole.DATA_WRITE, RequestType.WRITEBACK
        else:
            role = AccessRole.TAG_READ
            rtype = (RequestType.READ if rng.random() < read_fraction
                     else RequestType.WRITEBACK)
        req = CacheRequest(rtype, rng.randrange(1 << 20),
                           rng.randrange(NUM_CORES))
        q.push(Access(role, req, 0, rank, bank, rng.randrange(8), 0, gb, 0))
    return q, channel


class TestPickEquivalence:
    """pick_banked(buckets) is the access pick(flat list) returns."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bliss_full_queue(self, seed):
        rng = random.Random(seed)
        q, channel = random_state(rng, rng.randrange(0, 65))
        s = BLISSScheduler(BLISSConfig(), NUM_CORES)
        for c in range(NUM_CORES):
            s.blacklist[c] = rng.random() < 0.3
        assert (s.pick(list(q.entries), channel, 0)
                is s.pick_banked(q.classes, channel, 0))

    @pytest.mark.parametrize("seed", range(10))
    def test_bliss_pr_partition(self, seed):
        rng = random.Random(100 + seed)
        q, channel = random_state(rng, rng.randrange(0, 65))
        s = BLISSScheduler(BLISSConfig(), NUM_CORES)
        naive = [a for a in q.entries if a.priority == Priority.PR]
        assert (s.pick(naive, channel, 0)
                is s.pick_banked(q.pr_only, channel, 0))

    @pytest.mark.parametrize("seed", range(10))
    def test_frfcfs_full_queue(self, seed):
        rng = random.Random(200 + seed)
        q, channel = random_state(rng, rng.randrange(0, 65), writes=True)
        s = FRFCFSScheduler()
        assert (s.pick(list(q.entries), channel, 0)
                is s.pick_banked(q.classes, channel, 0))

    @pytest.mark.parametrize("seed", range(5))
    def test_drain_order_identical(self, seed):
        """Pick+remove until empty: the full issue order matches, which
        also exercises bucket maintenance between picks."""
        rng = random.Random(300 + seed)
        q, channel = random_state(rng, 40)
        naive_pool = list(q.entries)
        s = BLISSScheduler(BLISSConfig(), NUM_CORES)
        s.blacklist[2] = True
        order_naive, order_indexed = [], []
        while naive_pool:
            a = s.pick(naive_pool, channel, 0)
            naive_pool.remove(a)
            order_naive.append(a)
        while q.entries:
            a = s.pick_banked(q.classes, channel, 0)
            q.remove(a)
            order_indexed.append(a)
        assert order_naive == order_indexed


# -- union picks over several class maps: hypothesis lockstep -----------------

_ORG = DRAMOrganization()
_NBANKS = _ORG.ranks_per_channel * _ORG.banks_per_rank
_R, _W = RequestType, AccessRole

#: (role, request type, prefetch) of the accesses each queue can hold
_QUEUE_KINDS = {
    # CD's read queue: bus reads of every request type — PR and LR
    "cd_read": ((_W.TAG_READ, _R.READ, False), (_W.DATA_READ, _R.READ, False),
                (_W.TAG_READ, _R.WRITEBACK, False),
                (_W.TAG_READ, _R.REFILL, False),
                (_W.TAG_READ, _R.READ, True)),
    # ROD's write queue: writeback/refill tag reads (LR) and all writes
    "rod_write": ((_W.TAG_READ, _R.WRITEBACK, False),
                  (_W.TAG_READ, _R.REFILL, False),
                  (_W.DATA_READ, _R.WRITEBACK, False),
                  (_W.DATA_WRITE, _R.WRITEBACK, False),
                  (_W.TAG_WRITE, _R.REFILL, False),
                  (_W.TAG_WRITE, _R.READ, False)),
}

#: queue operations: push (bank, row, core, kind) or pick-and-remove (None)
_ops = st.lists(
    st.one_of(st.none(),
              st.tuples(st.integers(0, _NBANKS - 1), st.integers(0, 7),
                        st.integers(0, NUM_CORES - 1), st.integers(0, 5))),
    max_size=60)
_open_rows = st.lists(st.integers(-1, 7), min_size=_NBANKS, max_size=_NBANKS)
_blacklist = st.lists(st.booleans(), min_size=NUM_CORES, max_size=NUM_CORES)


def _open(channel, open_rows):
    t = 0
    for b, row in enumerate(open_rows):
        if row >= 0:
            rank, bank = divmod(b, channel.org.banks_per_rank)
            _s, t = channel.issue(rank, bank, row, False, t)


def _access(kinds, gb, row, core, k, banks_per_rank, channel=0):
    role, rtype, prefetch = kinds[k % len(kinds)]
    rank, bank = divmod(gb % _NBANKS, banks_per_rank)
    req = CacheRequest(rtype, 0, core, prefetch=prefetch)
    return Access(role, req, channel, rank, bank, row, 0, gb, 0)


class TestUnionPickLockstep:
    """``pick_banked`` over a tuple of class maps picks what the naive
    ``pick`` picks over ``entries``, after every push/remove."""

    @pytest.mark.parametrize("queue", sorted(_QUEUE_KINDS))
    @pytest.mark.parametrize("scheduler", ["bliss", "frfcfs"])
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops, open_rows=_open_rows, blacklist=_blacklist)
    def test_queue_union_pick(self, queue, scheduler, ops, open_rows,
                              blacklist):
        channel = Channel(DRAMTimings.stacked(), _ORG)
        _open(channel, open_rows)
        if scheduler == "bliss":
            s = BLISSScheduler(BLISSConfig(), NUM_CORES)
            s.blacklist[:] = blacklist
        else:
            s = FRFCFSScheduler()
        q = AccessQueue(64)
        kinds = _QUEUE_KINDS[queue]
        for op in ops:
            if op is not None:
                q.push(_access(kinds, *op, _ORG.banks_per_rank))
                continue
            naive = s.pick(q.entries, channel, 0)
            assert s.pick_banked(q.classes, channel, 0) is naive
            if naive is not None:
                q.remove(naive)
            q.check_invariants()
        assert s.pick_banked(q.classes, channel, 0) is s.pick(
            q.entries, channel, 0)

    @pytest.mark.parametrize("scheduler", ["bliss", "frfcfs"])
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops, open_rows=_open_rows, blacklist=_blacklist)
    def test_dca_schedule_all(self, scheduler, ops, open_rows, blacklist):
        """DCA's ScheduleAll slot picks from PR and LR together."""
        base = scaled_config(8)
        cfg = replace(base, dram_cache=replace(base.dram_cache,
                                               size_bytes=4 * 2**20))
        ctrl = make_controller("DCA", Simulator(), cfg, use_mapi=False,
                               scheduler=scheduler)
        channel = ctrl.device.channels[0]
        nbanks = len(channel.banks)
        bpr = ctrl.cfg.org.banks_per_rank
        _open(channel, open_rows[:nbanks])
        sched = ctrl.sched[0]
        if scheduler == "bliss":
            sched.blacklist[:] = blacklist[:len(sched.blacklist)]
        ctrl.draining = True            # forces ScheduleAll on
        rq = ctrl.read_q[0]
        kinds = _QUEUE_KINDS["cd_read"]
        for op in ops:
            if op is not None:
                gb, row, core, k = op
                rq.push(_access(kinds, gb % nbanks, row,
                                core % ctrl.cfg.num_cores, k, bpr))
                continue
            naive = sched.pick(rq.entries, channel, 0)
            picked = ctrl._select(0)
            assert ctrl.schedule_all[0]
            assert (picked[0] if picked else None) is naive
            if picked is not None:
                rq.remove(picked[0])


class TestOFSEquivalence:
    """DCA's bucketed OFS candidates == the naive §IV-C filter."""

    def build_dca(self, tiny_cfg):
        return make_controller("DCA", Simulator(), tiny_cfg, use_mapi=False)

    @pytest.mark.parametrize("seed", range(8))
    def test_candidate_sets_match(self, tiny_cfg, seed):
        rng = random.Random(seed)
        ctrl = self.build_dca(tiny_cfg)
        channel = ctrl.device.channels[0]
        nbanks = len(channel.banks)
        t = 0
        for b in range(nbanks):
            if rng.random() < 0.5:
                rank, bank = divmod(b, ctrl.cfg.org.banks_per_rank)
                _s, t = channel.issue(rank, bank, rng.randrange(8), False, t)
        for _ in range(rng.randrange(nbanks * 2)):
            ctrl.rrpc.on_priority_read(rng.randrange(nbanks))
        rq = ctrl.read_q[0]
        for _ in range(rng.randrange(1, 48)):
            gb = rng.randrange(nbanks)
            rank, bank = divmod(gb, ctrl.cfg.org.banks_per_rank)
            rtype = (RequestType.READ if rng.random() < 0.3
                     else RequestType.WRITEBACK)
            req = CacheRequest(rtype, 0, rng.randrange(4))
            rq.push(Access(AccessRole.TAG_READ, req, 0, rank, bank,
                           rng.randrange(8), 0, gb, 0))
        naive = ctrl._ofs_candidates(0)
        buckets = ctrl._ofs_buckets(0)
        flat = [a for bucket in buckets.values() for a in bucket]
        assert set(flat) == set(naive)
        assert len(flat) == len(naive)
        for gb, bucket in buckets.items():
            assert all(a.global_bank == gb for a in bucket)
        # ... and the resulting pick is the same access.
        sched = ctrl.sched[0]
        assert (sched.pick(naive, channel, 0)
                is sched.pick_banked((buckets,), channel, 0))


class TestScheduleAllHysteresis:
    """Paper §IV: ScheduleAll turns on when occupancy *exceeds* 85 % and
    off when it *falls below* 75 % — both comparisons are strict, so
    landing exactly on a threshold changes nothing."""

    def build(self, tiny_cfg, capacity=20):
        # A read-queue capacity that puts the 0.85 / 0.75 thresholds on
        # representable occupancies: 17/20 == 0.85 exactly, 15/20 == 0.75
        # exactly.  The controller derives its length thresholds from it.
        cfg = tiny_cfg.with_overrides({"queues.read_entries": capacity})
        ctrl = make_controller("DCA", Simulator(), cfg, use_mapi=False)
        assert ctrl.read_q[0].capacity == capacity
        assert ctrl.cfg.queues.lr_drain_high == pytest.approx(0.85)
        assert ctrl.cfg.queues.lr_drain_low == pytest.approx(0.75)
        return ctrl

    def fill(self, ctrl, n):
        rq = ctrl.read_q[0]
        while len(rq) > n:
            rq.remove(rq.entries[-1])
        while len(rq) < n:
            req = CacheRequest(RequestType.WRITEBACK, 0, 0)
            rq.push(Access(AccessRole.TAG_READ, req, 0, 0, 0, 0, 0, 0, 0))

    def test_exactly_at_high_watermark_stays_off(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        self.fill(ctrl, 17)               # occupancy == lr_drain_high
        ctrl._update_schedule_all(0)
        assert not ctrl.schedule_all[0]

    def test_above_high_watermark_turns_on(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        self.fill(ctrl, 18)               # 0.90 > 0.85
        ctrl._update_schedule_all(0)
        assert ctrl.schedule_all[0]

    def test_exactly_at_low_watermark_stays_on(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        ctrl.schedule_all[0] = True
        self.fill(ctrl, 15)               # occupancy == lr_drain_low
        ctrl._update_schedule_all(0)
        assert ctrl.schedule_all[0]

    def test_below_low_watermark_turns_off(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        ctrl.schedule_all[0] = True
        self.fill(ctrl, 14)               # 0.70 < 0.75
        ctrl._update_schedule_all(0)
        assert not ctrl.schedule_all[0]

    def test_hysteresis_band_is_sticky_both_ways(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        self.fill(ctrl, 16)               # 0.80: inside the band
        ctrl._update_schedule_all(0)
        assert not ctrl.schedule_all[0]   # off stays off
        ctrl.schedule_all[0] = True
        ctrl._update_schedule_all(0)
        assert ctrl.schedule_all[0]       # on stays on

    def test_draining_forces_on(self, tiny_cfg):
        ctrl = self.build(tiny_cfg)
        ctrl.draining = True
        self.fill(ctrl, 0)
        ctrl._update_schedule_all(0)
        assert ctrl.schedule_all[0]
