"""Functional DRAM-cache array: hits, fills, LRU, dirty state, bulk fill."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.dramcache import DRAMCacheArray
from repro.config import DRAMCacheGeometry

GEOM = DRAMCacheGeometry(size_bytes=2 * 2**20)  # small: fast eviction tests


@pytest.fixture(params=["sa", "dm"])
def array(request):
    return DRAMCacheArray(GEOM, request.param)


@pytest.fixture
def sa():
    return DRAMCacheArray(GEOM, "sa")


@pytest.fixture
def dm():
    return DRAMCacheArray(GEOM, "dm")


class TestBasics:
    def test_cold_miss(self, array):
        assert not array.probe(0x1000).hit

    def test_fill_then_hit(self, array):
        array.fill(0x1000, dirty=False)
        res = array.probe(0x1000)
        assert res.hit and not res.dirty

    def test_dirty_fill(self, array):
        array.fill(0x1000, dirty=True)
        assert array.probe(0x1000).dirty

    def test_lookup_read_counts(self, array):
        array.fill(0x1000, dirty=False)
        array.lookup_read(0x1000)
        array.lookup_read(0x2000000)
        assert array.lookups == 2
        assert array.hits == 1
        assert array.hit_rate == 0.5

    def test_lookup_write_sets_dirty(self, array):
        array.fill(0x1000, dirty=False)
        array.lookup_write(0x1000)
        assert array.probe(0x1000).dirty

    def test_invalid_organization(self):
        with pytest.raises(ValueError):
            DRAMCacheArray(GEOM, "fully-assoc")

    def test_invalidate(self, array):
        array.fill(0x1000, dirty=True)
        assert array.invalidate(0x1000)
        assert not array.probe(0x1000).hit
        assert not array.invalidate(0x1000)

    def test_block_granularity(self, array):
        array.fill(0x1000, dirty=False)
        assert array.probe(0x1000 + 63).hit  # same block
        assert not array.probe(0x1000 + 64).hit

    def test_reset_counters(self, array):
        array.fill(0x1000, False)
        array.lookup_read(0x1000)
        array.reset_counters()
        assert array.lookups == array.hits == array.fills == 0


class TestEvictionSA:
    def _addr_in_set(self, sa, set_idx, tag):
        return sa.sa.block_addr(set_idx, tag) * 64

    def test_victim_returned_when_full(self, sa):
        addrs = [self._addr_in_set(sa, 0, t) for t in range(16)]
        for a in addrs[:15]:
            assert sa.fill(a, dirty=False).victim_block_addr is None
        res = sa.fill(addrs[15], dirty=False)
        assert res.victim_block_addr is not None

    def test_lru_victim_choice(self, sa):
        addrs = [self._addr_in_set(sa, 0, t) for t in range(16)]
        for a in addrs[:15]:
            sa.fill(a, dirty=False)
        sa.lookup_read(addrs[0])  # refresh the oldest
        res = sa.fill(addrs[15], dirty=False)
        assert res.victim_block_addr == addrs[1]  # now the LRU

    def test_dirty_victim_flagged(self, sa):
        addrs = [self._addr_in_set(sa, 0, t) for t in range(16)]
        sa.fill(addrs[0], dirty=True)
        for a in addrs[1:15]:
            sa.fill(a, dirty=False)
        res = sa.fill(addrs[15], dirty=False)
        assert res.victim_block_addr == addrs[0]
        assert res.victim_dirty
        assert sa.dirty_evictions == 1

    def test_refill_of_present_block_refreshes(self, sa):
        a = self._addr_in_set(sa, 0, 1)
        sa.fill(a, dirty=True)
        res = sa.fill(a, dirty=False)
        assert res.victim_block_addr is None
        assert sa.probe(a).dirty  # dirty not lost


class TestEvictionDM:
    def test_conflict_evicts(self, dm):
        a0 = 0x0
        a1 = dm.dm.num_entries * 64  # same entry, different tag
        dm.fill(a0, dirty=True)
        res = dm.fill(a1, dirty=False)
        assert res.victim_block_addr == a0
        assert res.victim_dirty
        assert not dm.probe(a0).hit
        assert dm.probe(a1).hit


class TestLocations:
    def test_sa_tag_data_same_row(self, sa):
        addr = 0x123440
        res_row = sa.tag_location(addr) // GEOM.row_bytes
        sa.fill(addr, dirty=False)
        way = sa.probe(addr).way
        assert sa.data_location(addr, way) // GEOM.row_bytes == res_row

    def test_dm_tad_single_location(self, dm):
        addr = 0x123440
        assert dm.tag_location(addr) == dm.data_location(addr, 0)


class TestBulkFill:
    def test_bulk_equivalent_to_sequential(self):
        """bulk_fill must leave the same resident set as fill-by-fill."""
        for orgn in ("sa", "dm"):
            a = DRAMCacheArray(GEOM, orgn)
            b = DRAMCacheArray(GEOM, orgn)
            n = 5000
            a.bulk_fill(0, n, dirty_fraction=0.0)
            for i in range(n):
                b.fill(i * 64, dirty=False)
            hits_a = sum(a.probe(i * 64).hit for i in range(n))
            hits_b = sum(b.probe(i * 64).hit for i in range(n))
            assert hits_a == hits_b

    def test_bulk_dirty_fraction(self):
        a = DRAMCacheArray(GEOM, "sa")
        n = 4000
        a.bulk_fill(0, n, dirty_fraction=0.5, seed=3)
        dirty = sum(a.probe(i * 64).dirty for i in range(n)
                    if a.probe(i * 64).hit)
        resident = sum(a.probe(i * 64).hit for i in range(n))
        assert 0.35 * resident < dirty < 0.65 * resident

    def test_bulk_fill_deterministic(self):
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        a.bulk_fill(0, 3000, dirty_fraction=0.3, seed=7)
        b.bulk_fill(0, 3000, dirty_fraction=0.3, seed=7)
        for i in range(3000):
            assert a.probe(i * 64) == b.probe(i * 64)

    def test_two_ranges_share_capacity(self):
        """Second core's prefill must not wipe the first's (LRU merge)."""
        a = DRAMCacheArray(GEOM, "sa")
        n = 2000  # two small ranges, well within capacity
        a.bulk_fill(0, n, dirty_fraction=0.0)
        a.bulk_fill(1 << 44, n, dirty_fraction=0.0)
        hits0 = sum(a.probe(i * 64).hit for i in range(n))
        hits1 = sum(a.probe((1 << 44) + i * 64).hit for i in range(n))
        assert hits1 == n
        assert hits0 == n  # first range survives

    def test_zero_blocks_noop(self, array):
        array.bulk_fill(0, 0)
        assert array.fills == 0


def _state(a):
    return (a.contents_signature(), a._clock, a.dirty_evictions)


class TestBulkFillMany:
    """bulk_fill_many must be byte-for-byte the sequential composition."""

    @given(st.lists(
        st.tuples(st.integers(0, 3),                  # range id (<< 44)
                  st.integers(0, 4000),               # n_blocks
                  st.floats(0.0, 1.0),                # dirty_fraction
                  st.integers(0, 9)),                 # seed
        min_size=0, max_size=5),
        st.sampled_from(["sa", "dm"]))
    @settings(max_examples=50, deadline=None)
    def test_fused_matches_sequential(self, specs, orgn):
        fills = [(rid << 44, n, df, sd) for rid, n, df, sd in specs]
        a = DRAMCacheArray(GEOM, orgn)
        b = DRAMCacheArray(GEOM, orgn)
        a.bulk_fill_many(fills)
        for start, n, df, sd in fills:
            b.bulk_fill(start, n, dirty_fraction=df, seed=sd)
        assert _state(a) == _state(b)

    def test_overlapping_ranges_match_sequential(self):
        """Same base address twice: later inserts displace earlier ones
        with identical eviction accounting on both paths."""
        # Two 40k-block ranges over ~2.2k 15-way sets: each call's groups
        # exceed the ways (per-call clipping) and the second call's
        # inserts displace the first's survivors (cross-call eviction).
        fills = [(0, 40_000, 0.4, 1), (0, 40_000, 0.6, 2),
                 (1 << 44, 500, 0.0, 3)]
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        a.bulk_fill_many(fills)
        for start, n, df, sd in fills:
            b.bulk_fill(start, n, dirty_fraction=df, seed=sd)
        assert _state(a) == _state(b)
        assert a.dirty_evictions > 0

    def test_warm_array_falls_back_to_sequential(self):
        """A non-pristine array must take the exact sequential path."""
        fills = [(0, 2000, 0.3, 1), (1 << 44, 2000, 0.3, 2)]
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        for arr in (a, b):
            arr.fill(0x12340, dirty=True)
        a.bulk_fill_many(fills)
        for start, n, df, sd in fills:
            b.bulk_fill(start, n, dirty_fraction=df, seed=sd)
        assert _state(a) == _state(b)

    def test_cow_overlay_is_not_treated_as_pristine(self):
        """capture_state() copies the columns out and leaves the array
        (and its non-zero clock) as it was, so a later bulk_fill_many
        still sees a used array and matches sequential bulk_fill."""
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        for arr in (a, b):
            arr.bulk_fill(0, 3000, dirty_fraction=0.2, seed=5)
            arr.capture_state()
        fills = [(0, 3000, 0.7, 8)]
        a.bulk_fill_many(fills)
        for start, n, df, sd in fills:
            b.bulk_fill(start, n, dirty_fraction=df, seed=sd)
        assert _state(a) == _state(b)


_SA = DRAMCacheArray(GEOM, "sa").sa
_SA_CAPACITY = _SA.num_sets * _SA.ways

_RANGES = st.lists(st.tuples(
    st.one_of(st.integers(0, 3).map(lambda rid: rid << 44),   # set 0
              st.integers(0, 50_000).map(lambda b: b * 64),    # any set
              st.integers(0, 2**40)),                          # unaligned
    st.one_of(st.just(0),
              st.integers(1, 100),
              st.integers(0, 3 * _SA_CAPACITY),
              st.sampled_from([_SA_CAPACITY - 1, _SA_CAPACITY,
                               _SA_CAPACITY + 1])),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(0, 2**20)),
    max_size=5)


class TestClosedFormPrefill:
    """The pristine-array ``bulk_fill_many`` computes its result in closed
    form: bit for bit what sequential ``bulk_fill`` leaves, in memory
    independent of the footprint."""

    @given(_RANGES)
    @settings(max_examples=60, deadline=None)
    def test_columns_match_sequential(self, fills):
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        a.bulk_fill_many(fills)
        for start, n, df, sd in fills:
            b.bulk_fill(start, n, dirty_fraction=df, seed=sd)
        assert bytes(a._tags) == bytes(b._tags)
        assert a._dirty == b._dirty
        assert bytes(a._stamp) == bytes(b._stamp)
        assert a._clock == b._clock
        assert a.dirty_evictions == b.dirty_evictions

    def test_edge_ranges_match_sequential(self):
        """Overlap, wrap past the last set, over-capacity and empty
        ranges, all-clean and all-dirty, in one batch."""
        last_set = GEOM.block_bytes * (_SA.num_sets - 1)
        fills = [(0, 0, 0.5, 1),
                 (last_set, 3 * _SA_CAPACITY + 5, 1.0, 2),
                 (12_345, 17, 0.0, 3),
                 (last_set, _SA_CAPACITY // 2, 0.5, 4),
                 (1 << 44, _SA_CAPACITY + 1, 1.0, 5)]
        a = DRAMCacheArray(GEOM, "sa")
        b = DRAMCacheArray(GEOM, "sa")
        a.bulk_fill_many(fills)
        for start, n, df, sd in fills:
            b.bulk_fill(start, n, dirty_fraction=df, seed=sd)
        assert (bytes(a._tags), a._dirty, bytes(a._stamp)) \
            == (bytes(b._tags), b._dirty, bytes(b._stamp))
        assert (a._clock, a.dirty_evictions) == (b._clock, b.dirty_evictions)
        assert a.dirty_evictions > 0

    @staticmethod
    def _peak_bytes(scale):
        # The quick-scale array: 32 MiB, 32,768 sets of 15 ways.
        arr = DRAMCacheArray(DRAMCacheGeometry(size_bytes=32 * 2**20), "sa")
        fills = [(i << 44, n * scale, df, i + 1) for i, (n, df) in
                 enumerate(((120_000, 0.0), (250_000, 0.45),
                            (90_000, 1.0), (300_000, 0.3)))]
        tracemalloc.start()
        try:
            arr.bulk_fill_many(fills)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_bounded_by_sets(self):
        base = self._peak_bytes(1)
        quadrupled = self._peak_bytes(4)
        assert base < 8 * 2**20
        # One extra per-set array would be 256 KiB; blocks are millions.
        assert quadrupled <= base + 64 * 2**10


def _tracked_growth_after_prefill(size_bytes):
    """GC-tracked objects added by building and over-filling an SA array."""
    gc.collect()
    before = len(gc.get_objects())
    arr = DRAMCacheArray(DRAMCacheGeometry(size_bytes=size_bytes), "sa")
    capacity = arr.sa.num_sets * arr.sa.ways
    arr.bulk_fill_many([(0, 2 * capacity, 0.5, 1),
                        (1 << 44, capacity, 0.5, 2)])
    gc.collect()
    return len(gc.get_objects()) - before, arr


class TestLayout:
    """The SA table is three flat, GC-untracked columns: a later change
    must not bring back per-set containers or a mutable warm image."""

    def test_prefill_adds_no_per_set_objects(self):
        _tracked_growth_after_prefill(2 * 2**20)   # settle lazy imports
        small, arr_small = _tracked_growth_after_prefill(2 * 2**20)
        large, arr_large = _tracked_growth_after_prefill(32 * 2**20)
        assert arr_large.sa.num_sets > 10 * arr_small.sa.num_sets
        # Every set is full, yet growth is the same per-array constant.
        assert abs(large - small) <= 8
        assert large < 200

    def test_capture_is_immutable_bytes(self, sa):
        sa.bulk_fill(0, 3000, dirty_fraction=0.3, seed=1)
        image = sa.capture_state()["sa"]
        assert isinstance(image, tuple)
        assert [type(col) for col in image] == [bytes, bytes, bytes]

    def test_restore_rejects_other_geometry(self, sa):
        other = DRAMCacheArray(DRAMCacheGeometry(size_bytes=4 * 2**20), "sa")
        with pytest.raises(ValueError):
            other.restore_state(sa.capture_state())


@given(st.lists(st.integers(0, 300), min_size=1, max_size=200),
       st.sampled_from(["sa", "dm"]))
@settings(max_examples=50, deadline=None)
def test_probe_consistency(blocks, orgn):
    """After any fill sequence, probe agrees with a reference dict model
    restricted to single-set occupancy accounting."""
    a = DRAMCacheArray(GEOM, orgn)
    filled = set()
    for blk in blocks:
        addr = blk * 64
        res = a.fill(addr, dirty=False)
        filled.add(addr)
        if res.victim_block_addr is not None:
            filled.discard(res.victim_block_addr)
    for addr in filled:
        assert a.probe(addr).hit
