"""Functional tag state of the DRAM cache (both organizations).

This tracks *what is in the cache* — tags, valid, dirty, LRU stamps — so
the controller can resolve hit/miss at tag-read completion time and find
victims at fill time.  Timing lives entirely in the controller + DRAM
substrate; this module is purely functional and therefore shared verbatim
by every controller design (CD / ROD / DCA see identical contents).

The set-associative organization is a fixed-shape table (Loh–Hill: every
set has the same ``ways``), stored as three flat columns indexed
``set * ways + way``: tags in an ``array('q')`` (-1 = invalid way), dirty
bits in a ``bytearray`` and LRU stamps in an ``array('q')``.  The columns
hold raw integers, not Python objects, so the cyclic garbage collector
has nothing in them to traverse however many sets the table holds (see
DESIGN.md "Snapshot/restore").  One set is the ``ways``-long segment
starting at ``set * ways``; the warm-up prefill computes each set's
surviving blocks in closed form and writes them into the columns
through NumPy views, and warm-state capture is three ``bytes`` copies.  The direct-mapped organization keeps a dict of ``(tag, dirty)``
per entry.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
from numpy.typing import NDArray

from repro.cache.organizations import DirectMappedGeometry, SetAssociativeGeometry
from repro.cache.replacement import SA_POLICIES
from repro.config import DRAMCacheGeometry


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a functional probe."""

    hit: bool
    way: int = -1            # way index (SA) / 0 (DM); -1 on miss
    dirty: bool = False      # dirty state of the hit block


@dataclass(frozen=True)
class FillResult:
    """Outcome of inserting a block: the displaced victim, if any."""

    way: int
    victim_block_addr: Optional[int] = None   # physical block addr of victim
    victim_dirty: bool = False


# Shared immutable results: probe() runs once per functional access and
# a frozen dataclass's __init__ was a measurable share of the end-to-end
# profile, so misses share one instance and hits index a per-array table
# (see DRAMCacheArray._hit_results).
_MISS = LookupResult(False)


def _dirty_mask(blocks: NDArray[np.int64], seed: int,
                dirty_fraction: float) -> NDArray[np.bool_]:
    """Deterministic per-block dirty choice of a warm-up fill (Knuth
    multiplicative hash of ``block + seed``)."""
    h = ((blocks + seed) * np.int64(2654435761)) & np.int64(0xFFFFFFFF)
    return (h >> 16).astype(np.float64) / 65536.0 < dirty_fraction


def _survivor_counts(first: int, m: int, num_sets: int) -> NDArray[np.int64]:
    """Per-set count of the blocks ``[first, first + m)``: ``m // num_sets``
    each, plus one for the ``m % num_sets`` sets from ``first``'s onward
    (cyclically)."""
    q, r = divmod(m, num_sets)
    counts = np.full(num_sets, q, dtype=np.int64)
    a = first % num_sets
    counts[a:a + r] += 1
    if a + r > num_sets:
        counts[:a + r - num_sets] += 1
    return counts


class DRAMCacheArray:
    """Functional contents of the DRAM cache.

    Parameters
    ----------
    geometry:
        Raw capacity/layout description (Table II).
    organization:
        ``"sa"`` (set-associative, Loh–Hill) or ``"dm"`` (direct-mapped,
        Alloy).
    replacement:
        Victim-selection policy for the set-associative organization
        (see :mod:`repro.cache.replacement`); direct-mapped placement
        has no choice and ignores it.  Applies to demand fills only —
        the warm-up paths (:meth:`bulk_fill`/:meth:`bulk_fill_many`)
        keep their LRU-insertion-order semantics under every policy
        (documented modeling assumption: warm-up populates, it does not
        exercise replacement).
    """

    def __init__(self, geometry: DRAMCacheGeometry, organization: str = "sa",
                 replacement: str = "lru"):
        organization = organization.lower()
        if organization not in ("sa", "dm"):
            raise ValueError(f"unknown organization {organization!r}")
        self.geometry = geometry
        self.organization = organization
        self.is_direct_mapped = organization == "dm"
        self.replacement = replacement
        # Module-level function, never a closure (snapshot-safe).
        self._victim_way = SA_POLICIES[replacement]
        self.sa = SetAssociativeGeometry(geometry)
        self.dm = DirectMappedGeometry(geometry)
        # Geometry scalars flattened onto the instance: probe/_touch run
        # once per functional access and the attribute-chain lookups were
        # a measurable share of the end-to-end profile.
        self._block_bytes = geometry.block_bytes
        self._num_sets = self.sa.num_sets
        self._ways = ways = self.sa.ways
        self._num_entries = self.dm.num_entries
        # ``_hit_results[2 * way + dirty]`` is the hit result for ``way``.
        self._hit_results = tuple(LookupResult(True, w, d)
                                  for w in range(ways) for d in (False, True))
        # Set-associative columns, indexed set * ways + way (empty for dm).
        slots = self._num_sets * ways if organization == "sa" else 0
        self._tags = array("q", [-1]) * slots    # -1 = invalid way
        self._dirty = bytearray(slots)
        self._stamp = array("q", bytes(8 * slots))   # LRU: larger = newer
        self._dm_entries: dict[int, tuple[int, bool]] = {}  # idx -> (tag, dirty)
        self._clock = 0  # LRU stamp source
        # Functional counters (used by tests and the Fig. 18 harness).
        self.lookups = 0
        self.hits = 0
        self.fills = 0
        self.dirty_evictions = 0

    # -- common helpers --------------------------------------------------------

    def _block(self, addr: int) -> int:
        return addr // self.geometry.block_bytes

    # -- probes (no replacement-state side effects) ----------------------------

    def _segment(self, addr: int) -> tuple[int, int]:
        """``(first column index of addr's set, addr's tag)`` (SA only)."""
        b = addr // self._block_bytes
        n = self._num_sets
        return (b % n) * self._ways, b // n

    def probe(self, addr: int) -> LookupResult:
        """Hit/miss/dirty query with no state change."""
        b = addr // self._block_bytes
        if self.organization == "dm":
            n = self._num_entries
            ent = self._dm_entries.get(b % n)
            if ent is not None and ent[0] == b // n:
                return self._hit_results[ent[1]]
            return _MISS
        n = self._num_sets
        base = (b % n) * self._ways
        # array.index scans the set's segment at C speed; a miss costs
        # one caught ValueError, still cheaper than slicing the segment.
        try:
            i = self._tags.index(b // n, base, base + self._ways)
        except ValueError:
            return _MISS
        return self._hit_results[2 * (i - base) + self._dirty[i]]

    # -- timed-path operations (called at access completion times) -------------

    def lookup_read(self, addr: int) -> LookupResult:
        """Resolve a cache-read tag check; updates LRU on a hit.

        In the real system the LRU/replacement-bit update is carried by the
        WTr tag-write access; functionally we apply it here so the state the
        *next* tag read observes matches what that write will have stored.
        """
        self.lookups += 1
        res = self.probe(addr)
        if res.hit:
            self.hits += 1
            self._touch(addr, res.way)
        return res

    def lookup_write(self, addr: int) -> LookupResult:
        """Resolve a writeback tag check; marks dirty + LRU on a hit."""
        self.lookups += 1
        res = self.probe(addr)
        if res.hit:
            self.hits += 1
            if self.is_direct_mapped:
                b = self._block(addr)
                idx = self.dm.entry_index(b)
                self._dm_entries[idx] = (self.dm.tag_value(b), True)
            else:
                self._dirty[self._segment(addr)[0] + res.way] = 1
                self._touch(addr, res.way)
        return res

    def fill(self, addr: int, dirty: bool) -> FillResult:
        """Insert ``addr`` (refill from memory, or allocating writeback).

        Returns the victim (if a valid block was displaced) so the caller
        can generate the victim's main-memory writeback when it was dirty.
        """
        self.fills += 1
        if self.is_direct_mapped:
            b = self._block(addr)
            idx = self.dm.entry_index(b)
            old = self._dm_entries.get(idx)
            self._dm_entries[idx] = (self.dm.tag_value(b), dirty)
            if old is None:
                return FillResult(0)
            victim_addr = self.dm.block_addr(idx, old[0]) * self.geometry.block_bytes
            if old[1]:
                self.dirty_evictions += 1
            return FillResult(0, victim_addr, old[1])

        base, tag = self._segment(addr)
        end = base + self._ways
        tags, dirt, stamp = self._tags, self._dirty, self._stamp
        try:
            # Refill of a block already present (e.g. race with a
            # concurrent writeback-allocate) just refreshes it.
            i = tags.index(tag, base, end)
        except ValueError:
            pass
        else:
            if dirty:
                dirt[i] = 1
            self._clock += 1
            stamp[i] = self._clock
            return FillResult(i - base)
        # Prefer an invalid way; otherwise the configured policy picks
        # among valid ways (stamps are unique, so the default LRU's
        # index-of-min is the unambiguous oldest way).
        try:
            i = tags.index(-1, base, end)
        except ValueError:
            i = base + self._victim_way(tags[base:end], dirt[base:end],
                                        stamp[base:end])
        old_tag = tags[i]
        old_dirty = bool(dirt[i])
        tags[i] = tag
        dirt[i] = dirty
        self._clock += 1
        stamp[i] = self._clock
        if old_tag == -1:
            return FillResult(i - base)
        set_idx = base // self._ways
        victim_addr = self.sa.block_addr(set_idx, old_tag) * self._block_bytes
        if old_dirty:
            self.dirty_evictions += 1
        return FillResult(i - base, victim_addr, old_dirty)

    def invalidate(self, addr: int) -> bool:
        """Drop a block (used by tests and coherence-style experiments)."""
        if self.is_direct_mapped:
            b = self._block(addr)
            idx = self.dm.entry_index(b)
            ent = self._dm_entries.get(idx)
            if ent is not None and ent[0] == self.dm.tag_value(b):
                del self._dm_entries[idx]
                return True
            return False
        base, tag = self._segment(addr)
        try:
            i = self._tags.index(tag, base, base + self._ways)
        except ValueError:
            return False
        self._tags[i] = -1
        self._dirty[i] = 0
        return True

    # -- warm-up ----------------------------------------------------------------

    def bulk_fill(self, start_addr: int, n_blocks: int,
                  dirty_fraction: float = 0.0, seed: int = 0) -> None:
        """Functionally pre-populate a contiguous block range (warm-up).

        Mirrors the paper's fast-forward cache warming: the range
        ``[start_addr, start_addr + n_blocks*64)`` is inserted as if each
        block had been filled once in address order, with a deterministic
        pseudo-random ``dirty_fraction`` of blocks marked dirty.  Uses
        vectorised grouping, so warming multi-hundred-MB footprints costs
        milliseconds instead of replaying millions of accesses.
        """
        if n_blocks <= 0:
            return
        start_block = start_addr // self.geometry.block_bytes
        blocks = np.arange(start_block, start_block + n_blocks, dtype=np.int64)
        dirty = _dirty_mask(blocks, seed, dirty_fraction)

        if self.is_direct_mapped:
            idxs = blocks % self.dm.num_entries
            tags = blocks // self.dm.num_entries
            self._dm_entries.update(
                zip(idxs.tolist(), zip(tags.tolist(), dirty.tolist())))
            return

        sets = blocks % self.sa.num_sets
        tags = blocks // self.sa.num_sets
        order = np.argsort(sets, kind="stable")
        sets_sorted = sets[order]
        tags_sorted = tags[order].tolist()
        dirty_sorted = dirty[order].tolist()
        boundaries = np.flatnonzero(np.diff(sets_sorted)) + 1
        starts = [0, *boundaries.tolist()]
        ends = [*boundaries.tolist(), len(sets_sorted)]
        set_ids = sets_sorted[np.concatenate(([0], boundaries))].tolist()
        ways = self._ways
        tags_col, dirty_col, stamp_col = self._tags, self._dirty, self._stamp
        clock = self._clock
        dirty_evictions = self.dirty_evictions
        empty_tags = array("q", [-1]) * ways
        empty_stamp = array("q", bytes(8 * ways))
        for sid, lo, hi in zip(set_ids, starts, ends):
            # LRU semantics over (existing contents + this range): only
            # the last `ways` inserts of the group can survive, so the
            # earlier ones are skipped outright (no clock tick, no
            # eviction), exactly as if each block had been filled once.
            lo = hi - ways if hi - lo > ways else lo
            base = sid * ways
            end = base + ways
            # Valid ways in way order, then this range's inserts.
            merged = [t for t in zip(stamp_col[base:end], tags_col[base:end],
                                     dirty_col[base:end]) if t[1] != -1]
            for k in range(lo, hi):
                clock += 1
                merged.append((clock, tags_sorted[k], dirty_sorted[k]))
            m = len(merged)
            if m > ways:
                # Insertion stamps are unique and monotonic, so a plain
                # tuple sort is a stamp sort; the dropped prefix is the
                # LRU overflow.
                merged.sort()
                for _stamp, _tag, was_dirty in merged[:m - ways]:
                    if was_dirty:
                        dirty_evictions += 1
                del merged[:m - ways]
                m = ways
            stamps, tags_m, dirty_m = zip(*merged)
            stamp_col[base:base + m] = array("q", stamps)
            tags_col[base:base + m] = array("q", tags_m)
            dirty_col[base:base + m] = bytes(dirty_m)
            if m < ways:
                stamp_col[base + m:end] = empty_stamp[m:]
                tags_col[base + m:end] = empty_tags[m:]
                dirty_col[base + m:end] = bytes(ways - m)
        self._clock = clock
        self.dirty_evictions = dirty_evictions

    def bulk_fill_many(self, fills: list[tuple[int, int, float, int]]) -> None:
        """Apply several :meth:`bulk_fill` ranges in closed form.

        ``fills`` is a list of ``(start_addr, n_blocks, dirty_fraction,
        seed)`` tuples, applied with semantics identical to calling
        :meth:`bulk_fill` once per tuple in order — same final contents,
        same insertion-clock values, same ``dirty_evictions`` count.

        On an untouched set-associative array (the warm-up case) nothing
        is replayed, sorted or grouped.  Within one range only the last
        ``ways`` blocks of a set are ever inserted, so the range's stamped
        survivors are exactly its last ``min(n_blocks, sets * ways)``
        blocks; ``bulk_fill`` stamps them in (set, address) order, so the
        j-th survivor of a set has a computable block and stamp.  Across
        ranges the stamps only grow, so a set keeps its newest ``ways``
        survivors in stamp order at ways ``0..``, and every older one was
        displaced once, counting its dirty bit as one eviction.  The
        ranges are visited newest first with a per-set count of newer
        survivors, one survivor column (one entry per set) at a time, and
        the kept entries are written straight into the columns through
        NumPy views.  The temporaries are each range's per-set survivor
        counts plus a few other per-set arrays, whatever the footprint:
        O(ranges x sets) memory and O(ranges x sets x ways) time.  A used
        or direct-mapped array takes the sequential :meth:`bulk_fill` path.
        """
        # The closed form assumes a pristine array.  Every insert ticks
        # the clock, so a zero clock means no way has ever been written.
        if self.is_direct_mapped or self._clock:
            for start_addr, n_blocks, dirty_fraction, seed in fills:
                self.bulk_fill(start_addr, n_blocks,
                               dirty_fraction=dirty_fraction, seed=seed)
            return

        num_sets = self._num_sets
        ways = self._ways
        # (first survivor block, per-set survivor counts, clock before the
        # range, dirty_fraction, seed) per non-empty range, in fill order.
        ranges: list[tuple[int, NDArray[np.int64], int, float, int]] = []
        # Survivors each set keeps in the end (at most `ways`).
        kept = np.zeros(num_sets, dtype=np.int64)
        clock = self._clock
        for start_addr, n_blocks, dirty_fraction, seed in fills:
            if n_blocks <= 0:
                continue
            end = start_addr // self._block_bytes + n_blocks
            m = min(n_blocks, num_sets * ways)
            counts = _survivor_counts(end - m, m, num_sets)
            kept += counts
            ranges.append((end - m, counts, clock, dirty_fraction, seed))
            clock += m
        self._clock = clock
        if not ranges:
            return

        np.minimum(kept, ways, out=kept)
        set_ids = np.arange(num_sets, dtype=np.int64)
        # Way of a set's entry with `newer` newer entries: kept - 1 - newer.
        slot_top = set_ids * ways + kept - 1
        tags_v = np.frombuffer(self._tags, dtype=np.int64)
        dirty_v = np.frombuffer(self._dirty, dtype=np.uint8)
        stamp_v = np.frombuffer(self._stamp, dtype=np.int64)
        newer = np.zeros(num_sets, dtype=np.int64)  # from later ranges
        evicted_dirty = 0
        for first, counts, clock0, dirty_fraction, seed in reversed(ranges):
            # A set's first survivor block, and its stamp: bulk_fill
            # stamps survivors in (set, address) order.
            block0 = first + (set_ids - first) % num_sets
            stamp0 = clock0 + 1 + np.cumsum(counts) - counts
            # Entries newer than a set's j-th survivor: top - j.
            top = newer + counts - 1
            for j in range(int(counts.max())):
                blocks = block0 + j * num_sets
                dirty = _dirty_mask(blocks, seed, dirty_fraction)
                live = counts > j
                after = top - j
                keep = live & (after < ways)
                evicted_dirty += int(np.count_nonzero(dirty & live & ~keep))
                slots = (slot_top - after)[keep]
                tags_v[slots] = blocks[keep] // num_sets
                dirty_v[slots] = dirty[keep]
                stamp_v[slots] = stamp0[keep] + j
            newer += counts
        self.dirty_evictions += evicted_dirty

    # -- snapshot hooks (see repro/snapshot.py and DESIGN.md) -------------------

    def contents_signature(self) -> tuple[Any, ...]:
        """Value-only digest of the functional contents (snapshot tests).

        Deterministically ordered and identity-free, so signatures of
        independent copies compare equal iff the contents match.  The
        set-associative form lists ``(set, tags, dirty, stamps)`` for
        every set that differs from an untouched one, in set order.
        """
        if self.is_direct_mapped:
            return ("dm", self._clock, sorted(self._dm_entries.items()))
        ways = self._ways
        tags = np.frombuffer(self._tags, dtype=np.int64).reshape(-1, ways)
        dirty = np.frombuffer(self._dirty, dtype=np.bool_).reshape(-1, ways)
        stamp = np.frombuffer(self._stamp, dtype=np.int64).reshape(-1, ways)
        used = np.flatnonzero((tags != -1).any(1) | dirty.any(1)
                              | stamp.any(1))
        return ("sa", self._clock,
                list(zip(used.tolist(), map(tuple, tags[used].tolist()),
                         map(tuple, dirty[used].tolist()),
                         map(tuple, stamp[used].tolist()))))

    def capture_state(self) -> dict[str, Any]:
        """Freeze the functional contents for warm-state forking.

        The set-associative image is the three columns as immutable
        ``bytes``, so one capture can seed any number of restores (and
        deep-copies or pickles as plain values) while the donor keeps
        simulating.  Direct-mapped entries are immutable tuples, so a
        plain dict copy suffices there.
        """
        state: dict[str, Any] = {"organization": self.organization,
                                 "clock": self._clock}
        if self.is_direct_mapped:
            state["dm"] = dict(self._dm_entries)
        else:
            state["sa"] = (self._tags.tobytes(), bytes(self._dirty),
                           self._stamp.tobytes())
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt functional contents captured by :meth:`capture_state`.

        The columns are copied out of the image, which is never mutated,
        so one capture serves any number of restores and each restored
        run is bit-identical to a run that did the functional warm-up
        itself.
        """
        if state["organization"] != self.organization:
            raise ValueError(
                f"cannot restore {state['organization']!r} array state into "
                f"a {self.organization!r} array")
        if self.is_direct_mapped:
            self._dm_entries = dict(state["dm"])
        else:
            tags_b, dirty_b, stamp_b = state["sa"]
            tags, stamp = array("q", tags_b), array("q", stamp_b)
            if not len(tags) == len(dirty_b) == len(stamp) == len(self._dirty):
                raise ValueError(
                    f"array state holds {len(dirty_b)} ways, this geometry "
                    f"has {len(self._dirty)}")
            self._tags, self._dirty, self._stamp = tags, bytearray(dirty_b), stamp
        self._clock = state["clock"]

    def _touch(self, addr: int, way: int) -> None:
        if self.organization == "dm":
            return
        self._clock += 1
        b = addr // self._block_bytes
        self._stamp[(b % self._num_sets) * self._ways + way] = self._clock

    # -- array-address helpers (where tag/data live in the stacked DRAM) -------

    def tag_location(self, addr: int) -> int:
        """Array address of the tag structure guarding ``addr``."""
        b = self._block(addr)
        if self.is_direct_mapped:
            return self.dm.tad_array_addr(self.dm.entry_index(b))
        return self.sa.tag_array_addr(self.sa.set_index(b))

    def data_location(self, addr: int, way: int) -> int:
        """Array address of the data block for ``addr`` in ``way``."""
        b = self._block(addr)
        if self.is_direct_mapped:
            return self.dm.tad_array_addr(self.dm.entry_index(b))
        return self.sa.data_array_addr(self.sa.set_index(b), way)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset_counters(self) -> None:
        """Zero the functional counters (warm-up boundary)."""
        self.lookups = self.hits = self.fills = self.dirty_evictions = 0
