"""Pluggable victim selection for the SRAM caches and the SA DRAM cache.

Three policies (gem5's LRU variants), selected by name from
``REPLACEMENT_POLICIES`` in :mod:`repro.config`:

* ``"lru"`` — plain least-recently-used (the historical behaviour; the
  default's victim choice is computed exactly as before, so default
  configs stay bit-identical to the pre-policy goldens).
* ``"lruc"`` — clean-preferred LRU: evict the LRU *clean* way when one
  exists (a clean victim costs no writeback), falling back to plain LRU
  when the whole set is dirty.
* ``"lrud"`` — dirty-preferred LRU: evict the LRU *dirty* way when one
  exists, harvesting writebacks early so they reach the write buffer /
  Lee batcher in bursts instead of trickling.

Two call conventions, one per cache organisation:

* **SRAM** (:mod:`repro.mem.sram`): sets are lists of ``[tag, dirty,
  stamp]`` entries; the policy returns the victim *entry*.
* **SA DRAM cache** (:mod:`repro.cache.dramcache`): the policy gets one
  set's segment of the flat tag, dirty-bit (0/1) and stamp columns and
  returns the victim *way index*.  The caller fills invalid ways first —
  policies only see full sets.

All policies are module-level functions, so a cache holding one as an
attribute stays snapshot-safe (no closures in live state — see
repro/snapshot.py and dca-lint rule R3).
"""

from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence

# Entries are [tag, dirty, stamp]; stamps are unique and monotonic.
_STAMP = itemgetter(2)

# SRAM policies only iterate (min / filter), so any iterable of entries
# works — the SRAM cache passes its per-set dict's values() view without
# materialising a list per eviction.
SRAMVictimFn = Callable[[Iterable[list[Any]]], list[Any]]
SAVictimFn = Callable[[Sequence[int], Sequence[int], Sequence[int]], int]


# -- SRAM caches (list-of-entries sets) -----------------------------------------


def _sram_lru(s: Iterable[list[Any]]) -> list[Any]:
    return min(s, key=_STAMP)


def _sram_lru_clean(s: Iterable[list[Any]]) -> list[Any]:
    entries = list(s)
    clean = [e for e in entries if not e[1]]
    return min(clean, key=_STAMP) if clean else min(entries, key=_STAMP)


def _sram_lru_dirty(s: Iterable[list[Any]]) -> list[Any]:
    entries = list(s)
    dirty = [e for e in entries if e[1]]
    return min(dirty, key=_STAMP) if dirty else min(entries, key=_STAMP)


SRAM_POLICIES: Mapping[str, SRAMVictimFn] = MappingProxyType({
    "lru": _sram_lru,
    "lruc": _sram_lru_clean,
    "lrud": _sram_lru_dirty,
})


# -- SA DRAM-cache organisation (flat column segments) --------------------------


def _sa_lru(tags: Sequence[int], dirty: Sequence[int],
            stamp: Sequence[int]) -> int:
    return stamp.index(min(stamp))


def _sa_lru_clean(tags: Sequence[int], dirty: Sequence[int],
                  stamp: Sequence[int]) -> int:
    best = -1
    best_stamp = -1
    for w, d in enumerate(dirty):
        if not d and (best < 0 or stamp[w] < best_stamp):
            best, best_stamp = w, stamp[w]
    return best if best >= 0 else _sa_lru(tags, dirty, stamp)


def _sa_lru_dirty(tags: Sequence[int], dirty: Sequence[int],
                  stamp: Sequence[int]) -> int:
    best = -1
    best_stamp = -1
    for w, d in enumerate(dirty):
        if d and (best < 0 or stamp[w] < best_stamp):
            best, best_stamp = w, stamp[w]
    return best if best >= 0 else _sa_lru(tags, dirty, stamp)


SA_POLICIES: Mapping[str, SAVictimFn] = MappingProxyType({
    "lru": _sa_lru,
    "lruc": _sa_lru_clean,
    "lrud": _sa_lru_dirty,
})
