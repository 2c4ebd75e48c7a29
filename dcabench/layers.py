"""Module -> layer map and cProfile self-time attribution.

The map is data: every ``repro.*`` module belongs to exactly one layer,
which ``test_layers.py`` enforces over the source tree, so a module added
later cannot silently drop out of attribution.

A pattern ending in ``.*`` names a package and every module below it; any
other pattern names exactly one module (a package's ``__init__`` is the
package name itself).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional

LAYERS: dict[str, tuple[str, ...]] = {
    "engine": ("repro.sim.engine",),
    "core": ("repro.core.*",),
    "cache": ("repro.cache.*",),
    "dram": ("repro.dram.*",),
    "mainmem": ("repro.mem.mainmem",),
    "hier": ("repro.sim", "repro.sim.cpu", "repro.sim.system",
             "repro.mem", "repro.mem.sram", "repro.mem.mshr",
             "repro.mem.writebuffer", "repro.mem.prefetch",
             "repro.mem.llc_writeback"),
    "workloads": ("repro.workloads.*",),
    "snapshot": ("repro.snapshot",),
    "metrics": ("repro.metrics.*",),
    # Configuration, experiment runners and tooling: glue the benchmark
    # passes through but no simulated component.
    "other": ("repro", "repro.config", "repro.build_info",
              "repro.experiments.*", "repro.scenarios.*",
              "repro.analysis.*", "repro.bench.*"),
}

#: layer charged with time outside every repro module (this benchmark,
#: interpreter start-up) and with calls no repro function made
OTHER = "other"


def _matches(pattern: str, module: str) -> bool:
    if pattern.endswith(".*"):
        pkg = pattern[:-2]
        return module == pkg or module.startswith(pkg + ".")
    return module == pattern


def layers_of(module: str) -> list[str]:
    """Every layer whose patterns match ``module`` (correct: exactly one)."""
    return [layer for layer, patterns in LAYERS.items()
            if any(_matches(p, module) for p in patterns)]


def layer_of(module: str) -> str:
    """The one layer of a ``repro`` module; raises if it has none or two."""
    found = layers_of(module)
    if len(found) != 1:
        raise KeyError(f"module {module!r} maps to layers {found}")
    return found[0]


def module_name(path: str, src_root: Path) -> Optional[str]:
    """Dotted ``repro`` module of a source file, or None outside ``repro``."""
    try:
        rel = Path(path).resolve().relative_to(src_root.resolve())
    except ValueError:
        return None
    if rel.suffix != ".py" or not rel.parts or rel.parts[0] != "repro":
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Attribution:
    """Self time and call counts of one ``pstats.Stats.stats`` table.

    A frame outside ``repro`` -- a C builtin, the standard library, numpy
    -- is charged to the layer of the ``repro`` function that called it,
    split over its callers by the time each call edge spent there, so the
    layer fractions sum to 1.  Frames reached from no ``repro`` function
    are charged to ``other``.
    """

    def __init__(self, stats: dict, src_root: Path):
        self._stats = stats
        self._module = {key: module_name(key[0], src_root) for key in stats}
        self._resolved: dict[tuple, dict[str, float]] = {}
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for key, row in stats.items():
            for layer, share in self._resolve(key).items():
                self.self_s[layer] += row[2] * share
        self.total_s = sum(self.self_s.values())

    def _resolve(self, key: tuple) -> dict[str, float]:
        """Layer shares of one function: its own layer, or its callers'
        weighted by the time each call edge spent in it."""
        module = self._module.get(key)
        if module is not None:
            return {layer_of(module): 1.0}
        if key in self._resolved:
            return self._resolved[key]
        self._resolved[key] = {OTHER: 1.0}      # cycle guard
        callers = self._stats[key][4] if key in self._stats else {}
        weight = sum(edge[2] for edge in callers.values())
        shares: dict[str, float] = {} if callers else {OTHER: 1.0}
        for caller, edge in callers.items():
            frac = edge[2] / weight if weight > 0 else 1.0 / len(callers)
            for layer, s in self._resolve(caller).items():
                shares[layer] = shares.get(layer, 0.0) + frac * s
        self._resolved[key] = shares
        return shares

    def fractions(self) -> dict[str, float]:
        """Each layer's share of all profiled self time."""
        return {layer: (s / self.total_s if self.total_s else 0.0)
                for layer, s in self.self_s.items()}

    def _select(self, layer: str, func: str) -> Iterable[tuple]:
        for key, row in self._stats.items():
            module = self._module[key]
            if (key[2] == func and module is not None
                    and layer_of(module) == layer):
                yield row

    def calls(self, layer: str, func: str) -> int:
        """Total calls of every function named ``func`` in ``layer``."""
        return sum(row[1] for row in self._select(layer, func))

    def cumulative_s(self, layer: str, func: str) -> float:
        """Cumulative (inclusive) profiled seconds of ``func`` in ``layer``."""
        return sum(row[3] for row in self._select(layer, func))
