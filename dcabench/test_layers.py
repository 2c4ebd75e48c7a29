"""Checks of the module -> layer map and the self-time attribution.

Run from the repository root: ``python3 -m pytest -q dcabench``.
"""

from pathlib import Path

import pytest

from layers import LAYERS, OTHER, Attribution, layer_of, layers_of, \
    module_name

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = sorted(filter(None, (module_name(str(p), SRC)
                                   for p in (SRC / "repro").rglob("*.py"))))
    assert "repro.core.base" in modules and "repro" in modules
    bad = {m: layers_of(m) for m in modules if len(layers_of(m)) != 1}
    assert not bad, f"modules mapping to no layer or to several: {bad}"


def test_map_rejects_unmapped_and_doubly_mapped_modules(monkeypatch):
    with pytest.raises(KeyError):
        layer_of("repro.newpkg.module")
    monkeypatch.setitem(LAYERS, "engine",
                        LAYERS["engine"] + ("repro.core.*",))
    with pytest.raises(KeyError):
        layer_of("repro.core.base")


def test_package_patterns():
    assert layer_of("repro.core") == "core"
    assert layer_of("repro.core.dca") == "core"
    assert layer_of("repro.sim.engine") == "engine"
    assert layer_of("repro.sim.system") == "hier"
    assert layer_of("repro.mem.mainmem") == "mainmem"


def test_module_name():
    assert module_name(str(SRC / "repro/core/base.py"), SRC) == \
        "repro.core.base"
    assert module_name(str(SRC / "repro/core/__init__.py"), SRC) == \
        "repro.core"
    assert module_name("~", SRC) is None
    assert module_name("/usr/lib/python3/copy.py", SRC) is None


def test_builtins_are_charged_to_their_callers_layers():
    decide = (str(SRC / "repro/core/base.py"), 1, "_decide")
    pop = (str(SRC / "repro/sim/engine.py"), 1, "run")
    builtin = ("~", 0, "<built-in method builtins.min>")
    nested = ("~", 0, "<built-in method builtins.sorted>")
    harness = ("run.py", 1, "main")
    stats = {
        # (cc, nc, tt, ct, callers{caller: (cc, nc, tt, ct)})
        decide: (1, 1, 2.0, 6.0, {pop: (1, 1, 2.0, 6.0)}),
        pop: (1, 1, 1.0, 10.0, {harness: (1, 1, 1.0, 10.0)}),
        builtin: (4, 4, 4.0, 4.0, {decide: (3, 3, 3.0, 3.0),
                                    nested: (1, 1, 1.0, 1.0)}),
        nested: (1, 1, 0.5, 1.5, {pop: (1, 1, 0.5, 1.5)}),
        harness: (1, 1, 0.5, 10.5, {}),
    }
    att = Attribution(stats, SRC)
    assert att.self_s["core"] == pytest.approx(2.0 + 3.0)
    assert att.self_s["engine"] == pytest.approx(1.0 + 1.0 + 0.5)
    assert att.self_s[OTHER] == pytest.approx(0.5)
    assert sum(att.fractions().values()) == pytest.approx(1.0)
    assert att.calls("core", "_decide") == 1
    assert att.cumulative_s("engine", "run") == 10.0
