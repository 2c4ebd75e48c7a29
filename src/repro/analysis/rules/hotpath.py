"""R3 — hot-path hygiene: ``__slots__`` everywhere hot, no stored closures,
no enum member loads per access.

Three checks:

* Classes in ``dram/`` and in ``sim/engine.py`` — the per-event inner
  loop — must declare ``__slots__``.  Slotted attribute access is
  measurably faster, keeps per-object memory flat at event-pool scale,
  and is a precondition for mypyc compilation of these modules
  (attribute types become fixed offsets).  Enum/Protocol/NamedTuple/
  dataclass/exception classes and the dynamic-counter MetricGroup
  family are exempt by construction.

* No lambdas or locally-defined functions may be stored on instance
  attributes anywhere in the simulation packages.  This is the PR 4 bug
  class: closures in live state made the simulator graph undeepcopyable
  and unpicklable, which is what snapshot/restore and the warm-state
  cache are built on.  Bound methods (``self.f = self.g``) remain legal
  — they pickle through the instance.

* No ``Priority.X`` / ``RequestType.X`` / ``AccessRole.X`` /
  ``RowState.X`` attribute loads inside function bodies of the
  per-access code: ``core/``, ``cache/translator.py``, ``sim/``,
  ``dram/`` and ``mem/``.  On CPython 3.11 ``EnumType`` defines a
  Python ``__getattr__``, so each such load takes the slow slot getattr
  hook (~5x a plain class attribute) on every call.  Hot code compares
  against the module-level aliases exported by ``repro.core.access``
  (``REQ_READ``, ``TAG_READ``, ``PR``, ...) or the ``ROW_*`` ints of
  ``repro.dram.bank``.  Loads that run once at import time (module
  level, class bodies, default arguments, decorators) stay legal.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.core import (
    Finding,
    LintRun,
    Rule,
    SourceModule,
    assign_targets,
    base_names,
    decorator_names,
    self_attr_target,
)

_SIM_PACKAGES = ("sim", "dram", "cache", "mem")

#: Packages (and single files) whose functions run per DRAM access.
_PER_ACCESS_PACKAGES = ("core", "sim", "dram", "mem")
_PER_ACCESS_FILES = ("cache/translator.py",)

#: Enum classes whose member loads R3 keeps out of per-access functions.
_HOT_ENUMS = frozenset({"Priority", "RequestType", "AccessRole", "RowState"})

#: Base classes whose subclasses manage attribute storage differently.
_EXEMPT_BASES = frozenset({"Protocol", "Enum", "IntEnum", "IntFlag", "Flag",
                           "NamedTuple", "TypedDict"})


def _slots_exempt(cls: ast.ClassDef) -> bool:
    bases = base_names(cls)
    if bases & _EXEMPT_BASES:
        return True
    # Exception hierarchies carry BaseException's dict machinery.
    if any(b.endswith(("Error", "Exception", "Warning")) for b in bases):
        return True
    # The MetricGroup family binds counters dynamically from COUNTERS
    # declarations (see repro/metrics/registry.py) — R5's territory.
    if any(b.endswith(("Stats", "Group")) for b in bases):
        return True
    if "dataclass" in decorator_names(cls):
        return True
    return False


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        for target in assign_targets(stmt):
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


class HotPathRule(Rule):
    id = "R3"
    name = "hot-path-hygiene"
    description = (
        "classes in dram/ and sim/engine.py must declare __slots__ "
        "(mypyc on-ramp); no lambdas or local functions stored on "
        "instance attributes in simulation packages (PR 4 bug class); "
        "no Priority/RequestType/AccessRole/RowState member loads inside "
        "per-access functions (EnumType.__getattr__ cost)"
    )

    def check(self, module: SourceModule, run: LintRun) -> Iterator[Finding]:
        hot = module.in_package("dram") or module.is_file("sim/engine.py")
        if hot:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if _slots_exempt(node) or _declares_slots(node):
                    continue
                yield module.finding(
                    self, node,
                    f"hot-path class {node.name} must declare __slots__ "
                    f"(attribute-offset dispatch; mypyc precondition)",
                )
        if module.in_package(*_SIM_PACKAGES):
            yield from self._closure_findings(module)
        if (module.in_package(*_PER_ACCESS_PACKAGES)
                or any(module.is_file(f) for f in _PER_ACCESS_FILES)):
            yield from self._enum_load_findings(module)

    def _enum_load_findings(self, module: SourceModule) -> Iterator[Finding]:
        # Only function *bodies* run per call: argument defaults and
        # decorators are evaluated once, when the def executes.
        seen: set[int] = set()      # nested functions are walked twice
        for func in ast.walk(module.tree):
            body: Sequence[ast.AST]
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = func.body
            elif isinstance(func, ast.Lambda):
                body = [func.body]
            else:
                continue
            for stmt in body:
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Load)
                            and isinstance(node.value, ast.Name)
                            and node.value.id in _HOT_ENUMS
                            and id(node) not in seen):
                        seen.add(id(node))
                        yield module.finding(
                            self, node,
                            f"{node.value.id}.{node.attr} loaded inside a "
                            f"function: EnumType.__getattr__ makes every "
                            f"load slow; use the module-level constant "
                            f"(repro.core.access / repro.dram.bank)",
                        )

    def _closure_findings(self, module: SourceModule) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_defs = {
                stmt.name for stmt in ast.walk(func)
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt is not func
            }
            for node in ast.walk(func):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                value = node.value
                if value is None:
                    continue
                stored: str | None = None
                if isinstance(value, ast.Lambda):
                    stored = "a lambda"
                elif isinstance(value, ast.Name) and value.id in local_defs:
                    stored = f"local function {value.id!r}"
                if stored is None:
                    continue
                for target in assign_targets(node):
                    attr = self_attr_target(target)
                    if attr is not None:
                        yield module.finding(
                            self, node,
                            f"storing {stored} on self.{attr} puts a "
                            f"closure into live state — undeepcopyable/"
                            f"unpicklable (the PR 4 bug class); use a "
                            f"bound method or module-level function",
                        )
