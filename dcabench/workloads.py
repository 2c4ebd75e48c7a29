"""The benchmark's workloads and their timed execution, point by point.

Every point runs through the public ``repro`` API at the quick
``SimParams`` size: ``build_system`` constructs the system, then either
``System.functional_warmup`` (cold; ``capture_warm_state`` follows when
the workload shares warm state) or ``System.restore_warm_state`` is the
set-up, and ``System.begin``/``System.finish`` -- the two halves of
``System.run`` -- are the timed simulation.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional

from repro.experiments.common import (
    DESIGNS,
    RunSpec,
    SimParams,
    build_system,
    warm_group_key,
)
from repro.metrics.speedup import geomean

PARAMS = SimParams.quick()

MIXES = (1, 2)

#: the ``adversarial_writeback`` scenario on the command-level substrate
#: over banked main memory with a bounded L2 write buffer
STORM_CONFIG = (("substrate.fidelity", "command"),
                ("mainmem.model", "banked"),
                ("writebuf.depth", 16))


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(mix or scenario, scheduler)`` groups, each run under every design
    groups: tuple[tuple[dict, str], ...]
    #: host seconds one pass over the points takes on a 2-vCPU Xeon
    #: container; sets how many trace seeds fit in a run's ``--seconds``
    pass_s: float
    #: fork one functional warm-up per group prefix instead of warming
    #: every point up itself
    warm_cache: bool = False

    def specs(self, seed: int) -> list[RunSpec]:
        return [RunSpec(design, "sa", scheduler=scheduler, seed=seed, **kw)
                for kw, scheduler in self.groups for design in DESIGNS]


#: Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    # what ``dca-repro fig08 --quick`` runs: every point warms up itself
    Workload("paper-grid", tuple(({"mix_id": m}, "bliss") for m in MIXES),
             pass_s=8.5),
    # what ``dca-repro sweep --warm-cache`` runs: set-up is a restore, so a
    # warm-up optimisation should move almost nothing here
    Workload("warm-sweep",
             tuple(({"mix_id": m}, s) for m in MIXES
                   for s in ("bliss", "frfcfs")),
             pass_s=10.5, warm_cache=True),
    # the only workload on the write path, the command-level substrate and
    # banked main memory
    Workload("writeback-storm",
             (({"workload": "adversarial_writeback", "config": STORM_CONFIG},
               "bliss"),),
             pass_s=6.0),
)}


@dataclass
class PointRun:
    """Host timings and work counts of one simulated point."""

    spec: RunSpec
    setup_s: float
    sim_s: float
    #: ``SystemResult.to_cache_dict()`` without ``meta`` (the output that
    #: must repeat exactly)
    result: dict[str, Any]
    events: int
    trace_ops: int
    array_lookups: int
    array_fills: int


def run_point(spec: RunSpec,
              warm_states: Optional[dict] = None) -> PointRun:
    """Set up and simulate one point.

    With ``warm_states`` (a dict owned by the caller), the first point of
    a warm group warms up and captures its state there; later points of
    the group restore it.
    """
    t0 = time.perf_counter()
    system = build_system(spec, PARAMS)
    key = warm = None
    if warm_states is not None:
        key = warm_group_key(spec, PARAMS)
        warm = warm_states.get(key)
    if warm is None:
        system.functional_warmup(replay_accesses=PARAMS.replay_accesses)
        if key is not None:
            warm_states[key] = system.capture_warm_state()
    else:
        system.restore_warm_state(warm)
    t1 = time.perf_counter()
    system.begin(PARAMS.warmup_insts, PARAMS.measure_insts,
                 functional_warmup=False)
    result = system.finish()
    t2 = time.perf_counter()
    out = result.to_cache_dict()
    del out["meta"]
    array = system.controller.array
    return PointRun(spec, t1 - t0, t2 - t1, out,
                    events=system.sim.events_run,
                    trace_ops=sum(c.trace.count for c in system.cores),
                    array_lookups=array.lookups,
                    array_fills=array.fills)


def run_pass(workload: Workload, seed: int, profiler=None):
    """Every point of ``workload`` once at trace seed ``seed``.

    Returns ``(runs, wall seconds)``; a point that raises is reported on
    stderr and recorded as ``None``.  A ``profiler`` (``cProfile.Profile``)
    is enabled for the pass only.
    """
    warm_states: Optional[dict] = {} if workload.warm_cache else None
    runs: list[Optional[PointRun]] = []
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    for spec in workload.specs(seed):
        try:
            runs.append(run_point(spec, warm_states))
        except Exception:
            print(f"point {spec.label()} {spec} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            runs.append(None)
    if profiler is not None:
        profiler.disable()
    return runs, time.perf_counter() - t0


def dca_vs_cd(runs: list[PointRun]) -> float:
    """Geomean over (trace seed, mix or scenario, scheduler) groups of CD's
    simulated elapsed time over DCA's."""
    groups: dict[tuple, dict[str, int]] = {}
    for run in runs:
        s = run.spec
        key = (s.seed, s.mix_id, s.workload, s.scheduler)
        groups.setdefault(key, {})[s.design] = run.result["elapsed_ps"]
    ratios = [g["CD"] / g["DCA"] for g in groups.values()
              if "CD" in g and "DCA" in g]
    return geomean(ratios) if ratios else 0.0   # 0: every group failed
