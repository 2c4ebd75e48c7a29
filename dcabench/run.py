"""Host-side benchmark of the DCA reproduction (metrics: README.md).

Run from the repository root::

    python3 dcabench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0

A run derives its trace seeds from ``--seed``.  ``--trace 0`` makes one
pass over the workload's points per trace seed -- as many seeds as fit
in ``--seconds`` on the reference container, at least two -- then
repeats the first pass, and prints the end-to-end metrics.
``--trace 1`` makes the first pass once untraced and once under cProfile
and prints the per-layer metrics.  Both check every point's output and
print, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import Attribution

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: seed of every recorded baseline
DEFAULT_SEED = 1
#: seed kept out of tuning; a claimed gain must also hold on it
HELD_OUT_SEED = 2

#: trace seeds per run: at least two, so each run averages over inputs;
#: at most ``MAX_SEEDS``, so the seeds of different runs never overlap
MIN_SEEDS, MAX_SEEDS = 2, 64


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"run seed (default {DEFAULT_SEED}; held-out "
                        f"seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=int, default=25,
                   help="measuring time of an untraced run on the "
                        "reference container")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def trace_seeds(seed, seconds, workload):
    """The ``RunSpec.seed`` of each pass: distinct per run, never 0.

    The count depends on ``--seconds`` but not on measured time, so the
    simulated metrics are a function of the arguments alone.
    """
    n = round(seconds / workload.pass_s) - 1     # one pass is the repeat
    n = max(MIN_SEEDS, min(MAX_SEEDS, n))
    return [seed * MAX_SEEDS + j + 1 for j in range(n)]


def count_failed(passes, repeat):
    """Points whose output check fails.

    ``passes`` hold distinct inputs; ``repeat`` runs the first pass's
    points again.  A point fails when it raised, when a core did not
    retire its measured budget in positive simulated time (IPC not
    finite and positive), when it made no DRAM-cache access, or when its
    repeat's result differs from its first result.
    """
    failed = 0
    for runs in passes + [repeat]:
        for run in runs:
            if run is None:
                failed += 1
            elif not (all(0 < ipc < math.inf for ipc in run.result["ipcs"])
                      and run.result["dram_accesses"] > 0):
                print(f"point {run.spec.label()} {run.spec} has IPCs "
                      f"{run.result['ipcs']} and "
                      f"{run.result['dram_accesses']} DRAM-cache accesses",
                      file=sys.stderr)
                failed += 1
    for first, again in zip(passes[0], repeat):
        if first is not None and again is not None \
                and first.result != again.result:
            print(f"point {first.spec.label()} {first.spec} did not repeat "
                  f"its result", file=sys.stderr)
            failed += 1
    return failed


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(passes, walls):
    """End-to-end metrics of a run (see README.md).

    Host rates and ``sim_s`` cover every pass, the repeat included;
    ``setup_s`` is the median pass's; the simulated metrics cover the
    distinct passes (``passes[:-1]``).
    """
    from workloads import dca_vs_cd
    runs = [r for pass_runs in passes for r in pass_runs if r is not None]
    sim_s = sum(r.sim_s for r in runs)
    distinct = [r for pass_runs in passes[:-1] for r in pass_runs
                if r is not None]
    dca_elapsed_ps = sum(r.result["elapsed_ps"] for r in distinct
                         if r.spec.design == "DCA")
    return {
        "accesses_per_s": (_ratio(sum(r.result["dram_accesses"]
                                      for r in runs), sum(walls)),
                           "accesses/s"),
        "events_per_s": (_ratio(sum(r.events for r in runs), sim_s),
                         "events/s"),
        "setup_s": (statistics.median(
            sum(r.setup_s for r in pass_runs if r is not None)
            for pass_runs in passes), "s"),
        "sim_s": (sim_s / len(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
        "sim_elapsed_us": (dca_elapsed_ps / 1e6 / (len(passes) - 1),
                           "sim_us"),
        "dca_vs_cd_elapsed_x": (dca_vs_cd(distinct), "x"),
    }


def per_layer(runs, stats, overhead_x):
    """Per-layer metrics of one traced pass (see README.md)."""
    att = Attribution(stats, SRC)
    runs = [r for r in runs if r is not None]
    res = [r.result for r in runs]
    m = [r["metrics"] for r in res]

    def total(group, name):
        return sum(x.get(group, {}).get(name, 0) for x in m)

    events = sum(r.events for r in runs)
    dram_accesses = sum(r["dram_accesses"] for r in res)
    decides = att.calls("core", "_decide")
    warmup_s = att.cumulative_s("hier", "functional_warmup")
    prefill_s = att.cumulative_s("cache", "bulk_fill_many")
    read_hits = total("controller", "read_hits")
    out = {
        "engine.events": (events, "count"),
        "engine.ns_per_event": (_ratio(att.self_s["engine"] * 1e9, events),
                                "ns"),
        "core.submits": (att.calls("core", "submit"), "count"),
        "core.decides": (decides, "count"),
        "core.decides_per_access": (_ratio(decides, dram_accesses), "x"),
        "core.picks": (att.calls("core", "pick_banked"), "count"),
        "core.lr_ofs_issues": (sum(r["lr_ofs_issues"] for r in res), "count"),
        "core.read_priority_inversions": (
            sum(r["read_priority_inversions"] for r in res), "count"),
        "cache.lookups": (sum(r.array_lookups for r in runs), "count"),
        "cache.fills": (sum(r.array_fills for r in runs), "count"),
        "cache.read_hit_rate": (
            _ratio(read_hits,
                   read_hits + total("controller", "read_misses")), "ratio"),
        "cache.mapi_accuracy": (_ratio(total("mapi", "correct"),
                                       total("mapi", "predictions")), "ratio"),
        "dram.accesses": (dram_accesses, "count"),
        "dram.estimates_per_issue": (
            _ratio(att.calls("dram", "estimate_burst_start"),
                   att.calls("dram", "issue")), "x"),
        "dram.turnarounds": (sum(r["turnarounds"] for r in res), "count"),
        "dram.read_row_hit_rate": (
            _ratio(total("substrate_total", "read_row_hits"),
                   total("substrate_total", "read_accesses")), "ratio"),
        "dram.faw_stalls": (total("substrate_total", "faw_stalls"), "count"),
        "dram.refreshes": (total("substrate_total", "refreshes_issued"),
                           "count"),
        "mainmem.reads": (total("mainmem", "reads"), "count"),
        "mainmem.writes": (total("mainmem", "writes"), "count"),
        "mainmem.read_bus_wait_ps": (total("mainmem", "read_bus_wait_ps"),
                                     "sim_ps"),
        "l2.accesses": (total("l2", "accesses"), "count"),
        "l2.hit_rate": (_ratio(total("l2", "hits"), total("l2", "accesses")),
                        "ratio"),
        "mshr.full_stalls": (total("mshr", "full_stalls"), "count"),
        "writebuf.drained": (total("writebuf", "drained"), "count"),
        "workloads.ops": (sum(r.trace_ops for r in runs), "count"),
        "warmup.s": (warmup_s, "s"),
        "warmup.prefill_s": (prefill_s, "s"),
        "warmup.replay_s": (warmup_s - prefill_s, "s"),
        "warmup.points": (att.calls("hier", "functional_warmup"), "count"),
        "snapshot.capture_s": (
            att.cumulative_s("hier", "capture_warm_state"), "s"),
        "snapshot.restore_s": (
            att.cumulative_s("hier", "restore_warm_state"), "s"),
        "snapshot.restored_points": (
            att.calls("hier", "restore_warm_state"), "count"),
        "trace.overhead_x": (overhead_x, "x"),
    }
    for layer, share in att.fractions().items():
        out[f"{layer}.self_frac"] = (share, "frac")
    return out


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cannot find the repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, run_pass

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    seeds = trace_seeds(args.seed, args.seconds, workload)
    start = time.perf_counter()
    if args.trace:
        seeds = seeds[:1]
        untraced, wall_u = run_pass(workload, seeds[0])
        profiler = cProfile.Profile()
        traced, wall_t = run_pass(workload, seeds[0], profiler)
        passes, repeat = [untraced], traced
        metrics = per_layer(traced, pstats.Stats(profiler).stats,
                            _ratio(wall_t, wall_u))
    else:
        passes, walls = [], []
        for seed in seeds + seeds[:1]:
            runs, wall = run_pass(workload, seed)
            passes.append(runs)
            walls.append(wall)
            print(f"trace seed {seed}: {wall:.3f} s, set-up "
                  f"{sum(r.setup_s for r in runs if r):.3f} s, sim "
                  f"{sum(r.sim_s for r in runs if r):.3f} s", file=sys.stderr)
        metrics = end_to_end(passes, walls)
        passes, repeat = passes[:-1], passes[-1]

    failed = count_failed(passes, repeat)
    attempted = sum(len(runs) for runs in passes + [repeat])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"trace seeds {seeds}  points {attempted}  "
          f"failed {failed}  "
          f"({time.perf_counter() - start:.1f} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
