"""Perf harness entry point: microbench + end-to-end, emitted as BENCH JSON.

Every invocation produces one ``BENCH_<label>.json`` containing

* the decision-loop scenario table (naive vs indexed throughput and the
  speedup ratio, equivalence-verified before timing), and
* the wall-clock of a small end-to-end simulation grid executed through
  the real experiment machinery (``run_grid`` + ``ResultStore``), so the
  number tracks the whole stack, not just the scheduler.

The JSON files form the repo's perf trajectory: each PR commits one
(e.g. ``BENCH_pr2.json``) and CI uploads a fresh one per run, so a
regression shows up as a ratio between two adjacent labels.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.common import (
    DESIGNS,
    ResultStore,
    RunSpec,
    SimParams,
    atomic_write_json,
    run_grid,
    write_profiled,
)
from repro.bench.compiled_loop import run_compiled_section
from repro.bench.decision_loop import run_decision_loop
from repro.bench.engine_loop import run_engine_section
from repro.bench.substrate_loop import run_substrate_loop
from repro.bench.topology_loop import run_topology_section
from repro.build_info import build_mode, check_required

#: Version of the BENCH_*.json payload; bump on any field/semantics change.
#: v2: added the ``substrate`` section (burst vs command issue-loop
#: throughput) and the ``sections`` field recording what ran.
#: v3: added the ``engine`` section (heap vs calendar event-engine micro
#: ops + equality-checked in-process end-to-end comparison).
#: v4: added the ``topology`` section (flat vs banked mainmem fetch-loop
#: + end-to-end overhead, banked channel-scaling latency curve).
#: v5: added the ``compiled`` section (SoA vs object-model bank state,
#: lockstep-checked; build-mode provenance) and the top-level ``build``
#: field recording interpreted vs compiled for every section's numbers.
#: v6: ``topology.e2e`` reports banked/flat wall time per engine event as
#: the median of interleaved repeats (``banked_per_event_x``), replacing
#: the single flat-then-banked wall ratio ``banked_overhead_x``.
BENCH_SCHEMA_VERSION = 6

#: selectable benchmark sections (``repro-perf [section]``)
SECTIONS = ("decision", "substrate", "engine", "topology", "compiled", "e2e")


def run_end_to_end(quick: bool = False, jobs: int = 1) -> dict:
    """Time a small fig08-style grid (uncached) through run_grid."""
    mixes = [1] if quick else [1, 2]
    specs = [RunSpec(d, "sa", mix_id=m) for d in DESIGNS for m in mixes]
    params = SimParams.quick()
    store = ResultStore(enabled=False)     # measure real work, store nothing
    t0 = time.perf_counter()
    results = run_grid(specs, params, jobs=jobs, use_cache=False, store=store)
    wall_s = time.perf_counter() - t0
    reads = sum(r.reads_done for r in results.values())
    accesses = sum(r.dram_accesses for r in results.values())
    return {
        "points": len(specs),
        "designs": list(DESIGNS),
        "mixes": mixes,
        "jobs": jobs,
        "params": "quick",
        "wall_s": round(wall_s, 3),
        "reads_done_total": reads,
        "dram_accesses_total": accesses,
        "dram_accesses_per_s": round(accesses / wall_s, 1) if wall_s else 0.0,
    }


def run_warm_reuse(quick: bool = False, jobs: int = 1) -> dict:
    """Cold vs. warm-cache wall clock on a fig08-style multi-design grid.

    The grid crosses every controller design with both underlying
    schedulers (six design points per mix), which is exactly the shape
    the warm-state cache targets: one functional warm-up per (mix,
    substrate) group, five forks.  After both runs the two result sets
    are checked bit-identical (modulo ``meta``, which records
    provenance) and a mismatch **raises** — a speedup from a warm cache
    that bends results would be worthless, so it must never be recorded
    as a BENCH headline.
    """
    mixes = [1] if quick else [1, 2]
    specs = [RunSpec(d, "sa", mix_id=m, scheduler=s)
             for m in mixes for d in DESIGNS for s in ("bliss", "frfcfs")]
    params = SimParams.quick()

    def timed(warm: bool) -> tuple[float, dict]:
        store = ResultStore(enabled=False)
        t0 = time.perf_counter()
        results = run_grid(specs, params, jobs=jobs, use_cache=False,
                           store=store, warm_cache=warm)
        return time.perf_counter() - t0, results

    cold_s, cold = timed(False)
    warm_s, warm = timed(True)

    def comparable(results: dict) -> dict:
        out = {}
        for spec, res in results.items():
            d = res.to_cache_dict()
            d.pop("meta")
            out[spec] = d
        return out

    identical = comparable(cold) == comparable(warm)
    if not identical:
        raise RuntimeError(
            "warm-cache results diverged from cold execution — the warm "
            "reuse speedup is meaningless; fix the bit-identity regression "
            "(tests/test_warm_cache.py) before benchmarking")
    restored = sum(1 for r in warm.values()
                   if r.meta.get("warm", {}).get("restored"))
    return {
        "points": len(specs),
        "design_points_per_mix": len(DESIGNS) * 2,
        "mixes": mixes,
        "jobs": jobs,
        "params": "quick",
        "cold_wall_s": round(cold_s, 3),
        "warm_wall_s": round(warm_s, 3),
        "speedup": round(cold_s / warm_s, 3) if warm_s else 0.0,
        "warm_restored_points": restored,
        "identical_results": identical,
    }


def run_perf(quick: bool = False, label: str = "dev",
             out_dir: Path = Path("."), end_to_end: bool = True,
             jobs: int = 1, seed: int = 0,
             sections: Optional[Sequence[str]] = None,
             profile_out: Optional[Path] = None) -> Path:
    """Run the harness and write ``BENCH_<label>.json``; returns path.

    ``sections`` selects which benchmark families run (default: all of
    :data:`SECTIONS`; ``end_to_end=False`` additionally drops ``e2e``).
    ``profile_out`` wraps the measured region in cProfile and writes
    pstats data there (atomically; analyse with ``python -m pstats`` or
    snakeviz).  Profiled walls are inflated by tracing overhead — use
    them for *where*, never for BENCH headline ratios.
    """
    if sections is None:
        sections = SECTIONS
    unknown = set(sections) - set(SECTIONS)
    if unknown:
        raise ValueError(f"unknown bench sections {sorted(unknown)}; "
                         f"known: {SECTIONS}")
    if not end_to_end:
        # The recorded section list must describe what actually ran.
        sections = [s for s in sections if s != "e2e"]
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "perf",
        "label": label,
        "quick": quick,
        "sections": list(sections),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "build": build_mode(),
    }
    def measured() -> None:
        if "decision" in sections:
            payload["decision_loop"] = run_decision_loop(quick=quick,
                                                         seed=seed)
        if "substrate" in sections:
            payload["substrate"] = run_substrate_loop(quick=quick, seed=seed)
        if "engine" in sections:
            payload["engine"] = run_engine_section(quick=quick, seed=seed)
        if "topology" in sections:
            payload["topology"] = run_topology_section(quick=quick,
                                                       seed=seed)
        if "compiled" in sections:
            payload["compiled"] = run_compiled_section(quick=quick, seed=seed)
        if "e2e" in sections:
            payload["end_to_end"] = run_end_to_end(quick=quick, jobs=jobs)
            payload["warm_reuse"] = run_warm_reuse(quick=quick, jobs=jobs)

    if profile_out is not None:
        write_profiled(measured, Path(profile_out))
        payload["profile"] = str(profile_out)
    else:
        measured()
    return atomic_write_json(Path(out_dir) / f"BENCH_{label}.json", payload)


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(
        prog="repro-perf",
        description="Perf harness: scheduler decision loop, substrate "
                    "issue loop (burst vs command fidelity) and "
                    "end-to-end grids; emits BENCH_<label>.json.")
    p.add_argument("section", nargs="*", metavar="section",
                   help=f"benchmark sections to run ({', '.join(SECTIONS)}; "
                        f"default all) — e.g. 'repro-perf substrate'")
    p.add_argument("--quick", action="store_true",
                   help="reduced iteration counts / grid size (CI smoke)")
    p.add_argument("--label", default="dev",
                   help="output label: writes BENCH_<label>.json")
    p.add_argument("--out-dir", default=".",
                   help="directory for the BENCH file (default cwd)")
    p.add_argument("--no-e2e", action="store_true",
                   help="skip the end-to-end simulation grid")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the end-to-end grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", metavar="OUT.prof", default=None,
                   help="run the measured sections under cProfile and "
                        "write pstats data to OUT.prof (walls inflate; "
                        "use for hotspot hunting, not headline ratios)")
    args = p.parse_args(argv)
    check_required()    # REPRO_REQUIRE_COMPILED=1: no silent fallback
    sections = tuple(args.section) if args.section else None
    if sections and set(sections) - set(SECTIONS):
        p.error(f"unknown sections {sorted(set(sections) - set(SECTIONS))}; "
                f"known: {', '.join(SECTIONS)}")
    path = run_perf(quick=args.quick, label=args.label,
                    out_dir=Path(args.out_dir), end_to_end=not args.no_e2e,
                    jobs=args.jobs, seed=args.seed, sections=sections,
                    profile_out=Path(args.profile) if args.profile else None)
    import json
    data = json.loads(path.read_text())
    print(f"wrote {path}")
    if "decision_loop" in data:
        dl = data["decision_loop"]
        for s in dl["scenarios"]:
            print(f"  {s['name']:<24} naive {s['naive_per_s']:>10.0f}/s   "
                  f"indexed {s['indexed_per_s']:>10.0f}/s   x{s['speedup']:.2f}")
        print(f"  geomean speedup: x{dl['geomean_speedup']:.2f} "
              f"(min x{dl['min_speedup']:.2f})")
    if "substrate" in data:
        for s in data["substrate"]["scenarios"]:
            print(f"  {s['name']:<24} burst {s['burst_per_s']:>10.0f}/s   "
                  f"command {s['command_per_s']:>10.0f}/s   "
                  f"overhead x{s['command_overhead_x']:.2f}")
    if "engine" in data:
        eng = data["engine"]
        for row in eng["micro"]["depths"]:
            print(f"  engine micro n={row['events']:<7} "
                  f"sched x{row['schedule_speedup']:.2f}  "
                  f"cancel x{row['cancel_speedup']:.2f}  "
                  f"pop x{row['pop_speedup']:.2f}")
        ee = eng["e2e"]
        print(f"  engine e2e: heap {ee['heap_wall_s']:.1f}s -> calendar "
              f"{ee['calendar_wall_s']:.1f}s  x{ee['speedup']:.2f}  "
              f"(identical={ee['identical_results']})")
    if "topology" in data:
        topo = data["topology"]
        fl = topo["fetch_loop"]
        print(f"  mainmem fetch loop: flat {fl['flat_per_s']:>10.0f}/s   "
              f"banked {fl['banked_per_s']:>10.0f}/s   "
              f"overhead x{fl['banked_overhead_x']:.2f}")
        for row in topo["channel_scaling"]:
            print(f"  banked ch={row['channels']}  "
                  f"mean read {row['mean_read_latency_ps']:>9.0f} ps  "
                  f"bus wait {row['mean_bus_wait_ps']:>9.0f} ps  "
                  f"({row['per_s']:.0f}/s)")
        te = topo["e2e"]
        print(f"  topology e2e per event: flat {te['flat_us_per_event']:.1f}"
              f"us -> banked {te['banked_us_per_event']:.1f}us  "
              f"x{te['banked_per_event_x']:.2f} (median of "
              f"{te['repeats']}: {te['banked_per_event_ratios']})  "
              f"({te['banked_rank_switches']} rank switches)")
    if "compiled" in data:
        comp = data["compiled"]
        il, el = comp["issue_loop"], comp["estimate_loop"]
        print(f"  soa vs object ({comp['build']}): issue "
              f"{il['object_per_s']:>9.0f}/s -> {il['soa_per_s']:>9.0f}/s  "
              f"x{il['soa_speedup']:.2f}   estimates x{el['soa_speedup']:.2f}"
              f"  (compiled {len(comp['compiled_modules'])}/"
              f"{comp['mypyc_modules']} modules)")
    if "end_to_end" in data:
        e = data["end_to_end"]
        print(f"  end-to-end: {e['points']} points in {e['wall_s']:.1f}s "
              f"({e['dram_accesses_per_s']:.0f} DRAM accesses/s)")
    if "warm_reuse" in data:
        w = data["warm_reuse"]
        print(f"  warm reuse: {w['points']} points cold {w['cold_wall_s']:.1f}s"
              f" -> warm {w['warm_wall_s']:.1f}s  x{w['speedup']:.2f}  "
              f"(identical={w['identical_results']}, "
              f"{w['warm_restored_points']} restored)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
