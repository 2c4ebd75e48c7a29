"""Memory-topology benchmarks: flat vs banked main memory, channel scaling.

Two questions, one section:

* **What does the banked off-chip model cost?**  The flat model is a
  two-line queue update; the banked model decodes the address and runs a
  full substrate ``issue()``.  A fetch-loop micro times both on an
  identical address stream, and a small end-to-end grid measures the
  whole-stack cost of switching ``mainmem.model`` — the number that
  justifies flat staying the default.  The grid times only the timed
  simulation (every point restores one shared functional warm-up) and
  divides wall time by engine events, because flat and banked runs
  simulate different event counts; flat and banked grids alternate
  which goes first over several repeats, and the median ratio is the
  reported overhead, so neither run order nor one noisy repeat decides
  it.
* **Does the topology behave like a topology?**  A channel-scaling curve
  runs the same stream through banked memories with 1/2/4 channels and
  reports the *simulated* mean read latency: more channels must relieve
  bus/bank contention monotonically (modulo row-locality noise), which
  pins the model's queuing behaviour, not just its wall cost.

Decision times are frozen at ``now=0`` in the micro loops (no event-loop
interleaving), which is the worst-case contention shape: every access
queues behind every earlier one on its channel.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import replace

from repro.config import MainMemoryConfig
from repro.experiments.common import DESIGNS, RunSpec, SimParams, build_system
from repro.mem.mainmem import make_mainmem
from repro.sim.engine import Simulator
from repro.snapshot import WarmState

#: interleaved flat/banked repeats behind the end-to-end median
E2E_REPEATS = 3


def _sink(addr: object) -> None:
    """Module-level completion callback: no closure enters the event heap."""


def _make_addrs(n: int, seed: int) -> list[int]:
    """Block addresses over a 256 MiB footprint (past any row wrap)."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 28) & ~63 for _ in range(n)]


def _time_fetch_loop(cfg: MainMemoryConfig, addrs: list[int]
                     ) -> tuple[float, object]:
    mm = make_mainmem(Simulator(), cfg)
    fetch = mm.fetch
    t0 = time.perf_counter()
    for addr in addrs:
        fetch(addr, _sink)
    return time.perf_counter() - t0, mm


def _time_grid(specs: list[RunSpec], params: SimParams,
               warm: WarmState) -> tuple[float, int, int]:
    """``(wall s, engine events, mainmem rank switches)`` of the timed
    simulations of ``specs``, each restored from ``warm``."""
    wall = 0.0
    events = rank_switches = 0
    for spec in specs:
        system = build_system(spec, params)
        system.restore_warm_state(warm)
        t0 = time.perf_counter()
        system.begin(params.warmup_insts, params.measure_insts,
                     functional_warmup=False)
        result = system.finish()
        wall += time.perf_counter() - t0
        events += system.sim.events_run
        rank_switches += result.metrics.get(
            "mainmem_total", {}).get("rank_switches", 0)
    return wall, events, rank_switches


def run_topology_e2e() -> dict:
    """Banked over flat wall time per engine event on the quick mix-1 grid."""
    params = SimParams.quick()
    grids = {
        "flat": [RunSpec(d, "sa", mix_id=1) for d in DESIGNS],
        "banked": [RunSpec(d, "sa", mix_id=1,
                           config=(("mainmem.model", "banked"),))
                   for d in DESIGNS],
    }
    # Main memory is masked out of the warm-up, so one functional warm-up
    # serves every point of both grids.
    donor = build_system(grids["flat"][0], params)
    donor.functional_warmup(replay_accesses=params.replay_accesses)
    warm = donor.capture_warm_state()
    per_event: dict[str, list[float]] = {"flat": [], "banked": []}
    walls = {"flat": 0.0, "banked": 0.0}
    # Simulated counts are identical in every repeat.
    events = {"flat": 0, "banked": 0}
    rank_switches = {"flat": 0, "banked": 0}
    for r in range(E2E_REPEATS):
        for model in (("flat", "banked") if r % 2 == 0
                      else ("banked", "flat")):
            wall, events[model], rank_switches[model] = _time_grid(
                grids[model], params, warm)
            per_event[model].append(wall / events[model])
            walls[model] += wall
    ratios = [b / f for f, b in zip(per_event["flat"], per_event["banked"])]
    return {
        "points": len(grids["flat"]),
        "designs": list(DESIGNS),
        "params": "quick",
        "repeats": E2E_REPEATS,
        "flat_wall_s": round(walls["flat"], 3),
        "banked_wall_s": round(walls["banked"], 3),
        "flat_events": events["flat"],
        "banked_events": events["banked"],
        "flat_us_per_event": round(
            statistics.median(per_event["flat"]) * 1e6, 3),
        "banked_us_per_event": round(
            statistics.median(per_event["banked"]) * 1e6, 3),
        "banked_per_event_ratios": [round(x, 3) for x in ratios],
        "banked_per_event_x": round(statistics.median(ratios), 3),
        "banked_rank_switches": rank_switches["banked"],
    }


def run_topology_section(quick: bool = False, seed: int = 0) -> dict:
    """Benchmark the mainmem models; JSON-ready summary."""
    n = 20_000 if quick else 200_000
    addrs = _make_addrs(n, seed + 137)

    flat_s, _ = _time_fetch_loop(MainMemoryConfig(), addrs)
    banked_s, banked = _time_fetch_loop(MainMemoryConfig(model="banked"),
                                        addrs)
    fetch_loop = {
        "fetches": n,
        "flat_s": round(flat_s, 6),
        "banked_s": round(banked_s, 6),
        "flat_per_s": round(n / flat_s, 1) if flat_s else 0.0,
        "banked_per_s": round(n / banked_s, 1) if banked_s else 0.0,
        "banked_overhead_x": round(banked_s / flat_s, 3) if flat_s else 0.0,
        "banked_rank_switches": banked.total_stats().rank_switches,
    }

    scaling = []
    for channels in (1, 2, 4):
        cfg = MainMemoryConfig(model="banked")
        cfg = replace(cfg, org=replace(cfg.org, channels=channels))
        elapsed, mm = _time_fetch_loop(cfg, addrs)
        stats = mm.stats
        scaling.append({
            "channels": channels,
            "per_s": round(n / elapsed, 1) if elapsed else 0.0,
            "mean_read_latency_ps": round(stats.mean_read_latency_ps, 1),
            "mean_bus_wait_ps": round(stats.read_bus_wait_ps / n, 1),
            "rank_switches": mm.total_stats().rank_switches,
        })

    latencies = [row["mean_read_latency_ps"] for row in scaling]
    return {
        "fetch_loop": fetch_loop,
        "channel_scaling": scaling,
        "scaling_monotonic": latencies == sorted(latencies, reverse=True),
        "e2e": run_topology_e2e(),
    }
