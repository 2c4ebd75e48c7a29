"""End-to-end system runs: cores + L2 + controller + memory."""

import gc
import weakref

import pytest

from repro.config import scaled_config
from repro.sim.system import System
from repro.workloads.profiles import profile
from repro.workloads.table1 import mix_profiles

RUN = dict(warmup_insts=3_000, measure_insts=8_000, replay_accesses=20_000)


def small_system(design="CD", benchmarks=None, **kw):
    benchmarks = benchmarks or [profile("gcc"), profile("astar")]
    return System(scaled_config(8), design, benchmarks,
                  footprint_scale=1 / 64, seed=3, **kw)


class TestBasicRun:
    def test_completes_and_reports(self):
        r = small_system().run(**RUN)
        assert len(r.ipcs) == 2
        assert all(i > 0 for i in r.ipcs)
        assert r.elapsed_ps > 0
        assert r.reads_done > 0

    def test_deterministic(self):
        r1 = small_system("DCA").run(**RUN)
        r2 = small_system("DCA").run(**RUN)
        assert r1.ipcs == r2.ipcs
        assert r1.elapsed_ps == r2.elapsed_ps
        assert r1.dram_accesses == r2.dram_accesses

    def test_seed_changes_outcome(self):
        r1 = small_system().run(**RUN)
        r2 = System(scaled_config(8), "CD",
                    [profile("gcc"), profile("astar")],
                    footprint_scale=1 / 64, seed=4).run(**RUN)
        assert r1.ipcs != r2.ipcs

    def test_benchmark_names_recorded(self):
        r = small_system().run(**RUN)
        assert r.benchmarks == ["gcc", "astar"]

    def test_single_core(self):
        r = System(scaled_config(8), "CD", [profile("milc")],
                   footprint_scale=1 / 64, seed=1).run(**RUN)
        assert len(r.ipcs) == 1

    def test_four_core_mix(self):
        r = System(scaled_config(8), "DCA", mix_profiles(1),
                   footprint_scale=1 / 64, seed=1).run(**RUN)
        assert len(r.ipcs) == 4

    def test_empty_benchmarks_rejected(self):
        with pytest.raises(ValueError):
            System(scaled_config(8), "CD", [])


class TestWarmup:
    def test_functional_warmup_fills_cache(self):
        s = small_system()
        s.functional_warmup(replay_accesses=500)
        _org, _clock, sets = s.controller.array.contents_signature()
        assert len(sets) > 0

    def test_writebacks_need_l2_pressure(self):
        """A warmed L2 (full sets) is what produces dirty evictions."""
        s = System(scaled_config(8), "CD", [profile("lbm")] * 2,
                   footprint_scale=1 / 64, seed=2)
        s.functional_warmup(replay_accesses=20_000)
        filled = sum(len(v) for v in s.l2._sets.values())
        assert filled >= s.l2.num_sets  # comfortably populated

    def test_warmup_resets_counters(self):
        s = small_system()
        s.functional_warmup(replay_accesses=500)
        assert s.controller.array.lookups == 0
        assert s.l2.stats.accesses == 0

    def test_warmup_frees_finished_systems(self):
        """A finished system is cyclic garbage; the next system's warm-up
        frees it, so a sweep's peak memory is about one system's state."""
        done = small_system()
        done.run(**RUN)
        gc.disable()                   # no collection but the warm-up's
        try:
            alive = weakref.ref(done)
            del done
            assert alive() is not None     # cycles keep it until collected
            small_system().functional_warmup(replay_accesses=500)
            assert alive() is None
        finally:
            gc.enable()

    def test_skipping_warmup_lowers_hit_rate(self):
        warm = small_system().run(**RUN)
        cold = small_system().run(functional_warmup=False, **RUN)
        assert warm.dram_read_hit_rate >= cold.dram_read_hit_rate


class TestTrafficShape:
    def test_writebacks_flow(self):
        # lbm is write-heavy: dirty evictions must reach the controller.
        r = System(scaled_config(8), "CD", [profile("lbm")] * 2,
                   footprint_scale=1 / 64, seed=2).run(**RUN)
        assert r.writebacks > 0

    def test_misses_refill(self):
        r = small_system().run(**RUN)
        assert r.refills > 0 or r.dram_read_hit_rate > 0.99

    def test_substrate_stats_flow(self):
        r = small_system().run(**RUN)
        assert r.dram_accesses > 0
        assert 0.0 <= r.read_row_hit_rate <= 1.0

    def test_lee_writeback_counts(self):
        r = System(scaled_config(8), "CD", [profile("lbm")] * 2,
                   footprint_scale=1 / 64, seed=2,
                   lee_writeback=True).run(**RUN)
        assert r.lee_eager_writebacks >= 0   # mechanism wired in

    def test_model_l1_runs(self):
        r = small_system(model_l1=True).run(**RUN)
        assert all(i > 0 for i in r.ipcs)


class TestDesignsEndToEnd:
    @pytest.mark.parametrize("design", ["CD", "ROD", "DCA"])
    @pytest.mark.parametrize("orgn", ["sa", "dm"])
    def test_all_variants_run(self, design, orgn):
        r = System(scaled_config(8), design, [profile("soplex"),
                                              profile("lbm")],
                   organization=orgn, footprint_scale=1 / 64,
                   seed=5).run(**RUN)
        assert all(i > 0 for i in r.ipcs)

    def test_xor_remap_runs(self):
        r = small_system(xor_remap=True).run(**RUN)
        assert all(i > 0 for i in r.ipcs)

    def test_frfcfs_scheduler_runs(self):
        r = small_system(scheduler="frfcfs").run(**RUN)
        assert all(i > 0 for i in r.ipcs)

    def test_dca_no_inversions_outside_drain(self):
        """DCA only issues LR-before-PR during hysteresis drains."""
        s = System(scaled_config(8), "DCA", mix_profiles(4),
                   footprint_scale=1 / 64, seed=1)
        r = s.run(**RUN)
        if s.controller.stats.lr_drain_issues == 0:
            assert r.read_priority_inversions == 0
