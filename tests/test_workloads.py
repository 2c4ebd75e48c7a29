"""Benchmark profiles, trace generation, Table I, workload scenarios."""

import random
from itertools import islice

import pytest

from repro.workloads.generator import BLOCK, make_trace
from repro.workloads.profiles import PROFILES, BenchmarkProfile, profile
from repro.workloads.scenarios import (
    SCENARIOS,
    ConflictProfile,
    PhasedProfile,
    TraceFileWorkload,
    workload_names,
    workload_profiles,
)
from repro.workloads.table1 import TABLE1_MIXES, all_mix_ids, mix_name, mix_profiles


class TestProfiles:
    def test_eleven_benchmarks(self):
        assert len(PROFILES) == 11

    def test_lookup(self):
        assert profile("mcf").name == "mcf"

    def test_unknown(self):
        with pytest.raises(KeyError):
            profile("perlbench")

    def test_validation_apki(self):
        with pytest.raises(ValueError):
            BenchmarkProfile("x", l2_apki=0, store_fraction=0.1,
                             seq_fraction=0.5, num_streams=1, footprint_mb=1)

    def test_validation_fraction(self):
        with pytest.raises(ValueError):
            BenchmarkProfile("x", l2_apki=10, store_fraction=1.5,
                             seq_fraction=0.5, num_streams=1, footprint_mb=1)

    def test_validation_streams(self):
        with pytest.raises(ValueError):
            BenchmarkProfile("x", l2_apki=10, store_fraction=0.1,
                             seq_fraction=0.5, num_streams=0, footprint_mb=1)

    def test_mean_gap(self):
        assert profile("mcf").mean_gap_instructions == pytest.approx(1000 / 45)

    def test_spread_of_intensities(self):
        """The suite spans memory intensities like the paper's selection."""
        apkis = [p.l2_apki for p in PROFILES.values()]
        assert min(apkis) <= 10 and max(apkis) >= 40

    def test_streamers_present(self):
        assert profile("libquantum").seq_fraction > 0.9
        assert profile("mcf").seq_fraction <= 0.2

    def test_write_heavy_lbm(self):
        assert profile("lbm").store_fraction >= 0.4


class TestTraceGenerator:
    def test_deterministic(self):
        t1 = make_trace(profile("soplex"), seed=5)
        t2 = make_trace(profile("soplex"), seed=5)
        assert [next(t1) for _ in range(500)] == [next(t2) for _ in range(500)]

    def test_seed_matters(self):
        t1 = make_trace(profile("soplex"), seed=5)
        t2 = make_trace(profile("soplex"), seed=6)
        assert ([next(t1) for _ in range(200)]
                != [next(t2) for _ in range(200)])

    def test_addresses_within_footprint(self):
        p = profile("gcc")
        t = make_trace(p, seed=1, footprint_scale=1 / 8)
        limit = max(1024 * 64, int(p.footprint_bytes / 8))
        for _ in range(2000):
            _, addr, _, _ = next(t)
            assert 0 <= addr < limit + 64

    def test_core_offset_applied(self):
        t = make_trace(profile("gcc"), seed=1, core_offset=1 << 44)
        for _ in range(100):
            _, addr, _, _ = next(t)
            assert addr >= 1 << 44

    def test_store_fraction_approximate(self):
        p = profile("lbm")  # 45% stores
        t = make_trace(p, seed=3)
        writes = sum(next(t)[2] for _ in range(20_000))
        assert 0.40 < writes / 20_000 < 0.50

    def test_mean_gap_approximates_apki(self):
        p = profile("milc")  # APKI 20 -> mean gap 50
        t = make_trace(p, seed=4)
        gaps = [next(t)[0] for _ in range(30_000)]
        mean = sum(gaps) / len(gaps)
        assert 0.7 * p.mean_gap_instructions < mean < 1.3 * p.mean_gap_instructions

    def test_streaming_blocks_sequential(self):
        p = profile("libquantum")  # 95% sequential
        t = make_trace(p, seed=7)
        seq_steps = 0
        prev = None
        for _ in range(2000):
            _, addr, _, _ = next(t)
            if prev is not None and addr - prev == 64:
                seq_steps += 1
            prev = addr
        assert seq_steps > 1000   # majority single-block strides

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            make_trace(profile("gcc"), footprint_scale=0)

    def test_pcs_stable_for_streams(self):
        t = make_trace(profile("libquantum"), seed=2)
        pcs = {next(t)[3] for _ in range(5000)}
        # few distinct PCs: streams + the random-access pool
        assert len(pcs) <= 2 + 8

    def test_more_streams_than_blocks_does_not_crash(self):
        """Tiny scaled footprints used to hit randrange(0): the integer
        segment width footprint_blocks // n_streams went to zero."""
        p = BenchmarkProfile("x", l2_apki=10, store_fraction=0.1,
                             seq_fraction=1.0, num_streams=2000,
                             footprint_mb=0.01)
        t = make_trace(p, seed=1)   # floor clamps footprint to 1024 blocks
        for _ in range(3000):
            _, addr, _, _ = next(t)
            assert 0 <= addr < 1024 * BLOCK

    def test_walkers_cover_tail_blocks(self):
        """Sequential walkers must reach the blocks past
        n_streams * (footprint_blocks // n_streams), which the truncating
        partition stranded (only random accesses could touch them)."""
        p = BenchmarkProfile("x", l2_apki=10, store_fraction=0.0,
                             seq_fraction=1.0, num_streams=3,
                             footprint_mb=1025 * 64 / 2**20,  # 1025 blocks
                             jump_prob=0.05)
        t = make_trace(p, seed=3)
        # 1025 // 3 = 341 -> old partition could never touch block 1024
        tail = 3 * (1025 // 3)
        seen = {next(t)[1] // BLOCK for _ in range(60_000)}
        assert any(b >= tail for b in seen), "tail blocks unreachable"
        # walkers also stay inside the footprint
        assert max(seen) < 1025

    def test_partition_covers_whole_footprint(self):
        """With pure sequential traffic every block is some walker's."""
        p = BenchmarkProfile("x", l2_apki=200, store_fraction=0.0,
                             seq_fraction=1.0, num_streams=4,
                             footprint_mb=1030 * 64 / 2**20,
                             jump_prob=0.0)
        t = make_trace(p, seed=5)
        seen = {next(t)[1] // BLOCK for _ in range(40_000)}
        assert seen == set(range(1030))


def _randrange_trace(profile, seed=0, core_offset=0, footprint_scale=1.0):
    """Reference stream: ``make_trace`` as written with ``rng.randrange``.

    ``make_trace`` inlines ``randrange``'s rejection sampling; this keeps
    the original loop so a CPython release whose ``randrange`` consumes
    the generator differently fails :class:`TestTraceStreamPin` by name
    instead of silently drifting every golden.
    """
    rng = random.Random(seed)
    footprint_blocks = max(1024, int(
        profile.footprint_bytes * footprint_scale) // BLOCK)
    mean_gap = profile.mean_gap_instructions
    n_streams = min(profile.num_streams, footprint_blocks)
    seg_start = [footprint_blocks * s // n_streams for s in range(n_streams)]
    seg_len = [footprint_blocks * (s + 1) // n_streams - seg_start[s]
               for s in range(n_streams)]
    stream_pos = [rng.randrange(seg_len[s]) for s in range(n_streams)]
    stream_pc = [0x400000 + 64 * s for s in range(n_streams)]
    random_pcs = [0x500000 + 64 * i for i in range(8)]
    while True:
        burst_len = 1 + int(rng.expovariate(1.0 / profile.mean_burst))
        head_gap = max(0, int(rng.expovariate(1.0 / (mean_gap * burst_len))))
        sequential = rng.random() < profile.seq_fraction
        if sequential:
            s = rng.randrange(n_streams)
            if rng.random() < profile.jump_prob:
                stream_pos[s] = rng.randrange(seg_len[s])
            pc = stream_pc[s]
        for k in range(burst_len):
            gap = head_gap if k == 0 else rng.randrange(1, 3)
            if sequential:
                pos = stream_pos[s]
                stream_pos[s] = (pos + 1) % seg_len[s]
                block = seg_start[s] + pos
            else:
                block = rng.randrange(footprint_blocks)
                pc = random_pcs[block & 7]
            addr = core_offset + block * BLOCK
            is_write = rng.random() < profile.store_fraction
            yield gap, addr, is_write, pc


_PINNED_PROFILES = {**{f"spec:{n}": p for n, p in PROFILES.items()},
                    **{f"adversarial_writeback:{p.name}": p
                       for p in SCENARIOS["adversarial_writeback"]}}


class TestTraceStreamPin:
    """``make_trace`` draws exactly the ``randrange``-based stream."""

    @pytest.mark.parametrize("name", sorted(_PINNED_PROFILES))
    def test_matches_randrange_reference(self, name):
        prof = _PINNED_PROFILES[name]
        for seed in (0, 7, 65):
            for scale in (1 / 64, 1.0):
                kw = {"seed": seed, "core_offset": 3 << 44,
                      "footprint_scale": scale}
                fast = list(islice(make_trace(prof, **kw), 20_000))
                ref = list(islice(_randrange_trace(prof, **kw), 20_000))
                assert fast == ref, (seed, scale)


class TestTable1:
    def test_thirty_mixes(self):
        assert all_mix_ids() == list(range(1, 31))

    def test_exact_paper_rows(self):
        assert TABLE1_MIXES[1] == ("soplex", "mcf", "gcc", "libquantum")
        assert TABLE1_MIXES[15] == ("omnetpp", "mcf", "leslie3d", "lbm")
        assert TABLE1_MIXES[30] == ("omnetpp", "bwaves", "leslie3d", "GemsFDTD")

    def test_mix_profiles_resolve(self):
        for m in all_mix_ids():
            profs = mix_profiles(m)
            assert len(profs) == 4
            assert all(p.name in PROFILES for p in profs)

    def test_mix_name(self):
        assert mix_name(1) == "soplex-mcf-gcc-libquantum"

    def test_invalid_mix(self):
        with pytest.raises(KeyError):
            mix_profiles(31)

    def test_all_names_known(self):
        for names in TABLE1_MIXES.values():
            for n in names:
                assert n in PROFILES


class TestPhasedProfile:
    def phased(self, accesses=50):
        return PhasedProfile("ph", (profile("libquantum"), profile("mcf")),
                             phase_accesses=accesses)

    def test_protocol_surface(self):
        p = self.phased()
        assert p.name == "ph"
        assert p.footprint_bytes == max(profile("libquantum").footprint_bytes,
                                        profile("mcf").footprint_bytes)
        assert 0.0 < p.store_fraction < 1.0

    def test_deterministic(self):
        t1 = self.phased().make_trace(seed=4)
        t2 = self.phased().make_trace(seed=4)
        assert [next(t1) for _ in range(400)] == [next(t2) for _ in range(400)]

    def test_phases_alternate_behaviour(self):
        """Inside a streaming phase accesses stride sequentially; inside
        the pointer-chase phase they mostly don't."""
        t = self.phased(accesses=500).make_trace(seed=1)
        def seq_share(n):
            prev, seq = None, 0
            for _ in range(n):
                _, addr, _, _ = next(t)
                if prev is not None and addr - prev == 64:
                    seq += 1
                prev = addr
            return seq / n
        stream_phase = seq_share(500)
        chase_phase = seq_share(500)
        assert stream_phase > 0.6
        assert chase_phase < 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            PhasedProfile("x", ())
        with pytest.raises(ValueError):
            PhasedProfile("x", (profile("mcf"),), phase_accesses=0)


class TestConflictProfile:
    def test_rows_rotate_per_slot(self):
        p = ConflictProfile("adv", banks_touched=4, rows_per_bank=2)
        t = p.make_trace(seed=1)
        slot_rows = {}
        for _ in range(64):
            _, addr, _, _ = next(t)
            slot = (addr % p.row_stride_bytes) // p.bank_stride_bytes
            row = addr // p.row_stride_bytes
            slot_rows.setdefault(slot, set()).add(row)
        assert set(slot_rows) == {0, 1, 2, 3}
        assert all(rows == {0, 1} for rows in slot_rows.values())

    def test_footprint_scale_does_not_bend_pattern(self):
        p = ConflictProfile("adv")
        ta = p.make_trace(seed=2)
        tb = p.make_trace(seed=2, footprint_scale=1 / 20)
        assert [next(ta)[1] for _ in range(10)] == \
            [next(tb)[1] for _ in range(10)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ConflictProfile("x", rows_per_bank=1)

    def test_prefill_covers_all_rows_unscaled(self):
        """The trace ignores capacity scaling, so the warm set must too:
        every (slot, row) block is prefilled, deterministically."""
        p = ConflictProfile("adv", banks_touched=4, rows_per_bank=2)
        blocks = p.prefill_blocks()
        assert blocks == p.prefill_blocks()   # deterministic
        assert len(blocks) == 4 * 2 * (p.bank_stride_bytes // 64)
        rows = {addr // p.row_stride_bytes for addr, _ in blocks}
        assert rows == {0, 1}
        assert any(d for _, d in blocks) and not all(d for _, d in blocks)


class TestTraceFileWorkload:
    def write_trace(self, tmp_path, lines):
        path = tmp_path / "t.trace"
        path.write_text("\n".join(lines))
        return TraceFileWorkload(str(path))

    def test_parse_and_replay_cycles(self, tmp_path):
        w = self.write_trace(tmp_path, [
            "# comment", "", "10 0x1000 r 0x400", "5 4096 w", "0 0x40 1",
        ])
        assert w.name == "t"
        assert w.store_fraction == pytest.approx(2 / 3)
        # distinct blocks touched (0x1000 and 4096 share one), not span
        assert w.footprint_bytes == 2 * 64
        t = w.make_trace()
        first = [next(t) for _ in range(3)]
        assert first == [(10, 0x1000, False, 0x400),
                         (5, 4096, True, 0x700000),
                         (0, 0x40, True, 0x700000)]
        assert [next(t) for _ in range(3)] == first   # cyclic

    def test_seed_rotates_start_and_offset_applies(self, tmp_path):
        w = self.write_trace(tmp_path, ["1 0 r", "2 64 r", "3 128 r"])
        t = w.make_trace(seed=1, core_offset=1 << 20)
        assert next(t) == (2, (1 << 20) + 64, False, 0x700000)

    def test_malformed_lines_rejected(self, tmp_path):
        for bad in (["xyz"], ["1 2"], ["1 0x10 q"], ["-1 64 r"]):
            w = self.write_trace(tmp_path, bad)
            with pytest.raises(ValueError, match="trace|malformed|negative"):
                w.make_trace()

    def test_empty_trace_rejected(self, tmp_path):
        w = self.write_trace(tmp_path, ["# only a comment"])
        with pytest.raises(ValueError, match="no accesses"):
            w.make_trace()

    def test_full_virtual_addresses_rejected(self, tmp_path):
        """Un-rebased userspace addresses would alias across the per-core
        2^44 windows (and their span would explode the prefill)."""
        w = self.write_trace(tmp_path, ["1 0x7f0000000000 r"])
        with pytest.raises(ValueError, match="rebase"):
            w.make_trace()

    def test_sparse_trace_footprint_stays_bounded(self, tmp_path):
        """footprint_bytes counts distinct blocks, not the address span:
        a sparse trace must not size a terabyte-scale prefill."""
        w = self.write_trace(tmp_path, [f"1 {i << 30} r" for i in range(8)])
        assert w.footprint_bytes == 8 * 64

    def test_prefill_blocks_exact_set_with_dirty_bits(self, tmp_path):
        """The warm-up seeds exactly the touched blocks (a contiguous
        fill from the core base would warm blocks the trace never
        visits), dirty iff the trace ever writes the block."""
        w = self.write_trace(tmp_path, [
            "1 0x40000000 r", "1 0x40000010 w", "1 128 r",
        ])
        assert w.prefill_blocks() == [(128, False), (0x40000000, True)]


class TestScenarioRegistry:
    def test_registered_scenarios_resolve(self):
        for name in workload_names():
            profs = workload_profiles(name)
            assert len(profs) == 4
            for p in profs:
                assert p.name and p.footprint_bytes > 0
                assert 0.0 <= p.store_fraction <= 1.0
                next(p.make_trace(seed=1))   # protocol: stream works

    def test_trace_prefix_resolves(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("1 0 r\n")
        (w,) = workload_profiles(f"trace:{path}")
        assert isinstance(w, TraceFileWorkload)

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown workload"):
            workload_profiles("nope")
        with pytest.raises(ValueError, match="file path"):
            workload_profiles("trace:")

    def test_scenarios_are_registered(self):
        assert {"phased_stream_chase", "adversarial_writeback",
                "adversarial_conflict", "conflict_vs_streams"} <= \
            set(SCENARIOS)


class TestTraceCursor:
    """Positioned, reconstructible trace iteration (the snapshot layer's
    trace contract: same source + args ⇒ identical stream, so a cursor
    can always be rebuilt and fast-forwarded to its position)."""

    SOURCES = [
        ("profile", lambda: profile("soplex")),
        ("phased", lambda: PhasedProfile(
            "ph", (profile("libquantum"), profile("mcf")),
            phase_accesses=64)),
        ("conflict", lambda: ConflictProfile("cf")),
    ]

    @pytest.mark.parametrize("name,make", SOURCES,
                             ids=[n for n, _ in SOURCES])
    def test_deepcopy_mid_stream_continues_identically(self, name, make):
        import copy
        from repro.workloads.cursor import TraceCursor
        cur = TraceCursor(make(), seed=7, core_offset=1 << 44,
                          footprint_scale=1 / 64)
        consumed = [next(cur) for _ in range(500)]
        clone = copy.deepcopy(cur)
        assert clone.count == cur.count == 500
        # Bit-identical continuations, then full independence.
        assert [next(clone) for _ in range(300)] == \
               [next(cur) for _ in range(300)]
        next(cur)
        assert cur.count == 801 and clone.count == 800
        # The deepcopy's rebuild-and-replay did not corrupt the already
        # consumed history: it matches a fresh cursor's first 500 ops.
        fresh = TraceCursor(make(), seed=7, core_offset=1 << 44,
                            footprint_scale=1 / 64)
        assert consumed == [next(fresh) for _ in range(500)]

    @pytest.mark.parametrize("name,make", SOURCES,
                             ids=[n for n, _ in SOURCES])
    def test_pickle_round_trip(self, name, make):
        import pickle
        from repro.workloads.cursor import TraceCursor
        cur = TraceCursor(make(), seed=3, core_offset=0,
                          footprint_scale=1 / 64)
        for _ in range(200):
            next(cur)
        clone = pickle.loads(pickle.dumps(cur))
        assert clone.count == 200
        assert [next(clone) for _ in range(100)] == \
               [next(cur) for _ in range(100)]

    def test_trace_file_cursor(self, tmp_path):
        import copy
        from repro.workloads.cursor import TraceCursor
        path = tmp_path / "t.trc"
        path.write_text("\n".join(f"{i} {i * 64} {'w' if i % 3 else 'r'}"
                                  for i in range(17)))
        cur = TraceCursor(TraceFileWorkload(str(path)), seed=5,
                          core_offset=0, footprint_scale=1.0)
        for _ in range(25):               # wraps past the file end
            next(cur)
        clone = copy.deepcopy(cur)
        # The parsed ops tuple is immutable and shared, not re-read.
        assert clone.source is cur.source
        assert [next(clone) for _ in range(40)] == \
               [next(cur) for _ in range(40)]

    def test_skip_equals_consumption(self):
        from repro.workloads.cursor import TraceCursor
        make = lambda: TraceCursor(profile("gcc"), seed=11, core_offset=0,
                                   footprint_scale=1 / 64)
        a, b = make(), make()
        for _ in range(321):
            next(a)
        b.skip(321)
        assert a.count == b.count == 321
        assert [next(a) for _ in range(50)] == [next(b) for _ in range(50)]

    def test_skip_rejects_negative(self):
        from repro.workloads.cursor import TraceCursor
        cur = TraceCursor(profile("gcc"), seed=1, core_offset=0,
                          footprint_scale=1 / 64)
        with pytest.raises(ValueError):
            cur.skip(-1)

    def test_same_seed_same_stream_all_scenario_types(self):
        """The determinism contract every snapshot restore rests on."""
        for _name, make in self.SOURCES:
            s1, s2 = make(), make()
            t1 = s1.make_trace(seed=9, core_offset=0, footprint_scale=1 / 64)
            t2 = s2.make_trace(seed=9, core_offset=0, footprint_scale=1 / 64)
            assert [next(t1) for _ in range(400)] == \
                   [next(t2) for _ in range(400)]
