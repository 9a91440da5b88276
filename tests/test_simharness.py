"""Scenario parsing, Monte Carlo determinism, and engine consistency tests."""

import glob
import os
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from tdcslab import simharness
from tdcslab.errors import ParameterError, ScenarioError
from tdcslab.seqcore import periodic_xcorr_fft
from tdcslab.simharness import (
    CHANNELS,
    CSV_HEADER,
    BerRecord,
    ScenarioConfig,
    build_system,
    config_digest,
    emit_results,
    load_scenario,
    parse_scenario,
    records_to_csv,
    render_report,
    run_ber_scenario,
    _FdeSim,
    _make_sim,
    _PointSim,
    _RakeSim,
    _shift_ramps,
    _SignalSim,
    scenario_to_text,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def small_cfg(**overrides):
    base = dict(
        system="mui_free_tdcs", n=16, l=8, m=8, u=2,
        ebn0_db=(4.0,), nf_db=(10.0,), max_symbols=20_000,
        chunk_symbols=4096, scenario_id="unit",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# one non-default value per ScenarioConfig field (profile admits only its
# default); a field without an entry fails collection
FIELD_VALUES = dict(
    scenario_id="grid_a", system="traditional_tdcs", n=16, l=8, m="full", u=3,
    nf_db=(0.0, 10.0, 20.5), channel="multipath", profile="cost207_ra6",
    phase_model="rayleigh", ebn0_db=(float("inf"), -3.5, 0.001), seed=0,
    min_bit_errors=7, max_symbols=1234, bandwidth_mhz=20.0,
    unavailable_mhz=((1.0, 2.5),), engine="signal", chunk_symbols=100,
    eta=0.96, mismatch_seed=0, mark_string="1101", t_g=0,
    measure_all_users=True,
)

ROUND_TRIP_CASES = [
    *(pytest.param(load_scenario(p), id=os.path.basename(p)[:-4])
      for p in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.cfg")))),
    *(pytest.param(ScenarioConfig(**{f.name: FIELD_VALUES[f.name]}), id=f.name)
      for f in fields(ScenarioConfig)),
    pytest.param(ScenarioConfig(unavailable_mhz=()), id="unavailable_mhz_empty"),
    pytest.param(ScenarioConfig(mark_string=""), id="mark_string_empty"),
    pytest.param(small_cfg(eta=0.9, mismatch_seed=5, t_g=32,
                           measure_all_users=True), id="combined"),
]

# recorded from the hand-written serializer the schema replaced
PINNED_DIGESTS = {
    "mismatch_u8_eta96": "046f708dfe95",
    "multipath_baseline_u4": "072e9aa202e4",
    "full_load_reference_u1": "93c4a9cba021",
}


class TestScenarioParsing:
    @pytest.mark.parametrize("cfg", ROUND_TRIP_CASES)
    def test_round_trip(self, cfg):
        text = scenario_to_text(cfg)
        assert parse_scenario(text) == cfg
        assert scenario_to_text(parse_scenario(text)) == text

    @pytest.mark.parametrize("stem", sorted(PINNED_DIGESTS))
    def test_config_digest_pinned(self, stem):
        cfg = load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg"))
        assert config_digest(cfg) == PINNED_DIGESTS[stem]

    @pytest.mark.parametrize("text, expected", [
        ("1", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("false", False), ("NO", False),
        ("ture", None), ("2", None), ("on", None), ("", None),
    ])
    def test_boolean_spellings(self, text, expected):
        line = f"measure_all_users = {text}"
        if expected is None:
            with pytest.raises(ScenarioError, match="measure_all_users"):
                parse_scenario(line)
        else:
            assert parse_scenario(line).measure_all_users is expected

    def test_repeated_key_rejected(self):
        with pytest.raises(ScenarioError, match="line 3"):
            parse_scenario("n = 16\nl = 8\nN = 32\n")

    def test_comments_and_blanks(self):
        cfg = parse_scenario(
            """
            # a scenario
            system = mui_free_tdcs
            n = 16
            l = 8
            m = 8       # order
            u = 2
            ebn0_db = 0, 2
            """
        )
        assert cfg.m == 8 and cfg.ebn0_db == (0.0, 2.0)

    def test_unknown_key(self):
        with pytest.raises(ScenarioError):
            parse_scenario("bogus = 1")

    def test_bad_value(self):
        with pytest.raises(ScenarioError):
            parse_scenario("n = sixteen")

    def test_bad_system(self):
        with pytest.raises(ScenarioError):
            parse_scenario("system = mc_cdma")

    def test_bands_parse(self):
        cfg = parse_scenario("unavailable_mhz = 1.0:2.0, 4.5:5.0")
        assert cfg.unavailable_mhz == ((1.0, 2.0), (4.5, 5.0))

    def test_profile_key(self):
        cfg = parse_scenario("channel = multipath\nprofile = cost207_ra6")
        assert cfg.profile == "cost207_ra6"
        with pytest.raises(ScenarioError):
            parse_scenario("profile = exponential")

    def test_load_scenario_uses_stem(self, tmp_path):
        p = tmp_path / "demo_run.cfg"
        p.write_text("n = 16\nl = 8\nm = 8\n")
        cfg = load_scenario(p)
        assert cfg.scenario_id == "demo_run"

    def test_traditional_requires_full_range(self):
        with pytest.raises(ScenarioError):
            build_system(small_cfg(system="traditional_tdcs", m=8))


class TestInputValidation:
    """Inputs outside the model fail at construction, not as a silent BER."""

    @pytest.mark.parametrize("overrides", [
        dict(ebn0_db=(float("-inf"),)),     # ran noiseless: 0 errors
        dict(ebn0_db=(4.0, float("nan"))),  # bare ValueError at run time
        dict(nf_db=(float("nan"),)),        # ran to garbage counts
        dict(ebn0_db=(4.0, 4.0004)),        # one 1 mdB key: shared draws
        dict(phase_model="ricean"),         # checked only at run time
        dict(seed=-1),                      # numpy ValueError at run time
        dict(mismatch_seed=-1, eta=0.9),    # numpy ValueError at run time
        dict(ebn0_db=()),                   # ran to no records
        dict(nf_db=()),                     # ran to no records
        dict(nf_db=(0.0, 7000.0)),          # OverflowError at run time
        dict(bandwidth_mhz=float("inf")),   # bands ignored: plausible BER
        dict(bandwidth_mhz=float("nan")),   # ran silently
        dict(bandwidth_mhz=0.0),            # ParameterError at run time
        # the id names the output files and fills the CSV's first column
        dict(scenario_id=""),               # wrote a hidden ".csv"
        dict(scenario_id="../escaped"),     # wrote outside the output dir
        dict(scenario_id="a\\b"),           # a Windows path separator
        dict(scenario_id="a,b"),            # one extra CSV column
        dict(scenario_id="a\nb"),           # a broken CSV row
    ], ids=["ebn0_minus_inf", "ebn0_nan", "nf_nan", "ebn0_key_collision",
            "phase_model", "seed_negative", "mismatch_seed_negative",
            "ebn0_empty", "nf_empty", "nf_amplitude_overflow",
            "bandwidth_inf", "bandwidth_nan", "bandwidth_zero",
            "id_empty", "id_slash", "id_backslash", "id_comma", "id_newline"])
    def test_rejected_at_construction(self, overrides):
        with pytest.raises(ScenarioError):
            small_cfg(**overrides)

    def test_distinct_keys_accepted(self):
        assert small_cfg(ebn0_db=(4.0, 4.001)).ebn0_db == (4.0, 4.001)


class TestNoiselessExactness:
    def test_single_user_all_messages_decode(self):
        cfg = small_cfg(u=1, ebn0_db=(float("inf"),), max_symbols=2048,
                        chunk_symbols=512)
        rec = run_ber_scenario(cfg)[0]
        assert rec.bit_errors == 0
        assert rec.ber == 0.0

    def test_two_users_strong_interferer(self):
        cfg = small_cfg(ebn0_db=(float("inf"),), nf_db=(20.0,),
                        max_symbols=4096, chunk_symbols=1024)
        rec = run_ber_scenario(cfg)[0]
        assert rec.bit_errors == 0

    def test_traditional_single_user_noiseless(self):
        cfg = small_cfg(system="traditional_tdcs", m="full", u=1,
                        ebn0_db=(float("inf"),), max_symbols=512,
                        chunk_symbols=256)
        rec = run_ber_scenario(cfg)[0]
        assert rec.bit_errors == 0


class TestDeterminism:
    def test_same_config_same_records(self):
        a = run_ber_scenario(small_cfg())
        b = run_ber_scenario(small_cfg())
        assert a == b

    def test_seed_changes_body(self):
        a = run_ber_scenario(small_cfg())
        b = run_ber_scenario(small_cfg(seed=43))
        assert a != b

    def test_worker_count_invariance(self):
        cfg = small_cfg(max_symbols=30_000, chunk_symbols=2048)
        recs1 = run_ber_scenario(cfg, threads=1)
        recs3 = run_ber_scenario(cfg, threads=3)
        assert records_to_csv(cfg, recs1) == records_to_csv(cfg, recs3)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_non_positive_threads_rejected(self, threads):
        with pytest.raises(ParameterError, match="threads"):
            run_ber_scenario(small_cfg(), threads=threads)

    def test_interferers_do_not_touch_victim_stream(self):
        # exact-zero cross-correlation + keyed substreams: victim counts are
        # identical whatever the load or near-far factor
        r1 = run_ber_scenario(small_cfg(u=1, nf_db=(0.0,)))[0]
        r3 = run_ber_scenario(small_cfg(u=3, nf_db=(16.0,)))[0]
        assert (r1.bit_errors, r1.bits_sent) == (r3.bit_errors, r3.bits_sent)

    def test_multipath_victim_stream_alignment(self):
        kw = dict(channel="multipath", t_g=32, ebn0_db=(6.0,),
                  max_symbols=10_000)
        r1 = run_ber_scenario(small_cfg(u=1, **kw))[0]
        r2 = run_ber_scenario(small_cfg(u=2, **kw))[0]
        assert (r1.bit_errors, r1.bits_sent) == (r2.bit_errors, r2.bits_sent)


class TestStoppingRule:
    def test_min_errors_reached_flag(self):
        cfg = small_cfg(ebn0_db=(0.0,), min_bit_errors=50, max_symbols=50_000)
        rec = run_ber_scenario(cfg)[0]
        assert rec.reached_min_errors
        assert rec.bit_errors >= 50

    def test_max_symbols_cap_flag(self):
        cfg = small_cfg(ebn0_db=(float("inf"),), max_symbols=1024,
                        chunk_symbols=256)
        rec = run_ber_scenario(cfg)[0]
        assert not rec.reached_min_errors
        assert rec.bits_sent == 1024 * 3  # M=8 -> 3 bits per symbol

    def test_ci_halfwidth_floor(self):
        rec = BerRecord(ebn0_db=0.0, nf_db=0.0, bits_sent=1000, bit_errors=0,
                        reached_min_errors=False)
        assert rec.ci_halfwidth == pytest.approx(1.96 / 1000)
        rec2 = BerRecord(ebn0_db=0.0, nf_db=0.0, bits_sent=10_000,
                         bit_errors=100, reached_min_errors=True)
        p = 0.01
        assert rec2.ci_halfwidth == pytest.approx(
            1.96 * np.sqrt(p * (1 - p) / 10_000)
        )


class TestStatisticalSanity:
    def test_ber_monotone_in_ebn0(self):
        cfg = small_cfg(u=1, ebn0_db=(0.0, 3.0, 6.0), max_symbols=30_000)
        recs = run_ber_scenario(cfg)
        for lo, hi in zip(recs, recs[1:]):
            assert hi.ber <= lo.ber + lo.ci_halfwidth

    def test_victim_symmetry(self):
        cfg = small_cfg(nf_db=(0.0,), ebn0_db=(3.0,), measure_all_users=True,
                        max_symbols=30_000)
        rec = run_ber_scenario(cfg)[0]
        assert len(rec.per_user) == 2
        bers = [e / b for (_, b, e) in rec.per_user]
        hw = rec.ci_halfwidth
        assert abs(bers[0] - bers[1]) <= 2 * hw

    def test_traditional_floor_above_windowed_design(self):
        trad = small_cfg(system="traditional_tdcs", m="full", u=3,
                         ebn0_db=(8.0,), nf_db=(10.0,), max_symbols=20_000)
        mui = small_cfg(u=3, ebn0_db=(8.0,), nf_db=(10.0,), max_symbols=20_000)
        r_trad = run_ber_scenario(trad)[0]
        r_mui = run_ber_scenario(mui)[0]
        assert r_trad.ber > r_mui.ber

    def test_traditional_heavy_load_error_floor(self):
        # eight strong interferers keep the full-range baseline far above
        # 1e-4 at every grid point (production size, shallow depth)
        cfg = ScenarioConfig(system="traditional_tdcs", n=64, l=16, m="full",
                             u=8, nf_db=(10.0,), ebn0_db=(4.0, 8.0),
                             max_symbols=2048, chunk_symbols=1024,
                             scenario_id="floor")
        recs = run_ber_scenario(cfg)
        assert all(r.ber > 1e-4 for r in recs)
        assert min(r.ber for r in recs) > 1e-2  # a floor, not a waterfall


def sent(chips, tau, p):
    """User block sent at shift ``tau`` (as ``waveform.modulate`` does),
    circularly delayed by ``p`` lags."""
    return np.roll(np.roll(chips, -tau), p)


class TestShiftIndexedRows:
    """Every kernel's per-user table is indexed by the transmitted shift:
    tap ``p`` of a block sent at shift ``tau`` reads row ``tau - p``."""

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_rake_row_is_the_window_profile_of_the_sent_block(self, channel):
        cfg = small_cfg(channel=channel)
        sim = _make_sim(cfg, build_system(cfg), 0, 4.0)
        assert isinstance(sim, _RakeSim)
        ln = sim.ln
        lags = sim.window.start - sim.t + np.arange(sim.t + sim.m)
        for j, chips in enumerate(sim.system.chips):
            # a view over one extended profile, not an (L*N, window) copy
            assert not sim.rows[j].flags.owndata
            profile = periodic_xcorr_fft(chips, sim.ref)
            for tau in range(ln):
                for p in range(sim.t + 1):
                    row = sim.rows[j][(tau - p) % ln]
                    assert row.tobytes() == profile[(lags - tau + p) % ln].tobytes()
                    literal = periodic_xcorr_fft(sent(chips, tau, p), sim.ref)
                    np.testing.assert_allclose(row, literal[lags % ln], atol=1e-9)

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_signal_row_is_the_sent_block(self, channel):
        cfg = small_cfg(channel=channel, engine="signal")
        sim = _make_sim(cfg, build_system(cfg), 0, 4.0)
        assert isinstance(sim, _SignalSim)
        for j, chips in enumerate(sim.system.chips):
            for tau in range(sim.ln):
                for p in range(sim.t + 1):
                    assert (sim.rows[j][(tau - p) % sim.ln].tobytes()
                            == sent(chips, tau, p).tobytes())

    def test_fde_ramp_is_the_spectrum_of_the_shift(self):
        cfg = small_cfg(system="traditional_tdcs", m="full", channel="multipath")
        sim = _make_sim(cfg, build_system(cfg), 0, 4.0)
        assert isinstance(sim, _FdeSim)
        for j, chips in enumerate(sim.system.chips):
            for tau in range(sim.ln):
                np.testing.assert_allclose(sim.bf[j] * sim.ramps[tau],
                                           np.fft.fft(sent(chips, tau, 0)),
                                           atol=1e-9)


class TestEngines:
    def test_noiseless_decisions_identical(self):
        # the traditional system makes interference-driven errors, so equal
        # counts here exercise real decisions, not just perfect decoding
        base = dict(system="traditional_tdcs", m="full", u=3, n=16, l=8,
                    ebn0_db=(float("inf"),), nf_db=(10.0,),
                    max_symbols=4096, chunk_symbols=1024,
                    min_bit_errors=10 ** 9, scenario_id="eng")
        corr = run_ber_scenario(ScenarioConfig(**base))[0]
        sig = run_ber_scenario(ScenarioConfig(**base, engine="signal"))[0]
        assert corr.bit_errors == sig.bit_errors > 0

    def test_noisy_engines_statistically_agree(self):
        base = dict(n=16, l=8, m=8, u=2, ebn0_db=(3.0,), nf_db=(6.0,),
                    max_symbols=40_000, chunk_symbols=8192,
                    min_bit_errors=10 ** 9, scenario_id="eng2")
        corr = run_ber_scenario(ScenarioConfig(**base))[0]
        sig = run_ber_scenario(ScenarioConfig(**base, engine="signal"))[0]
        # deterministic seeded outcome; both estimate the same BER
        assert corr.bit_errors > 300 and sig.bit_errors > 300
        assert abs(corr.ber - sig.ber) / corr.ber < 0.2

    def test_fde_engines_agree_noiseless(self):
        # traditional multipath: the correlation engine's one-tap MMSE path
        # against the literal pipeline, for every receiver
        base = dict(system="traditional_tdcs", m="full", u=3, n=16, l=8,
                    channel="multipath", ebn0_db=(float("inf"),),
                    nf_db=(10.0,), max_symbols=4096, chunk_symbols=1024,
                    min_bit_errors=10 ** 9, measure_all_users=True,
                    scenario_id="eng4")
        corr = run_ber_scenario(ScenarioConfig(**base))[0]
        sig = run_ber_scenario(ScenarioConfig(**base, engine="signal"))[0]
        assert corr.per_user == sig.per_user
        assert corr.bit_errors == sig.bit_errors > 0

    def test_noisy_fde_engines_statistically_agree(self):
        base = dict(system="traditional_tdcs", m="full", u=3, n=16, l=8,
                    channel="multipath", ebn0_db=(6.0,), nf_db=(0.0,),
                    max_symbols=4096, chunk_symbols=4096,
                    min_bit_errors=10 ** 9, scenario_id="eng5")
        corr = run_ber_scenario(ScenarioConfig(**base))[0]
        sig = run_ber_scenario(ScenarioConfig(**base, engine="signal"))[0]
        # same message and tap draws, independent noise realizations
        assert corr.bit_errors > 1000 and sig.bit_errors > 1000
        assert abs(corr.ber - sig.ber) / corr.ber < 0.2

    def test_rake_engines_agree_noiseless(self):
        base = dict(n=16, l=8, m=8, u=2, channel="multipath", t_g=32,
                    ebn0_db=(float("inf"),), nf_db=(20.0,),
                    max_symbols=2048, chunk_symbols=512, scenario_id="eng3")
        corr = run_ber_scenario(ScenarioConfig(**base))[0]
        sig = run_ber_scenario(ScenarioConfig(**base, engine="signal"))[0]
        assert corr.bit_errors == sig.bit_errors == 0

    # M = L*N = 1024: a 256-row tile makes 4 MiB complex arrays; the FDE
    # chunk also holds its shift-ramp table, up to 1024 rows of 16 KiB
    @pytest.mark.parametrize("stem, overrides, ebn0_db, size, bound_mib", [
        pytest.param("full_load_reference_u1", {}, 3.5, 8192, 8,
                     id="full_circle_u1"),
        pytest.param("single_path_baseline_u4", {}, 8.0, 8192, 8,
                     id="traditional_u4"),
        pytest.param("multipath_baseline_u4", {}, 12.0, 4096, 28,
                     id="fde_u4"),
        pytest.param("multipath_baseline_u4", dict(engine="signal"), 12.0,
                     4096, 16, id="signal_fde_u4"),
    ])
    def test_chunk_memory_is_bounded_by_the_tile_budget(
            self, stem, overrides, ebn0_db, size, bound_mib):
        cfg = replace(load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg")),
                      **overrides)
        sim = _make_sim(cfg, build_system(cfg), 0, ebn0_db)
        tracemalloc.start()
        try:
            sim.chunk(size, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20

    def test_run_frees_each_simulator_before_the_next(self):
        # the FDE reads a 16 MiB shift-ramp table at L*N = 1024, built once
        # per system; a second table held by a live simulator peaked at 41 MiB
        cfg = replace(load_scenario(os.path.join(
            SCENARIO_DIR, "multipath_baseline_u4.cfg")),
            ebn0_db=(0.0, 6.0, 12.0), max_symbols=512, chunk_symbols=512)
        tracemalloc.start()
        try:
            run_ber_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_fde_simulators_of_one_system_share_the_ramp_table(self):
        cfg = small_cfg(system="traditional_tdcs", m="full", channel="multipath",
                        ebn0_db=(0.0, 6.0), measure_all_users=True)
        system = build_system(cfg)
        first = _make_sim(cfg, system, 0, 0.0)
        other = _make_sim(cfg, system, 1, 6.0)
        assert isinstance(first, _FdeSim)
        assert first.ramps is other.ramps is system.fde_ramps
        ln = system.block_len
        assert first.ramps.tobytes() == _shift_ramps(np.arange(ln), ln).tobytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="RUSAGE_THREAD is Linux-only")
    def test_warm_chunk_does_not_refault_its_tiles(self):
        # each 512 KiB row gather is released before the next is made, so
        # the heap is not trimmed once per tile and the next tile's arrays
        # reuse pages already mapped (57.7k minor faults when two gathers
        # were alive at once)
        import resource

        cfg = load_scenario(os.path.join(SCENARIO_DIR, "single_path_baseline_u4.cfg"))
        sim = _make_sim(cfg, build_system(cfg), 0, 8.0)
        assert sim.sum_width == 1024
        sim.chunk(8192, 0)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        sim.chunk(8192, 1)
        assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 5000

    def test_in_place_shift_ramps_equal_the_closed_form(self):
        ln = 1024
        shifts = np.arange(ln)
        expected = np.exp(2j * np.pi * np.outer(shifts, np.arange(ln)) / ln)
        assert _shift_ramps(shifts, ln).tobytes() == expected.tobytes()


class TestScheduler:
    """Need-first scheduling of the point groups' chunks."""

    @staticmethod
    def record_chunks(monkeypatch):
        """Record ``(Eb/N0 key, victim, chunk index)`` of every chunk run."""
        calls = []
        chunk = _PointSim.chunk

        def recorded(sim, size, chunk_idx, points=None):
            calls.append((sim.key, sim.victim, chunk_idx))
            return chunk(sim, size, chunk_idx, points)

        monkeypatch.setattr(_PointSim, "chunk", recorded)
        return calls

    @staticmethod
    def used_chunks(cfg, records):
        """Chunks each group's records include: those of its longest point."""
        kbits = build_system(cfg).m_order.bit_length() - 1
        per_group = {}
        for rec in records:
            for user, bits, _ in rec.per_user:
                chunks = -(-bits // (kbits * cfg.chunk_symbols))
                key = (rec.ebn0_db, user)
                per_group[key] = max(per_group.get(key, 0), chunks)
        return per_group

    def test_two_workers_compute_only_the_chunks_the_records_use(self, monkeypatch):
        # five Eb/N0 groups of at most two 8192-symbol chunks; waves of two
        # chunks per group computed 10 chunks here and used 7
        cfg = replace(load_scenario(os.path.join(SCENARIO_DIR, "mismatch_u8_eta96.cfg")),
                      max_symbols=16384)
        calls = self.record_chunks(monkeypatch)
        records = run_ber_scenario(cfg, threads=2)
        assert len(calls) == sum(self.used_chunks(cfg, records).values()) == 7

    def test_one_worker_runs_the_serial_order_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("threads=1 made a pool")

        monkeypatch.setattr(simharness, "ThreadPoolExecutor", no_pool)
        cfg = small_cfg(ebn0_db=(0.0, 4.0), nf_db=(0.0, 10.0), measure_all_users=True,
                        chunk_symbols=512, max_symbols=3000, min_bit_errors=200)
        calls = self.record_chunks(monkeypatch)
        records = run_ber_scenario(cfg, threads=1)
        used = self.used_chunks(cfg, records)
        serial = [(simharness._ebn0_key(ebn0_db), victim, idx)
                  for ebn0_db in cfg.ebn0_db for victim in range(cfg.u)
                  for idx in range(used[ebn0_db, victim + 1])]
        assert calls == serial
        assert len(set(used.values())) > 1   # groups stop after different chunks

    def test_scheduler_sleeps_while_a_finished_chunk_waits(self, monkeypatch):
        # chunk 1 finishes while chunk 0 still runs; the scheduler must block
        # until chunk 0 is done, not poll the finished future
        chunk = _PointSim.chunk

        def slow_first(sim, size, chunk_idx, points=None):
            if chunk_idx == 0:
                time.sleep(0.5)
            return chunk(sim, size, chunk_idx, points)

        monkeypatch.setattr(_PointSim, "chunk", slow_first)
        cfg = small_cfg(chunk_symbols=512, max_symbols=1024, min_bit_errors=10 ** 9)
        start = time.thread_time()
        run_ber_scenario(cfg, threads=2)
        assert time.thread_time() - start < 0.25

    def test_worker_error_surfaces_and_shuts_the_pool_down(self, monkeypatch):
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        chunk = _PointSim.chunk

        def failing(sim, size, chunk_idx, points=None):
            if chunk_idx == 1:
                raise RuntimeError("chunk failed")
            return chunk(sim, size, chunk_idx, points)

        monkeypatch.setattr(simharness, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(_PointSim, "chunk", failing)
        cfg = small_cfg(ebn0_db=(0.0, 4.0), max_symbols=12_000,
                        min_bit_errors=10 ** 9)
        with pytest.raises(RuntimeError, match="chunk failed"):
            run_ber_scenario(cfg, threads=2)
        assert len(pools) == 1
        with pytest.raises(RuntimeError, match="shutdown"):
            pools[0].submit(int)


class TestMismatch:
    def test_eta_one_is_perfect_sensing(self):
        perfect = run_ber_scenario(small_cfg())
        unity = run_ber_scenario(small_cfg(eta=1.0))
        assert perfect == unity

    def test_mismatch_degrades(self):
        perfect = run_ber_scenario(small_cfg(u=1, ebn0_db=(6.0,),
                                             max_symbols=60_000))[0]
        mism = run_ber_scenario(
            small_cfg(u=1, ebn0_db=(6.0,), eta=0.8, mismatch_seed=3,
                      max_symbols=60_000))[0]
        assert mism.ber > perfect.ber


class TestEmission:
    def test_header_only_for_empty(self, tmp_path):
        cfg = small_cfg()
        csv_path, report_path = emit_results([], cfg, tmp_path)
        body = open(csv_path).read()
        assert body.splitlines() == [
            "scenario_id,system,U,NF_db,ebn0_db,bits,errors,ber,ci_halfwidth"
        ]

    def test_single_record_round_trip(self, tmp_path):
        cfg = small_cfg(max_symbols=4096)
        recs = run_ber_scenario(cfg)
        csv_path, report_path = emit_results(recs, cfg, tmp_path)
        lines = open(csv_path).read().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "unit"
        assert int(fields[5]) == recs[0].bits_sent
        assert float(fields[7]) == recs[0].ber
        report = open(report_path).read()
        assert config_digest(cfg) in report
        assert "stopping rule" in report

    def test_zero_error_point_reports_clopper_pearson_bound(self):
        cfg = small_cfg()
        recs = [BerRecord(ebn0_db=8.0, nf_db=10.0, bits_sent=1000,
                          bit_errors=0, reached_min_errors=False),
                BerRecord(ebn0_db=4.0, nf_db=10.0, bits_sent=1000,
                          bit_errors=1, reached_min_errors=False)]
        zero, one = render_report(cfg, recs).splitlines()[-2:]
        # 1 - 0.025 ** (1 / 1000) = 3.682e-3
        assert zero.endswith("[hit max_symbols]  [ber <= 3.68e-03, 95% C-P]")
        assert "C-P" not in one
        # the bound is in the report only; the CSV body is unchanged
        assert records_to_csv(cfg, recs) == CSV_HEADER + "\n" + (
            "unit,mui_free_tdcs,2,10.0,8.0,1000,0,0.0,0.00196\n"
            "unit,mui_free_tdcs,2,10.0,4.0,1000,1,0.001,0.00196\n"
        )

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_cfg(max_symbols=8192)
        a = records_to_csv(cfg, run_ber_scenario(cfg, threads=1))
        b = records_to_csv(cfg, run_ber_scenario(cfg, threads=2))
        assert a == b


class TestFullLoadResolution:
    def test_full_m_multiuser(self):
        cfg = small_cfg(m="full", u=2)
        system = build_system(cfg)
        assert system.m_order == 32  # m_max(8, 16, 2) = 2^floor(log2(48))
        cfg1 = small_cfg(m="full", u=1)
        assert build_system(cfg1).m_order == 128  # single user keys the circle

    def test_nf_sweep_grid(self):
        cfg = small_cfg(nf_db=(0.0, 8.0), ebn0_db=(2.0, 4.0), max_symbols=4096)
        recs = run_ber_scenario(cfg)
        assert [(r.nf_db, r.ebn0_db) for r in recs] == [
            (0.0, 2.0), (0.0, 4.0), (8.0, 2.0), (8.0, 4.0)
        ]


def test_complex_by_real_division_is_reciprocal_scaling():
    # complex_gaussian (1/sqrt(2)) and xcorr_from_spectrum (1/N) scale the
    # float view by 1/c instead of dividing the complex array by c; records
    # stay byte-identical only while numpy's complex-by-real division
    # computes exactly that
    rng = np.random.default_rng(3)
    z = rng.standard_normal((64, 2)) @ np.array([1.0, 1j]) * 10.0 ** rng.uniform(-8, 8, 64)
    for c in (np.sqrt(2.0), 1000, 1024, 3.7):
        expected = z / c
        got = z.copy()
        parts = got.view(np.float64)
        parts *= 1.0 / c
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))
