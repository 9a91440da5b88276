"""Scenario parsing, Monte Carlo determinism, and engine consistency tests."""

import glob
import hashlib
import os
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcslab import simharness
from tdcslab.channel import PHASE_MODELS
from tdcslab.errors import ParameterError, ScenarioError
from tdcslab.seqcore import periodic_xcorr_fft
from tdcslab.spectrum import mark_from_bands
from tdcslab.simharness import (
    _BITS,
    CHANNELS,
    CSV_HEADER,
    DEFAULT_UNAVAILABLE_MHZ,
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
    _ebn0_key,
    _FdeSim,
    _make_sim,
    _PointSim,
    _RakeSim,
    _shift_ramps,
    _SignalSim,
    _stream_rng,
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


# one non-default value per ScenarioConfig field; a field without an entry
# fails collection
FIELD_VALUES = dict(
    scenario_id="grid_a", system="traditional_tdcs", n=16, l=8, m="full", u=3,
    nf_db=(0.0, 10.0, 20.5), channel="multipath", phase_model="rayleigh",
    ebn0_db=(float("inf"), -3.5, 0.001), seed=0,
    min_bit_errors=7, max_symbols=1234, bandwidth_mhz=20.0,
    unavailable_mhz=((1.0, 2.5),), engine="signal", chunk_symbols=100,
    eta=0.96, mismatch_seed=0,
)

# a field that acts only with another one is set with it
COMPANION_VALUES = dict(mismatch_seed=dict(eta=FIELD_VALUES["eta"]))

ROUND_TRIP_CASES = [
    *(pytest.param(load_scenario(p), id=os.path.basename(p)[:-4])
      for p in sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.cfg")))),
    *(pytest.param(ScenarioConfig(**{f.name: FIELD_VALUES[f.name],
                                     **COMPANION_VALUES.get(f.name, {})}),
                   id=f.name)
      for f in fields(ScenarioConfig)),
    pytest.param(ScenarioConfig(unavailable_mhz=()), id="unavailable_mhz_empty"),
    pytest.param(small_cfg(eta=0.9, mismatch_seed=5, channel="multipath"),
                 id="combined"),
]

# the digests of the hand-written serializer the schema replaced, less its
# "profile = cost207_ra6" line (the key is gone)
PINNED_DIGESTS = {
    "mismatch_u8_eta96": "138de7e07085",
    "multipath_baseline_u4": "64d442f63aa8",
    "full_load_reference_u1": "0f95346ddebd",
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

    # keys that could not change a record: the engine measures user 1 only,
    # knows one multipath profile and always models a full cyclic prefix
    @pytest.mark.parametrize("line", [
        "measure_all_users = true", "profile = cost207_ra6", "t_g = 32"])
    def test_removed_key_rejected(self, line):
        key = line.split()[0]
        with pytest.raises(ScenarioError, match=f"line 2: unknown key '{key}'"):
            parse_scenario(f"channel = multipath\n{line}\n")

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
        # ignored by build_system, yet changed config_digest
        dict(mismatch_seed=5),
        dict(mismatch_seed=5, eta=1.0),
        dict(channel="multipath", phase_model="rayleigh"),   # Rayleigh taps
        dict(channel="multipath", phase_model="fixed-phase"),
        dict(ebn0_db=()),                   # ran to no records
        dict(nf_db=()),                     # ran to no records
        dict(nf_db=(0.0, 7000.0)),          # OverflowError at run time
        dict(nf_db=(10.0, 10.0)),           # two identical CSV rows
        dict(bandwidth_mhz=float("inf")),   # bands ignored: plausible BER
        dict(bandwidth_mhz=float("nan")),   # ran silently
        dict(bandwidth_mhz=0.0),            # ParameterError at run time
        # ParameterError at run time, without the "invalid scenario" prefix
        dict(unavailable_mhz=((9.0, 11.0),)),
        dict(unavailable_mhz=((-1.0, 2.0),)),
        dict(unavailable_mhz=((3.0, 3.0),)),
        dict(bandwidth_mhz=5.0),            # the default bands reach 7.5
        # the id names the output files and fills the CSV's first column
        dict(scenario_id=""),               # wrote a hidden ".csv"
        dict(scenario_id="../escaped"),     # wrote outside the output dir
        dict(scenario_id="a\\b"),           # a Windows path separator
        dict(scenario_id="a,b"),            # one extra CSV column
        dict(scenario_id="a\nb"),           # a broken CSV row
        dict(scenario_id='"q'),             # swallowed a row break in report
        dict(ebn0_db=(1e308,)),             # OverflowError keying the value
        dict(ebn0_db=(4.0, -1e308)),        # OverflowError keying the value
    ], ids=["ebn0_minus_inf", "ebn0_nan", "nf_nan", "ebn0_key_collision",
            "phase_model", "seed_negative", "mismatch_seed_negative",
            "mismatch_seed_without_eta", "mismatch_seed_eta_one",
            "multipath_rayleigh", "multipath_fixed_phase",
            "ebn0_empty", "nf_empty", "nf_amplitude_overflow", "nf_duplicate",
            "bandwidth_inf", "bandwidth_nan", "bandwidth_zero",
            "band_above", "band_below", "band_empty", "bandwidth_below_bands",
            "id_empty", "id_slash", "id_backslash", "id_comma", "id_newline",
            "id_quote", "ebn0_huge", "ebn0_minus_huge"])
    def test_rejected_at_construction(self, overrides):
        with pytest.raises(ScenarioError):
            small_cfg(**overrides)

    def test_distinct_keys_accepted(self):
        assert small_cfg(ebn0_db=(4.0, 4.001)).ebn0_db == (4.0, 4.001)

    def test_default_values_beside_their_overriding_key_accepted(self):
        assert small_cfg(channel="multipath", phase_model="uniform-phase")


def marked(bands, n_bins):
    """The bits of the default bandwidth's mark, None if no bin is left."""
    try:
        return mark_from_bands(10.0, bands, n_bins).bits.tolist()
    except ParameterError:
        return None


class TestCanonicalForms:
    """One run, one config and one digest: aliases are stored canonically."""

    @pytest.mark.parametrize("alias", [
        dict(eta=1.0),
        dict(unavailable_mhz=DEFAULT_UNAVAILABLE_MHZ[::-1]),
        dict(unavailable_mhz=DEFAULT_UNAVAILABLE_MHZ + DEFAULT_UNAVAILABLE_MHZ[:1]),
        dict(unavailable_mhz=((2.5, 3.0), (6.25, 7.5), (3.0, 3.75))),
    ], ids=["eta_one", "bands_swapped", "band_repeated", "band_split"])
    def test_alias_of_the_default_scenario(self, alias):
        # each of these had a digest of its own for the default's records
        assert ScenarioConfig(**alias) == ScenarioConfig()
        assert config_digest(ScenarioConfig(**alias)) == "9b486b0c54a9"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_alias_rewrite_keeps_the_digest(self, data):
        edge = st.integers(0, 40).map(lambda k: k / 4)  # shared and touching edges
        bands = data.draw(st.lists(st.tuples(edge, edge).filter(lambda b: b[0] < b[1]),
                                   max_size=4))
        eta = data.draw(st.sampled_from([None, 1.0, 0.5]))
        rewrite = data.draw(st.sampled_from(["order", "repeat", "split", "eta"]))
        alias_bands, alias_eta = list(bands), eta
        if rewrite == "order":
            alias_bands = data.draw(st.permutations(bands))
        elif rewrite == "repeat" and bands:
            alias_bands.insert(data.draw(st.integers(0, len(bands))),
                               data.draw(st.sampled_from(bands)))
        elif rewrite == "split" and bands:
            k = data.draw(st.integers(0, len(bands) - 1))
            lo, hi = bands[k]
            alias_bands[k:k + 1] = [(lo, (lo + hi) / 2), ((lo + hi) / 2, hi)]
        elif rewrite == "eta" and eta != 0.5:
            alias_eta = None if eta == 1.0 else 1.0
        cfg = ScenarioConfig(unavailable_mhz=bands, eta=eta)
        alias = ScenarioConfig(unavailable_mhz=alias_bands, eta=alias_eta)
        assert config_digest(alias) == config_digest(cfg)
        # the stored union marks the bins that the bands as given mark
        for n_bins in (16, 64, 1024):
            assert marked(cfg.unavailable_mhz, n_bins) == marked(bands, n_bins)


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
        kw = dict(channel="multipath", ebn0_db=(6.0,),
                  max_symbols=10_000)
        r1 = run_ber_scenario(small_cfg(u=1, **kw))[0]
        r2 = run_ber_scenario(small_cfg(u=2, **kw))[0]
        assert (r1.bit_errors, r1.bits_sent) == (r2.bit_errors, r2.bits_sent)


class TestSlabDraws:
    """A chunk draws its messages, links and shifts slab by slab from
    generators made once per chunk; numpy's draws split at any boundary
    equal the whole draw, so the records cannot depend on the slab height."""

    SIZE = 300

    @staticmethod
    def joined(sim, slab):
        """Per kind (messages, links, shifts), each user's draws of chunk 3
        in slabs of ``slab`` blocks, joined, as bytes."""
        slabs = list(sim._draws(_ebn0_key(4.0), TestSlabDraws.SIZE, 3, slab))
        assert len(slabs) == -(-TestSlabDraws.SIZE // slab)
        return [[np.concatenate([draws[kind][j] for draws in slabs]).tobytes()
                 for j in range(sim.cfg.u)] for kind in range(3)]

    # windows of M = 64 and 128 and the full circle M = L*N = 1024, every
    # phase model's gains and both systems' multipath taps
    @pytest.mark.parametrize("overrides", [
        *(dict(phase_model=model) for model in PHASE_MODELS),
        dict(m=128, u=2),
        dict(system="traditional_tdcs", m="full"),
        dict(channel="multipath"),
        dict(channel="multipath", system="traditional_tdcs", m="full"),
    ], ids=[*PHASE_MODELS, "m128", "m1024", "rake_taps", "fde_taps"])
    def test_slabs_equal_the_whole_chunk_draw(self, overrides):
        cfg = ScenarioConfig(**{**dict(n=64, l=16, m=64, u=3, ebn0_db=(4.0,)),
                                **overrides})
        sim = _make_sim(cfg, build_system(cfg))
        whole = self.joined(sim, self.SIZE)
        assert self.joined(sim, 1) == whole
        assert self.joined(sim, 37) == whole
        msgs = [_stream_rng(cfg.seed, _BITS, _ebn0_key(4.0), 3, user=j).integers(
            0, sim.m, size=self.SIZE).tobytes() for j in range(cfg.u)]
        assert whole[0] == msgs


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

    @pytest.mark.parametrize("bits, errors", [(0, 0), (10, -1), (10, 11)])
    def test_record_counts_checked(self, bits, errors):
        # errors > bits took the square root of a negative in ci_halfwidth
        with pytest.raises(ParameterError, match="bits >= 1 and 0 <= errors <= bits"):
            BerRecord(0.0, 0.0, bits, errors, False)

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


def traced_peak(fn, *args):
    """``(result, peak bytes traced by tracemalloc)`` of ``fn(*args)``."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        sim = _make_sim(cfg, build_system(cfg))
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
        sim = _make_sim(cfg, build_system(cfg))
        assert isinstance(sim, _SignalSim)
        for j, chips in enumerate(sim.system.chips):
            for tau in range(sim.ln):
                for p in range(sim.t + 1):
                    assert (sim.rows[j][(tau - p) % sim.ln].tobytes()
                            == sent(chips, tau, p).tobytes())

    def test_fde_ramp_is_the_spectrum_of_the_shift(self):
        # L*N = 128 is no perfect square (b = 12, 11 high rows); 64 is
        for n, l in [(16, 8), (16, 4)]:
            cfg = small_cfg(system="traditional_tdcs", m="full",
                            channel="multipath", n=n, l=l)
            sim = _make_sim(cfg, build_system(cfg))
            assert isinstance(sim, _FdeSim)
            for j, chips in enumerate(sim.system.chips):
                for tau in range(sim.ln):
                    hi, lo = divmod(tau, sim.b)
                    np.testing.assert_allclose(
                        sim.spectra[j][lo] * sim.hi_ramps[hi],
                        np.fft.fft(sent(chips, tau, 0)), atol=1e-9)


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
        # against the literal pipeline
        base = dict(system="traditional_tdcs", m="full", u=3, n=16, l=8,
                    channel="multipath", ebn0_db=(float("inf"),),
                    nf_db=(10.0,), max_symbols=4096, chunk_symbols=1024,
                    min_bit_errors=10 ** 9, scenario_id="eng4")
        corr = run_ber_scenario(ScenarioConfig(**base))[0]
        sig = run_ber_scenario(ScenarioConfig(**base, engine="signal"))[0]
        assert corr == sig
        assert corr.bit_errors > 0

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
        base = dict(n=16, l=8, m=8, u=2, channel="multipath",
                    ebn0_db=(float("inf"),), nf_db=(20.0,),
                    max_symbols=2048, chunk_symbols=512, scenario_id="eng3")
        corr = run_ber_scenario(ScenarioConfig(**base))[0]
        sig = run_ber_scenario(ScenarioConfig(**base, engine="signal"))[0]
        assert corr.bit_errors == sig.bit_errors == 0

    # without an interferer no amplitude enters the sum, so every near-far
    # point shares one decision per tile; with one, each point is decided
    @pytest.mark.parametrize("overrides", [
        pytest.param({}, id="rake"),
        pytest.param(dict(engine="signal"), id="signal"),
        pytest.param(dict(system="traditional_tdcs", m="full",
                          channel="multipath"), id="fde"),
    ])
    @pytest.mark.parametrize("u, per_tile", [(1, 1), (2, 3)])
    def test_one_decide_call_per_tile_and_point_sum(self, overrides, u,
                                                    per_tile, monkeypatch):
        calls, decide = [], simharness.decide

        def counted(phi, *args, **kwargs):
            calls.append(len(phi))
            return decide(phi, *args, **kwargs)

        cfg = small_cfg(u=u, nf_db=(0.0, 10.0, 20.0), chunk_symbols=600,
                        max_symbols=1000, min_bit_errors=10 ** 9, **overrides)
        rows = _make_sim(cfg, build_system(cfg)).tile_rows
        monkeypatch.setattr(simharness, "decide", counted)
        records = run_ber_scenario(cfg)
        tiles = [min(rows, size - lo) for size in (600, 400)
                 for lo in range(0, size, rows)]
        assert rows < 400 and calls == [r for r in tiles for _ in range(per_tile)]
        if u == 1:   # the copied decision is each point's own
            assert len({(r.bits_sent, r.bit_errors) for r in records}) == 1

    # M = L*N = 1024: a 256-row tile makes 4 MiB complex arrays; 16-row
    # tiles and slabbed draws traced 2.1, 1.8, 2.6 and 2.4 MiB
    @pytest.mark.parametrize("stem, overrides, ebn0_db, size, bound_mib", [
        pytest.param("full_load_reference_u1", {}, 3.5, 8192, 3,
                     id="full_circle_u1"),
        pytest.param("single_path_baseline_u4", {}, 8.0, 8192, 3,
                     id="traditional_u4"),
        pytest.param("multipath_baseline_u4", {}, 12.0, 4096, 4,
                     id="fde_u4"),
        pytest.param("multipath_baseline_u4", dict(engine="signal"), 12.0,
                     4096, 4, id="signal_fde_u4"),
    ])
    def test_chunk_memory_is_bounded_by_the_tile_budget(
            self, stem, overrides, ebn0_db, size, bound_mib):
        cfg = replace(load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg")),
                      **overrides)
        sim = _make_sim(cfg, build_system(cfg))
        _, peak = traced_peak(sim.chunk, ebn0_db, size, 0)
        assert peak < bound_mib * 2 ** 20

    def test_fde_chunk_memory_does_not_grow_with_the_user_count(self):
        # a tile workspace per user traced 2.15, 2.64 and 3.65 MiB at u = 2, 4
        # and 8; the three shared workspaces 2.39 to 2.40 MiB at each
        base = load_scenario(os.path.join(SCENARIO_DIR, "multipath_baseline_u4.cfg"))
        peaks = []
        for u in (2, 8):
            cfg = replace(base, u=u)
            sim = _make_sim(cfg, build_system(cfg))
            peaks.append(traced_peak(sim.chunk, 12.0, 4096, 0)[1])
        assert abs(peaks[1] - peaks[0]) < 0.25 * 2 ** 20

    # draws and decisions made for the whole chunk traced 31 MiB here;
    # streamed through slabs of whole tiles, 2.5 and 2.1 MiB
    @pytest.mark.parametrize("stem, ebn0_db", [
        ("multipath_windowed_u4", 6.0), ("nf_sweep_windowed_u8", 5.0)])
    def test_chunk_memory_does_not_grow_with_chunk_symbols(self, stem, ebn0_db):
        cfg = load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg"))
        sim = _make_sim(cfg, build_system(cfg))
        assert sim.slab_rows < 65536
        _, peak = traced_peak(sim.chunk, ebn0_db, 65536, 0)
        assert peak < 6 * 2 ** 20

    def test_fde_run_over_three_ebn0_values_stays_small(self):
        # the FDE's factored shift ramps take 2.5 MiB at L*N = 1024 and 4
        # users, built once per run; one (L*N)**2 table took 16 MiB (22 MiB
        # peak), and a second one held by a live simulator 41 MiB
        cfg = replace(load_scenario(os.path.join(
            SCENARIO_DIR, "multipath_baseline_u4.cfg")),
            ebn0_db=(0.0, 6.0, 12.0), max_symbols=512, chunk_symbols=512)
        _, peak = traced_peak(run_ber_scenario, cfg)
        assert peak < 12 * 2 ** 20

    def test_fde_run_at_4096_lags_stays_small(self):
        # one (L*N)**2 shift-ramp table traced 262.6 MiB here; the factored
        # tables hold (u * 64 + 64) rows of 64 KiB, 20 MiB
        cfg = replace(load_scenario(os.path.join(
            SCENARIO_DIR, "multipath_baseline_u4.cfg")),
            n=64, l=64, ebn0_db=(12.0,), max_symbols=256, chunk_symbols=256)
        _, peak = traced_peak(run_ber_scenario, cfg)
        assert peak < 48 * 2 ** 20

    def test_fde_ramp_tables_are_factored(self):
        cfg = small_cfg(system="traditional_tdcs", m="full", channel="multipath",
                        ebn0_db=(0.0, 6.0))
        sim = _make_sim(cfg, build_system(cfg))
        assert isinstance(sim, _FdeSim)
        ln = sim.ln
        assert sim.hi_ramps.tobytes() == _shift_ramps(sim.b * np.arange(11), ln).tobytes()
        # (u * b + ceil(L*N / b)) rows of L*N values, not (L*N)**2
        assert (sim.b, len(sim.spectra)) == (12, cfg.u)
        assert sum(t.size for t in sim.spectra) + sim.hi_ramps.size == (2 * 12 + 11) * ln

    def test_one_simulator_serves_every_ebn0_group(self, monkeypatch):
        # a simulator per Eb/N0 group built its profile rows, fingers and
        # noise columns once per group, three times here
        made, make = [], simharness._make_sim

        def counted(*args):
            made.append(make(*args))
            return made[-1]

        monkeypatch.setattr(simharness, "_make_sim", counted)
        cfg = small_cfg(ebn0_db=(0.0, 3.0, 6.0), max_symbols=1024, chunk_symbols=512)
        assert len(run_ber_scenario(cfg, threads=2)) == 3
        assert len(made) == 1

    @pytest.mark.skipif(sys.platform != "linux", reason="RUSAGE_THREAD is Linux-only")
    def test_warm_chunk_does_not_refault_its_tiles(self):
        # each 256 KiB row gather is released before the next is made, so
        # the heap is not trimmed once per tile and the next tile's arrays
        # reuse pages already mapped (57.7k minor faults when two gathers
        # were alive at once)
        import resource

        cfg = load_scenario(os.path.join(SCENARIO_DIR, "single_path_baseline_u4.cfg"))
        sim = _make_sim(cfg, build_system(cfg))
        assert sim.sum_width == 1024
        sim.chunk(8.0, 8192, 0)
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        sim.chunk(8.0, 8192, 1)
        assert resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before < 5000

    def test_factored_shift_ramps_match_the_closed_form(self):
        # the ramp of b * hi times the ramp of lo is the ramp of the shift
        # up to rounding, for every shift at L*N = 1024 (b = 32)
        ln = 1024
        lo = _shift_ramps(np.arange(32), ln)
        hi = _shift_ramps(32 * np.arange(32), ln)
        shifts = np.arange(ln)
        np.testing.assert_allclose((hi[:, None] * lo[None, :]).reshape(ln, ln),
                                   _shift_ramps(shifts, ln), rtol=0, atol=1e-11)


class TestScheduler:
    """The in-order chunk pipeline: chunks go out chunk-major and are
    consumed in submission order."""

    @staticmethod
    def record_chunks(monkeypatch):
        """Record ``(Eb/N0 value, chunk index)`` of every chunk run."""
        calls = []
        chunk = _PointSim.chunk

        def recorded(sim, ebn0_db, size, chunk_idx, points=None):
            calls.append((ebn0_db, chunk_idx))
            return chunk(sim, ebn0_db, size, chunk_idx, points)

        monkeypatch.setattr(_PointSim, "chunk", recorded)
        return calls

    @staticmethod
    def used_chunks(cfg, records):
        """Chunks each group's records include: those of its longest point."""
        kbits = build_system(cfg).m_order.bit_length() - 1
        per_group = {}
        for rec in records:
            chunks = -(-rec.bits_sent // (kbits * cfg.chunk_symbols))
            per_group[rec.ebn0_db] = max(per_group.get(rec.ebn0_db, 0), chunks)
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
        cfg = small_cfg(ebn0_db=(0.0, 2.0, 4.0), nf_db=(0.0, 10.0),
                        chunk_symbols=512, max_symbols=3000, min_bit_errors=200)
        calls = self.record_chunks(monkeypatch)
        records = run_ber_scenario(cfg, threads=1)
        used = self.used_chunks(cfg, records)
        # chunk-major: chunk 0 of every group, then chunk 1 of each group
        # still open, and so on
        serial = [(ebn0_db, idx)
                  for idx in range(max(used.values()))
                  for ebn0_db in cfg.ebn0_db if idx < used[ebn0_db]]
        assert calls == serial
        assert sorted(used.values()) == [1, 2, 4]   # groups stop after different chunks

    def test_chunk_major_order_keeps_the_records_and_discards_nothing(
            self, monkeypatch):
        # chunks that complete at once with faked error counts, so only the
        # scheduler decides which chunks run, with which points, and what
        # the records hold; the digest is that of the records alone under
        # the per-group scheduler the pipeline replaced, which computed 63
        # chunks here that no record used
        class InstantPool(simharness._Serial):
            def __init__(self, max_workers):
                pass

        calls = []

        def faked(sim, ebn0_db, size, chunk_idx, points=None):
            key = _ebn0_key(ebn0_db)
            calls.append((key, chunk_idx, points))
            counts = np.random.default_rng([key, chunk_idx]).integers(0, 4, 4)
            return [int(counts[k]) for k in points]

        monkeypatch.setattr(simharness, "ThreadPoolExecutor", InstantPool)
        monkeypatch.setattr(_PointSim, "chunk", faked)
        digest = hashlib.sha256()
        rng = np.random.default_rng(28)
        for _ in range(60):
            cfg = small_cfg(
                ebn0_db=tuple(float(e) for e in range(rng.integers(1, 5))),
                nf_db=tuple(float(nf) for nf in range(rng.integers(1, 5))),
                chunk_symbols=int(rng.integers(1, 5)) * 256,
                max_symbols=int(rng.integers(1, 9)) * 512,
                min_bit_errors=int(rng.integers(1, 12)), scenario_id="sched")
            group = {_ebn0_key(e): g for g, e in enumerate(cfg.ebn0_db)}
            for threads in range(1, 5):
                calls.clear()
                records = run_ber_scenario(cfg, threads)
                digest.update(repr(records).encode())
                assert calls == sorted(calls, key=lambda c: (c[1], group[c[0]]))
                assert len(calls) == sum(self.used_chunks(cfg, records).values())
        assert digest.hexdigest()[:16] == "8cdafa988ab8c17b"

    def test_chunk_sizes_are_not_listed_up_front(self):
        # 10**6 chunks: a list of their sizes took 15 MiB before the first
        # chunk ran, and grew linearly with max_symbols
        cfg = small_cfg(u=1, ebn0_db=(0.0,), min_bit_errors=1,
                        chunk_symbols=8192, max_symbols=8192 * 10 ** 6)
        (rec,), peak = traced_peak(run_ber_scenario, cfg)
        assert rec.bits_sent == 3 * 8192 and rec.reached_min_errors
        assert peak < 2 ** 20

    def test_scheduler_sleeps_while_a_finished_chunk_waits(self, monkeypatch):
        # chunk 1 finishes while chunk 0 still runs; the scheduler must block
        # until chunk 0 is done, not poll the finished future
        chunk = _PointSim.chunk

        def slow_first(sim, ebn0_db, size, chunk_idx, points=None):
            if chunk_idx == 0:
                time.sleep(0.5)
            return chunk(sim, ebn0_db, size, chunk_idx, points)

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

        def failing(sim, ebn0_db, size, chunk_idx, points=None):
            if chunk_idx == 1:
                raise RuntimeError("chunk failed")
            return chunk(sim, ebn0_db, size, chunk_idx, points)

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

    def test_full_m_keeps_the_multipath_guard(self):
        # 8 * (64 + 5 + 32) <= 1024 < 8 * (64 + 5 + 64): the 6-tap guard
        # halves the order that fits at T_max = 0
        cfg = small_cfg(n=64, l=16, m="full", u=8, channel="multipath",
                        max_symbols=256, chunk_symbols=256)
        assert build_system(cfg).m_order == 32
        (rec,) = run_ber_scenario(cfg)
        assert rec.bits_sent == 256 * 5

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
