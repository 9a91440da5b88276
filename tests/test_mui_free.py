"""MUI-free as an exact invariant of the shipped windowed scenarios and of
small random windowed configs that the planner accepts.

User 1's draws carry no user count, and every other user's cross-correlation
on user 1's window is zero up to rounding, so a windowed scenario's records
equal those of the same config at ``u = 1``, point by point.  The equality
alone would also hold for a kernel that skipped the interferers, so every
tile is checked to return the interferers' sum for the point sums, and the
traditional baseline, which has no zero zone, must differ from its ``u = 1``
run.  ``full_load_u4`` is left out: ``m = full`` changes ``M`` with ``u``.

The equality does not pin the guard ``N + T_max`` to the lag: ``plan_shifts``
lays adjacent windows' nearest shifts ``guard + 1`` apart, and a profile
barely above rounding can leave every decision as it was.  So the statistic
itself is checked on windows laid out by hand: at the guard every
interferer's profile on user 1's RAKE lags is rounding, one lag closer it is
not.
"""

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcslab.channel import PHASE_MODELS, cost207_ra6
from tdcslab.seqcore import xcorr_from_spectrum
from tdcslab.simharness import (
    CHANNELS,
    ScenarioConfig,
    _PointSim,
    build_system,
    load_scenario,
    run_ber_scenario,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

WINDOWED = ["nf_sweep_windowed_u8", "mismatch_u8_eta96",
            "single_path_windowed_u4", "multipath_windowed_u4"]


def shallow(stem):
    """The shipped scenario at 4096 symbols in 2048-symbol chunks, on its
    first two Eb/N0 values."""
    cfg = load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg"))
    return replace(cfg, ebn0_db=cfg.ebn0_db[:2], max_symbols=4096,
                   chunk_symbols=2048)


def counts(cfg):
    return [(r.nf_db, r.ebn0_db, r.bits_sent, r.bit_errors)
            for r in run_ber_scenario(cfg, threads=2)]


def spy_interference(monkeypatch):
    """Record, per ``_superpose`` call, whether it returned an interference."""
    seen = []
    superpose = _PointSim._superpose

    def recorded(sim, links, tau, ws, n0):
        out = superpose(sim, links, tau, ws, n0)
        seen.append(out[1] is not None)
        return out

    monkeypatch.setattr(_PointSim, "_superpose", recorded)
    return seen


@pytest.mark.parametrize("stem", WINDOWED)
def test_windowed_records_equal_the_single_user_run(stem, monkeypatch):
    cfg = shallow(stem)
    assert cfg.u > 1 and cfg.system == "mui_free_tdcs"
    seen = spy_interference(monkeypatch)
    multi = counts(cfg)
    assert seen and all(seen)      # every tile summed the interferers
    seen.clear()
    single = counts(replace(cfg, u=1))
    assert seen and not any(seen)
    assert multi == single


@st.composite
def windowed_configs(draw):
    """Small windowed configs that the planner accepts for two users or more,
    over either channel, every single-path phase model, an optional sensing
    mismatch, a near-far grid and finite Eb/N0 values."""
    n, l = draw(st.sampled_from([8, 16])), draw(st.sampled_from([4, 8, 16]))
    channel = draw(st.sampled_from(CHANNELS))
    guard = n + (cost207_ra6().t_max if channel == "multipath" else 0)
    m = draw(st.sampled_from([m for m in (2, 4, 8, 16, 32)
                              if l * n // (guard + m) >= 2]))
    return ScenarioConfig(
        n=n, l=l, m=m, u=draw(st.integers(2, min(4, l * n // (guard + m)))),
        channel=channel,
        phase_model=(draw(st.sampled_from(PHASE_MODELS))
                     if channel == "single_path" else "uniform-phase"),
        eta=draw(st.none() | st.floats(0.25, 1.0)),
        nf_db=tuple(draw(st.lists(st.floats(-10.0, 30.0), min_size=1,
                                  max_size=3, unique=True))),
        ebn0_db=tuple(draw(st.lists(st.integers(-5, 10).map(float),
                                    min_size=1, max_size=2, unique=True))),
        seed=draw(st.integers(0, 2 ** 31)), max_symbols=2048,
        chunk_symbols=1024, scenario_id="mui",
    )


@settings(max_examples=100, deadline=None)
@given(cfg=windowed_configs())
def test_accepted_windowed_configs_equal_the_single_user_run(cfg):
    with pytest.MonkeyPatch.context() as patch:
        seen = spy_interference(patch)
        multi = counts(cfg)
    assert seen and all(seen)
    assert multi == counts(replace(cfg, u=1))


def test_traditional_records_differ_from_the_single_user_run():
    cfg = shallow("nf_sweep_baseline_u4")
    assert counts(cfg) != counts(replace(cfg, u=1))


def rake_lag_profiles(system, chips, start, t):
    """Correlation with user 1's reference, over every lag, of ``chips``
    sent at each shift of the window at ``start`` and delayed by each tap
    ``p <= t``: one row per (shift, tap)."""
    ln, m = system.block_len, system.m_order
    tau = (start + np.arange(m))[:, None, None]
    taps = np.arange(t + 1)[None, :, None]
    # the block sent at shift tau, delayed by tap p: chips[(k - p + tau) % ln]
    sent = chips[(np.arange(ln) - taps + tau) % ln]
    corr = xcorr_from_spectrum(np.fft.fft(sent, axis=-1),
                               np.conj(np.fft.fft(system.ref)))
    return corr.reshape(m * (t + 1), ln)


def interferer_ratio(stem, gap):
    """The largest interferer profile on user 1's RAKE lags, over every sent
    shift and tap, relative to user 1's peak, with the windows laid out by
    hand so that adjacent windows' nearest shifts are ``gap`` apart."""
    cfg = load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg"))
    system = build_system(cfg)
    ln, m = system.block_len, system.m_order
    t = system.profile.t_max if system.profile is not None else 0
    starts = [j * (m - 1 + gap) for j in range(cfg.u)]
    assert ln - starts[-1] - (m - 1) >= gap        # the pair across the wrap
    lags = (starts[0] - t + np.arange(t + m)) % ln
    victim = rake_lag_profiles(system, system.chips[0], starts[0], t)
    # the victim's block sent at tau and delayed by p peaks at lag tau - p
    peaks = (starts[0] + np.arange(m)[:, None] - np.arange(t + 1)) % ln
    assert (np.argmax(np.abs(victim), axis=1) == peaks.ravel()).all()
    worst = max(np.abs(rake_lag_profiles(system, chips, start, t)[:, lags]).max()
                for chips, start in zip(system.chips[1:], starts[1:]))
    return worst / np.abs(victim).max()


@pytest.mark.parametrize("stem", WINDOWED)
def test_the_guard_is_tight_on_the_statistic(stem):
    cfg = load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg"))
    system = build_system(cfg)
    guard = cfg.n + (system.profile.t_max if system.profile is not None else 0)
    # the planner leaves one lag of slack beyond the guard
    first, second = system.windows[:2]
    assert second.start - (first.start + system.m_order - 1) == guard + 1
    assert interferer_ratio(stem, guard) <= 1e-12
    assert interferer_ratio(stem, guard - 1) >= 1e-3
