"""Property tests over small random systems: the correlation engine and the
literal signal pipeline make the same noiseless decisions at user 1's
receiver, and no execution knob (tile height, slab height, worker count)
moves a record."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdcslab.allocation import plan_shifts, u_max
from tdcslab.channel import PHASE_MODELS, cost207_ra6
from tdcslab.errors import CapacityError
from tdcslab.simharness import (
    CHANNELS,
    ENGINES,
    SYSTEMS,
    ScenarioConfig,
    records_to_csv,
    run_ber_scenario,
)

from test_golden import TILINGS, patch_tiling


@st.composite
def noiseless_configs(draw):
    system = draw(st.sampled_from(SYSTEMS))
    # the traditional baseline keys over the whole circle
    orders = ["full"] if system == "traditional_tdcs" else [4, 8, "full"]
    return ScenarioConfig(
        system=system,
        channel=draw(st.sampled_from(CHANNELS)),
        n=draw(st.sampled_from([8, 16])),
        l=draw(st.sampled_from([4, 8])),
        u=draw(st.integers(1, 3)),
        m=draw(st.sampled_from(orders)),
        ebn0_db=(float("inf"),),
        # a full tile and a ragged one
        max_symbols=300, chunk_symbols=300, min_bit_errors=10 ** 9,
        scenario_id="prop",
    )


@settings(max_examples=60, deadline=None)
@given(cfg=noiseless_configs())
def test_noiseless_engines_agree(cfg):
    # skip only a config the planner fits no window for: at its order, or at
    # order 2 for m = full; every other config must build and run
    if cfg.system == "mui_free_tdcs":
        t_max = cost207_ra6().t_max if cfg.channel == "multipath" else 0
        try:
            plan_shifts(cfg.u, cfg.n, cfg.l, 2 if cfg.m == "full" else cfg.m,
                        t_max=t_max)
        except CapacityError:
            assume(False)
    corr = run_ber_scenario(cfg)[0]
    sig = run_ber_scenario(replace(cfg, engine="signal"))[0]
    assert corr == sig


@st.composite
def knob_configs(draw):
    """Small configs that build, over both systems, channels and engines,
    every single-path phase model, an optional sensing mismatch, noisy and
    noiseless Eb/N0 values, near-far grids of up to three points (at
    ``u = 1`` too) and stopping rules that close points at different
    chunks."""
    system, channel = draw(st.sampled_from(SYSTEMS)), draw(st.sampled_from(CHANNELS))
    # L*N = 256 lags at n = l = 16: over multipath the full-circle window
    # is wider than _CHOL_LIMIT, so its noise comes from the spectrum
    n, l = draw(st.sampled_from([8, 16])), draw(st.sampled_from([4, 8, 16]))
    t_max = cost207_ra6().t_max if channel == "multipath" else 0
    if system == "traditional_tdcs":
        u, m = draw(st.integers(1, 3)), "full"
    else:
        u = draw(st.integers(1, min(3, u_max(l, n, 2, t_max))))
        m = draw(st.sampled_from([m for m in (2, 4, 8)
                                  if u_max(l, n, m, t_max) >= u] + ["full"]))
    return ScenarioConfig(
        system=system, channel=channel, n=n, l=l, u=u, m=m,
        engine=draw(st.sampled_from(ENGINES)),
        phase_model=(draw(st.sampled_from(PHASE_MODELS))
                     if channel == "single_path" else "uniform-phase"),
        eta=draw(st.none() | st.floats(0.25, 1.0)),
        nf_db=tuple(draw(st.lists(st.floats(-10.0, 30.0), min_size=1,
                                  max_size=3, unique=True))),
        ebn0_db=tuple(draw(st.lists(st.sampled_from([0.0, 3.0, 6.0, float("inf")]),
                                    min_size=1, max_size=2, unique=True))),
        seed=draw(st.integers(0, 2 ** 31)),
        min_bit_errors=draw(st.integers(1, 40)),
        max_symbols=draw(st.integers(1, 120)),
        chunk_symbols=draw(st.integers(1, 50)),
        scenario_id="knobs",
    )


# 1-row tiles (and slabs), the default tile budget, whole-chunk tiles
KNOB_TILINGS = [TILINGS[0], None, TILINGS[-1]]


@settings(max_examples=200, deadline=None)
@given(cfg=knob_configs(), threads=st.permutations([1, 2, 3]))
def test_records_do_not_depend_on_tiling_or_threads(cfg, threads):
    # each tiling runs at a different worker count, so the examples pair
    # every tiling with every count
    bodies = set()
    for tiling, workers in zip(KNOB_TILINGS, threads):
        with pytest.MonkeyPatch.context() as mp:
            if tiling is not None:
                patch_tiling(mp, tiling)
            bodies.add(records_to_csv(cfg, run_ber_scenario(cfg, workers)))
    assert len(bodies) == 1
