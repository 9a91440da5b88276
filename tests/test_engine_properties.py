"""Property test: the correlation engine and the literal signal pipeline make
the same noiseless decisions at user 1's receiver, over small random systems."""

from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdcslab.allocation import plan_shifts
from tdcslab.channel import cost207_ra6
from tdcslab.errors import CapacityError
from tdcslab.simharness import CHANNELS, SYSTEMS, ScenarioConfig, run_ber_scenario


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
