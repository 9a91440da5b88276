"""Property tests over small random systems: the correlation engine and the
literal signal pipeline make the same noiseless decisions at user 1's
receiver, both make the decisions of the per-block reference functions fed
the same draws, and no execution knob (tile height, slab height, worker
count) moves a record."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdcslab.allocation import plan_shifts, u_max
from tdcslab.channel import PHASE_MODELS, apply_multipath, cost207_ra6, nf_amplitude
from tdcslab.errors import CapacityError
from tdcslab.receiver import demodulate_window, mmse_fde, rake_demodulate
from tdcslab.simharness import (
    CHANNELS,
    ENGINES,
    SYSTEMS,
    ScenarioConfig,
    _ebn0_key,
    _make_sim,
    build_system,
    records_to_csv,
    run_ber_scenario,
)
from tdcslab.waveform import (add_cyclic_prefix, index_to_bits, modulate,
                              remove_cyclic_prefix)

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


def reference_errors(cfg, system, sim, msgs, links):
    """User 1's bit errors at each near-far point, block by block through the
    per-block functions: ``modulate`` (a cyclic shift by ``np.roll``), the
    cyclic prefix, ``apply_multipath`` with each interferer's link scaled by
    the near-far amplitude, then RAKE, or MMSE equalization and the window
    correlation for the traditional baseline over multipath."""
    t, kbits = sim.t, system.m_order.bit_length() - 1
    victim = system.windows[0]
    errors = []
    for nf_db in cfg.nf_db:
        amp = nf_amplitude(nf_db)
        count = 0
        for b, msg in enumerate(msgs[0]):
            sent = [add_cyclic_prefix(modulate(system.chips[j], index_to_bits(
                int(msgs[j][b]), kbits), system.windows[j]).x, t)
                for j in range(cfg.u)]
            taps = np.array([links[j][b] * (amp if j else 1.0) for j in range(cfg.u)])
            r = remove_cyclic_prefix(apply_multipath(sent, taps, t, None, 0), t)
            if system.fde:   # at the engine's noiseless SNR
                eq = mmse_fde(r, np.fft.fft(links[0][b], system.block_len),
                              1.0 / sim.inv_snr(sim.n0[np.inf]))
                dec = demodulate_window(eq, system.ref, victim)
            else:
                dec = rake_demodulate(r, system.ref, victim, links[0][b])
            offset = (dec.argmax_shift - victim.start) % system.block_len
            count += bin(offset ^ int(msg)).count("1")
        errors.append(count)
    return errors


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


def fde_u3(n, l, nf_db):
    """A traditional-over-multipath config that reaches ``_FdeSim`` with a
    third user, 50 symbols per chunk."""
    return ScenarioConfig(system="traditional_tdcs", channel="multipath", n=n, l=l,
                          u=3, m="full", nf_db=nf_db, chunk_symbols=50,
                          max_symbols=50, scenario_id="knobs")


# knob_configs reaches _FdeSim with u = 3 in about 1 draw in 27 (engine =
# signal routes the same config to _SignalSim), and some runs never do; the
# examples make every run add a third user's term in the FDE kernel
@settings(max_examples=100, deadline=None)
@given(cfg=knob_configs(), chunk=st.integers(0, 3))
@example(cfg=fde_u3(8, 4, (20.0,)), chunk=0)
@example(cfg=fde_u3(16, 4, (10.0, 30.0)), chunk=1)
def test_chunk_equals_the_per_block_reference(cfg, chunk):
    # the engine's messages and links, drawn as one slab, replayed through
    # the per-block functions; the shifts are modulate's own
    cfg = replace(cfg, ebn0_db=(float("inf"),))
    system = build_system(cfg)
    sim = _make_sim(cfg, system)
    size = cfg.chunk_symbols
    msgs, links, _ = next(sim._draws(_ebn0_key(np.inf), size, chunk, size))
    assert sim.chunk(np.inf, size, chunk) == reference_errors(cfg, system, sim,
                                                              msgs, links)


# 1-row tiles (and slabs), the default tile budget, whole-chunk tiles
KNOB_TILINGS = [TILINGS[0], None, TILINGS[-1]]


# one simulator serves a noisy and a noiseless point group on a
# Cholesky-sampled window; the groups stop after two and three chunks
@settings(max_examples=200, deadline=None)
@given(cfg=knob_configs(), threads=st.permutations([1, 2, 3]))
@example(cfg=ScenarioConfig(n=16, l=8, m=8, u=2, nf_db=(0.0, 10.0),
                            ebn0_db=(3.0, float("inf")), min_bit_errors=20,
                            max_symbols=120, chunk_symbols=50, scenario_id="knobs"),
         threads=[1, 2, 3])
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
