"""One tiny config per kernel cell, each run the same way every time.

A cell is the simulator that ``_make_sim`` routes a config to (``_RakeSim``
on a single path or over multipath, ``_FdeSim``, ``_SignalSim``), the noise
sampler of a RAKE window (a Cholesky factor up to ``_CHOL_LIMIT`` lags, the
correlation profile from the spectrum beyond; the other kernels draw white
noise), the user count, whether the receiver's mark is mismatched and, on a
single path, the phase model of the links.  The
Hypothesis properties of ``test_engine_properties`` draw configs at random
and reach some cells rarely and the FFT sampler not at all; here every cell
runs through the per-block reference (noiseless) and the tiling and worker
invariance (noisy), and the list must cover every kind and both samplers,
so a routing or ``_CHOL_LIMIT`` change that empties a cell fails by name.
"""

from dataclasses import replace

import numpy as np
import pytest

from tdcslab.simharness import (
    ScenarioConfig,
    _ebn0_key,
    _FdeSim,
    _make_sim,
    _PointSim,
    _RakeSim,
    _SignalSim,
    build_system,
    records_to_csv,
    run_ber_scenario,
)

from test_engine_properties import KNOB_TILINGS, reference_errors
from test_golden import patch_tiling

# per kernel and sampler: the geometry, fitting three users.  The FFT
# windows are wider than _CHOL_LIMIT: the traditional full circle at
# L*N = 512, and T_max + M = 261 lags over multipath at L*N = 1024
GEOMETRIES = {
    ("rake_single_path", "cholesky"): dict(n=8, l=8, m=4),
    ("rake_single_path", "fft"): dict(system="traditional_tdcs", n=32, l=16, m="full"),
    ("rake_multipath", "cholesky"): dict(n=8, l=8, m=4, channel="multipath"),
    ("rake_multipath", "fft"): dict(n=8, l=128, m=256, channel="multipath"),
    ("fde", "white"): dict(system="traditional_tdcs", n=8, l=8, m="full",
                           channel="multipath"),
    ("signal", "white"): dict(n=8, l=8, m=4, channel="multipath", engine="signal"),
}
# the single-path cells of the other phase models: RAKE with each sampler
# and the signal kernel
PHASE_GEOMETRIES = {
    **{key: GEOMETRIES[key] for key in (("rake_single_path", "cholesky"),
                                        ("rake_single_path", "fft"))},
    ("signal", "white"): dict(n=8, l=8, m=4, engine="signal"),
}
MISMATCH = dict(eta=0.5, mismatch_seed=3)
DEFAULT_PHASE = ScenarioConfig.phase_model


def cell(geometry, u, mismatch, phase_model):
    return ScenarioConfig(
        **geometry, u=u, **(MISMATCH if mismatch else {}), phase_model=phase_model,
        nf_db=(0.0, 10.0), ebn0_db=(0.0,), seed=7, min_bit_errors=12,
        max_symbols=24, chunk_symbols=8, scenario_id="cell")


CELLS = {
    **{(kind, sampler, u, mismatch, DEFAULT_PHASE): cell(geometry, u, mismatch,
                                                         DEFAULT_PHASE)
       for (kind, sampler), geometry in GEOMETRIES.items()
       for u in (1, 2, 3) for mismatch in (False, True)},
    **{(kind, sampler, u, False, phase): cell(geometry, u, False, phase)
       for (kind, sampler), geometry in PHASE_GEOMETRIES.items()
       for u in (1, 2) for phase in ("fixed-phase", "rayleigh")},
}


def cell_id(key):
    """The key joined by '-', the default phase model left out."""
    return "-".join(map(str, key[:4] if key[4] == DEFAULT_PHASE else key))


def cell_of(cfg):
    """The cell that ``cfg`` runs in, read off the simulator it makes."""
    sim = _make_sim(cfg, build_system(cfg))
    if isinstance(sim, _RakeSim):
        kind = "rake_multipath" if sim.t else "rake_single_path"
        sampler = "fft" if sim.cholesky is None else "cholesky"
    else:
        kind, sampler = {_FdeSim: "fde", _SignalSim: "signal"}[type(sim)], "white"
    return kind, sampler, cfg.u, cfg.eta is not None, cfg.phase_model


def test_each_config_runs_in_its_cell_and_every_kind_is_listed():
    assert {key: cell_of(cfg) for key, cfg in CELLS.items()} == {
        key: key for key in CELLS}
    kinds = {type(_make_sim(cfg, build_system(cfg))) for cfg in CELLS.values()}
    assert kinds == set(_PointSim.__subclasses__())
    assert {sampler for _, sampler, _, _, _ in CELLS} == {"cholesky", "fft", "white"}


@pytest.mark.parametrize("key", CELLS, ids=map(cell_id, CELLS))
def test_cell(key):
    # noiseless: chunk 1's decisions equal the per-block pipeline's, fed the
    # engine's draws of that chunk
    cfg = replace(CELLS[key], ebn0_db=(float("inf"),))
    system = build_system(cfg)
    sim = _make_sim(cfg, system)
    size = cfg.chunk_symbols
    msgs, links, _ = next(sim._draws(_ebn0_key(np.inf), size, 1, size))
    assert sim.chunk(np.inf, size, 1) == reference_errors(cfg, system, sim,
                                                          msgs, links)
    # noisy: the records hold for 1-row, default and whole-chunk tiles, on
    # 1, 2 and 3 workers
    bodies = set()
    for tiling, workers in zip(KNOB_TILINGS, (2, 3, 1)):
        with pytest.MonkeyPatch.context() as mp:
            if tiling is not None:
                patch_tiling(mp, tiling)
            records = run_ber_scenario(CELLS[key], workers)
            bodies.add(records_to_csv(CELLS[key], records))
    assert len(bodies) == 1
    assert any(rec.bit_errors for rec in records)  # the noise decided something
