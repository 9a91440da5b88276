"""Each noise sampler of the engine draws the per-block pipeline's noise law.

A test draws one kernel's noise through ``sim._noise`` from a fixed seed and
compares its second moments with those of the per-block pipeline: white
time-domain noise of ``n0`` per sample, correlated with the reference by
``periodic_xcorr_fft`` and read at the window lags (for the FDE, its
spectrum, which the receiver equalizes).  Both covariances are estimates
over the per-lag variance.

The bound.  For circular Gaussian noise, each part (real or imaginary) of
an entry of a covariance estimated from ``B`` blocks has a variance of at
most ``1 / B`` of the squared per-lag variance.  So each part of the
difference of the two estimates has a standard deviation ``sigma`` of at
most ``sqrt(1 / B_engine + 1 / B_pipeline)``, the sampling scale.  The bound
is ``7 * sigma``: a part beyond it has a Gaussian probability of 2.6e-12, so
over the at most 2 * 128**2 parts of one test the false-alarm rate is below
1e-7.  A conjugated window covariance moves entries by twice their
imaginary part, up to 0.21-0.23 of the per-lag variance on these windows,
against a bound of 0.17 at the Cholesky tests' depth; the covariance is
Toeplitz, so each such move repeats along a whole diagonal.
"""

import functools
import os
from dataclasses import replace

import numpy as np
import pytest

from tdcslab.channel import complex_gaussian
from tdcslab.seqcore import periodic_xcorr_fft
from tdcslab.simharness import _make_sim, build_system, load_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# the shipped windows read lags 64-132 (64-191 at the full circle)
LAGS = np.arange(64, 192)
PIPELINE_BLOCKS = 2048
TILE = 256   # blocks per draw
EBN0_DB = 3.0
# the mismatch of mismatch_u4_eta96, so that its reference is shared
ETA = dict(eta=0.9583, mismatch_seed=777)


def bound(engine_blocks):
    """Seven times the sampling scale (see the module docstring)."""
    return 7.0 * np.sqrt(1.0 / engine_blocks + 1.0 / PIPELINE_BLOCKS)


def noisy_sim(stem, **overrides):
    cfg = replace(load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg")),
                  ebn0_db=(EBN0_DB,), **overrides)
    return _make_sim(cfg, build_system(cfg))


def covariance(blocks):
    """``E[x_i conj(x_j)]`` over the rows of ``blocks``, summed."""
    return blocks.T @ blocks.conj()


def white_noise(ln):
    """The pipeline's ``PIPELINE_BLOCKS`` blocks of unit white noise per
    sample, drawn tile by tile from one seed."""
    rng = np.random.default_rng(1)
    for _ in range(PIPELINE_BLOCKS // TILE):
        yield from complex_gaussian(rng, (TILE, ln))


@functools.lru_cache
def pipeline_covariance(ref_bytes):
    """The per-block pipeline's noise covariance at ``LAGS``, over the
    per-lag variance: unit white noise per sample, correlated with the
    reference, whose energy is that variance."""
    ref = np.frombuffer(ref_bytes, dtype=np.complex128)
    profiles = np.array([periodic_xcorr_fft(w, ref)[LAGS]
                         for w in white_noise(ref.size)])
    return covariance(profiles) / (PIPELINE_BLOCKS * np.vdot(ref, ref).real)


def engine_covariance(sim, engine_blocks, cols, variance):
    """Covariance of ``engine_blocks`` blocks of ``sim._noise`` at the
    columns ``cols``, over ``variance``, drawn tile by tile from one seed."""
    rng = np.random.default_rng(2)
    buf = np.empty((TILE, sim.noise_width), dtype=np.complex128)
    acc = 0.0
    for _ in range(engine_blocks // TILE):
        acc = acc + covariance(sim._noise(rng, buf, sim.n0[EBN0_DB])[:, cols])
    return acc / (engine_blocks * variance)


# the Cholesky sampler is cheap, so it is drawn eight times as deep
@pytest.mark.parametrize("stem, overrides", [
    ("single_path_windowed_u4", {}),
    ("multipath_windowed_u4", {}),
    ("mismatch_u4_eta96", {}),
    ("multipath_windowed_u4", ETA),
], ids=["single_path", "multipath", "single_path_eta", "multipath_eta"])
def test_cholesky_window_noise_is_the_pipelines(stem, overrides):
    sim = noisy_sim(stem, **overrides)
    width = sim.noise_width
    assert sim.cholesky is not None and width == sim.m + sim.t
    assert sim.window.start - sim.t == LAGS[0]
    engine = engine_covariance(sim, 8 * PIPELINE_BLOCKS, slice(None),
                               sim.n0[EBN0_DB] * np.vdot(sim.ref, sim.ref).real)
    pipeline = pipeline_covariance(sim.ref.tobytes())[:width, :width]
    assert np.abs(engine - pipeline).max() < bound(8 * PIPELINE_BLOCKS)


def test_fft_full_circle_noise_is_the_pipelines():
    # L*N = 1024 lags, read on the slice LAGS (column c is lag 64 + c)
    sim = noisy_sim("full_load_reference_u1")
    assert sim.cholesky is None and sim.noise_width == sim.ln == 1024
    assert sim.window.start == LAGS[0]
    engine = engine_covariance(sim, PIPELINE_BLOCKS, slice(0, LAGS.size),
                               sim.n0[EBN0_DB] * np.vdot(sim.ref, sim.ref).real)
    pipeline = pipeline_covariance(sim.ref.tobytes())
    assert np.abs(engine - pipeline).max() < bound(PIPELINE_BLOCKS)


def test_fde_bin_noise_is_white_with_ln_n0_per_bin():
    # the pipeline's noise spectrum: ln * n0 per bin, white, on 128 bins
    sim = noisy_sim("multipath_baseline_u4")
    ln, n0 = sim.ln, sim.n0[EBN0_DB]
    spectra = np.array([np.fft.fft(np.sqrt(n0) * w)[:LAGS.size]
                        for w in white_noise(ln)])
    pipeline = covariance(spectra) / (PIPELINE_BLOCKS * ln * n0)
    engine = engine_covariance(sim, PIPELINE_BLOCKS, slice(0, LAGS.size), ln * n0)
    assert np.abs(engine - pipeline).max() < bound(PIPELINE_BLOCKS)
