"""The per-block library calls are rows of the engine's batch calls.

The Monte Carlo engine calls the batch-first channel and receiver functions
on whole chunks and tiles.  Each test here makes the engine's batch call,
then the per-block library call block by block, and requires the bytes of
each row to be equal, so the library a user calls is the model behind the
BER records.
"""

import numpy as np
import pytest

from tdcslab.allocation import ShiftWindow
from tdcslab.channel import (
    PHASE_MODELS,
    complex_gaussian,
    draw_gains,
    draw_taps,
    gains_from_nf,
)
from tdcslab.receiver import (
    demodulate_window,
    mmse_fde,
    mmse_weights,
    rake_combine,
    rake_demodulate,
)
from tdcslab.seqcore import xcorr_from_spectrum
from tdcslab.simharness import (
    _GAINS,
    _NOISE,
    _TAPS,
    ScenarioConfig,
    _make_sim,
    _pair_key,
    _stream_rng,
    build_system,
)

BLOCKS = 5


def engine_sim(**overrides):
    cfg = ScenarioConfig(**{**dict(n=16, l=8, m=8, u=2, nf_db=(6.0,),
                                   ebn0_db=(3.0,), engine="signal"),
                            **overrides})
    return _make_sim(cfg, build_system(cfg), 0, cfg.ebn0_db[0], cfg.nf_db[0])


def rows_equal(batch, rows):
    return [np.asarray(row).tobytes() for row in rows] == [
        row.tobytes() for row in batch]


def random_blocks(rng, n):
    return rng.standard_normal((BLOCKS, n)) + 1j * rng.standard_normal((BLOCKS, n))


def test_complex_gaussian_noise_rows():
    sim = engine_sim()
    buf = np.empty((BLOCKS, sim.noise_width), dtype=np.complex128)
    batch = sim._noise(_stream_rng(sim.cfg.seed, _NOISE, sim.key, 4), buf)
    rng = _stream_rng(sim.cfg.seed, _NOISE, sim.key, 4)
    rows = [complex_gaussian(rng, sim.noise_width, sim.n0) for _ in range(BLOCKS)]
    assert rows_equal(batch, rows)


def test_draw_taps_rows():
    sim = engine_sim(channel="multipath")
    batch = sim._links(BLOCKS, 4)[0]
    rng = _stream_rng(sim.cfg.seed, _TAPS, sim.key, 4, user=_pair_key(0, 0))
    assert rows_equal(batch, [draw_taps(sim.system.profile, rng)
                              for _ in range(BLOCKS)])


@pytest.mark.parametrize("phase_model", PHASE_MODELS)
def test_gains_from_nf_link_rows(phase_model):
    sim = engine_sim(phase_model=phase_model)
    links = sim._links(BLOCKS, 4)
    rng = _stream_rng(sim.cfg.seed, _GAINS, sim.key, 4, user=_pair_key(0, 0))
    rows = [gains_from_nf(1, 6.0, rng, phase_model).gains[0]
            for _ in range(BLOCKS)]
    assert rows_equal(links[0], rows)
    # an interferer's link is the same draw times the near-far amplitude
    rng = _stream_rng(sim.cfg.seed, _GAINS, sim.key, 4, user=_pair_key(0, 1))
    assert rows_equal(links[1], draw_gains(rng, (BLOCKS, 1), phase_model)
                      * sim.nf_lin)


def test_demodulate_window_statistic_rows():
    rng = np.random.default_rng(5)
    ref = np.exp(2j * np.pi * rng.random(64))
    window = ShiftWindow(start=60, width=8, circular_length=64)
    r = random_blocks(rng, 64)
    spectra = np.fft.fft(r, axis=1)
    phi = xcorr_from_spectrum(spectra, np.conj(np.fft.fft(ref)))
    batch = np.abs(phi[:, window.shifts()])
    assert rows_equal(batch, [demodulate_window(row, ref, window).values
                              for row in r])


def test_rake_combiner_rows():
    rng = np.random.default_rng(6)
    ref = np.exp(2j * np.pi * rng.random(64))
    window = ShiftWindow(start=62, width=8, circular_length=64)
    r = random_blocks(rng, 64)
    taps = random_blocks(rng, 3)
    phi = xcorr_from_spectrum(np.fft.fft(r, axis=1), np.conj(np.fft.fft(ref)))
    fingers = [(window.shifts() - p) % 64 for p in range(3)]
    batch = np.abs(rake_combine(phi, taps, fingers))
    assert rows_equal(batch, [rake_demodulate(row, ref, window, h).values
                              for row, h in zip(r, taps)])


def test_mmse_fde_weight_rows():
    rng = np.random.default_rng(7)
    r = random_blocks(rng, 32)
    h_freq = np.fft.fft(random_blocks(rng, 4), n=32, axis=1)
    snr = 40.0
    weights = mmse_weights(h_freq, 1.0 / snr)
    batch = np.fft.ifft(np.fft.fft(r, axis=1) * weights, axis=1)
    assert rows_equal(batch, [mmse_fde(row, h, snr) for row, h in zip(r, h_freq)])
