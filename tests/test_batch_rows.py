"""The per-block library calls are rows of the engine's batch calls.

The Monte Carlo engine calls the batch-first channel and receiver functions
on slabs and tiles.  Each test here makes the engine's batch call,
then the per-block library call block by block, and requires the bytes of
each row to be equal, so the library a user calls is the model behind the
BER records.
"""

from typing import get_args

import numpy as np
import pytest

from tdcslab.allocation import ShiftWindow
from tdcslab.channel import (
    PhaseModel,
    complex_gaussian,
    draw_gains,
    draw_taps,
    gains_from_nf,
)
from tdcslab.receiver import (
    decide,
    demodulate_window,
    mmse_fde,
    mmse_weights,
    rake_demodulate,
)
from tdcslab.seqcore import xcorr_from_spectrum
from tdcslab.simharness import (
    _GAINS,
    _NOISE,
    _TAPS,
    ScenarioConfig,
    _ebn0_key,
    _make_sim,
    _stream_rng,
    build_system,
)

BLOCKS = 5


def engine_sim(**overrides):
    cfg = ScenarioConfig(**{**dict(n=16, l=8, m=8, u=2, nf_db=(6.0,),
                                   ebn0_db=(3.0,), engine="signal"),
                            **overrides})
    return _make_sim(cfg, build_system(cfg))


def key(sim):
    """The substream key of the simulator's one Eb/N0 value."""
    return _ebn0_key(sim.cfg.ebn0_db[0])


def chunk_links(sim):
    """Each user's links of chunk 4, drawn as one slab."""
    return next(sim._draws(key(sim), BLOCKS, 4, BLOCKS))[1]


def rows_equal(batch, rows):
    return [np.asarray(row).tobytes() for row in rows] == [
        row.tobytes() for row in batch]


def random_blocks(rng, n):
    return rng.standard_normal((BLOCKS, n)) + 1j * rng.standard_normal((BLOCKS, n))


def test_complex_gaussian_noise_rows():
    sim = engine_sim()
    buf = np.empty((BLOCKS, sim.noise_width), dtype=np.complex128)
    n0 = sim.n0[sim.cfg.ebn0_db[0]]
    batch = sim._noise(_stream_rng(sim.cfg.seed, _NOISE, key(sim), 4), buf, n0)
    rng = _stream_rng(sim.cfg.seed, _NOISE, key(sim), 4)
    rows = [complex_gaussian(rng, sim.noise_width, n0) for _ in range(BLOCKS)]
    assert rows_equal(batch, rows)


def test_draw_taps_rows():
    sim = engine_sim(channel="multipath")
    batch = chunk_links(sim)[0]
    rng = _stream_rng(sim.cfg.seed, _TAPS, key(sim), 4, user=0)
    assert rows_equal(batch, [draw_taps(sim.system.profile, rng)
                              for _ in range(BLOCKS)])


@pytest.mark.parametrize("phase_model", get_args(PhaseModel))
def test_gains_from_nf_link_rows(phase_model):
    sim = engine_sim(phase_model=phase_model)
    links = chunk_links(sim)
    rng = _stream_rng(sim.cfg.seed, _GAINS, key(sim), 4, user=0)
    rows = [gains_from_nf(1, 6.0, rng, phase_model).gains[0]
            for _ in range(BLOCKS)]
    assert rows_equal(links[0], rows)
    # an interferer's link is the same unit-amplitude draw; each point
    # scales the summed interference by the amplitude that gains_from_nf
    # gives an interferer (fixed-phase gains are that amplitude exactly)
    rng = _stream_rng(sim.cfg.seed, _GAINS, key(sim), 4, user=1)
    assert rows_equal(links[1], draw_gains(rng, (BLOCKS, 1), phase_model))
    gains = gains_from_nf(2, 6.0, rng, "fixed-phase").gains
    assert sim.nf_lin == [gains[0, 1].real]


def assert_decision_rows(mag, offsets, decisions, window):
    """The batch magnitudes and offsets are the per-block decisions' rows."""
    assert rows_equal(mag, [d.values for d in decisions])
    assert offsets.tolist() == [(d.argmax_shift - window.start) % window.circular_length
                                for d in decisions]


def test_demodulate_window_statistic_rows():
    rng = np.random.default_rng(5)
    ref = np.exp(2j * np.pi * rng.random(64))
    window = ShiftWindow(start=60, width=8, circular_length=64)
    r = random_blocks(rng, 64)
    spectra = np.fft.fft(r, axis=1)
    phi = xcorr_from_spectrum(spectra, np.conj(np.fft.fft(ref)))
    mag = np.empty((BLOCKS, window.width))
    offsets = decide(phi, None, [window.shifts()], mag=mag)
    assert_decision_rows(mag, offsets, [demodulate_window(row, ref, window)
                                        for row in r], window)


def test_rake_combiner_rows():
    rng = np.random.default_rng(6)
    ref = np.exp(2j * np.pi * rng.random(64))
    window = ShiftWindow(start=62, width=8, circular_length=64)
    r = random_blocks(rng, 64)
    taps = random_blocks(rng, 3)
    phi = xcorr_from_spectrum(np.fft.fft(r, axis=1), np.conj(np.fft.fft(ref)))
    fingers = [(window.shifts() - p) % 64 for p in range(3)]
    mag = np.empty((BLOCKS, window.width))
    offsets = decide(phi, taps, fingers, mag=mag)
    assert_decision_rows(mag, offsets, [rake_demodulate(row, ref, window, h)
                                        for row, h in zip(r, taps)], window)


def test_equal_peaks_decide_the_earlier_offset():
    # a length-4 transform of small integers is exact: phi = [0, 1, 0, 1]
    ref = np.array([1, 0, 0, 0], dtype=complex)
    r = np.array([[0, 1, 0, 1]], dtype=complex)
    window = ShiftWindow(start=0, width=4, circular_length=4)
    phi = xcorr_from_spectrum(np.fft.fft(r, axis=1), np.conj(np.fft.fft(ref)))
    assert phi.tobytes() == r.tobytes()
    mag = np.empty((1, window.width))
    offsets = decide(phi, None, [window.shifts()], mag=mag)
    assert offsets.tolist() == [1]
    assert_decision_rows(mag, offsets, [demodulate_window(r[0], ref, window)], window)


def test_mmse_fde_weight_rows():
    rng = np.random.default_rng(7)
    r = random_blocks(rng, 32)
    h_freq = np.fft.fft(random_blocks(rng, 4), n=32, axis=1)
    snr = 40.0
    weights = mmse_weights(h_freq, 1.0 / snr)
    batch = np.fft.ifft(np.fft.fft(r, axis=1) * weights, axis=1)
    assert rows_equal(batch, [mmse_fde(row, h, snr) for row, h in zip(r, h_freq)])
