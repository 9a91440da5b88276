"""Correlation demodulation, RAKE combining, and frequency-domain equalization.

The detector correlates the received block against the user's local reference
waveform and picks the largest-magnitude value inside the user's shift window
(magnitude, because interferer and channel phases are unknown).  In multipath,
per-path correlator outputs are combined with conjugated channel taps before
the peak search; path delays appear as right cyclic shifts, so path p's peak
sits at ``tau_i - p`` and the combiner reads ``phi(tau - p)``.  A one-tap MMSE
frequency-domain equalizer serves the full-range CCSK baseline.

``rake_combine`` and ``mmse_weights`` take one row per block: the Monte
Carlo engine calls them on whole tiles, and the per-block functions check
their input and make a one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import ShiftWindow
from .errors import DimensionError, ParameterError
from .seqcore import as_complex_vector, periodic_xcorr_fft
from .waveform import index_to_bits


@dataclass(frozen=True)
class DecisionStatistic:
    """Window statistic with the decided shift and its bit label."""

    values: np.ndarray
    argmax_shift: int
    argmax_bits: tuple
    window: ShiftWindow

    def __post_init__(self):
        if not self.window.contains(self.argmax_shift):
            raise ParameterError("decided shift fell outside the window")


def _decide(stat: np.ndarray, window: ShiftWindow) -> DecisionStatistic:
    # np.argmax takes the first maximum, i.e. the earliest window position
    off = int(np.argmax(stat))
    shift = int((window.start + off) % window.circular_length)
    n_bits = window.width.bit_length() - 1
    return DecisionStatistic(
        values=stat,
        argmax_shift=shift,
        argmax_bits=index_to_bits(off, n_bits),
        window=window,
    )


def _correlate(r, c, window: ShiftWindow) -> np.ndarray:
    """Periodic correlation of one received block against the reference,
    after checking that both fit the window's circle."""
    rr = as_complex_vector(r, "r")
    cc = as_complex_vector(c, "c")
    if rr.size != cc.size:
        raise DimensionError("received block and reference differ in length")
    if window.circular_length != rr.size:
        raise ParameterError("window circle differs from block length")
    return periodic_xcorr_fft(rr, cc)


def demodulate_window(r, c, window: ShiftWindow) -> DecisionStatistic:
    """Correlation peak detection restricted to one user's shift window.

    Computes the periodic cross-correlation of the received block against the
    local reference (fast transform path), takes magnitudes over the window,
    and decides the shift with the largest value.
    """
    phi = _correlate(r, c, window)
    return _decide(np.abs(phi[window.shifts()]), window)


def rake_demodulate(r, c, window: ShiftWindow, taps,
                    max_delay: int | None = None) -> DecisionStatistic:
    """Maximal-ratio combining over known desired-link taps, then peak search.

    The statistic is ``|sum_p conj(h_p) * phi(tau - p)|`` for each window
    shift; with perfect tap knowledge the per-path peaks add coherently.
    ``max_delay`` (typically the plan's guard allowance) bounds the admissible
    channel order.
    """
    phi = _correlate(r, c, window)
    h = np.asarray(taps, dtype=np.complex128).ravel()
    if h.size < 1 or not np.all(np.isfinite(h)):
        raise ParameterError("need at least one tap, all finite")
    if max_delay is not None and h.size - 1 > max_delay:
        raise ParameterError(
            f"channel order {h.size - 1} exceeds the allowed delay {max_delay}"
        )
    shifts = window.shifts()
    fingers = [(shifts - p) % window.circular_length for p in range(h.size)]
    combined = rake_combine(phi[None, :], h[None, :], fingers)[0]
    return _decide(np.abs(combined), window)


def rake_combine(phi: np.ndarray, taps: np.ndarray, fingers) -> np.ndarray:
    """Maximal-ratio combining of RAKE fingers, one row per block.

    ``phi`` holds each block's correlation against the reference, ``taps``
    its desired-link taps, and ``fingers[p]`` indexes the columns of ``phi``
    that path ``p`` delays into the window (the window read ``p`` lags
    early).  Returns ``sum_p conj(h_p) * phi[:, fingers[p]]``.
    """
    terms = (np.conj(taps[:, p, None]) * phi[:, cols]
             for p, cols in enumerate(fingers))
    combined = next(terms)
    for term in terms:
        combined += term
    return combined


def mmse_weights(h_freq: np.ndarray, inv_snr) -> np.ndarray:
    """One-tap MMSE weights ``conj(H) / (|H|^2 + 1/snr)``, given ``1/snr``."""
    return np.conj(h_freq) / (np.abs(h_freq) ** 2 + inv_snr)


def mmse_fde(r, channel_freq_response, snr_per_bin) -> np.ndarray:
    """One-tap MMSE frequency-domain equalization with known response.

    Each bin is scaled by ``mmse_weights``; ``snr_per_bin`` may be a scalar
    or a per-bin vector and must be positive.
    """
    rr = as_complex_vector(r, "r")
    h = as_complex_vector(channel_freq_response, "channel_freq_response")
    if h.shape != rr.shape:
        raise DimensionError("frequency response length differs from block")
    snr = np.asarray(snr_per_bin, dtype=np.float64)
    if not np.all(snr > 0):  # false for NaN
        raise ParameterError("per-bin SNR must be positive")
    return np.fft.ifft(np.fft.fft(rr) * mmse_weights(h, 1.0 / snr))


def symbol_to_bits(shift: int, window: ShiftWindow) -> tuple:
    """Bit label of a shift inside the window (natural binary, MSB first)."""
    off = window.offset_of(shift)
    return index_to_bits(off, window.width.bit_length() - 1)


def bit_errors(sent, decoded) -> int:
    """Hamming distance between two equal-length bit vectors."""
    sent = tuple(int(b) for b in sent)
    decoded = tuple(int(b) for b in decoded)
    if len(sent) != len(decoded):
        raise DimensionError("bit vectors differ in length")
    return sum(a != b for a, b in zip(sent, decoded))
