"""Correlation demodulation, RAKE combining, and frequency-domain equalization.

The detector correlates the received block against the user's local reference
waveform and picks the largest-magnitude value inside the user's shift window
(magnitude, because interferer and channel phases are unknown).  In multipath,
per-path correlator outputs are combined with conjugated channel taps before
the peak search; path delays appear as right cyclic shifts, so path p's peak
sits at ``tau_i - p`` and the combiner reads ``phi(tau - p)`` (the window's
RAKE fingers); a single path is the one-tap case.  A one-tap MMSE
frequency-domain equalizer serves the full-range CCSK baseline.

``decide`` is the package's one decision: the Monte Carlo engine calls it
on whole tiles, and ``rake_demodulate`` checks its input and makes a
one-row call.  ``mmse_weights`` also takes one row per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import ShiftWindow, _check_order
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


def demodulate_window(r, c, window: ShiftWindow) -> DecisionStatistic:
    """Correlation peak detection restricted to one user's shift window.

    A single path is the one-tap case of ``rake_demodulate``: the statistic
    is the magnitude of the periodic cross-correlation of the received block
    against the local reference over the window.
    """
    return rake_demodulate(r, c, window, (1.0,))


def rake_demodulate(r, c, window: ShiftWindow, taps,
                    max_delay: int | None = None) -> DecisionStatistic:
    """Maximal-ratio combining over known desired-link taps, then peak search.

    The statistic is ``|sum_p conj(h_p) * phi(tau - p)|`` for each window
    shift, where ``phi`` is the periodic cross-correlation (fast transform
    path) of the received block against the reference; with perfect tap
    knowledge the per-path peaks add coherently.  One tap reads ``|phi|``
    as it is (``decide``).  ``max_delay`` (typically the plan's guard
    allowance) bounds the admissible channel order.  The window width must
    be a power of two, as in ``modulate``, so every offset has a bit label.
    """
    rr = as_complex_vector(r, "r")
    cc = as_complex_vector(c, "c")
    if rr.size != cc.size:
        raise DimensionError("received block and reference differ in length")
    if window.circular_length != rr.size:
        raise ParameterError("window circle differs from block length")
    _check_order("window width", window.width)
    h = np.asarray(taps, dtype=np.complex128).ravel()
    if h.size < 1 or not np.all(np.isfinite(h)):
        raise ParameterError("need at least one tap, all finite")
    if max_delay is not None and h.size - 1 > max_delay:
        raise ParameterError(
            f"channel order {h.size - 1} exceeds the allowed delay {max_delay}"
        )
    mag = np.empty((1, window.width))
    off = int(decide(periodic_xcorr_fft(rr, cc)[None, :], h[None, :],
                     window.fingers(h.size), mag=mag)[0])
    return DecisionStatistic(
        values=mag[0],
        argmax_shift=(window.start + off) % window.circular_length,
        argmax_bits=index_to_bits(off, window.width.bit_length() - 1),
        window=window,
    )


def decide(phi: np.ndarray, taps, fingers, out=None, mag=None) -> np.ndarray:
    """Decided window offset of each row of ``phi``, one row per block.

    The window is read through ``fingers`` (``ShiftWindow.fingers``): one
    finger's columns as they are, several RAKE combined with ``taps`` (one
    row per block; unread for one finger).  The offset is the first largest
    magnitude, i.e. the earliest window position among equal peaks.  ``mag``
    receives the magnitudes and ``out`` the offsets when given.
    """
    if len(fingers) == 1:
        stat = phi[:, fingers[0]]
    else:
        stat = rake_combine(phi, taps, fingers)
    return np.argmax(np.abs(stat, out=mag), axis=1, out=out)


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

