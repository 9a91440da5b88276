"""Polyphase sequences and periodic/aperiodic correlation.

Provides perfect-autocorrelation sequence generators (Zadoff-Chu, the built-in
length-16 quadriphase code), circular and aperiodic cross-correlation with both
a direct modular-index sum and an FFT fast path, Kronecker time-frequency
synthesis of length-L*N spreading waveforms, and verification of their
zero-correlation zone.

Shift convention: ``periodic_xcorr(u, v)[tau] = sum_n u(n) * conj(v((n+tau) mod N))``,
i.e. ``tau`` is a left cyclic shift of ``v``.  Every module in the package uses
this one convention.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DimensionError, ParameterError

# Unit-modulus check for polyphase sequences.
UNIT_MODULUS_ATOL = 1e-12
# "Identically zero" correlation values are tested against this scale times
# the sequence length (transform noise grows with length).
ZERO_TOL_SCALE = 1e-9


def as_complex_vector(x, name: str = "signal") -> np.ndarray:
    """Coerce ``x`` to a 1-D complex128 array with finite entries.

    Accepts plain arrays as well as objects exposing ``elements`` or
    ``samples`` (the domain wrappers used around the package).
    """
    if hasattr(x, "elements"):
        x = x.elements
    elif hasattr(x, "samples"):
        x = x.samples
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class PolyphaseSequence:
    """Unit-modulus complex sequence (a spreading code or phase sequence)."""

    elements: np.ndarray

    def __post_init__(self):
        arr = as_complex_vector(self.elements, "elements")
        if np.max(np.abs(np.abs(arr) - 1.0)) > UNIT_MODULUS_ATOL:
            raise ParameterError("polyphase elements must have unit modulus")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    def __len__(self) -> int:
        return self.elements.size


@dataclass(frozen=True)
class CorrelationProfile:
    """Correlation values indexed by shift tau in [0, len-1].

    ``kind`` is ``"periodic"`` (circular) or ``"aperiodic"`` (one-sided,
    non-wrapping lags).
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("periodic", "aperiodic"):
            raise ParameterError(f"unknown correlation kind {self.kind!r}")
        arr = as_complex_vector(self.values, "values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.size


def _pair(u, v):
    uu = as_complex_vector(u, "u")
    vv = as_complex_vector(v, "v")
    if uu.size != vv.size:
        raise DimensionError(f"length mismatch: {uu.size} vs {vv.size}")
    return uu, vv


def periodic_xcorr_direct(u, v) -> np.ndarray:
    """Circular cross-correlation by the literal modular-index sum, O(N^2)."""
    uu, vv = _pair(u, v)
    n = uu.size
    # row tau of the index matrix is (arange + tau) mod n
    idx = (np.arange(n)[None, :] + np.arange(n)[:, None]) % n
    return np.conj(vv)[idx] @ uu


def periodic_xcorr_fft(u, v) -> np.ndarray:
    """Circular cross-correlation via the transform identity, O(N log N)."""
    uu, vv = _pair(u, v)
    return xcorr_from_spectrum(np.fft.fft(uu), np.conj(np.fft.fft(vv)))


def xcorr_from_spectrum(spectrum: np.ndarray, conj_ref: np.ndarray) -> np.ndarray:
    """Last step of ``periodic_xcorr_fft``, in place along the last axis.

    Overwrites ``spectrum`` (``fft(u)``, one row per block) with each row's
    correlation against ``v``, given ``conj_ref = conj(fft(v))``.  The ``1/N``
    scale multiplies the float view: numpy's complex-by-real division
    without its complex loop.
    """
    spectrum *= conj_ref
    np.fft.fft(spectrum, axis=-1, out=spectrum)
    parts = spectrum.view(np.float64)
    parts *= 1.0 / spectrum.shape[-1]
    return spectrum


def periodic_xcorr(u, v) -> CorrelationProfile:
    """Periodic cross-correlation profile of ``u`` against ``v``.

    Parameters
    ----------
    u, v : array_like
        Complex vectors of equal length ``N``.

    Returns
    -------
    CorrelationProfile
        ``values[tau] = sum_n u(n) conj(v((n+tau) mod N))`` for tau in [0, N),
        through the FFT; ``periodic_xcorr_direct`` is the literal O(N^2)
        modular sum, and the two agree within ``1e-9 * N``.
    """
    return CorrelationProfile(values=periodic_xcorr_fft(u, v), kind="periodic")


def aperiodic_xcorr(u, v) -> CorrelationProfile:
    """Aperiodic cross-correlation ``psi[tau] = sum_i u(i) conj(v(i+tau))``.

    Lags run over tau in [0, N); ``psi[0]`` is the full inner product.
    """
    uu, vv = _pair(u, v)
    n = uu.size
    up = np.concatenate([uu, np.zeros(n, dtype=np.complex128)])
    vp = np.concatenate([vv, np.zeros(n, dtype=np.complex128)])
    full = np.fft.fft(np.fft.fft(up) * np.conj(np.fft.fft(vp))) / (2 * n)
    return CorrelationProfile(values=full[:n], kind="aperiodic")


def gen_zadoff_chu(length: int, root: int) -> PolyphaseSequence:
    """Zadoff-Chu sequence of the given length and root.

    The root must be coprime with the length; the resulting sequence has a
    perfect periodic autocorrelation (peak ``length`` at shift 0, zero
    elsewhere).
    """
    if length < 2:
        raise ParameterError("Zadoff-Chu length must be >= 2")
    if gcd(root, length) != 1:
        raise ParameterError(
            f"root {root} is not coprime with length {length} (gcd="
            f"{gcd(root, length)})"
        )
    n = np.arange(length)
    if length % 2:
        phase = -np.pi * root * n * (n + 1) / length
    else:
        phase = -np.pi * root * n * n / length
    return PolyphaseSequence(np.exp(1j * phase))


def builtin_quadriphase16() -> PolyphaseSequence:
    """The length-16 quadriphase code with perfect periodic autocorrelation."""
    j = 1j
    vals = np.array(
        [1, 1, 1, 1, 1, j, -1, -j, 1, -1, 1, -1, 1, -j, -1, j],
        dtype=np.complex128,
    )
    return PolyphaseSequence(vals)


def is_perfect_sequence(seq) -> bool:
    """True when the periodic ACF is ``len(seq)`` at shift 0 and ~0 elsewhere."""
    arr = as_complex_vector(seq, "seq")
    acf = periodic_xcorr_fft(arr, arr)
    tol = ZERO_TOL_SCALE * arr.size
    return (
        abs(acf[0] - arr.size) < tol and np.max(np.abs(acf[1:]), initial=0.0) < tol
    )


def kronecker_synthesize(a, b) -> np.ndarray:
    """Two-dimensional time-frequency synthesis ``c(l*N + m) = a(l) * b(m)``.

    ``a`` is the length-L time sequence (L >= 2) and ``b`` the length-N basis
    waveform; the result has length L*N and energy ``L * ||b||^2`` when ``a``
    is unit-modulus.
    """
    aa = as_complex_vector(a, "a")
    bb = as_complex_vector(b, "b")
    if aa.size < 2:
        raise ParameterError(
            "time sequence must have length >= 2 (the zero zone (L-2)N+1 "
            "degenerates below that)"
        )
    return (aa[:, None] * bb[None, :]).ravel()


@dataclass(frozen=True)
class ZeroZoneReport:
    """Result of checking the zero-correlation zone of a Kronecker pair."""

    zero_count: int
    required_count: int
    max_sidelobe_in_zone: float
    identity_residual: float
    tolerance: float
    passed: bool


def zero_zone_verify(c_i, c_j, n_bins: int, l_time: int) -> ZeroZoneReport:
    """Verify the zero zone of two Kronecker waveforms sharing a perfect code.

    Both inputs must have length ``l_time * n_bins`` and be synthesized from a
    common perfect time sequence.  The report counts shifts with
    ``|phi| < ZERO_TOL_SCALE * L * N``, measures the largest magnitude inside
    the guaranteed zone ``N <= tau <= LN - N``, and evaluates the residual of the
    sidelobe identity ``phi(tau) = L * psi_{b_i,b_j}(tau)`` for ``|tau| < N``
    (the basis waveforms are recovered from the first block of each input;
    the common leading code element cancels because it has unit modulus).
    """
    ci = as_complex_vector(c_i, "c_i")
    cj = as_complex_vector(c_j, "c_j")
    ln = l_time * n_bins
    if ci.size != ln or cj.size != ln:
        raise DimensionError(
            f"signals must have length L*N = {ln}, got {ci.size} and {cj.size}"
        )
    tol = ZERO_TOL_SCALE * ln
    phi = periodic_xcorr_fft(ci, cj)
    zero_count = int(np.sum(np.abs(phi) < tol))
    zone = np.abs(phi[n_bins:ln - n_bins + 1])
    max_in_zone = float(zone.max()) if zone.size else 0.0

    b_i = ci[:n_bins]
    b_j = cj[:n_bins]
    psi_ij = aperiodic_xcorr(b_i, b_j).values
    psi_ji = aperiodic_xcorr(b_j, b_i).values
    res_pos = np.max(np.abs(phi[:n_bins] - l_time * psi_ij))
    # negative shifts tau = -t live at circular index LN - t, where
    # psi(-t) = conj(psi_{ji}(t))
    neg_idx = ln - np.arange(1, n_bins)
    res_neg = np.max(np.abs(phi[neg_idx] - l_time * np.conj(psi_ji[1:n_bins])))
    residual = float(max(res_pos, res_neg))

    required = (l_time - 2) * n_bins + 1
    return ZeroZoneReport(
        zero_count=zero_count,
        required_count=required,
        max_sidelobe_in_zone=max_in_zone,
        identity_residual=residual,
        tolerance=tol,
        passed=zero_count >= required,
    )


def export_complex_csv(values, path) -> None:
    """Write a complex vector as CSV rows of (index, real, imag)."""
    arr = as_complex_vector(values, "values")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "real", "imag"])
        for i, z in enumerate(arr):
            writer.writerow([i, repr(float(z.real)), repr(float(z.imag))])
