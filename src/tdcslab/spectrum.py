"""Spectrum marking vectors and sensing-mismatch modeling.

A spectrum mark is a binary availability vector over N bins: bit k is 1 when
bin k may be used by the secondary network.  Marks are produced from band
lists (bandwidth plus unavailable intervals) and compared through a normalized
set-overlap coefficient; ``mismatch_mask`` fabricates a receiver-side mark
whose overlap with the transmitter mark hits a target coefficient, preserving
the number of available bins so energy normalization is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class SpectrumMark:
    """Binary availability vector over spectrum bins."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError("mark must be a non-empty 1-D vector")
        if not np.all((arr == 0) | (arr == 1)):
            raise ParameterError("mark entries must be 0 or 1")
        arr = arr.astype(np.int8)
        if int(arr.sum()) < 1:
            raise ParameterError("mark must leave at least one bin available")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def n(self) -> int:
        return self.bits.size

    @property
    def n_available(self) -> int:
        return int(self.bits.sum())

    @property
    def beta(self) -> float:
        """Fraction of available bins."""
        return self.n_available / self.n


def band_union(total_bandwidth: float, bands) -> tuple:
    """Sorted union of ``(low, high)`` bands, overlapping or touching ones
    merged (so a union is its own union); ``ParameterError`` unless the
    bandwidth is positive and finite and each band lies within it."""
    if not 0 < total_bandwidth < np.inf:
        raise ParameterError(
            f"bandwidth must be positive and finite, got {total_bandwidth!r}")
    union = []
    for lo, hi in sorted((float(a), float(b)) for a, b in bands):
        if not (0.0 <= lo < hi <= total_bandwidth):
            raise ParameterError(
                f"band ({lo}, {hi}) outside [0, {total_bandwidth}]"
            )
        if union and lo <= union[-1][1]:
            union[-1] = (union[-1][0], max(hi, union[-1][1]))
        else:
            union.append((lo, hi))
    return tuple(union)


def mark_from_bands(total_bandwidth: float, unavailable_bands, n_bins: int) -> SpectrumMark:
    """Quantize unavailable frequency bands onto an ``n_bins``-bin mark
    (``n_bins >= 4``).

    Bin k spans ``[k*df, (k+1)*df)`` with ``df = total_bandwidth / n_bins``;
    a bin is marked unavailable when it overlaps any listed band with positive
    measure (conservative protection of the band's occupant).  The bandwidth
    (any one unit) and the bands must meet ``band_union``'s rule; the bins
    marked are those of their union, since a bin overlaps the union exactly
    when it overlaps one of its bands.
    """
    if n_bins < 4:
        raise ParameterError("need at least 4 bins")
    # the bandwidth is checked before df is formed (inf would warn)
    union = band_union(total_bandwidth, unavailable_bands)
    bits = np.ones(n_bins, dtype=np.int8)
    df = total_bandwidth / n_bins
    edges_lo = np.arange(n_bins) * df
    edges_hi = edges_lo + df
    for lo, hi in union:
        bits[(edges_lo < hi) & (edges_hi > lo)] = 0
    return SpectrumMark(bits)


def correlation_coefficient(a: SpectrumMark, b: SpectrumMark) -> float:
    """Normalized overlap of two marks' available sets.

    Returns ``|A ∩ B| / sqrt(|A| * |B|)``, which is 1 exactly when the
    available sets coincide and 0 when they are disjoint.
    """
    if a.n != b.n:
        raise DimensionError(f"mark length mismatch: {a.n} vs {b.n}")
    shared = int(np.sum((a.bits == 1) & (b.bits == 1)))
    return shared / np.sqrt(a.n_available * b.n_available)


def mismatch_mask(tx: SpectrumMark, eta_target: float, seed: int) -> SpectrumMark:
    """Receiver-side mark mismatched from ``tx`` to a target overlap.

    Pairs of bins are swapped (one available bin disabled, one occupied bin
    enabled), each swap removing exactly one shared bin while preserving the
    available count.  The number of swaps is the nearest integer realizing
    ``eta_target``; the achieved coefficient therefore differs from the target
    by at most ``1/N_C``.  Deterministic for a fixed seed.
    """
    if not 0.0 < eta_target <= 1.0:
        raise ParameterError("eta_target must lie in (0, 1]")
    n_c = tx.n_available
    swaps = int(round((1.0 - eta_target) * n_c))
    swaps = min(swaps, n_c, tx.n - n_c)
    rng = np.random.default_rng(seed)
    bits = np.array(tx.bits)
    disable = rng.choice(np.flatnonzero(bits == 1), size=swaps, replace=False)
    enable = rng.choice(np.flatnonzero(bits == 0), size=swaps, replace=False)
    bits[disable] = 0
    bits[enable] = 1
    return SpectrumMark(bits)
