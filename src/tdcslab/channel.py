"""Synchronous multiuser channel models, deterministic under seeds.

Covers near-far single-path gain matrices (interferer power fixed by the
near-far factor, phases per a selectable model), a 6-tap rural-area multipath
profile with Rayleigh taps, AWGN calibrated from Eb/N0, and the application of
each to per-user transmit blocks.  Path delays act as right cyclic shifts once
the cyclic prefix is stripped, as produced by a causal FIR on the prefixed
block.

The draws are batch-first (any leading block axes) and of unit amplitude;
a caller scales interferer links by the near-far amplitude.  The Monte Carlo
engine draws its chunks with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

PHASE_MODELS = ("fixed-phase", "uniform-phase", "rayleigh")


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _as_blocks(blocks) -> np.ndarray:
    rows = [np.asarray(getattr(b, "x", b), dtype=np.complex128) for b in blocks]
    length = rows[0].size
    if any(r.size != length for r in rows):
        raise DimensionError("per-user blocks must share one length")
    return np.stack(rows)


def complex_gaussian(rng: np.random.Generator, shape, variance=1.0,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Circular complex Gaussian samples with the given per-sample variance.

    Consecutive normals of ``rng`` are the real and imaginary parts, scaled
    by ``1/sqrt(2)`` and then by ``sqrt(variance)`` (a scalar, or per-sample
    values broadcasting against ``shape``).  ``out``, a C-contiguous complex
    array of ``shape``, receives the samples instead of a new array.
    """
    z = np.empty(shape, dtype=np.complex128) if out is None else out
    parts = z[..., None].view(np.float64)
    rng.standard_normal(out=parts)
    parts *= 1.0 / np.sqrt(2.0)
    z *= np.sqrt(variance)
    return z


def draw_gains(rng: np.random.Generator, shape, phase_model: str) -> np.ndarray:
    """Unit-amplitude link gains under one of ``PHASE_MODELS``.

    "fixed-phase" gives ones and draws nothing, "uniform-phase" a uniform
    phase per gain, "rayleigh" unit-power complex Gaussians.
    """
    if phase_model == "fixed-phase":
        return np.ones(shape, dtype=np.complex128)
    if phase_model == "uniform-phase":
        return np.exp(2j * np.pi * rng.random(shape))
    return complex_gaussian(rng, shape)  # rayleigh


@dataclass(frozen=True)
class GainMatrix:
    """Per-(receiver, transmitter) path gains with a common near-far factor."""

    gains: np.ndarray
    nf_db: float

    def __post_init__(self):
        arr = np.asarray(self.gains, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError("gain matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "gains", arr)

    @property
    def n_users(self) -> int:
        return self.gains.shape[0]


def gains_from_nf(u: int, nf_db: float, seed,
                  phase_model: str = "uniform-phase") -> GainMatrix:
    """Draw a gain matrix for ``u`` users at a given near-far factor.

    Desired links (diagonal) are normalized; every interferer arrives with
    power ``10^(NF/10)`` relative to the desired link.  Phases follow the
    selected model: "fixed-phase" keeps all gains real-positive,
    "uniform-phase" (default) rotates each entry by an independent uniform
    phase, "rayleigh" draws complex Gaussian entries whose mean square powers
    match the same profile (magnitudes then fade too).
    """
    if u < 1:
        raise ParameterError("need at least one user")
    if phase_model not in PHASE_MODELS:
        raise ParameterError(f"unknown phase model {phase_model!r}")
    if not np.isfinite(nf_db):
        raise ParameterError(f"near-far factor must be finite, got {nf_db!r}")
    gains = draw_gains(_as_rng(seed), (u, u), phase_model)
    gains[~np.eye(u, dtype=bool)] *= 10.0 ** (nf_db / 20.0)
    return GainMatrix(gains=gains, nf_db=nf_db)


@dataclass(frozen=True)
class NoiseSpec:
    """AWGN level derived from Eb/N0, modulation order, and symbol energy."""

    ebn0_db: float
    m_order: int
    symbol_energy: float

    def __post_init__(self):
        if not -np.inf < self.ebn0_db:
            raise ParameterError(
                f"Eb/N0 must be a number or +inf, got {self.ebn0_db!r}")
        if self.m_order < 2 or (self.m_order & (self.m_order - 1)):
            raise ParameterError("modulation order must be a power of two >= 2")
        if self.symbol_energy <= 0:
            raise ParameterError("symbol energy must be positive")

    @property
    def bits_per_symbol(self) -> int:
        return self.m_order.bit_length() - 1

    @property
    def n0(self) -> float:
        """Noise energy per complex sample (0.0 at an Eb/N0 of +inf)."""
        return self.symbol_energy / (
            self.bits_per_symbol * 10.0 ** (self.ebn0_db / 10.0)
        )


def apply_single_path(blocks, gains: GainMatrix, noise: NoiseSpec | None,
                      receiver: int, seed) -> np.ndarray:
    """Superpose all users' blocks at one receiver and add AWGN.

    ``blocks`` holds one equal-length block per user (arrays or modulated
    blocks); ``receiver`` indexes the observing user (0-based).  Passing
    ``noise=None`` gives the noiseless channel.
    """
    xs = _as_blocks(blocks)
    if xs.shape[0] != gains.n_users:
        raise DimensionError("one block per user required")
    if not 0 <= receiver < gains.n_users:
        raise ParameterError(f"receiver index {receiver} out of range")
    r = gains.gains[receiver] @ xs
    if noise is not None:
        rng = _as_rng(seed)
        r = r + complex_gaussian(rng, xs.shape[1], noise.n0)
    return r


@dataclass(frozen=True)
class MultipathProfile:
    """Tap delays (samples) and average powers of a fading channel."""

    delays: tuple
    powers_db: tuple

    def __post_init__(self):
        if len(self.delays) != len(self.powers_db) or not self.delays:
            raise ParameterError("delays and powers must pair up")
        if any(d < 0 or int(d) != d for d in self.delays):
            raise ParameterError("delays must be non-negative integers")
        if len(set(self.delays)) != len(self.delays):
            raise ParameterError("delays must be distinct")
        object.__setattr__(self, "delays", tuple(int(d) for d in self.delays))
        object.__setattr__(self, "powers_db", tuple(float(p) for p in self.powers_db))

    @property
    def t_max(self) -> int:
        return max(self.delays)

    def mean_powers(self) -> np.ndarray:
        """Dense per-delay mean powers, normalized to unit total energy."""
        dense = np.zeros(self.t_max + 1)
        lin = 10.0 ** (np.asarray(self.powers_db) / 10.0)
        dense[list(self.delays)] = lin / lin.sum()
        return dense


COST207_RA_DELAYS_S = tuple(i * 1e-7 for i in range(6))
COST207_RA_POWERS_DB = (0.0, -4.0, -8.0, -12.0, -16.0, -20.0)


def cost207_ra6(sample_period: float = 1e-7) -> MultipathProfile:
    """Six-tap rural-area profile on a 0.1 us delay grid.

    ``sample_period`` (seconds) must divide every tap delay; at the native
    10 MHz rate the taps land on sample delays 0..5 with average powers
    0 to -20 dB in 4 dB steps, normalized to unit total energy.
    """
    if not 0 < sample_period < np.inf:
        raise ParameterError(
            f"sample period must be positive and finite, got {sample_period!r}")
    delays = []
    for d in COST207_RA_DELAYS_S:
        ratio = d / sample_period
        if abs(ratio - round(ratio)) > 1e-6:
            raise ParameterError(
                f"tap delay {d} s is off the {sample_period} s sample grid"
            )
        delays.append(int(round(ratio)))
    if len(set(delays)) != len(delays):
        raise ParameterError("sample period merges distinct tap delays")
    return MultipathProfile(delays=tuple(delays), powers_db=COST207_RA_POWERS_DB)


def draw_taps(profile: MultipathProfile, rng, shape=()) -> np.ndarray:
    """Rayleigh tap realizations: independent complex Gaussians per tap.

    Returns an array of shape ``shape + (t_max+1,)`` whose mean square matches
    the profile's normalized powers (so the desired link has unit average
    channel energy).
    """
    rng = _as_rng(rng)
    powers = profile.mean_powers()
    return complex_gaussian(rng, tuple(np.atleast_1d(shape)) + (powers.size,), powers)


def apply_multipath(blocks, taps, t_g: int, noise: NoiseSpec | None, seed) -> np.ndarray:
    """Pass prefixed per-user blocks through FIR channels and add AWGN.

    ``taps[j]`` is the dense impulse response from transmitter ``j`` to the
    observing receiver.  A causal FIR is applied to each prefixed block and
    truncated to the block length; provided ``t_g`` covers the channel order,
    removing the prefix afterwards yields exactly the circular-delay sum of
    the unprefixed blocks.
    """
    xs = _as_blocks(blocks)
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.ndim != 2 or taps.shape[0] != xs.shape[0]:
        raise DimensionError("need one tap vector per user")
    t_max = taps.shape[1] - 1
    if t_g < t_max:
        raise ParameterError(f"prefix length {t_g} shorter than channel order {t_max}")
    length = xs.shape[1]
    r = np.zeros(length, dtype=np.complex128)
    for j in range(xs.shape[0]):
        r += np.convolve(xs[j], taps[j])[:length]
    if noise is not None:
        rng = _as_rng(seed)
        r = r + complex_gaussian(rng, length, noise.n0)
    return r
