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
from typing import Literal

import numpy as np

from .allocation import _check_order
from .errors import DimensionError, ParameterError

PhaseModel = Literal["fixed-phase", "uniform-phase", "rayleigh"]


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


def draw_gains(rng: np.random.Generator, shape, phase_model: PhaseModel) -> np.ndarray:
    """Unit-amplitude link gains under one of ``PhaseModel``'s values.

    "fixed-phase" gives ones and draws nothing, "uniform-phase" a uniform
    phase per gain, "rayleigh" unit-power complex Gaussians; any other model
    is a ``ParameterError``.
    """
    if phase_model == "fixed-phase":
        return np.ones(shape, dtype=np.complex128)
    if phase_model == "uniform-phase":
        return np.exp(2j * np.pi * rng.random(shape))
    if phase_model == "rayleigh":
        return complex_gaussian(rng, shape)
    raise ParameterError(f"unknown phase model {phase_model!r}")


@dataclass(frozen=True)
class GainMatrix:
    """Per-(receiver, transmitter) path gains with a common near-far factor."""

    gains: np.ndarray

    def __post_init__(self):
        arr = np.array(self.gains, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError("gain matrix must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "gains", arr)

    @property
    def n_users(self) -> int:
        return self.gains.shape[0]


def nf_amplitude(nf_db: float) -> float:
    """Interferer amplitude ``10^(NF/20)`` of a near-far factor in dB;
    ``ParameterError`` unless both are finite."""
    try:
        amplitude = 10.0 ** (float(nf_db) / 20.0)
    except OverflowError:
        amplitude = np.inf
    if not (np.isfinite(nf_db) and np.isfinite(amplitude)):
        raise ParameterError(
            f"near-far factor {nf_db!r} dB has no finite amplitude")
    return amplitude


def ebn0_linear(ebn0_db: float) -> float:
    """Eb/N0 as a power ratio, ``10^(Eb/N0 / 10)``; ``ParameterError`` unless
    it is ``+inf`` (noiseless) or within +-1000 dB, where the noise level
    ``Es / (k * ratio)`` stays within ``1e+-100`` of the symbol energy and
    every kernel's noise arithmetic is finite (near +-3000 dB and beyond,
    computing it overflows, divides by zero or gives ``inf``)."""
    if not (ebn0_db == np.inf or -1000.0 <= ebn0_db <= 1000.0):
        raise ParameterError(f"Eb/N0 {ebn0_db!r} dB is out of range: "
                             "a number in [-1000, 1000] dB or +inf")
    return 10.0 ** (ebn0_db / 10.0)


def gains_from_nf(u: int, nf_db: float, seed,
                  phase_model: PhaseModel = "uniform-phase") -> GainMatrix:
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
    amplitude = nf_amplitude(nf_db)
    gains = draw_gains(np.random.default_rng(seed), (u, u), phase_model)
    gains[~np.eye(u, dtype=bool)] *= amplitude
    return GainMatrix(gains=gains)


@dataclass(frozen=True)
class NoiseSpec:
    """AWGN level derived from Eb/N0 (within ``ebn0_linear``'s range, so
    ``n0`` is finite), modulation order, and symbol energy."""

    ebn0_db: float
    m_order: int
    symbol_energy: float

    def __post_init__(self):
        ebn0_linear(self.ebn0_db)
        _check_order("modulation order", self.m_order)
        if self.symbol_energy <= 0:
            raise ParameterError("symbol energy must be positive")

    @property
    def bits_per_symbol(self) -> int:
        return self.m_order.bit_length() - 1

    @property
    def n0(self) -> float:
        """Noise energy per complex sample (0.0 at an Eb/N0 of +inf)."""
        return self.symbol_energy / (
            self.bits_per_symbol * ebn0_linear(self.ebn0_db))


def apply_single_path(blocks, gains: GainMatrix, noise: NoiseSpec | None,
                      receiver: int, seed) -> np.ndarray:
    """Superpose all users' blocks at one receiver and add AWGN.

    ``blocks`` holds one equal-length block per user (arrays or modulated
    blocks); ``receiver`` indexes the observing user (0-based).  Passing
    ``noise=None`` gives the noiseless channel.  A single path is the
    one-tap case of ``apply_multipath``, with no prefix to cover.
    """
    if not 0 <= receiver < gains.n_users:
        raise ParameterError(f"receiver index {receiver} out of range")
    return apply_multipath(blocks, gains.gains[receiver][:, None], 0, noise, seed)


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


def cost207_ra6() -> MultipathProfile:
    """Six-tap rural-area profile at the native 10 MHz rate: sample delays
    0..5 (0.1 us apart) with average powers 0 to -20 dB in 4 dB steps,
    normalized to unit total energy."""
    return MultipathProfile(delays=tuple(range(6)),
                            powers_db=(0.0, -4.0, -8.0, -12.0, -16.0, -20.0))


def draw_taps(profile: MultipathProfile, rng, shape=()) -> np.ndarray:
    """Rayleigh tap realizations: independent complex Gaussians per tap.

    Returns an array of shape ``shape + (t_max+1,)`` whose mean square matches
    the profile's normalized powers (so the desired link has unit average
    channel energy).
    """
    rng = np.random.default_rng(rng)
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
        r = r + complex_gaussian(np.random.default_rng(seed), length, noise.n0)
    return r
