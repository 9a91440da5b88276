"""Waveform synthesis and windowed cyclic-shift modulation.

A user's basis waveform is built by phase-randomizing the available spectrum
bins and inverse-transforming to the time domain; the full spreading waveform
is the Kronecker synthesis of a perfect time sequence with that basis.  Data
symbols select a cyclic shift inside the user's allocated window (natural
binary, MSB first).  Cyclic-prefix insertion/removal for multipath blocks
lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import ShiftWindow, _check_order
from .errors import DimensionError, ParameterError, SequenceValidationError
from .seqcore import (
    PolyphaseSequence,
    as_complex_vector,
    is_perfect_sequence,
    kronecker_synthesize,
)
from .spectrum import SpectrumMark


def gen_phase_sequence(seed: int, n: int) -> PolyphaseSequence:
    """Seeded pseudorandom quadriphase sequence.

    Each element is drawn uniformly from the fourth roots of unity.  The same
    seed always yields the same sequence.
    """
    if n < 1:
        raise ParameterError("sequence length must be >= 1")
    rng = np.random.default_rng(seed)
    q = rng.integers(0, 4, size=n)
    return PolyphaseSequence(np.exp(2j * np.pi * q / 4))


@dataclass(frozen=True)
class BasisFmw:
    """Unit-energy basis modulation waveform synthesized from a mark."""

    samples: np.ndarray
    mark: SpectrumMark

    def __post_init__(self):
        arr = as_complex_vector(self.samples, "samples").copy()
        energy = float(np.sum(np.abs(arr) ** 2))
        if abs(energy - 1.0) > 1e-9:
            raise ParameterError(f"basis waveform energy {energy} != 1")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size


def synth_fmw(mark: SpectrumMark, phases: PolyphaseSequence) -> BasisFmw:
    """Synthesize the basis waveform for a mark and phase sequence.

    The spectral vector carries the phase element on every available bin and
    zero elsewhere; the time waveform is its inverse transform scaled by
    ``sqrt(N / N_C)`` so the result has exactly unit energy, with masked bins
    spectrally null.
    """
    ph = as_complex_vector(phases, "phases")
    if ph.size != mark.n:
        raise DimensionError(
            f"phase sequence length {ph.size} != mark length {mark.n}"
        )
    spectral = mark.bits * ph
    lam = np.sqrt(mark.n / mark.n_available)
    samples = lam * np.fft.ifft(spectral)
    return BasisFmw(samples=samples, mark=mark)


@dataclass(frozen=True)
class KroneckerFmwUser:
    """Length-L*N spreading waveform of one user: time code x basis waveform."""

    c: np.ndarray
    basis: BasisFmw
    time_seq: PolyphaseSequence

    def __post_init__(self):
        arr = as_complex_vector(self.c, "c").copy()
        if arr.size != len(self.time_seq) * len(self.basis):
            raise DimensionError("waveform length != L * N")
        arr.setflags(write=False)
        object.__setattr__(self, "c", arr)

    def __len__(self) -> int:
        return self.c.size

    @property
    def samples(self) -> np.ndarray:
        return self.c

    @property
    def symbol_energy(self) -> float:
        return float(np.sum(np.abs(self.c) ** 2))


def build_user_fmw(mark: SpectrumMark, time_seq: PolyphaseSequence,
                   user_seed: int) -> KroneckerFmwUser:
    """Build a user's full spreading waveform from its mark and seed.

    The time sequence must have a perfect periodic autocorrelation (checked);
    the basis waveform comes from the seeded phase sequence.  Energy of the
    result is L within 1e-9.
    """
    if not is_perfect_sequence(time_seq):
        raise SequenceValidationError(
            "time sequence lacks a perfect periodic autocorrelation"
        )
    phases = gen_phase_sequence(user_seed, mark.n)
    basis = synth_fmw(mark, phases)
    c = kronecker_synthesize(time_seq, basis.samples)
    return KroneckerFmwUser(c=c, basis=basis, time_seq=time_seq)


def bits_to_index(bits) -> int:
    """Natural-binary value of a bit vector, MSB first."""
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ParameterError("bits must be 0 or 1")
        value = (value << 1) | int(b)
    return value


def index_to_bits(value: int, width: int) -> tuple:
    """Inverse of ``bits_to_index``: ``width`` bits, MSB first."""
    if not 0 <= value < (1 << width):
        raise ParameterError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


@dataclass(frozen=True)
class ModulatedBlock:
    """One transmitted block: the waveform under its data-dependent shift."""

    x: np.ndarray
    shift: int
    bits: tuple

    def __post_init__(self):
        arr = as_complex_vector(self.x, "x").copy()
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)


def modulate(c: KroneckerFmwUser, bits, window: ShiftWindow) -> ModulatedBlock:
    """Windowed cyclic-shift modulation of one symbol.

    The bit vector (length log2 of the window width, MSB first) selects the
    shift ``window.start + value``; the output is the waveform cyclically
    shifted left by that amount.  A window may wrap past the end of the
    circle.
    """
    wave = as_complex_vector(c, "c")
    m = window.width
    _check_order("window width", m)
    n_bits = m.bit_length() - 1
    bits = tuple(int(b) for b in bits)
    if len(bits) != n_bits:
        raise ParameterError(
            f"expected {n_bits} bits for window width {m}, got {len(bits)}"
        )
    if window.circular_length != wave.size:
        raise DimensionError("window circle differs from waveform length")
    tau = (window.start + bits_to_index(bits)) % wave.size
    return ModulatedBlock(x=np.roll(wave, -tau), shift=tau, bits=bits)


def add_cyclic_prefix(x, t_g: int) -> np.ndarray:
    """Prepend a copy of the last ``t_g`` samples (0 <= t_g < len)."""
    arr = as_complex_vector(x, "x")
    if not 0 <= t_g < arr.size:
        raise ParameterError(f"prefix length {t_g} outside [0, {arr.size})")
    return np.concatenate([arr[arr.size - t_g:], arr])


def remove_cyclic_prefix(y, t_g: int) -> np.ndarray:
    """Drop the first ``t_g`` samples, inverting ``add_cyclic_prefix``."""
    arr = as_complex_vector(y, "y")
    if not 0 <= t_g < arr.size:
        raise ParameterError(f"prefix length {t_g} outside [0, {arr.size})")
    return arr[t_g:].copy()
