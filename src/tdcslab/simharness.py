"""Monte Carlo BER engine, scenario configs, and result emission.

A scenario fixes one system (windowed-shift multiuser design or the
traditional full-range CCSK baseline), a spectrum mark, a load (U, M), a
channel, and an Eb/N0 (and optionally near-far) grid.  ``run_ber_scenario``
measures the bit error rate at user 1's receiver with all users transmitting,
stopping per point at ``min_bit_errors`` or ``max_symbols``.

Determinism and reproducibility
-------------------------------
Every random draw comes from a substream keyed by
``(seed, purpose, Eb/N0 value, chunk index[, user index])`` through
``numpy.random.SeedSequence``.  Consequences:

* identical ``(config, seed)`` reproduce identical records for any worker
  count (chunks are pure functions of their index; the stopping rule walks
  chunks in a fixed serial order);
* runs differing only in user count, near-far factor, or sensing mismatch
  share the victim-relevant draws, so paired comparisons are common-random-
  number comparisons;
* a chunk is evaluated in row tiles, consuming its noise stream tile by tile
  in row order, so its large working arrays are bounded by the tile, not the
  chunk; records do not depend on the tile size.  A tile's height comes from
  a byte budget (``_TILE_BYTES``) over the widest complex array the kernel
  makes per row, capped at ``_TILE_ROWS`` rows: 32 rows at ``L*N = 1024``
  lags, 256 for windows of 128 lags or fewer.

The default engine works in the correlation domain: because demodulation is
linear in the received block, the windowed decision statistic equals the sum
of precomputed cross-correlation profiles (gathered at data-dependent shifts)
plus a correlated Gaussian noise term sampled exactly from its distribution.
The ``signal`` engine runs the literal modulate/channel/demodulate pipeline;
both are exposed and tested against each other.

Both engines take the channel and receiver model from ``channel``,
``receiver`` and ``seqcore``, calling their batch functions on whole chunks
and tiles.
"""

from __future__ import annotations

import hashlib
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .allocation import ShiftPlan, ShiftWindow, m_max, plan_shifts
from .channel import (
    PHASE_MODELS,
    MultipathProfile,
    NoiseSpec,
    complex_gaussian,
    cost207_ra6,
    draw_gains,
    draw_taps,
)
from .errors import ParameterError, ScenarioError, TdcsError
from .receiver import mmse_weights, rake_combine
from .seqcore import (
    builtin_quadriphase16,
    gen_zadoff_chu,
    kronecker_synthesize,
    periodic_xcorr_fft,
    xcorr_from_spectrum,
)
from .spectrum import SpectrumMark, mark_from_bands, mismatch_mask
from .waveform import gen_phase_sequence, synth_fmw

SYSTEMS = ("mui_free_tdcs", "traditional_tdcs")
CHANNELS = ("single_path", "multipath")
ENGINES = ("auto", "correlation", "signal")

# default spectrum occupancy: 10 MHz with two unavailable bands
DEFAULT_BANDWIDTH_MHZ = 10.0
DEFAULT_UNAVAILABLE_MHZ = ((2.5, 3.75), (6.25, 7.5))

# substream purposes
_BITS, _TAPS, _NOISE, _GAINS = 1, 2, 3, 4
_FMW, _MISMATCH = 9, 13

# windows at most this wide sample window noise through a Cholesky factor;
# wider ones draw the full profile in the frequency domain
_CHOL_LIMIT = 256


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs of one BER scenario (see module docstring for semantics).

    The fields are the scenario file's keys in canonical order; ``_codec``
    derives each key's text format from its annotation.
    """

    scenario_id: str = "scenario"
    system: str = "mui_free_tdcs"
    n: int = 64
    l: int = 16
    m: int | str = 64                 # CCSK order, or "full"
    u: int = 1
    nf_db: tuple[float, ...] = (10.0,)
    channel: str = "single_path"
    profile: str = "cost207_ra6"
    phase_model: str = "uniform-phase"
    ebn0_db: tuple[float, ...] = (0.0, 2.0, 4.0, 6.0, 8.0)
    seed: int = 42
    min_bit_errors: int = 100
    max_symbols: int = 2_000_000
    bandwidth_mhz: float = DEFAULT_BANDWIDTH_MHZ
    unavailable_mhz: tuple[tuple[float, float], ...] = DEFAULT_UNAVAILABLE_MHZ
    engine: str = "auto"
    chunk_symbols: int = 8192
    eta: float | None = None          # receiver-side sensing mismatch
    mismatch_seed: int | None = None
    mark_string: str | None = None
    t_g: int | None = None            # cyclic prefix; None = block/4 (multipath)
    measure_all_users: bool = False

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ScenarioError(f"unknown system {self.system!r}")
        if self.channel not in CHANNELS:
            raise ScenarioError(f"unknown channel {self.channel!r}")
        if self.engine not in ENGINES:
            raise ScenarioError(f"unknown engine {self.engine!r}")
        if self.profile != "cost207_ra6":
            raise ScenarioError(f"unknown multipath profile {self.profile!r}")
        if self.u < 1:
            raise ScenarioError("u must be >= 1")
        if self.min_bit_errors < 1 or self.max_symbols < 1 or self.chunk_symbols < 1:
            raise ScenarioError("stopping-rule fields must be positive")
        if self.seed < 0 or (self.mismatch_seed or 0) < 0:
            raise ScenarioError("seed and mismatch_seed must be non-negative")
        if self.eta is not None and not 0.0 < self.eta <= 1.0:
            raise ScenarioError("eta must lie in (0, 1]")
        if isinstance(self.m, str) and self.m != "full":
            raise ScenarioError(f"m must be an integer or 'full', got {self.m!r}")
        if self.phase_model not in PHASE_MODELS:
            raise ScenarioError(f"unknown phase model {self.phase_model!r}")
        if not self.nf_db or not self.ebn0_db:
            raise ScenarioError("nf_db and ebn0_db grids must not be empty")
        object.__setattr__(self, "nf_db", tuple(float(x) for x in self.nf_db))
        object.__setattr__(self, "ebn0_db", tuple(float(x) for x in self.ebn0_db))
        if not all(np.isfinite(self.nf_db)):
            raise ScenarioError(f"nf_db values must be finite, got {self.nf_db}")
        _check_ebn0_grid(self.ebn0_db)
        object.__setattr__(
            self,
            "unavailable_mhz",
            tuple((float(a), float(b)) for a, b in self.unavailable_mhz),
        )


def _check_ebn0_grid(grid: tuple):
    """Reject Eb/N0 values outside the model or sharing a random substream.

    ``+inf`` is the noiseless point.  Finite values are keyed at 1 mdB
    resolution (``_ebn0_key``), so two values closer than that would
    silently reuse one set of draws.
    """
    seen = {}
    for value in grid:
        if np.isnan(value) or value == -np.inf:
            raise ScenarioError(f"ebn0_db must be a number or +inf, got {value!r}")
        key = _ebn0_key(value)
        if not np.isinf(value) and not 0 <= key < _ebn0_key(np.inf):
            raise ScenarioError(f"ebn0_db value {value!r} is out of range")
        if key in seen:
            raise ScenarioError(
                f"ebn0_db values {seen[key]!r} and {value!r} share one random "
                "substream (the grid is keyed at 0.001 dB resolution)"
            )
        seen[key] = value


# ---------------------------------------------------------------------------
# scenario file format: line-oriented "key = value", '#' starts a comment
# ---------------------------------------------------------------------------

_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word not in _TRUE + _FALSE:
        raise ValueError(f"expected one of {', '.join(_TRUE + _FALSE)}")
    return word in _TRUE


def _codec(tp):
    """``(parse, format)`` text codec for the field annotation ``tp``.

    A variable-length tuple is a comma list (empty text is the empty tuple),
    a fixed-length tuple of one type a colon list; a union parses as its
    first member that accepts the text (``None`` is never written).
    """
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        parse, fmt = _codec(args[0])
        if args[-1] is Ellipsis:
            return (lambda text: tuple(parse(v) for v in text.split(","))
                    if text else (),
                    lambda value: ", ".join(fmt(v) for v in value))

        def parse_fixed(text):
            value = tuple(parse(v) for v in text.split(":"))
            if len(value) != len(args):
                raise ValueError(f"expected {len(args)} ':'-separated values")
            return value

        return parse_fixed, lambda value: ":".join(fmt(v) for v in value)
    if args:
        codecs = [_codec(a) for a in args if a is not type(None)]

        def parse_union(text):
            for parse, _ in codecs[:-1]:
                try:
                    return parse(text)
                except ValueError:
                    pass
            return codecs[-1][0](text)

        return parse_union, codecs[0][1]
    if tp is bool:
        return _parse_bool, lambda value: "true" if value else "false"
    if tp is float:
        return float, repr
    return tp, str


_HINTS = typing.get_type_hints(ScenarioConfig)
_SCHEMA = {f.name: _codec(_HINTS[f.name]) for f in fields(ScenarioConfig)}


def parse_scenario(text: str, scenario_id: str | None = None) -> ScenarioConfig:
    """Parse the line-oriented key=value scenario format."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _SCHEMA:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ScenarioError(f"line {lineno}: key {key!r} is given twice")
        try:
            values[key] = _SCHEMA[key][0](value)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if scenario_id is not None:
        values.setdefault("scenario_id", scenario_id)
    return ScenarioConfig(**values)


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, scenario_id=stem)


def scenario_to_text(cfg: ScenarioConfig) -> str:
    """Canonical serialization: every field in declaration order, except the
    ones set to ``None`` or ``False`` (round-trips through ``parse_scenario``)."""
    lines = []
    for name, (_, fmt) in _SCHEMA.items():
        value = getattr(cfg, name)
        if value is not None and value is not False:
            lines.append(f"{name} = {fmt(value)}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(scenario_to_text(cfg).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BerRecord:
    """Error counts for one (Eb/N0, NF) grid point."""

    ebn0_db: float
    nf_db: float
    bits_sent: int
    bit_errors: int
    reached_min_errors: bool
    per_user: tuple = field(default_factory=tuple)  # (user, bits, errors)

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_sent

    @property
    def ci_halfwidth(self) -> float:
        """95% half-width: normal approximation, floored at 1.96/n."""
        p = self.ber
        n = self.bits_sent
        return max(1.96 * np.sqrt(p * (1.0 - p) / n), 1.96 / n)


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------

@dataclass
class _System:
    chips: list                     # per-user transmit waveforms
    refs: list                      # per-user references (receiver-side mark)
    windows: list                   # per-user ShiftWindow
    m_order: int
    block_len: int
    symbol_energy: float
    mark_tx: SpectrumMark
    plan: ShiftPlan | None
    profile: MultipathProfile | None


def _time_code(l: int):
    if l == 16:
        return builtin_quadriphase16()
    return gen_zadoff_chu(l, 1)


def _derived_seed(seed: int, purpose: int, index: int) -> int:
    ss = np.random.SeedSequence([int(seed), purpose, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def build_system(cfg: ScenarioConfig) -> _System:
    """Materialize waveforms, windows, and marks for a scenario."""
    block_len = cfg.l * cfg.n
    traditional = cfg.system == "traditional_tdcs"
    mark_bins = block_len if traditional else cfg.n
    if cfg.mark_string is not None:
        mark_tx = SpectrumMark.from_string(cfg.mark_string)
        if mark_tx.n != mark_bins:
            raise ScenarioError(
                f"mark string has {mark_tx.n} bins, system needs {mark_bins}"
            )
    else:
        mark_tx = mark_from_bands(
            cfg.bandwidth_mhz, cfg.unavailable_mhz, mark_bins
        )
    mark_rx = mark_tx
    if cfg.eta is not None and cfg.eta < 1.0:
        mm_seed = (cfg.mismatch_seed if cfg.mismatch_seed is not None
                   else _derived_seed(cfg.seed, _MISMATCH, 0))
        mark_rx = mismatch_mask(mark_tx, cfg.eta, mm_seed)

    profile = cost207_ra6() if cfg.channel == "multipath" else None
    t_chan = profile.t_max if profile else 0
    t_g = cfg.t_g if cfg.t_g is not None else (block_len // 4 if profile else 0)
    if profile and t_g < profile.t_max:
        raise ScenarioError(
            f"cyclic prefix {t_g} shorter than channel order {profile.t_max}"
        )

    if traditional:
        if not (cfg.m == "full" or cfg.m == block_len):
            raise ScenarioError(
                "the traditional baseline keys over the full shift range; "
                "set m = full"
            )
        order, plan = block_len, None
        windows = [ShiftWindow(0, block_len, block_len) for _ in range(cfg.u)]
        spread = np.copy
    else:
        if cfg.m == "full":
            # full loading: the largest power-of-two order; a single user keys
            # over the whole circle (the classic full-range CCSK reference)
            order = block_len if cfg.u == 1 else m_max(cfg.l, cfg.n, cfg.u)
        else:
            order = int(cfg.m)
        plan = plan_shifts(cfg.u, cfg.n, cfg.l, order, t_max=t_chan)
        windows = list(plan.windows)
        spread = partial(kronecker_synthesize, _time_code(cfg.l))
    chips, refs = [], []
    for j in range(cfg.u):
        phase_seed = _derived_seed(cfg.seed, _FMW, j)
        phases = gen_phase_sequence(phase_seed, mark_bins)
        basis = synth_fmw(mark_tx, phases, user_id=j, phase_seed=phase_seed)
        chips.append(spread(basis.samples))
        refs.append(chips[j] if mark_rx is mark_tx
                    else spread(synth_fmw(mark_rx, phases).samples))
    energy = 1.0 if traditional else float(np.sum(np.abs(chips[0]) ** 2))
    return _System(
        chips=chips, refs=refs, windows=windows, m_order=order,
        block_len=block_len, symbol_energy=energy, mark_tx=mark_tx, plan=plan,
        profile=profile,
    )


# ---------------------------------------------------------------------------
# keyed substreams
# ---------------------------------------------------------------------------

def _ebn0_key(ebn0_db: float) -> int:
    if np.isinf(ebn0_db):
        return 2 ** 62
    return int(round(ebn0_db * 1000.0)) + 2 ** 31


def _stream_rng(seed: int, purpose: int, ebn0_key: int, chunk: int,
                user: int | None = None) -> np.random.Generator:
    key = [int(seed), purpose, ebn0_key, int(chunk)]
    if user is not None:
        key.append(int(user))
    return np.random.default_rng(np.random.SeedSequence(key))


def _pair_key(victim: int, user: int) -> int:
    # receiver/transmitter pair key; the user-1 receiver keeps bare user keys
    # so runs differing only in U or NF share the victim-relevant draws
    return victim * 65536 + user


def _popcount_table(m_order: int) -> np.ndarray:
    return np.array([bin(x).count("1") for x in range(m_order)], dtype=np.int64)


def _circulant_rows(profile: np.ndarray, width: int) -> np.ndarray:
    """Read-only ``(len(profile), width)`` view: row ``s`` is the window
    ``profile[(s + o) % len(profile)]`` for ``o < width``.

    Gathering rows of this view replaces modular index arithmetic over the
    whole window; it strides over one circularly extended copy of the profile.
    """
    ln = profile.size
    extended = profile[np.arange(ln + width - 1) % ln]
    return np.lib.stride_tricks.sliding_window_view(extended, width)


def _sum_in_place(terms, last=None):
    """Sum of the arrays ``terms`` in order, then ``last`` (if given),
    accumulated into the first term.

    Starting from the first term rather than from zeros changes only the
    sign of exact zeros, which the ``|.|`` decision does not see.
    """
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    if last is not None:
        total += last
    return total


def _columns(first: int, count: int, ln: int):
    """Index of the columns ``(first + i) % ln``, ``i < count``; a slice when
    they do not wrap around."""
    first %= ln
    if first + count <= ln:
        return slice(first, first + count)
    return (first + np.arange(count)) % ln


def _fde_params(system: _System, n0: float):
    """Tap-to-frequency ramp and ``1 / snr`` of the one-tap MMSE equalizer."""
    ln = system.block_len
    taps = np.arange(system.profile.t_max + 1)
    ramp = np.exp(-2j * np.pi * np.outer(taps, np.arange(ln)) / ln)
    snr = (ln / system.mark_tx.n_available) / (ln * n0) if n0 > 0.0 else 1e15
    return ramp, 1.0 / snr


def _shift_ramps(shifts: np.ndarray, ln: int) -> np.ndarray:
    """``exp(2j * pi * outer(shifts, k) / ln)`` for ``k < ln``, one row per
    shift: the same operations in the same order, in place in one array."""
    ramps = np.multiply(2j * np.pi, np.outer(shifts, np.arange(ln)))
    ramps /= ln
    return np.exp(ramps, out=ramps)


# ---------------------------------------------------------------------------
# point simulators
# ---------------------------------------------------------------------------

# a tile's widest complex array (16 bytes per lag and block) takes at most
# _TILE_BYTES: 32 rows at L*N = 1024 lags, well inside a core's 2 MiB L2.
# The _TILE_ROWS cap keeps windows of 128 lags or fewer at 256 rows; taller
# tiles ran slower at M = 64.  Neither constant changes the records.
_TILE_BYTES = 512 * 1024
_TILE_ROWS = 256


def _tile_rows(width: int) -> int:
    """Blocks per tile for a kernel whose widest per-tile array has
    ``width`` complex values per block."""
    return max(1, min(_TILE_ROWS, _TILE_BYTES // (16 * width)))


class _PointSim:
    """Per-point simulation context; ``chunk(size, idx)`` is a pure function.

    A chunk draws its messages and channel per block, then walks its blocks
    in tiles of ``tile_rows`` rows: per tile it draws the noise (consuming
    the chunk's noise stream in row order), forms the decision statistic,
    and takes the decisions.  ``tile_rows`` is set once per simulator, by
    ``_tile_rows`` from the width of its widest per-tile array (``L*N``
    unless a windowed kernel narrows it).  Subclasses supply ``_draws``
    (per-chunk draws), ``_tile`` (the statistic of one tile) and, unless
    the noise is white over the block with ``noise_variance`` per lag,
    ``_noise`` (one tile's noise, drawn into a complex buffer of
    ``noise_width`` values per block).
    Buffers belong to one ``chunk`` call, because concurrent workers run
    chunks of one simulator.
    """

    def __init__(self, cfg: ScenarioConfig, system: _System, victim: int,
                 ebn0_db: float, nf_db: float):
        self.cfg = cfg
        self.system = system
        self.victim = victim
        self.key = _ebn0_key(ebn0_db)
        self.nf_lin = 10.0 ** (nf_db / 20.0)
        self.n0 = NoiseSpec(ebn0_db, system.m_order, system.symbol_energy).n0
        self.ref = system.refs[victim]
        self.window = system.windows[victim]
        self.m = system.m_order
        self.kbits = self.m.bit_length() - 1
        self.pop = _popcount_table(self.m)
        self.ln = system.block_len
        self.noise_width = self.ln
        self.noise_variance = self.ln * self.n0  # per bin of the noise spectrum
        self.tile_rows = _tile_rows(self.ln)
        self.cref = np.conj(np.fft.fft(self.ref))
        self.t = system.profile.t_max if system.profile is not None else 0

    def chunk(self, size: int, chunk_idx: int):
        msgs = self._messages(size, chunk_idx)
        draws = self._draws(size, chunk_idx, msgs)
        rows = min(size, self.tile_rows)
        rng = None
        if self.n0 > 0.0:
            rng = _stream_rng(self.cfg.seed, _NOISE, self.key, chunk_idx)
            noise_buf = np.empty((rows, self.noise_width), dtype=np.complex128)
        mag = np.empty((rows, self.m))
        dec = np.empty(size, dtype=np.intp)
        for lo in range(0, size, rows):
            hi = min(lo + rows, size)
            noise = None if rng is None else self._noise(rng, noise_buf[:hi - lo])
            stat = self._tile(draws, noise, lo, hi)
            np.argmax(np.abs(stat, out=mag[:hi - lo]), axis=1, out=dec[lo:hi])
        errors = int(self.pop[np.bitwise_xor(dec, msgs[self.victim])].sum())
        return errors, size

    def _noise(self, rng, buf):
        """White noise on every lag of the block."""
        return complex_gaussian(rng, buf.shape, self.noise_variance, out=buf)

    # -- shared helpers ----------------------------------------------------

    def _messages(self, size: int, chunk: int):
        msgs = {}
        for j in range(self.cfg.u):
            rng = _stream_rng(self.cfg.seed, _BITS, self.key, chunk, user=j)
            msgs[j] = rng.integers(0, self.m, size=size)
        return msgs

    def _links(self, size: int, chunk: int):
        """Per user ``j``, the ``(size, t + 1)`` taps of the link from ``j``
        to the victim (one gain on a single path), scaled by the near-far
        amplitude for interferers."""
        profile = self.system.profile
        links = {}
        for j in range(self.cfg.u):
            rng = _stream_rng(self.cfg.seed, _GAINS if profile is None else _TAPS,
                              self.key, chunk, user=_pair_key(self.victim, j))
            h = (draw_gains(rng, (size, 1), self.cfg.phase_model)
                 if profile is None else draw_taps(profile, rng, size))
            if j != self.victim:
                h *= self.nf_lin
            links[j] = h
        return links


class _WindowSim(_PointSim):
    """Correlation-domain statistic over the window ``start + offsets``.

    The noise on those lags is sampled exactly: through a Cholesky factor of
    its covariance for narrow windows, else as the full stationary
    correlation profile in the frequency domain.
    """

    def _setup_window(self, offsets: np.ndarray):
        self.offsets = offsets
        self.acf_ref = periodic_xcorr_fft(self.ref, self.ref)
        self.cholesky = self._chol(offsets, self.acf_ref)
        if self.cholesky is not None:
            self.noise_width = offsets.size
        # the widest per-tile array: the gathered window, or the noise when
        # it is drawn over the whole circle
        self.tile_rows = _tile_rows(
            max(offsets.size, self.noise_width if self.n0 > 0.0 else 0))
        self.noise_cols = _columns(self.window.start + offsets[0], offsets.size,
                                   self.ln)
        # row s of rows[j] is user j's cross-correlation profile on the
        # window, for a block whose shift puts the window start at lag s
        self.rows = [_circulant_rows(periodic_xcorr_fft(c, self.ref), offsets.size)
                     for c in self.system.chips]

    def _row_starts(self, msgs):
        """Per user and block, the profile lag at the first window offset."""
        first = self.window.start + self.offsets[0]
        return [(first - (w.start + msgs[j])) % self.ln
                for j, w in enumerate(self.system.windows)]

    def _weighted_rows(self, j, starts, weights):
        """``weights[:, None] * profile_j`` on the window, per block."""
        rows = self.rows[j][starts]
        return np.multiply(weights[:, None], rows, out=rows)

    def _noise(self, rng, buf):
        """Exact window slice of the noise correlation profile, per block."""
        if self.cholesky is not None:
            return complex_gaussian(rng, buf.shape, out=buf) @ self.cholesky.T
        g = super()._noise(rng, buf)
        return xcorr_from_spectrum(g, self.cref)[:, self.noise_cols]

    def _chol(self, offsets: np.ndarray, acf_ref: np.ndarray):
        if self.n0 == 0.0 or offsets.size > _CHOL_LIMIT:
            return None
        cov = self.n0 * acf_ref[(offsets[:, None] - offsets[None, :]) % self.ln]
        jitter = 1e-12 * self.n0 * max(1.0, self.system.symbol_energy)
        return np.linalg.cholesky(cov + jitter * np.eye(offsets.size))


class _SinglePathSim(_WindowSim):
    def __init__(self, *args):
        super().__init__(*args)
        self._setup_window(np.arange(self.m))

    def _draws(self, size, chunk_idx, msgs):
        return self._links(size, chunk_idx), self._row_starts(msgs)

    def _tile(self, draws, noise, lo, hi):
        gains, starts = draws
        terms = (self._weighted_rows(j, starts[j][lo:hi], gains[j][lo:hi, 0])
                 for j in range(self.cfg.u))
        return _sum_in_place(terms, noise)


class _RakeSim(_WindowSim):
    def __init__(self, *args):
        super().__init__(*args)
        self._setup_window(np.arange(-self.t, self.m))
        # RAKE finger q reads the window q lags early
        self.fingers = [slice(self.t - q, self.t - q + self.m)
                        for q in range(self.t + 1)]

    def _draws(self, size, chunk_idx, msgs):
        return self._links(size, chunk_idx), self._row_starts(msgs)

    def _tile(self, draws, noise, lo, hi):
        taps, starts = draws
        # tap p delays the block by p lags
        phi = _sum_in_place(
            (self._weighted_rows(j, (starts[j][lo:hi] + p) % self.ln,
                                 taps[j][lo:hi, p])
             for j in range(self.cfg.u) for p in range(self.t + 1)),
            noise,
        )
        return rake_combine(phi, taps[self.victim][lo:hi], self.fingers)


class _FdeSim(_PointSim):
    """Traditional baseline over multipath: one-tap MMSE, then correlation."""

    def __init__(self, *args):
        super().__init__(*args)
        self.bf = [np.fft.fft(c) for c in self.system.chips]
        self.delay_ramp, self.inv_snr = _fde_params(self.system, self.n0)
        self.cols = _columns(self.window.start, self.m, self.ln)

    def _draws(self, size, chunk_idx, msgs):
        # a block's shift ramp depends on it only through its shift, so the
        # ramp is built once per distinct shift in the chunk (over all users)
        # and gathered per block
        tau = np.stack([(w.start + msgs[j]) % self.ln
                        for j, w in enumerate(self.system.windows)])
        shifts, which = np.unique(tau, return_inverse=True)
        return (self._links(size, chunk_idx), _shift_ramps(shifts, self.ln),
                which.reshape(tau.shape))

    def _tile(self, draws, noise, lo, hi):
        taps, ramps, which = draws
        r = noise
        h_victim_freq = None
        for j in range(self.cfg.u):
            hf = taps[j][lo:hi] @ self.delay_ramp
            if j == self.victim:
                h_victim_freq = hf
            term = hf * self.bf[j][None, :]
            term *= ramps[which[j, lo:hi]]
            if r is None:
                r = term
            else:
                r += term
        r *= mmse_weights(h_victim_freq, self.inv_snr)
        return xcorr_from_spectrum(r, self.cref)[:, self.cols]


class _SignalSim(_PointSim):
    """Literal modulate -> channel -> demodulate pipeline, per tile.

    User ``j``'s block at shift ``tau`` is row ``tau`` of the circulant of
    its chips; delayed by tap ``p`` (a circular delay, which equals the FIR
    over the cyclic prefix) it is row ``tau - p``.  The receiver takes the
    FFT, equalizes (one-tap MMSE for the traditional baseline over
    multipath), correlates with the reference and reads the window, RAKE
    combining the taps for the windowed design over multipath.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.noise_variance = self.n0  # per time sample
        self.rows = [_circulant_rows(c, self.ln) for c in self.system.chips]
        self.fde = self.system.profile is not None and self.system.plan is None
        if self.fde:
            self.delay_ramp, self.inv_snr = _fde_params(self.system, self.n0)
        # RAKE finger q reads the window q lags early
        fingers = 1 if self.fde else self.t + 1
        self.cols = [_columns(self.window.start - q, self.m, self.ln)
                     for q in range(fingers)]

    def _draws(self, size, chunk_idx, msgs):
        tau = [(w.start + msgs[j]) % self.ln
               for j, w in enumerate(self.system.windows)]
        return self._links(size, chunk_idx), tau

    def _tile(self, draws, noise, lo, hi):
        h, tau = draws
        r = np.zeros((hi - lo, self.ln), dtype=np.complex128)
        for j in range(self.cfg.u):
            for p in range(self.t + 1):
                x = self.rows[j][(tau[j][lo:hi] - p) % self.ln]
                r += np.multiply(h[j][lo:hi, p, None], x, out=x)
        if noise is not None:
            r += noise
        np.fft.fft(r, axis=1, out=r)
        hv = h[self.victim][lo:hi]
        if self.fde:
            r *= mmse_weights(hv @ self.delay_ramp, self.inv_snr)
        phi = xcorr_from_spectrum(r, self.cref)
        if len(self.cols) == 1:
            return phi[:, self.cols[0]]
        return rake_combine(phi, hv, self.cols)


def _make_sim(cfg: ScenarioConfig, system: _System, victim: int,
              ebn0_db: float, nf_db: float) -> _PointSim:
    if cfg.engine == "signal":
        return _SignalSim(cfg, system, victim, ebn0_db, nf_db)
    if system.profile is None:
        return _SinglePathSim(cfg, system, victim, ebn0_db, nf_db)
    if system.plan is not None:
        return _RakeSim(cfg, system, victim, ebn0_db, nf_db)
    return _FdeSim(cfg, system, victim, ebn0_db, nf_db)


# ---------------------------------------------------------------------------
# stopping rule and scenario drivers
# ---------------------------------------------------------------------------

def _chunk_sizes(cfg: ScenarioConfig):
    full, rest = divmod(cfg.max_symbols, cfg.chunk_symbols)
    return [cfg.chunk_symbols] * full + ([rest] if rest else [])


def _run_point(cfg: ScenarioConfig, sim: _PointSim, threads: int):
    """Run chunks until the stopping rule fires.

    Chunks are included in serial order regardless of how many are computed
    concurrently, so results do not depend on the worker count.
    """
    sizes = _chunk_sizes(cfg)
    kbits = sim.kbits
    errors = 0
    symbols = 0
    idx = 0
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        while idx < len(sizes):
            wave = list(range(idx, min(idx + threads, len(sizes))))
            if pool is None:
                outcomes = [sim.chunk(sizes[i], i) for i in wave]
            else:
                outcomes = list(pool.map(lambda i: sim.chunk(sizes[i], i), wave))
            stop = False
            for (err, sym) in outcomes:
                errors += err
                symbols += sym
                if errors >= cfg.min_bit_errors:
                    stop = True
                    break
            if stop:
                break
            idx = wave[-1] + 1
    finally:
        if pool is not None:
            pool.shutdown()
    return kbits * symbols, errors


def run_ber_scenario(cfg: ScenarioConfig, threads: int = 1) -> list:
    """Simulate every (Eb/N0, NF) grid point of a scenario.

    Waveforms are built once; each point draws per-block data, channel, and
    noise from keyed substreams, demodulates user 1 (all users when
    ``measure_all_users``), and counts bit errors under the stopping rule.
    ``threads`` is the number of chunks computed concurrently (at least 1).
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    system = build_system(cfg)
    victims = range(cfg.u) if cfg.measure_all_users else (0,)
    records = []
    for nf_db in cfg.nf_db:
        for ebn0_db in cfg.ebn0_db:
            per_user = []
            total_bits = 0
            total_errors = 0
            for victim in victims:
                sim = _make_sim(cfg, system, victim, ebn0_db, nf_db)
                bits, errors = _run_point(cfg, sim, threads)
                per_user.append((victim + 1, bits, errors))
                total_bits += bits
                total_errors += errors
            records.append(
                BerRecord(
                    ebn0_db=ebn0_db,
                    nf_db=nf_db,
                    bits_sent=total_bits,
                    bit_errors=total_errors,
                    reached_min_errors=all(
                        e >= cfg.min_bit_errors for (_, _, e) in per_user
                    ),
                    per_user=tuple(per_user),
                )
            )
    return records


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

CSV_HEADER = "scenario_id,system,U,NF_db,ebn0_db,bits,errors,ber,ci_halfwidth"


def records_to_csv(cfg: ScenarioConfig, records) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            ",".join(
                [
                    cfg.scenario_id,
                    cfg.system,
                    str(cfg.u),
                    repr(rec.nf_db),
                    repr(rec.ebn0_db),
                    str(rec.bits_sent),
                    str(rec.bit_errors),
                    repr(rec.ber),
                    repr(rec.ci_halfwidth),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def emit_results(records, cfg: ScenarioConfig, out_dir, fmt: str = "csv"):
    """Write the results CSV plus a human-readable run report.

    Returns the written paths.  The CSV body is a pure function of
    ``(config, seed)``.
    """
    if fmt != "csv":
        raise ParameterError(f"unsupported format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{cfg.scenario_id}.csv")
    report_path = os.path.join(out_dir, f"{cfg.scenario_id}_report.txt")
    try:
        with open(csv_path, "w") as fh:
            fh.write(records_to_csv(cfg, records))
        with open(report_path, "w") as fh:
            fh.write(render_report(cfg, records))
    except OSError as exc:
        raise TdcsError(f"cannot write results: {exc}") from exc
    return csv_path, report_path


def render_report(cfg: ScenarioConfig, records) -> str:
    out = [
        f"run report: {cfg.scenario_id}",
        f"config sha256: {config_digest(cfg)}",
        f"root seed: {cfg.seed}",
        f"stopping rule: >= {cfg.min_bit_errors} bit errors "
        f"or {cfg.max_symbols} symbols per point",
        "",
        "config:",
    ]
    out.extend("  " + line for line in scenario_to_text(cfg).rstrip().splitlines())
    out.append("")
    out.append("results:")
    for rec in records:
        flag = "" if rec.reached_min_errors else "  [hit max_symbols]"
        if rec.bit_errors == 0:  # exact 95% (Clopper-Pearson) upper bound
            flag += f"  [ber <= {1.0 - 0.025 ** (1.0 / rec.bits_sent):.2e}, 95% C-P]"
        out.append(
            f"  NF={rec.nf_db:g} dB  Eb/N0={rec.ebn0_db:g} dB  "
            f"ber={rec.ber:.6e}  ({rec.bit_errors} errors / {rec.bits_sent} bits, "
            f"ci +/-{rec.ci_halfwidth:.2e}){flag}"
        )
    return "\n".join(out) + "\n"
