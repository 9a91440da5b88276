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
  count (chunks are pure functions of their index; each point's stopping
  rule consumes its group's chunks in serial order, whatever order the
  scheduler ``_run_groups`` computed them in);
* runs differing only in user count, near-far factor, or sensing mismatch
  share the victim-relevant draws, so paired comparisons are common-random-
  number comparisons;
* since no draw is keyed by the near-far factor, one Eb/N0 value and one
  victim form a point group over the whole ``nf_db`` grid: a chunk draws
  the messages, unit-amplitude links, shifts and noise once, forms the
  unit-amplitude interference once per tile and scales it for every
  near-far point still open, each with its own stopping rule.  A point's
  records equal those of a run with ``nf_db`` set to its value alone, and
  do not depend on the other points;
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
One such kernel serves both channels: a single path is the one-finger case
of RAKE, and only the traditional baseline over multipath equalizes instead.
The ``signal`` engine runs the literal modulate/channel/demodulate pipeline.
Every kernel runs in one point loop through two hooks, ``_superpose`` (a
tile's terms, once) and ``_readout`` (one point's statistic); both engines
share the base hooks and are tested against each other.
As in the CCSK receiver, where a symbol is a cyclic shift, every kernel's
per-user table is indexed by the transmitted shift.

Both engines take the channel and receiver model from ``channel``,
``receiver`` and ``seqcore``, calling their batch functions on whole chunks
and tiles.
"""

from __future__ import annotations

import hashlib
import os
import typing
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from .allocation import ShiftWindow, m_max, plan_shifts
from .channel import (
    PHASE_MODELS,
    MultipathProfile,
    NoiseSpec,
    complex_gaussian,
    cost207_ra6,
    draw_gains,
    draw_taps,
    nf_amplitude,
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
ENGINES = ("auto", "signal")

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
        # the id names the output files and fills the CSV's first column
        if (self.scenario_id.splitlines() != [self.scenario_id]
                or any(c in self.scenario_id for c in "/\\,")):
            raise ScenarioError("scenario_id must be non-empty, without '/', "
                                f"'\\', ',' or line breaks: {self.scenario_id!r}")
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
        try:
            for nf_db in self.nf_db:
                nf_amplitude(nf_db)
        except ParameterError as exc:
            raise ScenarioError(f"nf_db: {exc}") from exc
        if not 0.0 < self.bandwidth_mhz < np.inf:
            raise ScenarioError(
                f"bandwidth_mhz must be positive and finite, got {self.bandwidth_mhz!r}")
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
    profile: MultipathProfile | None

    @cached_property
    def fde_ramps(self) -> np.ndarray:
        """The FDE's shift-ramp table (``_shift_ramps`` of every shift of
        the circle), built on first use and shared by every simulator of the
        system."""
        return _shift_ramps(np.arange(self.block_len), self.block_len)


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
        order = block_len
        windows = [ShiftWindow(0, block_len, block_len) for _ in range(cfg.u)]
        spread = np.copy
    else:
        if cfg.m == "full":
            # full loading: the largest power-of-two order; a single user keys
            # over the whole circle (the classic full-range CCSK reference)
            order = block_len if cfg.u == 1 else m_max(cfg.l, cfg.n, cfg.u)
        else:
            order = int(cfg.m)
        windows = list(plan_shifts(cfg.u, cfg.n, cfg.l, order,
                                   t_max=t_chan).windows)
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
        block_len=block_len, symbol_energy=energy, mark_tx=mark_tx,
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
    shift: the same operations in the same order, in place in one array.
    The integer products are formed 64 rows at a time, so that building the
    table makes no second array of its size."""
    ramps = np.empty((len(shifts), ln), dtype=np.complex128)
    for lo in range(0, len(shifts), 64):
        np.multiply(2j * np.pi, np.outer(shifts[lo:lo + 64], np.arange(ln)),
                    out=ramps[lo:lo + 64])
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


def _point_sums(amps, victim_sum, noise, interference, out):
    """Yield ``interference * a + (victim_sum + noise)`` for each amplitude
    ``a`` in ``amps``.

    ``a`` is real, so it scales the float view.  Each sum may be overwritten
    by its consumer; the last is made in place of the interference (of the
    victim's sum when there is none), the others in ``out``.
    """
    if noise is not None:
        victim_sum += noise
    last = len(amps) - 1
    for i, a in enumerate(amps):
        if interference is None:
            if i == last:
                yield victim_sum
            else:
                out[...] = victim_sum
                yield out
            continue
        s = interference if i == last else out
        np.multiply(interference.view(np.float64), a, out=s.view(np.float64))
        s += victim_sum
        yield s


class _PointSim:
    """Simulation context of one point group; ``chunk`` is a pure function.

    A point group is one Eb/N0 value and one victim with every near-far
    value of ``cfg.nf_db``: no draw is keyed by the near-far factor, so the
    group's points share one set of draws.  A chunk draws its messages,
    unit-amplitude links and transmitted shifts once, then walks its blocks
    in tiles of ``tile_rows`` rows.  Per tile it draws the noise in row
    order, calls ``_superpose`` once and decides each open point on the
    ``_readout`` of its sum from ``_point_sums``, so a point sees the same
    operations in the same order in a group of any size.

    Both hooks see one tile only.  ``_superpose(links, tau, ws)`` takes user
    ``j``'s unit-amplitude link ``links[j]``, its shifts ``tau[j]`` and
    ``slots - 1`` workspaces of ``sum_width`` values per block; it returns
    the victim's term, the unit-amplitude interference (``None`` without
    interferers) and a context of per-tile values, which ``_readout(r,
    ctx)`` gets with each point's sum ``r`` (its to overwrite).  The base
    hooks sum rows of ``rows[j]`` (row ``tau`` is what a block sent at shift
    ``tau`` contributes; tap ``p`` reads row ``tau - p``) and read the
    window through ``fingers``, RAKE combining several with the victim's
    taps; ``_RakeSim``, the correlation-domain kernel of both channels,
    overrides neither.  Unless the noise is white with ``noise_variance``
    per lag, a kernel supplies ``_noise`` (one tile's noise in a buffer of
    ``noise_width`` values per block).  Workspaces belong to one ``chunk``
    call: concurrent workers share the simulator.
    """

    slots = 3   # tile workspaces: point sum, victim term, interference

    def __init__(self, cfg: ScenarioConfig, system: _System, victim: int,
                 ebn0_db: float):
        self.cfg = cfg
        self.system = system
        self.victim = victim
        self.key = _ebn0_key(ebn0_db)
        self.nf_lin = [nf_amplitude(nf_db) for nf_db in cfg.nf_db]
        self.n0 = NoiseSpec(ebn0_db, system.m_order, system.symbol_energy).n0
        self.ref = system.refs[victim]
        self.window = system.windows[victim]
        self.m = system.m_order
        self.pop = _popcount_table(self.m)
        self.ln = system.block_len
        self.noise_width = self.sum_width = self.ln
        self.noise_variance = self.ln * self.n0  # per bin of the noise spectrum
        self.cref = np.conj(np.fft.fft(self.ref))
        self.t = system.profile.t_max if system.profile is not None else 0

    @property
    def tile_rows(self) -> int:
        """Blocks per tile: the widest per-tile array is a workspace, or the
        noise when there is any."""
        width = max(self.sum_width, self.noise_width if self.n0 > 0.0 else 0)
        return max(1, min(_TILE_ROWS, _TILE_BYTES // (16 * width)))

    def chunk(self, size: int, chunk_idx: int, points=None):
        """Bit errors of one chunk at each near-far point in ``points``
        (indices into ``cfg.nf_db``, every one by default)."""
        points = range(len(self.nf_lin)) if points is None else points
        amps = [self.nf_lin[k] for k in points]
        msgs = self._messages(size, chunk_idx)
        links = self._links(size, chunk_idx)
        shifts = [(w.start + msgs[j]) % self.ln
                  for j, w in enumerate(self.system.windows)]
        rows = min(size, self.tile_rows)
        rng = None
        if self.n0 > 0.0:
            rng = _stream_rng(self.cfg.seed, _NOISE, self.key, chunk_idx)
            noise_buf = np.empty((rows, self.noise_width), dtype=np.complex128)
        work = np.empty(self.slots * rows * self.sum_width, dtype=np.complex128)
        mag = np.empty((rows, self.m))
        dec = np.empty((len(amps), size), dtype=np.intp)
        for lo in range(0, size, rows):
            hi = min(lo + rows, size)
            noise = None if rng is None else self._noise(rng, noise_buf[:hi - lo])
            # the tile's workspaces, each one contiguous: the point sum first
            ws = work[:self.slots * (hi - lo) * self.sum_width].reshape(
                self.slots, hi - lo, self.sum_width)
            victim_sum, interference, ctx = self._superpose(
                [h[lo:hi] for h in links], [tau[lo:hi] for tau in shifts], ws[1:])
            for d, r in zip(dec, _point_sums(amps, victim_sum, noise,
                                             interference, ws[0])):
                stat = np.abs(self._readout(r, ctx), out=mag[:hi - lo])
                np.argmax(stat, axis=1, out=d[lo:hi])
        errors = self.pop[np.bitwise_xor(dec, msgs[self.victim])].sum(axis=1)
        return [int(e) for e in errors]

    def _noise(self, rng, buf):
        """White noise on every lag of the block."""
        return complex_gaussian(rng, buf.shape, self.noise_variance, out=buf)

    # -- draws and the base hooks ------------------------------------------

    def _messages(self, size: int, chunk: int):
        msgs = {}
        for j in range(self.cfg.u):
            rng = _stream_rng(self.cfg.seed, _BITS, self.key, chunk, user=j)
            msgs[j] = rng.integers(0, self.m, size=size)
        return msgs

    def _links(self, size: int, chunk: int):
        """Per user ``j``, the unit-amplitude ``(size, t + 1)`` taps of the
        link from ``j`` to the victim (one gain on a single path)."""
        profile = self.system.profile
        links = []
        for j in range(self.cfg.u):
            rng = _stream_rng(self.cfg.seed, _GAINS if profile is None else _TAPS,
                              self.key, chunk, user=_pair_key(self.victim, j))
            links.append(draw_gains(rng, (size, 1), self.cfg.phase_model)
                         if profile is None else draw_taps(profile, rng, size))
        return links

    def _superpose(self, links, tau, ws):
        """Sum the gathered rows; the context is the victim's taps.

        A user's term adds tap ``p`` of its link times row ``tau[j] - p`` of
        ``rows[j]`` (the block sent at shift ``tau[j]``, delayed ``p`` lags)
        in tap order; the interferers' terms are summed in user order.  Each
        row gather is released before the next one is made.
        """
        victim_sum, interference = ws
        first = next((j for j in range(self.cfg.u) if j != self.victim), None)
        for j in range(self.cfg.u):
            acc = victim_sum if j == self.victim else interference
            for p in range(self.t + 1):
                rows = self.rows[j][(tau[j] - p) % self.ln]
                if p == 0 and j in (self.victim, first):
                    np.multiply(links[j][:, p, None], rows, out=acc)
                else:
                    acc += np.multiply(links[j][:, p, None], rows, out=rows)
                del rows
        return (victim_sum, None if first is None else interference,
                links[self.victim])

    def _readout(self, phi, taps):
        """The window of ``phi`` read through ``self.fingers``: one finger's
        columns as they are, several RAKE combined with ``taps``."""
        if len(self.fingers) == 1:
            return phi[:, self.fingers[0]]
        return rake_combine(phi, taps, self.fingers)


class _RakeSim(_PointSim):
    """Correlation-domain statistic over the window, on either channel.

    Row ``tau`` of ``rows[j]`` is user ``j``'s cross-correlation profile on
    the window lags ``start - T_max .. start + M - 1`` for a block sent at
    shift ``tau``; delayed by tap ``p`` the block reads row ``tau - p``, a
    zero-copy view of the reversed circulant of the profile.  RAKE finger
    ``q`` reads the window ``q`` lags early, so a single
    path (``T_max = 0``) has one finger and returns the summed window.  The
    noise on those lags is sampled exactly: through a Cholesky factor of its
    covariance for narrow windows, else as the full stationary correlation
    profile in the frequency domain.
    """

    def __init__(self, *args):
        super().__init__(*args)
        offsets = np.arange(-self.t, self.m)
        self.cholesky = None
        if self.n0 > 0.0 and offsets.size <= _CHOL_LIMIT:
            acf = periodic_xcorr_fft(self.ref, self.ref)
            cov = self.n0 * acf[(offsets[:, None] - offsets[None, :]) % self.ln]
            jitter = 1e-12 * self.n0 * max(1.0, self.system.symbol_energy)
            self.cholesky = np.linalg.cholesky(cov + jitter * np.eye(offsets.size))
            self.noise_width = offsets.size
        self.sum_width = offsets.size
        first = self.window.start - self.t
        self.noise_cols = _columns(first, offsets.size, self.ln)
        # row tau reads the profile from lag first - tau: the circulant's
        # rows in reverse order, over the profile rotated to lag first + 1
        self.rows = [_circulant_rows(np.roll(periodic_xcorr_fft(c, self.ref),
                                             -first - 1), offsets.size)[::-1]
                     for c in self.system.chips]
        self.fingers = [slice(self.t - q, self.t - q + self.m)
                        for q in range(self.t + 1)]

    def _noise(self, rng, buf):
        """Exact window slice of the noise correlation profile, per block."""
        if self.cholesky is not None:
            return complex_gaussian(rng, buf.shape, out=buf) @ self.cholesky.T
        g = super()._noise(rng, buf)
        return xcorr_from_spectrum(g, self.cref)[:, self.noise_cols]


class _FdeSim(_PointSim):
    """Traditional baseline over multipath: one-tap MMSE, then correlation;
    row ``tau`` of ``ramps`` is the spectrum ramp of a shift by ``tau``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.bf = [np.fft.fft(c) for c in self.system.chips]
        self.delay_ramp, self.inv_snr = _fde_params(self.system, self.n0)
        self.ramps = self.system.fde_ramps
        self.fingers = [_columns(self.window.start, self.m, self.ln)]
        self.slots = 1 + self.cfg.u   # the point sum, then each user's term

    def _superpose(self, links, tau, terms):
        """Every user's term in the frequency domain; the context is the
        MMSE weights of the victim's channel response."""
        # every user's channel response in one stacked product
        np.matmul(np.stack(links), self.delay_ramp, out=terms)
        mmse = mmse_weights(terms[self.victim], self.inv_snr)
        interference = None
        for j, term in enumerate(terms):
            term *= self.bf[j][None, :]
            term *= self.ramps[tau[j]]   # the gather is freed at once
            if j == self.victim:
                continue
            if interference is None:
                interference = term
            else:
                interference += term
        return terms[self.victim], interference, mmse

    def _readout(self, r, mmse):
        r *= mmse
        return super()._readout(xcorr_from_spectrum(r, self.cref), None)


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
        self.fde = (self.cfg.channel == "multipath"
                    and self.cfg.system == "traditional_tdcs")
        if self.fde:
            self.delay_ramp, self.inv_snr = _fde_params(self.system, self.n0)
        # RAKE finger q reads the window q lags early
        fingers = 1 if self.fde else self.t + 1
        self.fingers = [_columns(self.window.start - q, self.m, self.ln)
                        for q in range(fingers)]

    def _superpose(self, links, tau, ws):
        victim_sum, interference, hv = super()._superpose(links, tau, ws)
        mmse = (mmse_weights(hv @ self.delay_ramp, self.inv_snr) if self.fde
                else None)
        return victim_sum, interference, (hv, mmse)

    def _readout(self, r, ctx):
        hv, mmse = ctx
        np.fft.fft(r, axis=1, out=r)
        if mmse is not None:
            r *= mmse
        return super()._readout(xcorr_from_spectrum(r, self.cref), hv)


def _make_sim(cfg: ScenarioConfig, system: _System, victim: int,
              ebn0_db: float) -> _PointSim:
    if cfg.engine == "signal":
        return _SignalSim(cfg, system, victim, ebn0_db)
    if cfg.channel == "multipath" and cfg.system == "traditional_tdcs":
        return _FdeSim(cfg, system, victim, ebn0_db)
    return _RakeSim(cfg, system, victim, ebn0_db)


# ---------------------------------------------------------------------------
# stopping rule and scenario drivers
# ---------------------------------------------------------------------------

def _chunk_sizes(cfg: ScenarioConfig):
    full, rest = divmod(cfg.max_symbols, cfg.chunk_symbols)
    return [cfg.chunk_symbols] * full + ([rest] if rest else [])


class _Group:
    """The stopping rule of one point group, fed its chunks in order.

    ``pending`` holds ``(chunk index, points, future)`` for each chunk
    submitted and not yet consumed, in chunk order; ``points`` are the
    points open at submission.
    """

    def __init__(self, ebn0_db: float, victim: int, n_points: int):
        self.ebn0_db, self.victim = ebn0_db, victim
        self.sim = None
        self.submitted = 0
        self.pending = deque()
        self.open = tuple(range(n_points))
        self.errors = [0] * n_points
        self.symbols = [0] * n_points

    def consume(self, sizes, min_errors: int) -> bool:
        """Add the finished chunks at the head of ``pending`` to every point
        still open, in chunk order; True once the group is closed."""
        while self.pending and self.pending[0][2].done():
            idx, points, future = self.pending.popleft()
            for k, err in zip(points, future.result()):
                if k in self.open:
                    self.errors[k] += err
                    self.symbols[k] += sizes[idx]
                    if self.errors[k] >= min_errors:
                        self.open = tuple(q for q in self.open if q != k)
            if not self.open or idx == len(sizes) - 1:
                return True
        return False


class _Serial:
    """Executor that runs each call as it is submitted."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def _run_groups(cfg: ScenarioConfig, system: _System, groups, threads: int):
    """Run the chunks of ``groups`` until each point's stopping rule fires.

    At most ``threads`` chunks are in flight.  Each submission goes to the
    oldest open group with the fewest pending chunks; when every open group
    has one, the next unstarted group is opened first.  Results are
    consumed per group in chunk order, for the points open when the chunk
    was submitted; work past a point's stop is discarded, so the records do
    not depend on the worker count.  At ``threads=1`` this is the serial
    order and no pool is made.  A group's simulator is built at its first
    submission and freed when it closes.
    """
    sizes = _chunk_sizes(cfg)
    unstarted, active, dropped = deque(groups), [], []

    def next_group():
        if unstarted and all(g.pending for g in active):
            active.append(unstarted.popleft())
        return min((g for g in active if g.submitted < len(sizes)),
                   key=lambda g: len(g.pending), default=None)

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else _Serial()
    try:
        while active or unstarted:
            in_flight = (sum(len(g.pending) for g in active)
                         + sum(not f.done() for f in dropped))
            while in_flight < threads and (group := next_group()) is not None:
                if group.sim is None:
                    group.sim = _make_sim(cfg, system, group.victim, group.ebn0_db)
                idx = group.submitted
                group.pending.append((idx, group.open, pool.submit(
                    group.sim.chunk, sizes[idx], idx, group.open)))
                group.submitted += 1
                in_flight += 1
            # a finished chunk may wait for an earlier one of its group
            wait([f for g in active for *_, f in g.pending if not f.done()]
                 + [f for f in dropped if not f.done()], return_when=FIRST_COMPLETED)
            for group in [g for g in active if g.consume(sizes, cfg.min_bit_errors)]:
                active.remove(group)
                dropped += [f for *_, f in group.pending if not f.cancel()]
                group.sim = None
    finally:
        pool.shutdown(cancel_futures=True)
    for future in dropped:
        future.result()   # discarded work still reports its errors


def run_ber_scenario(cfg: ScenarioConfig, threads: int = 1) -> list:
    """Simulate every (Eb/N0, NF) grid point of a scenario.

    Waveforms are built once; each point group (one Eb/N0 and one victim
    over the whole near-far grid) draws per-block data, channel, and noise
    from keyed substreams, demodulates user 1 (all users when
    ``measure_all_users``), and counts bit errors under the stopping rule
    of each point.  ``threads`` is the number of chunks computed
    concurrently (at least 1), on one thread pool per call; the scheduler
    ``_run_groups`` serves the groups need first.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    system = build_system(cfg)
    victims = range(cfg.u) if cfg.measure_all_users else (0,)
    groups = [_Group(ebn0_db, victim, len(cfg.nf_db))
              for ebn0_db in cfg.ebn0_db for victim in victims]
    _run_groups(cfg, system, groups, threads)
    kbits = system.m_order.bit_length() - 1
    records = []
    for k, nf_db in enumerate(cfg.nf_db):
        for ebn0_db in cfg.ebn0_db:
            per_user = tuple((g.victim + 1, kbits * g.symbols[k], g.errors[k])
                             for g in groups if g.ebn0_db == ebn0_db)
            records.append(BerRecord(
                ebn0_db=ebn0_db, nf_db=nf_db,
                bits_sent=sum(bits for _, bits, _ in per_user),
                bit_errors=sum(e for *_, e in per_user),
                reached_min_errors=all(e >= cfg.min_bit_errors for *_, e in per_user),
                per_user=per_user))
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


def emit_results(records, cfg: ScenarioConfig, out_dir):
    """Write the results CSV plus a human-readable run report.

    Returns the written paths.  The CSV body is a pure function of
    ``(config, seed)``.
    """
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
