"""Monte Carlo BER engine, scenario configs, and the results CSV.

A scenario fixes one system (windowed-shift multiuser design or the
traditional full-range CCSK baseline), a spectrum mark, a load (U, M), a
channel, and an Eb/N0 (and optionally near-far) grid.  ``run_ber_scenario``
measures the bit error rate at user 1's receiver with all users transmitting,
stopping per point at ``min_bit_errors`` or ``max_symbols``.

``ScenarioConfig`` is the scenario format's one schema: its annotations give
each key's text format (construction writes and reads back every value, so a
value is what its text says) and choices, ``_RULES`` each key's rule on its
value alone (which ``read_results`` applies too), and construction adds the
cross-key rules and ``_layout``, the geometry that ``build_system`` reads;
each rejection is a ``ScenarioError`` naming its key, so a config that
constructs builds.

Determinism and reproducibility
-------------------------------
Every random draw comes from a substream keyed by
``(seed, purpose, Eb/N0 value, chunk index[, user index])`` through
``numpy.random.SeedSequence``.  Consequences:

* identical ``(config, seed)`` reproduce identical records for any worker
  count (chunks are pure functions of their index, and the scheduler
  ``_run_groups`` consumes them in submission order, so each point's
  stopping rule sees its group's chunks in serial order);
* user 1 is the only receiver measured, and its draws carry no user count:
  runs differing only in user count, near-far factor, or sensing mismatch
  share them, so paired comparisons are common-random-number comparisons;
* since no draw is keyed by the near-far factor, one Eb/N0 value forms a
  point group over the whole ``nf_db`` grid, whose points share one set of
  draws, each with its own stopping rule (see ``_PointSim``).  A point's
  records equal those of a run with ``nf_db`` set to its value alone;
* a chunk is evaluated in row tiles within a byte budget (``_TILE_BYTES``),
  consuming its noise stream tile by tile in row order, and its messages,
  links and shifts are drawn in slabs of whole tiles from per-chunk
  generators.  A split draw equals the whole one, so the records depend on
  neither height, and no array of a chunk grows with ``chunk_symbols``.

One simulator (``_make_sim``) serves every point group of a run: of what
it builds, only the noise law depends on Eb/N0.

The default engine works in the correlation domain: because demodulation is
linear in the received block, the windowed decision statistic equals the sum
of precomputed cross-correlation profiles (gathered at data-dependent shifts)
plus a correlated Gaussian noise term sampled exactly from its distribution.
One such kernel serves both channels: a single path is the one-finger case
of RAKE, and only the traditional baseline over multipath equalizes instead.
The ``signal`` engine runs the literal modulate/channel/demodulate pipeline.
Each kernel supplies one user's term, its noise and its readout, and
``_PointSim`` sums and decides them as the per-block detectors do; the
engines are tested against each other.  As in the CCSK receiver, where a
symbol is a cyclic shift, every kernel's per-user table is indexed by the
transmitted shift (the FDE's by its two base-``b`` digits,
``b = ceil(sqrt(L*N))``).  Both engines take the channel and receiver model
from ``channel``, ``receiver`` and ``seqcore``, calling their batch
functions on slabs and tiles.
"""

from __future__ import annotations

import hashlib
import math
import os
import typing
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from typing import Literal

import numpy as np

from .allocation import ShiftWindow, _check_order, _columns, m_max, plan_shifts, u_max
from .channel import (
    MultipathProfile,
    NoiseSpec,
    PhaseModel,
    complex_gaussian,
    cost207_ra6,
    draw_gains,
    draw_taps,
    ebn0_linear,
    nf_amplitude,
)
from .errors import CapacityError, ParameterError, ScenarioError, TdcsError
from .receiver import decide, mmse_weights
from .seqcore import (
    builtin_quadriphase16,
    gen_zadoff_chu,
    kronecker_synthesize,
    periodic_xcorr_fft,
    xcorr_from_spectrum,
)
from .spectrum import SpectrumMark, band_union, mark_from_bands, mismatch_mask
from .waveform import gen_phase_sequence, synth_fmw

System = Literal["mui_free_tdcs", "traditional_tdcs"]
Channel = Literal["single_path", "multipath"]
Engine = Literal["auto", "signal"]

# default spectrum occupancy: two unavailable bands of the default 10 MHz
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

    The fields are the scenario file's keys in canonical order.  One run has
    one form: ``eta = 1.0`` is stored as ``None``, the bands as a sorted union.
    """

    scenario_id: str = "scenario"
    system: System = "mui_free_tdcs"
    n: int = 64
    l: int = 16
    m: int | str = 64                 # CCSK order, or "full"
    u: int = 1
    nf_db: tuple[float, ...] = (10.0,)
    channel: Channel = "single_path"
    phase_model: PhaseModel = "uniform-phase"
    ebn0_db: tuple[float, ...] = (0.0, 2.0, 4.0, 6.0, 8.0)
    seed: int = 42
    min_bit_errors: int = 100
    max_symbols: int = 2_000_000
    bandwidth_mhz: float = 10.0
    unavailable_mhz: tuple[tuple[float, float], ...] = DEFAULT_UNAVAILABLE_MHZ
    engine: Engine = "auto"
    chunk_symbols: int = 8192
    eta: float | None = None          # receiver-side sensing mismatch
    mismatch_seed: int | None = None  # only with eta < 1

    def __post_init__(self):
        for key, (parse, fmt) in _SCHEMA.items():  # each value is what its text says
            value = getattr(self, key)  # None leaves an optional key unset
            if value is not None or type(None) not in typing.get_args(_HINTS[key]):
                try:
                    object.__setattr__(self, key, parse(fmt(value)))
                except (TypeError, ValueError) as exc:
                    raise ScenarioError(f"{key}: {exc}") from exc
        for key, rule in _RULES.items():
            _apply_rule(key, rule, getattr(self, key))
        if self.eta == 1.0:  # perfect sensing: the run of no eta, one digest
            object.__setattr__(self, "eta", None)
        # without a mismatch the seed draws nothing, yet would change the digest
        if self.mismatch_seed is not None and self.eta is None:
            raise ScenarioError("mismatch_seed needs eta < 1")
        # multipath links are always Rayleigh taps: the model would draw nothing
        if self.channel == "multipath" and self.phase_model != "uniform-phase":
            raise ScenarioError("phase_model applies to the single-path channel only")
        object.__setattr__(self, "unavailable_mhz", _apply_rule(
            "unavailable_mhz", band_union, self.bandwidth_mhz, self.unavailable_mhz))
        object.__setattr__(self, "_geometry", _layout(self))  # build_system reads it


def _apply_rule(key: str, rule, *args):
    """``rule(*args)``; a rule's error becomes a ``ScenarioError`` naming ``key``."""
    try:
        return rule(*args)
    except (ParameterError, CapacityError) as exc:
        raise ScenarioError(f"{key}: {exc}") from exc


def _rule(test, text: str):
    """A rule that raises ``ParameterError`` (``text``) unless ``test(value)``."""
    def rule(value):
        if not test(value):
            raise ParameterError(f"{text}, got {value!r}")
    return rule


def _layout(cfg: ScenarioConfig) -> tuple:
    """``(transmit mark, windows, multipath profile or None)``, each rule once
    and naming its key: ``L >= 2`` (windowed) or ``m = full`` (traditional),
    4 bins and a bin left, the order and width, the load with ``T_max``."""
    traditional, ln = cfg.system == "traditional_tdcs", cfg.l * cfg.n
    profile = cost207_ra6() if cfg.channel == "multipath" else None
    t_max = profile.t_max if profile is not None else 0
    if not traditional:
        _apply_rule("l", u_max, cfg.l, 1, 1)
    elif cfg.m not in ("full", ln):
        raise ScenarioError("m: the traditional baseline needs m = full")
    bins = ln if traditional else cfg.n
    _apply_rule("n", mark_from_bands, cfg.bandwidth_mhz, (), bins)
    mark = _apply_rule("unavailable_mhz", mark_from_bands, cfg.bandwidth_mhz,
                       cfg.unavailable_mhz, bins)
    order = ln if cfg.m == "full" else cfg.m  # m = full: the circle, or m_max
    if cfg.m == "full" and not traditional and cfg.u > 1:
        order = _apply_rule("u", m_max, cfg.l, cfg.n, cfg.u, t_max)
    _apply_rule("m", _check_order, "order", order)
    window = _apply_rule("m", ShiftWindow, 0, order, ln)
    windows = ((window,) * cfg.u if traditional else  # all on the whole circle
               _apply_rule("u", plan_shifts, cfg.u, cfg.n, cfg.l, order, t_max).windows)
    return mark, windows, profile


# ---------------------------------------------------------------------------
# scenario file format: line-oriented "key = value", '#' starts a comment
# ---------------------------------------------------------------------------

def _codec(tp):
    """``(parse, format)`` text codec for the field annotation ``tp``.

    A variable-length tuple is a comma list (empty text is the empty tuple),
    a fixed-length tuple of one type a colon list; a union parses as its
    first member that accepts the text (``None`` is never written).
    """
    args = typing.get_args(tp)
    if typing.get_origin(tp) is Literal:  # _RULES checks the choice
        return str, str
    if typing.get_origin(tp) is tuple:
        parse, fmt = _codec(args[0])

        def texts(value):  # a text is one value, never a sequence of them
            if isinstance(value, str):
                raise TypeError(f"expected values, got the text {value!r}")
            return map(fmt, value)

        if args[-1] is Ellipsis:
            return (lambda text: tuple(parse(v) for v in text.split(","))
                    if text else (),
                    lambda value: ", ".join(texts(value)))

        def parse_fixed(text):
            value = tuple(parse(v) for v in text.split(":"))
            if len(value) != len(args):
                raise ValueError(f"expected {len(args)} ':'-separated values")
            return value

        return parse_fixed, lambda value: ":".join(texts(value))
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
    return tp, str  # a float's str is its repr; a numpy scalar's, its value's


_HINTS = typing.get_type_hints(ScenarioConfig)
_SCHEMA = {f.name: _codec(_HINTS[f.name]) for f in fields(ScenarioConfig)}
# each key's rule on its value alone, which ``read_results`` applies too
_RULES = {
    # the id names the output files, fills the CSV's first column ('"' would
    # open a quoted field) and reads back from a file ('#' opens a comment)
    "scenario_id": _rule(lambda s: s.splitlines() == [s] and s == s.strip()
                         and not set(s) & set('/\\,"#'),
                         "must be non-empty, without '/', '\\', ',', '\"', '#', "
                         "line breaks or edge spaces"),
    **{key: _rule(typing.get_args(tp).__contains__, f"must be one of {typing.get_args(tp)}")
       for key, tp in _HINTS.items() if typing.get_origin(tp) is Literal},
    **{key: _rule(lambda v, low=low: v >= low, f"must be >= {low}")
       for key, low in (("n", 1), ("l", 1), ("u", 1), ("min_bit_errors", 1),
                        ("max_symbols", 1), ("chunk_symbols", 1), ("seed", 0))},
    "mismatch_seed": _rule(lambda v: v is None or v >= 0, "must be >= 0"),
    # a grid: values that meet the model's rule, one CSV row key each (at
    # 1 mdB for Eb/N0, whose draws ``_ebn0_key`` keys at that resolution)
    "nf_db": _rule(lambda grid: grid and [*map(nf_amplitude, grid)]
                   and len(set(grid)) == len(grid), "must be one or more distinct values"),
    "ebn0_db": _rule(lambda grid: grid and [*map(ebn0_linear, grid)]
                     and len(set(map(_ebn0_key, grid))) == len(grid),
                     "must be one or more values 0.001 dB apart"),
    "bandwidth_mhz": lambda bandwidth: band_union(bandwidth, ()),
    "eta": _rule(lambda eta: eta is None or 0.0 < eta <= 1.0, "must lie in (0, 1]"),
}


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
    ones set to ``None`` (round-trips through ``parse_scenario``)."""
    lines = []
    for name, (_, fmt) in _SCHEMA.items():
        value = getattr(cfg, name)
        if value is not None:
            lines.append(f"{name} = {fmt(value)}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(scenario_to_text(cfg).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BerRecord:
    """User 1's error counts at one (Eb/N0, NF) grid point."""

    ebn0_db: float
    nf_db: float
    bits_sent: int
    bit_errors: int
    reached_min_errors: bool

    def __post_init__(self):
        if self.bits_sent < 1 or not 0 <= self.bit_errors <= self.bits_sent:
            raise ParameterError("need bits >= 1 and 0 <= errors <= bits")

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
    ref: np.ndarray                 # user 1's reference (receiver-side mark)
    windows: tuple                  # per-user ShiftWindow
    m_order: int
    block_len: int
    symbol_energy: float
    mark_tx: SpectrumMark
    profile: MultipathProfile | None
    fde: bool                       # equalize (traditional over multipath)


def _time_code(l: int):
    return builtin_quadriphase16() if l == 16 else gen_zadoff_chu(l, 1)


def _derived_seed(seed: int, purpose: int, index: int) -> int:
    ss = np.random.SeedSequence([int(seed), purpose, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def build_system(cfg: ScenarioConfig) -> _System:
    """Materialize waveforms for a scenario, on the layout its config keeps."""
    mark_tx, windows, profile = cfg._geometry
    traditional = cfg.system == "traditional_tdcs"
    mark_rx = mark_tx
    if cfg.eta is not None:
        mm_seed = (cfg.mismatch_seed if cfg.mismatch_seed is not None
                   else _derived_seed(cfg.seed, _MISMATCH, 0))
        mark_rx = mismatch_mask(mark_tx, cfg.eta, mm_seed)
    spread = np.copy if traditional else partial(kronecker_synthesize, _time_code(cfg.l))

    def chip(mark, j):  # user j's phases depend on j alone, not on the mark
        phases = gen_phase_sequence(_derived_seed(cfg.seed, _FMW, j), mark_tx.n)
        return spread(synth_fmw(mark, phases).samples)

    chips = [chip(mark_tx, j) for j in range(cfg.u)]
    ref = chips[0] if mark_rx is mark_tx else chip(mark_rx, 0)
    energy = 1.0 if traditional else float(np.sum(np.abs(chips[0]) ** 2))
    return _System(
        chips=chips, ref=ref, windows=windows, m_order=windows[0].width,
        block_len=cfg.l * cfg.n, symbol_energy=energy, mark_tx=mark_tx,
        profile=profile, fde=traditional and profile is not None,
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


def _circulant_rows(profile: np.ndarray, width: int) -> np.ndarray:
    """Read-only ``(len(profile), width)`` view: row ``s`` is the window
    ``profile[(s + o) % len(profile)]`` for ``o < width``.

    Gathering rows of this view replaces modular index arithmetic over the
    whole window; it strides over one circularly extended copy of the profile.
    """
    ln = profile.size
    extended = profile[np.arange(ln + width - 1) % ln]
    return np.lib.stride_tricks.sliding_window_view(extended, width)


def _shift_ramps(shifts: np.ndarray, ln: int) -> np.ndarray:
    """``exp(2j * pi * outer(shifts, k) / ln)`` for ``k < ln``: row ``i`` is
    the spectrum ramp of a cyclic shift by ``shifts[i]``."""
    return np.exp(2j * np.pi * np.outer(shifts, np.arange(ln)) / ln)


# ---------------------------------------------------------------------------
# point simulators
# ---------------------------------------------------------------------------

# a tile's widest complex array (16 bytes per lag and block) takes at most
# _TILE_BYTES: 16 rows at L*N = 1024 lags, 128 at M = 128, well inside a
# core's L2; so do a slab's draws.  The _TILE_ROWS cap keeps windows of 64
# lags or fewer at 256 rows; taller tiles ran slower at M = 64.  Neither
# constant changes the records.
_TILE_BYTES = 256 * 1024
_TILE_ROWS = 256


class _PointSim:
    """Simulation context of one run; ``chunk`` is a pure function.

    ``chunk`` serves the point group of the Eb/N0 value it is given: that
    value with every near-far value of ``cfg.nf_db``.  No draw is keyed by
    the near-far factor, so the group's points share one set of draws.  Only
    the noise law depends on Eb/N0: ``n0`` maps each value to its noise
    level, from which a chunk derives the rest.  The receiver is user 1
    (index 0, the victim); every other user interferes.  A chunk draws its
    messages, unit-amplitude links and transmitted shifts in slabs of
    ``slab_rows`` blocks (``_draws``), walks each slab in tiles of
    ``tile_rows`` rows and counts each point's bit errors per slab.

    A kernel supplies one user's term (``_add_term``), its noise and its
    readout; the base sums and decides, in three tile workspaces of
    ``sum_width`` values per block for any user count.  ``_superpose`` sums
    the users' unit-amplitude terms into the victim's term and the
    interference (``None`` at ``u = 1``) and returns both with the MMSE
    weights (``None`` unless the system equalizes).  ``chunk`` adds the
    tile's noise, drawn in row order, to the victim's term, forms each open
    point's sum in the point workspace and decides it (``receiver.decide``
    through ``fingers``, the victim's link as the RAKE taps) on
    ``_readout(r, weights)``, the correlation rows of a sum ``r`` that it
    may overwrite; a point sees the same operations in a group of any size.
    With no interferer no amplitude enters the sum, so the tile is decided
    once for every point.  The base ``_add_term`` and ``_readout`` serve
    ``_RakeSim``, the correlation-domain kernel of both channels.  Unless
    the noise is white with ``L*N * n0`` per lag, a kernel supplies
    ``_noise`` (one tile's noise at level ``n0`` in a buffer of
    ``noise_width`` values per block).  Workspaces belong to one ``chunk``
    call: concurrent workers share the simulator.
    """

    def __init__(self, cfg: ScenarioConfig, system: _System):
        self.cfg = cfg
        self.system = system
        self.nf_lin = [nf_amplitude(nf_db) for nf_db in cfg.nf_db]
        self.ref = system.ref
        self.window = system.windows[0]
        self.m = system.m_order
        self.n0 = {ebn0_db: NoiseSpec(ebn0_db, self.m, system.symbol_energy).n0
                   for ebn0_db in cfg.ebn0_db}
        self.ln = system.block_len
        self.noise_width = self.sum_width = self.ln
        self.cref = np.conj(np.fft.fft(self.ref))
        self.t = system.profile.t_max if system.profile is not None else 0
        # RAKE finger q reads the window q lags early; the FDE equalizes instead
        self.fingers = self.window.fingers(1 if system.fde else self.t + 1)
        if system.fde:
            # the one-tap MMSE's tap-to-bin ramp (a delay by p lags is a shift by -p)
            self.delay_ramp = _shift_ramps(-np.arange(self.t + 1), self.ln)

    @property
    def tile_rows(self) -> int:
        """Blocks per tile: the widest per-tile array is a workspace or noise."""
        width = max(self.sum_width, self.noise_width)
        return max(1, min(_TILE_ROWS, _TILE_BYTES // (16 * width)))

    @property
    def slab_rows(self) -> int:
        """Blocks per slab: the most whole tiles, at least one, whose draws
        (each user's message, shift and link taps) fit ``_TILE_BYTES``."""
        row_bytes = self.cfg.u * 16 * (self.t + 2)
        return self.tile_rows * max(1, _TILE_BYTES // (row_bytes * self.tile_rows))

    def chunk(self, ebn0_db: float, size: int, chunk_idx: int, points=None):
        """Bit errors of one chunk of the ``ebn0_db`` group at each near-far
        point in ``points`` (indices into ``cfg.nf_db``, every one by default)."""
        key, n0 = _ebn0_key(ebn0_db), self.n0[ebn0_db]
        points = range(len(self.nf_lin)) if points is None else points
        amps = [self.nf_lin[k] for k in points]
        rows = min(size, self.tile_rows)
        rng = None
        if n0 > 0.0:
            rng = _stream_rng(self.cfg.seed, _NOISE, key, chunk_idx)
            noise_buf = np.empty((rows, self.noise_width), dtype=np.complex128)
        work = np.empty(3 * rows * self.sum_width, dtype=np.complex128)
        mag = np.empty((rows, self.m))
        dec_buf = np.empty(len(amps) * min(size, self.slab_rows), dtype=np.intp)
        errors = np.zeros(len(amps), dtype=np.int64)
        for msgs, links, shifts in self._draws(key, size, chunk_idx, self.slab_rows):
            dec = dec_buf[:len(amps) * len(msgs[0])].reshape(len(amps), -1)
            for lo in range(0, dec.shape[1], rows):
                hi = min(lo + rows, dec.shape[1])
                # the tile's workspaces, each one contiguous: the point sum first
                ws = work[:3 * (hi - lo) * self.sum_width].reshape(
                    3, hi - lo, self.sum_width)
                taps = links[0][lo:hi]
                victim, interference, weights = self._superpose(
                    [h[lo:hi] for h in links], [tau[lo:hi] for tau in shifts],
                    ws[1:], n0)
                if rng is not None:
                    victim += self._noise(rng, noise_buf[:hi - lo], n0)
                if interference is None:
                    decide(self._readout(victim, weights), taps, self.fingers,
                           out=dec[0, lo:hi], mag=mag[:hi - lo])
                    dec[1:, lo:hi] = dec[0, lo:hi]
                    continue
                for d, a in zip(dec, amps):
                    # a is real, so it scales the float view
                    np.multiply(interference.view(np.float64), a,
                                out=ws[0].view(np.float64))
                    ws[0] += victim
                    decide(self._readout(ws[0], weights), taps, self.fingers,
                           out=d[lo:hi], mag=mag[:hi - lo])
            np.bitwise_xor(dec, msgs[0], out=dec)
            errors += np.bitwise_count(dec, out=dec).sum(axis=1)
        return [int(e) for e in errors]

    def _noise(self, rng, buf, n0):
        """White noise of ``L*N * n0`` (per bin of a spectrum) on every lag."""
        return complex_gaussian(rng, buf.shape, self.ln * n0, out=buf)

    def inv_snr(self, n0):
        """The one-tap MMSE's ``1 / snr`` at the noise level ``n0``."""
        snr = ((self.ln / self.system.mark_tx.n_available) / (self.ln * n0)
               if n0 > 0.0 else 1e15)
        return 1.0 / snr

    # -- draws and the base hooks ------------------------------------------

    def _draws(self, key: int, size: int, chunk: int, slab: int):
        """Yield the chunk's ``(messages, links, shifts)`` at the Eb/N0 key
        ``key`` for each run of ``slab`` blocks (the last one shorter), one
        entry per user.

        Each user's messages and links come from generators made once per
        chunk, so the slabs joined are the whole chunk's draws for any
        ``slab``.  User ``j``'s link to the victim has unit amplitude, one
        gain on a single path, else ``t + 1`` taps; its shifts lie in its window.
        """
        profile = self.system.profile
        users = range(self.cfg.u)
        bits = [_stream_rng(self.cfg.seed, _BITS, key, chunk, user=j)
                for j in users]
        gains = [_stream_rng(self.cfg.seed, _GAINS if profile is None else _TAPS,
                             key, chunk, user=j) for j in users]
        for lo in range(0, size, slab):
            rows = min(slab, size - lo)
            msgs = [rng.integers(0, self.m, size=rows) for rng in bits]
            links = [draw_gains(rng, (rows, 1), self.cfg.phase_model)
                     if profile is None else draw_taps(profile, rng, rows)
                     for rng in gains]
            shifts = [(w.start + msg) % self.ln
                      for w, msg in zip(self.system.windows, msgs)]
            yield msgs, links, shifts

    def _superpose(self, links, tau, ws, n0):
        """Sum every user's term in user order: the victim's into its
        workspace, the interferers' into the other.  The MMSE weights, when
        the system equalizes, are those of the victim's channel at ``n0``."""
        victim_sum, interference = ws
        for j in range(self.cfg.u):
            self._add_term(j, links[j], tau[j], interference if j else victim_sum,
                           j < 2)   # the first term of each sum
        mmse = (mmse_weights(links[0] @ self.delay_ramp, self.inv_snr(n0))
                if self.system.fde else None)
        return victim_sum, interference if self.cfg.u > 1 else None, mmse

    def _add_term(self, j, link, tau, acc, first):
        """Write user ``j``'s term to ``acc`` if ``first``, else add it: tap
        ``p`` of the link times row ``tau - p`` of ``rows[j]`` (the block sent
        at shift ``tau``, delayed ``p`` lags), in tap order, each row gather
        released before the next one is made."""
        for p in range(self.t + 1):
            rows = self.rows[j][(tau - p) % self.ln]
            if p == 0 and first:
                np.multiply(link[:, p, None], rows, out=acc)
            else:
                acc += np.multiply(link[:, p, None], rows, out=rows)
            del rows

    def _readout(self, phi, weights):
        """The correlation rows that ``decide`` reads."""
        return phi


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
        if offsets.size <= _CHOL_LIMIT:
            # the window noise's covariance over n0, factored per noise level
            acf = periodic_xcorr_fft(self.ref, self.ref)[
                (offsets[:, None] - offsets[None, :]) % self.ln]
            self.cholesky = {}
            for n0 in self.n0.values():
                if n0 > 0.0:
                    jitter = 1e-12 * n0 * max(1.0, self.system.symbol_energy)
                    self.cholesky[n0] = np.linalg.cholesky(
                        n0 * acf + jitter * np.eye(offsets.size))
            self.noise_width = offsets.size
        self.sum_width = offsets.size
        first = self.window.start - self.t
        # the full-circle RAKE window (M + T_max lags) is wider than the circle
        self.noise_cols = _columns(first, offsets.size, self.ln)
        # row tau reads the profile from lag first - tau: the circulant's
        # rows in reverse order, over the profile rotated to lag first + 1
        self.rows = [_circulant_rows(np.roll(periodic_xcorr_fft(c, self.ref),
                                             -first - 1), offsets.size)[::-1]
                     for c in self.system.chips]
        # on the summed lags the window starts at column T_max
        self.fingers = ShiftWindow(self.t, self.m, offsets.size).fingers(self.t + 1)

    def _noise(self, rng, buf, n0):
        """Exact window slice of the noise correlation profile, per block."""
        if self.cholesky is not None:
            return complex_gaussian(rng, buf.shape, out=buf) @ self.cholesky[n0].T
        g = super()._noise(rng, buf, n0)
        return xcorr_from_spectrum(g, self.cref)[:, self.noise_cols]


class _FdeSim(_PointSim):
    """Traditional baseline over multipath: one-tap MMSE, then correlation.

    A user's term is its channel response times the spectrum of its block.
    With ``b = ceil(sqrt(L*N))`` a block sent at shift ``tau = b * hi + lo``
    has the spectrum ``spectra[j][lo] * hi_ramps[hi]``: user ``j``'s chip
    spectrum times the ramps of ``lo`` and of ``b * hi``.  The tables hold
    ``(u * b + ceil(L*N / b)) * L*N`` values, where one row per shift would
    hold ``(L*N)**2``.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.b = math.isqrt(self.ln - 1) + 1
        lo_ramps = _shift_ramps(np.arange(self.b), self.ln)
        self.spectra = [np.fft.fft(c) * lo_ramps for c in self.system.chips]
        self.hi_ramps = _shift_ramps(self.b * np.arange(-(-self.ln // self.b)),
                                     self.ln)

    def _add_term(self, j, link, tau, acc, first):
        term = np.matmul(link, self.delay_ramp, out=acc if first else None)
        hi, lo = np.divmod(tau, self.b)
        term *= self.spectra[j][lo]   # each gather is freed at once
        term *= self.hi_ramps[hi]
        if not first:
            acc += term

    def _readout(self, r, mmse):
        r *= mmse
        return xcorr_from_spectrum(r, self.cref)


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
        self.rows = [_circulant_rows(c, self.ln) for c in self.system.chips]

    def _noise(self, rng, buf, n0):
        """White noise of ``n0`` per time sample."""
        return complex_gaussian(rng, buf.shape, n0, out=buf)

    def _readout(self, r, mmse):
        np.fft.fft(r, axis=1, out=r)
        if mmse is not None:
            r *= mmse
        return xcorr_from_spectrum(r, self.cref)


def _make_sim(cfg: ScenarioConfig, system: _System) -> _PointSim:
    if cfg.engine == "signal":
        return _SignalSim(cfg, system)
    if system.fde:
        return _FdeSim(cfg, system)
    return _RakeSim(cfg, system)


# ---------------------------------------------------------------------------
# stopping rule and scenario drivers
# ---------------------------------------------------------------------------

def _chunk_size(cfg: ScenarioConfig, idx: int) -> int:
    """Symbols of chunk ``idx``: ``chunk_symbols``, the last chunk the rest
    of ``max_symbols``.  Computed per chunk, as the count may be huge."""
    return min(cfg.chunk_symbols, cfg.max_symbols - idx * cfg.chunk_symbols)


class _Group:
    """The stopping rule of one point group (one Eb/N0 value), fed its
    chunks in order."""

    def __init__(self, ebn0_db: float, n_points: int):
        self.ebn0_db = ebn0_db
        self.open = tuple(range(n_points))
        self.errors = [0] * n_points
        self.symbols = [0] * n_points

    def consume(self, cfg: ScenarioConfig, idx: int, points, errors):
        """Add chunk ``idx``'s ``errors`` at ``points``, the points open at
        its submission, to every point still open."""
        for k, err in zip(points, errors):
            if k in self.open:
                self.errors[k] += err
                self.symbols[k] += _chunk_size(cfg, idx)
                if self.errors[k] >= cfg.min_bit_errors:
                    self.open = tuple(q for q in self.open if q != k)


class _Serial:
    """Executor that runs each call as it is submitted.  A one-worker pool
    in its place was slower in all 6 perfbench pairs on a 2-core host
    (``wall_s`` 1.68-2.08 -> 1.78-2.13 s on ``full_circle``, 1.65-1.90 ->
    1.74-1.99 s on ``multipath``), with 0.9-1.6 MB more peak RSS."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def _jobs(cfg: ScenarioConfig, groups):
    """Chunk-major ``(group, chunk index)`` pairs: chunk 0 of every group in
    grid order, then chunk 1 of each, and so on, over the groups still open."""
    for idx in range(-(-cfg.max_symbols // cfg.chunk_symbols)):
        if not any(g.open for g in groups):
            break
        yield from ((g, idx) for g in groups if g.open)


def _run_groups(cfg: ScenarioConfig, sim: _PointSim, groups, threads: int):
    """Run the chunks of ``groups`` on ``sim``, in the order of ``_jobs``,
    until each point's stopping rule fires.  Each chunk is submitted for the
    points its group has open into one queue of at most ``threads`` chunks,
    whose head is consumed (blocking on it if need be) once it has finished,
    when the queue is full, or when no job is left.  So each group consumes
    its own chunks in order and the records do not depend on the worker
    count.  At ``threads=1`` this is the serial order and no pool is made."""
    jobs = _jobs(cfg, groups)
    queue = deque()
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else _Serial()
    try:
        while (job := next(jobs, None)) or queue:
            if job:
                group, idx = job
                queue.append((group, idx, group.open, pool.submit(
                    sim.chunk, group.ebn0_db, _chunk_size(cfg, idx), idx,
                    group.open)))
            while queue and (queue[0][3].done() or len(queue) == threads or not job):
                # a discarded chunk is read too, so that its errors surface
                group, idx, points, future = queue.popleft()
                group.consume(cfg, idx, points, future.result())
    finally:
        pool.shutdown(cancel_futures=True)


def run_ber_scenario(cfg: ScenarioConfig, threads: int = 1) -> list:
    """Simulate every (Eb/N0, NF) grid point of a scenario.

    Waveforms and the simulator are built once; each point group (one Eb/N0
    value over the whole near-far grid) draws per-block data, channel, and
    noise from keyed substreams, demodulates user 1, and counts its bit
    errors under the stopping rule of each point.  Records come NF-major,
    one per grid point.  ``threads`` (at least 1) bounds the chunks computed
    at once, on one thread pool per call, in the chunk-major order of
    ``_run_groups``.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    system = build_system(cfg)
    groups = [_Group(ebn0_db, len(cfg.nf_db)) for ebn0_db in cfg.ebn0_db]
    _run_groups(cfg, _make_sim(cfg, system), groups, threads)
    kbits = system.m_order.bit_length() - 1
    return [BerRecord(ebn0_db=g.ebn0_db, nf_db=nf_db,
                      bits_sent=kbits * g.symbols[k], bit_errors=g.errors[k],
                      reached_min_errors=g.errors[k] >= cfg.min_bit_errors)
            for k, nf_db in enumerate(cfg.nf_db) for g in groups]


# ---------------------------------------------------------------------------
# the results CSV: its writer and its reader
# ---------------------------------------------------------------------------

CSV_HEADER = "scenario_id,system,U,NF_db,ebn0_db,bits,errors,ber,ci_halfwidth"


def _csv_row(scenario_id: str, system: str, u: int, rec: BerRecord) -> list:
    """The fields ``records_to_csv`` writes for one record of a run."""
    return [scenario_id, system, str(u), repr(rec.nf_db),
            repr(rec.ebn0_db), str(rec.bits_sent), str(rec.bit_errors),
            repr(rec.ber), repr(rec.ci_halfwidth)]


def records_to_csv(cfg: ScenarioConfig, records) -> str:
    rows = [",".join(_csv_row(cfg.scenario_id, cfg.system, cfg.u, r)) for r in records]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


# the columns read: five scenario keys, then the counts (parsed as int)
_ROW_KEYS = ("scenario_id", "system", "u", "nf_db", "ebn0_db", "bits", "errors")


def read_results(path):
    """Yield ``(scenario_id, system, u, record)`` for each row of a results
    CSV, which must be, line by line, what ``records_to_csv`` writes.

    Column by column, a row's text parses through its key's text format
    (``_SCHEMA``; a grid of one value) and meets the key's own rule
    (``_RULES``) or ``BerRecord``'s (no error counted before ``errors``);
    then each text must be the writer's.  No other key is read, so a row of
    any ``U`` reads back.  ``ParameterError`` names the first column that
    fails.
    """
    header = CSV_HEADER.split(",")
    with open(path) as fh:
        lines = fh.read().splitlines() or [""]
    for lineno, line in enumerate(lines, start=1):
        texts = line.split(",", len(header) - 1)  # extras stay in the last
        texts += [None] * (len(header) - len(texts))
        values, i = [], 0
        try:
            for i, key in enumerate(_ROW_KEYS if lineno > 1 else ()):
                values.append(_SCHEMA.get(key, (int,))[0](texts[i]))
                if key in _RULES:
                    _apply_rule(key, _RULES[key], values[i])
                else:
                    rec = BerRecord(values[4][0], values[3][0], values[5],
                                    values[6] if key == "errors" else 0, False)
            written = _csv_row(*values[:3], rec) if lineno > 1 else header  # line 1
            for i, text in enumerate(texts):
                if text != written[i]:
                    raise ValueError(f"the writer writes {written[i]!r}")
        except (TypeError, ValueError, OverflowError, TdcsError) as exc:
            raise ParameterError(f"{path}: line {lineno}: column {header[i]} "
                                 f"value {texts[i]!r}: {exc}") from None
        if lineno > 1:
            yield (*values[:3], rec)


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
    out += ["", "results:"]
    _, windows, _ = cfg._geometry
    kbits = windows[0].width.bit_length() - 1
    for rec in records:
        flag = "" if rec.reached_min_errors else "  [hit max_symbols]"
        if rec.bit_errors == 0:  # exact 95% (Clopper-Pearson) bound on SER >= BER
            flag += f"  [ber <= {1.0 - 0.025 ** (kbits / rec.bits_sent):.2e}, 95% C-P]"
        out.append(
            f"  NF={rec.nf_db:g} dB  Eb/N0={rec.ebn0_db:g} dB  "
            f"ber={rec.ber:.6e}  ({rec.bit_errors} errors / {rec.bits_sent} bits, "
            f"ci +/-{rec.ci_halfwidth:.2e}){flag}"
        )
    return "\n".join(out) + "\n"
