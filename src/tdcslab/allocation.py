"""Shift-window planning for windowed CCSK, plus capacity/throughput analytics.

Each user modulates data as a cyclic shift of its spreading waveform, but the
shift is confined to a per-user window.  Interference vanishes exactly when
every pair of shifts keeps a circular distance of at least the guard
``g = N + T_max`` (basis length plus maximal channel order).  Windows are arcs
of one width ``M``, so two keep the guard exactly when their starts lie at
least ``M + g - 1`` apart both ways round.  ``plan_shifts`` leaves one lag of
slack, and its ``verify_mui_free`` call is the one guard check of a build:

    user i (1-based):  start_i = i*(N + T_max) + (i-1)*M,  width M

The capacity ``u_max`` is ``floor(L*N / (N + T_max + M))`` users at order
``M``; ``m_max``, arithmetic alone, is the largest power-of-two ``M`` it admits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from math import log2

import numpy as np

from .errors import CapacityError, ParameterError, TdcsError


def _check_order(what: str, value: int) -> None:
    """The rule for every CCSK order and window width."""
    if not isinstance(value, (int, np.integer)) or value < 2 or value & (value - 1):
        raise ParameterError(f"{what} {value} must be a power of two >= 2")


def _columns(first: int, count: int, ln: int):
    """Index of the columns ``(first + i) % ln``, ``i < count``; a slice when
    they do not wrap around."""
    first %= ln
    if first + count <= ln:
        return slice(first, first + count)
    return (first + np.arange(count)) % ln


@dataclass(frozen=True)
class ShiftWindow:
    """Contiguous circular range of ``width`` shifts starting at ``start``."""

    start: int
    width: int
    circular_length: int

    def __post_init__(self):
        if not 0 <= self.start < self.circular_length:
            raise ParameterError(
                f"window start {self.start} outside [0, {self.circular_length})"
            )
        if not 1 <= self.width <= self.circular_length:
            raise ParameterError(
                f"window width {self.width} outside [1, {self.circular_length}]")

    def shifts(self) -> np.ndarray:
        """All shift values of the window, in window order."""
        return (self.start + np.arange(self.width)) % self.circular_length

    def fingers(self, count: int) -> list:
        """Columns of RAKE finger ``q < count``: the window read ``q`` lags
        early, where a path delayed ``q`` lags puts its peak."""
        return [_columns(self.start - q, self.width, self.circular_length)
                for q in range(count)]

    def contains(self, shift: int) -> bool:
        return (shift - self.start) % self.circular_length < self.width


@dataclass(frozen=True)
class MuiCheck:
    """Outcome of a pairwise guard check; ``ok`` when interference-free."""

    ok: bool
    guard: int
    violations: list = field(default_factory=list)


@dataclass(frozen=True)
class ShiftPlan:
    """Per-user shift windows with guard metadata."""

    windows: tuple
    n: int
    l: int
    t_max: int = 0

    def __post_init__(self):
        if len(self.windows) < 1:
            raise ParameterError("plan needs at least one window")
        widths = {w.width for w in self.windows}
        if len(widths) != 1:
            raise ParameterError("all windows must share one width")
        _check_order("window width", widths.pop())
        if any(w.circular_length != self.circular_length for w in self.windows):
            raise ParameterError("window circular lengths disagree with L*N")
        if self.t_max < 0:
            raise ParameterError("t_max must be >= 0")
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def circular_length(self) -> int:
        return self.l * self.n

    @property
    def n_users(self) -> int:
        return len(self.windows)

    @property
    def m_order(self) -> int:
        return self.windows[0].width

    @property
    def guard(self) -> int:
        return self.n + self.t_max


def u_max(l: int, n: int, m: int, t_max: int = 0) -> int:
    """Largest number of users supportable at order ``m`` with guard
    ``n + t_max``: ``floor(L*N / (N + T_max + M))``.  Windowed CCSK needs a
    time code, ``L >= 2``."""
    if l < 2:
        raise ParameterError("time-spreading length must be >= 2")
    if min(n, m) < 1:
        raise ParameterError("arguments must be positive")
    if t_max < 0:
        raise ParameterError("t_max must be >= 0")
    return (l * n) // (n + t_max + m)


def m_max(l: int, n: int, u: int, t_max: int = 0) -> int:
    """Largest power-of-two CCSK order ``M >= 2`` with ``u_max(l, n, M,
    t_max) >= u``; ``CapacityError`` when not even ``M = 2`` fits."""
    if u < 1:  # u_max checks the rest
        raise ParameterError("need at least one user")
    cap = u_max(l, n, 2, t_max)
    if u > cap:
        raise CapacityError(
            f"no window order fits {u} users at L={l}, N={n}, T_max={t_max}; "
            f"U_max = {cap} at M = 2",
            u_max=cap,
        )
    order = 2
    while u_max(l, n, 2 * order, t_max) >= u:
        order *= 2
    return order


@dataclass(frozen=True)
class Throughput:
    """Spectral-efficiency figures at full load (bps/Hz)."""

    m_order: int
    per_user: float
    aggregate: float


def throughput(u: int, l: int, n: int, beta: float) -> Throughput:
    """Per-user and aggregated spectral efficiency at the maximal order.

    ``beta`` is the available-spectrum fraction entering the bandwidth
    normalization; efficiency is ``log2(M_max) / (beta * L * N)`` per user.
    """
    if not 0.0 < beta <= 1.0:
        raise ParameterError("beta must lie in (0, 1]")
    order = m_max(l, n, u)
    per_user = log2(order) / (beta * l * n)
    return Throughput(m_order=order, per_user=per_user, aggregate=u * per_user)


def plan_shifts(u: int, n: int, l: int, m: int, t_max: int = 0) -> ShiftPlan:
    """Lay out ``u`` shift windows of width ``m`` with guard ``n + t_max``.

    Single-user plans admit any order up to the full circle (there is no pair
    to protect); multiuser plans hold at most ``u_max(l, n, m, t_max)`` users
    and raise ``CapacityError`` naming it beyond that.  A layout that fails
    ``verify_mui_free`` raises ``TdcsError`` naming the violations.
    """
    _check_order("order", m)
    cap = u_max(l, n, m, t_max)
    # a lone user's window only has to fit the circle, which ShiftWindow checks
    if u > max(cap, 1):
        raise CapacityError(
            f"{u} users infeasible at L={l}, N={n}, M={m}, T_max={t_max}; "
            f"U_max = {cap}",
            u_max=cap,
        )
    ln = l * n
    guard = n + t_max
    windows = tuple(
        ShiftWindow(start=(i * guard + (i - 1) * m) % ln, width=m, circular_length=ln)
        for i in range(1, u + 1)
    )
    plan = ShiftPlan(windows=windows, n=n, l=l, t_max=t_max)
    check = verify_mui_free(plan)
    if not check.ok:
        raise TdcsError(f"constructed plan violates its own guard: {check.violations}")
    return plan


def verify_mui_free(plan: ShiftPlan) -> MuiCheck:
    """Check the pairwise guard condition of a plan from its window starts.

    Every two shifts of two users' windows must lie at least the guard ``g =
    N + T_max`` apart on the circle.  Each ordered window pair that breaks it
    gives one witness ``(i, j, tau_i, tau_j)`` (1-based users): the first
    shift of window ``i`` within ``g - 1`` of window ``j``, and the first
    shift of window ``j`` within ``g - 1`` of that one.
    """
    g = plan.guard
    ln = plan.circular_length
    m = plan.m_order
    violations = []
    for (i, wi), (j, wj) in permutations(enumerate(plan.windows, 1), 2):
        # offset x of window i comes within g - 1 of window j exactly when
        # (wi.start + x - wj.start + g - 1) % ln < m + 2g - 2: one arc
        p = (wi.start - wj.start + g - 1) % ln
        x = 0 if p < m + 2 * g - 2 else ln - p
        if x >= m:
            continue
        # shift y of window j comes within g - 1 of tau_i on an arc of 2g - 1
        tau_i = (wi.start + x) % ln
        q = (wj.start - tau_i + g - 1) % ln
        y = 0 if q < 2 * g - 1 else ln - q
        violations.append((i, j, tau_i, (wj.start + y) % ln))
    return MuiCheck(ok=not violations, guard=g, violations=violations)
