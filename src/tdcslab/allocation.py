"""Shift-window planning for windowed CCSK, plus capacity/throughput analytics.

Each user modulates data as a cyclic shift of its spreading waveform, but the
shift is confined to a per-user window.  Interference vanishes exactly when
every pair of shifts keeps a circular distance of at least the guard
``N + T_max`` (basis length plus maximal channel order), which is what
``verify_mui_free`` checks and ``plan_shifts`` constructs:

    user i (1-based):  start_i = i*(N + T_max) + (i-1)*M,  width M

The capacity ``u_max`` is ``floor(L*N / (N + T_max + M))`` users at order
``M``.  ``m_max`` is the largest power-of-two ``M`` with ``U * (N + T_max + M)
<= L*N``: the largest order ``plan_shifts`` accepts for ``U >= 2`` users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2

import numpy as np

from .errors import CapacityError, ParameterError


def _check_order(what: str, value: int) -> None:
    """The rule for every CCSK order, window width and phase alphabet."""
    if value < 2 or value & (value - 1):
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
            raise ParameterError("window width must be in [1, circular_length]")

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
    ``n + t_max``: ``floor(L*N / (N + T_max + M))``."""
    if min(l, n, m) < 1:
        raise ParameterError("arguments must be positive")
    return (l * n) // (n + t_max + m)


def m_max(l: int, n: int, u: int, t_max: int = 0) -> int:
    """Largest power-of-two CCSK order ``M >= 2`` with ``u_max(l, n, M,
    t_max) >= u``; ``CapacityError`` when not even ``M = 2`` fits.

    ``plan_shifts`` builds the plan as a cross-check (it asserts MUI-free).
    """
    if min(l, n, u) < 1:
        raise ParameterError("arguments must be positive")
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
    plan_shifts(u, n, l, order, t_max=t_max)
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
    to protect); multiuser plans are feasible only up to
    ``floor(L*N / (N + T_max + M))`` users and raise ``CapacityError`` beyond
    that, naming the limit.  The returned plan always passes
    ``verify_mui_free``.
    """
    if u < 1:
        raise ParameterError("need at least one user")
    if l < 2:
        raise ParameterError("time-spreading length must be >= 2")
    _check_order("order", m)
    if t_max < 0:
        raise ParameterError("t_max must be >= 0")
    ln = l * n
    guard = n + t_max
    if u == 1:
        if m > ln:
            raise ParameterError(f"order {m} exceeds the circle length {ln}")
    else:
        cap = u_max(l, n, m, t_max)
        if u > cap:
            raise CapacityError(
                f"{u} users infeasible at L={l}, N={n}, M={m}, T_max={t_max}; "
                f"U_max = {cap}",
                u_max=cap,
            )
    windows = tuple(
        ShiftWindow(start=(i * guard + (i - 1) * m) % ln, width=m, circular_length=ln)
        for i in range(1, u + 1)
    )
    plan = ShiftPlan(windows=windows, n=n, l=l, t_max=t_max)
    check = verify_mui_free(plan)
    assert check.ok, f"constructed plan violates its own guard: {check.violations}"
    return plan


def verify_mui_free(plan: ShiftPlan) -> MuiCheck:
    """Exhaustively check the pairwise guard condition of a plan.

    For every ordered user pair and every pair of shifts from their windows,
    the circular distance must be at least ``N + T_max``.  Violations are
    reported as ``(i, j, tau_i, tau_j)`` tuples (one witness per window pair,
    1-based user indices).
    """
    guard = plan.guard
    ln = plan.circular_length
    violations = []
    if plan.n_users > 1:
        shift_sets = [w.shifts() for w in plan.windows]
        for i in range(plan.n_users):
            for jj in range(plan.n_users):
                if i == jj:
                    continue
                diff = (shift_sets[i][:, None] - shift_sets[jj][None, :]) % ln
                bad = (diff < guard) | (diff > ln - guard)
                if bad.any():
                    a, b = np.argwhere(bad)[0]
                    violations.append(
                        (i + 1, jj + 1, int(shift_sets[i][a]), int(shift_sets[jj][b]))
                    )
    return MuiCheck(ok=not violations, guard=guard, violations=violations)
