"""Shared fixtures and independent oracles.

The oracles here are deliberately naive, exhaustive computations so that the
library's vectorized, transform and closed-form implementations are checked
against something that cannot share their bugs.
"""

import numpy as np
import pytest


def naive_periodic_xcorr(u, v):
    """Literal modular-index sum, one term at a time."""
    n = len(u)
    out = np.zeros(n, dtype=complex)
    for tau in range(n):
        acc = 0j
        for i in range(n):
            acc += u[i] * np.conj(v[(i + tau) % n])
        out[tau] = acc
    return out


def naive_aperiodic_xcorr(u, v):
    """Literal one-sided lag sum."""
    n = len(u)
    out = np.zeros(n, dtype=complex)
    for tau in range(n):
        acc = 0j
        for i in range(n - tau):
            acc += u[i] * np.conj(v[i + tau])
        out[tau] = acc
    return out


def exhaustive_guard_check(plan):
    """The guard check over every pair of shifts: an ``(M, M)`` difference
    matrix per ordered user pair, the first violating entry as its witness."""
    from tdcslab.allocation import MuiCheck

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


def random_unit_vector(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def table2_mark():
    """The 64-bin mark for 10 MHz with the two standard unavailable bands."""
    from tdcslab.spectrum import mark_from_bands

    return mark_from_bands(10e6, [(2.5e6, 3.75e6), (6.25e6, 7.5e6)], 64)
