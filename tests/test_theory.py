"""The engines against a closed form: noncoherent orthogonal M-ary detection.

The traditional system over a fully available spectrum has a flat reference
spectrum, so its periodic ACF is perfect: the ``M = L*N`` shifts are
orthogonal and the correlation-domain noise is white across lags.  With
unit-modulus gains the ``|.|`` decision is then noncoherent orthogonal
M-ary detection with ``a = sqrt(2 k Eb/N0)``; Rayleigh gains average it
over ``|h|^2 ~ Exp(1)``.  Each case runs at a fixed depth (no point reaches
``min_bit_errors``), so no optional stopping biases the estimate.
"""

import functools

import numpy as np
import pytest

from tdcslab.simharness import ScenarioConfig, run_ber_scenario

Z_BOUND = 4.0


def _i0e(z):
    """``I0(z) * exp(-z)`` for ``z >= 0``: ``np.i0`` overflows beyond about
    710, so large arguments take the asymptotic series."""
    z = np.asarray(z, dtype=float)
    small = z < 500.0
    zs = np.where(small, z, 0.0)
    zl = np.where(small, 500.0, z)
    term = series = np.ones_like(zl)
    for k in range(1, 6):   # the 6th term is below 1e-16 at 500
        term = term * (2 * k - 1) ** 2 / (8 * k * zl)
        series = series + term
    return np.where(small, np.i0(zs) * np.exp(-zs),
                    series / np.sqrt(2.0 * np.pi * zl))


def _trapezoid(f, step, axis=-1):
    """Trapezoid rule on a uniform grid (``np.trapezoid`` and ``np.trapz``
    each miss from one side of numpy 2.0)."""
    f = np.moveaxis(f, axis, -1)
    return step * (f.sum(axis=-1) - 0.5 * (f[..., 0] + f[..., -1]))


def symbol_error_rate(m_order: int, a):
    """Noncoherent orthogonal M-ary symbol error rate at Rice parameter
    ``a`` (an array of them): the correct envelope is Rice(``a``, 1), the
    other ``M - 1`` Rayleigh(1), and an error is any of those exceeding it."""
    a = np.atleast_1d(np.asarray(a, dtype=float))[:, None]
    step = 0.02
    x = np.arange(0.0, a.max() + 12.0, step)
    rice = x * np.exp(-0.5 * (x - a) ** 2) * _i0e(a * x)
    with np.errstate(divide="ignore"):   # log1p(-1) = -inf at x = 0
        p_lose = -np.expm1((m_order - 1) * np.log1p(-np.exp(-0.5 * x ** 2)))
    return _trapezoid(rice * p_lose, step)


@functools.lru_cache
def theory_symbol_error_rate(m_order: int, ebn0_db: float, phase_model: str):
    k = m_order.bit_length() - 1
    a = np.sqrt(2.0 * k * 10.0 ** (ebn0_db / 10.0))
    if phase_model == "uniform-phase":
        return float(symbol_error_rate(m_order, a)[0])
    # Rayleigh: |h|, with |h|^2 ~ Exp(1), scales the Rice parameter
    step = 0.01
    h = np.arange(0.0, 6.5, step)
    return float(_trapezoid(symbol_error_rate(m_order, a * h)
                            * 2.0 * h * np.exp(-h ** 2), step))


def popcount_moments(k: int):
    """``E[b]`` and ``E[b^2]`` of the popcount ``b`` of a uniform nonzero
    ``k``-bit word: a symbol error's bit errors."""
    b = np.array([bin(w).count("1") for w in range(1, 2 ** k)], dtype=float)
    return b.mean(), (b ** 2).mean()


CASES = [
    pytest.param(16, 4, 2.0, 65536, id="M64"),
    pytest.param(64, 16, 4.0, 8192, id="M1024"),
]


@pytest.mark.parametrize("engine", ["auto", "signal"])
@pytest.mark.parametrize("phase_model", ["uniform-phase", "rayleigh"])
@pytest.mark.parametrize("n, l, ebn0_db, symbols", CASES)
def test_ber_matches_noncoherent_orthogonal_detection(
        n, l, ebn0_db, symbols, phase_model, engine):
    cfg = ScenarioConfig(
        scenario_id="theory", system="traditional_tdcs", n=n, l=l, m="full",
        u=1, unavailable_mhz=(), phase_model=phase_model, engine=engine,
        ebn0_db=(ebn0_db,), seed=7, max_symbols=symbols,
        min_bit_errors=10 ** 9)
    rec = run_ber_scenario(cfg)[0]
    m_order = l * n
    k = m_order.bit_length() - 1
    assert rec.bits_sent == k * symbols
    p_s = theory_symbol_error_rate(m_order, ebn0_db, phase_model)
    mean_b, mean_b2 = popcount_moments(k)
    # a symbol's bit errors: b with probability p_s, else 0
    mean = symbols * p_s * mean_b
    var = symbols * (p_s * mean_b2 - (p_s * mean_b) ** 2)
    z = (rec.bit_errors - mean) / np.sqrt(var)
    assert abs(z) <= Z_BOUND, (
        f"z = {z:+.2f}: {rec.bit_errors} bit errors, theory {mean:.1f} "
        f"(P_s = {p_s:.4e})")
