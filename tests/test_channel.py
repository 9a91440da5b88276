"""Gain matrices, noise calibration, and single-path/multipath channel tests."""

import numpy as np
import pytest

from tdcslab.channel import (
    GainMatrix,
    MultipathProfile,
    NoiseSpec,
    apply_multipath,
    apply_single_path,
    complex_gaussian,
    cost207_ra6,
    draw_taps,
    gains_from_nf,
)
from tdcslab.errors import DimensionError, ParameterError
from tdcslab.waveform import add_cyclic_prefix, remove_cyclic_prefix


class TestGains:
    def test_equal_power_at_zero_nf(self):
        g = gains_from_nf(4, 0.0, seed=1)
        assert np.allclose(np.abs(g.gains), 1.0)

    def test_interferer_power_ratio(self):
        g = gains_from_nf(3, 10.0, seed=2)
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(np.abs(g.gains[off]) ** 2, 10.0)
        assert np.allclose(np.abs(np.diag(g.gains)), 1.0)

    def test_seed_determinism(self):
        a = gains_from_nf(5, 6.0, seed=77)
        b = gains_from_nf(5, 6.0, seed=77)
        assert np.array_equal(a.gains, b.gains)

    def test_fixed_phase_model_is_real(self):
        g = gains_from_nf(3, 8.0, seed=3, phase_model="fixed-phase")
        assert np.allclose(g.gains.imag, 0.0)

    def test_rayleigh_power_matches_on_average(self):
        rng = np.random.default_rng(8)
        powers = []
        for _ in range(4000):
            g = gains_from_nf(2, 10.0, seed=rng, phase_model="rayleigh")
            powers.append(np.abs(g.gains) ** 2)
        mean = np.mean(powers, axis=0)
        assert abs(mean[0, 0] - 1.0) < 0.1
        assert abs(mean[0, 1] - 10.0) < 1.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ParameterError):
            gains_from_nf(2, 0.0, seed=1, phase_model="bogus")

    @pytest.mark.parametrize("nf_db", [float("nan"), float("inf")])
    def test_non_finite_nf_rejected(self, nf_db):
        with pytest.raises(ParameterError, match="near-far"):
            gains_from_nf(3, nf_db, seed=1)


class TestNoiseSpec:
    def test_formula(self):
        spec = NoiseSpec(ebn0_db=10.0, m_order=64, symbol_energy=16.0)
        assert spec.n0 == pytest.approx(16.0 / (6 * 10.0))

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            NoiseSpec(ebn0_db=0.0, m_order=3, symbol_energy=1.0)

    def test_noiseless_at_plus_inf(self):
        assert NoiseSpec(ebn0_db=float("inf"), m_order=64, symbol_energy=16.0).n0 == 0.0

    @pytest.mark.parametrize("ebn0_db", [float("nan"), float("-inf")])
    def test_rejects_nan_and_minus_inf(self, ebn0_db):
        with pytest.raises(ParameterError, match="Eb/N0"):
            NoiseSpec(ebn0_db=ebn0_db, m_order=64, symbol_energy=16.0)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_complex_gaussian_shapes(shape):
    z = complex_gaussian(np.random.default_rng(1), shape, variance=4.0)
    assert z.shape == shape and z.dtype == np.complex128


class TestSinglePath:
    def test_identity_channel(self, rng):
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        g = GainMatrix(gains=np.eye(1, dtype=complex), nf_db=0.0)
        r = apply_single_path([x], g, noise=None, receiver=0, seed=0)
        assert np.array_equal(r, x)

    def test_two_user_superposition(self, rng):
        x1 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        x2 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        g = gains_from_nf(2, 6.0, seed=5)
        r = apply_single_path([x1, x2], g, noise=None, receiver=0, seed=0)
        expected = g.gains[0, 0] * x1 + g.gains[0, 1] * x2
        assert np.max(np.abs(r - expected)) < 1e-12

    def test_noise_variance_calibration(self):
        spec = NoiseSpec(ebn0_db=3.0, m_order=4, symbol_energy=2.0)
        g = GainMatrix(gains=np.eye(1, dtype=complex), nf_db=0.0)
        x = np.zeros(100_000, dtype=complex)
        r = apply_single_path([x], g, noise=spec, receiver=0, seed=123)
        measured = np.mean(np.abs(r) ** 2)
        assert abs(measured - spec.n0) / spec.n0 < 0.03

    def test_block_length_mismatch(self):
        g = gains_from_nf(2, 0.0, seed=1)
        with pytest.raises(DimensionError):
            apply_single_path([np.ones(4, complex), np.ones(5, complex)], g,
                              noise=None, receiver=0, seed=0)


class TestCost207Profile:
    def test_tap_layout(self):
        prof = cost207_ra6()
        assert prof.delays == (0, 1, 2, 3, 4, 5)
        assert prof.t_max == 5
        assert prof.t_max < 256  # fits the quarter prefix of a 1024 block

    def test_unit_average_energy(self):
        prof = cost207_ra6()
        assert prof.mean_powers().sum() == pytest.approx(1.0)
        rng = np.random.default_rng(4)
        taps = draw_taps(prof, rng, shape=(100_000,))
        total = np.mean(np.sum(np.abs(taps) ** 2, axis=1))
        assert abs(total - 1.0) < 0.02

    def test_first_to_last_tap_ratio(self):
        prof = cost207_ra6()
        rng = np.random.default_rng(5)
        taps = draw_taps(prof, rng, shape=(200_000,))
        p0 = np.mean(np.abs(taps[:, 0]) ** 2)
        p5 = np.mean(np.abs(taps[:, 5]) ** 2)
        assert abs(p0 / p5 - 100.0) / 100.0 < 0.05

    def test_off_grid_sample_period(self):
        with pytest.raises(ParameterError):
            cost207_ra6(sample_period=3e-8)

    @pytest.mark.parametrize("period", [float("nan"), float("inf"), 0.0, -1e-7])
    def test_sample_period_outside_the_model(self, period):
        with pytest.raises(ParameterError, match="sample period"):
            cost207_ra6(sample_period=period)


class TestMultipath:
    def test_single_tap_identity(self, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        y = apply_multipath([x], np.array([[1.0 + 0j]]), t_g=0, noise=None, seed=0)
        assert np.max(np.abs(y - x)) < 1e-15

    def test_two_tap_hand_value(self):
        x = np.array([1, 2, 3, 4], dtype=complex)
        t_g = 2
        pre = add_cyclic_prefix(x, t_g)
        y = apply_multipath([pre], np.array([[1.0, 0.5]]), t_g=t_g, noise=None, seed=0)
        r = remove_cyclic_prefix(y, t_g)
        expected = x + 0.5 * np.roll(x, 1)  # delayed path wraps through the prefix
        assert np.max(np.abs(r - expected)) < 1e-15

    def test_circular_model_equivalence(self, rng):
        # FIR over the prefixed block, then prefix removal, equals the
        # circular-delay sum for any taps with t_max <= t_g
        for trial in range(5):
            x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            x2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            taps = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / 2
            t_g = 8
            pre = [add_cyclic_prefix(x, t_g), add_cyclic_prefix(x2, t_g)]
            y = apply_multipath(pre, taps, t_g=t_g, noise=None, seed=0)
            r = remove_cyclic_prefix(y, t_g)
            circ = np.zeros(64, dtype=complex)
            for j, blk in enumerate((x, x2)):
                for p in range(4):
                    circ += taps[j, p] * np.roll(blk, p)
            assert np.max(np.abs(r - circ)) < 1e-12

    def test_prefix_shorter_than_channel(self):
        x = np.ones(16, dtype=complex)
        with pytest.raises(ParameterError):
            apply_multipath([x], np.ones((1, 4), complex), t_g=2, noise=None, seed=0)

    def test_profile_validation(self):
        with pytest.raises(ParameterError):
            MultipathProfile(delays=(0, 0), powers_db=(0.0, -3.0))
