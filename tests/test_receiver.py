"""Demodulation, RAKE combining, and equalizer tests.

The exhaustive noiseless cases here are the heart of the interference-freedom
contract: on a guard-respecting plan every message combination decodes
exactly, and on a guard-violating plan some combination does not.
"""

import itertools

import numpy as np
import pytest

from tdcslab.allocation import ShiftPlan, ShiftWindow, plan_shifts, verify_mui_free
from tdcslab.channel import apply_multipath, apply_single_path, gains_from_nf
from tdcslab.errors import ParameterError
from tdcslab.receiver import (
    demodulate_window,
    mmse_fde,
    rake_demodulate,
)
from tdcslab.seqcore import gen_zadoff_chu, periodic_xcorr_fft
from tdcslab.spectrum import mark_from_bands
from tdcslab.waveform import (
    add_cyclic_prefix,
    build_user_fmw,
    index_to_bits,
    modulate,
    remove_cyclic_prefix,
    synth_fmw,
    gen_phase_sequence,
)


@pytest.fixture
def small_mark():
    return mark_from_bands(8.0, [(2.0, 3.0)], 8)


@pytest.fixture
def small_users(small_mark):
    code = gen_zadoff_chu(8, 1)
    return [build_user_fmw(small_mark, code, user_seed=s) for s in (11, 22, 33)]


class TestDemodulateWindow:
    def test_noiseless_peak(self, small_users):
        user = small_users[0]
        window = ShiftWindow(start=8, width=8, circular_length=64)
        block = modulate(user, index_to_bits(3, 3), window)
        decision = demodulate_window(block.x, user.c, window)
        assert decision.argmax_shift == 8 + 3
        assert decision.argmax_bits == (0, 1, 1)

    def test_scaling_invariance(self, small_users, rng):
        user = small_users[0]
        window = ShiftWindow(start=8, width=8, circular_length=64)
        block = modulate(user, index_to_bits(5, 3), window)
        r = block.x + 0.05 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        base = demodulate_window(r, user.c, window)
        scaled = demodulate_window(1e3 * np.exp(1.3j) * r, user.c, window)
        assert base.argmax_shift == scaled.argmax_shift

    def test_exhaustive_two_user_mui_free(self, small_users):
        plan = plan_shifts(2, 8, 8, 4)
        users = small_users[:2]
        for m1, m2 in itertools.product(range(4), repeat=2):
            blocks = [
                modulate(users[0], index_to_bits(m1, 2), plan.windows[0]),
                modulate(users[1], index_to_bits(m2, 2), plan.windows[1]),
            ]
            gains = gains_from_nf(2, 20.0, seed=100 * m1 + m2)
            for victim in (0, 1):
                r = apply_single_path(blocks, gains, noise=None, receiver=victim, seed=0)
                decision = demodulate_window(r, users[victim].c, plan.windows[victim])
                assert decision.argmax_shift == blocks[victim].shift

    def test_violating_plan_produces_errors(self, small_users):
        # windows only 4 apart: inside each other's interference region
        ln = 64
        windows = (ShiftWindow(8, 4, ln), ShiftWindow(12, 4, ln))
        plan = ShiftPlan(windows=windows, n=8, l=8)
        assert not verify_mui_free(plan).ok
        users = small_users[:2]
        failures = 0
        for m1, m2 in itertools.product(range(4), repeat=2):
            blocks = [
                modulate(users[0], index_to_bits(m1, 2), windows[0]),
                modulate(users[1], index_to_bits(m2, 2), windows[1]),
            ]
            gains = gains_from_nf(2, 20.0, seed=7 * m1 + m2)
            r = apply_single_path(blocks, gains, noise=None, receiver=0, seed=0)
            decision = demodulate_window(r, users[0].c, windows[0])
            failures += decision.argmax_shift != blocks[0].shift
        assert failures > 0

    def test_window_length_check(self, small_users):
        window = ShiftWindow(start=0, width=4, circular_length=32)
        with pytest.raises(ParameterError):
            demodulate_window(np.ones(64, complex), small_users[0].c, window)

    @pytest.mark.parametrize("offset", [1, 5])
    def test_window_width_must_be_a_power_of_two(self, offset):
        # offset 1 would get the 2-bit label (0, 1), offset 5 no label at all
        ref = gen_zadoff_chu(64, 1).elements
        window = ShiftWindow(start=8, width=6, circular_length=64)
        with pytest.raises(ParameterError, match="power of two"):
            demodulate_window(np.roll(ref, -(8 + offset)), ref, window)

    def test_random_sampled_full_size_mui_free(self):
        # random messages/gains at the production size (N=64, L=16)
        from tdcslab.seqcore import builtin_quadriphase16

        mark = mark_from_bands(10e6, [(2.5e6, 3.75e6), (6.25e6, 7.5e6)], 64)
        code = builtin_quadriphase16()
        users = [build_user_fmw(mark, code, user_seed=s) for s in (1, 2, 3)]
        plan = plan_shifts(3, 64, 16, 64)
        rng = np.random.default_rng(31)
        for _ in range(40):
            msgs = rng.integers(0, 64, size=3)
            blocks = [
                modulate(users[j], index_to_bits(int(msgs[j]), 6), plan.windows[j])
                for j in range(3)
            ]
            gains = gains_from_nf(3, 16.0, seed=rng)
            r = apply_single_path(blocks, gains, noise=None, receiver=0, seed=0)
            dec = demodulate_window(r, users[0].c, plan.windows[0])
            assert dec.argmax_shift == blocks[0].shift


class TestRakeDemodulate:
    def test_single_rotated_tap_matches_plain(self, small_users, rng):
        user = small_users[0]
        window = ShiftWindow(start=8, width=8, circular_length=64)
        block = modulate(user, index_to_bits(6, 3), window)
        r = np.exp(0.7j) * block.x
        plain = demodulate_window(r, user.c, window)
        raked = rake_demodulate(r, user.c, window, taps=[np.exp(0.7j)])
        assert raked.argmax_shift == plain.argmax_shift == block.shift

    def test_noiseless_multipath_exact(self, small_users):
        user = small_users[0]
        t_max = 2
        plan = plan_shifts(1, 8, 8, 8, t_max=t_max)
        window = plan.windows[0]
        rng = np.random.default_rng(17)
        taps = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(3)
        t_g = 8
        for value in range(8):
            block = modulate(user, index_to_bits(value, 3), window)
            pre = add_cyclic_prefix(block.x, t_g)
            y = apply_multipath([pre], taps[None, :], t_g=t_g, noise=None, seed=0)
            r = remove_cyclic_prefix(y, t_g)
            decision = rake_demodulate(r, user.c, window, taps, max_delay=plan.t_max)
            assert decision.argmax_shift == block.shift

    def test_two_user_multipath_mui_free(self, small_users):
        t_max = 2
        plan = plan_shifts(2, 8, 8, 4, t_max=t_max)
        users = small_users[:2]
        prof_rng = np.random.default_rng(23)
        t_g = 8
        for m1, m2 in itertools.product(range(4), repeat=2):
            taps = (prof_rng.standard_normal((2, 3))
                    + 1j * prof_rng.standard_normal((2, 3))) / np.sqrt(3)
            taps[1] *= 10.0  # strong interferer
            blocks = [
                modulate(users[0], index_to_bits(m1, 2), plan.windows[0]),
                modulate(users[1], index_to_bits(m2, 2), plan.windows[1]),
            ]
            pre = [add_cyclic_prefix(b.x, t_g) for b in blocks]
            y = apply_multipath(pre, taps, t_g=t_g, noise=None, seed=0)
            r = remove_cyclic_prefix(y, t_g)
            decision = rake_demodulate(r, users[0].c, plan.windows[0], taps[0],
                                       max_delay=plan.t_max)
            assert decision.argmax_shift == blocks[0].shift

    @pytest.mark.parametrize("taps", [[], [np.nan, 1.0]])
    def test_empty_or_non_finite_taps_rejected(self, small_users, taps):
        window = ShiftWindow(start=8, width=8, circular_length=64)
        user = small_users[0]
        with pytest.raises(ParameterError, match="tap"):
            rake_demodulate(user.c, user.c, window, taps=taps)

    def test_tap_count_guard(self, small_users):
        user = small_users[0]
        window = ShiftWindow(start=8, width=4, circular_length=64)
        with pytest.raises(ParameterError):
            rake_demodulate(user.c, user.c, window, taps=np.ones(4, complex),
                            max_delay=2)


class TestMmseFde:
    def test_flat_channel_identity(self, rng):
        r = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        eq = mmse_fde(r, np.ones(32, complex), snr_per_bin=1e12)
        assert np.max(np.abs(eq - r)) < 1e-9

    def test_constant_gain_channel(self, rng):
        r = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        eq = mmse_fde(r, 2.0 * np.ones(32, complex), snr_per_bin=1e4)
        assert np.max(np.abs(eq - r / 2)) / np.max(np.abs(r / 2)) < 0.01

    def test_traditional_multipath_noiseless_decode(self, small_mark):
        # full-range CCSK on a basis waveform, equalized then correlated
        fmw = synth_fmw(small_mark, gen_phase_sequence(77, 8))
        # CCSK over all 8 shifts of the length-8 waveform
        window = ShiftWindow(start=0, width=8, circular_length=8)
        rng = np.random.default_rng(3)
        h = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(3)
        t_g = 4
        hfreq = np.fft.fft(np.concatenate([h, np.zeros(5)]))
        for value in range(8):
            x = np.roll(fmw.samples, -(window.start + value))
            pre = add_cyclic_prefix(x, t_g)
            y = apply_multipath([pre], h[None, :], t_g=t_g, noise=None, seed=0)
            r = remove_cyclic_prefix(y, t_g)
            eq = mmse_fde(r, hfreq, snr_per_bin=1e12)
            decision = demodulate_window(eq, fmw.samples, window)
            assert decision.argmax_shift == (window.start + value) % 8

    def test_zero_snr_rejected(self):
        with pytest.raises(ParameterError):
            mmse_fde(np.ones(4, complex), np.ones(4, complex), snr_per_bin=0.0)

    def test_nan_snr_rejected(self):
        with pytest.raises(ParameterError, match="SNR"):
            mmse_fde(np.ones(4, complex), np.ones(4, complex),
                     snr_per_bin=float("nan"))

    def test_non_finite_response_rejected(self):
        h = np.ones(4, complex)
        h[2] = np.nan
        with pytest.raises(ParameterError):
            mmse_fde(np.ones(4, complex), h, snr_per_bin=10.0)


class TestLinearity:
    def test_correlation_decomposition(self, small_users, rng):
        """phi_{r,c} equals the sum of per-term correlations (linearity)."""
        users = small_users[:2]
        plan = plan_shifts(2, 8, 8, 4)
        blocks = [
            modulate(users[0], (0, 1), plan.windows[0]),
            modulate(users[1], (1, 0), plan.windows[1]),
        ]
        gains = gains_from_nf(2, 10.0, seed=9)
        noise_vec = 0.3 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
        r = (gains.gains[0, 0] * blocks[0].x + gains.gains[0, 1] * blocks[1].x
             + noise_vec)
        total = periodic_xcorr_fft(r, users[0].c)
        acf = gains.gains[0, 0] * periodic_xcorr_fft(blocks[0].x, users[0].c)
        ccf = gains.gains[0, 1] * periodic_xcorr_fft(blocks[1].x, users[0].c)
        nn = periodic_xcorr_fft(noise_vec, users[0].c)
        assert np.max(np.abs(total - (acf + ccf + nn))) < 1e-9
