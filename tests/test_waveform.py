"""Waveform synthesis, modulation mapping, and prefix tests."""

import numpy as np
import pytest

from tdcslab.allocation import ShiftWindow, plan_shifts
from tdcslab.channel import GainMatrix
from tdcslab.errors import DimensionError, ParameterError, SequenceValidationError
from tdcslab.receiver import demodulate_window
from tdcslab.seqcore import (
    PolyphaseSequence,
    builtin_quadriphase16,
    gen_zadoff_chu,
    zero_zone_verify,
)
from tdcslab.spectrum import SpectrumMark, mark_from_bands
from tdcslab.waveform import (
    BasisFmw,
    KroneckerFmwUser,
    ModulatedBlock,
    add_cyclic_prefix,
    bits_to_index,
    build_user_fmw,
    gen_phase_sequence,
    index_to_bits,
    modulate,
    remove_cyclic_prefix,
    synth_fmw,
)


class TestPhaseSequence:
    def test_quadriphase_alphabet(self):
        seq = gen_phase_sequence(7, 64)
        alphabet = np.array([1, 1j, -1, -1j])
        dists = np.min(np.abs(seq.elements[:, None] - alphabet[None, :]), axis=1)
        assert np.max(dists) < 1e-12

    def test_determinism(self):
        a = gen_phase_sequence(99, 32)
        b = gen_phase_sequence(99, 32)
        assert np.array_equal(a.elements, b.elements)

    def test_distinct_seeds_differ(self):
        a = gen_phase_sequence(1, 64)
        b = gen_phase_sequence(2, 64)
        assert np.any(a.elements != b.elements)


class TestSynthFmw:
    def test_flat_spectrum_is_impulse(self):
        mark = SpectrumMark(np.ones(4, dtype=int))
        phases = PolyphaseSequence(np.ones(4, dtype=complex))
        fmw = synth_fmw(mark, phases)
        assert np.allclose(fmw.samples, [1, 0, 0, 0], atol=1e-12)

    def test_two_bin_hand_value(self):
        mark = SpectrumMark(np.array([1, 0, 1, 0]))
        phases = PolyphaseSequence(np.ones(4, dtype=complex))
        fmw = synth_fmw(mark, phases)
        s2 = np.sqrt(2) / 2
        assert np.allclose(fmw.samples, [s2, 0, s2, 0], atol=1e-12)

    def test_unit_energy_and_spectral_nulls(self, rng, table2_mark):
        phases = gen_phase_sequence(5, 64)
        fmw = synth_fmw(table2_mark, phases)
        assert abs(np.sum(np.abs(fmw.samples) ** 2) - 1.0) < 1e-9
        spectrum = np.fft.fft(fmw.samples)
        masked = spectrum[table2_mark.bits == 0]
        assert np.max(np.abs(masked), initial=0.0) < 1e-9

    def test_length_mismatch(self, table2_mark):
        with pytest.raises(DimensionError):
            synth_fmw(table2_mark, gen_phase_sequence(1, 32))


class TestBuildUserFmw:
    def test_energy_is_l(self, table2_mark):
        user = build_user_fmw(table2_mark, builtin_quadriphase16(), user_seed=3)
        assert abs(user.symbol_energy - 16.0) < 1e-9
        assert len(user) == 1024

    def test_two_users_zero_zone(self, table2_mark):
        a = builtin_quadriphase16()
        u1 = build_user_fmw(table2_mark, a, user_seed=10)
        u2 = build_user_fmw(table2_mark, a, user_seed=11)
        report = zero_zone_verify(u1.c, u2.c, 64, 16)
        assert report.zero_count >= 897

    def test_determinism(self, table2_mark):
        a = builtin_quadriphase16()
        u1 = build_user_fmw(table2_mark, a, user_seed=42)
        u2 = build_user_fmw(table2_mark, a, user_seed=42)
        assert np.array_equal(u1.c, u2.c)

    def test_rejects_imperfect_time_sequence(self, table2_mark):
        bad = PolyphaseSequence(np.exp(2j * np.pi * np.random.default_rng(0).random(16)))
        with pytest.raises(SequenceValidationError):
            build_user_fmw(table2_mark, bad, user_seed=1)


class TestBitMapping:
    def test_msb_first(self):
        assert bits_to_index((1, 0)) == 2
        assert bits_to_index((1, 0, 1)) == 5
        assert index_to_bits(5, 3) == (1, 0, 1)

    def test_round_trip(self):
        for v in range(16):
            assert bits_to_index(index_to_bits(v, 4)) == v

    def test_rejects_non_bits(self):
        with pytest.raises(ParameterError):
            bits_to_index((0, 2))


@pytest.fixture
def small_user():
    mark = mark_from_bands(4.0, [(1.0, 1.5)], 8)
    return build_user_fmw(mark, gen_zadoff_chu(8, 1), user_seed=21)


class TestModulate:
    def test_zero_bits_is_window_start(self, small_user):
        window = ShiftWindow(start=8, width=4, circular_length=64)
        block = modulate(small_user, (0, 0), window)
        assert block.shift == 8
        assert np.array_equal(block.x, np.roll(small_user.c, -8))

    def test_bit_offset(self, small_user):
        window = ShiftWindow(start=8, width=4, circular_length=64)
        block = modulate(small_user, (1, 0), window)
        assert block.shift == 10

    def test_wrong_bit_count(self, small_user):
        window = ShiftWindow(start=8, width=4, circular_length=64)
        with pytest.raises(ParameterError):
            modulate(small_user, (1, 0, 1), window)

    def test_wrapping_window_modulates(self, small_user):
        window = ShiftWindow(start=62, width=4, circular_length=64)
        block = modulate(small_user, (1, 1), window)
        assert block.shift == (62 + 3) % 64

    def test_shift_linearity(self, small_user):
        window = ShiftWindow(start=8, width=4, circular_length=64)
        block = modulate(small_user, (0, 1), window)
        s = 5
        shifted = np.roll(block.x, -s)
        direct = np.roll(small_user.c, -(block.shift + s))
        assert np.array_equal(shifted, direct)

    def test_noiseless_round_trip_m8(self, small_user):
        window = ShiftWindow(start=8, width=8, circular_length=64)
        for value in range(8):
            bits = index_to_bits(value, 3)
            block = modulate(small_user, bits, window)
            decision = demodulate_window(block.x, small_user.c, window)
            assert decision.argmax_bits == bits
            assert decision.argmax_shift == block.shift


class TestCyclicPrefix:
    def test_definition(self):
        x = np.array([1, 2, 3, 4], dtype=complex)
        y = add_cyclic_prefix(x, 2)
        assert np.array_equal(y, np.array([3, 4, 1, 2, 3, 4], dtype=complex))

    def test_round_trip(self, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        for t_g in (0, 1, 4, 15):
            assert np.array_equal(remove_cyclic_prefix(add_cyclic_prefix(x, t_g), t_g), x)

    def test_zero_prefix_is_a_copy(self, rng):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = add_cyclic_prefix(x, 0)
        assert np.array_equal(y, x)
        assert not np.shares_memory(y, x)

    def test_quarter_prefix_length(self):
        x = np.ones(1024, dtype=complex)
        y = add_cyclic_prefix(x, 256)
        assert y.size == 1280

    def test_rejects_prefix_as_long_as_block(self):
        with pytest.raises(ParameterError):
            add_cyclic_prefix(np.ones(4, dtype=complex), 4)


class TestPlanWindowIntegration:
    def test_plan_windows_modulate(self, small_user):
        plan = plan_shifts(2, 8, 8, 4)
        block = modulate(small_user, (1, 1), plan.windows[1])
        assert block.shift == plan.windows[1].start + 3


MARK4 = SpectrumMark(np.ones(4, dtype=int))
IMPULSE4 = np.array([1, 0, 0, 0], dtype=complex)

# each frozen value type built from an array its caller still holds:
# (the array, the constructor, the field that stores it)
VALUE_TYPES = {
    "ModulatedBlock": (np.ones(4, dtype=complex), lambda x: ModulatedBlock(x, 0, ()), "x"),
    "KroneckerFmwUser": (np.ones(8, dtype=complex), lambda c: KroneckerFmwUser(
        c, BasisFmw(IMPULSE4, MARK4), PolyphaseSequence(np.ones(2, dtype=complex))), "c"),
    "BasisFmw": (IMPULSE4, lambda s: BasisFmw(s, MARK4), "samples"),
    "GainMatrix": (np.eye(2, dtype=complex), GainMatrix, "gains"),
    "PolyphaseSequence": (np.ones(4, dtype=complex), PolyphaseSequence, "elements"),
}


@pytest.mark.parametrize("name", list(VALUE_TYPES))
def test_value_type_freezes_a_copy_not_the_callers_array(name):
    array, build, field = VALUE_TYPES[name]
    array = array.copy()
    stored = getattr(build(array), field)
    array[0] = 2   # the caller's array stays writable
    assert not stored.flags.writeable
    assert not np.shares_memory(stored, array)
