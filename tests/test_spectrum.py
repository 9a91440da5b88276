"""Spectrum mark construction, overlap coefficient, and mismatch tests."""

import numpy as np
import pytest

from tdcslab.errors import DimensionError, ParameterError
from tdcslab.spectrum import (
    SpectrumMark,
    band_union,
    correlation_coefficient,
    mark_from_bands,
    mismatch_mask,
)


class TestBandUnion:
    def test_merges_unsorted_overlapping_and_touching_bands(self):
        bands = [(8, 9), (3.0, 4.0), (1.0, 2.0), (1.5, 3.0), (6.0, 7.0), (6.5, 6.75)]
        union = ((1.0, 4.0), (6.0, 7.0), (8.0, 9.0))
        assert band_union(10.0, bands) == union
        assert band_union(10.0, union) == union   # a union is its own union
        assert band_union(10.0, []) == ()

    @pytest.mark.parametrize("band", [(9.0, 11.0), (-1.0, 2.0), (3.0, 3.0)])
    def test_band_outside_the_bandwidth(self, band):
        lo, hi = band
        with pytest.raises(ParameterError,
                           match=rf"band \({lo}, {hi}\) outside \[0, 10.0\]"):
            band_union(10.0, [(1.0, 2.0), band])

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 0.0])
    def test_bandwidth_not_positive_and_finite(self, bandwidth):
        with pytest.raises(ParameterError, match="bandwidth"):
            band_union(bandwidth, [])


class TestMarkFromBands:
    # expected bits marked band by band: a bin is out when it overlaps any band
    @pytest.mark.parametrize("bandwidth, bands, n_bins, bits", [
        (10.0, [(6.25, 7.5), (2.5, 3.75)], 16, "1111001111001111"),
        (10.0, [(1.0, 2.0), (3.0, 4.0), (1.5, 3.0)], 16, "1000000111111111"),
        (10.0, [(0.0, 0.3), (9.99, 10.0)], 16, "0111111111111110"),
        (16.0, [(3.0, 4.0), (9.0, 10.0), (10.0, 11.0)], 16, "1110111110011111"),
        (1.0, [(0.2, 0.25), (0.25, 0.5)], 8, "10001111"),
    ])
    def test_bits_of_band_lists(self, bandwidth, bands, n_bins, bits):
        mark = mark_from_bands(bandwidth, bands, n_bins)
        assert "".join(map(str, mark.bits)) == bits

    def test_standard_band_layout(self, table2_mark):
        bits = table2_mark.bits
        assert np.all(bits[16:24] == 0)
        assert np.all(bits[40:48] == 0)
        assert table2_mark.n_available == 48
        assert table2_mark.beta == pytest.approx(0.75)
        # every other bin stays available
        expected = np.ones(64, dtype=int)
        expected[16:24] = 0
        expected[40:48] = 0
        assert np.array_equal(bits, expected)

    def test_no_bands_all_available(self):
        mark = mark_from_bands(10e6, [], 8)
        assert np.all(mark.bits == 1)
        assert mark.beta == 1.0

    def test_full_band_unavailable(self):
        # SpectrumMark rejects a mark with no bin left
        for bandwidth, n_bins in [(10e6, 8), (10.0, 64)]:
            with pytest.raises(ParameterError, match="at least one bin"):
                mark_from_bands(bandwidth, [(0.0, bandwidth)], n_bins)

    def test_band_outside_range(self):
        with pytest.raises(ParameterError):
            mark_from_bands(10e6, [(9e6, 11e6)], 8)

    # an infinite bandwidth put the bin edges at nan and inf, so no band
    # marked a bin: 16 of 16 available, with a RuntimeWarning
    @pytest.mark.parametrize("bandwidth", [float("inf"), float("nan"), 0.0])
    def test_non_finite_or_non_positive_bandwidth(self, bandwidth):
        with pytest.raises(ParameterError, match="bandwidth"):
            mark_from_bands(bandwidth, [(2.5, 3.75)], 16)

    def test_partial_overlap_removes_bin(self):
        # a sliver into bin 1 kills the entire bin, but bin boundary
        # contact alone does not
        mark = mark_from_bands(8.0, [(1.0, 1.25)], 8)
        assert mark.bits[1] == 0
        assert mark.bits[0] == 1
        assert mark.bits[2] == 1

    def test_scales_to_finer_grids(self):
        coarse = mark_from_bands(10e6, [(2.5e6, 3.75e6), (6.25e6, 7.5e6)], 64)
        fine = mark_from_bands(10e6, [(2.5e6, 3.75e6), (6.25e6, 7.5e6)], 1024)
        assert fine.beta == pytest.approx(coarse.beta)
        assert np.array_equal(np.repeat(coarse.bits, 16), fine.bits)


class TestCorrelationCoefficient:
    def test_identical_marks(self, table2_mark):
        assert correlation_coefficient(table2_mark, table2_mark) == pytest.approx(1.0)

    def test_disjoint_sets(self):
        a = SpectrumMark(np.array([1, 1, 0, 0]))
        b = SpectrumMark(np.array([0, 0, 1, 1]))
        assert correlation_coefficient(a, b) == 0.0

    def test_partial_overlap_value(self, table2_mark):
        rx = mismatch_mask(table2_mark, 44 / 48, seed=3)
        eta = correlation_coefficient(table2_mark, rx)
        assert eta == pytest.approx(44 / 48)

    def test_symmetry(self, rng, table2_mark):
        rx = mismatch_mask(table2_mark, 0.9, seed=7)
        assert correlation_coefficient(table2_mark, rx) == pytest.approx(
            correlation_coefficient(rx, table2_mark)
        )

    def test_length_mismatch(self, table2_mark):
        with pytest.raises(DimensionError):
            correlation_coefficient(table2_mark, SpectrumMark(np.ones(8, dtype=int)))


class TestMismatchMask:
    def test_eta_one_returns_unchanged(self, table2_mark):
        rx = mismatch_mask(table2_mark, 1.0, seed=5)
        assert np.array_equal(rx.bits, table2_mark.bits)

    def test_target_4_swaps(self, table2_mark):
        rx = mismatch_mask(table2_mark, 44 / 48, seed=11)
        assert rx.n_available == table2_mark.n_available
        changed_out = np.sum((table2_mark.bits == 1) & (rx.bits == 0))
        changed_in = np.sum((table2_mark.bits == 0) & (rx.bits == 1))
        assert changed_out == changed_in == 4

    def test_deterministic_per_seed(self, table2_mark):
        a = mismatch_mask(table2_mark, 0.9, seed=123)
        b = mismatch_mask(table2_mark, 0.9, seed=123)
        assert np.array_equal(a.bits, b.bits)

    def test_achieves_target_within_one_bin(self, table2_mark):
        n_c = table2_mark.n_available
        for target in (0.99, 0.95, 0.9, 0.8, 0.7):
            rx = mismatch_mask(table2_mark, target, seed=9)
            eta = correlation_coefficient(table2_mark, rx)
            assert abs(eta - target) <= 1.0 / n_c

    def test_rejects_bad_target(self, table2_mark):
        with pytest.raises(ParameterError):
            mismatch_mask(table2_mark, 0.0, seed=1)
        with pytest.raises(ParameterError):
            mismatch_mask(table2_mark, 1.5, seed=1)


class TestMarkType:
    def test_rejects_empty_available_set(self):
        with pytest.raises(ParameterError):
            SpectrumMark(np.zeros(8, dtype=int))

    def test_rejects_non_binary(self):
        with pytest.raises(ParameterError):
            SpectrumMark(np.array([0, 1, 2]))
