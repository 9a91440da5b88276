"""Correlation engine and sequence generator tests."""

import numpy as np
import pytest

from tdcslab.errors import DimensionError, ParameterError
from tdcslab.seqcore import (
    PolyphaseSequence,
    aperiodic_xcorr,
    builtin_quadriphase16,
    export_complex_csv,
    gen_zadoff_chu,
    is_perfect_sequence,
    kronecker_synthesize,
    periodic_xcorr_direct,
    periodic_xcorr_fft,
    zero_zone_verify,
)

from conftest import naive_aperiodic_xcorr, naive_periodic_xcorr, random_unit_vector


class TestPeriodicXcorr:
    def test_impulse_autocorrelation(self):
        imp = np.array([1, 0, 0, 0], dtype=complex)
        prof = periodic_xcorr_fft(imp, imp)
        assert np.allclose(prof, [1, 0, 0, 0], atol=1e-15)

    def test_quadriphase16_is_perfect(self):
        a = builtin_quadriphase16().elements
        phi = naive_periodic_xcorr(a, a)
        assert abs(phi[0] - 16) < 1e-12
        assert np.max(np.abs(phi[1:])) < 1e-12
        assert is_perfect_sequence(a)

    def test_fast_path_matches_direct_sum(self, rng):
        n = 64
        for _ in range(100):
            u = random_unit_vector(rng, n)
            v = random_unit_vector(rng, n)
            fast = periodic_xcorr_fft(u, v)
            direct = periodic_xcorr_direct(u, v)
            assert np.max(np.abs(fast - direct)) < 1e-9 * n

    def test_direct_matches_naive_loop(self, rng):
        u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert np.allclose(periodic_xcorr_direct(u, v), naive_periodic_xcorr(u, v))

    def test_conjugate_symmetry(self, rng):
        n = 32
        u = random_unit_vector(rng, n)
        v = random_unit_vector(rng, n)
        fwd = periodic_xcorr_fft(u, v)
        rev = periodic_xcorr_fft(v, u)
        flipped = np.conj(rev[(-np.arange(n)) % n])
        assert np.max(np.abs(fwd - flipped)) < 1e-12
        fwd_d = periodic_xcorr_direct(u, v)
        rev_d = periodic_xcorr_direct(v, u)
        # same terms, rotated summation order: agreement to rounding only
        assert np.max(np.abs(fwd_d - np.conj(rev_d[(-np.arange(n)) % n]))) < 1e-12 * n

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            periodic_xcorr_fft(np.ones(4), np.ones(5))


class TestAperiodicXcorr:
    def test_hand_sum(self):
        prof = aperiodic_xcorr(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert np.allclose(prof, [2, 1])

    def test_tail_is_single_term(self, rng):
        u = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        psi = aperiodic_xcorr(u, u)
        assert abs(psi[-1] - u[0] * np.conj(u[-1])) < 1e-12

    def test_lag_zero_is_inner_product(self, rng):
        u = random_unit_vector(rng, 16)
        v = random_unit_vector(rng, 16)
        psi = aperiodic_xcorr(u, v)
        assert abs(psi[0] - np.vdot(v, u)) < 1e-12

    def test_matches_naive_loop(self, rng):
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.allclose(aperiodic_xcorr(u, v), naive_aperiodic_xcorr(u, v),
                           atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 7, 64, 256])
    def test_bytes_of_the_padded_transform(self, n):
        # the zero-padded transform written out, fft(fft(u) * conj(fft(v)))
        # / 2N over the padded pair: the same bytes, not only close values
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        up, vp = np.concatenate([u, 0 * u]), np.concatenate([v, 0 * v])
        full = np.fft.fft(np.fft.fft(up) * np.conj(np.fft.fft(vp))) / (2 * n)
        assert aperiodic_xcorr(u, v).tobytes() == full[:n].tobytes()


class TestGenerators:
    @pytest.mark.parametrize("length,root", [(9, 2), (2, 1), (16, 1), (63, 5), (64, 7)])
    def test_zadoff_chu_perfect_acf(self, length, root):
        seq = gen_zadoff_chu(length, root)
        phi = naive_periodic_xcorr(seq.elements, seq.elements)
        assert abs(phi[0] - length) < 1e-9 * length
        assert np.max(np.abs(phi[1:])) < 1e-9 * length

    def test_zadoff_chu_length2(self):
        seq = gen_zadoff_chu(2, 1)
        assert len(seq) == 2
        assert np.allclose(np.abs(seq.elements), 1.0)
        phi = naive_periodic_xcorr(seq.elements, seq.elements)
        assert abs(phi[1]) < 1e-12

    def test_zadoff_chu_non_coprime_root(self):
        with pytest.raises(ParameterError):
            gen_zadoff_chu(9, 3)

    def test_zadoff_chu_too_short(self):
        with pytest.raises(ParameterError):
            gen_zadoff_chu(1, 1)

    def test_quadriphase16_listing(self):
        seq = builtin_quadriphase16()
        assert seq.elements[0] == 1 + 0j
        assert seq.elements[5] == 1j
        expected = [1, 1, 1, 1, 1, 1j, -1, -1j, 1, -1, 1, -1, 1, -1j, -1, 1j]
        assert np.array_equal(seq.elements, np.array(expected, dtype=complex))

    def test_polyphase_rejects_non_unit_modulus(self):
        with pytest.raises(ParameterError):
            PolyphaseSequence(np.array([1.0, 0.5]))


class TestKroneckerSynthesis:
    def test_direct_substitution(self):
        c = kronecker_synthesize(np.array([1, 1], dtype=complex),
                                 np.array([1, 0], dtype=complex))
        assert np.array_equal(c, np.array([1, 0, 1, 0], dtype=complex))

    def test_energy_is_l_times_basis_energy(self, rng):
        a = builtin_quadriphase16()
        b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        b /= np.linalg.norm(b)
        c = kronecker_synthesize(a, b)
        assert c.size == 16 * 64
        assert abs(np.sum(np.abs(c) ** 2) - 16) < 1e-9

    def test_index_by_index(self, rng):
        a = random_unit_vector(rng, 5)
        b = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        c = kronecker_synthesize(a, b)
        for l in range(5):
            for m in range(7):
                # vectorized and scalar complex multiplies differ by <= 1 ulp
                assert abs(c[l * 7 + m] - a[l] * b[m]) < 1e-14

    def test_rejects_degenerate_time_length(self):
        with pytest.raises(ParameterError):
            kronecker_synthesize(np.array([1.0 + 0j]), np.ones(4, dtype=complex))


def _kron_pair(rng, n, l, mark_bits=None):
    """Two Kronecker waveforms over a common perfect code, random bases."""
    a = gen_zadoff_chu(l, 1).elements if l != 16 else builtin_quadriphase16().elements
    if mark_bits is None:
        bs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2)]
    else:
        lam = np.sqrt(n / mark_bits.sum())
        bs = [lam * np.fft.ifft(mark_bits * np.exp(2j * np.pi * rng.random(n)))
              for _ in range(2)]
    return np.kron(a, bs[0]), np.kron(a, bs[1])


class TestZeroZone:
    def test_distinct_user_count(self, rng, table2_mark):
        n, l = 64, 16
        ci, cj = _kron_pair(rng, n, l, mark_bits=np.asarray(table2_mark.bits, float))
        report = zero_zone_verify(ci, cj, n, l)
        assert report.zero_count >= 897
        assert report.required_count == 897
        assert report.passed

    def test_acf_zone_and_peak(self, rng):
        n, l = 64, 16
        ci, _ = _kron_pair(rng, n, l)
        phi = periodic_xcorr_direct(ci, ci)
        ln = n * l
        assert abs(phi[0] - np.sum(np.abs(ci) ** 2)) < 1e-9 * ln
        assert np.max(np.abs(phi[n:ln - n + 1])) < 1e-9 * ln
        report = zero_zone_verify(ci, ci, n, l)
        assert report.passed
        assert report.max_sidelobe_in_zone < report.tolerance

    def test_mask_independent(self, rng):
        # zone holds for arbitrary (not even unit-modulus) bases
        n, l = 32, 8
        ci, cj = _kron_pair(rng, n, l)
        report = zero_zone_verify(ci, cj, n, l)
        assert report.passed

    def test_sidelobe_identity_residual(self, rng):
        n, l = 64, 16
        ci, cj = _kron_pair(rng, n, l)
        report = zero_zone_verify(ci, cj, n, l)
        assert report.identity_residual < 1e-9 * n * l

    def test_sidelobe_identity_against_naive(self, rng):
        # phi(tau) == L * psi(tau) for |tau| < N, via the naive loops
        n, l = 16, 8
        ci, cj = _kron_pair(rng, n, l)
        phi = naive_periodic_xcorr(ci, cj)
        psi = naive_aperiodic_xcorr(ci[:n], cj[:n])
        psi_rev = naive_aperiodic_xcorr(cj[:n], ci[:n])
        ln = n * l
        for tau in range(n):
            assert abs(phi[tau] - l * psi[tau]) < 1e-9 * ln
        for tau in range(1, n):
            assert abs(phi[ln - tau] - l * np.conj(psi_rev[tau])) < 1e-9 * ln

    def test_single_bin_pair(self):
        # N = 1: the identity holds at lag 0 alone
        c = builtin_quadriphase16().elements
        report = zero_zone_verify(c, c, 1, 16)
        assert report.required_count == 15
        assert report.zero_count == 15
        assert report.identity_residual < report.tolerance
        assert report.passed

    def test_zero_count_alone_does_not_pass(self):
        # a perfect length-4 sequence that is no Kronecker product: three zero
        # shifts where one is required, but phi(1) = 0 is not L * psi(1) = 2
        c = np.array([1, 1, 1, -1], dtype=complex)
        report = zero_zone_verify(c, c, 2, 2)
        assert report.zero_count == 3 >= report.required_count == 1
        assert abs(report.identity_residual - 2.0) < 1e-12
        assert not report.passed

    # N = -4 made numpy raise a ValueError; L = 1 required -15 zero shifts
    @pytest.mark.parametrize("n_bins, l_time", [(-4, -4), (16, 1), (0, 16)])
    def test_rejects_sizes_outside_the_model(self, n_bins, l_time):
        c = builtin_quadriphase16().elements
        with pytest.raises(ParameterError, match="L >= 2"):
            zero_zone_verify(c, c, n_bins, l_time)

    def test_length_check(self):
        with pytest.raises(DimensionError):
            zero_zone_verify(np.ones(10, complex), np.ones(10, complex), 4, 4)


class TestCsvExport:
    def test_round_trip(self, tmp_path, rng):
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        path = tmp_path / "seq.csv"
        export_complex_csv(vec, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "index,real,imag"
        assert len(rows) == 9
        parsed = np.array(
            [complex(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows[1:]]
        )
        assert np.array_equal(parsed, vec)
