import numpy as np
import pytest
from scipy.linalg import expm

from ccawalk import (
    LatticeSpec,
    ValidationError,
    decompose,
    propagator_columns,
    propagator_matrix,
)


def dense_single_photon_hamiltonian(n, omega, hopping):
    """Independent tridiagonal construction, no sine transform involved."""
    h = np.diag(np.full(n, float(omega)))
    off = np.full(n - 1, float(hopping))
    return h + np.diag(off, 1) + np.diag(off, -1)


class TestLatticeSpec:
    def test_rejects_single_cavity(self):
        with pytest.raises(ValidationError):
            LatticeSpec(num_cavities=1, omega=1.0, hopping=1.0)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValidationError):
            LatticeSpec(num_cavities=3, omega=0.0, hopping=1.0)
        with pytest.raises(ValidationError):
            LatticeSpec(num_cavities=3, omega=-2.0, hopping=1.0)

    def test_rejects_negative_hopping(self):
        with pytest.raises(ValidationError):
            LatticeSpec(num_cavities=3, omega=1.0, hopping=-0.1)

    def test_rejects_non_integer_count(self):
        with pytest.raises(ValidationError):
            LatticeSpec(num_cavities=3.5, omega=1.0, hopping=1.0)

    def test_zero_hopping_allowed(self):
        lat = LatticeSpec(num_cavities=4, omega=2.0, hopping=0.0)
        assert lat.hopping == 0.0


class TestDecompose:
    def test_midband_frequency_equals_bare_omega(self):
        # cosine vanishes at the band centre of an odd chain
        decomp = decompose(LatticeSpec(num_cavities=3, omega=1.0, hopping=0.5))
        assert decomp.frequencies[1] == 1.0

    def test_band_edges_29_cavities(self):
        decomp = decompose(LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0))
        expected_top = 1.0 + 2.0 * np.cos(np.pi / 30.0)
        assert decomp.frequencies[0] == pytest.approx(expected_top, abs=1e-14)
        assert decomp.frequencies[0] == pytest.approx(2.9890437907365466, abs=1e-12)
        assert decomp.frequencies[-1] == pytest.approx(-0.9890437907365466, abs=1e-12)

    def test_frequencies_match_dense_eigenvalues(self):
        lat = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        decomp = decompose(lat)
        eigenvalues = np.linalg.eigvalsh(
            dense_single_photon_hamiltonian(29, lat.omega, lat.hopping)
        )
        assert np.allclose(np.sort(decomp.frequencies), eigenvalues, atol=1e-10)

    def test_two_site_transform(self):
        decomp = decompose(LatticeSpec(num_cavities=2, omega=1.0, hopping=1.0))
        inv_root2 = 1.0 / np.sqrt(2.0)
        expected = np.array([[inv_root2, inv_root2], [inv_root2, -inv_root2]])
        assert np.allclose(decomp.transform, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 8, 29])
    def test_transform_symmetric_and_involutory(self, n):
        decomp = decompose(LatticeSpec(num_cavities=n, omega=1.0, hopping=0.7))
        s = decomp.transform
        assert np.array_equal(s, s.T)
        assert np.abs(s @ s - np.eye(n)).max() < 1e-12

    def test_frequencies_decreasing_and_in_band(self):
        lat = LatticeSpec(num_cavities=17, omega=2.0, hopping=0.3)
        freqs = decompose(lat).frequencies
        assert np.all(np.diff(freqs) < 0)
        assert freqs.max() <= lat.omega + 2 * lat.hopping
        assert freqs.min() >= lat.omega - 2 * lat.hopping

    def test_results_are_read_only(self):
        decomp = decompose(LatticeSpec(num_cavities=4, omega=1.0, hopping=1.0))
        with pytest.raises(ValueError):
            decomp.transform[0, 0] = 9.9


class TestPropagatorMatrix:
    def test_identity_at_time_zero(self):
        decomp = decompose(LatticeSpec(num_cavities=11, omega=1.0, hopping=0.8))
        g = propagator_matrix(decomp, 0.0)
        assert np.abs(g.entries - np.eye(11)).max() < 1e-12

    @pytest.mark.parametrize("t", [0.3, 1.0, np.pi, 17.5])
    def test_two_site_closed_form(self, t):
        # omega = hopping = 1: diagonal e^{-it} cos t, off-diagonal -i e^{-it} sin t
        decomp = decompose(LatticeSpec(num_cavities=2, omega=1.0, hopping=1.0))
        g = propagator_matrix(decomp, t).entries
        phase = np.exp(-1j * t)
        assert g[0, 0] == pytest.approx(phase * np.cos(t), abs=1e-14)
        assert g[1, 1] == pytest.approx(phase * np.cos(t), abs=1e-14)
        assert g[0, 1] == pytest.approx(-1j * phase * np.sin(t), abs=1e-14)

    def test_row_matches_matrix_exponential(self):
        lat = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        g = propagator_matrix(decompose(lat), 83.57).entries
        u = expm(-1j * dense_single_photon_hamiltonian(29, 1.0, 1.0) * 83.57)
        assert np.abs(g[14, :] - u[14, :]).max() < 1e-9
        assert np.abs(g - u).max() < 1e-9

    def test_exact_index_symmetry(self):
        decomp = decompose(LatticeSpec(num_cavities=13, omega=1.3, hopping=0.6))
        g = propagator_matrix(decomp, 42.1).entries
        assert np.array_equal(g, g.T)

    def test_negative_time_is_conjugate(self):
        decomp = decompose(LatticeSpec(num_cavities=7, omega=1.0, hopping=0.4))
        forward = propagator_matrix(decomp, 5.5).entries
        backward = propagator_matrix(decomp, -5.5).entries
        assert np.abs(backward - forward.conj()).max() < 1e-14
        assert np.abs(forward @ backward - np.eye(7)).max() < 1e-12

    def test_rejects_non_finite_time(self):
        decomp = decompose(LatticeSpec(num_cavities=3, omega=1.0, hopping=1.0))
        with pytest.raises(ValidationError):
            propagator_matrix(decomp, float("nan"))


class TestPropagatorColumns:
    def test_unit_vector_at_time_zero(self):
        decomp = decompose(LatticeSpec(num_cavities=9, omega=1.0, hopping=1.0))
        (col,) = propagator_columns(decomp, 0.0, [4])
        expected = np.zeros(9)
        expected[3] = 1.0
        assert np.abs(col.amplitudes - expected).max() < 1e-12

    def test_matches_full_matrix(self):
        decomp = decompose(LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0))
        full = propagator_matrix(decomp, 83.57).entries
        cols = propagator_columns(decomp, 83.57, [15, 16])
        for col in cols:
            assert np.abs(col.amplitudes - full[:, col.site - 1]).max() < 1e-14

    def test_two_site_quarter_period(self):
        decomp = decompose(LatticeSpec(num_cavities=2, omega=1.0, hopping=1.0))
        (col,) = propagator_columns(decomp, np.pi / 2, [1])
        assert np.abs(col.amplitudes - np.array([0.0, -1.0])).max() < 1e-12

    @pytest.mark.parametrize("site", [0, 30, -3])
    def test_rejects_out_of_range_site(self, site):
        decomp = decompose(LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0))
        with pytest.raises(ValidationError):
            propagator_columns(decomp, 1.0, [site])

    def test_order_follows_request(self):
        decomp = decompose(LatticeSpec(num_cavities=5, omega=1.0, hopping=0.5))
        cols = propagator_columns(decomp, 2.0, [4, 2, 4])
        assert [c.site for c in cols] == [4, 2, 4]


def dense_reference(decomp, t):
    """S diag(exp(-i Omega t)) S from the dense transform, one phase per mode."""
    s = decomp.transform
    return s @ np.diag(np.exp(-1j * decomp.frequencies * t)) @ s


class TestKernelAgainstDenseReference:
    # The dense reference rounds Omega_k t once per mode, an error of about
    # |Omega| t * 1e-16; at |t| = 1e4 the band is scaled down (fig2's hopping,
    # a carrier phase of 50 rad) so that the reference itself stays near 4e-14.
    CASES = [
        (1.0, 1.0, 0.0),
        (1.0, 1.0, 0.7),
        (1.0, 1.0, -0.7),
        (1.0, 1.0, 83.57),
        (0.005, 0.01, 1e4),
        (0.005, 0.01, -1e4),
    ]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 29, 30, 200])
    @pytest.mark.parametrize("omega, hopping, t", CASES)
    def test_columns_and_matrix_match_dense_product(self, n, omega, hopping, t):
        decomp = decompose(LatticeSpec(num_cavities=n, omega=omega, hopping=hopping))
        reference = dense_reference(decomp, t)
        sites = sorted({1, 2, n - 1, n})
        for col in propagator_columns(decomp, t, sites):
            assert np.abs(col.amplitudes - reference[:, col.site - 1]).max() < 1e-13
        g = propagator_matrix(decomp, t).entries
        assert np.abs(g - reference).max() < 1e-13
