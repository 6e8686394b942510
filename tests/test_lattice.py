from math import exp

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from ccawalk import (
    LatticeSpec,
    ValidationError,
    mode_frequencies,
    propagator_block,
)
from ccawalk.lattice import (
    MAX_CAVITIES,
    _log_cut_bound,
    _mode_sums,
    light_cone,
    propagator_blocks,
)
from conftest import complex_propagator, full_propagator, sine_transform


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
        lattice = LatticeSpec(num_cavities=3, omega=1.0, hopping=0.5)
        assert mode_frequencies(lattice)[1] == 1.0

    def test_band_edges_29_cavities(self):
        freqs = mode_frequencies(LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0))
        expected_top = 1.0 + 2.0 * np.cos(np.pi / 30.0)
        assert freqs[0] == pytest.approx(expected_top, abs=1e-14)
        assert freqs[0] == pytest.approx(2.9890437907365466, abs=1e-12)
        assert freqs[-1] == pytest.approx(-0.9890437907365466, abs=1e-12)

    def test_frequencies_match_dense_eigenvalues(self):
        lat = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        eigenvalues = np.linalg.eigvalsh(
            dense_single_photon_hamiltonian(29, lat.omega, lat.hopping)
        )
        assert np.allclose(np.sort(mode_frequencies(lat)), eigenvalues, atol=1e-10)

    def test_two_site_transform(self):
        lattice = LatticeSpec(num_cavities=2, omega=1.0, hopping=1.0)
        inv_root2 = 1.0 / np.sqrt(2.0)
        expected = np.array([[inv_root2, inv_root2], [inv_root2, -inv_root2]])
        assert np.allclose(sine_transform(lattice), expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 8, 29])
    def test_transform_symmetric_and_involutory(self, n):
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=0.7)
        s = sine_transform(lattice)
        assert np.array_equal(s, s.T)
        assert np.abs(s @ s - np.eye(n)).max() < 1e-12

    def test_frequencies_decreasing_and_in_band(self):
        lat = LatticeSpec(num_cavities=17, omega=2.0, hopping=0.3)
        freqs = mode_frequencies(lat)
        assert np.all(np.diff(freqs) < 0)
        assert freqs.max() <= lat.omega + 2 * lat.hopping
        assert freqs.min() >= lat.omega - 2 * lat.hopping

    def test_results_are_read_only(self):
        lattice = LatticeSpec(num_cavities=4, omega=1.0, hopping=1.0)
        with pytest.raises(ValueError):
            mode_frequencies(lattice)[0] = 9.9


class TestPropagatorMatrix:
    def test_identity_at_time_zero(self):
        lattice = LatticeSpec(num_cavities=11, omega=1.0, hopping=0.8)
        g = full_propagator(lattice, 0.0)
        assert np.abs(g - np.eye(11)).max() < 1e-12

    @pytest.mark.parametrize("t", [0.3, 1.0, np.pi, 17.5])
    def test_two_site_closed_form(self, t):
        # omega = hopping = 1: diagonal e^{-it} cos t, off-diagonal -i e^{-it} sin t
        lattice = LatticeSpec(num_cavities=2, omega=1.0, hopping=1.0)
        g = full_propagator(lattice, t)
        phase = np.exp(-1j * t)
        assert g[0, 0] == pytest.approx(phase * np.cos(t), abs=1e-14)
        assert g[1, 1] == pytest.approx(phase * np.cos(t), abs=1e-14)
        assert g[0, 1] == pytest.approx(-1j * phase * np.sin(t), abs=1e-14)

    def test_row_matches_matrix_exponential(self):
        lat = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        g = full_propagator(lat, 83.57)
        u = expm(-1j * dense_single_photon_hamiltonian(29, 1.0, 1.0) * 83.57)
        assert np.abs(g[14, :] - u[14, :]).max() < 1e-9
        assert np.abs(g - u).max() < 1e-9

    def test_exact_index_symmetry(self):
        lattice = LatticeSpec(num_cavities=13, omega=1.3, hopping=0.6)
        g = full_propagator(lattice, 42.1)
        assert np.array_equal(g, g.T)

    def test_negative_time_is_conjugate(self):
        lattice = LatticeSpec(num_cavities=7, omega=1.0, hopping=0.4)
        forward = full_propagator(lattice, 5.5)
        backward = full_propagator(lattice, -5.5)
        assert np.abs(backward - forward.conj()).max() < 1e-14
        assert np.abs(forward @ backward - np.eye(7)).max() < 1e-12

    def test_rejects_non_finite_time(self):
        lattice = LatticeSpec(num_cavities=3, omega=1.0, hopping=1.0)
        with pytest.raises(ValidationError):
            full_propagator(lattice, float("nan"))


class TestPropagatorColumns:
    def test_unit_vector_at_time_zero(self):
        lattice = LatticeSpec(num_cavities=9, omega=1.0, hopping=1.0)
        (col,) = complex_propagator(lattice, [4], [0.0])[:, 0]
        expected = np.zeros(9)
        expected[3] = 1.0
        assert np.abs(col - expected).max() < 1e-12

    def test_matches_full_matrix(self):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        full = full_propagator(lattice, 83.57)
        cols = complex_propagator(lattice, [15, 16], [83.57])[:, 0]
        for site, col in zip([15, 16], cols):
            assert np.abs(col - full[:, site - 1]).max() < 1e-14

    def test_two_site_quarter_period(self):
        lattice = LatticeSpec(num_cavities=2, omega=1.0, hopping=1.0)
        (col,) = complex_propagator(lattice, [1], [np.pi / 2])[:, 0]
        assert np.abs(col - np.array([0.0, -1.0])).max() < 1e-12

    @pytest.mark.parametrize("kernel", [complex_propagator, propagator_block])
    @pytest.mark.parametrize("site", [0, 30, -3, True, 2.0])
    def test_rejects_out_of_range_site(self, kernel, site):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        with pytest.raises(ValidationError):
            kernel(lattice, [site], [1.0])

    @pytest.mark.parametrize("kernel", [complex_propagator, propagator_block])
    @pytest.mark.parametrize(
        "sites", [[1, True], [np.True_, 2], np.array([1, 2.0]), [[1, 2]], [], 3]
    )
    def test_rejects_malformed_site_arrays(self, kernel, sites):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        with pytest.raises(ValidationError):
            kernel(lattice, sites, [1.0])

    @pytest.mark.parametrize("kernel", [complex_propagator, propagator_block])
    @pytest.mark.parametrize(
        "times", [[float("nan")], [0.0, float("inf")], [], [[1.0]], [True], ["1.0"]]
    )
    def test_rejects_malformed_times(self, kernel, times):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        with pytest.raises(ValidationError):
            kernel(lattice, [1, 2], times)

    def test_order_follows_request(self):
        lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=0.5)
        cols = complex_propagator(lattice, [4, 2, 4], [2.0])[:, 0]
        full = full_propagator(lattice, 2.0)
        assert np.array_equal(cols, full[[3, 1, 3]])


def dense_reference(lattice, t):
    """S diag(exp(-i Omega t)) S from the dense transform, one phase per mode."""
    s = sine_transform(lattice)
    return s @ np.diag(np.exp(-1j * mode_frequencies(lattice) * t)) @ s


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
        lattice = LatticeSpec(num_cavities=n, omega=omega, hopping=hopping)
        reference = dense_reference(lattice, t)
        sites = sorted({1, 2, n - 1, n})
        for site, col in zip(sites, complex_propagator(lattice, sites, [t])[:, 0]):
            assert np.abs(col - reference[:, site - 1]).max() < 1e-13
        g = full_propagator(lattice, t)
        assert np.abs(g - reference).max() < 1e-13


def verify_like_times(t_max, seed):
    """Sample times as ``run_verification`` lays them out for its one call."""
    rng = np.random.default_rng(seed)
    samples = np.concatenate(([0.0], np.sort(rng.uniform(0.0, t_max, size=24))))
    pairs = rng.uniform(0.0, t_max, size=(5, 2))
    group = np.column_stack((pairs, pairs[:, 0] + pairs[:, 1])).ravel()
    return np.concatenate((samples, [0.0], group))


class TestBlockKernel:
    def test_layout_and_read_only(self):
        lattice = LatticeSpec(num_cavities=7, omega=1.3, hopping=0.6)
        real = propagator_block(lattice, [2, 5, 2], [0.0, 1.5, -4.0, 9.0])
        g = complex_propagator(lattice, [2, 5, 2], [0.0, 1.5, -4.0, 9.0])
        assert real.shape == g.shape == (3, 4, 7)
        assert real.dtype == np.float64 and g.dtype == np.complex128
        assert np.abs(np.abs(g) - np.abs(real)).max() < 1e-15
        for array in (real, g):
            with pytest.raises(ValueError):
                array[0, 0, 0] = 1.0

    @pytest.mark.parametrize("n", [8, 29, 50])
    @pytest.mark.parametrize(
        "omega, hopping, t_max", [(1.0, 1.0, 83.57), (1.0, 0.01, 1e4)]
    )
    def test_each_time_slice_is_independent_of_the_batch(
        self, n, omega, hopping, t_max
    ):
        # the property that keeps verify's one batched call bitwise equal to
        # one call per time point
        lattice = LatticeSpec(num_cavities=n, omega=omega, hopping=hopping)
        sites = np.arange(1, n + 1)
        times = verify_like_times(t_max, seed=n)
        assert times.size == 41
        g = complex_propagator(lattice, sites, times)
        real = propagator_block(lattice, sites, times)
        for k in range(times.size):
            one = times[k : k + 1]
            alone = complex_propagator(lattice, sites, one)
            assert np.array_equal(g[:, k], alone[:, 0])
            alone = propagator_block(lattice, sites, one)
            assert np.array_equal(real[:, k], alone[:, 0])


class TestBlockWorkspace:
    """``propagator_blocks`` reuses one workspace; no block sees another's data."""

    @pytest.mark.parametrize("n", [2, 3, 29, 1000])
    @pytest.mark.parametrize("block_times", [1, 4, 16])
    def test_blocks_equal_one_call_per_piece(self, n, block_times):
        # 2 * block_times + 3 times: the last block is short, and the only
        # t == 0 row sits in the first block
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=0.1)
        sites = sorted({1, 2, n // 2 + 1, n})
        times = np.linspace(0.0, 1000.0, 2 * block_times + 3)
        covered = []
        for block, columns in propagator_blocks(lattice, sites, times, block_times):
            assert not columns.flags.writeable
            piece = propagator_block(lattice, sites, times[block])
            assert columns.tobytes() == piece.tobytes()
            covered.append(block)
        assert [(block.start, block.stop) for block in covered] == [
            (lo, min(lo + block_times, times.size))
            for lo in range(0, times.size, block_times)
        ]

    def test_zero_time_rows_do_not_persist_in_the_buffer(self):
        # t == 0 in the first block's last row, the second block has none
        lattice = LatticeSpec(num_cavities=9, omega=1.0, hopping=0.7)
        times = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        pieces = propagator_blocks(lattice, [3, 4], times, 3)
        blocks = [columns.copy() for _, columns in pieces]
        assert np.array_equal(np.concatenate(blocks, axis=1),
                              propagator_block(lattice, [3, 4], times))
        assert not np.any(blocks[1] == 1.0)

    @pytest.mark.parametrize("block_times", [0, -1, 2.5, True])
    def test_rejects_bad_block_size(self, block_times):
        lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=1.0)
        with pytest.raises(ValidationError):
            next(propagator_blocks(lattice, [1], [0.0, 1.0], block_times))


def long_double_mode_sums(n, hopping, times):
    """X[:, d] = (1/(N+1)) sum_k x_k cos(d theta_k) as a direct O(N^2) sum.

    Every mode phase and cosine is formed in long double, with no FFT and
    no mirror symmetry; cos(d theta_k) is looked up at d k mod 2(N+1), an
    exact argument reduction.
    """
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    cosines = np.cos(np.arange(2 * (n + 1), dtype=ld) * pi / (n + 1))
    k = np.arange(1, n + 1)
    a = 2 * ld(hopping) * np.outer(np.array(times, dtype=ld), cosines[k])
    x = (np.cos(a) - np.sin(a)).T
    # a few hundred d at a time keeps the index table small at N = 4000
    blocks = [cosines[np.outer(np.arange(start, min(start + 256, n + 2)), k)
                      % (2 * (n + 1))] @ x for start in range(0, n + 2, 256)]
    return np.concatenate(blocks).T / (n + 1)


class TestModeSums:
    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18, reason="long double is not extended"
    )
    # N + 1 = 4001 is prime: pocketfft's Bluestein path
    @pytest.mark.parametrize("n", [29, 200, 1000, 4000])
    def test_match_long_double_cosine_sum(self, n):
        hopping, times = 1.0, np.array([0.37, 1.0, 2.9, 5.0])
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=hopping)
        (sums,) = _mode_sums(lattice, times, times.size)
        reference = long_double_mode_sums(n, hopping, times)
        assert sums.shape == (times.size, n + 2)
        assert float(np.abs(sums - reference).max()) <= 1e-14

    @pytest.mark.parametrize("n", [5, 29])
    def test_odd_chain_middle_mode_is_stationary(self, n):
        # v[l] = sin(l pi/2), exactly 1, 0, -1, 0, ..., is the mode at
        # theta = pi/2, of frequency omega, so sum_l R_l[j](t) v[l] = v[j] at
        # every J t; a phase 2 J t cos(pi/2) read as 2 J t 6e-17 moves it by
        # about 2e-10 at J t = 1e6
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=1.0)
        v = np.array([0.0, 1.0, 0.0, -1.0])[np.arange(1, n + 1) % 4]
        columns = propagator_block(lattice, np.arange(1, n + 1), [1e6])[:, 0]
        assert float(np.abs(v @ columns - v).max()) <= 1e-13


@pytest.mark.filterwarnings("error")  # refused before any overflowing operation
class TestOverflowRefusals:
    def test_band_edge_beyond_double_range_is_refused(self):
        # omega + 2 J cos(pi/5) = 1e308 + 1.29e308
        with pytest.raises(ValidationError, match="Omega_1 = omega"):
            mode_frequencies(LatticeSpec(num_cavities=4, omega=1e308, hopping=8e307))

    def test_band_within_double_range_despite_large_hopping(self):
        # 2 J alone overflows, but Omega = +-J (2 cos(pi/3)) stays finite
        lattice = LatticeSpec(num_cavities=2, omega=1e-300, hopping=1e308)
        assert np.isfinite(mode_frequencies(lattice)).all()

    @pytest.mark.parametrize("kernel", [complex_propagator, propagator_block])
    @pytest.mark.parametrize("t", [1e308, -1e308])
    def test_overflowing_mode_phase_is_refused(self, kernel, t):
        lattice = LatticeSpec(num_cavities=8, omega=1.0, hopping=1.0)
        with pytest.raises(ValidationError, match=r"2 \* hopping \* t is inf"):
            kernel(lattice, [2], [0.0, t])

    def test_largest_hopping_at_time_zero_is_the_identity(self):
        lattice = LatticeSpec(num_cavities=4, omega=1.0, hopping=1e308)
        g = complex_propagator(lattice, [1, 2, 3, 4], [0.0])[:, 0]
        assert np.array_equal(g, np.eye(4))


class TestLightCone:
    # one site in the middle of the longest chain: the window is [l - R, l + R]
    MIDDLE = MAX_CAVITIES // 2

    def radius(self, z):
        lattice = LatticeSpec(num_cavities=MAX_CAVITIES, omega=1.0, hopping=1.0)
        first, last = light_cone(lattice, [self.MIDDLE], z / 2.0)
        assert last - self.MIDDLE == self.MIDDLE - first
        return self.MIDDLE - first

    def test_bound_covers_the_bessel_tail(self):
        zs = np.geomspace(0.1, 2000.0, 60)
        radii = [self.radius(z) for z in zs]
        assert all(later >= earlier for earlier, later in zip(radii, radii[1:]))
        for z, radius in zip(zs, radii):
            assert radius > z
            # J t times 4 sum_{n >= R} |J_n(z)|, the image-sum error of one cut
            tail = z / 2.0 * 4.0 * np.abs(jv(np.arange(radius, radius + 400), z)).sum()
            bound = exp(_log_cut_bound(z, radius))
            assert tail <= bound <= 2.0**-61, z
            if radius - 1 > z:  # the least radius the bound allows
                assert exp(_log_cut_bound(z, radius - 1)) > 2.0**-61

    def test_zero_hopping_or_time_gives_the_pair(self):
        still = LatticeSpec(num_cavities=100, omega=1.0, hopping=0.0)
        assert light_cone(still, [45, 40], 1e300) == (40, 45)
        moving = LatticeSpec(num_cavities=100, omega=1.0, hopping=1.0)
        assert light_cone(moving, [45, 40], 0.0) == (40, 45)

    def test_chain_no_longer_than_the_phase_is_never_cut(self):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        assert light_cone(lattice, [15, 16], 14.5) == (1, 29)
        assert light_cone(lattice, [15, 16], 0.01) == (7, 24)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hopping", [0.0, 1e-300, 1e308])
    @pytest.mark.parametrize("t_max", [0.0, 5e-324, 1e-300, 1.0, 1e10, 1e308])
    def test_radius_raises_no_warning(self, hopping, t_max):
        lattice = LatticeSpec(num_cavities=MAX_CAVITIES, omega=1.0, hopping=hopping)
        first, last = light_cone(lattice, [7, 3], t_max)
        assert 1 <= first <= 3 and 7 <= last <= MAX_CAVITIES
