import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from ccawalk import (
    LatticeSpec,
    NoonInput,
    TwoPhotonBasis,
    ValidationError,
    build_two_photon_hamiltonian,
    concurrence,
    correlation_matrix,
    evolve,
    mode_frequencies,
    noon_state,
    oracle_correlation,
    propagator_block,
    solve_by_symmetry,
    theta_for_concurrence,
    tpd_family,
)
from ccawalk.lattice import MAX_CAVITIES, light_cone
from ccawalk.observables import _BLOCK_ELEMENTS, _MIN_BLOCK_TIMES
from conftest import complex_propagator, diagonal_mass, sine_transform, tpd_degree

PI = np.pi


def oracle_correlation_at(lattice, noon, t):
    """Brute-force coincidence matrix, bypassing the spectral path entirely."""
    basis = TwoPhotonBasis(lattice.num_cavities)
    solution = solve_by_symmetry(build_two_photon_hamiltonian(lattice), basis)
    (amplitudes,) = evolve(noon_state(basis, noon), solution, [t])
    return oracle_correlation(basis, amplitudes)


class TestConcurrence:
    def test_endpoints_vanish(self):
        assert concurrence(NoonInput(theta=0.0, site_r=1, site_s=2)) == 0.0
        assert concurrence(NoonInput(theta=PI / 2, site_r=1, site_s=2)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_maximal_at_quarter_pi(self):
        assert concurrence(NoonInput(theta=PI / 4, site_r=1, site_s=2)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_half_at_pi_twelfths(self):
        assert concurrence(NoonInput(theta=PI / 12, site_r=1, site_s=2)) == pytest.approx(
            0.5, abs=1e-15
        )


class TestThetaForConcurrence:
    def test_unit_concurrence_both_branches(self):
        assert theta_for_concurrence(1.0, "low") == pytest.approx(PI / 4, abs=1e-15)
        assert theta_for_concurrence(1.0, "high") == pytest.approx(PI / 4, abs=1e-15)

    def test_zero_concurrence(self):
        assert theta_for_concurrence(0.0, "low") == 0.0
        assert theta_for_concurrence(0.0, "high") == pytest.approx(PI / 2, abs=1e-15)

    def test_half_concurrence_low(self):
        assert theta_for_concurrence(0.5, "low") == pytest.approx(PI / 12, abs=1e-15)

    @pytest.mark.parametrize("c", [0.0, 0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("branch", ["low", "high"])
    def test_round_trip(self, c, branch):
        theta = theta_for_concurrence(c, branch)
        noon = NoonInput(theta=theta, site_r=1, site_s=2)
        assert abs(concurrence(noon) - c) < 1e-14

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            theta_for_concurrence(1.2)
        with pytest.raises(ValidationError):
            theta_for_concurrence(-0.1)
        with pytest.raises(ValidationError):
            theta_for_concurrence(0.5, "middle")


class TestNoonInput:
    def test_rejects_theta_out_of_range(self):
        with pytest.raises(ValidationError):
            NoonInput(theta=-0.1, site_r=1, site_s=2)
        with pytest.raises(ValidationError):
            NoonInput(theta=PI / 2 + 0.1, site_r=1, site_s=2)

    def test_rejects_equal_sites(self):
        with pytest.raises(ValidationError):
            NoonInput(theta=0.3, site_r=4, site_s=4)

    def test_rejects_nonpositive_site(self):
        with pytest.raises(ValidationError):
            NoonInput(theta=0.3, site_r=0, site_s=2)


class TestCorrelationMatrix:
    def test_initial_state_occupies_only_input_sites(self):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        theta = 0.31
        noon = NoonInput(theta=theta, site_r=15, site_s=16)
        p = correlation_matrix(lattice, noon, [0.0])[0]
        expected = np.zeros((29, 29))
        expected[14, 14] = 2.0 * np.sin(theta) ** 2
        expected[15, 15] = 2.0 * np.cos(theta) ** 2
        assert np.abs(p - expected).max() < 1e-12

    def test_exact_symmetry(self):
        lattice = LatticeSpec(num_cavities=12, omega=1.0, hopping=0.9)
        noon = NoonInput(theta=0.5, site_r=3, site_s=8)
        p = correlation_matrix(lattice, noon, [7.2])[0]
        assert np.array_equal(p, p.T)

    @pytest.mark.parametrize("n", [2, 3, 8, 29, 50])
    @pytest.mark.parametrize(
        "hopping, times", [(0.7, [0.0, 0.7, -0.7, 83.57]), (0.01, [1e4, -1e4])]
    )
    def test_real_square_matches_complex_columns(self, n, hopping, times):
        # site pairs of both parities, r > s and the chain ends: the sign
        # (-1)^((r+s) m) on R_s must reproduce the site phases of G
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=hopping)
        sites = range(1, n + 1)
        pairs = {(1, n), (n, 1), (1, 2), (1, 3), (n, n - 2), (n // 2 + 1, n // 2)}
        pairs = sorted((r, s) for r, s in pairs if r != s and r in sites and s in sites)
        assert len({(r + s) % 2 for r, s in pairs}) == (1 if n == 2 else 2)
        for r, s in pairs:
            g_r, g_s = complex_propagator(lattice, [r, s], times)
            for theta in (0.0, 0.3927, PI / 4, 1.2, PI / 2):
                p = correlation_matrix(lattice, NoonInput(theta, r, s), times)
                amplitude = np.sin(theta) * (g_r[:, :, None] * g_r[:, None, :]) + (
                    np.cos(theta) * (g_s[:, :, None] * g_s[:, None, :])
                )
                expected = 2.0 * np.abs(amplitude) ** 2
                assert np.abs(p - expected).max() <= 1e-14, (r, s, theta)
                assert np.array_equal(p, p.transpose(0, 2, 1)), (r, s, theta)

    @pytest.mark.parametrize("t", [0.0, 1.7, 23.9, 83.57])
    def test_pair_normalization(self, t):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        noon = NoonInput(theta=0.9, site_r=15, site_s=16)
        p = correlation_matrix(lattice, noon, [t])[0]
        assert abs(p.sum() - 2.0) < 1e-9

    def test_theta_and_site_swap_covariance(self):
        lattice = LatticeSpec(num_cavities=10, omega=1.0, hopping=0.6)
        theta, t = 0.4, 9.3
        p1 = correlation_matrix(
            lattice, NoonInput(theta=theta, site_r=3, site_s=7), [t]
        )[0]
        p2 = correlation_matrix(
            lattice, NoonInput(theta=PI / 2 - theta, site_r=7, site_s=3), [t]
        )[0]
        assert np.abs(p1 - p2).max() < 1e-12

    def test_reflection_covariance(self):
        n = 11
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=0.8)
        theta, t = 1.1, 6.6
        p = correlation_matrix(
            lattice, NoonInput(theta=theta, site_r=2, site_s=5), [t]
        )[0]
        mirrored = correlation_matrix(
            lattice, NoonInput(theta=theta, site_r=n + 1 - 2, site_s=n + 1 - 5), [t]
        )[0]
        assert np.abs(p - np.flip(mirrored)).max() < 1e-12

    def test_frozen_when_hopping_is_zero(self):
        lattice = LatticeSpec(num_cavities=8, omega=1.3, hopping=0.0)
        noon = NoonInput(theta=0.7, site_r=2, site_s=6)
        p0 = correlation_matrix(lattice, noon, [0.0])[0]
        for t in (0.9, 13.3, 400.0):
            assert np.abs(correlation_matrix(lattice, noon, [t])[0] - p0).max() < 1e-12

    def test_snapshot_diagonal_nearly_empty(self):
        # long-time 29-cavity snapshot at maximal entanglement: the photons
        # almost never coincide (bound frozen from the verified pipeline)
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        noon = NoonInput(theta=PI / 4, site_r=15, site_s=16)
        p = correlation_matrix(lattice, noon, [83.57])[0]
        assert diagonal_mass(p) < 0.088

    def test_matches_oracle_small_chains(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            lattice = LatticeSpec(
                num_cavities=n,
                omega=float(rng.uniform(0.2, 3.0)),
                hopping=float(rng.uniform(0.0, 2.0)),
            )
            r, s = (int(v) for v in rng.choice(np.arange(1, n + 1), 2, replace=False))
            noon = NoonInput(theta=float(rng.uniform(0, PI / 2)), site_r=r, site_s=s)
            t = float(rng.uniform(0.0, 50.0))
            closed = correlation_matrix(lattice, noon, [t])[0]
            assert np.abs(closed - oracle_correlation_at(lattice, noon, t)).max() < 1e-8

    def test_rejects_site_beyond_chain(self):
        lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=1.0)
        with pytest.raises(ValidationError):
            correlation_matrix(lattice, NoonInput(theta=0.3, site_r=1, site_s=9), [1.0])

    @pytest.mark.parametrize("n", [8, 29, 50])
    def test_time_array_is_bitwise_one_time_calls(self, n):
        # verify's shape: t = 0 then 24 sorted samples, one of them repeated
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=0.7)
        noon = NoonInput(theta=0.3927, site_r=n // 2, site_s=n // 2 + 1)
        rng = np.random.default_rng(n)
        samples = np.sort(rng.uniform(0.0, 83.57, size=24))
        samples[5] = samples[4]
        times = np.concatenate(([0.0], samples))
        batch = correlation_matrix(lattice, noon, times)
        assert batch.shape == (25, n, n)
        assert not batch.flags.writeable
        singles = np.stack([correlation_matrix(lattice, noon, [t])[0] for t in times])
        assert batch.tobytes() == singles.tobytes()


class TestTpdDegree:
    def test_zero_at_start_for_any_input(self):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=0.1)
        for theta in (0.0, PI / 12, PI / 4, PI / 2):
            noon = NoonInput(theta=theta, site_r=15, site_s=16)
            assert abs(tpd_degree(lattice, noon, 0.0)) < 1e-12

    @pytest.mark.parametrize("t", [0.2, PI / 4, 1.9])
    def test_two_site_closed_form(self, t):
        # two neighbouring cavities, omega = hopping = 1, theta = pi/4:
        # eta(t) = 1 - cos^2(2t), derived by hand from the 2-site propagator
        lattice = LatticeSpec(num_cavities=2, omega=1.0, hopping=1.0)
        noon = NoonInput(theta=PI / 4, site_r=1, site_s=2)
        eta = tpd_degree(lattice, noon, t)
        assert eta == pytest.approx(1.0 - np.cos(2 * t) ** 2, abs=1e-12)
        lattice = LatticeSpec(num_cavities=2, omega=1.0, hopping=1.0)
        oracle_eta = 1.0 - oracle_correlation_at(lattice, noon, t).trace() / 2.0
        assert eta == pytest.approx(oracle_eta, abs=1e-10)

    def test_complete_delocalization_at_quarter_period(self):
        lattice = LatticeSpec(num_cavities=2, omega=1.0, hopping=1.0)
        noon = NoonInput(theta=PI / 4, site_r=1, site_s=2)
        assert tpd_degree(lattice, noon, PI / 4) == pytest.approx(1.0, abs=1e-12)

    def test_strong_hopping_plateau_median(self):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=0.1)
        noon = NoonInput(theta=PI / 4, site_r=15, site_s=16)
        times = np.linspace(0.0, 100.0 / 0.1, 2001)
        (eta,) = tpd_family(lattice, [noon], times)
        plateau = eta[times >= 20.0 / 0.1]
        assert np.median(plateau) > 0.9


class TestTpdSeries:
    def test_single_point_grid(self):
        lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=1.0)
        noon = NoonInput(theta=0.6, site_r=2, site_s=3)
        eta = tpd_family(lattice, [noon], [0.0])
        assert eta.shape == (1, 1)
        assert abs(eta[0, 0]) < 1e-12

    def test_consistent_with_pointwise_degree(self):
        lattice = LatticeSpec(num_cavities=9, omega=1.0, hopping=0.7)
        noon = NoonInput(theta=0.8, site_r=4, site_s=6)
        times = np.linspace(0.0, 30.0, 50)
        (series,) = tpd_family(lattice, [noon], times)
        for t, eta in zip(times, series):
            assert abs(eta - tpd_degree(lattice, noon, t)) < 1e-10

    def test_consistent_with_correlation_diagonal(self):
        lattice = LatticeSpec(num_cavities=9, omega=1.0, hopping=0.7)
        noon = NoonInput(theta=0.8, site_r=4, site_s=6)
        times = [0.0, 3.3, 11.8]
        (series,) = tpd_family(lattice, [noon], times)
        for t, eta in zip(times, series):
            diag_sum = correlation_matrix(lattice, noon, [t])[0].trace()
            assert abs(eta - (1.0 - diag_sum / 2.0)) < 1e-10

    def test_site_swap_invariance_at_maximal_entanglement(self):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
        times = np.linspace(0.0, 50.0, 101)
        (forward,) = tpd_family(lattice, [NoonInput(PI / 4, 14, 16)], times)
        (swapped,) = tpd_family(lattice, [NoonInput(PI / 4, 16, 14)], times)
        assert np.abs(forward - swapped).max() < 1e-12

    def test_range_stays_physical(self):
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=0.01)
        noon = NoonInput(theta=PI / 4, site_r=15, site_s=16)
        eta = tpd_family(lattice, [noon], np.linspace(0.0, 10000.0, 2001))
        assert eta.min() > -1e-9
        assert eta.max() < 1.0 + 1e-9

    @pytest.mark.parametrize(
        "grid",
        [[], [1.0, 1.0], [2.0, 1.0], [-1.0, 0.0], [0.0, float("nan")]],
    )
    def test_rejects_bad_grids(self, grid):
        lattice = LatticeSpec(num_cavities=4, omega=1.0, hopping=1.0)
        noon = NoonInput(theta=0.4, site_r=1, site_s=3)
        with pytest.raises(ValidationError):
            tpd_family(lattice, [noon], grid)


class TestTpdFamily:
    @pytest.mark.parametrize("n", [2, 9, 29])
    def test_matches_correlation_trace(self, n):
        rng = np.random.default_rng(n)
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=0.7)
        r, s = (int(v) for v in rng.choice(np.arange(1, n + 1), 2, replace=False))
        thetas = [0.0, PI / 4, PI / 2, *rng.uniform(0.0, PI / 2, size=2)]
        noons = [NoonInput(theta=float(theta), site_r=r, site_s=s) for theta in thetas]
        times = np.sort(rng.uniform(0.0, 100.0, size=12))
        for noon, series in zip(noons, tpd_family(lattice, noons, times)):
            for t, eta in zip(times, series):
                trace = correlation_matrix(lattice, noon, [t])[0].trace()
                assert abs(eta - (1.0 - trace / 2.0)) <= 1e-13

    # 12001 times at N=200 span several evaluation blocks
    @pytest.mark.parametrize("n, steps", [(29, 9001), (200, 12001)])
    def test_rows_bitwise_equal_single_angle_series(self, n, steps):
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=0.1)
        thetas = [0.0, PI / 12, 0.3, PI / 4, 1.2, PI / 2]
        noons = [NoonInput(theta=theta, site_r=15, site_s=16) for theta in thetas]
        times = np.linspace(0.0, 1000.0, steps)
        family = tpd_family(lattice, noons, times)
        assert family.shape == (len(noons), steps)
        for noon, row in zip(noons, family):
            (single,) = tpd_family(lattice, [noon], times)
            assert row.tobytes() == single.tobytes()

    @pytest.mark.parametrize("n", [29, 1000])
    def test_pieces_concatenate_bitwise(self, n):
        # cuts fall inside evaluation blocks, so pieces and blocks misalign
        step = max(_MIN_BLOCK_TIMES, _BLOCK_ELEMENTS // n)
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=0.1)
        noons = [NoonInput(theta=theta, site_r=3, site_s=n - 4)
                 for theta in (0.0, 0.3, PI / 4, 1.2)]
        times = np.linspace(0.0, 1000.0, 5 * step + 3)
        cuts = [0, step // 2, step // 2 + 1, 2 * step + 3, 4 * step - 1, times.size]
        whole = tpd_family(lattice, noons, times)
        pieces = [tpd_family(lattice, noons, times[lo:hi])
                  for lo, hi in zip(cuts, cuts[1:])]
        for k, series in enumerate(whole):
            joined = np.concatenate([piece[k] for piece in pieces])
            assert joined.tobytes() == series.tobytes()

    @pytest.mark.parametrize(
        "theta", [0.0, 0.0622, 0.4405, PI / 4, 0.8453, 1.4901, PI / 2]
    )
    def test_exactly_zero_at_start(self, theta):
        # includes angles where sin^2 + cos^2 rounds away from 1
        lattice = LatticeSpec(num_cavities=9, omega=1.0, hopping=0.7)
        noon = NoonInput(theta=theta, site_r=4, site_s=6)
        (series,) = tpd_family(lattice, [noon], [0.0, 2.5])
        for eta in (series[0], tpd_degree(lattice, noon, 0.0)):
            assert eta == 0.0 and not np.signbit(eta)

    def test_degree_is_even_in_time(self):
        # G(-t) = conj(G(t)), so eta is even in t; tpd_family takes t >= 0
        # only, and correlation_matrix gives eta at -t as 1 - trace(P) / 2
        lattice = LatticeSpec(num_cavities=9, omega=1.0, hopping=0.7)
        noon = NoonInput(theta=0.4, site_r=4, site_s=6)
        for t in (0.7, 5.3, 41.0):
            (p,) = correlation_matrix(lattice, noon, [-t])
            assert tpd_degree(lattice, noon, t) == pytest.approx(
                1.0 - diagonal_mass(p), abs=1e-14
            )

    def test_results_are_read_only(self):
        lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=1.0)
        noons = [NoonInput(theta=theta, site_r=2, site_s=3) for theta in (0.2, 0.9)]
        eta = tpd_family(lattice, noons, [0.0, 1.0])
        for series in eta:
            with pytest.raises(ValueError):
                series[0] = 1.0
        with pytest.raises(ValueError):
            eta[:, 1] = 1.0

    def test_rejects_empty_family(self):
        lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=1.0)
        with pytest.raises(ValidationError):
            tpd_family(lattice, [], [0.0, 1.0])

    @pytest.mark.parametrize("second_pair", [(2, 1), (1, 3), (3, 2)])
    def test_rejects_mixed_site_pairs(self, second_pair):
        lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=1.0)
        noons = [
            NoonInput(theta=0.3, site_r=1, site_s=2),
            NoonInput(theta=0.5, site_r=second_pair[0], site_s=second_pair[1]),
        ]
        with pytest.raises(ValidationError):
            tpd_family(lattice, noons, [0.0, 1.0])

    @pytest.mark.parametrize("theta", [-0.1, PI / 2 + 1e-9, float("nan")])
    def test_rejects_out_of_range_theta(self, theta):
        lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=1.0)
        with pytest.raises(ValidationError):
            tpd_family(
                lattice,
                [
                    NoonInput(theta=0.3, site_r=1, site_s=2),
                    NoonInput(theta=theta, site_r=1, site_s=2),
                ],
                [0.0, 1.0],
            )

    def test_rejects_site_beyond_chain(self):
        lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=1.0)
        with pytest.raises(ValidationError):
            tpd_family(lattice, [NoonInput(theta=0.3, site_r=1, site_s=6)], [0.0, 1.0])

    def test_site_beyond_a_windowed_chain_names_the_chain(self):
        # J t_max = 1 would cut a short window around the pair
        lattice = LatticeSpec(num_cavities=1000, omega=1.0, hopping=0.1)
        noon = NoonInput(theta=0.3, site_r=5, site_s=1001)
        with pytest.raises(ValidationError, match=r"must lie in \[1, 1000\], got 1001"):
            tpd_family(lattice, [noon], [0.0, 10.0])

    def test_zero_hopping_runs_on_the_pair(self):
        lattice = LatticeSpec(num_cavities=MAX_CAVITIES, omega=1.0, hopping=0.0)
        assert light_cone(lattice, [2000, 2003], 1e6) == (2000, 2003)
        noons = [NoonInput(theta=theta, site_r=2003, site_s=2000) for theta in (0.3, 1.2)]
        eta = tpd_family(lattice, noons, [0.0, 1.0, 1e6])
        assert np.abs(eta).max() <= 1e-15


class TestNoSharedWorkspace:
    """Results never alias a kernel buffer, so a later call cannot change them."""

    LATTICE = LatticeSpec(num_cavities=50, omega=1.0, hopping=0.3)
    NOONS = [NoonInput(theta=theta, site_r=2, site_s=40) for theta in (0.3, 1.1)]
    # the result arrays of each kernel entry point, for an input list and a grid
    RESULTS = {
        "propagator_block": lambda lat, noons, t: [propagator_block(lat, [2, 40], t)],
        "propagator": lambda lat, noons, t: [complex_propagator(lat, [2, 40], t)],
        "correlation_matrix": lambda lat, noons, t: [
            correlation_matrix(lat, noons[0], t)
        ],
        "tpd_family": lambda lat, noons, t: [tpd_family(lat, noons, t)],
    }

    @pytest.mark.parametrize("name", RESULTS)
    def test_second_call_leaves_the_first_unchanged(self, name):
        # equal sizes, so a reused buffer would have the same shape
        first = self.RESULTS[name](self.LATTICE, self.NOONS, np.linspace(0.0, 60.0, 40))
        kept = [array.tobytes() for array in first]
        second = self.RESULTS[name](
            self.LATTICE, self.NOONS[::-1], np.linspace(0.5, 9.0, 40)
        )
        assert [array.tobytes() for array in first] == kept
        for a in first:
            assert not any(np.shares_memory(a, b) for b in second)

    def test_results_share_no_memory(self):
        arrays = [
            array
            for times in (np.linspace(0.0, 60.0, 400), np.linspace(0.5, 9.0, 400))
            for results in self.RESULTS.values()
            for array in results(self.LATTICE, self.NOONS, times)
        ]
        for i, a in enumerate(arrays):
            for j in range(i):
                assert not np.shares_memory(a, arrays[j]), (i, j)

    # N=1000 blocks 16 times at a time: 5 * 16 + 3 times end on a short block
    @pytest.mark.parametrize("n", [29, 1000])
    def test_short_last_block_and_zero_row_equal_one_call_per_piece(self, n):
        step = max(_MIN_BLOCK_TIMES, _BLOCK_ELEMENTS // n)
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=0.1)
        noons = [NoonInput(theta=theta, site_r=n - 2, site_s=4) for theta in (0.2, 1.4)]
        times = np.linspace(0.0, 500.0, 5 * step + 3)
        whole = tpd_family(lattice, noons, times)
        for start in range(0, times.size, step):
            piece = tpd_family(lattice, noons, times[start : start + step])
            for series, part in zip(whole, piece):
                assert series[start : start + step].tobytes() == part.tobytes()


def dense_gram_eta(lattice, noons, times):
    """Eta from complex dense-transform columns in the Gram form, per angle."""
    s = sine_transform(lattice)
    r, q = noons[0].site_r - 1, noons[0].site_s - 1
    phases = np.exp(-1j * np.outer(times, mode_frequencies(lattice)))
    a = ((s[r] * phases) @ s) ** 2
    b = ((s[q] * phases) @ s) ** 2
    rows = []
    for noon in noons:
        w_r, w_s = np.sin(noon.theta), np.cos(noon.theta)
        rows.append(
            1.0
            - w_r**2 * np.sum(np.abs(a) ** 2, axis=1)
            - w_s**2 * np.sum(np.abs(b) ** 2, axis=1)
            - 2.0 * w_r * w_s * np.sum((a * b.conj()).real, axis=1)
        )
    return np.array(rows)


def long_double_eta(n, hopping, site_r, site_s, thetas, times):
    """Eta in 80-bit long double from the dense sine transform, carrier dropped."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    j = np.arange(1, n + 1, dtype=ld)
    s = np.sqrt(ld(2) / (n + 1)) * np.sin(np.outer(j, j) * pi / (n + 1))
    a = 2 * ld(hopping) * np.outer(np.array(times, dtype=ld), np.cos(j * pi / (n + 1)))
    squares = []
    for site in (site_r, site_s):
        re = (np.cos(a) * s[site - 1]) @ s
        im = -(np.sin(a) * s[site - 1]) @ s
        squares.append((re * re - im * im, 2 * re * im))
    (ar, ai), (br, bi) = squares
    rows = []
    for theta in thetas:
        w_r, w_s = ld(np.sin(theta)), ld(np.cos(theta))
        rows.append(
            1 - np.sum((w_r * ar + w_s * br) ** 2 + (w_r * ai + w_s * bi) ** 2, axis=1)
        )
    return np.array(rows)


class TestTpdKernelAccuracy:
    THETAS = [0.0, 0.2617993877991494, 0.7853981633974483]

    @pytest.mark.parametrize("n", [29, 200, 1000])
    def test_family_matches_complex_gram_form(self, n):
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=1.0)
        times = np.linspace(0.0, 83.57, 41)
        for r, s in [(n // 2, n // 2 + 1), (2, n - 1)]:
            noons = [
                NoonInput(theta=theta, site_r=r, site_s=s) for theta in self.THETAS
            ]
            eta = tpd_family(lattice, noons, times)
            assert np.abs(eta - dense_gram_eta(lattice, noons, times)).max() <= 1e-13

    def test_largest_chain(self):
        lattice = LatticeSpec(num_cavities=MAX_CAVITIES, omega=1.0, hopping=1.0)
        mid = MAX_CAVITIES // 2
        noon = NoonInput(theta=PI / 4, site_r=mid, site_s=mid + 1)
        (eta,) = tpd_family(lattice, [noon], np.linspace(0.0, 2000.0, 51))
        assert eta[0] == 0.0
        assert eta.min() >= -1e-12
        assert eta.max() <= 1.0 + 1e-12

    def test_long_chain_window_matches_tridiagonal_eigensolver(self):
        # the shape of the benchmark's long chain: N = 1000, a pair near one
        # end, J t_max = 100, against the gate's reference from the
        # eigenpairs of the tridiagonal Hamiltonian
        lattice = LatticeSpec(num_cavities=1000, omega=1.0, hopping=0.1)
        times = np.linspace(0.0, 1000.0, 1001)
        first, last = light_cone(lattice, [961, 979], times[-1])
        assert last - first + 1 < lattice.num_cavities
        noons = [NoonInput(theta=theta, site_r=961, site_s=979) for theta in self.THETAS]
        eta = tpd_family(lattice, noons, times)
        energies, modes = eigh_tridiagonal(np.full(1000, 1.0), np.full(999, 0.1))
        picks = np.unique(np.r_[0, 1000, np.random.default_rng(3).choice(1001, 62)])
        phases = np.exp(-1j * np.outer(times[picks], energies))
        g_r, g_s = ((phases * modes[site - 1]) @ modes.T for site in (961, 979))
        for noon, row in zip(noons, eta):
            diag = np.sin(noon.theta) * g_r**2 + np.cos(noon.theta) * g_s**2
            reference = 1.0 - np.sum(np.abs(diag) ** 2, axis=1)
            assert np.abs(row[picks] - reference).max() <= 1e-12

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18, reason="long double is not extended"
    )
    def test_fig2_matches_long_double_reference(self):
        # fig2: J = 0.01 up to J t = 100, so the mode phases reach 200 rad
        lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=0.01)
        times = np.linspace(0.0, 10000.0, 21)
        noons = [NoonInput(theta=theta, site_r=15, site_s=16) for theta in self.THETAS]
        eta = tpd_family(lattice, noons, times)
        reference = long_double_eta(29, 0.01, 15, 16, self.THETAS, times)
        assert float(np.abs(eta - reference).max()) <= 1e-14


@pytest.mark.filterwarnings("error")  # refused before any overflowing operation
class TestOverflowRefusals:
    LATTICE = LatticeSpec(num_cavities=8, omega=1.0, hopping=1.0)
    NOON = NoonInput(theta=0.3, site_r=2, site_s=3)

    def test_tpd_family(self):
        with pytest.raises(ValidationError, match=r"2 \* hopping \* t is inf"):
            tpd_family(self.LATTICE, [self.NOON], [0.0, 1e308])

    @pytest.mark.parametrize("hopping, t", [(1e308, 1e10), (1.0, 1e308)])
    def test_tpd_family_on_a_long_chain(self, hopping, t):
        # a window is cut only from a finite phase, so the kernel refuses
        lattice = LatticeSpec(num_cavities=MAX_CAVITIES, omega=1.0, hopping=hopping)
        with pytest.raises(ValidationError, match=r"2 \* hopping \* t is inf"):
            tpd_family(lattice, [NoonInput(theta=0.3, site_r=1, site_s=2)], [0.0, t])

    def test_correlation_matrix(self):
        with pytest.raises(ValidationError, match=r"2 \* hopping \* t is inf"):
            correlation_matrix(self.LATTICE, self.NOON, [1e308])
