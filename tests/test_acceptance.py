"""Acceptance suite: every release criterion at its frozen tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and then asserts, so the suite doubles
as a human-readable report.
"""

import numpy as np
import pytest

from ccawalk import (
    LatticeSpec,
    NoonInput,
    TwoPhotonBasis,
    build_two_photon_hamiltonian,
    correlation_matrix,
    evolve,
    mode_frequencies,
    noon_state,
    oracle_correlation,
    solve_by_symmetry,
    theta_for_concurrence,
    tpd_family,
)
from ccawalk.cli import main
from conftest import dense_hamiltonian, diagonal_mass, full_propagator, tpd_degree

PI = np.pi
RANDOM_CASES = 200

# Frozen from the verified reference run: the measured diagonal coincidence
# mass of the 29-cavity snapshot (omega=J=1, theta=pi/4, omega*t=83.57) is
# 0.058556, confirmed against the brute-force reference to 2e-15; the bound
# is fixed at 1.5x that measurement.
DIAG_MASS_BOUND = 0.088

# Frozen from the reference run: strict pointwise ordering
# eta(C=1) >= eta(C=0.5) >= eta(C=0) holds at 87.01% of plateau samples
# (1393/1601, identical for both hopping regimes since eta depends only on
# J*t here); the plateau curves cross during oscillations, so the bound is
# set just below the measured fraction.  Median ordering is asserted
# strictly as the substantive enhancement claim.
ORDERING_FRACTION_MIN = 0.86

PLATEAU_START_OVER_J = 20.0


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def randomized_cases():
    """Shared randomized sample for the oracle-equivalence criteria."""
    rng = np.random.default_rng(20260810)
    cases = []
    for _ in range(RANDOM_CASES):
        n = int(rng.integers(2, 9))
        omega = float(rng.uniform(0.2, 3.0))
        hopping = float(rng.uniform(0.0, 2.0)) * omega
        lattice = LatticeSpec(num_cavities=n, omega=omega, hopping=hopping)
        r, s = (int(v) for v in rng.choice(np.arange(1, n + 1), 2, replace=False))
        noon = NoonInput(theta=float(rng.uniform(0.0, PI / 2)), site_r=r, site_s=s)
        t = float(rng.uniform(0.0, 50.0))

        closed = correlation_matrix(lattice, noon, [t])[0]
        basis = TwoPhotonBasis(n)
        solution = solve_by_symmetry(build_two_photon_hamiltonian(lattice), basis)
        (amplitudes,) = evolve(noon_state(basis, noon), solution, [t])
        reference = oracle_correlation(basis, amplitudes)

        g = full_propagator(lattice, t)
        unitarity = float(np.abs(g @ g.conj().T - np.eye(n)).max())
        cases.append(
            {
                "oracle_dev": float(np.abs(closed - reference).max()),
                "unitarity_dev": unitarity,
                "pair_sum_dev": abs(float(closed.sum()) - 2.0),
                "eta": tpd_degree(lattice, noon, t),
                "eta_zero": abs(tpd_degree(lattice, noon, 0.0)),
            }
        )
    return cases


def test_criterion_1_oracle_equivalence(randomized_cases):
    worst = max(case["oracle_dev"] for case in randomized_cases)
    report(
        1,
        "oracle-equivalence",
        worst < 1e-8,
        f"max |P_closed - P_oracle| = {worst:.3e} over {RANDOM_CASES} cases, tol 1e-8",
    )


def test_criterion_2_unitarity_and_normalization(randomized_cases):
    worst_unitarity = max(case["unitarity_dev"] for case in randomized_cases)
    worst_pair_sum = max(case["pair_sum_dev"] for case in randomized_cases)
    eta_ok = all(-1e-9 < case["eta"] < 1.0 + 1e-9 for case in randomized_cases)
    worst_eta_zero = max(case["eta_zero"] for case in randomized_cases)
    passed = (
        worst_unitarity < 1e-10
        and worst_pair_sum < 1e-9
        and eta_ok
        and worst_eta_zero < 1e-12
    )
    report(
        2,
        "unitarity-normalization",
        passed,
        f"unitarity {worst_unitarity:.3e} < 1e-10, |sum P - 2| {worst_pair_sum:.3e} "
        f"< 1e-9, eta in range: {eta_ok}, eta(0) {worst_eta_zero:.3e} < 1e-12",
    )


def test_criterion_3_snapshot_diagonal_mass():
    lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
    noon = NoonInput(theta=PI / 4, site_r=15, site_s=16)
    mass = diagonal_mass(correlation_matrix(lattice, noon, [83.57])[0])
    report(
        3,
        "snapshot-diagonal-mass",
        mass < DIAG_MASS_BOUND,
        f"sum P_nn / 2 = {mass:.6f} < {DIAG_MASS_BOUND} "
        "(bound frozen at 1.5x the verified 0.058556)",
    )


def _eta_family(hopping):
    lattice = LatticeSpec(num_cavities=29, omega=1.0, hopping=hopping)
    times = np.linspace(0.0, 100.0 / hopping, 2001)
    family = {}
    for c in (0.0, 0.5, 1.0):
        noon = NoonInput(
            theta=theta_for_concurrence(c), site_r=15, site_s=16
        )
        (family[c],) = tpd_family(lattice, [noon], times)
    return times, family


def test_criterion_4_strong_hopping_plateau_median():
    times, family = _eta_family(0.1)
    plateau = family[1.0][times >= PLATEAU_START_OVER_J / 0.1]
    median = float(np.median(plateau))
    report(
        4,
        "plateau-median",
        median > 0.9,
        f"median eta over t >= 20/J is {median:.4f} > 0.9 (J = 0.1 omega)",
    )


def test_criterion_5_entanglement_ordering():
    fractions = {}
    medians_ok = True
    for hopping in (0.01, 0.1):
        times, family = _eta_family(hopping)
        mask = times >= PLATEAU_START_OVER_J / hopping
        ordered = (family[1.0][mask] >= family[0.5][mask]) & (
            family[0.5][mask] >= family[0.0][mask]
        )
        fractions[hopping] = float(ordered.mean())
        medians = [float(np.median(family[c][mask])) for c in (0.0, 0.5, 1.0)]
        medians_ok = medians_ok and medians[0] < medians[1] < medians[2]
    passed = all(f >= ORDERING_FRACTION_MIN for f in fractions.values()) and medians_ok
    report(
        5,
        "entanglement-ordering",
        passed,
        f"ordered fraction J=0.01: {fractions[0.01]:.4f}, J=0.1: {fractions[0.1]:.4f} "
        f"(>= {ORDERING_FRACTION_MIN}, measured 0.8701); medians strictly "
        f"ordered: {medians_ok}",
    )


def test_criterion_6_transition_speed():
    crossings = {}
    for hopping in (0.01, 0.1):
        times, family = _eta_family(hopping)
        above = np.nonzero(family[1.0] >= 0.5)[0]
        assert above.size > 0
        crossings[hopping] = float(times[above[0]])
    passed = crossings[0.1] < crossings[0.01]
    report(
        6,
        "transition-speed",
        passed,
        f"first eta >= 0.5 at t = {crossings[0.1]:g} (J=0.1) vs "
        f"t = {crossings[0.01]:g} (J=0.01), absolute time",
    )


def test_criterion_7_free_boson_spectrum():
    worst = 0.0
    for n in range(2, 9):
        lattice = LatticeSpec(num_cavities=n, omega=1.1, hopping=0.7)
        freqs = mode_frequencies(lattice)
        expected = np.sort(
            [freqs[i] + freqs[j] for i in range(n) for j in range(i, n)]
        )
        spectrum = np.sort(
            np.linalg.eigvalsh(
                dense_hamiltonian(build_two_photon_hamiltonian(lattice))
            )
        )
        worst = max(worst, float(np.abs(spectrum - expected).max()))
    report(
        7,
        "free-boson-spectrum",
        worst < 1e-10,
        f"max |eig(H2) - (Omega_k + Omega_k')| = {worst:.3e} for N = 2..8, tol 1e-10",
    )


def test_criterion_8_determinism(tmp_path, scenarios_dir):
    identical = True
    detail = []
    for name, command in (
        ("fig1.json", "correlation"),
        ("fig1.json", "sweep"),
        ("fig2.json", "tpd"),
        ("fig3.json", "tpd"),
        ("fig3.json", "spectrum"),
    ):
        first = tmp_path / f"{command}-{name}-a.csv"
        second = tmp_path / f"{command}-{name}-b.csv"
        cfg = str(scenarios_dir / name)
        assert main([command, "--config", cfg, "--out", str(first)]) == 0
        assert main([command, "--config", cfg, "--out", str(second)]) == 0
        same = first.read_bytes() == second.read_bytes()
        identical = identical and same
        detail.append(f"{command}/{name}: {'ok' if same else 'DIFFERS'}")
    report(8, "determinism", identical, "; ".join(detail))
