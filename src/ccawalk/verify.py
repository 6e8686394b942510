"""Cross-checks of the closed-form pipeline against the brute-force reference.

The decisive check evolves the NOON input exactly in the two-photon Fock
sector and compares the resulting coincidence matrix elementwise with the
closed-form expression at times drawn from the scenario's own time window;
the rest are structural invariants (unitarity, normalization, spectrum
additivity) with fixed tolerances.  A scenario is checked at its own size
unless its two-photon sector would exceed the oracle's dense guard
(N > 99); only then is it shrunk.  Every propagator the checks need comes
from one ``lattice.propagator_block`` call over all sites and all check
times, every closed-form coincidence matrix from one ``correlation_matrix``
call, and every reference matrix from one ``evolve`` and one
``oracle_correlation`` call; the checks read slices of them.  A window
whose times or phases would overflow is refused before any check runs.

No propagator or spectrum check sees the carrier, so omega >> J costs no
digits: M(t)[j, l] = (-1)^floor((j - l)/2) R_l[j](t), the real orthogonal
exp(i omega t) D* G(t) D with D = diag(i^j), is tested, and the oracle's
offsets from its diagonal 2 omega (+-sigma_i, 0 per unpaired label) are
compared with the pair sums of the band 2 J cos(theta_k).

``swap_weights`` corrupts the closed-form side by exchanging the two
superposition weights, theta -> pi/2 - theta, which is the same input with
r and s exchanged; it exists to demonstrate that the equivalence check
detects a wrong weight assignment (deviations of order 1 appear away from
theta = pi/4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import pi

import numpy as np

from .errors import checked_int, checked_products, checked_real
from .lattice import LatticeSpec, band_frequencies, propagator_block
from .observables import NoonInput, correlation_matrix, tpd_family
from .oracle import (
    ORACLE_MAX_CAVITIES,
    TwoPhotonBasis,
    build_two_photon_hamiltonian,
    evolve,
    noon_state,
    oracle_correlation,
    solve_by_symmetry,
)

ORACLE_TOL = 1e-8
UNITARITY_TOL = 1e-10
IDENTITY_TOL = 1e-12
GROUP_TOL = 1e-9
PAIR_SUM_TOL = 1e-9
ETA_RANGE_TOL = 1e-9
ETA_ZERO_TOL = 1e-12
SPECTRUM_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    lattice: LatticeSpec
    noon: NoonInput
    t_max: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def format(self) -> str:
        lines = [
            "verification scenario: "
            f"N={self.lattice.num_cavities}, omega={self.lattice.omega}, "
            f"hopping={self.lattice.hopping}, r={self.noon.site_r}, "
            f"s={self.noon.site_s}, theta={self.noon.theta}, "
            f"t in [0, {self.t_max:.15g}]"
        ]
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(
                f"[{status}] {check.name:<24} max deviation {check.deviation:.3e} "
                f"(tolerance {check.tolerance:.0e})"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise |a - b|."""
    return float(np.abs(a - b).max())


def shrink_scenario(
    lattice: LatticeSpec, noon: NoonInput, max_cavities: int
) -> tuple[LatticeSpec, NoonInput]:
    """Shrink a scenario to at most ``max_cavities`` sites (at least 2).

    A chain that already fits is returned as it is, site pair included.  A
    shrunk chain keeps omega, hopping and theta; the site pair keeps its
    spacing when it fits (capped at N'-1 otherwise) and is re-centered on
    the short chain.
    """
    n = checked_int(max_cavities, "max_cavities (--max-n)", 2)
    if lattice.num_cavities <= n:
        return lattice, noon
    small = LatticeSpec(num_cavities=n, omega=lattice.omega, hopping=lattice.hopping)
    spacing = min(abs(noon.site_s - noon.site_r), n - 1)
    lo = max(1, (n - spacing + 1) // 2)
    hi = lo + spacing
    if noon.site_r < noon.site_s:
        r, s = lo, hi
    else:
        r, s = hi, lo
    return small, NoonInput(theta=noon.theta, site_r=r, site_s=s)


def run_verification(
    lattice: LatticeSpec,
    noon: NoonInput,
    t_max: float,
    seed: int = 20260810,
    swap_weights: bool = False,
    max_cavities: int = ORACLE_MAX_CAVITIES,
) -> VerificationReport:
    """Run the equivalence and invariant suite on the scenario, shrunk if need be.

    The oracle, unitarity, normalization and eta checks sample t = 0 and 24
    uniform times in [0, t_max] (absolute units); the group law composes
    five pairs of times drawn from the same window.  All of them come from
    one ``random.Random(seed)`` stream, samples first.

    Raises
    ------
    ValidationError
        If a product the checks form from the window is not finite, before
        any of them runs: the kernel forms 2J t up to the group law's 2 t_max,
        the oracle 2 omega t and sigma t (sigma < 4J) up to t_max.
    """
    lattice, noon = shrink_scenario(lattice, noon, max_cavities)
    t_max = checked_real(t_max, "t_max", 0.0)
    reach = 2.0 * t_max
    products = (
        ("2 * t_max", reach),
        ("omega * 2 * t_max", lattice.omega * reach),
        ("4 * hopping * t_max", 4.0 * lattice.hopping * t_max),
    )
    checked_products(f"verify window [0, {t_max}]", products)
    rng = random.Random(checked_int(seed, "seed", 0))
    samples = sorted(rng.uniform(0.0, t_max) for _ in range(24))
    times = np.array([0.0, *samples])
    group_times = []
    for _ in range(5):
        t1, t2 = rng.uniform(0.0, t_max), rng.uniform(0.0, t_max)
        group_times += [t1, t2, t1 + t2]

    n = lattice.num_cavities
    h = build_two_photon_hamiltonian(lattice)  # checks the dense guard first
    basis = TwoPhotonBasis(n)
    solution = solve_by_symmetry(h, basis)
    amplitudes = evolve(noon_state(basis, noon), solution, times)
    # m[i] is M(t_i): the k sample times from t = 0, then t1, t2, t1 + t2 per pair
    sites = np.arange(1, n + 1)
    real = propagator_block(lattice, sites, np.concatenate((times, group_times)))
    m = real.transpose(1, 2, 0) * np.where((sites[:, None] - sites) // 2 % 2, -1.0, 1.0)
    # swapped weights (cos theta on r, sin theta on s) are theta -> pi/2 - theta
    closed_input = replace(noon, theta=pi / 2 - noon.theta) if swap_weights else noon

    closed = correlation_matrix(lattice, closed_input, times)
    oracle_dev = _deviation(closed, oracle_correlation(basis, amplitudes))
    pair_sum_dev = max(abs(float(p.sum()) - 2.0) for p in closed)
    identity, k = np.eye(n), times.size
    unitarity_dev = _deviation(m[:k] @ m[:k].transpose(0, 2, 1), identity)
    identity_dev = _deviation(m[0], identity)
    group_dev = _deviation(m[k::3] @ m[k + 1 :: 3], m[k + 2 :: 3])

    # the sorted samples start at t = 0 and may repeat (all of them when t_max = 0)
    distinct = times[np.concatenate(([True], np.diff(times) > 0.0))]
    (eta,) = tpd_family(lattice, [noon], distinct)
    eta_range_dev = max(0.0, -float(eta.min()), float(eta.max()) - 1.0)
    eta_zero_dev = abs(float(eta[0]))

    band = band_frequencies(lattice)
    pair_sums = np.add.outer(band, band)[np.triu_indices(n)]
    spectrum_dev = _deviation(solution.offsets, np.sort(pair_sums))

    checks = (
        CheckResult("oracle-equivalence", oracle_dev, ORACLE_TOL),
        CheckResult("propagator-unitarity", unitarity_dev, UNITARITY_TOL),
        CheckResult("propagator-identity-t0", identity_dev, IDENTITY_TOL),
        CheckResult("propagator-group-law", group_dev, GROUP_TOL),
        CheckResult("pair-normalization", pair_sum_dev, PAIR_SUM_TOL),
        CheckResult("eta-range", eta_range_dev, ETA_RANGE_TOL),
        CheckResult("eta-zero-at-start", eta_zero_dev, ETA_ZERO_TOL),
        CheckResult("spectrum-additivity", spectrum_dev, SPECTRUM_TOL),
    )
    return VerificationReport(lattice=lattice, noon=noon, t_max=t_max, checks=checks)
