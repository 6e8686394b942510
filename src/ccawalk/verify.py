"""Cross-checks of the closed-form pipeline against the brute-force reference.

The decisive check evolves the NOON input exactly in the two-photon Fock
sector and compares the resulting coincidence matrix elementwise with the
closed-form expression at times drawn from the scenario's own time window;
the rest are structural invariants (unitarity, normalization, spectrum
additivity) with fixed tolerances.  Scenarios are shrunk to a small chain
first so the dense reference stays cheap.

``swap_weights`` corrupts the closed-form side by exchanging the two
superposition weights; it exists to demonstrate that the equivalence check
detects a wrong weight assignment (deviations of order 1 appear away from
theta = pi/4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import pi

import numpy as np

from .errors import checked_int, checked_real
from .lattice import LatticeSpec, decompose, propagator_matrix
from .observables import NoonInput, correlation_matrix, tpd_degree
from .oracle import (
    TwoPhotonBasis,
    build_two_photon_hamiltonian,
    eigh_by_parity,
    evolve,
    noon_state,
    oracle_correlation,
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


def shrink_scenario(
    lattice: LatticeSpec, noon: NoonInput, max_cavities: int = 8
) -> tuple[LatticeSpec, NoonInput]:
    """Shrink a scenario to at most ``max_cavities`` sites (at least 2).

    Keeps omega, hopping and theta; the site pair keeps its spacing when it
    fits (capped at N'-1 otherwise) and is re-centered on the short chain.
    """
    n = min(lattice.num_cavities, checked_int(max_cavities, "max_cavities", 2))
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
    max_cavities: int = 8,
) -> VerificationReport:
    """Run the equivalence and invariant suite on a shrunk scenario.

    The oracle, unitarity, normalization and eta checks sample t = 0 and 24
    uniform times in [0, t_max] (absolute units).
    """
    lattice, noon = shrink_scenario(lattice, noon, max_cavities)
    t_max = checked_real(t_max, "t_max", 0.0)
    rng = np.random.default_rng(checked_int(seed, "seed", 0))
    times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, t_max, size=24))))

    decomp = decompose(lattice)
    n = lattice.num_cavities
    hamiltonian = build_two_photon_hamiltonian(lattice)
    basis = TwoPhotonBasis(n)
    eigensystem = eigh_by_parity(hamiltonian, basis)
    initial = noon_state(basis, noon)
    # swapped weights (cos theta on r, sin theta on s) are theta -> pi/2 - theta
    closed_input = replace(noon, theta=pi / 2 - noon.theta) if swap_weights else noon

    oracle_dev = 0.0
    unitarity_dev = 0.0
    pair_sum_dev = 0.0
    eta_low = 0.0
    eta_high = 0.0
    identity = np.eye(n)
    for t in times:
        reference = oracle_correlation(evolve(initial, eigensystem, t), time=t)
        closed = correlation_matrix(decomp, closed_input, t).entries
        oracle_dev = max(oracle_dev, float(np.abs(closed - reference.entries).max()))

        g = propagator_matrix(decomp, t).entries
        unitarity_dev = max(
            unitarity_dev, float(np.abs(g @ g.conj().T - identity).max())
        )
        pair_sum_dev = max(pair_sum_dev, abs(float(closed.sum()) - 2.0))
        eta = tpd_degree(decomp, noon, t)
        eta_low = max(eta_low, -eta)
        eta_high = max(eta_high, eta - 1.0)

    identity_dev = float(
        np.abs(propagator_matrix(decomp, 0.0).entries - identity).max()
    )
    eta_zero_dev = abs(tpd_degree(decomp, noon, 0.0))

    group_dev = 0.0
    for _ in range(5):
        t1, t2 = rng.uniform(0.0, 100.0, size=2)
        g1 = propagator_matrix(decomp, t1).entries
        g2 = propagator_matrix(decomp, t2).entries
        g12 = propagator_matrix(decomp, t1 + t2).entries
        group_dev = max(group_dev, float(np.abs(g1 @ g2 - g12).max()))

    f = decomp.frequencies
    pair_sums = np.sort(np.add.outer(f, f)[np.triu_indices(n)])
    spectrum_dev = float(np.abs(eigensystem[0] - pair_sums).max())

    checks = (
        CheckResult("oracle-equivalence", oracle_dev, ORACLE_TOL),
        CheckResult("propagator-unitarity", unitarity_dev, UNITARITY_TOL),
        CheckResult("propagator-identity-t0", identity_dev, IDENTITY_TOL),
        CheckResult("propagator-group-law", group_dev, GROUP_TOL),
        CheckResult("pair-normalization", pair_sum_dev, PAIR_SUM_TOL),
        CheckResult("eta-range", max(eta_low, eta_high, 0.0), ETA_RANGE_TOL),
        CheckResult("eta-zero-at-start", eta_zero_dev, ETA_ZERO_TOL),
        CheckResult("spectrum-additivity", spectrum_dev, SPECTRUM_TOL),
    )
    return VerificationReport(lattice=lattice, noon=noon, t_max=t_max, checks=checks)
