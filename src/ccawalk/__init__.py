"""Two-photon transport and delocalization in a coupled-cavity array.

Closed-form spectral dynamics for a uniform open chain of coupled cavities,
NOON-type two-photon inputs, coincidence and delocalization observables,
and an independent brute-force Fock-sector reference to verify it all
against.  See the ``ccawalk`` CLI for scenario runs and data export.
"""

from .errors import ValidationError
from .lattice import LatticeSpec, mode_frequencies, propagator_block
from .observables import (
    NoonInput,
    concurrence,
    correlation_matrix,
    theta_for_concurrence,
    tpd_family,
)
from .oracle import (
    TwoPhotonBasis,
    build_two_photon_hamiltonian,
    evolve,
    noon_state,
    oracle_correlation,
    solve_by_symmetry,
)

__version__ = "0.1.0"

__all__ = [
    "LatticeSpec",
    "mode_frequencies",
    "propagator_block",
    "NoonInput",
    "concurrence",
    "theta_for_concurrence",
    "correlation_matrix",
    "tpd_family",
    "TwoPhotonBasis",
    "noon_state",
    "build_two_photon_hamiltonian",
    "solve_by_symmetry",
    "evolve",
    "oracle_correlation",
    "ValidationError",
    "__version__",
]
