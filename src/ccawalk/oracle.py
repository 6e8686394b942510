"""Brute-force two-photon reference, independent of the spectral fast path.

Builds the full two-photon sector of the chain Hamiltonian in the symmetric
pair basis, evolves states exactly by dense eigendecomposition, and reads
the coincidence matrix straight off the state amplitudes.  Nothing here
touches the sine-transform machinery, so agreement between this module and
the closed-form path is a genuine cross-check.

Basis convention: label (m, n) with m <= n is the normalized state with one
photon at m and one at n (m < n), or two photons at m (m == n).  The
bosonic sqrt(2) enhancement therefore lives in the Hamiltonian matrix
elements and in the factor 2 on diagonal coincidences, never in the basis
vectors themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import ValidationError, checked_int, checked_real
from .lattice import LatticeSpec
from .observables import CorrelationMatrix, NoonInput

MAX_DIMENSION = 5000  # dense D x D storage guard

NORM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TwoPhotonBasis:
    """Ordered symmetric pair basis (m, n), 1 <= m <= n <= N.

    Dimension is N (N + 1) / 2, labels sorted lexicographically.
    """

    num_cavities: int
    labels: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = checked_int(self.num_cavities, "num_cavities", 2)
        object.__setattr__(self, "num_cavities", n)
        labels = tuple((m, k) for m in range(1, n + 1) for k in range(m, n + 1))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(
            self, "_label_index", {label: i for i, label in enumerate(labels)}
        )

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def index(self, m: int, n: int) -> int:
        """Position of the (unordered) pair {m, n} in the basis."""
        key = (m, n) if m <= n else (n, m)
        try:
            return self._label_index[key]
        except KeyError:
            raise ValidationError(
                f"pair {key} outside basis for N={self.num_cavities}"
            ) from None


@dataclass(frozen=True)
class TwoPhotonStateVector:
    """Unit-norm complex amplitudes over a TwoPhotonBasis."""

    basis: TwoPhotonBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dimension,):
            raise ValidationError(
                f"amplitude vector must have length {self.basis.dimension}, "
                f"got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValidationError(f"state norm {norm} deviates from 1 beyond 1e-12")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def noon_state(basis: TwoPhotonBasis, noon: NoonInput) -> TwoPhotonStateVector:
    """The NOON-type input as a basis vector: sin(theta) on (r, r), cos(theta) on (s, s)."""
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[basis.index(noon.site_r, noon.site_r)] = np.sin(noon.theta)
    amps[basis.index(noon.site_s, noon.site_s)] = np.cos(noon.theta)
    return TwoPhotonStateVector(basis=basis, amplitudes=amps)


def build_two_photon_hamiltonian(lattice: LatticeSpec) -> np.ndarray:
    """Dense two-photon sector Hamiltonian in the symmetric pair basis.

    Diagonal is 2*omega everywhere; hopping moves one photon one site with
    amplitude J, enhanced by sqrt(2) whenever a doubly occupied label is
    created or destroyed.

    Raises
    ------
    ValidationError
        If the sector dimension N (N + 1) / 2 exceeds 5000; dense storage
        and eigendecomposition stop being cheap past that point.
    """
    n = lattice.num_cavities
    basis = TwoPhotonBasis(n)
    d = basis.dimension
    if d > MAX_DIMENSION:
        raise ValidationError(
            f"two-photon sector dimension {d} exceeds the dense-storage guard "
            f"{MAX_DIMENSION} (N={n})"
        )
    j = lattice.hopping
    h = np.zeros((d, d))
    np.fill_diagonal(h, 2.0 * lattice.omega)
    root2 = sqrt(2.0)
    for col, (m, k) in enumerate(basis.labels):
        # Hop one photon (at ``src``) to an adjacent site while its partner
        # stays at ``other``.  a_dst^dag a_src carries sqrt(n_src) *
        # sqrt(n_dst + 1): sqrt(2) when lifting out of a double occupancy
        # (src == other) and sqrt(2) when landing on the partner
        # (dst == other), else 1.
        moves = ((m, k),) if m == k else ((m, k), (k, m))
        for src, other in moves:
            for dst in (src - 1, src + 1):
                if not 1 <= dst <= n:
                    continue
                amplitude = j
                if src == other:
                    amplitude *= root2
                if dst == other:
                    amplitude *= root2
                h[basis.index(dst, other), col] += amplitude
    h.setflags(write=False)
    return h


def evolve(
    state: TwoPhotonStateVector,
    eigensystem: tuple[np.ndarray, np.ndarray],
    t: float,
) -> TwoPhotonStateVector:
    """Exact evolution exp(-i H t) |state> from H's eigendecomposition.

    ``eigensystem`` is the ``(eigenvalues, eigenvectors)`` pair that
    ``np.linalg.eigh(H)`` returns; decompose once and pass it to every call
    that evolves under the same H.  Norm is preserved to eigensolver
    accuracy (well inside 1e-10).
    """
    t = checked_real(t, "time")
    evals, evecs = eigensystem
    d = state.basis.dimension
    if evecs.shape != (d, d):
        raise ValidationError(
            f"eigenvector matrix shape {evecs.shape} does not match state "
            f"dimension {d}"
        )
    # Apply the (usually real) eigenvectors to the real and imaginary parts
    # separately, so a real evecs is never copied to complex.
    adjoint = evecs.conj().T
    amps = state.amplitudes
    modes = adjoint @ amps.real + 1j * (adjoint @ amps.imag)
    modes *= np.exp(-1j * evals * t)
    evolved = evecs @ modes.real + 1j * (evecs @ modes.imag)
    return TwoPhotonStateVector(basis=state.basis, amplitudes=evolved)


def oracle_correlation(
    state: TwoPhotonStateVector, time: float = 0.0
) -> CorrelationMatrix:
    """Coincidence matrix read directly off the state amplitudes.

    For m != n, P[m, n] = |c_(min,max)|^2; on the diagonal P[m, m] =
    2 |c_(m,m)|^2.  Entries always sum to 2 for a normalized state.
    ``time`` only labels the result.
    """
    basis = state.basis
    n = basis.num_cavities
    probs = np.abs(state.amplitudes) ** 2
    p = np.zeros((n, n))
    for i, (m, k) in enumerate(basis.labels):
        if m == k:
            p[m - 1, m - 1] = 2.0 * probs[i]
        else:
            p[m - 1, k - 1] = probs[i]
            p[k - 1, m - 1] = probs[i]
    p.setflags(write=False)
    return CorrelationMatrix(time=float(time), entries=p)
