"""Brute-force two-photon reference, independent of the spectral fast path.

Builds the full two-photon sector of the chain Hamiltonian in the symmetric
pair basis, evolves states exactly by dense eigendecomposition, and reads
the coincidence matrix straight off the state amplitudes.  Nothing here
touches the sine-transform machinery, so agreement between this module and
the closed-form path is a genuine cross-check.

The eigendecomposition is split by the one symmetry the open chain has, the
mirror j -> N + 1 - j.  It permutes the pair labels, (m, n) -> (N + 1 - n,
N + 1 - m), and H commutes with that permutation exactly, so
``eigh_by_parity`` diagonalizes a mirror-even and a mirror-odd block of
about D/2 labels each: two half-size dense ``eigh`` calls, about a quarter
of the cost of one full call.  The split uses only this lattice symmetry
and brute-force dense ``eigh``, never the sine transform or its mode
frequencies, so the reference stays independent of the path it checks; a
matrix that does not commute with the mirror bit for bit is refused, never
split.

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
    ``pair_index[m - 1, n - 1]`` is the position of the pair {m, n}: a
    read-only symmetric N x N integer table, built once, through which all
    vectorised label arithmetic goes.
    """

    num_cavities: int
    labels: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    pair_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = checked_int(self.num_cavities, "num_cavities", 2)
        object.__setattr__(self, "num_cavities", n)
        labels = tuple((m, k) for m in range(1, n + 1) for k in range(m, n + 1))
        object.__setattr__(self, "labels", labels)
        pair_index = np.zeros((n, n), dtype=np.intp)
        pair_index[np.triu_indices(n)] = np.arange(len(labels))
        pair_index = np.maximum(pair_index, pair_index.T)
        pair_index.setflags(write=False)
        object.__setattr__(self, "pair_index", pair_index)

    @property
    def dimension(self) -> int:
        return len(self.labels)

    @property
    def mirror(self) -> np.ndarray:
        """Label permutation of the chain mirror j -> N + 1 - j.

        ``mirror[i]`` is the position of the image of label i: (m, n) maps
        to (N + 1 - n, N + 1 - m).  It is an involution; its fixed labels
        are the pairs with m + n = N + 1.
        """
        return self.pair_index[::-1, ::-1][np.triu_indices(self.num_cavities)]

    def index(self, m: int, n: int) -> int:
        """Position of the (unordered) pair {m, n} in the basis."""
        m = checked_int(m, "pair site", 1, self.num_cavities)
        n = checked_int(n, "pair site", 1, self.num_cavities)
        return int(self.pair_index[m - 1, n - 1])


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
    d = n * (n + 1) // 2
    if d > MAX_DIMENSION:
        raise ValidationError(
            f"two-photon sector dimension {d} exceeds the dense-storage guard "
            f"{MAX_DIMENSION} (N={n})"
        )
    pair_index = TwoPhotonBasis(n).pair_index
    h = np.zeros((d, d))
    np.fill_diagonal(h, 2.0 * lattice.omega)
    # Every hop is a photon at site a moving to a + 1 while its partner stays
    # at b, taken over all ordered sites (a, b) with a < N: each pair of
    # adjacent labels is reached exactly once, and H is symmetric.
    # a_(a+1)^dag a_a carries sqrt(n_a) * sqrt(n_(a+1) + 1): sqrt(2) when
    # lifting out of a double occupancy (b == a) or landing on the partner
    # (b == a + 1), else 1; never both.
    src = pair_index[:-1].ravel()
    dst = pair_index[1:].ravel()
    a = np.arange(n - 1)[:, None]
    b = np.arange(n)
    boosted = ((b == a) | (b == a + 1)).ravel()
    amplitude = np.where(boosted, lattice.hopping * sqrt(2.0), lattice.hopping)
    h[dst, src] += amplitude
    h[src, dst] += amplitude
    h.setflags(write=False)
    return h


def eigh_by_parity(
    h: np.ndarray, basis: TwoPhotonBasis
) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(h)`` for an ``h`` that commutes with the chain mirror.

    Returns ascending eigenvalues and an orthonormal D x D eigenvector
    matrix, as ``eigh`` does, from two half-size ``eigh`` calls: one on the
    mirror-even block, spanned by (e_i + e_Mi)/sqrt(2) and the fixed labels
    of ``basis.mirror`` M, and one on the odd block, spanned by
    (e_i - e_Mi)/sqrt(2).  The blocks are gathered from ``h`` with index
    arrays and their eigenvectors scattered back into the full basis.

    Raises
    ------
    ValidationError
        If ``h`` is not D x D or does not commute exactly with M (``h``
        permuted by M on both sides differs from ``h`` in any bit); such a
        matrix is never split.
    """
    d = basis.dimension
    if h.shape != (d, d):
        raise ValidationError(
            f"matrix shape {h.shape} does not match the basis dimension {d}"
        )
    mirror = basis.mirror
    labels = np.arange(d)
    pairs = labels[labels < mirror]  # one label of each swapped pair
    even = np.concatenate((pairs, labels[labels == mirror]))
    # Rows ``even`` and their images cover every label, so comparing these
    # rows with their mirror images checks h[M][:, M] == h in full.
    top = h.take(even, axis=0)
    if not np.array_equal(top, h.take(mirror[even], axis=0).take(mirror, axis=1)):
        raise ValidationError(
            f"matrix does not commute with the mirror of the "
            f"{basis.num_cavities}-cavity pair basis"
        )
    # <a|h|b> over the even basis is w_a w_b (h[a, b] + h[a, Mb]), with
    # w = 1 on pairs and 1/sqrt(2) on fixed labels; odd is h[a, b] - h[a, Mb].
    n_pairs = len(pairs)
    w = np.ones(len(even))
    w[n_pairs:] = sqrt(0.5)
    even_block = top.take(even, axis=1)
    even_block += top.take(mirror[even], axis=1)
    even_block *= np.multiply.outer(w, w)
    odd_block = top[:n_pairs].take(pairs, axis=1)
    odd_block -= top[:n_pairs].take(mirror[pairs], axis=1)
    del top  # half of h; free it before the eigensolves
    even_vals, even_vecs = np.linalg.eigh(even_block)
    odd_vals, odd_vecs = np.linalg.eigh(odd_block)

    evals = np.concatenate((even_vals, odd_vals))
    order = np.argsort(evals, kind="stable")
    column = np.empty(d, dtype=np.intp)  # output column of each block pair
    column[order] = labels
    even_cols = column[: len(even)]
    odd_cols = column[len(even) :]
    # Even vector a has u_a / sqrt(2) on a pair label and on its image, and
    # u_a on a fixed label; odd vector a has +-u_a / sqrt(2).
    evecs = np.zeros((d, d), dtype=np.result_type(even_vecs, odd_vecs))
    even_vecs[:n_pairs] *= sqrt(0.5)
    evecs[np.ix_(even, even_cols)] = even_vecs
    evecs[np.ix_(mirror[pairs], even_cols)] = even_vecs[:n_pairs]
    odd_vecs *= sqrt(0.5)
    evecs[np.ix_(pairs, odd_cols)] = odd_vecs
    evecs[np.ix_(mirror[pairs], odd_cols)] = -odd_vecs
    return evals[order], evecs


def evolve(
    state: TwoPhotonStateVector,
    eigensystem: tuple[np.ndarray, np.ndarray],
    t: float,
) -> TwoPhotonStateVector:
    """Exact evolution exp(-i H t) |state> from H's eigendecomposition.

    ``eigensystem`` is the ``(eigenvalues, eigenvectors)`` pair that
    ``np.linalg.eigh(H)`` or ``eigh_by_parity`` returns; decompose once and
    pass it to every call that evolves under the same H.  Norm is preserved
    to eigensolver accuracy (well inside 1e-10).
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
    # separately, so a real evecs is never copied: neither to complex nor
    # by a no-op conjugate.
    adjoint = evecs.T if np.isrealobj(evecs) else evecs.conj().T
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
    probs = np.abs(state.amplitudes) ** 2
    p = probs[state.basis.pair_index]
    p[np.diag_indices_from(p)] *= 2.0
    p.setflags(write=False)
    return CorrelationMatrix(time=float(time), entries=p)
