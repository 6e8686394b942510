"""Brute-force two-photon reference, independent of the spectral fast path.

Builds the full two-photon sector of the chain Hamiltonian in the symmetric
pair basis, as its nonzero entries (row, column, value), evolves states
exactly, and reads the coincidence matrix straight off the state
amplitudes.  Nothing here touches the sine-transform machinery, so
agreement between this module and the closed-form path is a genuine
cross-check.

The solve uses two exact symmetries of H, each checked bit for bit on its
entries before it is used.  The chain mirror j -> N + 1 - j permutes the
pair labels, (m, n) -> (N + 1 - n, N + 1 - m), and commutes with H, so H
splits into a mirror-even and a mirror-odd block of about D/2 labels each.
Every hop moves one photon one site, so it changes m + n by one: within
each block H is its constant diagonal d plus a part that only links
even-sum to odd-sum labels, the rectangular block C.  Each C is scattered
from H's entries, one dense ``np.linalg.eigh`` of its Gram matrix C C^T
gives orthonormal U with C C^T = U S^2 U^T, and sigma_i = ||C^T u_i||
gives the eigenvalues d +- sigma.  exp(-i H t) depends on the block's
square alone and C f(C^T C) = f(C C^T) C, so

    exp(-i H t) = exp(-i d t) [[1 + U (cos St - 1) U^T, -i U (sin(St)/S) U^T C],
                               [-i C^T U (sin(St)/S) U^T, 1 + C^T U G U^T C]]

with G = -2 (sin(St/2)/S)^2, so ``evolve`` advances a state to every
requested time in one pass, and neither H nor an eigenvector matrix is
ever stored as D x D.  Both splits rest on H's matrix elements alone: the
mirror on the lattice geometry, the sublattice on hops being
nearest-neighbour, which holds for any amplitudes.  Neither uses the sine
transform, its mode frequencies or the free-boson structure, and the
eigensolve is a generic dense factorization, so the reference stays
independent of the path it checks; a matrix without both symmetries is
refused, never split.

States are plain complex arrays.  ``evolve`` takes one (D,) state, as
``noon_state`` makes it, and refuses any other shape or a norm off 1
beyond 1e-12; it returns read-only (T, D) amplitudes, one state per row,
whose norms it checks once; ``oracle_correlation`` reads every row's
coincidence matrix off them in one gather.

Basis convention: label (m, n) with m <= n is the normalized state with one
photon at m and one at n (m < n), or two photons at m (m == n).  The
bosonic sqrt(2) enhancement therefore lives in the Hamiltonian matrix
elements and in the factor 2 on diagonal coincidences, never in the basis
vectors themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, sqrt
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, checked_array, checked_int, checked_products
from .lattice import LatticeSpec
from .observables import NoonInput

# Bounds the dense pieces that remain: each mirror block's C with its U and
# Gram matrix (about D/4 x D/4 apiece) and evolve's (T, D) arrays.
MAX_DIMENSION = 5000
# the largest N whose two-photon sector N (N + 1) / 2 fits the guard: 99
ORACLE_MAX_CAVITIES = (isqrt(8 * MAX_DIMENSION + 1) - 1) // 2

NORM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TwoPhotonBasis:
    """Ordered symmetric pair basis (m, n), 1 <= m <= n <= N.

    Dimension is N (N + 1) / 2, labels sorted lexicographically (the order
    of ``np.triu_indices``).  ``pair_index[m - 1, n - 1]`` is the position
    of the pair {m, n}: a read-only symmetric N x N integer table, built
    once, through which all vectorised label arithmetic goes.
    """

    num_cavities: int
    pair_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = checked_int(self.num_cavities, "num_cavities", 2)
        object.__setattr__(self, "num_cavities", n)
        pair_index = np.zeros((n, n), dtype=np.intp)
        pair_index[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
        pair_index = np.maximum(pair_index, pair_index.T)
        pair_index.setflags(write=False)
        object.__setattr__(self, "pair_index", pair_index)

    @property
    def dimension(self) -> int:
        return self.num_cavities * (self.num_cavities + 1) // 2

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


def _check_unit_norm(amplitudes: np.ndarray) -> None:
    """Refuse one state or (T, D) states whose norm is nan or off 1 beyond 1e-12."""
    norms = np.linalg.norm(np.atleast_2d(amplitudes), axis=1)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOLERANCE))
    if off.size:
        norm = norms[off[0]]
        raise ValidationError(f"state norm {norm} deviates from 1 beyond 1e-12")


def noon_state(basis: TwoPhotonBasis, noon: NoonInput) -> np.ndarray:
    """The NOON-type input as read-only complex (D,) amplitudes over ``basis``.

    sin(theta) on the label (r, r), cos(theta) on (s, s), 0 elsewhere.
    """
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[basis.index(noon.site_r, noon.site_r)] = np.sin(noon.theta)
    amps[basis.index(noon.site_s, noon.site_s)] = np.cos(noon.theta)
    amps.setflags(write=False)
    return amps


class HamiltonianEntries(NamedTuple):
    """A real D x D matrix as its nonzero entries, H[rows[i], cols[i]] = values[i].

    Positions are sorted by (row, col) and appear at most once; every
    position not listed holds 0.
    """

    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def build_two_photon_hamiltonian(lattice: LatticeSpec) -> HamiltonianEntries:
    """Two-photon sector Hamiltonian in the symmetric pair basis, as nonzero entries.

    Diagonal is 2*omega everywhere; hopping moves one photon one site with
    amplitude J, enhanced by sqrt(2) whenever a doubly occupied label is
    created or destroyed.  About 5D entries for D labels (none off the
    diagonal when J = 0), in read-only arrays.

    Raises
    ------
    ValidationError
        If the sector dimension N (N + 1) / 2 exceeds 5000; the dense
        eigensolves of the blocks and the time-by-label arrays of the solve
        stop being cheap past that point.  Also if an entry, 2 omega or
        sqrt(2) J, is not finite.
    """
    n = lattice.num_cavities
    d = n * (n + 1) // 2
    if d > MAX_DIMENSION:
        raise ValidationError(
            f"two-photon sector dimension {d} exceeds the dense-storage guard "
            f"{MAX_DIMENSION} (N={n})"
        )
    diagonal, boosted_hop = 2.0 * lattice.omega, lattice.hopping * sqrt(2.0)
    checked_products(
        "two-photon Hamiltonian",
        (("entry 2 * omega", diagonal), ("entry sqrt(2) * hopping", boosted_hop)),
    )
    labels = np.arange(d)
    rows, cols, values = [labels], [labels], [np.full(d, diagonal)]
    if lattice.hopping != 0.0:
        pair_index = TwoPhotonBasis(n).pair_index
        # Every hop is a photon at site a moving to a + 1 while its partner
        # stays at b, taken over all ordered sites (a, b) with a < N: each
        # pair of adjacent labels is reached exactly once, and H is symmetric.
        # a_(a+1)^dag a_a carries sqrt(n_a) * sqrt(n_(a+1) + 1): sqrt(2) when
        # lifting out of a double occupancy (b == a) or landing on the partner
        # (b == a + 1), else 1; never both.
        src = pair_index[:-1].ravel()
        dst = pair_index[1:].ravel()
        a = np.arange(n - 1)[:, None]
        b = np.arange(n)
        boosted = ((b == a) | (b == a + 1)).ravel()
        amplitude = np.where(boosted, boosted_hop, lattice.hopping)
        rows += [dst, src]
        cols += [src, dst]
        values += [amplitude, amplitude]
    rows, cols, values = (np.concatenate(part) for part in (rows, cols, values))
    order = np.argsort(rows * d + cols)
    entries = HamiltonianEntries(d, rows[order], cols[order], values[order])
    for array in entries[1:]:
        array.setflags(write=False)
    return entries


class SublatticeBlock(NamedTuple):
    """One mirror block of H in sublattice form, d I + [[0, C], [C^T, 0]].

    ``even_side`` and ``odd_side`` are the positions, among the block's
    coordinates, of the labels with even and odd m + n; ``coupling`` is C,
    which couples the first to the second.  ``u`` holds the min(even, odd)
    orthonormal eigenvectors of C C^T of largest eigenvalue, which span C's
    column space, and ``sigma`` the singular values ||C^T u_i|| that go
    with them.  A block with an empty side has C empty and no singular
    values.
    """

    even_side: np.ndarray
    odd_side: np.ndarray
    coupling: np.ndarray
    u: np.ndarray
    sigma: np.ndarray

    def evolve(self, coeffs: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Block coordinates at each time, carrier left out: a (T, size) array.

        exp(-i K t) for K = [[0, C], [C^T, 0]] depends on K^2 alone, and
        C f(C^T C) = f(C C^T) C, so with a = U^T x_even and b = U^T C x_odd
        it maps x to x_even + U ((cos St - 1) a - i s b) on the even side
        and x_odd + C^T U (g b - i s a) on the odd side, where s = sin(St)/S
        and g = -2 (sin(St/2)/S)^2, which tend to t and -t^2/2 at S = 0.
        cos St - 1 is formed as -2 sin^2(St/2), and g b as -2 h (h b) with
        h = sin(St/2)/S, so no factor overflows while S t is finite.  Each
        product is real, with the 2T real and imaginary rows stacked.
        """
        x_even, x_odd = coeffs[self.even_side], coeffs[self.odd_side]
        a = _real_product(x_even, self.u)
        b = _real_product(_real_product(x_odd, self.coupling.T), self.u)
        phase = np.multiply.outer(times, self.sigma)
        sin_half = np.sin(0.5 * phase)
        nonzero = self.sigma != 0.0
        at_zero = np.multiply.outer(times, np.ones(self.sigma.size))  # s at sigma = 0
        h = np.divide(sin_half, self.sigma, out=0.5 * at_zero, where=nonzero)
        s = np.divide(np.sin(phase), self.sigma, out=at_zero, where=nonzero)
        out = np.empty((times.size, coeffs.size), dtype=complex)
        out[:, self.even_side] = x_even + _real_product(
            -2.0 * sin_half**2 * a - 1j * s * b, self.u.T
        )
        out[:, self.odd_side] = x_odd + _real_product(
            _real_product(-2.0 * h * (h * b) - 1j * s * a, self.u.T), self.coupling
        )
        return out


def _real_product(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` for a complex vector or (T, k) array ``x`` and a real ``m``.

    The real and imaginary rows of ``x`` are stacked into one real operand,
    so ``m`` is never copied to complex.
    """
    rows = np.atleast_2d(x)
    prod = np.concatenate((rows.real, rows.imag)) @ m
    out = prod[: len(rows)] + 1j * prod[len(rows) :]
    return out[0] if x.ndim == 1 else out


class TwoPhotonSolution(NamedTuple):
    """Everything ``evolve`` needs to apply exp(-i H t), from ``solve_by_symmetry``.

    ``diagonal`` is H's constant diagonal d (2 omega for the chain),
    ``offsets`` H's spectrum less d in ascending order (-sigma, 0 once per
    unpaired label, +sigma), so d + ``offsets`` is the spectrum bit for
    bit, ``pairs`` one label of
    each pair the mirror swaps, ``fixed`` the labels it fixes, and
    ``blocks`` the mirror-even and mirror-odd blocks, each with its C, U
    and sigma.  The even block's coordinates are (e_i + e_Mi)/sqrt(2) over
    ``pairs`` followed by e_i over ``fixed``; the odd block's are
    (e_i - e_Mi)/sqrt(2) over ``pairs``.
    """

    basis: TwoPhotonBasis
    diagonal: float
    offsets: np.ndarray
    pairs: np.ndarray
    fixed: np.ndarray
    blocks: tuple[SublatticeBlock, SublatticeBlock]


def _sublattice_block(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    mirror: np.ndarray,
    odd_sum: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    sign: float,
) -> SublatticeBlock:
    """Fold H onto one mirror block and factor its even-to-odd coupling C.

    The block entry of coordinates a, b is w_a w_b (h[a, b] + sign h[a, Mb])
    over the representative ``labels``; ``odd_sum`` marks the labels whose
    m + n is odd.  Each of H's nonzero (row, col, value) ``entries`` lands
    in C through row and column position maps, h[a, b] first and then
    sign h[a, Mb] added where it is nonzero, which gives C bit for bit as
    dense gathers of the two terms would.

    C is factored through its Gram matrix.  C is scaled by the exact power
    of two 2^-e that brings its largest entry into [0.5, 1), so that C C^T
    neither overflows nor underflows, and one ``np.linalg.eigh`` of that
    Gram matrix gives U.  Only the min(even, odd) columns of largest eigenvalue
    are kept, since the others span C's null space, and sigma_i is
    2^e ||C^T u_i||: the square roots of the eigenvalues would lose digits
    near sigma = 0.
    """
    odd_side = np.flatnonzero(odd_sum[labels])
    even_side = np.flatnonzero(~odd_sum[labels])
    if not (even_side.size and odd_side.size):  # nothing to factor
        c = np.zeros((even_side.size, odd_side.size))
        u, sigma = np.zeros((even_side.size, 0)), np.zeros(0)
    else:
        row_at = np.full(mirror.size, -1)
        row_at[labels[even_side]] = np.arange(even_side.size)
        col_at = np.full(mirror.size, -1)
        col_at[labels[odd_side]] = np.arange(odd_side.size)
        rows, cols, values = entries
        i = row_at[rows]
        c = np.zeros((even_side.size, odd_side.size))
        j = col_at[cols]
        hit = (i >= 0) & (j >= 0)
        c[i[hit], j[hit]] = values[hit]
        j = col_at[mirror[cols]]
        hit = (i >= 0) & (j >= 0)
        c[i[hit], j[hit]] += sign * values[hit]
        c *= np.multiply.outer(weights[even_side], weights[odd_side])
        if not np.isfinite(c).all():  # block sums past the double range
            raise ValidationError(
                "matrix block cannot be factored: an entry is not finite"
            )
        # an exact power of two brings C's largest entry into [0.5, 1)
        _, e = np.frexp(np.abs(c).max())
        scaled = np.ldexp(c, -e)
        gram = scaled @ scaled.T
        del scaled  # only C and its Gram matrix live through the eigensolve
        try:
            _, u = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as exc:
            raise ValidationError(f"matrix block cannot be factored: {exc}") from None
        del gram
        u = u[:, even_side.size - min(c.shape) :]
        sigma = np.ldexp(np.linalg.norm(np.ldexp(c.T, -e) @ u, axis=0), e)
    return SublatticeBlock(even_side, odd_side, c, u, sigma)


def _values_at(keys: np.ndarray, values: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The entries at positions ``wanted`` (row * D + col), 0.0 where H has none.

    ``keys`` are the entries' own positions, strictly increasing.
    """
    at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    return np.where(keys[at] == wanted, values[at], 0.0)


def solve_by_symmetry(
    h: HamiltonianEntries, basis: TwoPhotonBasis
) -> TwoPhotonSolution:
    """Factor a two-photon H through its mirror and sublattice symmetries.

    H comes as its nonzero entries, as ``build_two_photon_hamiltonian``
    returns it.  It must be real and symmetric, commute bit for bit with
    the chain mirror M of ``basis``, have one constant diagonal d, and link
    no two labels whose m + n have the same parity.  The mirror splits it
    into an even and an odd block; within each, the part linking even-sum
    to odd-sum labels is a rectangular C, and one ``np.linalg.eigh`` of
    its Gram matrix C C^T gives that block's eigenvalues d +- sigma, plus d
    once per unpaired label.  Nothing D x D is formed.

    Raises
    ------
    ValidationError
        If ``h`` is not a real D x D matrix of the basis's D given by
        nonzero entries at sorted, distinct, in-range positions, or breaks
        any of the conditions above; the mirror is checked first.  Such a
        matrix is never split.  Also if a block's C is not finite, as when
        entries near the largest double overflow its sums, or its Gram
        eigensolve does not converge, or if a band edge d +- sigma is not
        finite.
    """
    d = basis.dimension
    rows, cols, values = (np.asarray(part) for part in h[1:])
    if h.dimension != d or not np.isrealobj(values):
        raise ValidationError(
            f"matrix of dimension {h.dimension} and type {values.dtype} does not "
            f"match the real {d} x {d} matrices of the basis"
        )
    if not (
        rows.shape == cols.shape == values.shape == (values.size,)
        and rows.dtype.kind in "iu"
        and cols.dtype.kind in "iu"
    ):
        raise ValidationError(
            "matrix entries must be integer rows and cols and real values, "
            "three 1-D arrays of one length"
        )
    if values.size and not (
        0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < d
    ):
        raise ValidationError(f"matrix entry positions fall outside 0..{d - 1}")
    if np.any(values == 0.0):
        raise ValidationError("matrix entries must be nonzero")
    rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
    keys = rows * d + cols
    step = np.diff(keys)
    if np.any(step < 0):
        raise ValidationError("matrix entries are not sorted by (row, col)")
    if np.any(step == 0):
        raise ValidationError("matrix entry positions repeat")
    mirror = basis.mirror
    # Every condition is a statement about the nonzero entries: M and the
    # transpose are bijections on positions, so a nonzero entry that maps
    # onto an equal entry everywhere leaves no zero to map onto a nonzero.
    if not np.array_equal(
        _values_at(keys, values, mirror[rows] * d + mirror[cols]), values
    ):
        raise ValidationError(
            f"matrix does not commute with the mirror of the "
            f"{basis.num_cavities}-cavity pair basis"
        )
    if not np.array_equal(_values_at(keys, values, cols * d + rows), values):
        raise ValidationError("matrix is not symmetric")
    on_diagonal = rows == cols
    diagonal = np.zeros(d)
    diagonal[rows[on_diagonal]] = values[on_diagonal]
    if not np.all(diagonal == diagonal[0]):
        raise ValidationError("matrix diagonal is not one constant")
    m, n = np.triu_indices(basis.num_cavities)
    odd_sum = (m + n) % 2 == 1
    hop = ~on_diagonal
    if np.any(odd_sum[rows[hop]] == odd_sum[cols[hop]]):
        raise ValidationError(
            "matrix links two pair labels whose site sums have the same parity"
        )

    labels = np.arange(d)
    pairs = labels[labels < mirror]
    fixed = labels[labels == mirror]
    # w = 1 on swapped pairs and 1/sqrt(2) on fixed labels: a fixed label is
    # its own image, so h[a, b] + h[a, Mb] counts it twice.
    even_weights = np.concatenate((np.ones(pairs.size), np.full(fixed.size, sqrt(0.5))))
    entries = (rows, cols, values)
    blocks = (
        _sublattice_block(
            entries, mirror, odd_sum, np.concatenate((pairs, fixed)), even_weights, 1.0
        ),
        _sublattice_block(entries, mirror, odd_sum, pairs, np.ones(pairs.size), -1.0),
    )
    center = float(diagonal[0])
    sigma = np.concatenate([block.sigma for block in blocks])
    edge = float(sigma.max(initial=0.0))
    bounds = (("d - sigma", center - edge), ("d + sigma", center + edge))
    checked_products("two-photon spectrum", bounds)
    offsets = np.sort(np.concatenate((-sigma, np.zeros(d - 2 * sigma.size), sigma)))
    offsets.setflags(write=False)
    return TwoPhotonSolution(basis, center, offsets, pairs, fixed, blocks)


def evolve(amplitudes, solution: TwoPhotonSolution, times) -> np.ndarray:
    """Exact evolution exp(-i H t) of one state to every entry of ``times``.

    ``amplitudes`` is one state over the solved basis, complex (D,) and of
    unit norm within 1e-12, as ``noon_state`` makes it; any other shape or
    norm is refused.  ``solution`` comes from ``solve_by_symmetry``; solve
    once and evolve every time in one call; ``times`` is a non-empty 1-d
    sequence of finite real numbers, checked by ``checked_array``.  The
    state is projected onto the two mirror blocks once, each block advances
    all times with one real product per sublattice side, and the carrier
    exp(-i d t) is one factor per time.  Returns a read-only (len(times),
    D) complex array, one state per row, whose norms are checked once to
    lie within 1e-12 of 1.  A time whose carrier phase d t or largest block
    phase sigma t is not finite is refused before any state is formed.
    """
    d = solution.basis.dimension
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (d,):
        raise ValidationError(
            f"state must have shape ({d},) to match the solved dimension {d}, "
            f"got shape {amps.shape}"
        )
    _check_unit_norm(amps)
    times = checked_array(times, "time")
    reach = float(np.abs(times).max())
    sigma = max(float(block.sigma.max(initial=0.0)) for block in solution.blocks)
    phases = (("diagonal * t", solution.diagonal * reach), ("sigma * t", sigma * reach))
    checked_products(f"time {reach}", phases)
    mirror = solution.basis.mirror
    pairs, images, fixed = solution.pairs, mirror[solution.pairs], solution.fixed
    lo, hi = amps[pairs], amps[images]
    even, odd = solution.blocks
    even_t = even.evolve(np.concatenate(((lo + hi) * sqrt(0.5), amps[fixed])), times)
    odd_t = odd.evolve((lo - hi) * sqrt(0.5), times)
    swapped = even_t[:, : pairs.size]
    evolved = np.empty((times.size, amps.size), dtype=complex)
    evolved[:, pairs] = (swapped + odd_t) * sqrt(0.5)
    evolved[:, images] = (swapped - odd_t) * sqrt(0.5)
    evolved[:, fixed] = even_t[:, pairs.size :]
    evolved *= np.exp(-1j * solution.diagonal * times)[:, None]
    _check_unit_norm(evolved)
    evolved.setflags(write=False)
    return evolved


def oracle_correlation(basis: TwoPhotonBasis, amplitudes) -> np.ndarray:
    """Coincidence matrices read directly off state amplitudes over ``basis``.

    ``amplitudes`` is one state (D,) or one state per row (T, D), as
    ``evolve`` returns them.  For m != n, P[m, n] = |c_(min,max)|^2; on the
    diagonal P[m, m] = 2 |c_(m,m)|^2.  Returns a read-only (N, N) or
    (T, N, N) array from one gather through ``basis.pair_index``; each
    matrix sums to 2 for a normalized state.
    """
    amps = np.asarray(amplitudes)
    if amps.ndim not in (1, 2) or amps.shape[-1] != basis.dimension:
        raise ValidationError(
            f"amplitudes must have shape ({basis.dimension},) or (T, "
            f"{basis.dimension}), got {amps.shape}"
        )
    p = (np.abs(amps) ** 2)[..., basis.pair_index]
    diagonal = np.arange(basis.num_cavities)
    p[..., diagonal, diagonal] *= 2.0
    p.setflags(write=False)
    return p
