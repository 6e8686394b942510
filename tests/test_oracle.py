import tracemalloc
from math import isqrt, sqrt

import numpy as np
import pytest
from scipy.linalg import expm

from ccawalk import (
    LatticeSpec,
    NoonInput,
    TwoPhotonBasis,
    ValidationError,
    build_two_photon_hamiltonian,
    correlation_matrix,
    evolve,
    mode_frequencies,
    noon_state,
    oracle_correlation,
    solve_by_symmetry,
)
from ccawalk import oracle
from conftest import dense_hamiltonian, hamiltonian_entries, pair_labels


def dense_evolve(state, h, times):
    """Reference evolution: one dense ``np.linalg.eigh`` of the whole H."""
    evals, evecs = np.linalg.eigh(h)
    modes = evecs.conj().T @ state
    return [evecs @ (np.exp(-1j * evals * t) * modes) for t in times]


def basis_of(state):
    """The pair basis whose dimension N (N + 1) / 2 is the state's length."""
    return TwoPhotonBasis((isqrt(8 * state.size + 1) - 1) // 2)


def solved_evolve(state, h, times):
    """Amplitudes at each time through ``solve_by_symmetry`` and ``evolve``."""
    solution = solve_by_symmetry(h, basis_of(state))
    return evolve(state, solution, times)


def block_bases(solution):
    """The mirror-even and mirror-odd block coordinates as D x L columns."""
    d = solution.basis.dimension
    pairs, fixed = solution.pairs, solution.fixed
    images = solution.basis.mirror[pairs]
    even = np.zeros((d, pairs.size + fixed.size))
    odd = np.zeros((d, pairs.size))
    columns = np.arange(pairs.size)
    even[pairs, columns] = even[images, columns] = sqrt(0.5)
    even[fixed, pairs.size + np.arange(fixed.size)] = 1.0
    odd[pairs, columns] = sqrt(0.5)
    odd[images, columns] = -sqrt(0.5)
    return even, odd


def worst(deviation):
    """Largest absolute entry, 0 for an empty block."""
    return float(np.abs(deviation).max(initial=0.0))


def random_state(basis, rng):
    raw = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    return raw / np.linalg.norm(raw)


def loop_hamiltonian(lattice):
    """Reference H: one Python pass over the labels, one hop at a time."""
    n = lattice.num_cavities
    basis = TwoPhotonBasis(n)
    j = lattice.hopping
    h = np.zeros((basis.dimension, basis.dimension))
    np.fill_diagonal(h, 2.0 * lattice.omega)
    root2 = sqrt(2.0)
    for col, (m, k) in enumerate(pair_labels(n)):
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
    return h


def loop_correlation(basis, state):
    """Reference coincidences: one Python pass over the labels."""
    n = basis.num_cavities
    probs = np.abs(state) ** 2
    p = np.zeros((n, n))
    for i, (m, k) in enumerate(pair_labels(n)):
        if m == k:
            p[m - 1, m - 1] = 2.0 * probs[i]
        else:
            p[m - 1, k - 1] = probs[i]
            p[k - 1, m - 1] = probs[i]
    return p


def dense_coupling(h, basis, labels, weights, sign):
    """Reference C of one mirror block: w_a w_b (h[a, b] + sign h[a, Mb]) by gathers.

    Rows are the block's labels with an even site sum, columns those with an
    odd one, each a dense ``np.ix_`` gather from the D x D matrix.
    """
    m, k = np.triu_indices(basis.num_cavities)
    odd = ((m + k) % 2 == 1)[labels]
    rows, cols = labels[~odd], labels[odd]
    c = h[np.ix_(rows, cols)]
    c += sign * h[np.ix_(rows, basis.mirror[cols])]
    c *= np.multiply.outer(weights[~odd], weights[odd])
    return c


def gram_factor(c):
    """Reference factor of one C: 2^-e scaling, one eigh of the Gram matrix.

    Returns U's min(rows, cols) columns of largest eigenvalue and
    sigma_i = 2^e ||C^T u_i||, as the documented solve forms them.
    """
    if not c.size:
        return np.zeros((len(c), 0)), np.zeros(0)
    _, e = np.frexp(np.abs(c).max())
    scaled = np.ldexp(c, -e)
    u = np.linalg.eigh(scaled @ scaled.T)[1][:, len(c) - min(c.shape) :]
    return u, np.ldexp(np.linalg.norm(scaled.T @ u, axis=0), e)


def dense_gather_blocks(dense, basis):
    """Reference blocks of a dense H: C by ``dense_coupling``, then ``gram_factor``.

    Returns (even_side, odd_side, c, u, sigma) for the mirror-even and the
    mirror-odd block, in the order ``solve_by_symmetry`` lays them out.
    """
    mirror = basis.mirror
    labels = np.arange(basis.dimension)
    pairs, fixed = labels[labels < mirror], labels[labels == mirror]
    m, k = np.triu_indices(basis.num_cavities)
    odd = (m + k) % 2 == 1
    even_weights = np.concatenate((np.ones(pairs.size), np.full(fixed.size, sqrt(0.5))))
    blocks = []
    for block_labels, weights, sign in (
        (np.concatenate((pairs, fixed)), even_weights, 1.0),
        (pairs, np.ones(pairs.size), -1.0),
    ):
        c = dense_coupling(dense, basis, block_labels, weights, sign)
        sides = np.flatnonzero(~odd[block_labels]), np.flatnonzero(odd[block_labels])
        blocks.append((*sides, c, *gram_factor(c)))
    return blocks


class TestTwoPhotonBasis:
    def test_labels_ordered_and_complete(self):
        basis = TwoPhotonBasis(4)
        labels = pair_labels(4)
        assert basis.dimension == 10
        assert labels == tuple((m, n) for m in range(1, 5) for n in range(m, 5))
        assert labels == tuple(sorted(set(labels)))
        assert [basis.index(*label) for label in labels] == list(range(10))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_dimension_formula(self, n):
        assert TwoPhotonBasis(n).dimension == n * (n + 1) // 2

    def test_index_handles_unordered_pairs(self):
        basis = TwoPhotonBasis(5)
        assert basis.index(3, 2) == basis.index(2, 3)
        assert pair_labels(5)[basis.index(4, 4)] == (4, 4)

    def test_index_rejects_foreign_pair(self):
        with pytest.raises(ValidationError):
            TwoPhotonBasis(3).index(1, 4)
        with pytest.raises(ValidationError):
            TwoPhotonBasis(3).index(0, 2)
        with pytest.raises(ValidationError):
            TwoPhotonBasis(3).index(1.5, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_pair_index_matches_labels(self, n):
        basis = TwoPhotonBasis(n)
        for i, (m, k) in enumerate(pair_labels(n)):
            assert basis.pair_index[m - 1, k - 1] == i
            assert basis.pair_index[k - 1, m - 1] == i
        assert not basis.pair_index.flags.writeable

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 29, 50])
    def test_mirror_is_the_reflected_label_involution(self, n):
        basis = TwoPhotonBasis(n)
        mirror = basis.mirror
        for i, (m, k) in enumerate(pair_labels(n)):
            assert mirror[i] == basis.index(n + 1 - k, n + 1 - m)
        assert np.array_equal(mirror[mirror], np.arange(basis.dimension))
        assert np.count_nonzero(mirror == np.arange(basis.dimension)) == (n + 1) // 2


class TestBuildHamiltonian:
    def test_two_cavity_matrix_by_hand(self):
        omega, j = 1.7, 0.4
        h = dense_hamiltonian(
            build_two_photon_hamiltonian(
                LatticeSpec(num_cavities=2, omega=omega, hopping=j)
            )
        )
        root2 = np.sqrt(2.0)
        expected = np.array(
            [
                [2 * omega, root2 * j, 0.0],
                [root2 * j, 2 * omega, root2 * j],
                [0.0, root2 * j, 2 * omega],
            ]
        )
        assert np.abs(h - expected).max() < 1e-14
        eigenvalues = np.linalg.eigvalsh(h)
        assert np.allclose(
            eigenvalues, [2 * omega - 2 * j, 2 * omega, 2 * omega + 2 * j], atol=1e-12
        )

    def test_no_hopping_is_diagonal(self):
        entries = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=5, omega=0.9, hopping=0.0)
        )
        assert np.array_equal(entries.rows, entries.cols)  # no zero hops stored
        h = dense_hamiltonian(entries)
        assert np.abs(h - 1.8 * np.eye(15)).max() == 0.0

    def test_symmetric(self):
        h = dense_hamiltonian(
            build_two_photon_hamiltonian(
                LatticeSpec(num_cavities=6, omega=1.0, hopping=0.8)
            )
        )
        assert np.abs(h - h.T).max() == 0.0

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_spectrum_is_pairwise_mode_sums(self, n):
        lattice = LatticeSpec(num_cavities=n, omega=1.1, hopping=0.7)
        freqs = mode_frequencies(lattice)
        expected = np.sort(
            [freqs[i] + freqs[j] for i in range(n) for j in range(i, n)]
        )
        spectrum = np.linalg.eigvalsh(
            dense_hamiltonian(build_two_photon_hamiltonian(lattice))
        )
        assert np.abs(np.sort(spectrum) - expected).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 29, 50])
    @pytest.mark.parametrize("omega, hopping", [(1.0, 0.7), (0.37, 1.9), (1.3, 0.0)])
    def test_bitwise_equal_to_loop_reference(self, n, omega, hopping):
        lattice = LatticeSpec(num_cavities=n, omega=omega, hopping=hopping)
        h = build_two_photon_hamiltonian(lattice)
        reference = loop_hamiltonian(lattice)
        assert dense_hamiltonian(h).tobytes() == reference.tobytes()
        # the stored entries are exactly the reference's nonzeros, in order
        assert h.dimension == len(reference)
        for got, want in zip(h[1:], hamiltonian_entries(reference)[1:]):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_size_guard(self):
        with pytest.raises(ValidationError):
            build_two_photon_hamiltonian(
                LatticeSpec(num_cavities=100, omega=1.0, hopping=1.0)
            )

    def test_size_guard_fires_before_the_basis_is_built(self, monkeypatch):
        def unbuildable(n):
            raise AssertionError(f"basis of {n} cavities built past the guard")

        monkeypatch.setattr(oracle, "TwoPhotonBasis", unbuildable)
        with pytest.raises(ValidationError, match="dense-storage guard"):
            build_two_photon_hamiltonian(
                LatticeSpec(num_cavities=5000, omega=1.0, hopping=1.0)
            )


PARITY_CASES = [pytest.param(n, 0.7, id=f"n{n}") for n in (2, 3, 4, 5, 8, 29, 50)] + [
    pytest.param(n, 0.0, id=f"n{n}-no-hopping") for n in (5, 8)
]


class TestSolveBySymmetry:
    @pytest.mark.parametrize("n, hopping", PARITY_CASES)
    def test_matches_full_eigh(self, n, hopping):
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=hopping)
        basis = TwoPhotonBasis(n)
        entries = build_two_photon_hamiltonian(lattice)
        h = dense_hamiltonian(entries)
        solution = solve_by_symmetry(entries, basis)
        full = np.linalg.eigh(h)
        evals = solution.eigenvalues
        d = basis.dimension
        assert evals.shape == (d,)
        assert not evals.flags.writeable
        assert np.all(np.diff(evals) >= 0.0)
        assert np.abs(evals - full[0]).max() < 1e-12

        # each block is d I + [[0, C], [C^T, 0]]; U is orthonormal, spans
        # C's columns and diagonalizes C C^T to sigma^2, sigma_i = ||C^T u_i||
        # are C's singular values, and the two blocks do not mix
        even, odd = block_bases(solution)
        assert np.abs(even.T @ h @ odd).max() < 1e-12
        for q, block in zip((even, odd), solution.blocks):
            folded = q.T @ h @ q
            size = q.shape[1]
            assert sorted(np.concatenate((block.even_side, block.odd_side))) == list(
                range(size)
            )
            c = folded[np.ix_(block.even_side, block.odd_side)]
            assert worst(block.coupling - c) < 1e-12
            for side in (block.even_side, block.odd_side):
                diagonal = folded[np.ix_(side, side)]
                assert worst(diagonal - 2.0 * np.eye(side.size)) < 1e-12
            u, sigma = block.u, block.sigma
            assert u.shape == (len(c), min(c.shape)) == (block.even_side.size, sigma.size)
            assert worst(u.T @ u - np.eye(sigma.size)) < 1e-12
            assert worst(u @ (u.T @ c) - c) < 1e-12
            assert worst(c @ (c.T @ u) - u * sigma**2) < 1e-12
            assert worst(np.linalg.norm(c.T @ u, axis=0) - sigma) < 1e-12
            if c.size:
                singular = np.linalg.svd(c, compute_uv=False)
                assert worst(np.sort(sigma) - np.sort(singular)) < 1e-12

        r, s = (n + 1) // 2, n
        rng = np.random.default_rng(n)
        times = (0.0, 0.3, 17.0, 987.6, 1.0e4)
        for state in (
            noon_state(basis, NoonInput(theta=0.4, site_r=r, site_s=s)),
            random_state(basis, rng),
        ):
            split = solved_evolve(state, entries, times)
            dense = dense_evolve(state, h, times)
            for a, b in zip(split, dense):
                assert np.abs(a - b).max() < 1e-10

    def test_splits_long_hops_onto_mirror_images(self):
        # Chain hops never link a label with m + n <= N to a mirror image,
        # whose m + n >= N + 2, so on a chain H the odd block's h[a, Mb]
        # term is zero.  Odd-parity long hops that do are still mirror-even
        # and sublattice-bipartite, and must be split like any other.
        n = 5
        basis = TwoPhotonBasis(n)
        h = dense_hamiltonian(
            build_two_photon_hamiltonian(
                LatticeSpec(num_cavities=n, omega=1.0, hopping=0.7)
            )
        )
        mirror = basis.mirror
        a = basis.index(1, 1)
        for b, value in ((basis.index(1, 4), 0.3), (basis.index(2, 5), 0.11)):
            for i, j in ((a, b), (mirror[a], mirror[b])):
                h[i, j] = h[j, i] = value
        entries = hamiltonian_entries(h)
        solution = solve_by_symmetry(entries, basis)
        assert np.abs(solution.eigenvalues - np.linalg.eigvalsh(h)).max() < 1e-12
        state = random_state(basis, np.random.default_rng(7))
        times = (0.3, 17.0, 987.6)
        for a_t, b_t in zip(
            solved_evolve(state, entries, times), dense_evolve(state, h, times)
        ):
            assert np.abs(a_t - b_t).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("row", ["swapped", "fixed"])
    def test_rejects_matrix_off_mirror_symmetry(self, n, row):
        basis = TwoPhotonBasis(n)
        h = dense_hamiltonian(
            build_two_photon_hamiltonian(
                LatticeSpec(num_cavities=n, omega=1.0, hopping=0.7)
            )
        )
        # label (1, 1) is swapped with (N, N); label (1, N) is fixed
        i, j = (0, 1) if row == "swapped" else (basis.index(1, n), 0)
        h[i, j] = h[j, i] = np.nextafter(h[i, j], np.inf)
        with pytest.raises(ValidationError, match="mirror"):
            solve_by_symmetry(hamiltonian_entries(h), basis)

    def test_rejects_hop_whose_mirror_image_is_absent(self):
        # (1, 2) - (2, 4) links the two sublattices, but its image (3, 4) -
        # (1, 3) holds no entry.  Its value J equals that of the entries
        # stored next to where the image would be, so only a lookup that
        # checks the position, not just the value found there, refuses it.
        basis = TwoPhotonBasis(4)
        h = dense_hamiltonian(
            build_two_photon_hamiltonian(
                LatticeSpec(num_cavities=4, omega=1.0, hopping=0.7)
            )
        )
        i, j = basis.index(1, 2), basis.index(2, 4)
        h[i, j] = h[j, i] = 0.7
        with pytest.raises(ValidationError, match="mirror"):
            solve_by_symmetry(hamiltonian_entries(h), basis)

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_rejects_hop_inside_a_sublattice(self, n):
        # (1, 1) and (1, 3) both have an even site sum; the one-ulp hop is
        # placed on their mirror images too, so only the sublattice check fails
        basis = TwoPhotonBasis(n)
        h = dense_hamiltonian(
            build_two_photon_hamiltonian(
                LatticeSpec(num_cavities=n, omega=1.0, hopping=0.7)
            )
        )
        i, j = basis.index(1, 1), basis.index(1, 3)
        for a, b in ((i, j), (basis.mirror[i], basis.mirror[j])):
            h[a, b] = h[b, a] = np.nextafter(0.0, 1.0)
        with pytest.raises(ValidationError, match="same parity"):
            solve_by_symmetry(hamiltonian_entries(h), basis)

    @pytest.mark.parametrize("label", ["swapped", "fixed"])
    def test_rejects_non_constant_diagonal(self, label):
        basis = TwoPhotonBasis(5)
        h = dense_hamiltonian(
            build_two_photon_hamiltonian(
                LatticeSpec(num_cavities=5, omega=1.0, hopping=0.7)
            )
        )
        i = basis.index(1, 1) if label == "swapped" else basis.index(1, 5)
        for a in {i, basis.mirror[i]}:
            h[a, a] = np.nextafter(h[a, a], np.inf)
        with pytest.raises(ValidationError, match="diagonal"):
            solve_by_symmetry(hamiltonian_entries(h), basis)

    def test_rejects_asymmetric_matrix(self):
        basis = TwoPhotonBasis(4)
        h = dense_hamiltonian(
            build_two_photon_hamiltonian(
                LatticeSpec(num_cavities=4, omega=1.0, hopping=0.7)
            )
        )
        i, j = basis.index(1, 1), basis.index(1, 2)
        for a, b in ((i, j), (basis.mirror[i], basis.mirror[j])):
            h[a, b] = np.nextafter(h[a, b], np.inf)
        with pytest.raises(ValidationError, match="not symmetric"):
            solve_by_symmetry(hamiltonian_entries(h), basis)

    def test_rejects_wrong_shape(self):
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=4, omega=1.0, hopping=0.7)
        )
        with pytest.raises(ValidationError, match="does not match"):
            solve_by_symmetry(h, TwoPhotonBasis(5))

    def test_unfactorable_block_is_a_validation_error(self):
        # hops of sqrt(2) * 1e308 overflow the block sums, so C is not finite
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=8, omega=1.0, hopping=1e308)
        )
        with np.errstate(over="ignore"):
            with pytest.raises(ValidationError, match="cannot be factored"):
                solve_by_symmetry(h, TwoPhotonBasis(8))

    def test_rejects_complex_matrix(self):
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=4, omega=1.0, hopping=0.7)
        )
        with pytest.raises(ValidationError, match="does not match"):
            solve_by_symmetry(
                hamiltonian_entries(dense_hamiltonian(h).astype(complex)),
                TwoPhotonBasis(4),
            )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_empty_sublattice_side_never_reaches_eigh(self, n, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(gram, *args, **kwargs):
            shapes.append(gram.shape)
            return eigh(gram, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=n, omega=1.0, hopping=0.7)
        )
        solution = solve_by_symmetry(h, TwoPhotonBasis(n))
        assert all(min(shape) > 0 for shape in shapes)
        sides = [(b.even_side.size, b.odd_side.size) for b in solution.blocks]
        assert len(shapes) == sum(min(side) > 0 for side in sides)
        assert shapes == [(even, even) for even, odd in sides if min(even, odd) > 0]
        for block, (even, odd) in zip(solution.blocks, sides):
            assert block.coupling.shape == (even, odd)
            assert block.u.shape == (even, min(even, odd))
            assert block.sigma.shape == (min(even, odd),)
        if n == 2:  # the odd block is the single label (1, 1) - (2, 2)
            assert sides == [(1, 1), (1, 0)]
            assert shapes == [(1, 1)]

    @pytest.mark.parametrize("n", [2, 3, 8, 29, 50])
    def test_factored_coupling_is_bitwise_the_folded_block(self, n, monkeypatch):
        factored = []
        eigh = np.linalg.eigh

        def recording_eigh(gram, *args, **kwargs):
            factored.append(gram.copy())
            return eigh(gram, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        basis = TwoPhotonBasis(n)
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=n, omega=1.3, hopping=0.37)
        )
        solution = solve_by_symmetry(h, basis)
        dense = dense_hamiltonian(h)
        pairs, fixed = solution.pairs, solution.fixed
        even_weights = np.concatenate(
            (np.ones(pairs.size), np.full(fixed.size, sqrt(0.5)))
        )
        even_labels = np.concatenate((pairs, fixed))
        expected = [
            dense_coupling(dense, basis, even_labels, even_weights, 1.0),
            dense_coupling(dense, basis, pairs, np.ones(pairs.size), -1.0),
        ]
        for block, want in zip(solution.blocks, expected):
            assert block.coupling.shape == want.shape
            assert block.coupling.tobytes() == want.tobytes()
        # the Gram matrix factored is that of C scaled by an exact power of two
        grams = []
        for c in expected:
            if c.size:
                scaled = np.ldexp(c, -np.frexp(np.abs(c).max())[1])
                grams.append(scaled @ scaled.T)
        assert len(factored) == len(grams) > 0
        for got, want in zip(factored, grams):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 29, 50])
    @pytest.mark.parametrize("omega, hopping", [(1.0, 0.7), (1.3, 0.37), (0.9, 0.0)])
    def test_bitwise_equal_to_dense_gather_reference(self, n, omega, hopping):
        basis = TwoPhotonBasis(n)
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=n, omega=omega, hopping=hopping)
        )
        solution = solve_by_symmetry(h, basis)
        dense = dense_hamiltonian(h)
        reference = dense_gather_blocks(dense, basis)
        for block, want in zip(solution.blocks, reference):
            assert len(block) == len(want)
            for got, expected in zip(block, want):
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
        center = dense[0, 0]
        sigma = np.concatenate([block[4] for block in reference])
        unpaired = np.full(basis.dimension - 2 * sigma.size, center)
        evals = np.sort(np.concatenate((center - sigma, unpaired, center + sigma)))
        assert solution.eigenvalues.tobytes() == evals.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hopping", [1e-300, 1e-200, 1e150, 1e300])
    def test_singular_values_scale_with_hopping(self, hopping):
        # C C^T of these chains leaves the double range unless C is first
        # scaled by a power of two: J^2 underflows to 0 or overflows to inf
        n = 8
        basis = TwoPhotonBasis(n)

        def singular_values(j):
            lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=j)
            solution = solve_by_symmetry(build_two_photon_hamiltonian(lattice), basis)
            return [block.sigma for block in solution.blocks]

        for got, unit in zip(singular_values(hopping), singular_values(1.0)):
            assert got.shape == unit.shape
            assert worst(got / hopping - unit) <= 1e-12 * unit.max()

    def test_build_and_solve_allocate_no_dense_square(self):
        # a D x D float64 H alone would be D^2 * 8 bytes; the solve's largest
        # arrays are the mirror blocks' C, its Gram matrix and U, about
        # (D/4)^2 apiece
        n = 50
        d = n * (n + 1) // 2
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=0.7)
        tracemalloc.start()
        try:
            solve_by_symmetry(build_two_photon_hamiltonian(lattice), TwoPhotonBasis(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8 / 2

    @pytest.mark.parametrize(
        "case, message",
        [
            ("unsorted", "not sorted"),
            ("repeated", "repeat"),
            ("past-the-end", "outside"),
            ("negative", "outside"),
            ("complex", "does not match"),
            ("wrong-dimension", "does not match"),
            ("zero-value", "nonzero"),
            ("ragged", "1-D arrays"),
            ("float-positions", "1-D arrays"),
        ],
    )
    def test_rejects_malformed_entries(self, case, message):
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=4, omega=1.0, hopping=0.7)
        )
        rows, cols, values = h[1:]
        changes = {
            "unsorted": {"rows": rows[::-1], "cols": cols[::-1], "values": values[::-1]},
            "repeated": {
                name: np.insert(part, 1, part[1])
                for name, part in (("rows", rows), ("cols", cols), ("values", values))
            },
            "past-the-end": {"cols": np.append(cols[:-1], h.dimension)},
            "negative": {"rows": np.insert(rows[1:], 0, -1)},
            "complex": {"values": values.astype(complex)},
            "wrong-dimension": {"dimension": h.dimension + 1},
            "zero-value": {"values": np.insert(values[1:], 0, 0.0)},
            "ragged": {"values": values[:-1]},
            "float-positions": {"rows": rows.astype(float)},
        }[case]
        with pytest.raises(ValidationError, match=message) as caught:
            solve_by_symmetry(h._replace(**changes), TwoPhotonBasis(4))
        assert "\n" not in str(caught.value)


class TestStateVector:
    LATTICE = LatticeSpec(num_cavities=2, omega=1.0, hopping=0.5)
    SOLUTION = solve_by_symmetry(build_two_photon_hamiltonian(LATTICE), TwoPhotonBasis(2))

    # no time to evolve to: the input itself is still checked
    @pytest.mark.parametrize("times", [[0.0, 1.0], []])
    @pytest.mark.parametrize("first", [1.0, float("nan")])
    def test_rejects_unnormalized(self, times, first):
        with pytest.raises(ValidationError, match="^state norm .* beyond 1e-12$"):
            evolve(np.array([first, 1.0, 0.0]), self.SOLUTION, times)

    @pytest.mark.parametrize(
        "state", [np.array([1.0, 0.0]), np.zeros(4), np.eye(3)[:1], np.array(1.0)]
    )
    def test_rejects_wrong_length(self, state):
        with pytest.raises(ValidationError, match=r"shape \(3,\) .* dimension 3,"):
            evolve(state, self.SOLUTION, [0.0])

    def test_noon_state_amplitudes(self):
        basis = TwoPhotonBasis(4)
        theta = 0.6
        state = noon_state(basis, NoonInput(theta=theta, site_r=2, site_s=3))
        assert state.shape == (basis.dimension,) and state.dtype == complex
        assert not state.flags.writeable
        assert state[basis.index(2, 2)] == pytest.approx(np.sin(theta))
        assert state[basis.index(3, 3)] == pytest.approx(np.cos(theta))
        assert np.count_nonzero(state) == 2

    def test_noon_state_rejects_site_beyond_basis(self):
        with pytest.raises(ValidationError):
            noon_state(TwoPhotonBasis(3), NoonInput(theta=0.3, site_r=1, site_s=5))


class TestEvolve:
    def test_time_zero_is_identity(self):
        lattice = LatticeSpec(num_cavities=4, omega=1.0, hopping=0.5)
        h = build_two_photon_hamiltonian(lattice)
        state = noon_state(TwoPhotonBasis(4), NoonInput(theta=0.4, site_r=1, site_s=3))
        (evolved,) = solved_evolve(state, h, [0.0])
        assert np.abs(evolved - state).max() < 1e-12

    def test_no_hopping_gives_global_phase(self):
        omega = 1.3
        lattice = LatticeSpec(num_cavities=4, omega=omega, hopping=0.0)
        h = build_two_photon_hamiltonian(lattice)
        state = noon_state(TwoPhotonBasis(4), NoonInput(theta=0.9, site_r=2, site_s=4))
        t = 7.7
        (evolved,) = solved_evolve(state, h, [t])
        expected = np.exp(-2j * omega * t) * state
        assert np.abs(evolved - expected).max() < 1e-12
        assert np.abs(
            np.abs(evolved) ** 2 - np.abs(state) ** 2
        ).max() < 1e-12

    def test_norm_preserved_over_long_times(self):
        lattice = LatticeSpec(num_cavities=8, omega=1.0, hopping=1.9)
        h = build_two_photon_hamiltonian(lattice)
        state = noon_state(TwoPhotonBasis(8), NoonInput(theta=1.1, site_r=3, site_s=4))
        for evolved in solved_evolve(state, h, (0.1, 50.0, 987.6)):
            assert abs(np.linalg.norm(evolved) - 1.0) < 1e-10

    def test_repeated_calls_are_bitwise_equal(self):
        lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=0.3)
        h = build_two_photon_hamiltonian(lattice)
        state = noon_state(TwoPhotonBasis(5), NoonInput(theta=0.5, site_r=1, site_s=5))
        first = solved_evolve(state, h, [3.0])[0]
        second = solved_evolve(state, h, [3.0])[0]
        assert np.array_equal(first, second)

    def test_all_times_in_one_call_match_one_call_per_time(self):
        lattice = LatticeSpec(num_cavities=6, omega=1.2, hopping=0.8)
        h = build_two_photon_hamiltonian(lattice)
        basis = TwoPhotonBasis(6)
        solution = solve_by_symmetry(h, basis)
        state = random_state(basis, np.random.default_rng(5))
        times = [4.0, 0.0, 4.0, 123.4, 0.5]  # unsorted, with a repeat
        together = evolve(state, solution, times)
        assert together.shape == (len(times), basis.dimension)
        assert not together.flags.writeable
        for t, evolved in zip(times, together):
            (alone,) = evolve(state, solution, [t])
            assert np.abs(evolved - alone).max() < 1e-14
        assert evolve(state, solution, []).shape == (0, basis.dimension)

    def test_rows_off_unit_norm_are_refused(self):
        # a corrupted factorization: U scaled by 2 no longer preserves the norm
        # (at t = 0 every term it enters is zero, so that row still passes)
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=5, omega=1.0, hopping=0.7)
        )
        basis = TwoPhotonBasis(5)
        solution = solve_by_symmetry(h, basis)
        even, odd = solution.blocks
        broken = solution._replace(blocks=(even._replace(u=2.0 * even.u), odd))
        state = random_state(basis, np.random.default_rng(8))
        assert evolve(state, broken, [0.0]).shape == (1, basis.dimension)
        with pytest.raises(ValidationError, match="^state norm .* beyond 1e-12$"):
            evolve(state, broken, [0.0, 1.3, 2.9])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1.0", True])
    def test_rejects_invalid_time(self, bad):
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=3, omega=1.0, hopping=0.5)
        )
        basis = TwoPhotonBasis(3)
        state = noon_state(basis, NoonInput(theta=0.5, site_r=1, site_s=2))
        with pytest.raises(ValidationError, match="time"):
            evolve(state, solve_by_symmetry(h, basis), [1.0, bad])

    @pytest.mark.parametrize(
        "times",
        [3.0, np.float64(3.0), np.array(3.0), np.zeros((2, 2)), None],
        ids=["float", "numpy-scalar", "0-d", "2-d", "none"],
    )
    def test_rejects_times_that_are_not_one_dimensional(self, times):
        basis = TwoPhotonBasis(3)
        solution = solve_by_symmetry(
            build_two_photon_hamiltonian(LatticeSpec(3, 1.0, 0.5)), basis
        )
        state = noon_state(basis, NoonInput(theta=0.5, site_r=1, site_s=2))
        with pytest.raises(ValidationError, match="^times must be a 1-d sequence"):
            evolve(state, solution, times)

    @pytest.mark.parametrize("case", ["random-complex-hermitian", "chain-n5"])
    def test_matches_matrix_exponential(self, case):
        rng = np.random.default_rng(29)
        basis = TwoPhotonBasis(5 if case == "chain-n5" else 4)
        d = basis.dimension
        if case == "chain-n5":
            lattice = LatticeSpec(num_cavities=5, omega=1.0, hopping=0.7)
            entries = build_two_photon_hamiltonian(lattice)
            h = dense_hamiltonian(entries)
            route, operand = solved_evolve, entries
        else:
            # no chain symmetry: the solver refuses it, and the dense
            # reference is checked on it instead
            raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = 0.5 * (raw + raw.conj().T)
            with pytest.raises(ValidationError):
                solve_by_symmetry(hamiltonian_entries(h), basis)
            route, operand = dense_evolve, h
        state = random_state(basis, rng)
        times = (0.0, 0.3, 4.1, 17.0, 50.0)
        for t, evolved in zip(times, route(state, operand, times)):
            expected = expm(-1j * h * t) @ state
            assert np.abs(evolved - expected).max() < 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_matches_matrix_exponential_over_long_windows(self, n):
        # At J t = 83.57 (fig1's window) and 1e3 the bound is the 1e-12
        # above.  Past that, every double-precision route, scipy's expm
        # included, is off the exact evolution by about the resolution
        # eps |E| t of its largest phase, so that is the bound there.
        hopping = 0.7
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=hopping)
        entries = build_two_photon_hamiltonian(lattice)
        h = dense_hamiltonian(entries)
        state = random_state(TwoPhotonBasis(n), np.random.default_rng(29))
        reach = np.abs(np.linalg.eigvalsh(h)).max()
        times = [jt / hopping for jt in (83.57, 1e3, 1e4, 1e5)]
        for t, evolved in zip(times, solved_evolve(state, entries, times)):
            bound = max(1e-12, np.finfo(float).eps * reach * t)
            assert np.abs(evolved - expm(-1j * h * t) @ state).max() < bound

    @pytest.mark.filterwarnings("error")
    def test_tiny_scale_chain_over_its_own_window(self):
        # omega = J = 1e-200 over J t up to 83.57 puts t near 1e202, where
        # (sin(St/2)/S)^2 alone overflows though every phase is finite
        basis = TwoPhotonBasis(8)
        state = random_state(basis, np.random.default_rng(3))
        jt = [0.3, 17.0, 83.57]
        tiny = LatticeSpec(num_cavities=8, omega=1e-200, hopping=1e-200)
        unit = LatticeSpec(num_cavities=8, omega=1.0, hopping=1.0)
        times = [x / 1e-200 for x in jt]
        got = solved_evolve(state, build_two_photon_hamiltonian(tiny), times)
        want = solved_evolve(state, build_two_photon_hamiltonian(unit), jt)
        assert np.abs(got - want).max() < 1e-12

    def test_dimension_mismatch(self):
        state = noon_state(TwoPhotonBasis(3), NoonInput(theta=0.5, site_r=1, site_s=2))
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=4, omega=1.0, hopping=0.5)
        )
        solution = solve_by_symmetry(h, TwoPhotonBasis(4))
        with pytest.raises(ValidationError):
            evolve(state, solution, [1.0])

    def test_two_site_matches_closed_form_at_random_times(self):
        lattice = LatticeSpec(num_cavities=2, omega=1.0, hopping=1.0)
        noon = NoonInput(theta=np.pi / 4, site_r=1, site_s=2)
        basis = TwoPhotonBasis(2)
        solution = solve_by_symmetry(build_two_photon_hamiltonian(lattice), basis)
        state = noon_state(basis, noon)
        times = np.random.default_rng(11).uniform(0.0, 40.0, size=20)
        for t, amplitudes in zip(times, evolve(state, solution, times)):
            reference = oracle_correlation(basis, amplitudes)
            closed = correlation_matrix(lattice, noon, [t])[0]
            assert np.abs(reference - closed).max() < 1e-10


class TestOracleCorrelation:
    def test_initial_noon_state(self):
        basis = TwoPhotonBasis(6)
        state = noon_state(basis, NoonInput(theta=np.pi / 4, site_r=2, site_s=5))
        p = oracle_correlation(basis, state)
        assert p[1, 1] == pytest.approx(1.0, abs=1e-15)
        assert p[4, 4] == pytest.approx(1.0, abs=1e-15)
        assert p.sum() == pytest.approx(2.0, abs=1e-12)
        eta = 1.0 - p.trace() / 2.0
        assert abs(eta) < 1e-12

    def test_uniform_pair_superposition_fully_delocalized(self):
        basis = TwoPhotonBasis(3)
        amps = np.zeros(basis.dimension, dtype=complex)
        for pair in ((1, 2), (1, 3), (2, 3)):
            amps[basis.index(*pair)] = 1.0 / np.sqrt(3.0)
        p = oracle_correlation(basis, amps)
        off = p[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0 / 3.0, atol=1e-12)
        assert np.all(p.diagonal() == 0.0)
        assert 1.0 - p.trace() / 2.0 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_bitwise_equal_to_loop_reference(self, n):
        rng = np.random.default_rng(n)
        basis = TwoPhotonBasis(n)
        state = random_state(basis, rng)
        p = oracle_correlation(basis, state)
        assert p.tobytes() == loop_correlation(basis, state).tobytes()
        assert not p.flags.writeable

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_all_rows_bitwise_equal_one_call_per_row(self, n):
        lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=0.6)
        basis = TwoPhotonBasis(n)
        solution = solve_by_symmetry(build_two_photon_hamiltonian(lattice), basis)
        state = random_state(basis, np.random.default_rng(n))
        amplitudes = evolve(state, solution, [0.0, 0.4, 3.1, 17.0, 250.0])
        together = oracle_correlation(basis, amplitudes)
        assert together.shape == (5, n, n)
        assert not together.flags.writeable
        for p, row in zip(together, amplitudes):
            assert p.tobytes() == oracle_correlation(basis, row).tobytes()

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (6, 2), (1, 2, 6), ()])
    def test_rejects_amplitudes_off_the_basis(self, shape):
        with pytest.raises(ValidationError, match="amplitudes must have shape"):
            oracle_correlation(TwoPhotonBasis(3), np.zeros(shape, dtype=complex))

    def test_random_state_total_pair_count(self):
        rng = np.random.default_rng(3)
        basis = TwoPhotonBasis(5)
        state = random_state(basis, rng)
        assert abs(oracle_correlation(basis, state).sum() - 2.0) < 1e-12


@pytest.mark.filterwarnings("error")  # refused before any overflowing operation
class TestOverflowRefusals:
    @pytest.mark.parametrize(
        "omega, hopping, entry",
        [
            (1e308, 0.5, r"entry 2 \* omega is inf"),
            (9e307, 0.5, r"entry 2 \* omega is inf"),
            (1.0, 1.5e308, r"entry sqrt\(2\) \* hopping is inf"),
        ],
    )
    def test_overflowing_entry_is_refused(self, omega, hopping, entry):
        lattice = LatticeSpec(num_cavities=8, omega=omega, hopping=hopping)
        with pytest.raises(ValidationError, match=entry):
            build_two_photon_hamiltonian(lattice)

    def test_overflowing_band_edge_is_refused(self):
        # every entry is finite, but 2 omega + sigma (sigma near 4 J) is not
        h = build_two_photon_hamiltonian(
            LatticeSpec(num_cavities=8, omega=8e307, hopping=1e307)
        )
        with pytest.raises(ValidationError, match=r"d \+ sigma is inf"):
            solve_by_symmetry(h, TwoPhotonBasis(8))

    @pytest.mark.parametrize(
        "hopping, t, product",
        [(1.0, 1e308, r"diagonal \* t is inf"), (1e10, -1e300, r"sigma \* t is inf")],
    )
    def test_overflowing_phase_is_refused(self, hopping, t, product):
        lattice = LatticeSpec(num_cavities=8, omega=1.0, hopping=hopping)
        basis = TwoPhotonBasis(8)
        solution = solve_by_symmetry(build_two_photon_hamiltonian(lattice), basis)
        state = noon_state(basis, NoonInput(theta=0.3, site_r=2, site_s=3))
        with pytest.raises(ValidationError, match=product):
            evolve(state, solution, [0.0, t])
