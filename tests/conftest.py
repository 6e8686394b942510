from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ccawalk import propagator_block, tpd_family
from ccawalk.oracle import HamiltonianEntries

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return REPO_ROOT / "scenarios"


def sometimes(strategy, otherwise):
    """``strategy`` one time in eight, else ``otherwise``."""
    pick = st.sampled_from([False] * 7 + [True])
    return pick.flatmap(lambda chosen: strategy if chosen else otherwise)


def read_csv(path):
    """Split an output file into comment lines, header columns, data rows."""
    comments, header, rows = [], None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def complex_propagator(lattice, sites, times):
    """Complex columns G[:, l](t), read-only, in ``propagator_block``'s layout.

    G[j, l](t) = exp(-i omega t) i^((j - l) mod 2) R_l[j](t): the real
    columns times the carrier, one factor per time.  Over all sites,
    ``[:, k]`` is the whole matrix G(t_k).
    """
    real = propagator_block(lattice, sites, times)
    carrier = np.exp(-1j * lattice.omega * np.asarray(times, dtype=float))
    odd = (np.arange(1, lattice.num_cavities + 1) - np.asarray(sites)[:, None]) % 2
    g = real * (carrier[:, None] * np.where(odd, 1j, 1.0)[:, None])
    g.setflags(write=False)
    return g


def full_propagator(lattice, t):
    """G(t) as an N x N matrix: every site at one time (G is symmetric)."""
    sites = np.arange(1, lattice.num_cavities + 1)
    return complex_propagator(lattice, sites, [t])[:, 0]


def tpd_degree(lattice, noon, t):
    """Eta at one time: one point of ``tpd_family``."""
    return float(tpd_family(lattice, [noon], [t])[0, 0])


def diagonal_mass(p):
    """Total same-cavity probability of a coincidence matrix, sum_n P[n, n] / 2."""
    return float(np.trace(p) / 2.0)


def sine_transform(lattice):
    """Dense sine transform S, the independent reference the kernel never builds.

    Symmetric and involutory (S @ S = I); bitwise symmetric because the sine
    argument grid j*k is.
    """
    n = lattice.num_cavities
    j = np.arange(1, n + 1, dtype=float)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * (np.pi / (n + 1)))


def pair_labels(n):
    """Two-photon basis labels (m, k), m <= k, in basis order (``np.triu_indices``)."""
    m, k = np.triu_indices(n)
    return tuple(zip((m + 1).tolist(), (k + 1).tolist()))


def dense_hamiltonian(h):
    """The D x D array of a Hamiltonian given by its nonzero entries."""
    dense = np.zeros((h.dimension, h.dimension), dtype=h.values.dtype)
    dense[h.rows, h.cols] = h.values
    return dense


def hamiltonian_entries(dense):
    """The nonzero entries of a dense D x D matrix, sorted by (row, col)."""
    rows, cols = np.nonzero(dense)
    return HamiltonianEntries(len(dense), rows, cols, dense[rows, cols])
