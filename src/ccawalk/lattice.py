"""Uniform coupled-cavity chain: normal modes and single-photon propagator.

The chain is open (no periodic wrap), with N identical single-mode cavities
of frequency ``omega`` and nearest-neighbour photon hopping ``J`` (hbar = 1
throughout, so time carries inverse-energy units).  Such a chain is
diagonalized exactly by the discrete sine transform

    S(j, k) = sqrt(2 / (N + 1)) * sin(j * pi * k / (N + 1)),

with mode frequencies

    Omega_k = omega + 2 J cos(pi * k / (N + 1)),        k = 1 .. N.

The single-photon transition amplitude from cavity l to cavity j after
time t is

    G[j, l](t) = sum_k exp(-i Omega_k t) S(j, k) S(l, k),

computed here by one kernel, for the full N x N matrix or selected
columns.  All functions are pure and all returned arrays are read-only, so
values are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, checked_int, checked_real

MAX_CAVITIES = 5000  # the dense N x N transform S takes 200 MB at this size


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LatticeSpec:
    """Parameters of a uniform open chain of coupled cavities.

    Attributes
    ----------
    num_cavities : int
        Number of cavities N, between 2 and ``MAX_CAVITIES`` (5000).
    omega : float
        Bare cavity frequency, strictly positive (hbar = 1).
    hopping : float
        Nearest-neighbour coupling strength J, non-negative, in the same
        energy unit as ``omega``.
    """

    num_cavities: int
    omega: float
    hopping: float

    def __post_init__(self) -> None:
        n = checked_int(self.num_cavities, "num_cavities", 2, MAX_CAVITIES)
        omega = checked_real(self.omega, "omega")
        if not omega > 0:
            raise ValidationError(f"omega must be > 0, got {omega}")
        object.__setattr__(self, "num_cavities", n)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "hopping", checked_real(self.hopping, "hopping", 0.0))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Sine-transform normal modes of a chain.

    ``transform`` is the symmetric, involutory N x N matrix S (S @ S = I),
    ``frequencies`` the mode frequencies Omega_k, decreasing in k and
    confined to [omega - 2J, omega + 2J].
    """

    transform: np.ndarray
    frequencies: np.ndarray

    @property
    def num_cavities(self) -> int:
        return self.transform.shape[0]


@dataclass(frozen=True)
class PropagatorMatrix:
    """Full single-photon propagator G(t), an N x N unitary symmetric matrix."""

    time: float
    entries: np.ndarray


@dataclass(frozen=True)
class PropagatorColumn:
    """One column G[:, site](t): amplitudes to reach each cavity from ``site``."""

    time: float
    site: int
    amplitudes: np.ndarray


def decompose(lattice: LatticeSpec) -> SpectralDecomposition:
    """Exact normal-mode decomposition of the chain.

    Parameters
    ----------
    lattice : LatticeSpec

    Returns
    -------
    SpectralDecomposition
        Transform matrix S and mode frequencies Omega_k.  Deterministic and
        pure; S comes out bitwise symmetric because the sine argument grid
        j*k is itself symmetric.
    """
    n = lattice.num_cavities
    j = np.arange(1, n + 1, dtype=float)
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * (np.pi / (n + 1)))
    freqs = lattice.omega + 2.0 * lattice.hopping * np.cos(j * (np.pi / (n + 1)))
    return SpectralDecomposition(transform=_readonly(s), frequencies=_readonly(freqs))


def propagator_matrix(decomp: SpectralDecomposition, t: float) -> PropagatorMatrix:
    """Full propagator G(t) = S diag(exp(-i Omega t)) S.

    Negative ``t`` is accepted and means time-reversed evolution; the
    formula imposes no sign restriction.  Built from all N columns of the
    one kernel, then symmetrized so G[j, l] == G[l, j] holds exactly.
    """
    t = checked_real(t, "time")
    g = _column_block(decomp, range(1, decomp.num_cavities + 1), np.array([t]))[:, 0]
    g = 0.5 * (g + g.T)
    return PropagatorMatrix(time=t, entries=_readonly(g))


def propagator_columns(
    decomp: SpectralDecomposition, t: float, sites: list[int]
) -> list[PropagatorColumn]:
    """Selected columns of G(t) without forming the full matrix.

    Each requested column costs O(N^2), independent of how many columns are
    requested; this is the fast path behind the pair-correlation and
    delocalization observables, which only ever need two columns.

    Parameters
    ----------
    decomp : SpectralDecomposition
    t : float
        Evaluation time (negative allowed, see ``propagator_matrix``).
    sites : list of int
        1-based cavity indices; each must lie in 1..N.

    Returns
    -------
    list of PropagatorColumn, in the order the sites were requested.
    """
    t = checked_real(t, "time")
    columns = _column_block(decomp, sites, np.array([t]))[:, 0]
    return [PropagatorColumn(t, int(site), g) for site, g in zip(sites, columns)]


def _column_block(decomp: SpectralDecomposition, sites, times) -> np.ndarray:
    """G[:, site](t) for each site and each entry of the 1-d array ``times``.

    The one place where the mode phases meet S (one matrix product per
    site).  Returns a read-only (len(sites), len(times), N) array whose
    rows at t == 0 are exact unit vectors: G(0) = I exactly.
    """
    n = decomp.num_cavities
    index = np.array(
        [checked_int(site, "cavity index", 1, n) - 1 for site in sites], dtype=int
    )
    s = decomp.transform
    phases = np.exp(-1j * np.outer(times, decomp.frequencies))
    columns = (s[index, None, :] * phases) @ s
    columns[:, times == 0.0] = (np.arange(n) == index[:, None])[:, None, :]
    return _readonly(columns)

