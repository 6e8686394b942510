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

    G[j, l](t) = sum_k exp(-i Omega_k t) S(j, k) S(l, k)
               = exp(-i omega t) (c_|j-l|(t) - c_(j+l)(t)),

with c_d(t) = (1/(N+1)) sum_k exp(-2 i J t cos theta_k) cos(d theta_k) and
theta_k = pi k/(N+1).  One real FFT of length 2(N+1) per time point gives
every c_d (the DCT-I as an FFT, Martucci, IEEE TSP 42, 1038 (1994)), so
columns cost O(N log N) per time point however many are requested and S
is never built; the full matrix is an O(N^2) index fill.

``propagator_block`` is the one kernel: the real columns R_l of any sites
at any times, as one (sites, times, N) array.  ``propagator`` adds the
carrier exp(-i omega t), one factor per time, to give the complex G.  All
functions are pure and all returned arrays are read-only, so values are
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, checked_array, checked_int, checked_real

# bounds the N x N outputs: correlation writes N^2 rows, 25 million at this size
MAX_CAVITIES = 5000


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

    ``frequencies`` holds the mode frequencies Omega_k, decreasing in k and
    confined to [omega - 2J, omega + 2J].  ``transform`` is the symmetric,
    involutory N x N matrix S (S @ S = I), built on each access: the kernel
    never reads it, so it serves as the independent dense reference.
    """

    lattice: LatticeSpec
    frequencies: np.ndarray

    @property
    def num_cavities(self) -> int:
        return self.lattice.num_cavities

    @property
    def transform(self) -> np.ndarray:
        """Dense S, bitwise symmetric because the sine argument grid j*k is."""
        n = self.num_cavities
        j = np.arange(1, n + 1, dtype=float)
        s = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * (np.pi / (n + 1)))
        return _readonly(s)


def decompose(lattice: LatticeSpec) -> SpectralDecomposition:
    """Exact normal-mode decomposition of the chain.

    Parameters
    ----------
    lattice : LatticeSpec

    Returns
    -------
    SpectralDecomposition
        The lattice and its mode frequencies Omega_k.  Deterministic and
        pure; O(N), since nothing N x N is built.
    """
    n = lattice.num_cavities
    k = np.arange(1, n + 1, dtype=float)
    freqs = lattice.omega + 2.0 * lattice.hopping * np.cos(k * (np.pi / (n + 1)))
    return SpectralDecomposition(lattice=lattice, frequencies=_readonly(freqs))


def propagator_block(decomp: SpectralDecomposition, sites, times) -> np.ndarray:
    """Real columns R_l(t) for each 1-based site l and each finite time t.

    G[j, l](t) = exp(-i omega t) i^((j - l) mod 2) R_l[j](t), where
    R_l[j] = X[|j - l|] - X[min(j + l, 2(N+1) - j - l)] is a Toeplitz minus
    a Hankel fill from the mode sums X of ``_mode_sums``; a negative t is
    time-reversed evolution.  Returns a read-only (len(sites), len(times), N)
    array whose rows at t == 0 are exact unit vectors: G(0) = I exactly.
    """
    n = decomp.num_cavities
    index = checked_array(sites, "cavity index", int, 1, n)[:, None]
    j = np.arange(1, n + 1)
    far = j + index
    sums = _mode_sums(decomp, checked_array(times, "time"))
    columns = sums[:, np.abs(j - index)] - sums[:, np.minimum(far, 2 * (n + 1) - far)]
    return _readonly(np.moveaxis(columns, 1, 0))


def propagator(decomp: SpectralDecomposition, sites, times) -> np.ndarray:
    """Complex columns G[:, l](t) = S diag(exp(-i Omega t)) S e_l.

    ``propagator_block`` times exp(-i omega t) i^((j - l) mod 2), in its
    layout.  Over all sites, ``[:, k]`` is the whole matrix G(t_k), exactly
    symmetric, and depends on t_k alone, bit for bit.
    """
    real = propagator_block(decomp, sites, times)
    carrier = np.exp(-1j * decomp.lattice.omega * np.asarray(times, dtype=float))
    odd = (np.arange(1, decomp.num_cavities + 1) - np.asarray(sites)[:, None]) % 2
    return _readonly(real * (carrier[:, None] * np.where(odd, 1j, 1.0)[:, None]))


def _mode_sums(decomp: SpectralDecomposition, times) -> np.ndarray:
    """X[:, d] = (1/(N+1)) sum_k x_k cos(d theta_k), d = 0..N+1, one row per time.

    The one place where mode phases are formed.  With theta_k = pi k/(N+1)
    and a_k = 2 J t cos(theta_k), x_k = cos(a_k) - sin(a_k); the carrier
    omega is left out (it is a global phase).  The mirror mode N+1-k flips
    a_k, so cos and sin are taken for the first ceil(N/2) modes only.  x is
    extended evenly to length 2(N+1), so one real FFT per time point gives
    the whole (real) row in O(N log N).  c_d = i^(d mod 2) X[d] is the
    carrier-free amplitude sum (1/(N+1)) sum_k exp(-i a_k) cos(d theta_k):
    the mirror pairs cancel the sin part for even d and the cos part for
    odd d.  Rows at t == 0 are exactly e_0.
    """
    n = decomp.num_cavities
    half, mirrored = (n + 1) // 2, n // 2
    cos_theta = np.cos(np.arange(1, half + 1) * (np.pi / (n + 1)))
    a = np.multiply.outer(2.0 * decomp.lattice.hopping * times, cos_theta)
    cos_a, sin_a = np.cos(a), np.sin(a)
    x = np.zeros((times.size, 2 * (n + 1)))
    x[:, 1 : half + 1] = cos_a - sin_a
    x[:, n + 1 - mirrored : n + 1] = (cos_a + sin_a)[:, mirrored - 1 :: -1]
    x[:, n + 2 :] = x[:, n:0:-1]
    sums = np.fft.rfft(x, axis=1).real / (2 * (n + 1))
    sums[times == 0.0] = np.arange(n + 2) == 0
    return sums
