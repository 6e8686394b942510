"""NOON-type two-photon inputs and the observables built on the propagator.

The input state puts both photons in cavity r with amplitude sin(theta) or
both in cavity s with amplitude cos(theta):

    |psi> = sin(theta) |2>_r |0>_s + cos(theta) |0>_r |2>_s,

restricted to 0 <= theta <= pi/2.  Its entanglement is the concurrence
C(theta) = |sin 2 theta|.

The propagator columns are G[n, l] = exp(-i omega t) i^((n - l) mod 2) R_l[n]
with R_l real (see ``lattice``).  Expanding the coincidence expectation
value on the input above, the carrier and the site phases factor out of
the two-photon amplitude and leave one real N x N matrix,

    A[m, n] = sin(theta) x_m x_n + (-1)^(r+s) cos(theta) y'_m y'_n,

with x = R_r, y = R_s and y'_m = (-1)^((r+s) m) y_m.  Both observables are
read off A.  The coincidence matrix (probability density of detecting one
photon at cavity m and one at n) is the real square

    P[m, n](t) = 2 A[m, n]^2
               = 2 |sin(theta) G[m, r] G[n, r] + cos(theta) G[m, s] G[n, s]|^2,

with both-photons-at-n probability P[n, n]/2 = A[n, n]^2, and the
two-photon delocalization (TPD) degree, the probability that the photons
sit in different cavities, is

    eta(t) = 1 - sum_n A[n, n]^2
           = sin^2 theta (1 - sum x^4) + cos^2 theta (1 - sum y^4)
             - 2 (-1)^(r+s) sin theta cos theta sum x^2 y^2,

with the 1 folded into the first two terms (sin^2 + cos^2 = 1): G(0) = I
gives eta(0) = 0 exactly.  The weight assignment (sin with r, cos with s)
is what ``ccawalk verify`` cross-checks against the brute-force reference;
it flags a swapped assignment.

Everything here is pure, takes the ``LatticeSpec`` itself and returns
plain read-only arrays: ``tpd_family`` one (inputs, times) eta array,
``correlation_matrix`` one (times, N, N) array.  Both read the two real
columns r and s from the one kernel.  Eta costs O(N log N) per time
point and the coincidence matrix O(N^2); angles on one site pair share
one pair of columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, cos, pi, sin

import numpy as np

from .errors import (
    ValidationError,
    checked_array,
    checked_choice,
    checked_int,
    checked_real,
)
from .lattice import LatticeSpec, propagator_block, propagator_blocks


@dataclass(frozen=True)
class NoonInput:
    """Two-photon NOON-type input: superposition angle and the two cavities.

    ``theta`` must lie in [0, pi/2]; ``site_r`` and ``site_s`` are distinct
    1-based cavity indices (range against N is checked at evaluation time).
    """

    theta: float
    site_r: int
    site_s: int

    def __post_init__(self) -> None:
        theta = checked_real(self.theta, "theta", 0.0, pi / 2)
        for name in ("site_r", "site_s"):
            object.__setattr__(self, name, checked_int(getattr(self, name), name, 1))
        if self.site_r == self.site_s:
            raise ValidationError("site_r and site_s must differ")
        object.__setattr__(self, "theta", theta)


def concurrence(noon: NoonInput) -> float:
    """Entanglement of the input state, C = |sin(2 theta)|, in [0, 1]."""
    return abs(sin(2.0 * noon.theta))


def theta_for_concurrence(c: float, branch: str = "low") -> float:
    """Invert C = |sin 2 theta| on [0, pi/2].

    The map is two-to-one, so ``branch`` picks the solution:
    ``"low"`` gives theta = arcsin(c)/2 in [0, pi/4], ``"high"`` gives
    theta = pi/2 - arcsin(c)/2 in [pi/4, pi/2].
    """
    c = checked_real(c, "concurrence", 0.0, 1.0)
    if checked_choice(branch, "branch", ("low", "high")) == "low":
        return asin(c) / 2.0
    return pi / 2.0 - asin(c) / 2.0


def correlation_matrix(lattice: LatticeSpec, noon: NoonInput, times) -> np.ndarray:
    """Coincidence matrices P[m, n](t) = 2 A[m, n]^2 for the NOON-type input.

    Reads the real columns x = R_r and y = R_s from one kernel call over
    every time, then forms A per time from two outer products: O(N^2)
    each.  Every product x_m x_n is formed before it is scaled, so P is
    symmetric bit for bit.  Returns a read-only (len(times), N, N) array
    whose matrices sum to 2 up to roundoff (a consequence of propagator
    unitarity); each depends on its own time alone, bit for bit.
    """
    r, s = noon.site_r, noon.site_s
    x, y = propagator_block(lattice, [r, s], times)
    y = y * (-1.0) ** ((r + s) * np.arange(1, lattice.num_cavities + 1))  # y'
    p = x[:, :, None] * x[:, None, :]
    p *= sin(noon.theta)
    yy = y[:, :, None] * y[:, None, :]
    yy *= (-1.0) ** (r + s) * cos(noon.theta)
    p += yy
    np.square(p, out=p)
    p *= 2.0
    p.setflags(write=False)
    return p


# (time, cavity) pairs per block: 64 KB per buffer, so a block stays in L2;
# the kernel's buffers and the squares here are allocated once per call
_BLOCK_ELEMENTS = 1 << 13
# at least this many times per block, which amortizes numpy's per-call FFT setup
_MIN_BLOCK_TIMES = 16


def tpd_family(lattice: LatticeSpec, noons: list[NoonInput], t_grid) -> np.ndarray:
    """Eta of several inputs that share one site pair, on one time grid.

    The two real propagator columns come from one ``propagator_blocks``
    call, one L2-sized block of times at a time, and their squares and
    products reuse two buffers across blocks; each input then adds O(1) per
    time point (the all-real form above).  The grid must be strictly
    increasing and non-negative.  Returns a read-only (len(noons),
    len(t_grid)) array, one row per input, in order.
    """
    if not noons or len({(noon.site_r, noon.site_s) for noon in noons}) != 1:
        raise ValidationError("an eta family needs inputs on exactly one site pair")
    times = checked_array(t_grid, "time grid", low=0.0)
    if not np.all(np.diff(times) > 0.0):
        raise ValidationError("time grid must be strictly increasing")

    w_r = np.array([[sin(noon.theta)] for noon in noons])  # one row per input
    w_s = np.array([[cos(noon.theta)] for noon in noons])
    site_r, site_s = noons[0].site_r, noons[0].site_s
    cross = -2.0 * (-1.0) ** (site_r + site_s) * w_r * w_s
    eta = np.empty((len(noons), times.size), dtype=float)
    n = lattice.num_cavities
    step = max(_MIN_BLOCK_TIMES, _BLOCK_ELEMENTS // n)
    squares = np.empty((2, min(step, times.size), n))
    products = np.empty(squares.shape[1:])
    for block, columns in propagator_blocks(lattice, [site_r, site_s], times, step):
        rows = columns.shape[1]
        a, b = np.square(columns, out=squares[:, :rows])
        scratch = products[:rows]
        norm_r = 1.0 - np.sum(np.multiply(a, a, out=scratch), axis=1)
        norm_s = 1.0 - np.sum(np.multiply(b, b, out=scratch), axis=1)
        overlap = np.sum(np.multiply(a, b, out=scratch), axis=1)
        eta[:, block] = w_r**2 * norm_r + w_s**2 * norm_s + cross * overlap
    eta.setflags(write=False)
    return eta
