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
columns r and s from the one kernel, run on the window of W <= N
cavities that the photons reach (``lattice.light_cone``): eta on the
window of the grid's last time, at O(W log W) per time point, with the
angles on one site pair sharing one pair of columns; the coincidence
matrix on the window of each time's own |t|, at O(W^2) per time, with
exact zeros outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, cos, pi, sin

import numpy as np

from .errors import ValidationError, checked_array, checked_int, checked_real
from .lattice import LatticeSpec, light_cone, propagator_block, propagator_blocks


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


def theta_for_concurrence(c: float) -> float:
    """Invert C = |sin 2 theta| on [0, pi/4]: theta = arcsin(c)/2.

    The other angle of that concurrence, pi/2 - theta, is the same input
    with the sites exchanged: ``NoonInput(pi/2 - theta, r, s)`` is
    ``NoonInput(theta, s, r)``.
    """
    return asin(checked_real(c, "concurrence", 0.0, 1.0)) / 2.0


def _window(
    lattice: LatticeSpec, sites: list[int], t_max: float
) -> tuple[int, LatticeSpec, tuple[int, ...]]:
    """The ``light_cone`` window of ``sites`` up to |t| = t_max, as a chain of its own.

    Returns (first, window, relabelled): the window's first cavity on the
    chain, a ``LatticeSpec`` of its W cavities, and ``sites`` relabelled
    onto it, so that r + s keeps its parity.  A window that spans the chain
    is the chain itself.
    """
    first, last = light_cone(lattice, sites, t_max)
    window = LatticeSpec(last - first + 1, lattice.omega, lattice.hopping)
    return first, window, tuple(site - first + 1 for site in sites)


def correlation_matrix(lattice: LatticeSpec, noon: NoonInput, times) -> np.ndarray:
    """Coincidence matrices P[m, n](t) = 2 A[m, n]^2 for the NOON-type input.

    Each time runs on the ``light_cone`` window of W cavities that the
    photons reach by its own |t|: one kernel call per distinct window reads
    the real columns x = R_r and y = R_s there at each of its times, and A
    comes from two outer products, O(W^2) per time.
    P is written into that block of a zeroed (len(times), N, N) array and
    is exactly 0 outside it, where the true P is below 3e-36; a window that
    spans the chain gives the whole chain's P.  Every product x_m x_n is
    formed before it is scaled, so P is symmetric bit for bit.  Returns a
    read-only array whose matrices sum to 2 up to roundoff (a consequence
    of propagator unitarity); each depends on its own time alone, bit for
    bit.
    """
    r, s = noon.site_r, noon.site_s
    w_r, w_s = sin(noon.theta), (-1.0) ** (r + s) * cos(noon.theta)
    times = checked_array(times, "time")
    n = lattice.num_cavities
    p = np.zeros((times.size, n, n))
    windows: dict[tuple, list[int]] = {}
    for index, t in enumerate(times):
        windows.setdefault(_window(lattice, [r, s], t), []).append(index)
    for (first, window, sites), indices in windows.items():
        cavities = np.arange(first, first + window.num_cavities)
        sign = (-1.0) ** ((r + s) * cavities)
        cut = slice(first - 1, first - 1 + cavities.size)
        for index, x, y in zip(indices, *propagator_block(window, sites, times[indices])):
            y = y * sign  # y'
            block = p[index, cut, cut]
            np.multiply(x[:, None], x, out=block)
            block *= w_r
            yy = y[:, None] * y
            yy *= w_s
            block += yy
            np.square(block, out=block)
            block *= 2.0
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
    time point (the all-real form above).  The call runs on the
    ``light_cone`` window of the site pair up to the grid's last time, as a
    chain of its own with the sites relabelled: eta moves by at most
    8 2^-60, and a window that spans the chain is the chain itself.  The
    grid must be strictly increasing and non-negative.  Returns a read-only
    (len(noons), len(t_grid)) array, one row per input, in order.
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
    _, window, sites = _window(lattice, [site_r, site_s], times[-1])
    n = window.num_cavities
    step = max(_MIN_BLOCK_TIMES, _BLOCK_ELEMENTS // n)
    squares = np.empty((2, min(step, times.size), n))
    products = np.empty(squares.shape[1:])
    for block, columns in propagator_blocks(window, sites, times, step):
        rows = columns.shape[1]
        a, b = np.square(columns, out=squares[:, :rows])
        scratch = products[:rows]
        norm_r = 1.0 - np.sum(np.multiply(a, a, out=scratch), axis=1)
        norm_s = 1.0 - np.sum(np.multiply(b, b, out=scratch), axis=1)
        overlap = np.sum(np.multiply(a, b, out=scratch), axis=1)
        eta[:, block] = w_r**2 * norm_r + w_s**2 * norm_s + cross * overlap
    eta.setflags(write=False)
    return eta
