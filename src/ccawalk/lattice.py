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
theta_k = pi k/(N+1).  One real FFT of length N+1 per time point and a
running sum give every c_d (the DCT-I as a half-length FFT, as FFTPACK's
COST computes it; see ``_mode_sums``), so columns cost O(N log N) per time
point however many are requested and S is never built; each column is then
four contiguous slice copies, and the full matrix an O(N^2) fill.

Every function takes the ``LatticeSpec`` itself and reads only N, omega
and J from it.  ``band_frequencies`` gives the band 2 J cos(theta_k), which
verify's spectrum check reads, and ``mode_frequencies`` adds omega to it.
``mode_phase`` forms 2 J t for the config, the kernel and ``light_cone``.
``propagator_blocks`` is the one kernel: the real columns R_l of any sites
over consecutive blocks of times.  It checks its inputs, forms the mode
constants and allocates every per-block buffer once per call, then refills
those buffers block by block; ``propagator_block`` is its one-block case.
The carrier exp(-i omega t) is a global phase, so every caller reads only
these real columns and no complex G is formed.  ``light_cone`` gives the
sub-chain that holds the columns of given sites up to a time, so a caller
can run the kernel on that window alone.  All functions are pure and
return read-only arrays, so values are safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import floor, log, log1p, sqrt

import numpy as np

from .errors import (
    ValidationError,
    checked_array,
    checked_int,
    checked_products,
    checked_real,
)

# bounds the N x N outputs: correlation writes N^2 rows, 25 million at this size
MAX_CAVITIES = 5000
# ln of what one cut bond of a light-cone window may move a column by, in 2-norm
_LOG_CUT_ERROR = -61.0 * log(2.0)


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


def band_frequencies(lattice: LatticeSpec) -> np.ndarray:
    """Omega_k - omega = J (2 cos theta_k), read-only; inf past the double range."""
    n = lattice.num_cavities
    k = np.arange(1, n + 1, dtype=float)
    with np.errstate(over="ignore"):
        return _readonly(lattice.hopping * (2.0 * np.cos(k * (np.pi / (n + 1)))))


def mode_frequencies(lattice: LatticeSpec) -> np.ndarray:
    """Mode frequencies Omega_k = omega + ``band_frequencies``, as a read-only array.

    Decreasing in k and confined to [omega - 2J, omega + 2J].  O(N); the
    propagator never reads them, since the sine transform is never built.
    A band edge beyond the double range is refused, not returned as inf.
    """
    with np.errstate(over="ignore"):
        freqs = lattice.omega + band_frequencies(lattice)
    edge = np.flatnonzero(~np.isfinite(freqs))
    if edge.size:
        raise ValidationError(
            f"mode frequency Omega_{edge[0] + 1} = omega + 2 J cos(pi {edge[0] + 1}/"
            f"{freqs.size + 1}) overflows at omega {lattice.omega}, J {lattice.hopping}"
        )
    return _readonly(freqs)


def mode_phase(lattice: LatticeSpec, t, what: str | None = None):
    """2 J t, which scales every mode phase a_k = 2 J t cos(theta_k).

    The one place it is formed, as 2 * (J * t), for a float or an array t.
    Given ``what``, a float t whose phase is not finite is refused as
    ``what`` out of range, with the product named ``2 * hopping * t``.
    """
    phase = 2.0 * (lattice.hopping * t)
    if what is not None:
        checked_products(what, [("2 * hopping * t", phase)])
    return phase


def propagator_blocks(
    lattice: LatticeSpec, sites, times, block_times: int | None = None
) -> Iterator[tuple[slice, np.ndarray]]:
    """Real columns R_l(t), ``block_times`` times at a time (default: all at once).

    Yields ``(block, columns)`` for consecutive blocks of ``times``:
    ``block`` is the slice of ``times`` covered and ``columns`` the
    read-only (len(sites), block length, N) array of ``propagator_block``
    for those times.  ``columns`` is a view of one buffer that the next
    block overwrites, so read or copy it before advancing.  Sites and times
    are checked once, and a time whose mode phase 2 J t is not finite is
    refused; the mode constants and buffers are made once per call, and
    every row is bit for bit the row a one-time call gives.
    """
    n = lattice.num_cavities
    index = checked_array(sites, "cavity index", int, 1, n).tolist()
    times = checked_array(times, "time")
    reach = float(np.abs(times).max())
    mode_phase(lattice, reach, f"time {reach}")
    if block_times is None:
        size = times.size
    else:
        size = checked_int(block_times, "block_times", 1)
    columns = np.empty((len(index), min(size, times.size), n))
    start = 0
    for sums in _mode_sums(lattice, times, size):
        rows = sums.shape[0]
        block = columns[:, :rows]
        for column, l in zip(block, index):
            # |j - l| runs down to 0 and up again; j + l runs up to N + 1 and
            # reflects back down
            column[:, :l] = sums[:, l - 1 :: -1]
            column[:, l:] = sums[:, 1 : n + 1 - l]
            column[:, : n + 1 - l] -= sums[:, l + 1 :]
            column[:, n + 1 - l :] -= sums[:, n : n + 1 - l : -1]
        yield slice(start, start + rows), _readonly(block)
        start += rows


def propagator_block(lattice: LatticeSpec, sites, times) -> np.ndarray:
    """Real columns R_l(t) for each 1-based site l and each finite time t.

    G[j, l](t) = exp(-i omega t) i^((j - l) mod 2) R_l[j](t), where
    R_l[j] = X[|j - l|] - X[min(j + l, 2(N+1) - j - l)] is a Toeplitz minus
    a Hankel fill from the mode sums X of ``_mode_sums``; a negative t is
    time-reversed evolution.  Returns a read-only (len(sites), len(times), N)
    array, contiguous along N, whose rows at t == 0 are exact unit vectors:
    G(0) = I exactly.  The one-block case of ``propagator_blocks``, so the
    array is the call's own.
    """
    ((_, columns),) = propagator_blocks(lattice, sites, times)
    return columns


def light_cone(lattice: LatticeSpec, sites, t_max: float) -> tuple[int, int]:
    """The sub-chain [a, b] that holds the columns of ``sites`` up to |t| = t_max.

    Returns 1-based ends a <= b: every site lies in [a, b], and the columns
    R_l over the W = b - a + 1 cavities of [a, b], taken as a chain of
    their own, are the whole chain's columns to 2^-60 in 2-norm at every
    |t| <= t_max.  The sites are checked against this chain's N first; a
    z = ``mode_phase`` at t_max past the double range gives (1, N), for the
    kernel to refuse; z = 0 gives the span of the sites.

    The bound, with the carrier dropped (it is a global phase):

    * Duhamel.  Cutting the bonds (a - 1, a) and (b, b + 1) changes the
      Hamiltonian by J times those bonds.  The column phi(t) of site l on
      [a, b] (zero outside it) and the whole chain's column therefore
      differ in 2-norm by at most J t (max |phi_a(s)| + max |phi_b(s)|) over
      0 <= s <= t, and a cut at a chain end costs nothing.
    * Images.  On a chain of W sites the column is the image sum
      phi_j = sum_m g(j - l + 2m(W + 1)) - g(j + l + 2m(W + 1)) in window
      coordinates, with g(n) = (-i)^n J_n(2 J s) (Bessel J, even in n).
      At an end site a distance d from l, each |n| is >= d and no value
      occurs more than 4 times, so |phi_end(s)| <= 4 sum_{n >= d} |J_n(2 J s)|.
    * Kapteyn's inequality (DLMF 10.14.5).  For n > z, |J_n(z)| <= K_n(z)
      = (x e^r / (1 + r))^n with x = z/n and r = sqrt(1 - x^2).  K_n(z)
      grows with z, and d ln K_n / dn = -arccosh(n/z) falls with n, so
      K_{n+1} <= q K_n for n >= d with q = z / (d + sqrt(d^2 - z^2)) < 1.

    So a cut at distance d > z from every site moves a column by at most
    J t_max 4 K_d(z) / (1 - q), which falls with d and grows with z; the
    radius R is the least d > z at which it is <= 2^-61, and
    [a, b] = [min(sites) - R, max(sites) + R], clipped to the chain.  Both
    cuts together give 2^-60, and eta, a fourth-degree form in unit columns
    with weights summing to at most 2, moves by at most 8 2^-60.  R(z) is
    non-decreasing and R > z, so a chain with N <= z is never cut.
    O(R - z) scalar steps.
    """
    n = lattice.num_cavities
    index = checked_array(sites, "cavity index", int, 1, n)
    z = mode_phase(lattice, abs(float(t_max)))
    if not z < n:
        return 1, n
    radius = 0
    if z > 0.0:
        radius = floor(z) + 1
        while radius < n and _log_cut_bound(z, radius) > _LOG_CUT_ERROR:
            radius += 1
    return max(1, int(index.min()) - radius), min(n, int(index.max()) + radius)


def _log_cut_bound(z: float, d: int) -> float:
    """ln(J t 4 K_d(z) / (1 - q)) with J t = z/2: ``light_cone``'s bound at d > z > 0."""
    r = sqrt((d - z) * (d + z)) / d
    q = z / (d * (1.0 + r))
    return log(2.0 * z) + d * (log(z) - log(d) + r - log1p(r)) - log1p(-q)


def _mode_sums(
    lattice: LatticeSpec, times: np.ndarray, block_times: int
) -> Iterator[np.ndarray]:
    """X[:, d] = (1/(N+1)) sum_k x_k cos(d theta_k), d = 0..N+1, one row per time.

    The one place where mode phases are formed.  With theta_k = pi k/(N+1)
    and a_k = 2 J t cos(theta_k), x_k = cos(a_k) - sin(a_k); the carrier
    omega is left out (it is a global phase).  c_d = i^(d mod 2) X[d] is
    the carrier-free amplitude sum (1/(N+1)) sum_k exp(-i a_k) cos(d theta_k).
    The mirror mode N+1-k flips a_k, so even d sees only cos(a_k) and odd d
    only sin(a_k), and cos and sin are taken for the first ceil(N/2) modes.

    One real FFT of length N+1 per time point gives the whole row (the
    DCT-I as a half-length FFT, FFTPACK's COST).  Its input is

        y_k = cos(a_k) + 2 sin(theta_k) sin(a_k),    k = 1..N,  y_0 = 0,

    and its output Y[m] = sum_k y_k exp(-2 pi i k m/(N+1)) holds

        Re Y[m] = (N+1) X[2m],    Im Y[m] = (N+1) (X[2m-1] - X[2m+1]),

    since 2 sin(theta) sin(2m theta) = cos((2m-1) theta) - cos((2m+1) theta)
    and the mirror pairs cancel the other halves.  The odd d follow from a
    running sum per row that starts at X[1], itself an elementwise sum per
    row; no step mixes rows, so a row depends on its own time alone.  Rows
    at t == 0 are exactly e_0.

    ``times`` is a checked 1-d array.  The rows come ``block_times`` at a
    time: theta_k, cos theta_k and 2 sin theta_k are formed once, and each
    yielded (block length, N+2) array is a view of one buffer that the next
    block overwrites, as are the phase, FFT-input and scratch buffers.
    """
    n = lattice.num_cavities
    m = n + 1
    half, mirrored = m // 2, n // 2
    theta = np.arange(1, half + 1) * (np.pi / m)
    cos_theta = np.cos(theta)
    cos_theta[mirrored:] = 0.0  # an odd chain's middle mode: cos(pi/2) reads 6e-17
    two_sin_theta = 2.0 * np.sin(theta)
    size = min(block_times, times.size)
    phases, cos_a, sin_a = np.empty((3, size, half))
    y = np.zeros((size, m))  # y_0 is never written, so it stays 0
    sums = np.empty((size, m + 1))
    unit = np.arange(m + 1) == 0
    for start in range(0, times.size, size):
        t = times[start : start + size]
        rows = t.size
        a, c, s = phases[:rows], cos_a[:rows], sin_a[:rows]
        np.multiply(mode_phase(lattice, t)[:, None], cos_theta, out=a)
        np.cos(a, out=c)
        np.sin(a, out=s)
        first_odd = np.sum(np.multiply(s, cos_theta, out=a), axis=1) * (-2.0 / m)
        s *= two_sin_theta
        np.add(c, s, out=y[:rows, 1 : half + 1])
        np.subtract(c[:, :mirrored], s[:, :mirrored], out=y[:rows, m - 1 : half : -1])
        transform = np.fft.rfft(y[:rows], axis=1)
        x = sums[:rows]
        np.divide(transform.real, m, out=x[:, 0::2])
        odd = x[:, 1::2]
        np.divide(transform.imag[:, 1 : odd.shape[1]], -m, out=odd[:, 1:])
        odd[:, 0] = first_odd
        np.cumsum(odd, axis=1, out=odd)
        x[t == 0.0] = unit
        yield x
