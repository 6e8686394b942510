"""Invariants checked over randomized lattices, inputs and times."""

import warnings
from math import isfinite

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from ccawalk import (
    LatticeSpec,
    NoonInput,
    TwoPhotonBasis,
    ValidationError,
    concurrence,
    correlation_matrix,
    mode_frequencies,
    noon_state,
    propagator_block,
    theta_for_concurrence,
    tpd_family,
)
from ccawalk.config import config_from_dict
from ccawalk.lattice import light_cone, propagator_blocks
from conftest import complex_propagator, full_propagator, tpd_degree

HALF_PI = float(np.pi / 2)

lattices = st.builds(
    LatticeSpec,
    num_cavities=st.integers(2, 12),
    omega=st.floats(0.1, 5.0),
    hopping=st.floats(0.0, 5.0),
)


@st.composite
def lattice_with_noon(draw):
    lattice = draw(lattices)
    n = lattice.num_cavities
    site_r = draw(st.integers(1, n))
    site_s = draw(st.integers(1, n).filter(lambda s: s != site_r))
    theta = draw(st.floats(0.0, HALF_PI))
    return lattice, NoonInput(theta=theta, site_r=site_r, site_s=site_s)


# a chain of up to 600 cavities and a site pair anywhere on it, ends included
chains_with_pair = st.integers(2, 600).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.one_of(st.sampled_from([1, 2, n - 1, n]), st.integers(1, n)),
            min_size=2,
            max_size=2,
            unique=True,
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(
    chains_with_pair,
    st.floats(1e-3, 1e3),
    st.floats(0.0, 300.0),
    st.lists(st.floats(0.0, HALF_PI), min_size=1, max_size=5),
)
def test_windowed_eta_matches_whole_chain_columns(case, hopping, jt_max, thetas):
    n, (site_r, site_s) = case
    lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=hopping)
    times = np.unique(np.linspace(0.0, jt_max / hopping, 9))
    first, last = light_cone(lattice, [site_r, site_s], times[-1])
    assert 1 <= first <= min(site_r, site_s) and max(site_r, site_s) <= last <= n
    noons = [NoonInput(theta=theta, site_r=site_r, site_s=site_s) for theta in thetas]
    eta = tpd_family(lattice, noons, times)
    # the all-real formula on the whole chain's columns
    a, b = np.square(propagator_block(lattice, [site_r, site_s], times))
    for noon, row in zip(noons, eta):
        w_r, w_s = np.sin(noon.theta), np.cos(noon.theta)
        reference = (
            w_r**2 * (1.0 - np.sum(a * a, axis=1))
            + w_s**2 * (1.0 - np.sum(b * b, axis=1))
            - 2.0 * (-1.0) ** (site_r + site_s) * w_r * w_s * np.sum(a * b, axis=1)
        )
        assert np.abs(row - reference).max() <= 1e-13


@settings(max_examples=100, deadline=None)
@given(
    chains_with_pair,
    st.floats(1e-3, 1e3),
    st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=3),
    st.floats(0.0, HALF_PI),
)
def test_windowed_correlation_matches_whole_chain_columns(case, hopping, jts, theta):
    n, (site_r, site_s) = case
    lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=hopping)
    times = np.array(jts) / hopping
    p = correlation_matrix(lattice, NoonInput(theta, site_r, site_s), times)
    # 2 A^2 on the whole chain's columns
    x, y = propagator_block(lattice, [site_r, site_s], times)
    y = y * (-1.0) ** ((site_r + site_s) * np.arange(1, n + 1))
    amplitude = np.sin(theta) * x[:, :, None] * x[:, None, :] + (
        (-1.0) ** (site_r + site_s) * np.cos(theta) * y[:, :, None] * y[:, None, :]
    )
    assert np.abs(p - 2.0 * amplitude**2).max() <= 1e-13
    for t, matrix in zip(times, p):
        first, last = light_cone(lattice, [site_r, site_s], t)
        outside = np.ones(matrix.shape, dtype=bool)
        outside[first - 1 : last, first - 1 : last] = False
        assert np.all(matrix[outside] == 0.0)


@settings(max_examples=40, deadline=None)
@given(lattices, st.floats(0.0, 100.0))
def test_propagator_is_unitary(lattice, t):
    g = full_propagator(lattice, t)
    n = lattice.num_cavities
    assert np.abs(g @ g.conj().T - np.eye(n)).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(lattices, st.floats(0.0, 100.0), st.floats(0.0, 100.0))
def test_propagator_group_law(lattice, t1, t2):
    g1 = full_propagator(lattice, t1)
    g2 = full_propagator(lattice, t2)
    g12 = full_propagator(lattice, t1 + t2)
    assert np.abs(g1 @ g2 - g12).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(lattices, st.floats(0.0, 100.0))
def test_propagator_symmetries_and_bound(lattice, t):
    g = full_propagator(lattice, t)
    assert np.array_equal(g, g.T)
    # reflection through the chain centre leaves the open chain invariant
    assert np.abs(g - np.flip(g)).max() < 1e-12
    assert np.abs(g).max() <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(lattices, st.floats(0.0, 100.0), st.data())
def test_columns_agree_with_matrix(lattice, t, data):
    site = data.draw(st.integers(1, lattice.num_cavities))
    (column,) = complex_propagator(lattice, [site], [t])[:, 0]
    full = full_propagator(lattice, t)
    assert np.abs(column - full[:, site - 1]).max() < 1e-14


@settings(max_examples=25, deadline=None)
@given(lattices)
def test_frequencies_strictly_decreasing_when_hopping_on(lattice):
    freqs = mode_frequencies(lattice)
    if lattice.hopping > 1e-6:
        assert np.all(np.diff(freqs) < 0)
    assert freqs.max() <= lattice.omega + 2 * lattice.hopping + 1e-12
    assert freqs.min() >= lattice.omega - 2 * lattice.hopping - 1e-12


@settings(max_examples=40, deadline=None)
@given(lattice_with_noon(), st.floats(0.0, 100.0))
def test_pair_count_and_eta_range(case, t):
    lattice, noon = case
    p = correlation_matrix(lattice, noon, [t])[0]
    assert abs(p.sum() - 2.0) < 1e-9
    assert p.min() >= 0.0
    eta = tpd_degree(lattice, noon, t)
    assert -1e-9 < eta < 1.0 + 1e-9
    assert abs(tpd_degree(lattice, noon, 0.0)) < 1e-12


# rounding the weights of pi/2 - theta is all that parts it from theta on
# the exchanged pair: a few ulps of eta and the state (at most 1) and of P
# (at most 2), on whole and light-cone-windowed chains alike
FEW_ULPS = 4 * np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(
    chains_with_pair,
    st.floats(1e-3, 1e3),
    st.floats(0.0, 300.0),
    st.floats(0.0, HALF_PI),
)
def test_weight_swap_equals_site_swap(case, hopping, jt_max, theta):
    n, (r, s) = case
    lattice = LatticeSpec(num_cavities=n, omega=1.0, hopping=hopping)
    times = np.unique(np.linspace(0.0, jt_max / hopping, 5))
    pair = [NoonInput(HALF_PI - theta, r, s), NoonInput(theta, s, r)]
    basis = TwoPhotonBasis(n)
    for scale, (a, b) in [
        (1.0, [tpd_family(lattice, [noon], times) for noon in pair]),
        (2.0, [correlation_matrix(lattice, noon, times) for noon in pair]),
        (1.0, [noon_state(basis, noon) for noon in pair]),
    ]:
        assert np.abs(a - b).max() <= scale * FEW_ULPS


@settings(max_examples=50)
@given(st.floats(0.0, 1.0))
def test_concurrence_inversion_round_trip(c):
    theta = theta_for_concurrence(c)
    assert 0.0 <= theta <= HALF_PI / 2
    assert abs(concurrence(NoonInput(theta=theta, site_r=1, site_s=2)) - c) < 1e-14


# omega and J log-uniform over [1e-300, 1e308]
magnitudes = st.floats(-300.0, 308.0).map(lambda exponent: 10.0**exponent)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.builds(LatticeSpec, st.just(n), magnitudes, magnitudes),
            st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True),
        )
    ),
    st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=4),
)
def test_extreme_scales_give_finite_arrays_or_refuse(case, times):
    lattice, (site_r, site_s) = case
    noon = NoonInput(theta=0.3927, site_r=site_r, site_s=site_s)
    grid = sorted({abs(t) for t in times})
    calls = {
        "mode_frequencies": lambda: mode_frequencies(lattice),
        "propagator_block": lambda: propagator_block(lattice, [site_r], times),
        "correlation_matrix": lambda: correlation_matrix(lattice, noon, times),
        "tpd_family": lambda: tpd_family(lattice, [noon], grid),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning is a failure
        for name, call in calls.items():
            try:
                result = call()
            except ValidationError:
                continue
            assert np.isfinite(result).all(), name


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 40),
    st.floats(1e-300, 1e308),
    st.floats(1e-300, 1e308),
    st.floats(0.0, 1e308),
)
def test_config_kernel_and_light_cone_share_one_phase_rule(n, omega, hopping, t_max):
    t = t_max / omega  # the config's absolute time at scale "omega"
    assume(isfinite(t) and isfinite(omega * t))
    lattice = LatticeSpec(num_cavities=n, omega=omega, hopping=hopping)
    document = {
        "lattice": {"num_cavities": n, "omega": omega, "hopping": hopping},
        "input": {"site_r": 1, "site_s": n, "theta": 0.3927},
        "time": {"t_max": t_max, "steps": 1, "scale": "omega"},
    }
    refusals = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning is a failure
        try:
            grid = config_from_dict(document).time_grid()
        except ValidationError as err:
            refusals.append(str(err))
        else:
            assert grid[-1] == t  # the time the kernel is given below
        try:
            next(propagator_blocks(lattice, [1], [t]))
        except ValidationError as err:
            refusals.append(str(err))
        window = light_cone(lattice, [1], t)
    assert len(refusals) in (0, 2)
    assert all("2 * hopping * t is " in message for message in refusals)
    assert bool(refusals) == (not isfinite(2.0 * (hopping * t)))
    if refusals:
        assert window == (1, n)
