"""``run_verification`` called directly: sampled windows, call counts, detection."""

import numpy as np
import pytest

from ccawalk import LatticeSpec, NoonInput, verify
from ccawalk.verify import run_verification, shrink_scenario

FIG1 = LatticeSpec(num_cavities=29, omega=1.0, hopping=1.0)
NOON = NoonInput(theta=np.pi / 4, site_r=15, site_s=16)


def counting(monkeypatch, name):
    """Wrap ``verify.<name>`` so each call records its arguments."""
    calls = []
    original = getattr(verify, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, wrapped)
    return calls


def test_zero_window_passes_every_check():
    report = run_verification(FIG1, NOON, t_max=0.0)
    assert len(report.checks) == 8
    assert all(check.passed for check in report.checks)
    assert report.passed
    assert report.format().count("[PASS]") == 8


@pytest.mark.parametrize("t_max", [0.0, 0.75, 83.57])
def test_group_law_times_stay_in_twice_the_window(monkeypatch, t_max):
    calls = counting(monkeypatch, "propagator")
    run_verification(FIG1, NOON, t_max=t_max, seed=3)
    # one kernel call over every site covers all of verify's times
    assert len(calls) == 1
    _, sites, times = calls[0]
    assert list(sites) == list(range(1, 9))  # the default max_cavities
    assert len(times) == 25 + 1 + 5 * 3
    assert max(times) <= 2.0 * t_max
    assert min(times) >= 0.0


def test_oracle_is_solved_once_and_evolved_once(monkeypatch):
    solves = counting(monkeypatch, "solve_by_symmetry")
    evolves = counting(monkeypatch, "evolve")
    families = counting(monkeypatch, "tpd_family")
    run_verification(FIG1, NOON, t_max=83.57, max_cavities=12)
    run_verification(FIG1, NOON, t_max=0.0, max_cavities=12)
    assert len(solves) == len(evolves) == len(families) == 2
    assert [len(args[2]) for args in evolves] == [25, 25]
    # eta is evaluated once, on the distinct sample times
    assert [len(args[2]) for args in families] == [25, 1]


def test_swapped_weights_fail_equivalence_at_fifty_cavities():
    lattice = LatticeSpec(num_cavities=50, omega=1.0, hopping=1.0)
    noon = NoonInput(theta=0.3927, site_r=25, site_s=26)
    report = run_verification(
        lattice, noon, t_max=83.57, swap_weights=True, max_cavities=50
    )
    assert report.lattice.num_cavities == 50
    failed = [check.name for check in report.checks if not check.passed]
    assert failed == ["oracle-equivalence"]
    assert report.checks[0].deviation > 1e-3


def test_shrink_keeps_a_chain_that_fits_and_recentres_a_shrunk_one():
    noon = NoonInput(theta=0.3927, site_r=22, site_s=20)
    for max_cavities in (29, 50):
        assert shrink_scenario(FIG1, noon, max_cavities) == (FIG1, noon)
    small, moved = shrink_scenario(FIG1, noon, 8)
    assert small.num_cavities == 8
    assert (moved.site_r, moved.site_s, moved.theta) == (5, 3, noon.theta)
