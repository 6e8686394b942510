"""``run_verification`` called directly: sampled windows, call counts, detection."""

import inspect
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import REPO_ROOT

from ccawalk import LatticeSpec, NoonInput, ValidationError, verify
from ccawalk.cli import main, parse_args
from ccawalk.oracle import MAX_DIMENSION, ORACLE_MAX_CAVITIES
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
    calls = counting(monkeypatch, "propagator_block")
    correlations = counting(monkeypatch, "correlation_matrix")
    run_verification(FIG1, NOON, t_max=t_max, seed=3)
    # one kernel call over every site covers all of verify's times
    assert len(calls) == 1
    _, sites, times = calls[0]
    # the default max_cavities keeps the shipped 29-cavity chain whole
    assert list(sites) == list(range(1, 30))
    # the 25 samples, the first at t = 0 for the identity check, then 5 triples
    assert len(times) == 25 + 5 * 3
    assert times[0] == 0.0
    assert max(times) <= 2.0 * t_max
    assert min(times) >= 0.0
    # and one closed-form call covers every sample time
    assert len(correlations) == 1
    _, noon, sample_times = correlations[0]
    assert noon == NOON
    assert np.array_equal(sample_times, times[:25])


def test_default_max_cavities_is_the_largest_chain_under_the_dense_guard():
    n = ORACLE_MAX_CAVITIES
    assert n * (n + 1) // 2 <= MAX_DIMENSION < (n + 1) * (n + 2) // 2
    assert n == 99
    assert parse_args(["verify"]).max_n == n
    assert inspect.signature(run_verification).parameters["max_cavities"].default == n
    long_chain = LatticeSpec(num_cavities=120, omega=1.0, hopping=1.0)
    small, _ = shrink_scenario(long_chain, NOON, n)
    assert small.num_cavities == 99


def test_verify_never_imports_numpy_random():
    # numpy 1.x imports numpy.random with numpy itself; there the baseline
    # is already loaded and the check can only show that verify needs nothing
    # new, while on numpy >= 2 it shows numpy.random is never loaded
    code = (
        "import sys\n"
        "import numpy\n"
        "baseline = 'numpy.random' in sys.modules\n"
        "assert not baseline or int(numpy.__version__.split('.')[0]) < 2\n"
        "from ccawalk.cli import main\n"
        "status = main(['verify', '--config', 'scenarios/fig1.json', '--seed', '5',\n"
        "               '--out', '-'])\n"
        "assert status == 0, status\n"
        "assert ('numpy.random' in sys.modules) == baseline\n"
        "print('baseline:', baseline)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout


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


def test_negative_eta_fails_eta_range(monkeypatch):
    real_family = verify.tpd_family

    def dipped(*args):
        (eta,) = real_family(*args)
        eta = eta.copy()
        eta[-1] = -1e-6
        return eta[None]

    monkeypatch.setattr(verify, "tpd_family", dipped)
    report = run_verification(FIG1, NOON, t_max=83.57)
    checks = {check.name: check for check in report.checks}
    assert not checks["eta-range"].passed
    assert checks["eta-range"].deviation == 1e-6
    assert checks["eta-zero-at-start"].passed
    assert not report.passed


SMALL = LatticeSpec(num_cavities=8, omega=1.0, hopping=1.0)
SMALL_NOON = NoonInput(theta=np.pi / 4, site_r=4, site_s=5)


@pytest.mark.parametrize(
    "lattice, t_max, product",
    [
        (SMALL, 5e307, "4 * hopping * t_max is inf"),
        (LatticeSpec(8, omega=1.0, hopping=0.0), 1e308, "2 * t_max is inf"),
        (LatticeSpec(8, omega=1e308, hopping=0.5), 1.0, "omega * 2 * t_max is inf"),
        (LatticeSpec(8, omega=1.0, hopping=1e308), 0.0, "4 * hopping * t_max is nan"),
    ],
    ids=["oracle-phases", "composed-time", "carrier", "hopping-at-zero-window"],
)
def test_overflowing_window_is_refused_before_any_check(
    monkeypatch, lattice, t_max, product
):
    # t1 + t2 reaches 2 t_max and the oracle's phases sigma t reach 4 J t_max
    solves = counting(monkeypatch, "solve_by_symmetry")
    kernels = counting(monkeypatch, "propagator_block")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^verify window") as err:
            run_verification(lattice, SMALL_NOON, t_max=t_max)
    assert str(err.value).endswith(f"is out of range: {product}")
    assert "\n" not in str(err.value)
    assert solves == kernels == []


def test_size_guard_fires_before_the_basis_is_built(monkeypatch):
    def unbuildable(n):
        raise AssertionError(f"basis of {n} cavities built past the guard")

    monkeypatch.setattr(verify, "TwoPhotonBasis", unbuildable)
    big = LatticeSpec(num_cavities=5000, omega=1.0, hopping=1.0)
    with pytest.raises(ValidationError, match="dense-storage guard"):
        run_verification(big, NOON, t_max=1.0, max_cavities=5000)


def test_largest_finite_window_runs_without_warnings():
    # the report means nothing this far out; it must only be formed cleanly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_verification(SMALL, SMALL_NOON, t_max=sys.float_info.max / 4.0)
    assert len(report.checks) == 8


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


# omega >> J, the regime of real coupled-cavity arrays: fig1's chain over
# J t in [0, 100] at three carriers, and a 20-cavity chain over J t in [0, 50]
FAR_CARRIERS = {
    f"fig1-omega-{omega}": [
        "--config", str(REPO_ROOT / "scenarios" / "fig1.json"),
        "--set", f"lattice.omega={omega}",
        "--set", "time.scale=hopping", "--set", "time.t_max=100",
    ]
    for omega in ("1e5", "3e5", "1e6")
}
FAR_CARRIERS["n20-omega-1e6"] = [
    "--set", "lattice.num_cavities=20", "--set", "input.site_r=10",
    "--set", "input.site_s=11", "--set", "lattice.omega=1e6",
    "--set", "time.scale=hopping", "--set", "time.t_max=50",
]


@pytest.mark.parametrize("argv", FAR_CARRIERS.values(), ids=FAR_CARRIERS)
def test_carrier_far_above_the_band_passes_every_check(capsys, argv):
    assert main(["verify", *argv]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 8


@pytest.mark.parametrize("argv", FAR_CARRIERS.values(), ids=FAR_CARRIERS)
def test_swapped_weights_fail_far_above_the_band(capsys, argv):
    swapped = ["--swap-weights", "--set", "input.theta=0.3927"]
    assert main(["verify", *argv, *swapped]) == 2
    report = capsys.readouterr().out
    assert [line for line in report.splitlines() if line.startswith("[FAIL]")] == [
        line for line in report.splitlines() if "oracle-equivalence" in line
    ]


def test_shrink_keeps_a_chain_that_fits_and_recentres_a_shrunk_one():
    noon = NoonInput(theta=0.3927, site_r=22, site_s=20)
    for max_cavities in (29, 50):
        assert shrink_scenario(FIG1, noon, max_cavities) == (FIG1, noon)
    small, moved = shrink_scenario(FIG1, noon, 8)
    assert small.num_cavities == 8
    assert (moved.site_r, moved.site_s, moved.theta) == (5, 3, noon.theta)
