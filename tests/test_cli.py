import contextlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from math import asin

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPO_ROOT, read_csv, sometimes

from ccawalk import (
    LatticeSpec,
    NoonInput,
    cli,
    correlation_matrix,
    mode_frequencies,
    theta_for_concurrence,
)
from ccawalk.cli import main, parse_args
from ccawalk.config import _SECTION_KEYS, MAX_STEPS, default_config_dict
from ccawalk.lattice import light_cone
from ccawalk.oracle import ORACLE_MAX_CAVITIES

PI = np.pi
SMALL_CHAIN = [
    "--set", "lattice.num_cavities=3",
    "--set", "input.site_r=1",
    "--set", "input.site_s=2",
]
COMMANDS = ("spectrum", "correlation", "tpd", "sweep", "verify")
STEPS_10 = ["--set", "time.steps=10"]
# theta = arcsin(C)/2 at C = 0, 0.5 and 1: the shipped scenarios' sweep blocks
CONCURRENCE_THETAS = "0.0,0.2617993877991494,0.7853981633974483"
# the shipped site pair exchanged: pi/2 - theta for every angle
EXCHANGED = ["--set", "input.site_r=16", "--set", "input.site_s=15"]
# a 12-cavity chain over 21 times, off the shipped site pair
SHORT_RUN = [
    "--set", "lattice.num_cavities=12",
    "--set", "input.site_r=3",
    "--set", "input.site_s=4",
    "--set", "time.steps=20",
]


def run(*argv):
    return main(list(argv))


def assert_one_line_error(capsys, *argv):
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    return err


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


# Linux carries a parent's peak RSS into its child's ru_maxrss across fork
# and exec, so a measured child runs under this small launcher
LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[2:])\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=fh)\n"
)


def launched(tmp_path, *argv):
    """Run ``python *argv`` under ``LAUNCHER``: (exit code, peak RSS in kB, output)."""
    result = tmp_path / "launched.txt"
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(result), sys.executable, *argv],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, result.read_text().split())
    return code, peak_kb, proc


def rerun_bytes(tmp_path, *argv):
    """The artifacts of two ``ccawalk.cli *argv`` runs under ``launched``, as bytes."""
    artifacts = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, _, proc = launched(tmp_path, "-m", "ccawalk.cli", *argv, "--out", str(out))
        assert code == 0, proc.stderr
        artifacts.append(out.read_bytes())
    return artifacts


class TestSpectrum:
    def test_small_chain_rows(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run("spectrum", *SMALL_CHAIN, "--out", str(out)) == 0
        comments, header, rows = read_csv(out)
        assert header == ["k", "Omega_k"]
        assert len(rows) == 3
        assert [r[0] for r in rows] == ["1", "2", "3"]
        freqs = mode_frequencies(LatticeSpec(3, 1.0, 1.0))
        for row, freq in zip(rows, freqs):
            assert float(row[1]) == freq
        assert any(line.startswith("# config = ") for line in comments)

    def test_zero_hopping_flat_band(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run("spectrum", *SMALL_CHAIN, "--set", "lattice.hopping=0.0",
                   "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_full_chain_band_edges(self, tmp_path, scenarios_dir):
        out = tmp_path / "band.csv"
        assert run("spectrum", "--config", str(scenarios_dir / "fig1.json"),
                   "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 29
        assert float(rows[0][1]) == pytest.approx(2.9890437907365466, abs=1e-12)
        assert float(rows[-1][1]) == pytest.approx(-0.9890437907365466, abs=1e-12)


class TestCorrelation:
    def test_time_zero_has_exactly_two_nonzero_triples(self, tmp_path, scenarios_dir):
        out = tmp_path / "p0.csv"
        assert run("correlation", "--config", str(scenarios_dir / "fig1.json"),
                   "--set", "time.t_max=0", "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        assert header == ["m", "n", "P_mn"]
        assert len(rows) == 29 * 29
        nonzero = [r for r in rows if float(r[2]) != 0.0]
        assert sorted((r[0], r[1]) for r in nonzero) == [("15", "15"), ("16", "16")]

    def test_row_major_order(self, tmp_path, scenarios_dir):
        out = tmp_path / "p.csv"
        run("correlation", "--config", str(scenarios_dir / "fig1.json"),
            "--out", str(out))
        _, _, rows = read_csv(out)
        expected = [(str(m), str(n)) for m in range(1, 30) for n in range(1, 30)]
        assert [(r[0], r[1]) for r in rows] == expected

    def test_round_trip_is_bit_exact(self, tmp_path, scenarios_dir):
        out = tmp_path / "p.csv"
        run("correlation", "--config", str(scenarios_dir / "fig1.json"),
            "--out", str(out))
        _, _, rows = read_csv(out)
        parsed = np.zeros((29, 29))
        for m, n, value in rows:
            parsed[int(m) - 1, int(n) - 1] = float(value)
        lattice = LatticeSpec(29, 1.0, 1.0)
        noon = NoonInput(theta=0.7853981633974483, site_r=15, site_s=16)
        fresh = correlation_matrix(lattice, noon, [83.57])[0]
        assert np.array_equal(parsed, fresh)

    def test_snapshot_diagonal_mass_small(self, tmp_path, scenarios_dir):
        out = tmp_path / "p.csv"
        run("correlation", "--config", str(scenarios_dir / "fig1.json"),
            "--out", str(out))
        _, _, rows = read_csv(out)
        diag_mass = sum(float(v) for m, n, v in rows if m == n) / 2.0
        assert diag_mass < 0.088

    def test_windowed_long_chain_reruns_byte_for_byte(self, tmp_path):
        # an N=2000 chain whose light-cone window cuts it at both ends
        first, last = light_cone(LatticeSpec(2000, 1.0, 1.0), [1000, 1001], 83.57)
        assert 1 < first and last < 2000
        a, b = rerun_bytes(tmp_path, "correlation", "--set", "lattice.num_cavities=2000",
                           "--set", "input.site_r=1000", "--set", "input.site_s=1001")
        assert a == b

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
    def test_largest_chain_matrix_stays_under_600_mb(self, tmp_path):
        # N=5000 at one time: only the light-cone block of the zeroed array is written
        code, peak_kb, proc = launched(
            tmp_path, "-c",
            "from ccawalk import LatticeSpec, NoonInput, correlation_matrix; "
            "correlation_matrix(LatticeSpec(5000, 1.0, 1.0), NoonInput(0.3927, 2500, "
            "2501), [83.57])",
        )
        assert code == 0, proc.stderr
        assert peak_kb < 600 * 1024


class TestTpd:
    def test_columns_and_first_row(self, tmp_path, scenarios_dir):
        out = tmp_path / "tpd.csv"
        assert run("tpd", "--config", str(scenarios_dir / "fig3.json"),
                   "--out", str(out)) == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "omega_t", "J_t", "eta"]
        assert len(rows) == 2001
        assert float(rows[0][3]) == 0.0
        for row in rows[:: 500]:
            t = float(row[0])
            assert float(row[1]) == pytest.approx(t * 1.0, rel=1e-15)
            assert float(row[2]) == pytest.approx(t * 0.1, rel=1e-12)

    def test_strong_hopping_file_plateau_median(self, tmp_path, scenarios_dir):
        out = tmp_path / "tpd.csv"
        run("tpd", "--config", str(scenarios_dir / "fig3.json"), "--out", str(out))
        _, _, rows = read_csv(out)
        plateau = [float(r[3]) for r in rows if float(r[2]) >= 20.0]
        assert np.median(plateau) > 0.9

    def test_degenerate_grid_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run("tpd", *SMALL_CHAIN, "--set", "time.t_max=0.0",
                   "--out", str(out))
        assert code == 1

    def test_mode_phase_checked_as_the_kernel_forms_it(self, tmp_path):
        # 2 * hopping overflows, but 2 * (hopping * t) is about 1.7e10
        out = tmp_path / "tpd.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("tpd", "--set", "lattice.omega=1e300",
                       "--set", "lattice.hopping=1e308", "--set", "time.steps=3",
                       "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 4
        assert np.isfinite(np.array(rows, dtype=float)).all()

    def test_prime_length_chain_reruns_byte_for_byte(self, tmp_path):
        # at N=4000 the kernel's length-(N+1) transform has prime
        # length, and J t_max = 2000 puts the light cone past both ends
        assert light_cone(LatticeSpec(4000, 1.0, 1.0), [15, 16], 2000.0) == (1, 4000)
        a, b = rerun_bytes(tmp_path, "tpd", "--set", "lattice.num_cavities=4000",
                           "--set", "time.steps=200", "--set", "time.t_max=2000")
        assert a == b

    def test_long_chain_raises_no_runtime_warning(self, tmp_path):
        # at N=5000 the default J t_max = 83.57 cuts the chain to a window
        out = tmp_path / "big.csv"
        code, _, proc = launched(
            tmp_path, "-W", "error::RuntimeWarning", "-m", "ccawalk.cli", "tpd",
            "--set", "lattice.num_cavities=5000", "--set", "time.steps=200",
            "--out", str(out),
        )
        assert (code, proc.stderr) == (0, "")
        _, _, rows = read_csv(out)
        assert len(rows) == 201

    @pytest.mark.skipif(sys.platform != "linux", reason="Linux page-fault counts")
    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy < 2")
    def test_cold_long_chain_reuses_one_kernel_workspace(self, tmp_path):
        # a cold N=1000, 1001-point tpd refills one set of kernel buffers
        # block by block: at most 1,500 minor page faults inside cli.main
        counted = (
            "import resource, sys\n"
            "from ccawalk.cli import main\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "sys.exit(code)\n"
        )
        code, _, proc = launched(
            tmp_path, "-c", counted, "tpd",
            "--set", "lattice.num_cavities=1000", "--set", "lattice.hopping=0.1",
            "--set", "input.site_r=7", "--set", "input.site_s=9",
            "--set", "time.t_max=100.0", "--set", "time.steps=1000",
            "--set", "time.scale=hopping", "--out", str(tmp_path / "tpd.csv"),
        )
        assert code == 0, proc.stderr
        assert int(proc.stdout) <= 1500


class TestSweep:
    def test_single_theta_reduces_to_tpd(self, tmp_path, scenarios_dir):
        tpd_out = tmp_path / "tpd.csv"
        sweep_out = tmp_path / "sweep.csv"
        cfg = str(scenarios_dir / "fig3.json")
        run("tpd", "--config", cfg, "--out", str(tpd_out))
        assert run("sweep", "--config", cfg, "--theta", "0.7853981633974483",
                   "--out", str(sweep_out)) == 0
        _, _, tpd_rows = read_csv(tpd_out)
        _, header, sweep_rows = read_csv(sweep_out)
        assert header == ["theta", "concurrence", "t", "eta"]
        assert len(sweep_rows) == len(tpd_rows)
        assert [r[3] for r in sweep_rows] == [r[3] for r in tpd_rows]
        assert [r[2] for r in sweep_rows] == [r[0] for r in tpd_rows]

    def test_every_family_angle_reduces_to_tpd(self, tmp_path, scenarios_dir):
        cfg = scenarios_dir / "fig2.json"
        sweep_out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", str(cfg), "--out", str(sweep_out)) == 0
        _, _, sweep_rows = read_csv(sweep_out)
        thetas = json.loads(cfg.read_text())["sweep"]["theta"]
        assert len(thetas) == 3
        for theta in thetas:
            tpd_out = tmp_path / f"tpd-{theta!r}.csv"
            assert run("tpd", "--config", str(cfg), "--set", f"input.theta={theta!r}",
                       "--out", str(tpd_out)) == 0
            _, _, tpd_rows = read_csv(tpd_out)
            family_rows = [r for r in sweep_rows if float(r[0]) == theta]
            assert [r[3] for r in family_rows] == [r[3] for r in tpd_rows]

    def test_config_block_family_theta_major(self, tmp_path, scenarios_dir):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", str(scenarios_dir / "fig2.json"),
                   "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 3 * 2001
        assert all(r[0] == "0" for r in rows[:2001])
        thetas = sorted({float(r[0]) for r in rows})
        assert thetas == pytest.approx([0.0, PI / 12, PI / 4])
        concurrences = sorted({round(float(r[1]), 12) for r in rows})
        assert concurrences == pytest.approx([0.0, 0.5, 1.0])

    def test_theta_for_concurrence_list(self, tmp_path, scenarios_dir):
        # C = 0, 0.5, 1 are theta = 0, pi/12, pi/4: the shipped sweep blocks
        out = tmp_path / "sweep.csv"
        thetas = [theta_for_concurrence(c) for c in (0.0, 0.5, 1.0)]
        assert run("sweep", "--config", str(scenarios_dir / "fig2.json"),
                   "--theta", ",".join(map(repr, thetas)), "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        assert sorted({float(r[0]) for r in rows}) == thetas
        assert thetas == pytest.approx([0.0, PI / 12, PI / 4], abs=1e-16)
        concurrences = sorted({float(r[1]) for r in rows})
        assert concurrences == pytest.approx([0.0, 0.5, 1.0], abs=2e-16)

    # (flags, what the one error line names): theta alone names the angle,
    # so no branch or concurrence flag or key exists
    @pytest.mark.parametrize(
        "flags, names",
        [
            (["--theta", "0.1", "--branch", "high"], "'--branch'"),
            (["--branch", "high"], "'--branch'"),
            (["--theta", "0.1", "--set", "input.branch=high"], "'branch'"),
            (["--theta", "0.1", "--set", "sweep.branch=high"], "'branch'"),
            (["--concurrence", "0.5"], "'--concurrence'"),
            (["--theta", "0.1", "--concurrence", "0.5"], "'--concurrence'"),
            (["--set", "input.concurrence=0.5"],
             "unknown key(s) in 'input': 'concurrence'"),
            (["--set", "sweep.theta=null", "--set", "sweep.concurrence=[0.5]"],
             "unknown key(s) in 'sweep': 'concurrence'"),
        ],
        ids=["with-theta", "high-alone", "input-key", "sweep-key", "concurrence-flag",
             "theta-and-concurrence", "input-concurrence", "sweep-concurrence"],
    )
    def test_refused_angle_flags_reach_no_kernel(
        self, tmp_path, capsys, monkeypatch, scenarios_dir, flags, names
    ):
        def no_kernel(*args):
            raise AssertionError("the flags must be refused before any eta exists")

        monkeypatch.setattr(cli, "tpd_family", no_kernel)
        out = tmp_path / "x.csv"
        err = assert_one_line_error(
            capsys, "sweep", "--config", str(scenarios_dir / "fig1.json"), *flags,
            "--out", str(out),
        )
        assert names in err
        assert not out.exists()

    def test_exchanged_sites_give_the_other_angle_of_a_concurrence(
        self, tmp_path, scenarios_dir
    ):
        # theta = asin(C)/2 on sites (16, 15) is pi/2 - theta on (15, 16)
        scenario = str(scenarios_dir / "fig2.json")
        low, high = tmp_path / "low.csv", tmp_path / "high.csv"
        thetas = [asin(c) / 2 for c in (0.0, 0.5, 1.0)]
        assert run("sweep", "--config", scenario, "--theta", ",".join(map(repr, thetas)),
                   *EXCHANGED, *STEPS_10, "--out", str(low)) == 0
        assert run("sweep", "--config", scenario,
                   "--theta", ",".join(repr(PI / 2 - t) for t in thetas),
                   *STEPS_10, "--out", str(high)) == 0
        low_rows = np.array(read_csv(low)[2], dtype=float)
        high_rows = np.array(read_csv(high)[2], dtype=float)
        assert list(low_rows[::11, 0]) == thetas
        ulp = np.finfo(float).eps
        assert np.abs(low_rows[:, 1:] - high_rows[:, 1:]).max() <= 2 * ulp

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
    def test_long_sweep_streams_its_rows(self, tmp_path, scenarios_dir):
        # 3 angles x 100001 times: rows are formed and written a block at a
        # time, so the run peaks far below the whole table held as rows
        out = tmp_path / "long.csv"
        code, peak_kb, proc = launched(
            tmp_path, "-m", "ccawalk.cli", "sweep",
            "--config", str(scenarios_dir / "fig1.json"),
            "--set", "time.steps=100000", "--out", str(out),
        )
        assert code == 0, proc.stderr
        lines = out.read_bytes().splitlines()
        assert len([line for line in lines if not line.startswith(b"#")]) == 1 + 300003
        assert peak_kb < 100 * 1024

    def test_duplicates_rejected(self, tmp_path, scenarios_dir):
        code = run("sweep", "--config", str(scenarios_dir / "fig2.json"),
                   "--theta", "0.1,0.1", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_no_values_anywhere_rejected(self, tmp_path):
        code = run("sweep", *SMALL_CHAIN, "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_angles_times_steps_beyond_limit_is_one_line_error(
        self, capsys, monkeypatch, scenarios_dir
    ):
        def no_kernel(*args):
            raise AssertionError("the limit must be checked before any eta exists")

        monkeypatch.setattr(cli, "tpd_family", no_kernel)
        values = ",".join(str(k / 40) for k in range(17))  # 17 x (MAX_STEPS + 1)
        assert_one_line_error(
            capsys, "sweep", "--config", str(scenarios_dir / "fig1.json"),
            "--set", f"time.steps={MAX_STEPS}", "--theta", values, "--out", "-",
        )

    def test_points_limit_is_inclusive(
        self, tmp_path, capsys, monkeypatch, scenarios_dir
    ):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 3 * 11)
        argv = ["sweep", "--config", str(scenarios_dir / "fig1.json"),
                "--set", "time.steps=10", "--out", str(tmp_path / "x.csv")]
        assert run(*argv) == 0  # the scenario's 3 angles x 11 times
        assert_one_line_error(capsys, *argv, "--theta", "0.1,0.2,0.3,0.4")

    # (argv, the sweep block the header must hold, or None for the scenario's own)
    @pytest.mark.parametrize(
        "argv, block",
        [
            (["sweep", "--theta", "0.1,0.2", *STEPS_10], {"theta": [0.1, 0.2]}),
            (["sweep", "--theta", CONCURRENCE_THETAS, *STEPS_10],
             {"theta": [0.0, PI / 12, PI / 4]}),
            (["sweep", "--theta", CONCURRENCE_THETAS, *EXCHANGED, *STEPS_10],
             {"theta": [0.0, PI / 12, PI / 4]}),
            (["spectrum", *SHORT_RUN], None),
            (["correlation", *SHORT_RUN], None),
            (["tpd", *SHORT_RUN], None),
            (["sweep", "--theta", "0.1,0.2", *SHORT_RUN], {"theta": [0.1, 0.2]}),
            (["sweep", "--theta", CONCURRENCE_THETAS, *SHORT_RUN, "--set",
              "input.site_r=4", "--set", "input.site_s=3"],
             {"theta": [0.0, PI / 12, PI / 4]}),
            (["tpd", *SHORT_RUN, "--set", "input.theta=0"], None),
        ],
        ids=["theta", "concurrence", "concurrence-exchanged", "spectrum-n12",
             "correlation-n12", "tpd-n12", "theta-n12", "concurrence-exchanged-n12",
             "integer-theta-n12"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_header_config_reruns_a_flag_driven_sweep(
        self, tmp_path, scenarios_dir, argv, block, fmt
    ):
        scenario = scenarios_dir / "fig2.json"
        first, again = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        assert run(*argv, "--config", str(scenario), "--set", f"output.format={fmt}",
                   "--out", str(first)) == 0
        if fmt == "csv":
            comments, _, _ = read_csv(first)
            (line,) = [c for c in comments if c.startswith("# config = ")]
            config = json.loads(line.removeprefix("# config = "))
        else:
            config = json.loads(first.read_text())["provenance"]["config"]
        if block is None:
            block = json.loads(scenario.read_text())["sweep"]
        assert config["sweep"] == block
        header_cfg = tmp_path / "header.json"
        header_cfg.write_text(json.dumps(config))
        assert run(argv[0], "--config", str(header_cfg), "--out", str(again)) == 0
        assert again.read_bytes() == first.read_bytes()


class TestVerify:
    def test_default_scenario_passes(self, capsys, scenarios_dir):
        assert run("verify", "--config", str(scenarios_dir / "fig1.json")) == 0
        captured = capsys.readouterr().out
        assert "overall: PASS" in captured
        assert "oracle-equivalence" in captured

    def test_swapped_weights_detected(self, capsys, scenarios_dir):
        code = run("verify", "--config", str(scenarios_dir / "fig1.json"),
                   "--swap-weights", "--set", f"input.theta={PI / 8}")
        assert code == 2
        captured = capsys.readouterr().out
        line = next(l for l in captured.splitlines() if "oracle-equivalence" in l)
        assert line.startswith("[FAIL]")
        deviation = float(re.search(r"max deviation ([0-9.e+-]+)", line).group(1))
        assert deviation > 1e-3
        assert "overall: FAIL" in captured

    @pytest.mark.parametrize(
        "scenario, window", [("fig1", "83.57"), ("fig2", "10000")]
    )
    def test_header_shows_scenario_time_window(
        self, capsys, scenarios_dir, scenario, window
    ):
        assert run("verify", "--config", str(scenarios_dir / f"{scenario}.json")) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith(f", t in [0, {window}]")

    def test_unshrunk_chain_keeps_shipped_site_pair(self, capsys, scenarios_dir):
        argv = ["verify", "--config", str(scenarios_dir / "fig1.json"), "--max-n", "29"]
        assert run(*argv) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "N=29, omega=1.0, hopping=1.0, r=15, s=16," in header

    def test_swapped_weights_detected_on_shipped_pair(self, capsys, scenarios_dir):
        code = run("verify", "--config", str(scenarios_dir / "fig1.json"),
                   "--max-n", "29", "--swap-weights", "--set", "input.theta=0.3927")
        assert code == 2
        out = capsys.readouterr().out
        assert "r=15, s=16," in out.splitlines()[0]
        assert "[FAIL] oracle-equivalence" in out

    def test_size_guard_is_clean_validation_error(self, capsys):
        code = run("verify", "--set", "lattice.num_cavities=120", "--max-n", "120")
        assert code == 1
        assert "exceeds" in capsys.readouterr().err

    def test_overflowing_hopping_is_one_line_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_one_line_error(
                capsys, "verify", "--set", "lattice.hopping=1e308", "--max-n", "8"
            )

    def test_overflowing_window_is_one_line_error(self, capsys):
        # the config's window is finite, but t1 + t2 and the oracle's phases
        # reach 2 t_max and 4 J t_max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = assert_one_line_error(
                capsys, "verify", "--set", "time.t_max=5e307", "--set",
                "time.steps=1", "--max-n", "8",
            )
        assert "4 * hopping * t_max is inf" in err

    def test_report_written_to_file(self, tmp_path, capsys, scenarios_dir):
        out = tmp_path / "report.txt"
        assert run("verify", "--config", str(scenarios_dir / "fig1.json"),
                   "--out", str(out)) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().splitlines()[-1] == "overall: PASS"

    @pytest.mark.parametrize("stdout", [[], ["--out", "-"]], ids=["no-out", "out-dash"])
    def test_stdout_holds_the_report_once(self, tmp_path, capsys, stdout):
        out = tmp_path / "report.txt"
        assert run("verify", "--out", str(out)) == 0
        assert run("verify", *stdout) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_failed_report_goes_only_to_its_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert run("verify", "--swap-weights", "--set", "input.theta=0.3927",
                   "--max-n", "8", "--out", str(out)) == 2
        assert capsys.readouterr().out == ""
        assert out.read_text().splitlines()[-1] == "overall: FAIL"

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
    def test_refused_dense_chain_stays_small(self, tmp_path):
        code, peak_kb, proc = launched(
            tmp_path, "-m", "ccawalk.cli", "verify",
            "--set", "lattice.num_cavities=5000", "--max-n", "5000",
        )
        assert code == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert peak_kb < 100 * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
    def test_shrunk_chain_stays_under_250_mb(self, tmp_path):
        # H is kept as its nonzero entries: the N=99 copy of a 120-cavity chain
        code, peak_kb, proc = launched(
            tmp_path, "-m", "ccawalk.cli", "verify", "--set", "lattice.num_cavities=120"
        )
        assert code == 0, proc.stderr
        report = proc.stdout.splitlines()
        assert report[0].startswith("verification scenario: N=99,")
        assert report[-1] == "overall: PASS"
        assert peak_kb < 250 * 1024


@pytest.mark.parametrize("scenario", ["fig1", "fig2", "fig3"])
@pytest.mark.parametrize("command", COMMANDS)
def test_shipped_scenarios_raise_no_warning(tmp_path, capsys, scenarios_dir, scenario,
                                            command):
    out = [] if command == "verify" else ["--out", str(tmp_path / f"{command}.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, "--config", str(scenarios_dir / f"{scenario}.json"), *out) == 0
    assert capsys.readouterr().err == ""


def test_long_verify_window_raises_no_warning(capsys, scenarios_dir):
    # the Gram-matrix oracle over J t = 1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("verify", "--config", str(scenarios_dir / "fig1.json"),
                   "--set", "time.t_max=1e6") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"


class TestOutputModes:
    def test_json_mirrors_csv(self, tmp_path, scenarios_dir):
        csv_out = tmp_path / "t.csv"
        json_out = tmp_path / "t.json"
        cfg = str(scenarios_dir / "fig3.json")
        run("tpd", "--config", cfg, "--out", str(csv_out))
        assert run("tpd", "--config", cfg, "--set", "output.format=json",
                   "--out", str(json_out)) == 0
        doc = json.loads(json_out.read_text())
        assert doc["provenance"]["command"] == "tpd"
        assert doc["provenance"]["config"]["lattice"]["hopping"] == 0.1
        _, _, csv_rows = read_csv(csv_out)
        assert len(doc["records"]) == len(csv_rows)
        assert doc["records"][0]["eta"] == 0.0
        mid = 1000
        assert doc["records"][mid]["eta"] == float(csv_rows[mid][3])

    def test_stdout_when_no_path(self, capsys):
        assert run("spectrum", *SMALL_CHAIN, "--out", "-") == 0
        captured = capsys.readouterr().out
        assert captured.startswith("# tool = ccawalk")
        assert "k,Omega_k" in captured


class TestFailureModes:
    def test_missing_config_file_is_io_error(self, tmp_path):
        assert run("spectrum", "--config", str(tmp_path / "nope.json")) == 3

    def test_unwritable_output_is_io_error(self):
        assert run("spectrum", "--out", "/nonexistent-dir/x.csv") == 3

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("spectrum", "--config", str(bad)) == 1

    def test_non_utf8_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert_one_line_error(capsys, "spectrum", "--config", str(bad))

    def test_invalid_override_value(self):
        assert run("spectrum", "--set", "lattice.hopping=-2") == 1

    def test_unknown_subcommand(self):
        assert run("nonsense") == 1

    @pytest.mark.parametrize(
        "command, override",
        [
            ("sweep", 'sweep.theta=["x"]'),
            ("sweep", 'sweep.concurrence=["x"]'),
            ("tpd", "input.theta=x"),
        ],
    )
    def test_non_numeric_value_is_one_line_error(self, command, override):
        proc = subprocess.run(
            [sys.executable, "-m", "ccawalk.cli", command, "--set", override,
             "--out", "-"],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("tpd", ["lattice.num_cavities=true"]),
            ("tpd", ["lattice.omega=true"]),
            ("tpd", ["lattice.hopping=false"]),
            ("tpd", ["input.site_r=true"]),
            ("tpd", ["input.theta=true"]),
            ("tpd", ["input.theta=null", "input.concurrence=false"]),
            ("tpd", ["time.t_max=true"]),
            ("tpd", ["time.steps=true"]),
            ("sweep", ["sweep.theta=[true]"]),
        ],
        ids=lambda value: value if isinstance(value, str) else ",".join(value),
    )
    def test_bool_is_not_a_number(self, capsys, command, overrides):
        argv = [command, "--out", "-"]
        for override in overrides:
            argv += ["--set", override]
        assert_one_line_error(capsys, *argv)

    @pytest.mark.parametrize(
        "flag",
        [["--seed", "-1"], ["--max-n", "1"], ["--max-n", "0"], ["--max-n", "-5"]],
        ids=" ".join,
    )
    def test_bad_verify_flag_is_one_line_error(self, capsys, flag):
        err = assert_one_line_error(capsys, "verify", *flag)
        if flag[0] == "--max-n":
            assert "--max-n" in err

    @pytest.mark.parametrize(
        "num_cavities", ["5001", "9" * 401], ids=["5001", "401-digits"]
    )
    def test_chain_beyond_size_limit_is_one_line_error(self, capsys, num_cavities):
        assert_one_line_error(
            capsys, "spectrum", "--out", "-",
            "--set", f"lattice.num_cavities={num_cavities}",
        )

    @pytest.mark.parametrize(
        "argv, product",
        [
            (["tpd", "--set", "lattice.hopping=1e308", "--set", "time.steps=3"],
             "2 * hopping * t"),
            (["tpd", "--set", "time.t_max=1e308", "--set", "time.steps=2"],
             "2 * hopping * t"),
            (["tpd", "--set", "time.t_max=1e308", "--set", "time.steps=2",
              "--set", "lattice.hopping=0.1"], "time grid"),
            (["tpd", "--set", "lattice.omega=1e300", "--set", "lattice.hopping=1e-10",
              "--set", "time.scale=hopping", "--set", "time.t_max=1e10",
              "--set", "time.steps=2"], "omega * t"),
            (["sweep", "--theta", "0.1,0.2", "--set", "lattice.hopping=1e308",
              "--set", "time.steps=3"], "2 * hopping * t"),
            (["correlation", "--set", "time.t_max=1e308"], "2 * hopping * t"),
            (["correlation", "--set", "time.t_max=-1e308"], "time.t_max must be >= 0"),
            (["correlation", "--set", "time.t_max=NaN"], "time.t_max must be finite"),
            # t = 83.57 / omega passes the config's checks; Omega_1 is 2.29e308
            (["spectrum", "--set", "lattice.num_cavities=4", "--set", "input.site_r=1",
              "--set", "input.site_s=2", "--set", "lattice.omega=1e308",
              "--set", "lattice.hopping=8e307"], "Omega_1 = omega + 2 J"),
            # the verify window is finite; the oracle's H or spectrum is not
            (["verify", "--set", "lattice.omega=1e308", "--set", "lattice.hopping=0.5",
              "--max-n", "8"], "entry 2 * omega is inf"),
            (["verify", "--set", "lattice.omega=9e307", "--set", "lattice.hopping=0.5",
              "--max-n", "8"], "entry 2 * omega is inf"),
            (["verify", "--set", "lattice.omega=8e307", "--set", "lattice.hopping=1e307",
              "--max-n", "8"], "d + sigma is inf"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_overflowing_phases_are_one_line_error(
        self, tmp_path, capsys, argv, product
    ):
        out = tmp_path / "artifact.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning before the error
            err = assert_one_line_error(capsys, *argv, "--out", str(out))
        assert product in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "correlation", "tpd", "sweep", "verify"])
    @pytest.mark.parametrize(
        "overrides",
        [
            ["sweep.theta=[5.0]"],
            ["sweep.theta=[]"],
            ["sweep.branch=high"],
            ["sweep.theta=[0.1,0.1]"],
            ["sweep.theta=null", "sweep.concurrence=[1.5]"],
            ["sweep.theta=null", "sweep.concurrence=[1,1]"],
            ["time.steps=1000001"],
            ["time.steps=" + "9" * 400],
        ],
        ids=lambda value: ",".join(value)[:40],
    )
    def test_rejected_at_load_for_every_command(
        self, capsys, scenarios_dir, command, overrides
    ):
        argv = [command, "--config", str(scenarios_dir / "fig1.json"), "--out", "-"]
        for override in overrides:
            argv += ["--set", override]
        assert_one_line_error(capsys, *argv)

    @pytest.mark.parametrize(
        "overrides",
        [
            ["sweep.theta=[5.0]"],
            ["sweep.branch=high"],
            ["sweep.theta=null", "sweep.concurrence=[1,1]"],
        ],
        ids=lambda value: ",".join(value)[:40],
    )
    def test_invalid_sweep_block_rejected_even_when_flags_replace_it(
        self, capsys, scenarios_dir, overrides
    ):
        argv = ["sweep", "--config", str(scenarios_dir / "fig1.json"), "--out", "-"]
        for override in overrides:
            argv += ["--set", override]
        err = assert_one_line_error(capsys, *argv, "--theta", "0.1,0.2")
        assert "sweep" in err

    def test_null_output_section_is_absent(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "lattice": {"num_cavities": 3, "omega": 1.0, "hopping": 1.0},
            "input": {"site_r": 1, "site_s": 2, "theta": 0.4},
            "time": {"t_max": 1.0, "steps": 2, "scale": "omega"},
            "output": None,
            "sweep": None,
        }))
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--config", str(cfg_path), "--out", str(out)) == 0
        assert '"output":{"format":"csv"}' in out.read_text()


def deep_json(depth):
    return "[" * depth + "]" * depth


# (argv, config document or None, the flag or key the one error line names);
# a document is written to a file and passed with --config
REFUSED_INPUTS = {
    "empty-out": (["--out="], None, "--out"),
    "empty-out-value": (["--out", ""], None, "--out"),
    "empty-config": (["--config="], None, "--config"),
    # where output goes is --out alone, never a config key
    "config-output-path": (
        [], {"output": {"format": "csv", "path": "x.csv"}}, "in 'output': 'path'"
    ),
    "set-output-path": (["--set", "output.path=x.csv"], None, "in 'output': 'path'"),
    "deep-set": (["--set", f"lattice.omega={deep_json(3000)}"], None, "lattice.omega"),
    "deep-config": ([], deep_json(5000), "not valid JSON"),
    "missing-keys": (
        [], {"lattice": {"num_cavities": 29}}, "lattice.omega, lattice.hopping"
    ),
}


@pytest.mark.parametrize(
    "argv, document, names", REFUSED_INPUTS.values(), ids=REFUSED_INPUTS
)
def test_refused_input_is_one_error_line(tmp_path, argv, document, names):
    if document is not None:
        if isinstance(document, dict):  # sections that replace the default's
            document = json.dumps({**default_config_dict(), **document})
        path = tmp_path / "config.json"
        path.write_text(document)
        argv = ["--config", str(path), *argv]
    proc = subprocess.run(
        [sys.executable, "-m", "ccawalk.cli", "spectrum", *argv],
        capture_output=True, text=True, env=src_env(), timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert names in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "x.csv").exists()


# every flag that takes a value: (command, flag, value, dest, parsed, other argv)
VALUED_FLAGS = [
    (command, flag, value, dest, parsed, [])
    for command in COMMANDS
    for flag, value, dest, parsed in [
        ("--config", "scenarios/fig1.json", "config", "scenarios/fig1.json"),
        ("--out", "a.csv", "out", "a.csv"),
        ("--set", "lattice.hopping=0.1", "overrides", ("lattice.hopping=0.1",)),
    ]
] + [
    ("sweep", "--theta", "0.1,0.2", "theta", [0.1, 0.2], []),
    ("verify", "--max-n", "8", "max_n", 8, []),
    ("verify", "--seed", "7", "seed", 7, []),
]
SWITCHES = [("verify", "--swap-weights", "swap_weights")]


class TestParseArgs:
    @pytest.mark.parametrize(
        "command, flag, value, dest, parsed, other", VALUED_FLAGS,
        ids=[f"{command} {flag}" for command, flag, *_ in VALUED_FLAGS],
    )
    def test_both_value_forms_parse_alike(self, command, flag, value, dest, parsed,
                                          other):
        spaced = parse_args([command, *other, flag, value])
        joined = parse_args([command, *other, f"{flag}={value}"])
        assert vars(spaced) == vars(joined)
        assert getattr(spaced, dest) == parsed
        # and no other field moves from its default
        expected = vars(parse_args([command, *other])) | {dest: parsed}
        assert vars(spaced) == expected

    @pytest.mark.parametrize("command, flag, dest", SWITCHES)
    def test_switch_takes_no_value(self, capsys, command, flag, dest):
        assert getattr(parse_args([command]), dest) is False
        assert getattr(parse_args([command, flag]), dest) is True
        assert_one_line_error(capsys, command, f"{flag}=yes")

    def test_defaults(self):
        args = parse_args(["verify"])
        assert (args.config, args.out, args.overrides) == (None, None, ())
        assert (args.max_n, args.seed, args.swap_weights) == (
            ORACLE_MAX_CAVITIES, 20260810, False
        )
        args = parse_args(["sweep"])
        assert args.theta is None
        assert not hasattr(args, "branch")
        assert not hasattr(args, "concurrence")
        assert not hasattr(parse_args(["correlation"]), "t")

    @pytest.mark.parametrize(
        "argv, dest, parsed",
        [
            (["spectrum", "--out", "-"], "out", "-"),
            (["verify", "--seed", "-1"], "seed", -1),
            (["verify", "--max-n", "-5"], "max_n", -5),
            (["sweep", "--theta", "-0.1,0.2"], "theta", [-0.1, 0.2]),
        ],
        ids=["out", "seed", "max-n", "theta"],
    )
    def test_a_value_may_start_with_a_dash(self, argv, dest, parsed):
        assert getattr(parse_args(argv), dest) == parsed

    def test_set_accumulates_and_a_repeated_flag_keeps_its_last_value(self):
        args = parse_args(["correlation", "--set", "a.b=1", "--config", "p", "--out",
                           "x", "--set=c.d=2", "--config=q", "--out", "y"])
        assert args.overrides == ("a.b=1", "c.d=2")
        assert (args.config, args.out) == ("q", "y")
        args = parse_args(["sweep", "--theta", "0.5", "--theta", "1"])
        assert args.theta == [1.0]

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nonsense"],
            ["--config", "scenarios/fig1.json", "spectrum"],
            ["spectrum", "--bogus", "1"],
            ["spectrum", "extra"],
            ["spectrum", "-x"],
            ["tpd", "--theta", "0.1"],
            ["correlation", "--max-n", "8"],
            ["tpd", "--version"],
            ["spectrum", "--out"],
            ["spectrum", "--out", "--set", "lattice.hopping=0.1"],
            ["correlation", "--t", "1"],
            ["verify", "--seed", "1e3"],
            ["verify", "--max-n", "8.5"],
            ["sweep", "--theta", "0.1,,0.2"],
            ["sweep", "--concurrence", "0.5", "--branch", "mid"],
            ["sweep", "--theta", "0.1", "--concurrence", "0.5"],
            ["spectrum", "--conf", "scenarios/fig1.json"],
            ["verify", "--max", "8"],
        ],
        ids=" ".join,
    )
    def test_malformed_argv_is_one_line_error(self, capsys, argv):
        assert_one_line_error(capsys, *argv)
        assert capsys.readouterr().out == ""

    def test_t_out_of_range_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        err = assert_one_line_error(capsys, "correlation", "--set", "time.t_max=-5",
                                    "--out", str(out))
        assert "time.t_max must be >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["-h"], ["--help"]], ids=" ".join)
    def test_help_lists_every_command(self, capsys, argv):
        assert run(*argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("usage: ccawalk")
        for command in COMMANDS:
            assert f"\n  {command} " in captured.out

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("help_flag", ["-h", "--help"])
    def test_command_help_lists_exactly_its_flags(self, capsys, command, help_flag):
        assert run(command, "--set", "a.b=1", help_flag) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(f"usage: ccawalk {command}")
        listed = re.findall(r"^  (--[a-z-]+) ", captured.out, re.MULTILINE)
        expected = [f for c, f, *_ in VALUED_FLAGS + SWITCHES if c == command]
        assert sorted(listed) == sorted(expected)

    def test_version(self, capsys):
        assert run("--version") == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("ccawalk 0.1.0\n", "")

    def test_cold_start_loads_no_argument_parsing_modules(self):
        # what the interpreter and numpy load themselves is the baseline; on
        # numpy 2.4 that holds none of the three, so there none is loaded at all
        code = (
            "import sys\n"
            "import numpy\n"
            "baseline = set(sys.modules)\n"
            "import ccawalk.cli\n"
            "assert ccawalk.cli.main(['tpd']) == 0\n"
            "assert ccawalk.cli.main(['verify', '--max-n', '8']) == 0\n"
            "loaded = [m for m in ('argparse', 'gettext', 'locale')\n"
            "          if m in sys.modules and m not in baseline]\n"
            "print(' '.join(loaded), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "\n"


class TestAtomicOut:
    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "spec.csv"
        target.write_bytes(b"old bytes\n")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert run("spectrum", *SMALL_CHAIN, "--out", str(target)) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert target.read_bytes() == b"old bytes\n"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_new_file_mode_follows_umask(self, tmp_path):
        target = tmp_path / "spec.csv"
        old_umask = os.umask(0o027)
        try:
            assert run("spectrum", *SMALL_CHAIN, "--out", str(target)) == 0
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(tmp_path.iterdir()) == [target]

    def test_replaces_existing_file_whole_keeping_its_mode(self, tmp_path):
        target = tmp_path / "spec.csv"
        target.write_text("x" * 100000)
        target.chmod(0o600)
        assert run("spectrum", *SMALL_CHAIN, "--out", str(target)) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        comments, header, rows = read_csv(target)
        assert header == ["k", "Omega_k"] and len(rows) == 3
        assert sorted(tmp_path.iterdir()) == [target]

    def test_symlink_target_is_replaced_behind_the_link(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real)
        assert run("spectrum", *SMALL_CHAIN, "--out", str(link)) == 0
        assert link.is_symlink()
        assert real.read_text().startswith("# tool = ccawalk")

    def test_device_target_is_written_in_place(self):
        assert run("spectrum", *SMALL_CHAIN, "--out", os.devnull) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


SCENARIOS = REPO_ROOT / "scenarios"
# every table command on fig1 in both formats, and every verify report:
# fig1-fig3 at the default --max-n and on a 50-cavity chain at --max-n 50
# (--max-n 50 keeps the shipped 29-cavity chain whole: the default's run)
RERUNS = {
    f"{command}-{fmt}": [command, "--config", str(SCENARIOS / "fig1.json"),
                         "--set", f"output.format={fmt}"]
    for command in ("spectrum", "correlation", "tpd", "sweep")
    for fmt in ("csv", "json")
} | {
    f"verify-{scenario}-{size}": [
        "verify", "--config", str(SCENARIOS / f"{scenario}.json"), *flags
    ]
    for scenario in ("fig1", "fig2", "fig3")
    for size, flags in [
        ("default", []),
        ("n50", ["--set", "lattice.num_cavities=50", "--max-n", "50"]),
    ]
}


class TestDeterminism:
    @pytest.mark.parametrize("argv", RERUNS.values(), ids=RERUNS)
    def test_repeat_runs_identical_bytes(self, tmp_path, argv):
        # the second run writes to another directory: the recorded config
        # never names the file, and exit 0 is a verify report's PASS
        here, there = tmp_path / "here.out", tmp_path / "elsewhere" / "there.out"
        there.parent.mkdir()
        assert run(*argv, "--out", str(here)) == 0
        assert run(*argv, "--out", str(there)) == 0
        assert here.read_bytes() == there.read_bytes()


# The input contract: any argv, override or config document ends in exit
# 0-3, never a traceback.  Sizes stay at N <= 12 and time.steps <= 50, so an
# example that loads runs in milliseconds.
CONTRACT_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 12)
    | st.integers(2**1024, 2**1100)  # valid JSON, beyond the double range
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=5,
)
CONTRACT_ANGLES = st.lists(st.floats(0.0, 1.6), min_size=1, max_size=3)
# plausible values of the schema keys and of the removed angle and path keys,
# or any JSON value in their place, at any other schema key or at no key at all
CONTRACT_VALUES = {
    f"{section}.{key}": CONTRACT_JSON for section, keys in _SECTION_KEYS.items()
    for key in keys
} | {
    "lattice.num_cavities": st.integers(2, 12),
    "lattice.omega": st.floats(0.1, 3.0),
    "lattice.hopping": st.floats(0.0, 2.0),
    "input.site_r": st.integers(1, 8),
    "input.site_s": st.integers(1, 8),
    "input.theta": st.floats(0.0, 1.6),
    "input.concurrence": st.floats(0.0, 1.0),
    "input.branch": st.just("high"),
    "time.t_max": st.floats(0.0, 1e3),
    "time.steps": st.integers(1, 50),
    "time.scale": st.sampled_from(["omega", "hopping"]),
    "output.format": st.sampled_from(["csv", "json"]),
    "output.path": st.just("x.csv"),
    "sweep.theta": CONTRACT_ANGLES,
    "sweep.concurrence": CONTRACT_ANGLES,
    "sweep": st.none(),
    "x.y": CONTRACT_JSON,
}
CONTRACT_SET = st.sampled_from(sorted(CONTRACT_VALUES)).flatmap(
    lambda key: st.builds(
        lambda value: f"{key}={json.dumps(value)}",
        sometimes(CONTRACT_JSON, CONTRACT_VALUES[key]),
    )
) | st.text(max_size=8)
# a small config document, with removed keys and spoiled sections at times
CONTRACT_DOCUMENT = sometimes(CONTRACT_JSON, st.fixed_dictionaries(
    {
        "lattice": st.fixed_dictionaries({
            "num_cavities": st.integers(4, 12),
            "omega": st.floats(0.1, 3.0),
            "hopping": st.floats(0.0, 2.0),
        }),
        "input": st.fixed_dictionaries(
            {"site_r": st.integers(1, 2), "site_s": st.integers(3, 4),
             "theta": st.floats(0.0, 1.6)},
        ),
        "time": st.fixed_dictionaries({
            "t_max": st.floats(0.0, 100.0),
            "steps": st.integers(1, 50),
            "scale": st.sampled_from(["omega", "hopping"]),
        }),
    },
    optional={
        "output": st.fixed_dictionaries({}, optional={
            "format": st.sampled_from(["csv", "json", "xml"]),
        }),
        "sweep": st.fixed_dictionaries({"theta": st.just([0.1, 0.2])}, optional={
            "concurrence": CONTRACT_ANGLES,
        }),
        "extra": CONTRACT_JSON,
    },
))
STRAY_TOKENS = ["--concurrence", "--branch", "--conf", "-x", "--", "extra", "--version",
                "-h", "--set="]
# without --config: the built-in scenario, cut to 8 cavities and 20 steps
SMALL_DEFAULT = [
    "--set", "lattice.num_cavities=8", "--set", "input.site_r=3",
    "--set", "input.site_s=4", "--set", "time.steps=20", "--set", "sweep.theta=[0.1]",
]


def _flag_tokens(draw, flag):
    """``flag`` and a drawn value, as one or two argv tokens."""
    if flag == "--set":
        value = draw(CONTRACT_SET)
    elif flag in ("--theta", "--concurrence"):
        value = ",".join(map(repr, draw(CONTRACT_ANGLES)))
    elif flag in ("--max-n", "--seed"):
        value = str(draw(st.integers(-2, 20)))
    elif flag in cli._COMMON or flag == "--branch":
        value = draw(st.sampled_from(["-", "", "low", "x.json"]))
    else:
        return [flag]
    return draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))


@st.composite
def contract_argv(draw):
    """(argv before --out, how the config comes, a document, a stray --config).

    The config comes built in ("none"), as the drawn document or as a
    missing file; "{config}" in argv stands for the document's path.
    """
    command = draw(sometimes(st.sampled_from(["nonsense", "--help", ""]),
                             st.sampled_from(COMMANDS)))
    own = list(cli._COMMANDS.get(command, ("", {}))[1]) + ["--set"]
    every = sorted({f for _, flags in cli._COMMANDS.values() for f in flags}
                   | set(cli._COMMON) | set(STRAY_TOKENS))
    argv, stray = [command], False
    config = draw(st.sampled_from(["none"] * 4 + ["document"] * 3 + ["missing"]))
    argv += SMALL_DEFAULT if config == "none" else ["--config", "{config}"]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(sometimes(st.sampled_from(every), st.sampled_from(own)))
        argv += _flag_tokens(draw, flag)
        stray = stray or flag == "--config"
    return argv, config, draw(CONTRACT_DOCUMENT), stray


@settings(max_examples=150, deadline=None)
@given(contract_argv(), st.sampled_from(["file"] * 5 + ["stdout", "no-dir", "a-dir"]))
def test_any_argv_keeps_the_exit_code_contract(drawn, out_kind):
    argv, config, document, stray = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        if config == "document":
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(document, fh)
        argv = [path if token == "{config}" else token for token in argv]
        out = {"file": os.path.join(tmp, "out"), "stdout": "-",
               "no-dir": os.path.join(tmp, "absent", "out"), "a-dir": tmp}[out_kind]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", out])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert len(stderr.getvalue().splitlines()) == 1
        assert stderr.getvalue().startswith("error: ")
    if code == 3:  # a drawn --config value names no file
        assert config == "missing" or stray or out_kind in ("no-dir", "a-dir")
