import json
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import REPO_ROOT, read_csv

from ccawalk import LatticeSpec, NoonInput, cli, correlation_matrix, mode_frequencies
from ccawalk.cli import main
from ccawalk.config import MAX_STEPS

PI = np.pi
SMALL_CHAIN = [
    "--set", "lattice.num_cavities=3",
    "--set", "input.site_r=1",
    "--set", "input.site_s=2",
]


def run(*argv):
    return main(list(argv))


def assert_one_line_error(capsys, *argv):
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    return err


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
                   "--t", "0", "--out", str(out)) == 0
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

    def test_concurrence_list(self, tmp_path, scenarios_dir):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", str(scenarios_dir / "fig2.json"),
                   "--concurrence", "0,0.5,1", "--out", str(out)) == 0
        _, _, rows = read_csv(out)
        thetas = sorted({float(r[0]) for r in rows})
        assert thetas == pytest.approx([0.0, PI / 12, PI / 4])

    @pytest.mark.parametrize(
        "flags",
        [["--theta", "0.1", "--branch", "high"], ["--branch", "high"],
         ["--branch", "low"]],
        ids=["with-theta", "high-alone", "low-alone"],
    )
    def test_branch_without_concurrence_is_one_line_error(
        self, tmp_path, capsys, monkeypatch, scenarios_dir, flags
    ):
        def no_kernel(*args):
            raise AssertionError("--branch must be refused before any eta exists")

        monkeypatch.setattr(cli, "tpd_family", no_kernel)
        out = tmp_path / "x.csv"
        err = assert_one_line_error(
            capsys, "sweep", "--config", str(scenarios_dir / "fig1.json"), *flags,
            "--out", str(out),
        )
        assert "--branch" in err and "--concurrence" in err
        assert not out.exists()

    def test_concurrence_without_branch_takes_the_low_branch(
        self, tmp_path, scenarios_dir
    ):
        outputs = []
        for branch in ([], ["--branch", "low"]):
            out = tmp_path / f"sweep{len(branch)}.csv"
            assert run("sweep", "--config", str(scenarios_dir / "fig2.json"),
                       "--concurrence", "0,0.5,1", *branch, "--set", "time.steps=10",
                       "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_duplicates_rejected(self, tmp_path, scenarios_dir):
        code = run("sweep", "--config", str(scenarios_dir / "fig2.json"),
                   "--theta", "0.1,0.1", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_no_values_anywhere_rejected(self, tmp_path):
        code = run("sweep", *SMALL_CHAIN, "--out", str(tmp_path / "x.csv"))
        assert code == 1

    @pytest.mark.parametrize("flag", ["--theta", "--concurrence"])
    def test_angles_times_steps_beyond_limit_is_one_line_error(
        self, capsys, monkeypatch, scenarios_dir, flag
    ):
        def no_kernel(*args):
            raise AssertionError("the limit must be checked before any eta exists")

        monkeypatch.setattr(cli, "tpd_family", no_kernel)
        values = ",".join(str(k / 40) for k in range(17))  # 17 x (MAX_STEPS + 1)
        assert_one_line_error(
            capsys, "sweep", "--config", str(scenarios_dir / "fig1.json"),
            "--set", f"time.steps={MAX_STEPS}", flag, values, "--out", "-",
        )

    def test_points_limit_is_inclusive(
        self, tmp_path, capsys, monkeypatch, scenarios_dir
    ):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 3 * 11)
        argv = ["sweep", "--config", str(scenarios_dir / "fig1.json"),
                "--set", "time.steps=10", "--out", str(tmp_path / "x.csv")]
        assert run(*argv) == 0  # the scenario's 3 angles x 11 times
        assert_one_line_error(capsys, *argv, "--theta", "0.1,0.2,0.3,0.4")

    @pytest.mark.parametrize(
        "flags, block",
        [
            (["--theta", "0.1,0.2"], {"theta": [0.1, 0.2]}),
            (["--concurrence", "0,0.5,1"],
             {"concurrence": [0.0, 0.5, 1.0], "branch": "low"}),
            (["--concurrence", "0,0.5,1", "--branch", "high"],
             {"concurrence": [0.0, 0.5, 1.0], "branch": "high"}),
        ],
        ids=["theta", "concurrence", "concurrence-high"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_header_config_reruns_a_flag_driven_sweep(
        self, tmp_path, scenarios_dir, flags, block, fmt
    ):
        first, again = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        assert run("sweep", "--config", str(scenarios_dir / "fig2.json"), *flags,
                   "--set", "time.steps=10", "--set", f"output.format={fmt}",
                   "--out", str(first)) == 0
        if fmt == "csv":
            comments, _, _ = read_csv(first)
            (line,) = [c for c in comments if c.startswith("# config = ")]
            config = json.loads(line.removeprefix("# config = "))
        else:
            config = json.loads(first.read_text())["provenance"]["config"]
        assert config["sweep"] == block
        header_cfg = tmp_path / "header.json"
        header_cfg.write_text(json.dumps(config))
        assert run("sweep", "--config", str(header_cfg), "--out", str(again)) == 0
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

    def test_report_written_to_file(self, tmp_path, scenarios_dir):
        out = tmp_path / "report.txt"
        assert run("verify", "--config", str(scenarios_dir / "fig1.json"),
                   "--out", str(out)) == 0
        assert "overall: PASS" in out.read_text()


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

    def test_config_output_path_respected(self, tmp_path):
        target = tmp_path / "from_config.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "lattice": {"num_cavities": 3, "omega": 1.0, "hopping": 1.0},
            "input": {"site_r": 1, "site_s": 2, "theta": 0.4},
            "time": {"t_max": 1.0, "steps": 2, "scale": "omega"},
            "output": {"format": "csv", "path": str(target)},
        }))
        assert run("spectrum", "--config", str(cfg_path)) == 0
        assert target.exists()


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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ccawalk.cli", command, "--set", override,
             "--out", "-"],
            capture_output=True, text=True, env=env, timeout=60,
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
        "flag", [["--seed", "-1"], ["--max-n", "0"], ["--max-n", "-5"]], ids=" ".join
    )
    def test_bad_verify_flag_is_one_line_error(self, capsys, flag):
        assert_one_line_error(capsys, "verify", *flag)

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
            (["correlation", "--t", "1e308"], "2 * hopping * t"),
            (["correlation", "--t=-1e308"], "2 * hopping * t"),
            (["correlation", "--t", "nan"], "t is nan"),
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
        "flags", [["--theta", "0.1,0.2"], ["--concurrence", "0.5", "--branch", "high"]],
        ids=["theta", "concurrence"],
    )
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
        self, capsys, scenarios_dir, flags, overrides
    ):
        argv = ["sweep", "--config", str(scenarios_dir / "fig1.json"), "--out", "-"]
        for override in overrides:
            argv += ["--set", override]
        err = assert_one_line_error(capsys, *argv, *flags)
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
        assert '"output":{"format":"csv","path":null}' in out.read_text()


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


class TestDeterminism:
    def test_repeat_runs_identical_bytes(self, tmp_path, scenarios_dir):
        cfg = str(scenarios_dir / "fig1.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("correlation", "--config", cfg, "--out", str(a))
        run("correlation", "--config", cfg, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_repeat_json_runs_identical_bytes(self, tmp_path, scenarios_dir):
        cfg = str(scenarios_dir / "fig3.json")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("tpd", "--config", cfg, "--set", "output.format=json", "--out", str(a))
        run("tpd", "--config", cfg, "--set", "output.format=json", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
