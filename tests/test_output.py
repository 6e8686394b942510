"""Formatting is load-bearing: byte-identical reruns depend on it.

``render_csv`` and ``render_json`` below are the per-row loops the block
renderer replaced, kept as the reference it must match byte for byte.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT

from ccawalk import __version__
from ccawalk.cli import main
from ccawalk.config import (
    apply_overrides,
    config_from_dict,
    config_to_dict,
    read_config_document,
)
from ccawalk.lattice import mode_frequencies
from ccawalk.observables import NoonInput, concurrence, correlation_matrix, tpd_family
from ccawalk.output import (
    BLOCK_ROWS,
    _comment_lines,
    format_value,
    provenance,
    render,
    write_text,
)


def render_csv(prov, columns, rows):
    out = _comment_lines(prov)
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(format_value(v) for v in row))
    return "\n".join(out) + "\n"


def render_json(prov, columns, rows):
    records = [dict(zip(columns, row)) for row in rows]
    doc = {"provenance": prov, "records": records}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def rendered(fmt, prov, columns, outer, inner, values):
    return "".join(render(fmt, prov, columns, outer, inner, values))


def reference_artifact(command, cfg):
    """The artifact as the row-tuple command code and the loops wrote it."""
    lattice = cfg.lattice
    noon = cfg.input
    t_end, steps = cfg.absolute_time(), cfg.time.steps
    grid = [t_end * i / steps for i in range(steps + 1)]
    omega, hopping = cfg.lattice.omega, cfg.lattice.hopping
    if command == "spectrum":
        extra, columns = {}, ["k", "Omega_k"]
        freqs = mode_frequencies(lattice)
        rows = [(k + 1, float(freq)) for k, freq in enumerate(freqs)]
    elif command == "correlation":
        entries = correlation_matrix(lattice, noon, [t_end])[0]
        n = cfg.lattice.num_cavities
        extra = {
            "t": t_end,
            "omega_t": t_end * omega,
            "J_t": t_end * hopping,
            "theta": noon.theta,
            "concurrence": concurrence(noon),
        }
        columns = ["m", "n", "P_mn"]
        rows = [
            (m + 1, k + 1, float(entries[m, k])) for m in range(n) for k in range(n)
        ]
    elif command == "tpd":
        (series,) = tpd_family(lattice, [noon], grid)
        extra = {"theta": noon.theta, "concurrence": concurrence(noon)}
        columns = ["t", "omega_t", "J_t", "eta"]
        rows = [
            (float(t), float(t * omega), float(t * hopping), float(eta))
            for t, eta in zip(grid, series)
        ]
    else:
        thetas = list(cfg.sweep.theta)
        noons = [NoonInput(theta=theta, site_r=noon.site_r, site_s=noon.site_s)
                 for theta in thetas]
        family = tpd_family(lattice, noons, grid)
        extra, columns = {"thetas": thetas}, ["theta", "concurrence", "t", "eta"]
        rows = [
            (theta, concurrence(noon), float(t), float(eta))
            for theta, noon, series in zip(thetas, noons, family)
            for t, eta in zip(grid, series)
        ]
    prov = provenance(command, __version__, config_to_dict(cfg), extra)
    reference = render_json if cfg.output.format == "json" else render_csv
    return reference(prov, columns, rows).encode("utf-8")


def test_float_formatting_17_significant_digits():
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(83.57) == "83.569999999999993"
    assert format_value(1.0) == "1"
    assert format_value(0.0) == "0"
    assert format_value(-2.5e-17) == "-2.4999999999999999e-17"


def test_formatted_floats_round_trip_exactly():
    for value in (0.1, 83.57, 2.9890437907365466, 1e-300, -7.25):
        assert float(format_value(value)) == value


def test_int_passthrough():
    assert format_value(29) == "29"


def test_csv_layout():
    prov = {"tool": "ccawalk", "config": {"a": 1}}
    values = np.array([[0.5, 0.25]])
    text = rendered("csv", prov, ["x", "y"], [], [np.array([1, 2])], values)
    lines = text.split("\n")
    assert lines[0] == "# tool = ccawalk"
    assert lines[1] == '# config = {"a":1}'
    assert lines[2] == "x,y"
    assert lines[3] == "1,0.5"
    assert text.endswith("\n")
    assert "\r" not in text


def test_json_mirrors_rows():
    prov = {"tool": "ccawalk"}
    values = np.array([[0.5]])
    doc = json.loads(rendered("json", prov, ["x", "y"], [], [np.array([1])], values))
    assert doc["provenance"]["tool"] == "ccawalk"
    assert doc["records"] == [{"x": 1, "y": 0.5}]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["spectrum", "correlation", "tpd", "sweep"])
@pytest.mark.parametrize("scenario", ["fig1", "fig2", "fig3"])
def test_scenario_artifacts_match_row_loop_bytes(
    tmp_path, scenarios_dir, scenario, command, fmt
):
    path = str(scenarios_dir / f"{scenario}.json")
    override = f"output.format={fmt}"
    out = tmp_path / f"{command}.{fmt}"
    assert main([command, "--config", path, "--set", override, "--out", str(out)]) == 0
    cfg = config_from_dict(apply_overrides(read_config_document(path), [override]))
    assert out.read_bytes() == reference_artifact(command, cfg)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tpd_across_a_block_boundary_matches_row_loop_bytes(
    tmp_path, scenarios_dir, fmt
):
    # steps + 1 = BLOCK_ROWS + 1 rows: one full block and one single row
    path = str(scenarios_dir / "fig1.json")
    overrides = ["lattice.num_cavities=5", "input.site_r=2", "input.site_s=3",
                 f"time.steps={BLOCK_ROWS}", f"output.format={fmt}"]
    out = tmp_path / f"tpd.{fmt}"
    argv = ["tpd", "--config", path, "--out", str(out)]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 0
    cfg = config_from_dict(apply_overrides(read_config_document(path), overrides))
    assert out.read_bytes() == reference_artifact("tpd", cfg)


EDGE_VALUES = [-0.0, 1e-300, 1e300, 0.1, 5e-324, -2.5e-17, 83.57, 1.0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS]
)
def test_block_boundaries_and_edge_values_match_reference(fmt, rows):
    rng = np.random.default_rng(rows)
    index = np.arange(rows) * 7919 - 40000  # negative and multi-digit ints
    edges = np.resize(np.array(EDGE_VALUES), rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
    prov = {"tool": "ccawalk", "config": {"a": [1, 2.5]}, "t": 0.1, "n": 3}
    columns = ["m", "edge", "value"]
    expected_rows = list(zip(index.tolist(), edges.tolist(), values.tolist()))
    reference = render_json if fmt == "json" else render_csv
    expected = reference(prov, columns, expected_rows)
    chunks = list(render(fmt, prov, columns, [], [index, edges], values[None]))
    assert "".join(chunks) == expected
    # the header, one chunk per block of at most BLOCK_ROWS rows, JSON's closing
    assert len(chunks) == 1 + -(-rows // BLOCK_ROWS) + (fmt == "json")


def test_table_is_row_major_over_outer_then_inner():
    outer, inner = np.array([10, 20, 30]), np.array([0.5, 1.5])
    values = np.arange(6.0).reshape(3, 2)
    _, *chunks = render("csv", {}, ["o", "i", "v"], [outer], [inner], values)
    # a chunk never spans two outer values
    blocks = [[line.split(",") for line in chunk.splitlines()] for chunk in chunks]
    assert [{row[0] for row in block} for block in blocks] == [{"10"}, {"20"}, {"30"}]
    rows = [(int(o), float(i), float(v)) for block in blocks for o, i, v in block]
    assert rows == [(o, i, values[k, j]) for k, o in enumerate(outer.tolist())
                    for j, i in enumerate(inner.tolist())]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", EDGE_VALUES + [float("nan"), float("-inf"), 7])
def test_outer_column_renders_as_its_broadcast_column(fmt, value):
    rows = 5
    inner = np.linspace(-1.0, 1.0, rows)
    fixed = np.array([value])
    repeated = np.repeat(fixed, rows)
    prov = {"tool": "ccawalk"}
    # outer columns come first in CSV; JSON's sorted keys put "z" last
    columns = ["a", "z", "b", "c"]
    text = rendered(fmt, prov, columns, [fixed, fixed], [inner], repeated[None])
    inner_only = [repeated, repeated, inner]
    assert text == rendered(fmt, prov, columns, [], inner_only, [repeated])
    if value == 0.0 and np.signbit(value):
        assert ("-0," if fmt == "csv" else '"a": -0.0') in text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_floats_render_as_the_encoder_writes_them(fmt):
    values = np.linspace(0.0, 1.0, BLOCK_ROWS + 3)
    values[[1, -3, -2]] = [np.nan, np.inf, -np.inf]  # the first and the last block
    index = np.arange(values.size)
    prov = {"tool": "ccawalk"}
    text = rendered(fmt, prov, ["i", "v"], [], [index], values[None])
    rows = list(zip(index.tolist(), values.tolist()))
    reference = render_json if fmt == "json" else render_csv
    assert text == reference(prov, ["i", "v"], rows)
    names = ('"v": NaN', '"v": Infinity', '"v": -Infinity') if fmt == "json" else (
        "1,nan", ",inf", ",-inf")
    assert all(name in text for name in names)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_table_matches_reference(fmt):
    prov = {"tool": "ccawalk"}
    reference = render_json if fmt == "json" else render_csv
    assert rendered(fmt, prov, ["x"], [], [], []) == reference(prov, ["x"], [])
    empty = [np.array([], dtype=float)]
    assert rendered(fmt, prov, ["x"], [], [], empty) == reference(prov, ["x"], [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_bytes_equal_file_bytes(tmp_path, scenarios_dir, fmt):
    argv = ["sweep", "--config", str(scenarios_dir / "fig1.json"),
            "--set", f"output.format={fmt}"]
    out = tmp_path / f"sweep.{fmt}"
    assert main(argv + ["--out", str(out)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ccawalk.cli", *argv, "--out", "-"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()


@pytest.mark.parametrize("existed", [True, False], ids=["existing", "new"])
def test_failing_chunk_iterator_leaves_target_untouched(tmp_path, existed):
    target = tmp_path / "out.csv"
    if existed:
        target.write_bytes(b"old bytes\n")

    def chunks():
        yield "x" * (1 << 20)  # past the file buffer, so the temporary file has data
        yield "y" * (1 << 20)
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="renderer failed"):
        write_text(chunks(), str(target))
    if existed:
        assert target.read_bytes() == b"old bytes\n"
        assert sorted(tmp_path.iterdir()) == [target]
    else:
        assert sorted(tmp_path.iterdir()) == []


def test_write_text_takes_a_string_or_chunks(tmp_path):
    one, many = tmp_path / "one.txt", tmp_path / "many.txt"
    write_text("a,b\n1,2\n", str(one))
    write_text(iter(["a,b\n", "1,2\n"]), str(many))
    assert one.read_bytes() == many.read_bytes() == b"a,b\n1,2\n"
