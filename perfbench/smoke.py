"""Smoke test of the benchmark itself; run from the checkout root:

    python3 perfbench/smoke.py

1. Runs every workload shrunk to a tiny size (``--tiny``), untraced and
   traced, and checks that the last line is a passing result carrying every
   metric named in BENCHMARK.json with its unit.
2. Checks that the gate counts corrupted artifacts as failed ops: a tpd CSV
   whose eta was computed with the superposition weights swapped, and a
   truncated CSV.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads
from gate import COLUMNS, Reference
from run import HERE, gate_failures

ROOT = Path.cwd().resolve()


def check_result_line(workload: str, trace: int, spec: dict) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.01", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{cmd} exited {proc.returncode}: {proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"]), result["metrics"]
    for m in wanted:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], (m, emitted)
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
        assert trace or emitted["value"] > 0, (workload, m["name"], emitted)
    print(f"smoke: {workload} trace={trace}: {len(wanted)} metrics, "
          f"{result['attempted']} ops", flush=True)


class FakeRunner:
    """Just what gate_failures reads from a Runner."""

    def __init__(self, ops, kept):
        self.ops, self.kept, self.blas_threads = ops, kept, 1


def write_tpd_csv(path: Path, header_lines: list[str], rows: np.ndarray) -> None:
    lines = header_lines + [",".join(format(v, ".17g") for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_gate_catches_corruption(workdir: Path) -> None:
    op = workloads.build("large-chain", 5, ROOT, tiny=True)[0]
    assert op.command == "tpd"
    good = workdir / "tpd.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "ccawalk.cli", op.command, *op.argv, "--out", str(good)],
                   cwd=ROOT, env=env, check=True, timeout=120)
    lines = good.read_text(encoding="utf-8").splitlines()
    header_lines = [line for line in lines if line.startswith("#")] + [",".join(COLUMNS["tpd"])]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[len(header_lines):]])

    swapped = workdir / "swapped.csv"
    physics = op.physics
    rows[:, 3] = Reference(physics["N"], physics["omega"], physics["J"]).eta(
        physics, math.pi / 2 - physics["theta"], rows[:, 0])
    rows[0, 3] = 0.0
    write_tpd_csv(swapped, header_lines, rows)

    truncated = workdir / "truncated.csv"
    data = good.read_bytes()
    truncated.write_bytes(data[: 2 * len(data) // 3])

    kept = {(0, "good"): good, (0, "swapped"): swapped, (0, "truncated"): truncated}
    results = [{"op": 0, "exit": 0, "error": None, "artifact": digest, "trace": False,
                "threads": 1} for digest in ("good", "swapped", "truncated")]
    failures = gate_failures(FakeRunner([op], kept), results, seed=5)
    assert id(results[0]) not in failures, failures
    assert "eta deviates" in failures.get(id(results[1]), ""), failures
    assert id(results[2]) in failures, failures
    print("smoke: gate fails swapped-weight eta and truncated CSV, passes the original")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in workloads.NAMES:
        for trace in (0, 1):
            check_result_line(workload, trace, spec)
    workdir = HERE / "_work" / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        check_gate_catches_corruption(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
