"""ccawalk benchmark: time CLI operations end to end, or trace them by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ccawalk checkout; the program under test is the
checkout's own ``src/ccawalk``.  Workloads are defined in workloads.py and
the metrics in ../BENCHMARK.json.

Every operation is one ``ccawalk`` command line run as ``cli.main(argv)``
in its own fresh child process (child.py), one child at a time, each with
the BLAS thread count set to the number of usable CPUs.  One untimed warm-up
op fills the bytecode and page caches; then whole passes over the
workload's op list repeat until S seconds have passed.

End-to-end metrics (``--trace 0``):

* wall_s       one pass: the sum over ops of each op's median time, from
               "imports done" to ``main`` returning, over the timed passes
* cpu_s        the same for process CPU time, user+sys over all threads
* setup_s      median over all timed children of spawn -> ``import
               ccawalk.cli`` done
* peak_rss_mb  largest ``ru_maxrss`` of any timed child, from ``os.wait4``

``--trace 1`` runs the same warm-up and timed passes, then traced passes for
S/2 seconds (child.py wraps the public functions of config, lattice,
observables, oracle, verify and output) and one pass with a single BLAS
thread, and reports the per-module metrics.

After the passes, the correctness gate (gate.py) checks every distinct
artifact against an independent reference, and each traced artifact must be
byte-identical to its untraced counterpart.  An op fails on an unexpected
exit code, an exception, or a failed check.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full result with the environment is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads
from gate import Gate

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
EXIT_SETUP = 2

# Per-op metrics where one pass reports the largest value, not the sum.
MAX_KEYS = {"oracle.build_two_photon_hamiltonian.dim"}


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    """Spawns one child per op, one at a time, and keeps distinct artifacts."""

    def __init__(self, root: Path, ops, workdir: Path, blas_threads: int):
        self.root, self.ops, self.workdir = root, ops, workdir
        self.blas_threads = blas_threads
        self.kept = {}  # (op index, sha256) -> path of the first such artifact
        src = str(root / "src")
        inherited = os.environ.get("PYTHONPATH")
        # Children reuse bytecode caches, as an installed package would; the
        # caches live in the work directory so nothing is written elsewhere.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
        self.env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")

    def _env(self, threads: int) -> dict:
        return dict(self.env, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))

    def run_op(self, index: int, trace: bool, threads: int) -> dict:
        op = self.ops[index]
        out = self.workdir / f"op{index}.{'json' if op.fmt == 'json' else 'txt'}"
        record_path = self.workdir / f"op{index}.record.json"
        err_path = self.workdir / f"op{index}.stderr"
        for stale in (out, record_path):
            stale.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(record_path), str(int(trace)),
               str(index), op.command, *op.argv, "--out", str(out)]
        with open(err_path, "wb") as err:
            spawn = now_ns()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self._env(threads),
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = exit_code = os.waitstatus_to_exitcode(status)
        result = {"op": index, "exit": exit_code, "rss_kb": usage.ru_maxrss,
                  "trace": trace, "threads": threads, "error": None, "artifact": None}
        try:
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            record = None
        if record is None:
            stderr_tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            result["error"] = f"child wrote no record (exit {exit_code}): {stderr_tail}"
            return result
        if "exception" in record:
            result["error"] = record["exception"].strip().splitlines()[-1]
        elif not Path(record["module_file"]).is_relative_to(self.root / "src"):
            result["error"] = f"imported ccawalk from {record['module_file']}"
        result.update(
            setup_s=(record["import_done_ns"] - spawn) / 1e9,
            wall_s=(record["end_ns"] - record["start_ns"]) / 1e9,
            cpu_s=record["cpu_ns"] / 1e9,
            spans=record["spans"],
        )
        if out.exists():
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            result["artifact"] = digest
            if (index, digest) not in self.kept:
                kept = self.workdir / f"kept-op{index}-{len(self.kept)}{out.suffix}"
                os.replace(out, kept)
                self.kept[(index, digest)] = kept
        return result

    def run_pass(self, trace: bool = False, threads: int | None = None) -> list[dict]:
        threads = self.blas_threads if threads is None else threads
        return [self.run_op(i, trace, threads) for i in range(len(self.ops))]

    def passes_for(self, seconds: float, trace: bool = False) -> list[list[dict]]:
        """Whole passes until ``seconds`` have elapsed; at least one."""
        deadline = time.monotonic() + seconds
        passes = [self.run_pass(trace)]
        while time.monotonic() < deadline:
            passes.append(self.run_pass(trace))
        return passes


def pass_total(passes: list[list[dict]], key: str) -> float:
    """One pass's total: the sum over ops of each op's median over passes."""
    return sum(statistics.median(p[i][key] for p in passes) for i in range(len(passes[0])))


def op_layers(result: dict) -> dict:
    """Per-module totals of one traced op, keyed like the per-layer metrics."""
    spans = result["spans"]
    child_s = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += (end - start) / 1e9
    totals = defaultdict(float)
    for index, (name, start, end, parent, counts) in enumerate(spans):
        duration = (end - start) / 1e9
        if name == "oracle.evolve" and totals["oracle.evolve.calls"] == 0:
            totals["oracle.evolve.first_s"] = duration
        totals[f"{name}.s"] += duration
        totals[f"{name}.self_s"] += duration - child_s[index]
        totals[f"{name}.calls"] += 1
        for key, value in counts.items():
            totals[f"{name}.{key}"] += value
        if parent < 0:
            totals["trace.covered_s"] += duration
    totals["trace.op_s"] = result["wall_s"]
    totals["cli.main.self_s"] = result["wall_s"] - totals["trace.covered_s"]
    return totals


def layer_totals(passes: list[list[dict]]) -> dict:
    """Per-module totals of one pass: per op, the median over traced passes."""
    per_op = [[op_layers(result) for result in p] for p in passes]
    totals = defaultdict(float)
    for i in range(len(per_op[0])):
        keys = set().union(*(p[i] for p in per_op))
        for key in keys:
            value = statistics.median(p[i].get(key, 0.0) for p in per_op)
            totals[key] = max(totals[key], value) if key in MAX_KEYS else totals[key] + value
    return totals


def per_layer_metrics(totals: dict, untraced_wall: float, traced_wall: float,
                      blas1: list[dict]) -> dict:
    def ratio(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    metrics = defaultdict(float, totals)  # a module the workload never calls reads 0
    metrics["config.s"] = totals["config.apply_overrides.s"] + totals["config.config_from_dict.s"]
    metrics["observables.tpd_series.us_per_pt"] = ratio(
        totals["observables.tpd_series.s"], totals["observables.tpd_series.pts"], 1e6)
    metrics["output.render.ns_per_byte"] = ratio(
        totals["output.render.s"], totals["output.render.bytes"], 1e9)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.coverage"] = ratio(totals["trace.covered_s"], totals["trace.op_s"], 1.0)
    metrics["blas1.wall_s"] = sum(r["wall_s"] for r in blas1)
    metrics["blas1.cpu_s"] = sum(r["cpu_s"] for r in blas1)
    return metrics


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return None


def git_state(root: Path) -> dict:
    """Commit and dirtiness of ``root`` itself, or nulls outside a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    state = {"commit": None, "dirty": None}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return state
    if head.returncode == 0 and status.returncode == 0:
        state = {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
    return state


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads,
        "nproc": usable_cpus(),
        "cpu_model": cpu_model(),
        "git": git_state(root),
        "seed": seed,
    }


def gate_failures(runner: Runner, results: list[dict], seed: int) -> dict:
    """Failure reason by id(result) for every failed op."""
    gate = Gate()
    rng = np.random.default_rng(seed)
    verdicts = {}
    reference = {}  # op index -> artifact of the first untraced, full-thread run
    failures = {}
    for result in results:
        index, digest = result["op"], result["artifact"]
        reason = result["error"]
        if reason is None and result["exit"] != runner.ops[index].expect_exit:
            reason = f"exit code {result['exit']}, expected {runner.ops[index].expect_exit}"
        if reason is None and digest is None:
            reason = "no artifact written"
        if reason is None:
            if (index, digest) not in verdicts:
                verdicts[(index, digest)] = gate.check(
                    runner.ops[index], str(runner.kept[(index, digest)]), rng)
            reason = verdicts[(index, digest)]
        if reason is None and not result["trace"] and result["threads"] == runner.blas_threads:
            reference.setdefault(index, digest)
        if reason is None and result["trace"] and reference.get(index) != digest:
            reason = "traced artifact differs from the untraced one"
        if reason is not None:
            failures[id(result)] = f"{runner.ops[index].label}: {reason}"
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (the benchmark's own smoke test)")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    missing = [p for p in ("src/ccawalk/cli.py", "scenarios/fig1.json", "BENCHMARK.json")
               if not (root / p).is_file()]
    if missing:
        print(f"error: not a ccawalk checkout ({', '.join(missing)} missing in {root})",
              file=sys.stderr)
        return EXIT_SETUP
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = workloads.build(args.workload, args.seed, root, tiny=args.tiny)
    blas_threads = usable_cpus()
    workdir = HERE / "_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(root, ops, workdir, blas_threads)
        warm = [runner.run_op(0, False, blas_threads)]
        timed = runner.passes_for(args.seconds)
        traced, blas1 = [], []
        if args.trace:
            traced = runner.passes_for(args.seconds / 2, trace=True)
            blas1 = runner.run_pass(threads=1)
        every = warm + [r for p in timed + traced for r in p] + blas1
        failures = gate_failures(runner, every, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(every), len(failures)
    reasons = sorted(set(failures.values()))
    if not all("wall_s" in r for r in every):
        print("error: an op produced no timings; no result", *reasons, sep="\n  ",
              file=sys.stderr)
        return 1

    timed_results = [r for p in timed for r in p]
    setups = [r["setup_s"] for r in timed_results]
    e2e = {
        "wall_s": pass_total(timed, "wall_s"),
        "cpu_s": pass_total(timed, "cpu_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_kb"] for r in timed_results) / 1024,
    }
    samples = {"wall_s": f"median of {len(timed)} passes",
               "cpu_s": f"median of {len(timed)} passes",
               "setup_s": f"median of {len(setups)} children",
               "peak_rss_mb": f"max of {len(timed_results)} children"}
    if len(setups) >= 100:  # p90 then has at least ten samples beyond it
        samples["setup_s"] += f", p90 {statistics.quantiles(setups, n=10)[-1]:.6f}"

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(timed)} timed passes, BLAS threads {blas_threads}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name:<12} {value:12.6f} {units[name]:<5} ({samples[name]})")
    print(f"  {'fail_ratio':<12} {failed / attempted:12.6f} {'ratio':<5} "
          f"({failed}/{attempted} ops)")
    for reason in reasons:
        print(f"  FAILED {reason}")

    layers = {}
    if args.trace:
        totals = layer_totals(traced)
        layers = per_layer_metrics(totals, e2e["wall_s"], pass_total(traced, "wall_s"), blas1)
        print(f"  traced: {len(traced)} passes; self time by module function:")
        for key in sorted((k for k in layers if k.endswith(".self_s")),
                          key=lambda k: -layers[k]):
            print(f"    {key:<44} {layers[key]:10.6f} s  "
                  f"({layers[key] / totals['trace.op_s']:6.1%})")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(root, args.seed, blas_threads)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seconds=args.seconds,
                  environment=env, samples=samples, end_to_end=e2e, per_layer=layers,
                  ops=[op.label for op in ops], failures=reasons)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_dir / name, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
