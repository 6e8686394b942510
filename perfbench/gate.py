"""Correctness gate: check each artifact against an independent reference.

The reference diagonalises the single-photon chain Hamiltonian with
``scipy.linalg.eigh_tridiagonal``, so it shares nothing with ccawalk's sine
transform.  From its eigenpairs it builds the propagator columns G[:, r]
and G[:, s] and from them eta(t) and P[m, n].

``Gate.check(op, path, rng)`` returns None when the artifact is right and
a one-line reason otherwise; the caller checks the exit code.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

ETA_TOL = 1e-9
PAIR_SUM_TOL = 1e-9
P_TOL = 1e-9
SYMMETRY_TOL = 1e-12
SPECTRUM_TOL = 1e-9
GRID_RTOL = 1e-12
SAMPLES_PER_SERIES = 64
VERIFY_CHECKS = 8

COLUMNS = {
    "spectrum": ["k", "Omega_k"],
    "correlation": ["m", "n", "P_mn"],
    "tpd": ["t", "omega_t", "J_t", "eta"],
    "sweep": ["theta", "concurrence", "t", "eta"],
}


class GateError(Exception):
    """An artifact that is missing, malformed or wrong."""


class Reference:
    """Eigenpairs of one chain, computed once and reused for every check."""

    def __init__(self, n: int, omega: float, hopping: float):
        self.energies, self.modes = eigh_tridiagonal(
            np.full(n, float(omega)), np.full(n - 1, float(hopping))
        )

    def columns(self, site: int, times: np.ndarray) -> np.ndarray:
        """G[:, site] at each time, one row per time."""
        phases = np.exp(-1j * np.outer(times, self.energies))
        return (phases * self.modes[site - 1, :]) @ self.modes.T

    def eta(self, physics: dict, theta: float, times: np.ndarray) -> np.ndarray:
        g_r = self.columns(physics["r"], times)
        g_s = self.columns(physics["s"], times)
        diag = math.sin(theta) * g_r**2 + math.cos(theta) * g_s**2
        return 1.0 - np.sum(np.abs(diag) ** 2, axis=1)

    def coincidences(self, physics: dict, t: float) -> np.ndarray:
        g_r = self.columns(physics["r"], np.array([t]))[0]
        g_s = self.columns(physics["s"], np.array([t]))[0]
        theta = physics["theta"]
        amp = math.sin(theta) * np.outer(g_r, g_r) + math.cos(theta) * np.outer(g_s, g_s)
        return 2.0 * np.abs(amp) ** 2


def read_csv(path: str, columns: list[str]) -> tuple[dict, np.ndarray]:
    """Provenance comments and data rows of a CSV artifact, fully parsed."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise GateError("CSV does not end with a newline (truncated?)")
    provenance, rows, header = {}, [], None
    for line in text[:-1].split("\n"):
        if header is None and line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if not sep:
                raise GateError(f"malformed provenance line {line!r}")
            try:
                provenance[key] = json.loads(value)
            except json.JSONDecodeError:
                provenance[key] = value
        elif header is None:
            header = line.split(",")
            if header != columns:
                raise GateError(f"CSV header {header} != {columns}")
        else:
            fields = line.split(",")
            if len(fields) != len(columns):
                raise GateError(f"CSV row {line!r} has {len(fields)} fields")
            try:
                rows.append([float(v) for v in fields])
            except ValueError:
                raise GateError(f"CSV row {line!r} does not parse") from None
    if header is None:
        raise GateError("CSV has no header")
    return provenance, np.array(rows, dtype=float).reshape(-1, len(columns))


def read_json(path: str, columns: list[str]) -> tuple[dict, np.ndarray]:
    """Provenance and records of a JSON artifact, as rows in column order."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GateError(f"JSON does not parse: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {"provenance", "records"}:
        raise GateError("JSON artifact lacks provenance/records")
    rows = []
    for record in doc["records"]:
        if not isinstance(record, dict) or sorted(record) != sorted(columns):
            raise GateError(f"JSON record {record!r} has the wrong keys")
        try:
            rows.append([float(record[c]) for c in columns])
        except (TypeError, ValueError):
            raise GateError(f"JSON record {record!r} is not numeric") from None
    return doc["provenance"], np.array(rows, dtype=float).reshape(-1, len(columns))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _time_grid(physics: dict) -> np.ndarray:
    rate = physics["omega"] if physics["scale"] == "omega" else physics["J"]
    t_end = physics["t_max"] / rate
    steps = physics["steps"]
    return np.array([t_end * i / steps for i in range(steps + 1)])


def _check_series(ref: Reference, physics: dict, theta: float, times, eta, rng) -> None:
    expected = _time_grid(physics)
    _require(times.shape == expected.shape,
             f"series has {times.size} points, expected {expected.size}")
    _require(np.allclose(times, expected, rtol=GRID_RTOL, atol=0.0),
             "time column differs from the configured grid")
    count = len(times)
    picks = rng.choice(count, size=min(count, SAMPLES_PER_SERIES) - 2, replace=False)
    picks = np.unique(np.concatenate(([0, count - 1], picks)))
    dev = float(np.max(np.abs(eta[picks] - ref.eta(physics, theta, times[picks]))))
    _require(dev <= ETA_TOL, f"eta deviates from the reference by {dev:.3e} (theta={theta})")


def _check_tpd(ref, physics, rows, rng) -> None:
    t, omega_t, j_t, eta = rows.T
    _require(np.allclose(omega_t, t * physics["omega"], rtol=GRID_RTOL, atol=0.0),
             "omega_t column != t * omega")
    _require(np.allclose(j_t, t * physics["J"], rtol=GRID_RTOL, atol=0.0),
             "J_t column != t * J")
    _check_series(ref, physics, physics["theta"], t, eta, rng)


def _check_sweep(ref, physics, rows, rng) -> None:
    thetas = physics["thetas"]
    points = physics["steps"] + 1
    _require(rows.shape[0] == len(thetas) * points,
             f"sweep has {rows.shape[0]} rows, expected {len(thetas) * points}")
    for i, theta in enumerate(thetas):
        block = rows[i * points : (i + 1) * points]
        _require(np.all(block[:, 0] == theta), f"sweep block {i} is not theta={theta}")
        _require(np.allclose(block[:, 1], abs(math.sin(2 * theta)), rtol=0, atol=1e-12),
                 f"concurrence column wrong for theta={theta}")
        _check_series(ref, physics, theta, block[:, 2], block[:, 3], rng)


def _check_correlation(ref, physics, rows, provenance) -> None:
    n = physics["N"]
    _require(rows.shape[0] == n * n, f"correlation has {rows.shape[0]} rows, expected {n * n}")
    grid = np.indices((n, n)).reshape(2, -1).T + 1
    _require(np.array_equal(rows[:, :2], grid), "correlation rows are not (m, n) row-major")
    p = rows[:, 2].reshape(n, n)
    t = _time_grid(physics)[-1]
    _require(math.isclose(float(provenance.get("t", math.nan)), t, rel_tol=GRID_RTOL),
             "correlation time is not time.t_max")
    _require(abs(p.sum() - 2.0) <= PAIR_SUM_TOL, f"pair sum {p.sum()!r} != 2")
    _require(np.max(np.abs(p - p.T)) <= SYMMETRY_TOL, "P is not symmetric")
    dev = float(np.max(np.abs(p - ref.coincidences(physics, t))))
    _require(dev <= P_TOL, f"P deviates from the reference by {dev:.3e}")


def _check_spectrum(ref, physics, rows) -> None:
    n = physics["N"]
    _require(rows.shape[0] == n, f"spectrum has {rows.shape[0]} rows, expected {n}")
    _require(np.array_equal(rows[:, 0], np.arange(1, n + 1)), "mode index column is not 1..N")
    dev = float(np.max(np.abs(np.sort(rows[:, 1]) - np.sort(ref.energies))))
    _require(dev <= SPECTRUM_TOL, f"spectrum deviates from the reference by {dev:.3e}")


def _check_verify(op, path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    passed = [line for line in lines if line.startswith("[PASS]")]
    failed = [line for line in lines if line.startswith("[FAIL]")]
    _require(len(passed) + len(failed) == VERIFY_CHECKS,
             f"verify reported {len(passed) + len(failed)} checks, expected {VERIFY_CHECKS}")
    if op.expect_exit == 0:
        _require(not failed and lines[-1:] == ["overall: PASS"], f"verify failed: {failed}")
    else:
        _require(lines[-1:] == ["overall: FAIL"] and
                 any("oracle-equivalence" in line for line in failed),
                 "swapped weights were not caught by oracle-equivalence")


class Gate:
    """Checks artifacts; keeps one Reference per chain."""

    def __init__(self):
        self._references = {}

    def _reference(self, physics: dict) -> Reference:
        key = (physics["N"], physics["omega"], physics["J"])
        if key not in self._references:
            self._references[key] = Reference(*key)
        return self._references[key]

    def check(self, op, path: str, rng: np.random.Generator):
        """None if the artifact of ``op`` is correct, else the reason it is not."""
        try:
            if op.command == "verify":
                _check_verify(op, path)
                return None
            reader = read_json if op.fmt == "json" else read_csv
            provenance, rows = reader(path, COLUMNS[op.command])
            physics = op.physics
            ref = self._reference(physics)
            if op.command == "spectrum":
                _check_spectrum(ref, physics, rows)
            elif op.command == "correlation":
                _check_correlation(ref, physics, rows, provenance)
            elif op.command == "tpd":
                _check_tpd(ref, physics, rows, rng)
            else:
                _check_sweep(ref, physics, rows, rng)
        except (GateError, OSError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None
