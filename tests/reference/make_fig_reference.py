"""Write fig_reference.json: fig1-fig3 eta and P from a 50-digit mode sum.

Run from the repository root, with mpmath installed:

    PYTHONPATH=src python tests/reference/make_fig_reference.py

For each shipped scenario the grid is the config's own ``time_grid()``, so
every time is the exact double the pipeline runs at.  At each of those
times the carrier-free propagator columns of the input sites r and s are

    G[j, l](t) = sum_k S(j, k) S(l, k) exp(-2 i J t cos theta_k),

with S(j, k) = sqrt(2/(N+1)) sin(j k pi/(N+1)) and theta_k = k pi/(N+1),
summed in mpmath at 50 digits; no FFT or mode-sum identity of the kernel
is used.  From them:

* eta(t) = 1 - sum_n |sin(theta) G[n, r]^2 + cos(theta) G[n, s]^2|^2 at
  every ``EVERY``-th grid time, for each angle of the scenario's sweep block;
* P[m, n] = 2 |sin(theta) G[m, r] G[n, r] + cos(theta) G[m, s] G[n, s]|^2
  at ``time.t_max``, for the scenario's input angle.

Each value is rounded once, to the nearest double.  The test that reads the
file (``test_shipped_figures_match_the_committed_reference`` in
tests/test_observables.py) neither imports mpmath nor runs this script.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import mpmath as mp

from ccawalk.config import config_from_dict, read_config_document

ROOT = Path(__file__).resolve().parents[2]
EVERY = 10
mp.mp.dps = 50


def sine_table(n: int) -> tuple[list, list]:
    """theta_k and S(j, k) / sqrt(2/(N+1)) = sin(j theta_k), j, k = 1..N."""
    angle = [mp.pi * k / (n + 1) for k in range(1, n + 1)]
    return angle, [[mp.sin(j * a) for a in angle] for j in range(1, n + 1)]


def columns(table, hopping: float, t: float, sites) -> list[list]:
    """The carrier-free columns G[:, l](t) of ``sites``, as mpmath complexes."""
    angle, sines = table
    norm = mp.mpf(2) / (len(angle) + 1)
    phase = [mp.expj(-2 * mp.mpf(hopping) * mp.mpf(t) * mp.cos(a)) for a in angle]
    result = []
    for l in sites:
        weights = [s * p for s, p in zip(sines[l - 1], phase)]
        result.append([norm * mp.fdot(row, weights) for row in sines])
    return result


def eta(g_r, g_s, theta: float):
    w_r, w_s = mp.sin(mp.mpf(theta)), mp.cos(mp.mpf(theta))
    return 1 - mp.fsum(abs(w_r * x * x + w_s * y * y) ** 2 for x, y in zip(g_r, g_s))


def coincidences(g_r, g_s, theta: float):
    w_r, w_s = mp.sin(mp.mpf(theta)), mp.cos(mp.mpf(theta))
    return [
        [2 * abs(w_r * x_m * x_n + w_s * y_m * y_n) ** 2 for x_n, y_n in zip(g_r, g_s)]
        for x_m, y_m in zip(g_r, g_s)
    ]


def reference(name: str) -> dict:
    path = ROOT / "scenarios" / f"{name}.json"
    cfg = config_from_dict(read_config_document(str(path)))
    table, hopping = sine_table(cfg.lattice.num_cavities), cfg.lattice.hopping
    sites = (cfg.input.site_r, cfg.input.site_s)
    times = cfg.time_grid()[::EVERY]
    series = [[] for _ in cfg.sweep.theta]
    for t in times:
        g_r, g_s = columns(table, hopping, float(t), sites)
        for row, theta in zip(series, cfg.sweep.theta):
            row.append(float(eta(g_r, g_s, theta)))
    g_r, g_s = columns(table, hopping, cfg.absolute_time(), sites)
    p = coincidences(g_r, g_s, cfg.input.theta)
    return {
        "thetas": list(cfg.sweep.theta),
        "eta": series,
        "p": [[float(v) for v in row] for row in p],
    }


def main() -> None:
    doc = {
        "about": "fig1-fig3 eta at every 10th grid time for the sweep angles, and P "
                 "at time.t_max for the input angle, from a 50-digit mpmath mode "
                 "sum; written by make_fig_reference.py",
        "every": EVERY,
        "scenarios": {name: reference(name) for name in ("fig1", "fig2", "fig3")},
    }
    # one innermost list (an eta series or a row of P) per line
    text = re.sub(r"\[\s+([^][]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]",
                  json.dumps(doc, indent=1))
    path = Path(__file__).with_name("fig_reference.json")
    path.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
