"""The benchmark's workloads: seeded lists of ccawalk CLI operations.

Each operation is one ``ccawalk`` command line plus the physics the
correctness gate needs to check its artifact independently.  The seed
changes inputs (site pairs, angles, op order, verification times), never
sizes, so the work in one pass is fixed for a workload.

Why these workloads:

* ``paper-figs``: the runs users make to reproduce the paper (fig1-fig3,
  N=29, 2001 points, K=3 angles).  Output rendering and CLI row building
  are about as expensive as the compute here, so output work shows, and so
  does any kernel change that slows small N.
* ``large-chain``: N=1000 over J*t in [0, 100].  The propagation kernel
  (``tpd_series``) is over 90% of the time.  A one-angle ``tpd`` next to
  a 16-angle ``sweep`` separates per-angle from per-column costs.
* ``verify-oracle``: the dense Fock-sector reference at N=50 (D=1275).
  It is the only workload that touches ``oracle``, plus one
  ``--swap-weights`` op that must exit 2.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("paper-figs", "large-chain", "verify-oracle")

# Sizes of each workload; ``tiny`` shrinks them for the benchmark's own
# smoke test and is never used for a measurement.
SIZES = {
    False: {"fig_steps": None, "chain_n": 1000, "chain_steps": 1000,
            "chain_angles": 16, "verify_n": 50},
    True: {"fig_steps": 40, "chain_n": 60, "chain_steps": 40,
           "chain_angles": 4, "verify_n": 20},
}

SCENARIOS = ("fig1", "fig2", "fig3")
SWAP_THETA = 0.3927  # far enough from pi/4 that swapped weights must fail


@dataclass
class Op:
    """One CLI invocation and what its artifact must contain.

    ``physics`` holds the lattice (N, omega, J), the site pair, the angle(s)
    and the time grid in the config's own terms; the gate rebuilds every
    expected number from it.
    """

    command: str
    argv: list[str]
    fmt: str = "csv"
    expect_exit: int = 0
    physics: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join([self.command] + self.argv)


def _scenario_physics(doc: dict) -> dict:
    return {
        "N": doc["lattice"]["num_cavities"],
        "omega": doc["lattice"]["omega"],
        "J": doc["lattice"]["hopping"],
        "r": doc["input"]["site_r"],
        "s": doc["input"]["site_s"],
        "theta": doc["input"]["theta"],
        "t_max": doc["time"]["t_max"],
        "steps": doc["time"]["steps"],
        "scale": doc["time"]["scale"],
        "thetas": list(doc.get("sweep", {}).get("theta", [])),
    }


def _load_scenario(root: Path, name: str) -> dict:
    with open(root / "scenarios" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def paper_figs(root: Path, rng: random.Random, seed: int, tiny: bool) -> list[Op]:
    steps = SIZES[tiny]["fig_steps"]
    json_scenario = rng.choice(SCENARIOS)
    ops = []
    for name in SCENARIOS:
        physics = _scenario_physics(_load_scenario(root, name))
        base = ["--config", f"scenarios/{name}.json"]
        if steps is not None:
            base += ["--set", f"time.steps={steps}"]
            physics["steps"] = steps
        for command in ("spectrum", "correlation", "tpd", "sweep"):
            ops.append(Op(command, base, physics=dict(physics)))
            if name == json_scenario and command in ("tpd", "sweep"):
                ops.append(Op(command, base + ["--set", "output.format=json"], "json",
                              physics=dict(physics)))
    rng.shuffle(ops)
    return ops


def _distinct_angles(rng: random.Random, count: int) -> list[float]:
    angles: set[float] = set()
    while len(angles) < count:
        angles.add(rng.uniform(0.0, math.pi / 2))
    return sorted(angles)


def large_chain(root: Path, rng: random.Random, seed: int, tiny: bool) -> list[Op]:
    size = SIZES[tiny]
    n, steps = size["chain_n"], size["chain_steps"]
    # A pair near one end, not mirror-symmetric, so the wavefront reaches
    # the boundary within J*t = 100 and a swapped weight moves eta.
    r = rng.randint(2, max(3, n // 20))
    s = r + rng.randint(1, max(2, n // 40))
    if rng.random() < 0.5:
        r, s = n + 1 - r, n + 1 - s
    if rng.random() < 0.5:
        r, s = s, r
    # Keep the tpd angle away from pi/4, where swapping the weights is a no-op.
    theta = rng.choice([rng.uniform(0.15, 0.65), rng.uniform(0.92, 1.42)])
    thetas = _distinct_angles(rng, size["chain_angles"])
    physics = {"N": n, "omega": 1.0, "J": 0.1, "r": r, "s": s, "theta": theta,
               "t_max": 100.0, "steps": steps, "scale": "hopping", "thetas": thetas}
    base = [
        "--set", f"lattice.num_cavities={n}",
        "--set", "lattice.omega=1.0",
        "--set", "lattice.hopping=0.1",
        "--set", f"input.site_r={r}",
        "--set", f"input.site_s={s}",
        "--set", f"input.theta={theta!r}",
        "--set", "time.t_max=100.0",
        "--set", f"time.steps={steps}",
        "--set", "time.scale=hopping",
    ]
    return [
        Op("tpd", base, physics=dict(physics)),
        Op("sweep", base + ["--theta", ",".join(repr(t) for t in thetas)],
           physics=dict(physics)),
    ]


def verify_oracle(root: Path, rng: random.Random, seed: int, tiny: bool) -> list[Op]:
    n = SIZES[tiny]["verify_n"]
    ops = [
        Op("verify", ["--config", f"scenarios/{name}.json",
                      "--set", f"lattice.num_cavities={n}",
                      "--max-n", str(n), "--seed", str(seed)])
        for name in SCENARIOS
    ]
    ops.append(Op("verify", ["--config", f"scenarios/{rng.choice(SCENARIOS)}.json",
                             "--set", f"input.theta={SWAP_THETA}",
                             "--max-n", "8", "--seed", str(seed), "--swap-weights"],
                  expect_exit=2))
    rng.shuffle(ops)
    return ops


def build(name: str, seed: int, root: Path, tiny: bool = False) -> list[Op]:
    """The op list of one pass of workload ``name``."""
    builders = {"paper-figs": paper_figs, "large-chain": large_chain,
                "verify-oracle": verify_oracle}
    return builders[name](root, random.Random(f"{name}:{seed}"), seed, tiny)
