"""Command-line front end: scenario runs, sweeps, verification, data export.

Subcommands
-----------
spectrum     mode index k and frequency Omega_k, one row per mode
correlation  coincidence matrix P[m, n] at one time, as (m, n, value) triples
tpd          delocalization degree eta over the configured time grid
sweep        eta series for a family of superposition angles
verify       cross-check the closed form against the brute-force reference

Every command takes ``--config PATH`` (JSON scenario, see config module),
``--out PATH`` ('-' or omitted with no configured path means stdout) and
repeated ``--set key.path=value`` overrides.  Exit codes: 0 success,
1 validation error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (
    MAX_SWEEP_POINTS,
    ScenarioConfig,
    SweepConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    default_config_dict,
    read_config_document,
)
from .errors import ValidationError
from .lattice import mode_frequencies
from .observables import NoonInput, concurrence, correlation_matrix, tpd_family
from .oracle import ORACLE_MAX_CAVITIES
from .output import provenance, render, write_text
from .verify import run_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as validation errors."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="scenario JSON file")
    common.add_argument(
        "--out",
        metavar="PATH",
        help="output file; '-' for stdout; overrides output.path from the config",
    )
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field by dotted path, e.g. lattice.hopping=0.1",
    )

    parser = _Parser(
        prog="ccawalk",
        description="Two-photon transport in a coupled-cavity array.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser(
        "spectrum", parents=[common], help="write normal-mode frequencies"
    )

    p_corr = sub.add_parser(
        "correlation", parents=[common], help="write the coincidence matrix at one time"
    )
    p_corr.add_argument(
        "--t",
        type=float,
        default=None,
        help="evaluation time in the configured scale units (default: time.t_max)",
    )

    sub.add_parser(
        "tpd", parents=[common], help="write the delocalization-degree time series"
    )

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="eta series for several superposition angles"
    )
    group = p_sweep.add_mutually_exclusive_group()
    group.add_argument("--theta", help="comma-separated list of theta values")
    group.add_argument(
        "--concurrence", help="comma-separated list of concurrence values"
    )
    p_sweep.add_argument(
        "--branch",
        choices=["low", "high"],
        help="theta branch used with --concurrence, which it needs (default: low)",
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run the reference cross-check suite"
    )
    p_verify.add_argument(
        "--max-n",
        type=int,
        default=ORACLE_MAX_CAVITIES,
        metavar="N",
        help="shrink the scenario to at most N cavities (default %(default)s, the "
        "largest N whose N(N+1)/2 two-photon labels fit the dense reference)",
    )
    p_verify.add_argument(
        "--swap-weights",
        action="store_true",
        help="diagnostic: exchange the superposition weights in the closed form "
        "to demonstrate the cross-check catches it",
    )
    p_verify.add_argument("--seed", type=int, default=20260810)
    return parser


def _load_scenario(args) -> ScenarioConfig:
    if args.config is not None:
        raw = read_config_document(args.config)
    else:
        raw = default_config_dict()
    cfg = config_from_dict(apply_overrides(raw, args.overrides))
    if getattr(args, "branch", None) is not None and args.concurrence is None:
        raise ValidationError("--branch is only meaningful together with --concurrence")
    # sweep flags replace the validated sweep block, so the header re-runs them
    if getattr(args, "theta", None) is not None:
        sweep = SweepConfig(theta=_parse_float_list(args.theta, "theta"))
    elif getattr(args, "concurrence", None) is not None:
        concurrences = _parse_float_list(args.concurrence, "concurrence")
        sweep = SweepConfig(concurrence=concurrences, branch=args.branch)
    else:
        return cfg
    return replace(cfg, sweep=sweep)


def _out_path(args, cfg: ScenarioConfig) -> str | None:
    return args.out if args.out is not None else cfg.output.path


def _parse_float_list(text: str, name: str) -> list[float]:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise ValidationError(f"empty entry in --{name} list")
        try:
            values.append(float(piece))
        except ValueError:
            raise ValidationError(f"--{name} entry {piece!r} is not a number") from None
    return values


def cmd_spectrum(cfg: ScenarioConfig, args):
    freqs = mode_frequencies(cfg.lattice)
    modes = np.arange(1, freqs.size + 1)
    return {}, ["k", "Omega_k"], [], [modes], freqs[None]


def cmd_correlation(cfg: ScenarioConfig, args):
    scaled = cfg.time.t_max if args.t is None else args.t
    t = cfg.absolute_time(scaled)
    noon = cfg.input.to_noon()
    (p,) = correlation_matrix(cfg.lattice, noon, [t])
    sites = np.arange(1, cfg.lattice.num_cavities + 1)
    extra = {
        "t": t,
        "omega_t": t * cfg.lattice.omega,
        "J_t": t * cfg.lattice.hopping,
        "theta": noon.theta,
        "concurrence": concurrence(noon),
    }
    return extra, ["m", "n", "P_mn"], [sites], [sites], p


def cmd_tpd(cfg: ScenarioConfig, args):
    noon = cfg.input.to_noon()
    t = cfg.time_grid()
    eta = tpd_family(cfg.lattice, [noon], t)
    times = [t, t * cfg.lattice.omega, t * cfg.lattice.hopping]
    extra = {"theta": noon.theta, "concurrence": concurrence(noon)}
    return extra, ["t", "omega_t", "J_t", "eta"], [], times, eta


def cmd_sweep(cfg: ScenarioConfig, args):
    if cfg.sweep is None:
        raise ValidationError(
            "no sweep values: pass --theta or --concurrence, or add a 'sweep' "
            "block to the config"
        )
    thetas = list(cfg.sweep.resolved_thetas())
    points = len(thetas) * (cfg.time.steps + 1)
    if points > MAX_SWEEP_POINTS:
        raise ValidationError(
            f"sweep of {len(thetas)} angles x {cfg.time.steps + 1} times is "
            f"{points} points, above the limit of {MAX_SWEEP_POINTS}"
        )

    site_r, site_s = cfg.input.site_r, cfg.input.site_s
    noons = [NoonInput(theta=theta, site_r=site_r, site_s=site_s) for theta in thetas]
    t = cfg.time_grid()
    eta = tpd_family(cfg.lattice, noons, t)
    angles = [thetas, [concurrence(noon) for noon in noons]]
    return {"thetas": thetas}, ["theta", "concurrence", "t", "eta"], angles, [t], eta


def cmd_verify(cfg: ScenarioConfig, args) -> int:
    noon = cfg.input.to_noon()
    report = run_verification(
        cfg.lattice,
        noon,
        cfg.absolute_time(cfg.time.t_max),
        seed=args.seed,
        swap_weights=args.swap_weights,
        max_cavities=args.max_n,
    )
    text = report.format() + "\n"
    sys.stdout.write(text)
    destination = _out_path(args, cfg)
    if destination is not None and destination != "-":
        write_text(text, destination)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# table commands return the provenance extras and the table: (extra, columns,
# outer, inner, values), as output.render takes them
_TABLES = {
    "spectrum": cmd_spectrum,
    "correlation": cmd_correlation,
    "tpd": cmd_tpd,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_scenario(args)
        if args.command == "verify":
            return cmd_verify(cfg, args)
        extra, columns, outer, inner, values = _TABLES[args.command](cfg, args)
        prov = provenance(args.command, __version__, config_to_dict(cfg), extra)
        text = render(cfg.output.format, prov, columns, outer, inner, values)
        write_text(text, _out_path(args, cfg))
        return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
