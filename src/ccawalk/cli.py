"""Command-line front end: scenario runs, sweeps, verification, data export.

Subcommands
-----------
spectrum     mode index k and frequency Omega_k, one row per mode
correlation  coincidence matrix P[m, n] at time.t_max, as (m, n, value) triples
tpd          delocalization degree eta over the configured time grid
sweep        eta series for the angles of --theta or the config's sweep block
verify       cross-check the closed form against the brute-force reference

Every command takes ``--config PATH`` (JSON scenario, see config module),
``--out PATH`` ('-' or omitted means stdout) and repeated
``--set key.path=value`` overrides.  One table lists every flag;
``parse_args`` reads argv from it and ``--help`` prints it.  The config in a
table's header re-runs that table, and ``verify`` writes its report where a
table would go.  Exit codes: 0 success, 1 validation error, 2 verification
failure, 3 I/O error.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from types import SimpleNamespace

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
from .observables import concurrence, correlation_matrix, tpd_family
from .oracle import ORACLE_MAX_CAVITIES
from .output import provenance, render, write_text
from .verify import run_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3


def _float_list(text: str) -> list[float]:
    return [float(piece) for piece in text.split(",")]


# Every flag as (dest, converter, default, help); a switch has no converter.
# parse_args and the --help text both read these tables.  A converter only
# parses: SweepConfig checks --theta, as it checks the config's own block,
# and run_verification the verify flags.
_COMMON = {
    "--config": ("config", str, None, "PATH: scenario JSON file"),
    "--out": ("out", str, None, "PATH: output file; stdout if '-' or absent"),
    "--set": ("overrides", str, (), "KEY=VALUE: override a config field; repeatable"),
}
_COMMANDS = {
    "spectrum": ("write normal-mode frequencies", {}),
    "correlation": ("write the coincidence matrix at time.t_max", {}),
    "tpd": ("write the delocalization-degree time series", {}),
    "sweep": ("eta series for several superposition angles", {
        "--theta": ("theta", _float_list, None, "LIST: comma-separated angles"),
    }),
    "verify": ("run the reference cross-check suite", {
        "--max-n": ("max_n", int, ORACLE_MAX_CAVITIES, "N: shrink the chain to at most "
                    f"N cavities (default {ORACLE_MAX_CAVITIES}, the dense limit)"),
        "--swap-weights": ("swap_weights", None, False,
                           "exchange the weights, to show the check catches it"),
        "--seed": ("seed", int, 20260810, "S: seed of the random check times"),
    }),
}


def _usage(command: str | None) -> str:
    if command is None:
        about = ("Two-photon transport in a coupled-cavity array. Flags take their "
                 "full name; 'ccawalk <command> --help' lists them.")
        rows = {name: text for name, (text, _) in _COMMANDS.items()}
        rows["--version"] = "print the version"
    else:
        about, flags = _COMMANDS[command]
        rows = {flag: entry[3] for flag, entry in {**_COMMON, **flags}.items()}
    usage = f"usage: ccawalk {command or '<command>'} [--flag value | --flag=value ...]"
    lines = [usage, about] + [f"  {name:<16}{text}" for name, text in rows.items()]
    return "\n".join(lines)


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command and flags in ``argv``, or None once help or the version is printed.

    Flags take their full name, as ``--flag value`` or ``--flag=value``, with a
    value that is not empty and may start with '-' but not '--'.  ``--set``
    accumulates; another repeated flag keeps its last value.  Anything
    malformed raises ValidationError.
    """
    command, *rest = argv or [""]
    if command in ("-h", "--help", "--version"):
        print(f"ccawalk {__version__}" if command == "--version" else _usage(None))
        return None
    if command not in _COMMANDS:
        choices = ", ".join(_COMMANDS)
        raise ValidationError(f"expected a command ({choices}), got {command!r}")
    flags = {**_COMMON, **_COMMANDS[command][1]}
    args = SimpleNamespace(command=command, **{
        entry[0]: entry[2] for _, table in _COMMANDS.values()
        for entry in {**_COMMON, **table}.values()
    })
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            print(_usage(command))
            return None
        name, eq, value = token.partition("=")
        if name not in flags:
            raise ValidationError(
                f"{command} takes no argument {token!r}; see 'ccawalk {command} --help'"
            )
        dest, convert, *_ = flags[name]
        if convert is None:
            if eq:
                raise ValidationError(f"{name} takes no value")
            setattr(args, dest, True)
            continue
        if not eq:
            value = next(tokens, "--")
        if not value or (not eq and value.startswith("--")):
            raise ValidationError(f"{name} needs a value")
        try:
            value = convert(value)
        except ValueError:
            raise ValidationError(f"invalid {name} value {value!r}") from None
        setattr(args, dest, args.overrides + (value,) if dest == "overrides" else value)
    return args


def _load_scenario(args) -> ScenarioConfig:
    if args.config is not None:
        raw = read_config_document(args.config)
    else:
        raw = default_config_dict()
    cfg = config_from_dict(apply_overrides(raw, args.overrides))
    if args.theta is None:
        return cfg
    # --theta replaces the validated sweep block, so the header re-runs it
    return replace(cfg, sweep=SweepConfig(args.theta))


def cmd_spectrum(cfg: ScenarioConfig):
    freqs = mode_frequencies(cfg.lattice)
    modes = np.arange(1, freqs.size + 1)
    return {}, ["k", "Omega_k"], [], [modes], freqs[None]


def cmd_correlation(cfg: ScenarioConfig):
    t = cfg.absolute_time()
    noon = cfg.input
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


def cmd_tpd(cfg: ScenarioConfig):
    noon = cfg.input
    t = cfg.time_grid()
    eta = tpd_family(cfg.lattice, [noon], t)
    times = [t, t * cfg.lattice.omega, t * cfg.lattice.hopping]
    extra = {"theta": noon.theta, "concurrence": concurrence(noon)}
    return extra, ["t", "omega_t", "J_t", "eta"], [], times, eta


def cmd_sweep(cfg: ScenarioConfig):
    if cfg.sweep is None:
        raise ValidationError(
            "no sweep values: pass --theta, or add a 'sweep' block to the config"
        )
    thetas = list(cfg.sweep.theta)
    points = len(thetas) * (cfg.time.steps + 1)
    if points > MAX_SWEEP_POINTS:
        raise ValidationError(
            f"sweep of {len(thetas)} angles x {cfg.time.steps + 1} times is "
            f"{points} points, above the limit of {MAX_SWEEP_POINTS}"
        )

    noons = [replace(cfg.input, theta=theta) for theta in thetas]
    t = cfg.time_grid()
    eta = tpd_family(cfg.lattice, noons, t)
    angles = [thetas, [concurrence(noon) for noon in noons]]
    return {"thetas": thetas}, ["theta", "concurrence", "t", "eta"], angles, [t], eta


def cmd_verify(cfg: ScenarioConfig, args) -> tuple[str, int]:
    report = run_verification(
        cfg.lattice,
        cfg.input,
        cfg.absolute_time(),
        seed=args.seed,
        swap_weights=args.swap_weights,
        max_cavities=args.max_n,
    )
    return report.format() + "\n", EXIT_OK if report.passed else EXIT_VERIFICATION


# table commands return the provenance extras and the table: (extra, columns,
# outer, inner, values), as output.render takes them
_TABLES = {
    "spectrum": cmd_spectrum,
    "correlation": cmd_correlation,
    "tpd": cmd_tpd,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return EXIT_OK
        cfg = _load_scenario(args)
        if args.command == "verify":
            text, code = cmd_verify(cfg, args)
        else:
            extra, columns, outer, inner, values = _TABLES[args.command](cfg)
            prov = provenance(args.command, __version__, config_to_dict(cfg), extra)
            text = render(cfg.output.format, prov, columns, outer, inner, values)
            code = EXIT_OK
        write_text(text, args.out)
        return code
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
