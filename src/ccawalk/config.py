"""Scenario configuration: JSON schema, validation, overrides, round-trip.

A scenario is a single JSON document:

    {
      "lattice": {"num_cavities": 29, "omega": 1.0, "hopping": 1.0},
      "input":   {"site_r": 15, "site_s": 16, "theta": 0.785398...},
      "time":    {"t_max": 83.57, "steps": 2000, "scale": "omega"},
      "output":  {"format": "csv", "path": null},
      "sweep":   {"theta": [0.0, 0.2617..., 0.7853...]}          # optional
    }

``input`` carries exactly one of ``theta`` or ``concurrence`` (the latter
with an optional ``branch``, "low" or "high", defaulting to "low").
``time.scale`` says which energy sets the grid unit: "omega" means t_max is
omega*t, "hopping" means t_max is J*t; absolute times are t_max divided by
the corresponding rate.  ``output.path`` of null means stdout.  The
optional ``sweep`` block provides default angle families for the sweep
command, as a theta list or a concurrence list plus branch.

CLI ``--set key=value`` overrides use dotted paths into this document and
JSON-parsed values (bare words fall back to strings, ``null`` deletes).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any

from .errors import ValidationError, checked_choice, checked_int, checked_real
from .lattice import LatticeSpec
from .observables import NoonInput, theta_for_concurrence


@dataclass(frozen=True)
class InputConfig:
    """NOON input selection: sites plus either theta or concurrence+branch."""

    site_r: int
    site_s: int
    theta: float | None = None
    concurrence: float | None = None
    branch: str = "low"

    def __post_init__(self) -> None:
        if (self.theta is None) == (self.concurrence is None):
            raise ValidationError(
                "input must specify exactly one of 'theta' or 'concurrence'"
            )
        checked_choice(self.branch, "input.branch", ("low", "high"))

    def resolved_theta(self) -> float:
        if self.theta is not None:
            return self.theta  # NoonInput checks it
        return theta_for_concurrence(self.concurrence, self.branch)

    def to_noon(self) -> NoonInput:
        return NoonInput(
            theta=self.resolved_theta(), site_r=self.site_r, site_s=self.site_s
        )


@dataclass(frozen=True)
class TimeConfig:
    """Uniform closed grid [0, t_max] with steps+1 samples, in scaled units."""

    t_max: float
    steps: int
    scale: str = "omega"

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_max", checked_real(self.t_max, "time.t_max", 0.0))
        object.__setattr__(self, "steps", checked_int(self.steps, "time.steps", 1))
        checked_choice(self.scale, "time.scale", ("omega", "hopping"))


@dataclass(frozen=True)
class OutputConfig:
    format: str = "csv"
    path: str | None = None

    def __post_init__(self) -> None:
        checked_choice(self.format, "output.format", ("csv", "json"))
        if self.path is not None and not isinstance(self.path, str):
            raise ValidationError("output.path must be a string or null")


@dataclass(frozen=True)
class SweepConfig:
    """Default angle family for the sweep command."""

    theta: tuple[float, ...] | None = None
    concurrence: tuple[float, ...] | None = None
    branch: str = "low"

    def __post_init__(self) -> None:
        if (self.theta is None) == (self.concurrence is None):
            raise ValidationError(
                "sweep must specify exactly one of 'theta' or 'concurrence'"
            )
        checked_choice(self.branch, "sweep.branch", ("low", "high"))
        for name in ("theta", "concurrence"):
            values = getattr(self, name)
            if values is not None:
                entries = tuple(checked_real(v, f"sweep.{name} entry") for v in values)
                object.__setattr__(self, name, entries)

    def resolved_thetas(self) -> tuple[float, ...]:
        if self.theta is not None:
            return self.theta
        return tuple(
            theta_for_concurrence(c, self.branch) for c in self.concurrence
        )


@dataclass(frozen=True)
class ScenarioConfig:
    lattice: LatticeSpec
    input: InputConfig
    time: TimeConfig
    output: OutputConfig
    sweep: SweepConfig | None = None

    def __post_init__(self) -> None:
        for name in ("site_r", "site_s"):
            site = getattr(self.input, name)
            checked_int(site, f"input.{name}", 1, self.lattice.num_cavities)
        # NoonInput checks theta (or the concurrence) and site distinctness.
        self.input.to_noon()
        if self.time.scale == "hopping" and self.lattice.hopping == 0.0:
            raise ValidationError(
                "time.scale='hopping' requires a nonzero hopping strength"
            )

    def absolute_time(self, scaled: float) -> float:
        """Convert a time in the configured scale to absolute units."""
        rate = self.lattice.omega if self.time.scale == "omega" else self.lattice.hopping
        return scaled / rate

    def time_grid(self) -> list[float]:
        """Absolute times: steps+1 uniform samples on [0, t_max/rate]."""
        t_end = self.absolute_time(self.time.t_max)
        steps = self.time.steps
        return [t_end * i / steps for i in range(steps + 1)]


_SECTION_KEYS = {
    "lattice": {"num_cavities", "omega", "hopping"},
    "input": {"site_r", "site_s", "theta", "concurrence", "branch"},
    "time": {"t_max", "steps", "scale"},
    "output": {"format", "path"},
    "sweep": {"theta", "concurrence", "branch"},
}


def _check_keys(section: str, data: dict) -> None:
    unknown = set(data) - _SECTION_KEYS[section]
    if unknown:
        raise ValidationError(
            f"unknown key(s) in '{section}': {', '.join(sorted(unknown))}"
        )


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Validate a raw JSON document into a ScenarioConfig."""
    if not isinstance(raw, dict):
        raise ValidationError("config document must be a JSON object")
    unknown = set(raw) - set(_SECTION_KEYS)
    if unknown:
        raise ValidationError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    for section in ("lattice", "input", "time"):
        if section not in raw:
            raise ValidationError(f"config is missing the '{section}' section")
        if not isinstance(raw[section], dict):
            raise ValidationError(f"config section '{section}' must be an object")

    try:
        _check_keys("lattice", raw["lattice"])
        lattice = LatticeSpec(**raw["lattice"])
        _check_keys("input", raw["input"])
        if "theta" in raw["input"] and "branch" in raw["input"]:
            raise ValidationError(
                "input.branch is only meaningful together with input.concurrence"
            )
        inp = InputConfig(**raw["input"])
        _check_keys("time", raw["time"])
        time = TimeConfig(**raw["time"])
        out_raw = raw.get("output", {})
        if not isinstance(out_raw, dict):
            raise ValidationError("config section 'output' must be an object")
        _check_keys("output", out_raw)
        output = OutputConfig(**out_raw)
        sweep = None
        if raw.get("sweep") is not None:
            if not isinstance(raw["sweep"], dict):
                raise ValidationError("config section 'sweep' must be an object")
            _check_keys("sweep", raw["sweep"])
            sweep_raw = dict(raw["sweep"])
            for key in ("theta", "concurrence"):
                if key in sweep_raw and not isinstance(sweep_raw[key], (list, tuple)):
                    raise ValidationError(f"sweep.{key} must be a list")
            sweep = SweepConfig(**sweep_raw)
        return ScenarioConfig(
            lattice=lattice, input=inp, time=time, output=output, sweep=sweep
        )
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed config: {exc}") from exc


def _decode(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past the int-from-str digit limit
        raise ValidationError(f"config is not valid JSON: {exc}") from exc


def parse_config(text: str) -> ScenarioConfig:
    return config_from_dict(_decode(text))


def read_config_document(path: str) -> dict:
    """Raw JSON document of a scenario file, for ``apply_overrides``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config file is not valid UTF-8: {exc}") from None
    return _decode(text)


def load_config(path: str) -> ScenarioConfig:
    return config_from_dict(read_config_document(path))


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Plain-dict form of a config; parse(serialize(.)) round-trips exactly."""
    doc: dict[str, Any] = {
        "lattice": asdict(cfg.lattice),
        "input": {"site_r": cfg.input.site_r, "site_s": cfg.input.site_s},
        "time": asdict(cfg.time),
        "output": asdict(cfg.output),
    }
    if cfg.input.theta is not None:
        doc["input"]["theta"] = cfg.input.theta
    else:
        doc["input"]["concurrence"] = cfg.input.concurrence
        doc["input"]["branch"] = cfg.input.branch
    if cfg.sweep is not None:
        if cfg.sweep.theta is not None:
            doc["sweep"] = {"theta": list(cfg.sweep.theta)}
        else:
            doc["sweep"] = {
                "concurrence": list(cfg.sweep.concurrence),
                "branch": cfg.sweep.branch,
            }
    return doc


def serialize_config(cfg: ScenarioConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply ``--set dotted.path=value`` assignments to a raw config dict.

    Values are parsed as JSON when possible (numbers, booleans, quoted
    strings, lists); bare words become strings; ``null`` removes the key.
    Returns a new dict, input untouched.
    """
    doc = json.loads(json.dumps(raw))
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")
    for assignment in assignments:
        if "=" not in assignment:
            raise ValidationError(
                f"override {assignment!r} must look like key.path=value"
            )
        path, _, raw_value = assignment.partition("=")
        keys = path.strip().split(".")
        if not all(keys):
            raise ValidationError(f"override {assignment!r} has an empty path segment")
        try:
            value = json.loads(raw_value)
        except ValueError:
            value = raw_value
        node = doc
        for key in keys[:-1]:
            if key not in node or not isinstance(node[key], dict):
                node[key] = {}
            node = node[key]
        if value is None:
            node.pop(keys[-1], None)
        else:
            node[keys[-1]] = value
    return doc


def default_config_dict() -> dict:
    """Built-in scenario: the 29-cavity chain snapshot used throughout."""
    return {
        "lattice": {"num_cavities": 29, "omega": 1.0, "hopping": 1.0},
        "input": {"site_r": 15, "site_s": 16, "theta": 0.7853981633974483},
        "time": {"t_max": 83.57, "steps": 2000, "scale": "omega"},
        "output": {"format": "csv", "path": None},
    }
