"""Scenario configuration: JSON schema, validation, overrides, round-trip.

A scenario is a single JSON document:

    {
      "lattice": {"num_cavities": 29, "omega": 1.0, "hopping": 1.0},
      "input":   {"site_r": 15, "site_s": 16, "theta": 0.785398...},
      "time":    {"t_max": 83.57, "steps": 2000, "scale": "omega"},
      "output":  {"format": "csv"},
      "sweep":   {"theta": [0.0, 0.2617..., 0.7853...]}          # optional
    }

``input`` is the ``NoonInput`` itself: theta in [0, pi/2] and two distinct
sites of the chain.  A concurrence C = |sin 2 theta| is reached at
theta = arcsin(C)/2 (``theta_for_concurrence``), and its other angle,
pi/2 - theta, is the same input with ``site_r`` and ``site_s`` exchanged.
``time.scale`` says which energy sets the grid unit: "omega" means t_max is
omega*t, "hopping" means t_max is J*t; absolute times are t_max divided by
the corresponding rate.  ``output`` names only the format; the file is
the CLI's ``--out``, so a recorded config re-runs wherever it was written.
The optional ``sweep`` block provides the default angles of the sweep
command: a non-empty theta list, in [0, pi/2] and free of duplicates.  A
null ``output`` or ``sweep`` section is the same as an absent one.

CLI ``--set key=value`` overrides use dotted paths into this document and
JSON-parsed values (bare words fall back to strings, ``null`` deletes).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields
from math import isfinite, pi

import numpy as np

from .errors import (
    ValidationError,
    checked_choice,
    checked_int,
    checked_products,
    checked_real,
)
from .lattice import LatticeSpec, mode_phase
from .observables import NoonInput

MAX_STEPS = 10**6  # time_grid() is an array of steps + 1 floats
# A sweep writes K x (steps + 1) rows for K angles and holds their eta as
# one K x (steps + 1) array: 16 full-length series at most, 128 MB of eta.
MAX_SWEEP_POINTS = 16 * (MAX_STEPS + 1)


@dataclass(frozen=True)
class TimeConfig:
    """Uniform closed grid [0, t_max] with steps+1 samples, in scaled units."""

    t_max: float
    steps: int
    scale: str = "omega"

    def __post_init__(self) -> None:
        object.__setattr__(self, "t_max", checked_real(self.t_max, "time.t_max", 0.0))
        steps = checked_int(self.steps, "time.steps", 1, MAX_STEPS)
        object.__setattr__(self, "steps", steps)
        checked_choice(self.scale, "time.scale", ("omega", "hopping"))


@dataclass(frozen=True)
class OutputConfig:
    format: str = "csv"

    def __post_init__(self) -> None:
        checked_choice(self.format, "output.format", ("csv", "json"))


@dataclass(frozen=True)
class SweepConfig:
    """Angle family for the sweep command: distinct thetas in [0, pi/2]."""

    theta: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.theta, (list, tuple)) or not self.theta:
            raise ValidationError("sweep.theta must be a non-empty list")
        thetas = tuple(
            checked_real(v, "sweep.theta entry", 0.0, pi / 2) for v in self.theta
        )
        if len(set(thetas)) != len(thetas):
            raise ValidationError("sweep values contain duplicates")
        object.__setattr__(self, "theta", thetas)


@dataclass(frozen=True)
class ScenarioConfig:
    lattice: LatticeSpec
    input: NoonInput
    time: TimeConfig
    output: OutputConfig = OutputConfig()
    sweep: SweepConfig | None = None

    def __post_init__(self) -> None:
        # NoonInput has checked theta, the sites' type and their distinctness
        for name in ("site_r", "site_s"):
            site = getattr(self.input, name)
            checked_int(site, f"input.{name}", 1, self.lattice.num_cavities)
        if self.time.scale == "hopping" and self.lattice.hopping == 0.0:
            raise ValidationError(
                "time.scale='hopping' requires a nonzero hopping strength"
            )
        t_end = self.absolute_time()
        if not isfinite(t_end * self.time.steps):
            raise ValidationError(
                f"time grid overflows: t_max {self.time.t_max} is {t_end} in absolute "
                f"units, and {t_end} * {self.time.steps} steps is not finite"
            )

    def absolute_time(self) -> float:
        """``time.t_max``, given in the configured scale, in absolute units.

        The time and the products the pipeline forms from it, omega * t
        (the carrier) and the mode phase 2 * hopping * t of
        ``lattice.mode_phase`` (which covers hopping * t), must be finite,
        checked in that order.
        """
        scaled = self.time.t_max
        rate = self.lattice.omega if self.time.scale == "omega" else self.lattice.hopping
        t = scaled / rate
        what = f"time {scaled} ({self.time.scale} units)"
        checked_products(what, (("t", t), ("omega * t", self.lattice.omega * t)))
        mode_phase(self.lattice, t, what)
        return t

    def time_grid(self) -> np.ndarray:
        """Absolute times: steps+1 uniform samples on [0, t_max/rate], read-only.

        Sample i is ``t_end * i / steps``, rounded in that order.
        """
        t_end, steps = self.absolute_time(), self.time.steps
        grid = t_end * np.arange(steps + 1, dtype=float) / steps
        grid.setflags(write=False)
        return grid


# Section name -> (dataclass, required).  The dataclass fields are the keys
# a section may carry, and those without a default the keys it must carry;
# an absent or null optional section takes the ScenarioConfig default.
_SECTIONS = {
    "lattice": (LatticeSpec, True),
    "input": (NoonInput, True),
    "time": (TimeConfig, True),
    "output": (OutputConfig, False),
    "sweep": (SweepConfig, False),
}
_SECTION_KEYS = {
    name: {field.name: field.default is MISSING for field in fields(cls)}
    for name, (cls, _) in _SECTIONS.items()
}


def _reject_unknown(keys, known, what: str) -> None:
    unknown = sorted(set(keys) - set(known))
    if unknown:  # repr keeps a name with a line break on one line
        raise ValidationError(f"unknown {what}: {', '.join(map(repr, unknown))}")


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Validate a raw JSON document into a ScenarioConfig."""
    if not isinstance(raw, dict):
        raise ValidationError("config document must be a JSON object")
    _reject_unknown(raw, _SECTIONS, "config section(s)")
    sections = {}
    try:
        for name, (cls, required) in _SECTIONS.items():
            data = raw.get(name)
            if data is None:
                if required:
                    raise ValidationError(f"config is missing the '{name}' section")
                continue
            if not isinstance(data, dict):
                raise ValidationError(f"config section '{name}' must be an object")
            keys = _SECTION_KEYS[name]
            _reject_unknown(data, keys, f"key(s) in '{name}'")
            missing = [f"{name}.{k}" for k in keys if keys[k] and k not in data]
            if missing:
                raise ValidationError(f"config is missing {', '.join(missing)}")
            sections[name] = cls(**data)
        return ScenarioConfig(**sections)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed config: {exc}") from exc


def read_config_document(path: str) -> dict:
    """Raw JSON document of a scenario file, for ``apply_overrides``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config file is not valid UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # or an int past the digit limit
        raise ValidationError(f"config is not valid JSON: {exc}") from exc


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Plain-dict form of a config, which ``config_from_dict`` maps back to it.

    An absent ``sweep`` is left out; ``output.format`` stays explicit.
    """
    return {
        name: section for name, section in asdict(cfg).items() if section is not None
    }


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply ``--set dotted.path=value`` assignments to a raw config dict.

    Values are parsed as JSON when possible (numbers, booleans, quoted
    strings, lists); bare words become strings; ``null`` removes the key.
    Returns a new dict, input untouched; nesting too deep to parse is refused.
    """
    try:
        doc = json.loads(json.dumps(raw))
    except RecursionError:
        raise ValidationError("config document is nested too deeply") from None
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
        except RecursionError:
            raise ValidationError(f"override of {path!r} nests too deeply") from None
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
        "output": {"format": "csv"},
    }
