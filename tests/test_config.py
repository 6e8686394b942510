import contextlib
import io
import json
import re
import tempfile
from math import asin
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccawalk import NoonInput, ValidationError
from ccawalk.cli import main
from ccawalk.config import (
    _SECTION_KEYS,
    MAX_STEPS,
    ScenarioConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    default_config_dict,
    read_config_document,
)
from conftest import sometimes


def load_config(path):
    return config_from_dict(read_config_document(str(path)))


def through_json(cfg):
    """The config after a trip through its JSON text form."""
    return config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))


MINIMAL = {
    "lattice": {"num_cavities": 5, "omega": 1.0, "hopping": 0.5},
    "input": {"site_r": 2, "site_s": 3, "theta": 0.4},
    "time": {"t_max": 10.0, "steps": 4, "scale": "omega"},
}


def test_parse_minimal_applies_output_defaults():
    cfg = config_from_dict(MINIMAL)
    assert cfg.output.format == "csv"
    assert config_to_dict(cfg)["output"] == {"format": "csv"}
    assert cfg.sweep is None
    assert cfg.input == NoonInput(theta=0.4, site_r=2, site_s=3)


def test_round_trip_theta_form():
    cfg = config_from_dict(MINIMAL)
    assert through_json(cfg) == cfg


def test_round_trip_integer_angles_as_floats():
    # NoonInput and SweepConfig store floats, so a header prints theta 0 as 0.0
    raw = json.loads(json.dumps(MINIMAL))
    raw["input"] = {"site_r": 3, "site_s": 2, "theta": 0}
    raw["sweep"] = {"theta": [0, asin(0.5) / 2, 1]}
    cfg = config_from_dict(raw)
    assert through_json(cfg) == cfg
    doc = config_to_dict(cfg)
    assert type(doc["input"]["theta"]) is float and doc["input"]["theta"] == 0.0
    assert [type(theta) for theta in doc["sweep"]["theta"]] == [float] * 3
    assert '"theta":0.0' in json.dumps(doc, separators=(",", ":"))


def test_theta_is_the_one_input_angle():
    raw = json.loads(json.dumps(MINIMAL))
    raw["input"]["concurrence"] = 0.5
    with pytest.raises(ValidationError, match=r"unknown key\(s\) in 'input'"):
        config_from_dict(raw)
    del raw["input"]["concurrence"]
    del raw["input"]["theta"]
    with pytest.raises(ValidationError, match="config is missing input.theta"):
        config_from_dict(raw)


@pytest.mark.parametrize("key", ["branch", "concurrence"])
@pytest.mark.parametrize("section", ["input", "sweep"])
def test_old_angle_keys_are_unknown(section, key):
    # theta alone names the angle: a concurrence C is theta = asin(C)/2, and
    # its other angle is the input with its sites exchanged
    raw = {**json.loads(json.dumps(MINIMAL)), "sweep": {"theta": [0.5]}}
    raw[section][key] = 0.5
    message = rf"unknown key\(s\) in '{section}': '{key}'"
    with pytest.raises(ValidationError, match=message):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "site_r, message",
    [(0, "site_r must be >= 1, got 0"), (6, "input.site_r must lie in [1, 5], got 6"),
     (2.0, "site_r must be an integer, got 2.0")],
)
def test_input_sites_are_checked_by_noon_input_then_the_chain(site_r, message):
    raw = json.loads(json.dumps(MINIMAL))
    raw["input"]["site_r"] = site_r
    with pytest.raises(ValidationError, match=re.escape(message)):
        config_from_dict(raw)


def test_unknown_keys_rejected():
    raw = json.loads(json.dumps(MINIMAL))
    raw["lattice"]["cavities"] = 5
    with pytest.raises(ValidationError):
        config_from_dict(raw)
    raw = json.loads(json.dumps(MINIMAL))
    raw["extra_section"] = {}
    with pytest.raises(ValidationError):
        config_from_dict(raw)


def test_sites_must_fit_chain():
    raw = json.loads(json.dumps(MINIMAL))
    raw["input"]["site_s"] = 6
    with pytest.raises(ValidationError):
        config_from_dict(raw)


def test_hopping_scale_needs_nonzero_hopping():
    raw = json.loads(json.dumps(MINIMAL))
    raw["lattice"]["hopping"] = 0.0
    raw["time"]["scale"] = "hopping"
    with pytest.raises(ValidationError):
        config_from_dict(raw)


def test_bad_time_values():
    for patch in ({"t_max": -1.0}, {"steps": 0}, {"scale": "tau"}):
        raw = json.loads(json.dumps(MINIMAL))
        raw["time"].update(patch)
        with pytest.raises(ValidationError):
            config_from_dict(raw)


@pytest.mark.parametrize(
    "lattice, time, message",
    [
        ({"hopping": 1e308}, {"t_max": 2.0}, "2 * hopping * t is inf"),
        ({"hopping": 0.1}, {"t_max": 1e308, "steps": 2}, "time grid overflows"),
        ({"omega": 1e-10}, {"t_max": 1e300}, "t is inf"),
        ({"omega": 1e300, "hopping": 1e-10}, {"t_max": 1e10, "scale": "hopping"},
         "omega * t is inf"),
    ],
)
def test_overflowing_time_products_rejected(lattice, time, message):
    raw = json.loads(json.dumps(MINIMAL))
    raw["lattice"].update(lattice)
    raw["time"].update(time)
    with pytest.raises(ValidationError, match=re.escape(message)):
        config_from_dict(raw)


def test_largest_finite_time_products_accepted():
    raw = json.loads(json.dumps(MINIMAL))
    raw["lattice"].update({"omega": 1.0, "hopping": 0.5})
    raw["time"].update({"t_max": 1e308, "steps": 1})
    cfg = config_from_dict(raw)
    assert cfg.time_grid()[-1] == 1e308


def test_steps_limit_is_checked_before_any_grid():
    raw = json.loads(json.dumps(MINIMAL))
    raw["time"]["steps"] = MAX_STEPS
    assert config_from_dict(raw).time.steps == 10**6
    raw["time"]["steps"] = MAX_STEPS + 1
    with pytest.raises(ValidationError, match="time.steps must lie in"):
        config_from_dict(raw)


def test_null_optional_section_is_absent():
    absent = config_from_dict(MINIMAL)
    assert config_from_dict({**MINIMAL, "output": None, "sweep": None}) == absent
    with pytest.raises(ValidationError, match="missing the 'time' section"):
        config_from_dict({**MINIMAL, "time": None})


@pytest.mark.parametrize(
    "sweep, message",
    [
        ({"theta": [5.0]}, "sweep.theta entry must lie in"),
        ({"theta": []}, "sweep.theta must be a non-empty list"),
        ({"theta": 0.1}, "sweep.theta must be a non-empty list"),
        ({"concurrence": [1.5]}, r"unknown key\(s\) in 'sweep': 'concurrence'"),
        ({"theta": [0.1, 0.1]}, "duplicates"),
        ({"theta": [1, 1.0]}, "duplicates"),
        ({"theta": [0.1], "concurrence": [0.5]}, r"unknown key\(s\) in 'sweep'"),
        ({}, "config is missing sweep.theta"),
    ],
)
def test_sweep_follows_the_input_angle_rule(sweep, message):
    with pytest.raises(ValidationError, match=message):
        config_from_dict({**MINIMAL, "sweep": sweep})


def test_time_grid_endpoints_and_scaling():
    cfg = config_from_dict(MINIMAL)
    grid = cfg.time_grid()
    assert len(grid) == cfg.time.steps + 1
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(10.0, rel=1e-15)

    raw = json.loads(json.dumps(MINIMAL))
    raw["time"]["scale"] = "hopping"
    scaled = config_from_dict(raw)
    assert scaled.time_grid()[-1] == pytest.approx(10.0 / 0.5, rel=1e-15)
    assert scaled.absolute_time() == pytest.approx(10.0 / 0.5, rel=1e-15)


@pytest.mark.parametrize(
    "source",
    [
        "fig1",
        "fig2",
        "fig3",
        {"t_max": 83.57, "steps": 7, "scale": "omega"},
        {"t_max": 1e-300, "steps": 3, "scale": "hopping"},
        {"t_max": 1e300, "steps": 999_983, "scale": "omega"},
        {"t_max": 0.1, "steps": 1, "scale": "hopping"},
        {"t_max": 0.0, "steps": 5, "scale": "omega"},
    ],
)
def test_time_grid_is_bitwise_the_list_formula(scenarios_dir, source):
    if isinstance(source, str):
        cfg = load_config(scenarios_dir / f"{source}.json")
    else:
        cfg = config_from_dict({**MINIMAL, "time": source})
    grid = cfg.time_grid()
    t_end, steps = cfg.absolute_time(), cfg.time.steps
    expected = [t_end * i / steps for i in range(steps + 1)]
    assert grid.dtype == np.float64 and not grid.flags.writeable
    assert grid.tobytes() == np.array(expected).tobytes()


def test_overrides_parse_json_values():
    raw = apply_overrides(
        MINIMAL,
        ["lattice.hopping=0.25", "time.steps=8", "time.scale=hopping"],
    )
    cfg = config_from_dict(raw)
    assert cfg.lattice.hopping == 0.25
    assert cfg.time.steps == 8
    assert cfg.time.scale == "hopping"
    # source dict untouched
    assert MINIMAL["lattice"]["hopping"] == 0.5


def test_override_null_removes_key():
    raw = apply_overrides(MINIMAL, ["input.theta=null", "sweep.theta=[0.5]"])
    assert raw["input"] == {"site_r": 2, "site_s": 3}
    with pytest.raises(ValidationError, match="config is missing input.theta"):
        config_from_dict(raw)
    raw = apply_overrides(raw, ["input.theta=1.0", "sweep=null"])
    assert config_from_dict(raw) == config_from_dict({**MINIMAL, "input": raw["input"]})
    assert config_from_dict(raw).input.theta == 1.0


def test_override_requires_assignment():
    with pytest.raises(ValidationError):
        apply_overrides(MINIMAL, ["lattice.hopping"])
    with pytest.raises(ValidationError):
        apply_overrides(MINIMAL, ["=3"])


def test_override_on_non_object_document_rejected():
    with pytest.raises(ValidationError):
        apply_overrides([1], ["lattice.hopping=0.5"])


def test_section_missing_keys_names_them():
    raw = json.loads(json.dumps(MINIMAL))
    raw["lattice"] = {"num_cavities": 5}
    with pytest.raises(ValidationError) as err:
        config_from_dict(raw)
    assert str(err.value) == "config is missing lattice.omega, lattice.hopping"


def test_document_nested_past_the_recursion_limit_is_refused():
    deep = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(ValidationError, match="nested too deeply"):
        apply_overrides({"lattice": deep}, [])


def test_default_config_is_valid():
    cfg = config_from_dict(default_config_dict())
    assert cfg.lattice.num_cavities == 29
    assert cfg.input.site_r == 15
    assert cfg.input.site_s == 16


def test_shipped_scenarios_parse(scenarios_dir):
    for name in ("fig1.json", "fig2.json", "fig3.json"):
        cfg = load_config(str(scenarios_dir / name))
        assert cfg.lattice.num_cavities == 29
        assert cfg.sweep is not None
        assert len(cfg.sweep.theta) == 3
    fig2 = load_config(str(scenarios_dir / "fig2.json"))
    assert fig2.lattice.hopping == pytest.approx(0.01)
    assert fig2.time.scale == "hopping"
    fig3 = load_config(str(scenarios_dir / "fig3.json"))
    assert fig3.lattice.hopping == pytest.approx(0.1)


def test_invalid_json_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_config(bad)


# 400 digits overflow a double; 5000 pass the int-from-str digit limit
@pytest.mark.parametrize(
    "length, message",
    [(400, "omega must be finite"), (5000, "not valid JSON")],
    ids=["400", "5000"],
)
def test_oversized_integer_literal_rejected(tmp_path, length, message):
    digits = "9" * length
    text = json.dumps(MINIMAL).replace('"omega": 1.0', f'"omega": {digits}')
    assert digits in text
    path = tmp_path / "big.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=message):
        load_config(path)
    with pytest.raises(ValidationError):
        config_from_dict(apply_overrides(MINIMAL, [f"lattice.omega={digits}"]))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**1024, 2**1100)  # valid JSON, beyond the double range
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
DOTTED_KEYS = sorted(
    f"{section}.{key}" for section, keys in _SECTION_KEYS.items() for key in keys
)


# Lists that can make a valid theta family, so the round
# trip also meets sweep blocks.
ANGLE_LISTS = st.lists(st.floats(0.0, 1.6), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(DOTTED_KEYS), JSON_VALUES | ANGLE_LISTS),
        max_size=4,
    )
)
def test_any_override_gives_config_or_validation_error(assignments):
    sets = [f"{key}={json.dumps(value)}" for key, value in assignments]
    try:
        cfg = config_from_dict(apply_overrides(default_config_dict(), sets))
    except ValidationError:
        return
    assert isinstance(cfg, ScenarioConfig)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def unique_lists(values):
    return st.lists(values, min_size=1, max_size=3, unique=True)


# Sections that often load, for the fuzz below to spoil.  num_cavities never
# exceeds 64, which bounds the memory and time of a run.
SITES = {"site_r": st.integers(1, 3), "site_s": st.integers(1, 3)}
GOOD_SECTIONS = {
    "lattice": st.fixed_dictionaries(
        {
            "num_cavities": st.integers(2, 64),
            "omega": st.floats(0.1, 3.0),
            "hopping": st.floats(0.0, 2.0),
        }
    ),
    "input": st.fixed_dictionaries({**SITES, "theta": st.floats(0.0, 1.6)}),
    "time": st.fixed_dictionaries(
        {
            "t_max": st.floats(0.0, 100.0),
            "steps": st.integers(1, MAX_STEPS + 1),
            "scale": st.sampled_from(["omega", "hopping"]),
        }
    ),
    "output": st.fixed_dictionaries(
        {}, optional={"format": st.sampled_from(["csv", "json"])}
    ),
    "sweep": st.fixed_dictionaries({"theta": unique_lists(st.floats(0.0, 1.5))}),
}
SMALL_JSON_VALUES = JSON_VALUES.filter(
    lambda v: not (type(v) is int and 64 < v <= 5000)
)


JUNK_KEYS = sometimes(
    st.dictionaries(st.text(max_size=6), JSON_VALUES, min_size=1, max_size=2),
    st.just({}),
)


def _mixed(good, dropped, spoiled, junk):
    section = {key: value for key, value in good.items() if key not in dropped}
    return {**junk, **section, **spoiled}


def _section(name):
    """A good section with keys dropped, any key of the schema set to any
    JSON value and junk keys added, or at times any JSON value instead."""
    keys = sorted(_SECTION_KEYS[name])
    spoiled = st.one_of(
        [
            st.tuples(
                st.just(key),
                SMALL_JSON_VALUES if key == "num_cavities" else JSON_VALUES,
            )
            for key in keys
        ]
    )
    mixed = st.builds(
        _mixed,
        GOOD_SECTIONS[name],
        sometimes(st.sets(st.sampled_from(keys), min_size=1, max_size=2), st.just(())),
        sometimes(st.lists(spoiled, min_size=1, max_size=2).map(dict), st.just({})),
        JUNK_KEYS,
    )
    return sometimes(JSON_VALUES, mixed)


DOCUMENTS = sometimes(
    JSON_VALUES,
    st.builds(
        lambda sections, junk: {**junk, **sections},
        st.fixed_dictionaries(
            {name: _section(name) for name in ("lattice", "input", "time")},
            optional={name: _section(name) for name in ("output", "sweep")},
        ),
        JUNK_KEYS,
    ),
)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
def test_any_document_exits_cleanly_through_the_cli(document):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp, "doc.json"), Path(tmp, "out")
        config.write_text(json.dumps(document), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["spectrum", "--config", str(config), "--out", str(out)])
        assert code in (0, 1)
        if code == 0:
            assert out.exists()
        else:
            assert len(stderr.getvalue().splitlines()) == 1
            assert stderr.getvalue().startswith("error: ")
