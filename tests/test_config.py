import json

import pytest
from hypothesis import given, settings, strategies as st

from ccawalk import ValidationError
from ccawalk.config import (
    _SECTION_KEYS,
    ScenarioConfig,
    apply_overrides,
    config_from_dict,
    default_config_dict,
    load_config,
    parse_config,
    serialize_config,
)

MINIMAL = {
    "lattice": {"num_cavities": 5, "omega": 1.0, "hopping": 0.5},
    "input": {"site_r": 2, "site_s": 3, "theta": 0.4},
    "time": {"t_max": 10.0, "steps": 4, "scale": "omega"},
}


def test_parse_minimal_applies_output_defaults():
    cfg = config_from_dict(MINIMAL)
    assert cfg.output.format == "csv"
    assert cfg.output.path is None
    assert cfg.sweep is None
    assert cfg.input.resolved_theta() == 0.4


def test_round_trip_theta_form():
    cfg = config_from_dict(MINIMAL)
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_concurrence_form():
    raw = json.loads(json.dumps(MINIMAL))
    raw["input"] = {"site_r": 2, "site_s": 3, "concurrence": 0.5, "branch": "high"}
    raw["sweep"] = {"concurrence": [0.0, 0.5, 1.0], "branch": "low"}
    cfg = config_from_dict(raw)
    assert parse_config(serialize_config(cfg)) == cfg
    assert cfg.input.resolved_theta() == pytest.approx(
        (3.14159265358979 / 2) - 0.5235987755982988 / 2, rel=1e-12
    )


def test_exactly_one_of_theta_or_concurrence():
    raw = json.loads(json.dumps(MINIMAL))
    raw["input"]["concurrence"] = 0.5
    with pytest.raises(ValidationError):
        config_from_dict(raw)
    del raw["input"]["concurrence"]
    del raw["input"]["theta"]
    with pytest.raises(ValidationError):
        config_from_dict(raw)


def test_branch_requires_concurrence():
    raw = json.loads(json.dumps(MINIMAL))
    raw["input"]["branch"] = "high"
    with pytest.raises(ValidationError):
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
    assert scaled.absolute_time(5.0) == pytest.approx(10.0, rel=1e-15)


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
    raw = apply_overrides(
        MINIMAL, ["input.theta=null", "input.concurrence=1.0", "input.branch=high"]
    )
    cfg = config_from_dict(raw)
    assert cfg.input.theta is None
    assert cfg.input.concurrence == 1.0
    assert cfg.input.branch == "high"


def test_override_requires_assignment():
    with pytest.raises(ValidationError):
        apply_overrides(MINIMAL, ["lattice.hopping"])
    with pytest.raises(ValidationError):
        apply_overrides(MINIMAL, ["=3"])


def test_override_on_non_object_document_rejected():
    with pytest.raises(ValidationError):
        apply_overrides([1], ["lattice.hopping=0.5"])


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
        assert len(cfg.sweep.resolved_thetas()) == 3
    fig2 = load_config(str(scenarios_dir / "fig2.json"))
    assert fig2.lattice.hopping == pytest.approx(0.01)
    assert fig2.time.scale == "hopping"
    fig3 = load_config(str(scenarios_dir / "fig3.json"))
    assert fig3.lattice.hopping == pytest.approx(0.1)


def test_invalid_json_rejected():
    with pytest.raises(ValidationError):
        parse_config("{not json")


# 400 digits overflow a double; 5000 pass the int-from-str digit limit
@pytest.mark.parametrize("length", [400, 5000])
def test_oversized_integer_literal_rejected(length):
    digits = "9" * length
    with pytest.raises(ValidationError):
        parse_config('{"lattice": {"omega": %s}}' % digits)
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(DOTTED_KEYS), JSON_VALUES), max_size=4))
def test_any_override_gives_config_or_validation_error(assignments):
    sets = [f"{key}={json.dumps(value)}" for key, value in assignments]
    try:
        cfg = config_from_dict(apply_overrides(default_config_dict(), sets))
    except ValidationError:
        return
    assert isinstance(cfg, ScenarioConfig)
