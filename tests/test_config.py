import json

import pytest

from snt_lab.config import (
    HORIZON_TAU,
    N_VISITS,
    ConfigError,
    RunConfig,
    ScenarioSpec,
    SCENARIO_IDS,
    builtin_scenarios,
    load_config,
    validate,
    validate_run,
)


def test_builtin_grid():
    specs = {s.scenario_id: s for s in builtin_scenarios()}
    assert list(specs) == list(SCENARIO_IDS)
    assert specs["S1"].decision_prob == (0.3, 0.3)
    assert specs["S2"].decision_prob == (0.3, 0.3)
    assert specs["S3"].decision_prob == (0.2, 0.8)
    assert specs["S4"].decision_prob == (0.2, 0.8)
    assert specs["S1"].delta == (0.7, 0.7)
    assert specs["S3"].delta == (0.7, 0.7)
    assert specs["S2"].delta == (0.5, 0.9)
    assert specs["S4"].delta == (0.5, 0.9)
    for s in specs.values():
        assert s.risk_untreated == (0.15, 0.25)
        assert s.treat_prob == (0.25, 0.75)
        assert s.baseline_high_prob == 0.25
    # the horizon and the visit count are fixed by the design, not settings
    assert (HORIZON_TAU, N_VISITS) == (2, 3)
    fields = set(ScenarioSpec._fields)
    assert fields.isdisjoint({"horizon_tau", "n_visits"})


def test_builtins_referentially_transparent():
    assert builtin_scenarios() == builtin_scenarios()


def test_spt_probability_matches_severity_mix():
    for s in builtin_scenarios():
        mix = (
            s.baseline_high_prob * s.treat_prob[1]
            + (1 - s.baseline_high_prob) * s.treat_prob[0]
        )
        assert abs(s.spt_treat_prob - mix) < 1e-12
        assert s.spt_treat_prob == 0.375


def test_validate_accepts_builtins():
    for s in builtin_scenarios():
        assert validate(s) == []


def test_validate_flags_bad_progression():
    s = builtin_scenarios()[0]._replace(progression_prob=-0.1)
    assert validate(s) == ["progression_prob out of [0,1]"]


def test_validate_flags_nonpositive_delta():
    s = builtin_scenarios()[1]._replace(delta=(0.0, 0.9))
    assert validate(s) == ["delta must be finite and > 0"]


def test_validate_collects_multiple_violations():
    s = builtin_scenarios()[0]._replace(treat_prob=(1.3, 0.5), risk_untreated=(0.4, 0.2))
    bad = validate(s)
    assert "treat_prob out of [0,1]" in bad
    assert any("risk_untreated" in v for v in bad)


def test_validate_run_defaults_ok():
    assert validate_run(RunConfig()) == []


def test_validate_run_rejects_bad_values():
    bad = validate_run(RunConfig(n_individuals=0, master_seed=-1, cal_weight_mode="x"))
    assert len(bad) == 3


def test_load_config_empty_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("")
    specs, run = load_config(path)
    assert specs == builtin_scenarios()
    assert run == RunConfig()


def test_load_config_overrides(tmp_path):
    doc = {
        "run": {"n_replicates": 100, "master_seed": 7},
        "scenarios": [
            {"scenario_id": sid, "progression_prob": 0.78} for sid in SCENARIO_IDS
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    specs, run = load_config(path)
    assert all(s.progression_prob == 0.78 for s in specs)
    assert run.n_replicates == 100 and run.master_seed == 7
    # untouched fields keep the built-in values
    assert specs[2].decision_prob == (0.2, 0.8)


def test_load_config_pair_override(tmp_path):
    doc = {"scenarios": [{"scenario_id": "S1", "treat_prob": [0.1, 0.9]}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    specs, _ = load_config(path)
    assert specs[0].treat_prob == (0.1, 0.9)


def test_load_config_validation_error_names_field(tmp_path):
    doc = {"scenarios": [{"scenario_id": "S2", "treat_prob": [1.3, 0.5]}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="treat_prob"):
        load_config(path)


def test_load_config_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"runs": {}}')
    with pytest.raises(ConfigError, match="unknown top-level"):
        load_config(path)
    path.write_text('{"scenarios": [{"scenario_id": "S1", "bogus": 1}]}')
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)


def test_load_config_parse_error_reports_line(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "run": {,}\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)
