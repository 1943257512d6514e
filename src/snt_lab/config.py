"""Scenario parameterizations and run-level settings.

All probability pairs are ordered (low severity, high severity).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

SCENARIO_IDS = ("S1", "S2", "S3", "S4")

#: Default per-visit probability that low disease severity becomes high.
#: 0.60 keeps the calibration solvable for every built-in scenario; see README.
DEFAULT_PROGRESSION_PROB = 0.60

#: Annual visits per person, and the follow-up horizon in years: every
#: truth, risk and design window ends HORIZON_TAU years after its index
#: visit. The lab supports only this design, so neither is a setting.
N_VISITS = 3
HORIZON_TAU = 2

WEIGHT_MODE_INITIATION = "initiation"
WEIGHT_MODE_PAPER = "paper_simplified"
WEIGHT_MODES = (WEIGHT_MODE_INITIATION, WEIGHT_MODE_PAPER)

CERTAIN_CENSORING = "certain censoring: Pr(uncensored) = 0 for some severity level"


class ConfigError(ValueError):
    """Raised for unparseable or invalid configuration documents."""


class DegenerateWeightError(RuntimeError):
    """A censoring probability of 1 makes a year 2 weight infinite: raised
    by estimators.censoring_weights for such an index, and by
    harness.scenario_block for a replicate that counts a person with one."""


class ScenarioSpec(NamedTuple):
    """Generative parameters of one simulation scenario."""

    scenario_id: str
    baseline_high_prob: float = 0.25
    progression_prob: float = DEFAULT_PROGRESSION_PROB
    decision_prob: tuple[float, float] = (0.3, 0.3)
    treat_prob: tuple[float, float] = (0.25, 0.75)
    spt_treat_prob: float = 0.375
    risk_untreated: tuple[float, float] = (0.15, 0.25)
    delta: tuple[float, float] = (0.7, 0.7)


class RunConfig(NamedTuple):
    """Run-level settings shared by every scenario in a run."""

    n_individuals: int = 5000
    n_replicates: int = 5000
    master_seed: int = 42
    output_dir: Path = Path("runs")
    cal_weight_mode: str = WEIGHT_MODE_INITIATION
    superpop: int | None = None
    truth_override: float | None = None


def builtin_scenarios(progression_prob: float = DEFAULT_PROGRESSION_PROB) -> list[ScenarioSpec]:
    """The four built-in scenarios: a 2x2 grid over whether disease severity
    drives treatment decision points and whether it modifies the treatment
    effect on the risk-ratio scale."""
    decision = {"S1": (0.3, 0.3), "S2": (0.3, 0.3), "S3": (0.2, 0.8), "S4": (0.2, 0.8)}
    delta = {"S1": (0.7, 0.7), "S2": (0.5, 0.9), "S3": (0.7, 0.7), "S4": (0.5, 0.9)}
    return [
        ScenarioSpec(
            scenario_id=sid,
            progression_prob=progression_prob,
            decision_prob=decision[sid],
            delta=delta[sid],
        )
        for sid in SCENARIO_IDS
    ]


def _is_int(x) -> bool:
    """An integer that is not a bool (JSON true and false are not numbers)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite int or float (JSON Infinity and NaN are not numbers here)."""
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _is_prob(x) -> bool:
    return _is_number(x) and 0.0 <= x <= 1.0


def _is_prob_pair(x) -> bool:
    return (
        isinstance(x, tuple)
        and len(x) == 2
        and all(_is_prob(v) for v in x)
    )


def validate(spec: ScenarioSpec) -> list[str]:
    """Return a list of violated invariants; empty means the spec is valid."""
    bad: list[str] = []
    if spec.scenario_id not in SCENARIO_IDS:
        bad.append(f"scenario_id must be one of {SCENARIO_IDS}")
    if not _is_prob(spec.baseline_high_prob):
        bad.append("baseline_high_prob out of [0,1]")
    if not _is_prob(spec.progression_prob):
        bad.append("progression_prob out of [0,1]")
    if not _is_prob_pair(spec.decision_prob):
        bad.append("decision_prob out of [0,1]")
    if not _is_prob_pair(spec.treat_prob):
        bad.append("treat_prob out of [0,1]")
    if not _is_prob(spec.spt_treat_prob):
        bad.append("spt_treat_prob out of [0,1]")
    if not _is_prob_pair(spec.risk_untreated):
        bad.append("risk_untreated out of [0,1]")
    elif spec.risk_untreated[0] > spec.risk_untreated[1]:
        bad.append("risk_untreated(low) must be <= risk_untreated(high)")
    if not (
        isinstance(spec.delta, tuple)
        and len(spec.delta) == 2
        and all(_is_number(v) and v > 0 for v in spec.delta)
    ):
        bad.append("delta must be finite and > 0")
    return bad


def validate_run(run: RunConfig) -> list[str]:
    bad: list[str] = []
    if not _is_int(run.n_individuals) or run.n_individuals < 1:
        bad.append("n_individuals must be >= 1")
    if not _is_int(run.n_replicates) or run.n_replicates < 0:
        bad.append("n_replicates must be >= 0")
    if not _is_int(run.master_seed) or not 0 <= run.master_seed < 2**64:
        bad.append("master_seed must be an unsigned 64-bit integer")
    if run.cal_weight_mode not in WEIGHT_MODES:
        bad.append(f"cal_weight_mode must be one of {WEIGHT_MODES}")
    if run.superpop is not None and (not _is_int(run.superpop) or run.superpop < 1):
        bad.append("superpop must be >= 1")
    if run.truth_override is not None and not (
        _is_number(run.truth_override) and run.truth_override > 0
    ):
        bad.append("truth_override must be finite and > 0")
    return bad


_PAIR_FIELDS = {"decision_prob", "treat_prob", "risk_untreated", "delta"}
_SCENARIO_FIELDS = set(ScenarioSpec._fields)
_RUN_FIELDS = set(RunConfig._fields)


def _coerce_scenario_value(key: str, value):
    if key in _PAIR_FIELDS:
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"scenario field {key!r} must be a [low, high] pair")
        return tuple(value)
    return value


def load_config(path: str | Path) -> tuple[list[ScenarioSpec], RunConfig]:
    """Load a JSON config document.

    The document is a single object with optional keys ``run`` (RunConfig
    fields) and ``scenarios`` (array of partial ScenarioSpec overrides keyed
    by ``scenario_id``). An empty file yields the built-in scenarios and the
    default RunConfig. Unknown keys are an error.
    """
    import json  # only a --config run parses JSON

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {exc}") from exc
    if not text.strip():
        return builtin_scenarios(), RunConfig()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - {"run", "scenarios"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")

    run_doc = doc.get("run", {})
    if not isinstance(run_doc, dict):
        raise ConfigError("'run' must be an object")
    unknown = set(run_doc) - _RUN_FIELDS
    if unknown:
        raise ConfigError(f"unknown run keys: {sorted(unknown)}")
    if "output_dir" in run_doc:
        # Path("") would be the current directory
        if not isinstance(run_doc["output_dir"], str) or not run_doc["output_dir"]:
            raise ConfigError("run field 'output_dir' must be a non-empty path string")
        run_doc = dict(run_doc, output_dir=Path(run_doc["output_dir"]))
    run = RunConfig()._replace(**run_doc)

    specs = {s.scenario_id: s for s in builtin_scenarios()}
    scen_doc = doc.get("scenarios", [])
    if not isinstance(scen_doc, list):
        raise ConfigError("'scenarios' must be an array")
    for entry in scen_doc:
        if not isinstance(entry, dict) or "scenario_id" not in entry:
            raise ConfigError("each scenario entry must be an object with a scenario_id")
        sid = entry["scenario_id"]
        if not isinstance(sid, str) or sid not in specs:
            raise ConfigError(f"unknown scenario_id {sid!r}")
        unknown = set(entry) - _SCENARIO_FIELDS
        if unknown:
            raise ConfigError(f"unknown scenario keys for {sid}: {sorted(unknown)}")
        overrides = {
            k: _coerce_scenario_value(k, v) for k, v in entry.items() if k != "scenario_id"
        }
        specs[sid] = specs[sid]._replace(**overrides)

    ordered = [specs[sid] for sid in SCENARIO_IDS]
    violations = [
        f"{spec.scenario_id}: {v}" for spec in ordered for v in validate(spec)
    ] + validate_run(run)
    if violations:
        raise ConfigError("invalid configuration: " + "; ".join(violations))
    return ordered, run
