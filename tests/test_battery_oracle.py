"""The analysis battery and the descriptive rows against plain-loop
references, over hundreds of tiny cohorts (where every degenerate flag
occurs) and a few paper-size ones."""

import math

import numpy as np
import pytest

from oracles import battery_oracle, describe_oracle
from snt_lab.config import WEIGHT_MODE_INITIATION, WEIGHT_MODE_PAPER, builtin_scenarios
from snt_lab.designs import (
    assign_treatments,
    build_esnt_cal,
    build_esnt_td,
    build_spt,
    describe_replicate,
)
from snt_lab.estimators import analyze_replicate
from snt_lab.hazards import solve
from snt_lab.population import draw_cohort

SPECS = {s.scenario_id: s for s in builtin_scenarios()}
HAZARDS = {sid: solve(spec).hazards for sid, spec in SPECS.items()}
MODES = (WEIGHT_MODE_INITIATION, WEIGHT_MODE_PAPER)


def replicate(scenario_id, n, seed):
    spec = SPECS[scenario_id]
    rng = np.random.default_rng(seed)
    cohort = draw_cohort(rng, spec, HAZARDS[scenario_id], n)
    a = assign_treatments(rng, cohort, spec)
    return spec, cohort, build_spt(cohort, a), build_esnt_cal(cohort, a), build_esnt_td(cohort, a)


def same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12


def assert_rows_match(got, expected, float_positions):
    """Floats (at float_positions) to 1e-12, everything else exactly."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert len(g) == len(e)
        for i, (gv, ev) in enumerate(zip(g, e)):
            if i in float_positions:
                assert same_float(gv, ev), (g, e)
            else:
                assert gv == ev, (g, e)


def battery_tuples(results):
    return [
        (r.risk_treated, r.risk_untreated, r.rr, r.log_rr, r.n_treated, r.n_untreated,
         r.degenerate)
        for r in results
    ]


def describe_tuples(rows):
    return [
        (r.design, r.group, r.severity, r.n_people, r.n_indexes, r.pct_high,
         r.avg_indexes_per_person)
        for r in rows
    ]


def check_replicate(scenario_id, n, seed, mode):
    spec, cohort, spt, cal, td = replicate(scenario_id, n, seed)
    results = analyze_replicate(cohort, spt, cal, td, spec, mode)
    battery = battery_tuples(results)
    assert_rows_match(battery, battery_oracle(cohort, spt, cal, td, spec, mode), {0, 1, 2, 3})
    rows = describe_replicate(spt, cal, td, n)
    expected = [row for idx in (spt, cal, td) for row in describe_oracle(idx, n)]
    assert_rows_match(describe_tuples(rows), expected, {5, 6})
    return [b[6] for b in battery]


def test_tiny_cohorts_match_oracles_and_hit_every_flag():
    flags = set()
    for k in range(320):
        scenario_id = ("S1", "S2", "S3", "S4")[k % 4]
        flags.update(check_replicate(scenario_id, 1 + k % 12, 1000 + k, MODES[(k // 4) % 2]))
    kinds = {part.split(":")[0] for flag in flags if flag for part in flag.split(";")}
    assert kinds == {
        "empty_stratum", "empty_target", "zero_risk_treated", "zero_risk_untreated",
        "undefined_truth",
    }


@pytest.mark.parametrize(
    "scenario_id,seed,mode",
    [
        ("S4", 1, WEIGHT_MODE_INITIATION),
        ("S2", 2, WEIGHT_MODE_PAPER),
        ("S3", 3, WEIGHT_MODE_INITIATION),
    ],
)
def test_paper_size_replicates_match_oracles(scenario_id, seed, mode):
    flags = check_replicate(scenario_id, 5000, seed, mode)
    assert not any(flags)
