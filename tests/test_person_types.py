"""The person-type engine against the person-level path.

A replicate's draws are packed into one of designs.N_TYPES type codes per
person and every output is read off the type counts through a fixed map.
These tests check that the codes expand to the cohort and the treatments of
the same stream, that the type path gives the person-level analyses and
descriptive rows, and that exact type probabilities through the same map
give the enumerated truth.
"""

import dataclasses
import math

import numpy as np
import pytest

from oracles import draw_oracle
from snt_lab.config import (
    RunConfig,
    WEIGHT_MODE_INITIATION,
    WEIGHT_MODE_PAPER,
    builtin_scenarios,
)
from snt_lab.designs import (
    N_TYPES,
    assign_treatments,
    assignment_from_bits,
    build_esnt_cal,
    build_esnt_td,
    build_spt,
    describe_replicate,
    person_type_codes,
    type_cohort,
)
from snt_lab.estimators import (
    DegenerateWeightError,
    analyze_replicate,
    battery,
    person_type_map,
)
from snt_lab.harness import draw_superpopulation, replicate_stream, run_replicate
from snt_lab.hazards import solve
from snt_lab.population import (
    draw_base_codes,
    draw_cohort,
    enumerate_truth,
    expand_base_codes,
)

SPECS = {s.scenario_id: s for s in builtin_scenarios()}
HAZARDS = {sid: solve(spec).hazards for sid, spec in SPECS.items()}
MODES = (WEIGHT_MODE_INITIATION, WEIGHT_MODE_PAPER)


def cohort_arrays(cohort, assignment):
    return [cohort.severity, cohort.decision2, cohort.po, cohort.event_time,
            assignment.spt_arm, assignment.a1, assignment.a2, assignment.observed_pattern]


@pytest.mark.parametrize("scenario_id", sorted(SPECS))
@pytest.mark.parametrize("n", [1, 7, 5000])
def test_type_codes_expand_to_the_person_level_draws(scenario_id, n):
    spec, hazards = SPECS[scenario_id], HAZARDS[scenario_id]
    rng = np.random.default_rng(n)
    codes = person_type_codes(rng, draw_base_codes(rng, spec, hazards, n), spec)
    assert codes.max() < N_TYPES
    cohort = expand_base_codes(codes >> 3)
    from_codes = cohort_arrays(cohort, assignment_from_bits(cohort, codes & 7))

    rng = np.random.default_rng(n)
    cohort = draw_cohort(rng, spec, hazards, n)
    person_level = cohort_arrays(cohort, assign_treatments(rng, cohort, spec))
    for got, expected in zip(from_codes, person_level):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    rng = np.random.default_rng(n)
    severity, decision2, po, spt_arm, a1, init2 = draw_oracle(rng, spec, hazards, n)
    assert np.array_equal(cohort.severity, severity)
    assert np.array_equal(cohort.decision2, decision2)
    assert np.array_equal(cohort.po, po)
    assert np.array_equal(from_codes[4], spt_arm)
    assert np.array_equal(from_codes[5], a1)
    assert np.array_equal(from_codes[6], ~a1 & (cohort.event_time[:, 0] != 1) & decision2 & init2)


def person_level_replicate(spec, hazards, replicate_id, run, pool):
    """run_replicate's stream taken through the cohort, the index sets and
    the person-level battery."""
    rng = replicate_stream(run.master_seed, spec.scenario_id, replicate_id)
    if pool is None:
        cohort = draw_cohort(rng, spec, hazards, run.n_individuals)
    else:
        picks = rng.integers(0, len(pool), size=run.n_individuals)
        cohort = expand_base_codes(pool).take(picks)
    a = assign_treatments(rng, cohort, spec)
    spt, cal, td = build_spt(cohort, a), build_esnt_cal(cohort, a), build_esnt_td(cohort, a)
    return (
        analyze_replicate(cohort, spt, cal, td, spec, run.cal_weight_mode),
        describe_replicate(spt, cal, td, len(cohort)),
    )


def same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12


def assert_same_rows(got, expected):
    """Floats to 1e-12, everything else exactly."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for field in dataclasses.fields(g):
            gv, ev = getattr(g, field.name), getattr(e, field.name)
            if isinstance(ev, float):
                assert same_float(gv, ev), (field.name, g, e)
            else:
                assert type(gv) is type(ev) and gv == ev, (field.name, g, e)


def check_replicate(scenario_id, n, replicate_id, mode, pool=None):
    spec, hazards = SPECS[scenario_id], HAZARDS[scenario_id]
    run = RunConfig(n_individuals=n, master_seed=7, cal_weight_mode=mode)
    result = run_replicate(spec, hazards, replicate_id, run, pool)
    analyses, descriptives = person_level_replicate(spec, hazards, replicate_id, run, pool)
    assert_same_rows(result.analyses, analyses)
    assert_same_rows(result.descriptives, descriptives)
    return {r.degenerate for r in result.analyses}


def test_tiny_cohorts_match_the_person_level_path_and_hit_every_flag():
    pools = {
        sid: draw_superpopulation(SPECS[sid], HAZARDS[sid], RunConfig(superpop=50))
        for sid in SPECS
    }
    flags = set()
    for k in range(320):
        scenario_id = ("S1", "S2", "S3", "S4")[k % 4]
        pool = pools[scenario_id] if (k // 8) % 2 else None
        flags |= check_replicate(scenario_id, 1 + k % 12, 1 + k, MODES[(k // 4) % 2], pool)
    kinds = {part.split(":")[0] for flag in flags if flag for part in flag.split(";")}
    assert kinds == {
        "empty_stratum", "empty_target", "zero_risk_treated", "zero_risk_untreated",
        "undefined_truth",
    }


@pytest.mark.parametrize(
    "scenario_id,replicate_id,mode,superpop",
    [
        ("S4", 1, WEIGHT_MODE_INITIATION, None),
        ("S2", 2, WEIGHT_MODE_PAPER, None),
        ("S3", 3, WEIGHT_MODE_INITIATION, 20_000),
    ],
)
def test_paper_size_replicates_match_the_person_level_path(
    scenario_id, replicate_id, mode, superpop
):
    pool = None
    if superpop is not None:
        pool = draw_superpopulation(
            SPECS[scenario_id], HAZARDS[scenario_id], RunConfig(superpop=superpop)
        )
    assert check_replicate(scenario_id, 5000, replicate_id, mode, pool) == {""}


def test_degenerate_weights_are_raised_only_for_types_present():
    # a high-severity decision point that always initiates: an untreated
    # Visit 1 index with high severity at Visit 2 is censored for certain
    spec = dataclasses.replace(SPECS["S3"], decision_prob=(0.2, 1.0), treat_prob=(0.25, 1.0))
    hazards = HAZARDS["S3"]
    raised = {True: 0, False: 0}
    for replicate_id in range(1, 41):
        run = RunConfig(n_individuals=3, master_seed=1)
        try:
            person_level_replicate(spec, hazards, replicate_id, run, None)
        except DegenerateWeightError:
            expected = True
        else:
            expected = False
        if expected:
            with pytest.raises(DegenerateWeightError):
                run_replicate(spec, hazards, replicate_id, run)
        else:
            run_replicate(spec, hazards, replicate_id, run)
        raised[expected] += 1
    assert raised[True] and raised[False]


def type_probabilities(spec, hazards):
    """Exact probability of each person type: the product of the Bernoulli
    probabilities of its draws."""
    cohort, a = type_cohort()
    sev = cohort.severity.astype(bool)
    init2 = (np.arange(N_TYPES) & 1).astype(bool)

    def bernoulli(outcome, prob):
        return np.where(outcome, prob, 1.0 - prob)

    def by_severity(high, pair):
        return np.where(high, pair[1], pair[0])

    pi = spec.progression_prob
    prob = bernoulli(sev[:, 0], spec.baseline_high_prob)
    for v in (1, 2):
        prob *= np.where(sev[:, v - 1], sev[:, v], bernoulli(sev[:, v], pi))
    prob *= bernoulli(cohort.decision2, by_severity(sev[:, 1], spec.decision_prob))
    p = ((hazards.p00, hazards.p01), (hazards.p10, hazards.p11))
    for v in range(3):
        for arm in (0, 1):
            prob *= bernoulli(cohort.po[:, v, arm], by_severity(sev[:, v], p[arm]))
    prob *= bernoulli(a.spt_arm, spec.spt_treat_prob)
    prob *= bernoulli(a.a1, by_severity(sev[:, 0], spec.treat_prob))
    prob *= bernoulli(init2, by_severity(sev[:, 1], spec.treat_prob))
    return prob


@pytest.mark.parametrize("scenario_id", sorted(SPECS))
def test_type_probabilities_through_the_map_give_the_enumerated_truth(scenario_id):
    spec, hazards = SPECS[scenario_id], HAZARDS[scenario_id]
    prob = type_probabilities(spec, hazards)
    assert abs(prob.sum() - 1.0) <= 1e-12
    types = person_type_map(spec, WEIGHT_MODE_INITIATION)
    results = battery(types.tables(prob), types.true_events(prob), 1)
    truth = enumerate_truth(spec, hazards).marginal
    spt = [r for r in results if r.design == "SPT"]
    assert [r.analysis for r in spt] == ["true_rr", "crude", "ate_spt", "att_spt"]
    for r in spt:
        assert r.degenerate == ""
        assert abs(r.risk_treated - truth.risk_treated) <= 1e-12
        assert abs(r.risk_untreated - truth.risk_untreated) <= 1e-12
