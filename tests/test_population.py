import itertools
import math

import numpy as np
import pytest

from oracles import event_time_under_pattern
from snt_lab.config import builtin_scenarios
from snt_lab.designs import assign_treatments, build_esnt_cal, build_esnt_td, build_spt
from snt_lab.cells import ANALYSIS_TRUE
from snt_lab.estimators import analyze_replicate
from snt_lab.hazards import SolverInfeasible, enumerate_truth, solve
from snt_lab.output import truth_lines
from snt_lab.population import (
    Cohort,
    NO_EVENT,
    PATTERN_NEVER,
    PATTERN_VISIT1,
    PATTERN_VISIT2,
    draw_cohort,
)


def spec_and_hazards(name="S1", pi=0.6):
    spec = {s.scenario_id: s for s in builtin_scenarios(pi)}[name]
    return spec, solve(spec).hazards


def rng(seed=1234):
    return np.random.default_rng(seed)


def one_person(po, severity=(0, 0, 1), decision2=False):
    return Cohort.from_arrays(
        severity=np.array([severity]), decision2=np.array([decision2]),
        po=np.array([po]),
    )


def walked_times(po):
    """The oracle's event time of each pattern, NO_EVENT for none."""
    times = (event_time_under_pattern(po, pattern) for pattern in range(3))
    return [NO_EVENT if t is None else t for t in times]


def true_rr_row(cohort, spec, seed=0):
    """The true_rr result of analyze_replicate on the cohort, with
    treatments drawn from seed (the truth does not depend on them)."""
    a = assign_treatments(rng(seed), cohort, spec)
    results = analyze_replicate(
        cohort, build_spt(cohort, a), build_esnt_cal(cohort, a), build_esnt_td(cohort, a), spec
    )
    assert results[0].analysis == ANALYSIS_TRUE
    return results[0]


class TestEventTimes:
    def test_severity_increasing_individual(self):
        # severity (low, low, high); arm-0 outcomes at visits 1 and 3,
        # arm-1 outcomes at visits 2 and 3
        po = [[1, 0], [0, 1], [1, 1]]
        assert event_time_under_pattern(po, PATTERN_NEVER) == 1
        assert event_time_under_pattern(po, PATTERN_VISIT2) == 1
        assert event_time_under_pattern(po, PATTERN_VISIT1) == 2
        assert one_person(po).event_time[0].tolist() == [1, 1, 2]

    def test_divergent_arms_individual(self):
        # arm-0 flags (none, visit 2); arm-1 flags (visit 1, none)
        po = [[0, 1], [1, 0], [0, 0]]
        assert event_time_under_pattern(po, PATTERN_NEVER) == 2
        assert event_time_under_pattern(po, PATTERN_VISIT2) is None
        assert event_time_under_pattern(po, PATTERN_VISIT1) == 1

    def test_no_outcomes_anywhere(self):
        po = [[0, 0], [0, 0], [0, 0]]
        for pattern in (PATTERN_NEVER, PATTERN_VISIT2, PATTERN_VISIT1):
            assert event_time_under_pattern(po, pattern) is None
        assert one_person(po).event_time[0].tolist() == [NO_EVENT] * 3

    def test_from_arrays_matches_the_walk_on_every_outcome_grid(self):
        grids = np.array(list(itertools.product((0, 1), repeat=6))).reshape(64, 3, 2)
        cohort = Cohort.from_arrays(
            severity=np.zeros((64, 3)), decision2=np.zeros(64), po=grids
        )
        for po, times in zip(grids.tolist(), cohort.event_time.tolist()):
            assert times == walked_times(po), po

    def test_patterns_share_first_year_under_no_treatment(self):
        spec, h = spec_and_hazards()
        cohort = draw_cohort(rng(), spec, h, 20000)
        t = cohort.event_time
        year1_never = t[:, PATTERN_NEVER] == 1
        assert np.array_equal(year1_never, cohort.po[:, 0, 0])
        assert np.array_equal(year1_never, t[:, PATTERN_VISIT2] == 1)
        year1_treated = t[:, PATTERN_VISIT1] == 1
        assert np.array_equal(year1_treated, cohort.po[:, 0, 1])

    def test_event_times_in_valid_range(self):
        spec, h = spec_and_hazards("S4")
        t = draw_cohort(rng(), spec, h, 20000).event_time
        assert np.isin(t, (1, 2, 3, NO_EVENT)).all()


class TestDrawCohort:
    def test_deterministic_replay(self):
        spec, h = spec_and_hazards()
        a = draw_cohort(rng(99), spec, h, 500)
        b = draw_cohort(rng(99), spec, h, 500)
        assert np.array_equal(a.severity, b.severity)
        assert np.array_equal(a.decision2, b.decision2)
        assert np.array_equal(a.po, b.po)
        assert np.array_equal(a.event_time, b.event_time)

    def test_empty_cohort(self):
        spec, h = spec_and_hazards()
        assert len(draw_cohort(rng(), spec, h, 0)) == 0

    def test_severity_monotone(self):
        spec, h = spec_and_hazards("S3")
        sev = draw_cohort(rng(), spec, h, 50000).severity
        assert (np.diff(sev.astype(int), axis=1) >= 0).all()

    def test_no_progression_when_pi_zero(self):
        spec, h = spec_and_hazards()
        spec = spec._replace(progression_prob=0.0)
        sev = draw_cohort(rng(), spec, h, 20000).severity
        assert (sev[:, 0] == sev[:, 1]).all()
        assert (sev[:, 1] == sev[:, 2]).all()

    def test_decision_probability_one(self):
        spec, h = spec_and_hazards()
        spec = spec._replace(decision_prob=(1.0, 1.0))
        assert draw_cohort(rng(), spec, h, 5000).decision2.all()

    def test_visit2_high_severity_share(self):
        # P(high at Visit 2) = 0.25 + 0.75 * 0.6 = 0.70
        spec, h = spec_and_hazards()
        n = 1_000_000
        share = draw_cohort(rng(7), spec, h, n).severity[:, 1].mean()
        se = math.sqrt(0.7 * 0.3 / n)
        assert abs(share - 0.70) < 3 * se

    def test_single_draw_matches_the_walk(self):
        spec, h = spec_and_hazards("S2")
        cohort = draw_cohort(rng(5), spec, h, 1)
        severity = cohort.severity[0]
        assert severity[0] <= severity[1] <= severity[2]
        assert cohort.event_time[0].tolist() == walked_times(cohort.po[0].tolist())


class TestEnumerateTruth:
    def test_s1_exact(self):
        spec, h = spec_and_hazards("S1")
        t = enumerate_truth(spec, h)
        assert t.risk_treated == pytest.approx(0.1225, abs=1e-12)
        assert t.risk_untreated == pytest.approx(0.1750, abs=1e-12)
        assert t.rr == pytest.approx(0.70, abs=1e-12)

    def test_s2_exact(self):
        spec, h = spec_and_hazards("S2")
        t = enumerate_truth(spec, h)
        # delta-scaled strata: 0.75*0.075 + 0.25*0.225 over 0.175
        assert t.risk_treated == pytest.approx(0.1125, abs=1e-12)
        assert t.rr == pytest.approx(0.6428571428571429, abs=1e-12)
        assert t.log_rr == pytest.approx(math.log(t.rr), abs=1e-15)

    def test_homogeneous_delta_recovers_delta_marginally(self):
        for d in (0.5, 0.7, 1.0):
            spec, _ = spec_and_hazards("S1")
            spec = spec._replace(delta=(d, d))
            t = enumerate_truth(spec, solve(spec).hazards)
            assert t.rr == pytest.approx(d, abs=1e-12)

    def test_estimand_labels_coincide_for_randomized_assignment(self):
        spec, h = spec_and_hazards("S4")
        entry = enumerate_truth(spec, h)
        rows = [line.rstrip("\n").split(",") for line in truth_lines([spec], {"S4": entry})]
        values = (entry.risk_treated, entry.risk_untreated, entry.rr, entry.log_rr)
        assert all(row[3:] == ["%.6g" % v for v in values] for row in rows)
        assert [row[2] for row in rows] == [
            "marginal", "std_spt_all", "std_spt_treated",
        ]

    def test_repeated_calls_bit_identical(self):
        spec, h = spec_and_hazards("S3")
        assert enumerate_truth(spec, h) == enumerate_truth(spec, h)

    def test_cohort_frequencies_converge_to_enumeration(self):
        spec, h = spec_and_hazards("S1")
        n = 1_000_000
        cohort = draw_cohort(rng(11), spec, h, n)
        truth = enumerate_truth(spec, h)
        for pattern, expected in (
            (PATTERN_VISIT1, truth.risk_treated),
            (PATTERN_NEVER, truth.risk_untreated),
        ):
            share = (cohort.event_time[:, pattern] <= 2).mean()
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(share - expected) < 3 * se

    def test_log_rr_matches_numpy_log(self):
        # math.log gives the bits np.log gave for the built-in scenarios and a
        # --pi sweep; the two differ by 1 ulp on about 0.5% of random inputs
        specs = list(builtin_scenarios())
        for pi in np.random.default_rng(14).random(500).tolist():
            specs += builtin_scenarios(pi)
        checked = 0
        for spec in specs:
            try:
                h = solve(spec).hazards
            except SolverInfeasible:
                continue
            entry = enumerate_truth(spec, h)
            assert entry.log_rr == float(np.log(entry.rr)), spec
            checked += 1
        assert checked > 1000

    def test_zero_untreated_risk_is_infeasible(self):
        spec, _ = spec_and_hazards("S1")
        spec = spec._replace(risk_untreated=(0.0, 0.0))
        with pytest.raises(SolverInfeasible, match="untreated two-year risk is 0"):
            enumerate_truth(spec, solve(spec).hazards)

    def test_zero_treated_risk_gives_minus_infinity(self):
        # a subnormal delta rounds the treated targets, and risk, to 0
        spec, _ = spec_and_hazards("S1")
        spec = spec._replace(delta=(5e-324, 5e-324))
        entry = enumerate_truth(spec, solve(spec).hazards)
        assert entry.rr == 0.0
        assert entry.log_rr == -math.inf


class TestCohortTrueRR:
    def test_empty_cohort_is_undefined(self):
        spec, _ = spec_and_hazards()
        empty = Cohort.from_arrays(
            severity=np.empty((0, 3)), decision2=np.empty(0), po=np.empty((0, 3, 2))
        )
        row = true_rr_row(empty, spec)
        assert row.degenerate == "undefined_truth"
        assert math.isnan(row.rr)

    def test_no_events_is_undefined(self):
        spec, _ = spec_and_hazards()
        cohort = Cohort.from_arrays(
            severity=np.zeros((4, 3)), decision2=np.zeros(4),
            po=np.zeros((4, 3, 2)),
        )
        row = true_rr_row(cohort, spec)
        assert row.degenerate == "undefined_truth"
        assert math.isnan(row.rr)

    def test_degenerate_single_person(self):
        # never-initiate event at year 1, no event under sustained initiation
        spec, _ = spec_and_hazards()
        cohort = Cohort.from_arrays(
            severity=np.zeros((1, 3)), decision2=np.zeros(1),
            po=np.array([[[1, 0], [0, 0], [0, 0]]]),
        )
        entry = true_rr_row(cohort, spec)
        assert entry.risk_treated == 0.0
        assert entry.risk_untreated == 1.0
        assert entry.rr == 0.0
        assert math.isnan(entry.log_rr)

    def test_large_cohort_near_enumerated_truth(self):
        spec, h = spec_and_hazards("S1")
        n = 1_000_000
        entry = true_rr_row(draw_cohort(rng(13), spec, h, n), spec)
        # delta-method standard error of the risk ratio
        se_log = math.sqrt(
            (1 - 0.1225) / (0.1225 * n) + (1 - 0.175) / (0.175 * n)
        )
        assert abs(math.log(entry.rr) - math.log(0.70)) < 3 * se_log


class TestSuperpopulationResampling:
    def test_take_preserves_rows(self):
        spec, h = spec_and_hazards()
        pool = draw_cohort(rng(3), spec, h, 100)
        picked = pool.take(np.array([5, 5, 17]))
        assert len(picked) == 3
        for column in ("severity", "decision2", "po", "event_time"):
            rows = getattr(picked, column)
            assert np.array_equal(rows[0], getattr(pool, column)[5]), column
            assert np.array_equal(rows[1], getattr(pool, column)[5]), column
