import dataclasses
import random

import pytest

from oracles import bisect_root
from snt_lab.config import builtin_scenarios
from snt_lab.hazards import (
    HazardSet,
    RESIDUAL_TOL,
    SolverInfeasible,
    residuals,
    solve,
    targets,
    two_year_risk_high,
    two_year_risk_low,
)

# Expected per-visit probabilities, frozen from an independent bisection
# root-finder on each equation (tests below re-derive them the same way).
S1_PI06 = {
    "p00": 0.0536258859878659,
    "p01": 0.1339745962155614,
    "p10": 0.0375782723142866,
    "p11": 0.0917048937707525,
}
S2_PI06 = {
    "p00": 0.0536258859878659,
    "p01": 0.1339745962155614,
    "p10": 0.0024144155486773,
    "p11": 0.1196591569170495,
}
S1_PI78 = {"p00": 0.0411222330184746, "p10": 0.0293078147983287}


def by_scenario(progression_prob=0.6):
    return {s.scenario_id: s for s in builtin_scenarios(progression_prob)}


def solve_by_bisection(spec):
    t = targets(spec)
    pi = spec.progression_prob
    p01 = bisect_root(lambda p: two_year_risk_high(p) - t[0])
    p11 = bisect_root(lambda p: two_year_risk_high(p) - t[1])
    p00 = bisect_root(lambda p: two_year_risk_low(p, p01, pi) - t[2])
    p10 = bisect_root(lambda p: two_year_risk_low(p, p11, pi) - t[3])
    return {"p00": p00, "p01": p01, "p10": p10, "p11": p11}


@pytest.mark.parametrize("name,expected", [("S1", S1_PI06), ("S2", S2_PI06)])
def test_frozen_solutions_pi06(name, expected):
    h = solve(by_scenario()[name]).hazards
    for field, value in expected.items():
        assert getattr(h, field) == pytest.approx(value, abs=1e-12)


def test_frozen_solutions_s1_pi78():
    h = solve(by_scenario(0.78)["S1"]).hazards
    for field, value in S1_PI78.items():
        assert getattr(h, field) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("pi", [0.6, 0.78])
@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4"])
def test_closed_form_agrees_with_bisection(name, pi):
    spec = by_scenario(pi)[name]
    if name in ("S2", "S4") and pi == 0.78:
        pytest.skip("infeasible combination, covered elsewhere")
    closed = solve(spec).hazards
    for field, value in solve_by_bisection(spec).items():
        assert getattr(closed, field) == pytest.approx(value, abs=1e-12)


def test_round_trip_residuals_below_tolerance():
    for pi in (0.6, 0.78):
        for name, spec in by_scenario(pi).items():
            if name in ("S2", "S4") and pi == 0.78:
                continue
            report = solve(spec)
            assert report.feasible
            assert report.max_abs_residual < RESIDUAL_TOL
            assert all(0.0 <= p <= 1.0 for p in
                       (report.hazards.p00, report.hazards.p01,
                        report.hazards.p10, report.hazards.p11))


def test_residuals_at_zero_hazards_are_negated_targets():
    spec = by_scenario()["S1"]
    res = residuals(HazardSet(0.0, 0.0, 0.0, 0.0), spec)
    assert res == pytest.approx((-0.25, -0.175, -0.15, -0.105), abs=1e-12)


def test_two_year_risk_low_zero_hazard():
    assert two_year_risk_low(0.0, 0.0, 0.5) == 0.0


def test_two_year_risk_low_collapses_to_high_form_when_q_equals_p():
    for p in (0.01, 0.1339745962155614, 0.4, 0.9):
        for pi in (0.0, 0.3, 1.0):
            assert two_year_risk_low(p, p, pi) == pytest.approx(
                two_year_risk_high(p), abs=1e-15
            )


def test_forward_evaluation_reproduces_targets():
    spec = by_scenario()["S1"]
    h = solve(spec).hazards
    assert two_year_risk_low(h.p00, h.p01, 0.6) == pytest.approx(0.15, abs=1e-12)
    assert two_year_risk_low(h.p10, h.p11, 0.6) == pytest.approx(0.105, abs=1e-12)
    assert two_year_risk_high(h.p01) == pytest.approx(0.25, abs=1e-12)
    assert two_year_risk_high(h.p11) == pytest.approx(0.175, abs=1e-12)


def test_null_treatment_effect_gives_identical_arms():
    spec = dataclasses.replace(by_scenario()["S1"], delta=(1.0, 1.0))
    h = solve(spec).hazards
    assert h.p10 == h.p00
    assert h.p11 == h.p01


def test_s2_infeasible_at_pi78():
    spec = by_scenario(0.78)["S2"]
    with pytest.raises(SolverInfeasible) as err:
        solve(spec)
    assert err.value.equation == "low_treated"
    # the violated bound: pi * p11 = 0.0933... > 0.075
    assert "0.0933" in str(err.value)
    assert "0.075" in str(err.value)


def test_s4_infeasible_at_pi78():
    with pytest.raises(SolverInfeasible):
        solve(by_scenario(0.78)["S4"])


def test_feasibility_boundary_for_s2():
    p11 = S2_PI06["p11"]
    pi_max = 0.075 / p11
    spec = dataclasses.replace(by_scenario()["S2"], progression_prob=pi_max - 1e-9)
    h = solve(spec).hazards
    assert 0.0 <= h.p10 < 1e-6
    spec = dataclasses.replace(spec, progression_prob=pi_max + 1e-6)
    with pytest.raises(SolverInfeasible):
        solve(spec)


def test_high_target_above_one_is_infeasible():
    spec = dataclasses.replace(by_scenario()["S1"], delta=(0.7, 4.1))
    with pytest.raises(SolverInfeasible) as err:
        solve(spec)
    assert err.value.equation == "high_treated"


def test_solved_probability_increases_with_target():
    spec = by_scenario()["S1"]
    prev_high, prev_low = -1.0, -1.0
    for f in (0.05, 0.1, 0.2, 0.4, 0.8):
        high = bisect_root(lambda p: two_year_risk_high(p) - f)
        low = bisect_root(lambda p: two_year_risk_low(p, 0.04, 0.3) - f)
        assert high > prev_high and low > prev_low
        prev_high, prev_low = high, low
        if f <= 0.4:  # larger targets break low-equation feasibility at pi=0.6
            spec_f = dataclasses.replace(
                spec, risk_untreated=(min(f, 0.2), f), delta=(0.7, 0.7)
            )
            assert solve(spec_f).hazards.p01 == pytest.approx(high, abs=1e-12)


def test_residual_first_order_in_p01():
    spec = by_scenario()["S1"]
    h = solve(spec).hazards
    bumped = HazardSet(h.p00, h.p01 + 1e-3, h.p10, h.p11)
    expected = 2.0 * (1.0 - h.p01) * 1e-3
    assert residuals(bumped, spec)[0] == pytest.approx(expected, rel=1e-2)


def test_pi_one_degenerate_case():
    spec = dataclasses.replace(by_scenario()["S1"], progression_prob=1.0)
    report = solve(spec)
    assert report.max_abs_residual < RESIDUAL_TOL


def test_certain_risk_with_zero_discriminant_solves():
    # at a low-severity target of 1 and q = 1 the discriminant is exactly 0,
    # and rounding once put it below 0 (math domain error)
    spec = dataclasses.replace(
        by_scenario()["S1"], risk_untreated=(1.0, 1.0),
        delta=(0.5939101306738267, 1.0), progression_prob=0.10474628201641056,
    )
    report = solve(spec)
    assert report.hazards.p00 == 1.0
    assert report.feasible


def test_certain_risk_sweep_raises_only_infeasibility():
    rng = random.Random(20261018)
    base = by_scenario()["S1"]
    for _ in range(20_000):
        spec = dataclasses.replace(
            base, risk_untreated=(1.0, 1.0), delta=(rng.random(), 1.0),
            progression_prob=rng.random(),
        )
        try:
            report = solve(spec)
        except SolverInfeasible:
            continue
        assert report.max_abs_residual < RESIDUAL_TOL, spec
