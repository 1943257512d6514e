"""Calibration of discrete per-visit outcome probabilities.

The generative model assigns each (treatment arm, severity) pair a constant
per-visit probability that the composite outcome occurs in the year after a
visit. Four constraints pin those probabilities to the scenario's targeted
two-year cumulative risks:

  high severity, untreated:  p + (1-p)p                            = F_high
  high severity, treated:    p + (1-p)p                            = delta_high * F_high
  low severity,  untreated:  p + (1-pi)(1-p)p + pi(1-p)q_untreated = F_low
  low severity,  treated:    p + (1-pi)(1-p)p + pi(1-p)q_treated   = delta_low * F_low

where pi is the per-visit progression probability and q is the solved
high-severity probability for the same arm (a low-severity individual who
progresses faces the high-severity probability in year two). The treated
constraint scales the untreated two-year risk by the scenario's two-year
risk ratio for that baseline severity.

Each equation is a quadratic in p with exactly one root in [0, 1] when the
system is feasible; the high-severity pair is solved first because the
low-severity equations depend on it. The low-severity equations are
infeasible when pi * q already exceeds the two-year target, since the
left-hand side is strictly increasing in p on [0, 1].

The exact truth (enumerate_truth) follows from the solved probabilities by
summation over the severity paths. The module runs on the standard library,
so the verbs that calibrate or enumerate the truth never load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import ScenarioSpec

#: Residual magnitude below which a solution is accepted. Far below any
#: Monte Carlo noise scale, safely above double-precision rounding.
RESIDUAL_TOL = 1e-10

_RANGE_SLACK = 1e-12

EQUATION_NAMES = (
    "high_untreated",
    "high_treated",
    "low_untreated",
    "low_treated",
)


class SolverInfeasible(ValueError):
    """No per-visit probability in [0, 1] satisfies one of the equations."""

    def __init__(self, equation: str, message: str):
        self.equation = equation
        super().__init__(f"{equation}: {message}")


@dataclass(frozen=True)
class HazardSet:
    """Per-visit outcome probabilities p<arm><severity>.

    The first digit is the treatment arm (0 untreated, 1 treated), the
    second the severity level (0 low, 1 high).
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def for_arm(self, arm: int) -> tuple[float, float]:
        """(low, high) probabilities for one treatment arm."""
        return (self.p00, self.p01) if arm == 0 else (self.p10, self.p11)


@dataclass(frozen=True)
class SolveReport:
    hazards: HazardSet
    residuals: tuple[float, float, float, float]
    feasible: bool

    @property
    def max_abs_residual(self) -> float:
        return max(abs(r) for r in self.residuals)


def two_year_risk_high(p: float) -> float:
    """Two-year cumulative risk starting at high severity with per-visit
    probability p (severity never reverts, so both years use p)."""
    return p + (1.0 - p) * p


def two_year_risk_low(p: float, q: float, pi: float) -> float:
    """Two-year cumulative risk starting at low severity.

    p applies while severity is low, q after progression (probability pi
    per visit) to high severity.
    """
    return p + (1.0 - pi) * (1.0 - p) * p + pi * (1.0 - p) * q


def targets(spec: ScenarioSpec) -> tuple[float, float, float, float]:
    """Two-year risk targets in equation order (high untreated, high
    treated, low untreated, low treated)."""
    f_low, f_high = spec.risk_untreated
    d_low, d_high = spec.delta
    return (f_high, d_high * f_high, f_low, d_low * f_low)


def residuals(h: HazardSet, spec: ScenarioSpec) -> tuple[float, float, float, float]:
    """Left-hand side minus target for each of the four equations."""
    t = targets(spec)
    pi = spec.progression_prob
    return (
        two_year_risk_high(h.p01) - t[0],
        two_year_risk_high(h.p11) - t[1],
        two_year_risk_low(h.p00, h.p01, pi) - t[2],
        two_year_risk_low(h.p10, h.p11, pi) - t[3],
    )


def _check_range(p: float, equation: str, detail: str) -> float:
    if not -_RANGE_SLACK <= p <= 1.0 + _RANGE_SLACK:
        raise SolverInfeasible(equation, f"solved probability {p:.6g} outside [0,1]; {detail}")
    return min(max(p, 0.0), 1.0)


def _solve_high(target: float, equation: str) -> float:
    # p^2 - 2p + F = 0; the root 1 - sqrt(1 - F) is the one in [0, 1].
    if not 0.0 <= target <= 1.0:
        raise SolverInfeasible(
            equation, f"two-year target {target:.6g} outside [0,1]"
        )
    return _check_range(1.0 - math.sqrt(1.0 - target), equation, f"target {target:.6g}")


def _solve_low(target: float, q: float, pi: float, equation: str) -> float:
    # (1-pi) p^2 - (2 - pi - pi q) p + (target - pi q) = 0, smaller root.
    if pi * q > target:
        raise SolverInfeasible(
            equation,
            f"progression floor pi*q = {pi * q:.6g} exceeds two-year target "
            f"{target:.6g}; no nonnegative per-visit probability can match it",
        )
    if target > 1.0:
        raise SolverInfeasible(equation, f"two-year target {target:.6g} exceeds 1")
    a = 1.0 - pi
    b = -(2.0 - pi - pi * q)
    c = target - pi * q
    if a == 0.0:
        # pi = 1: the equation degenerates to p(1 - q) + q = target.
        p = c if q == 1.0 else c / (1.0 - q)
        return _check_range(p, equation, f"target {target:.6g} (pi = 1)")
    # at target 1 and q = 1 the discriminant is exactly 0 and may round below
    disc = b * b - 4.0 * a * c
    big_root_scaled = 0.5 * (-b + math.sqrt(max(disc, 0.0)))
    p = c / big_root_scaled
    return _check_range(p, equation, f"target {target:.6g}")


def solve(spec: ScenarioSpec) -> SolveReport:
    """Solve the four-equation system for the scenario's per-visit
    probabilities.

    Solution order: the two high-severity equations are uncoupled
    quadratics; the low-severity equations then use the matching
    high-severity value through the progression term.

    Raises SolverInfeasible, naming the offending equation and the violated
    bound, when any solved probability falls outside [0, 1].
    """
    t = targets(spec)
    pi = spec.progression_prob
    p01 = _solve_high(t[0], EQUATION_NAMES[0])
    p11 = _solve_high(t[1], EQUATION_NAMES[1])
    p00 = _solve_low(t[2], p01, pi, EQUATION_NAMES[2])
    p10 = _solve_low(t[3], p11, pi, EQUATION_NAMES[3])
    h = HazardSet(p00=p00, p01=p01, p10=p10, p11=p11)
    res = residuals(h, spec)
    return SolveReport(hazards=h, residuals=res, feasible=max(abs(r) for r in res) < RESIDUAL_TOL)


@dataclass(frozen=True)
class TruthEntry:
    """Two-year risks under sustained initiation and under never initiating,
    and their ratio."""

    risk_treated: float
    risk_untreated: float
    rr: float
    log_rr: float


def enumerate_truth(spec: ScenarioSpec, hazards: HazardSet) -> TruthEntry:
    """Exact two-year risks under sustained treatment versus never treating,
    by summation over the discrete severity state space (0 low, 1 high;
    severity never reverts). No sampling.

    Raises SolverInfeasible when the untreated risk is 0, where the risk
    ratio is undefined.
    """
    pi = spec.progression_prob
    p_s1 = (1.0 - spec.baseline_high_prob, spec.baseline_high_prob)
    trans = ((1.0 - pi, pi), (0.0, 1.0))

    risks = []
    for arm in (0, 1):
        p_arm = hazards.for_arm(arm)
        risk = 0.0
        for s1 in (0, 1):
            year2 = sum(trans[s1][s2] * p_arm[s2] for s2 in (0, 1))
            risk += p_s1[s1] * (p_arm[s1] + (1.0 - p_arm[s1]) * year2)
        risks.append(risk)

    risk_untreated, risk_treated = risks
    if risk_untreated == 0.0:
        raise SolverInfeasible(
            f"{spec.scenario_id} truth",
            "untreated two-year risk is 0; the risk ratio is undefined",
        )
    rr = risk_treated / risk_untreated
    return TruthEntry(
        risk_treated=risk_treated,
        risk_untreated=risk_untreated,
        rr=rr,
        log_rr=math.log(rr) if rr > 0.0 else -math.inf,
    )


def truth_tables(
    specs: list[ScenarioSpec], hazards_by_scenario: dict[str, HazardSet]
) -> dict[str, TruthEntry]:
    """The enumerated truth of each scenario."""
    return {
        spec.scenario_id: enumerate_truth(spec, hazards_by_scenario[spec.scenario_id])
        for spec in specs
    }
