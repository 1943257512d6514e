"""Individual-level data generation and exact truth enumeration.

Each simulated individual carries three annual visits. At every visit the
generator draws, for both treatment arms, whether the composite outcome
occurs in the following year given severity at that visit. From those
per-visit potential outcomes the three treatment patterns (never initiate,
initiate at Visit 2, initiate at Visit 1) each get a potential event time,
counted in years from Visit 1. An outcome determined at visit t is observed
at year t; nothing is generated past year 3.

Severity is monotone: low may progress to high between visits, high never
reverts. So a person's draws fit in a 9-bit base code (draw_base_codes),
which expand_base_codes unpacks into the cohort's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import ScenarioSpec
from .hazards import HazardSet, two_year_risk_high, two_year_risk_low

LOW, HIGH = 0, 1

#: Treatment patterns as (index, per-visit arms). Initiation at Visit 1 or 2
#: is carried forward, so arms never switch back to 0.
PATTERN_NEVER = 0
PATTERN_VISIT2 = 1
PATTERN_VISIT1 = 2
PATTERN_ARMS = np.array([[0, 0, 0], [0, 1, 1], [1, 1, 1]], dtype=np.intp)
PATTERN_LABELS = ("never", "initiate_visit2", "initiate_visit1")

#: Sentinel for "no event by Visit 4" in event-time arrays (real times are 1..3).
NO_EVENT = 99


class UndefinedRatioError(ZeroDivisionError):
    """Risk ratio with a zero denominator risk."""


@dataclass(frozen=True)
class Individual:
    """One simulated person, unpacked into plain Python values."""

    person_id: int
    severity: tuple[int, int, int]
    decision2: bool
    po: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]  # [visit][arm]
    event_time: tuple[int | None, int | None, int | None]  # per pattern


@dataclass
class Cohort:
    """Column-oriented cohort; rows are individuals.

    severity:   (n, 3) int8, severity at Visits 1-3
    decision2:  (n,) bool, Visit 2 qualifies as a treatment decision point
    po:         (n, 3, 2) bool, outcome determined at [visit] under [arm]
    event_time: (n, 3) int16, years from Visit 1 per pattern, NO_EVENT if none
    """

    severity: np.ndarray
    decision2: np.ndarray
    po: np.ndarray
    event_time: np.ndarray

    def __len__(self) -> int:
        return self.severity.shape[0]

    def individual(self, i: int) -> Individual:
        times = tuple(
            None if t == NO_EVENT else int(t) for t in self.event_time[i]
        )
        return Individual(
            person_id=i,
            severity=tuple(int(s) for s in self.severity[i]),
            decision2=bool(self.decision2[i]),
            po=tuple(tuple(int(v) for v in row) for row in self.po[i]),
            event_time=times,
        )

    def individuals(self) -> Iterator[Individual]:
        return (self.individual(i) for i in range(len(self)))

    def take(self, indices: np.ndarray) -> "Cohort":
        """Row subset/resample (used for with-replacement cohort sampling)."""
        return Cohort(
            severity=self.severity[indices],
            decision2=self.decision2[indices],
            po=self.po[indices],
            event_time=self.event_time[indices],
        )

    @classmethod
    def from_arrays(
        cls, severity: np.ndarray, decision2: np.ndarray, po: np.ndarray
    ) -> "Cohort":
        """Build a cohort from explicit draws, deriving the pattern event
        times; severity must already be monotone."""
        severity = np.asarray(severity, dtype=np.int8)
        po = np.asarray(po, dtype=bool)
        return cls(
            severity=severity,
            decision2=np.asarray(decision2, dtype=bool),
            po=po,
            event_time=_pattern_event_times(po),
        )


@dataclass(frozen=True)
class TruthEntry:
    risk_treated: float
    risk_untreated: float
    rr: float
    log_rr: float


@dataclass(frozen=True)
class TruthTable:
    """Exact two-year risks per estimand label.

    In the single point trial treatment is randomized independently of
    severity, so the severity-standardized estimands coincide with the
    marginal contrast; the three entries are equal by construction.
    """

    marginal: TruthEntry
    std_spt_all: TruthEntry
    std_spt_treated: TruthEntry

    def entries(self) -> list[tuple[str, TruthEntry]]:
        return [
            ("marginal", self.marginal),
            ("std_spt_all", self.std_spt_all),
            ("std_spt_treated", self.std_spt_treated),
        ]


def _pattern_event_times(po: np.ndarray) -> np.ndarray:
    """First event year (from Visit 1) under each treatment pattern."""
    n = po.shape[0]
    out = np.full((n, 3), NO_EVENT, dtype=np.int16)
    for k in range(3):
        arms = PATTERN_ARMS[k]
        hit = po[:, np.arange(3), arms]  # (n, 3) outcome flags along the pattern
        out[:, k] = np.where(
            hit[:, 0], 1, np.where(hit[:, 1], 2, np.where(hit[:, 2], 3, NO_EVENT))
        )
    return out


def event_time_under_pattern(ind: Individual, pattern: int) -> int | None:
    """Walk visits 1..3 applying the pattern's arm at each visit; return the
    first year offset whose potential-outcome flag is set, else None."""
    for visit in range(3):
        if ind.po[visit][PATTERN_ARMS[pattern][visit]]:
            return visit + 1
    return None


#: A person's base type packs the severity path, the decision point and the
#: outcome grid into 9 bits, most significant first: the path's number of
#: high-severity visits (2 bits), decision2, then po[visit][arm] in visit and
#: then arm order (6 bits).
N_BASE_TYPES = 512


def base_severity(base: np.ndarray, visit: int) -> np.ndarray:
    """High severity at 0-based visit of each base code: a monotone path is
    high at visit v once it has more than 2 - v high visits."""
    return base >= (3 - visit) << 7


def draw_base_codes(
    rng: np.random.Generator, spec: ScenarioSpec, hazards: HazardSet, n: int
) -> np.ndarray:
    """Draw the base types of n individuals i.i.d. from the generative law.

    Draw order is fixed (baseline severity, the two progression steps, the
    decision-point indicator, then the per-visit-per-arm outcome grid) so a
    given stream always reproduces the same cohort.
    """
    pi = spec.progression_prob
    s1 = rng.random(n) < spec.baseline_high_prob
    s2 = s1 | (rng.random(n) < pi)
    s3 = s2 | (rng.random(n) < pi)
    dec_low, dec_high = spec.decision_prob
    decision2 = rng.random(n) < np.where(s2, dec_high, dec_low)

    # p[arm] = (low, high) probability the outcome is determined at a visit
    p = ((hazards.p00, hazards.p01), (hazards.p10, hazards.p11))
    u = rng.random((n, 3, 2))
    code = s1.astype(np.uint16)
    code += s2
    code += s3
    code *= 2
    code |= decision2
    for visit, high in enumerate((s1, s2, s3)):
        for arm in (0, 1):
            code *= 2
            code |= u[:, visit, arm] < np.where(high, p[arm][1], p[arm][0])
    return code


def expand_base_codes(base: np.ndarray) -> Cohort:
    """The cohort whose individuals have the given base types."""
    base = np.asarray(base)
    severity = np.stack([base_severity(base, v) for v in range(3)], axis=1)
    bits = (base[:, None] >> np.arange(6, -1, -1)) & 1  # decision2, then po
    return Cohort.from_arrays(
        severity=severity, decision2=bits[:, 0], po=bits[:, 1:].reshape(-1, 3, 2)
    )


def draw_cohort(
    rng: np.random.Generator, spec: ScenarioSpec, hazards: HazardSet, n: int
) -> Cohort:
    """Draw n individuals i.i.d. from the generative law (draw_base_codes)."""
    return expand_base_codes(draw_base_codes(rng, spec, hazards, n))


def draw_individual(
    rng: np.random.Generator, spec: ScenarioSpec, hazards: HazardSet, person_id: int = 0
) -> Individual:
    ind = draw_cohort(rng, spec, hazards, 1).individual(0)
    return Individual(
        person_id=person_id,
        severity=ind.severity,
        decision2=ind.decision2,
        po=ind.po,
        event_time=ind.event_time,
    )


def enumerate_truth(spec: ScenarioSpec, hazards: HazardSet) -> TruthTable:
    """Exact two-year risks under sustained treatment versus never treating,
    by summation over the discrete severity state space. No sampling."""
    pi = spec.progression_prob
    p_s1 = {LOW: 1.0 - spec.baseline_high_prob, HIGH: spec.baseline_high_prob}
    trans = {LOW: {LOW: 1.0 - pi, HIGH: pi}, HIGH: {LOW: 0.0, HIGH: 1.0}}

    risks = []
    for arm in (0, 1):
        p_arm = hazards.for_arm(arm)
        risk = 0.0
        for s1 in (LOW, HIGH):
            year2 = sum(trans[s1][s2] * p_arm[s2] for s2 in (LOW, HIGH))
            risk += p_s1[s1] * (p_arm[s1] + (1.0 - p_arm[s1]) * year2)
        risks.append(risk)

    risk_untreated, risk_treated = risks
    rr = risk_treated / risk_untreated
    entry = TruthEntry(
        risk_treated=risk_treated,
        risk_untreated=risk_untreated,
        rr=rr,
        log_rr=float(np.log(rr)),
    )
    return TruthTable(marginal=entry, std_spt_all=entry, std_spt_treated=entry)


def pattern_events(cohort: Cohort, tau: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Per person: an event by tau under sustained initiation, and under
    never initiating."""
    return (
        cohort.event_time[:, PATTERN_VISIT1] <= tau,
        cohort.event_time[:, PATTERN_NEVER] <= tau,
    )


def true_rr(events_treated: int, events_untreated: int, n: int) -> TruthEntry:
    """Finite-sample truth of n persons, events_treated of whom have an event
    by tau under sustained initiation and events_untreated under never
    initiating: the ratio of the two shares.

    Raises UndefinedRatioError when the never-initiate share is zero.
    """
    if n == 0:
        raise UndefinedRatioError("empty cohort")
    if events_untreated == 0:
        raise UndefinedRatioError("no events under the never-initiate pattern")
    risk_treated = events_treated / n
    risk_untreated = events_untreated / n
    rr = risk_treated / risk_untreated
    log_rr = float(np.log(rr)) if rr > 0 else float("nan")
    return TruthEntry(
        risk_treated=risk_treated, risk_untreated=risk_untreated, rr=rr, log_rr=log_rr
    )


def cohort_true_rr(cohort: Cohort, tau: int = 2) -> TruthEntry:
    """Finite-sample truth within one cohort (true_rr)."""
    treated, untreated = pattern_events(cohort, tau)
    return true_rr(
        int(np.count_nonzero(treated)), int(np.count_nonzero(untreated)), len(cohort)
    )


def check_truth_consistency(spec: ScenarioSpec, hazards: HazardSet) -> tuple[float, float]:
    """The enumerated risks restated through the closed-form two-year risk
    expressions; used as a self-check that enumeration matches calibration."""
    pi = spec.progression_prob
    w_high = spec.baseline_high_prob
    out = []
    for arm in (0, 1):
        p_low, p_high = hazards.for_arm(arm)
        out.append(
            (1.0 - w_high) * two_year_risk_low(p_low, p_high, pi)
            + w_high * two_year_risk_high(p_high)
        )
    return out[0], out[1]
