"""Cohort generation: the base-type law, its draw and the cohort arrays.

Each simulated person carries three annual visits. At every visit the
generator draws, for both treatment arms, whether the composite outcome
occurs in the following year given severity at that visit. From those
per-visit potential outcomes the three treatment patterns (never initiate,
initiate at Visit 2, initiate at Visit 1) each get a potential event time,
counted in years from Visit 1. An outcome determined at visit t is observed
at year t; nothing is generated past year 3.

Severity is monotone: low may progress to high between visits, high never
reverts. So a person's draws fit in a 9-bit base type, whose exact
probability base_type_probabilities gives. draw_base_codes draws a cohort's
base codes person by person, and expand_base_codes unpacks them into the
cohort's arrays. The cohort is column-oriented; there is no per-person
object. The exact truth these draws converge to is enumerated in hazards,
on the standard library.
"""

from __future__ import annotations

import numpy as np

from .config import HORIZON_TAU, N_VISITS, ScenarioSpec
from .hazards import HazardSet

#: The severity code of high severity; low severity is 0.
HIGH = 1

#: Treatment patterns as (index, per-visit arms). Initiation at Visit 1 or 2
#: is carried forward, so arms never switch back to 0.
PATTERN_NEVER = 0
PATTERN_VISIT2 = 1
PATTERN_VISIT1 = 2
PATTERN_ARMS = np.array([[0, 0, 0], [0, 1, 1], [1, 1, 1]], dtype=np.intp)

#: Sentinel for "no event by Visit 4" in event-time arrays (real times are 1..3).
NO_EVENT = 99


class Cohort:
    """Column-oriented cohort; rows are individuals, and len() counts them.

    severity:   (n, 3) int8, severity at Visits 1-3
    decision2:  (n,) bool, Visit 2 qualifies as a treatment decision point
    po:         (n, 3, 2) bool, outcome determined at [visit] under [arm]
    event_time: (n, 3) int16, years from Visit 1 per pattern, NO_EVENT if none
    """

    __slots__ = ("severity", "decision2", "po", "event_time")

    def __init__(
        self, severity: np.ndarray, decision2: np.ndarray, po: np.ndarray,
        event_time: np.ndarray,
    ):
        self.severity = severity
        self.decision2 = decision2
        self.po = po
        self.event_time = event_time

    def __len__(self) -> int:
        return self.severity.shape[0]

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


def _pattern_event_times(po: np.ndarray) -> np.ndarray:
    """First event year (from Visit 1) under each treatment pattern."""
    n = po.shape[0]
    out = np.full((n, 3), NO_EVENT, dtype=np.int16)
    for k in range(3):
        arms = PATTERN_ARMS[k]
        hit = po[:, np.arange(N_VISITS), arms]  # (n, 3) outcome flags along the pattern
        out[:, k] = np.where(
            hit[:, 0], 1, np.where(hit[:, 1], 2, np.where(hit[:, 2], 3, NO_EVENT))
        )
    return out


#: A person's base type packs the severity path, the decision point and the
#: outcome grid into 9 bits, most significant first: the path's number of
#: high-severity visits (2 bits), decision2, then po[visit][arm] in visit and
#: then arm order (6 bits).
N_BASE_TYPES = 512


def base_severity(base: np.ndarray, visit: int) -> np.ndarray:
    """High severity at 0-based visit of each base code: a monotone path is
    high at visit v once it has more than 2 - v high visits."""
    return base >= (3 - visit) << 7


def _bernoulli(outcome: np.ndarray, prob) -> np.ndarray:
    """Probability of each outcome of a Bernoulli(prob) draw."""
    return np.where(outcome, prob, 1.0 - prob)


def _by_severity(high: np.ndarray, pair: tuple[float, float]) -> np.ndarray:
    """The low- or high-severity entry of pair for each person."""
    return np.where(high, pair[1], pair[0])


def base_type_probabilities(spec: ScenarioSpec, hazards: HazardSet) -> np.ndarray:
    """Exact probability of each of the N_BASE_TYPES base types under the
    generative law (draw_base_codes): the product of the probabilities of
    its baseline severity, progression steps, decision point and outcome
    grid."""
    base = np.arange(N_BASE_TYPES)
    high = [base_severity(base, v) for v in range(N_VISITS)]
    prob = _bernoulli(high[0], spec.baseline_high_prob)
    for before, after in zip(high, high[1:]):  # high severity never reverts
        prob *= np.where(before, 1.0, _bernoulli(after, spec.progression_prob))
    prob *= _bernoulli((base >> 6) & 1, _by_severity(high[1], spec.decision_prob))
    po = ((base[:, None] >> np.arange(5, -1, -1)) & 1).reshape(-1, N_VISITS, 2)
    for visit in range(N_VISITS):
        for arm in (0, 1):
            prob *= _bernoulli(po[:, visit, arm], _by_severity(high[visit], hazards.for_arm(arm)))
    return prob


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
    decision2 = rng.random(n) < _by_severity(s2, spec.decision_prob)

    code = s1.astype(np.uint16)
    code += s2
    code += s3
    code *= 2
    code |= decision2
    u = rng.random((n, 3, 2))
    for visit, high in enumerate((s1, s2, s3)):
        for arm in (0, 1):
            code *= 2
            code |= u[:, visit, arm] < _by_severity(high, hazards.for_arm(arm))
    return code


def expand_base_codes(base: np.ndarray) -> Cohort:
    """The cohort whose individuals have the given base types."""
    base = np.asarray(base)
    severity = np.stack([base_severity(base, v) for v in range(N_VISITS)], axis=1)
    bits = (base[:, None] >> np.arange(6, -1, -1)) & 1  # decision2, then po
    return Cohort.from_arrays(
        severity=severity, decision2=bits[:, 0], po=bits[:, 1:].reshape(-1, 3, 2)
    )


def draw_cohort(
    rng: np.random.Generator, spec: ScenarioSpec, hazards: HazardSet, n: int
) -> Cohort:
    """Draw n individuals i.i.d. from the generative law (draw_base_codes)."""
    return expand_base_codes(draw_base_codes(rng, spec, hazards, n))


def pattern_events(cohort: Cohort) -> tuple[np.ndarray, np.ndarray]:
    """Per person: an event by HORIZON_TAU under sustained initiation, and
    under never initiating."""
    return (
        cohort.event_time[:, PATTERN_VISIT1] <= HORIZON_TAU,
        cohort.event_time[:, PATTERN_NEVER] <= HORIZON_TAU,
    )
