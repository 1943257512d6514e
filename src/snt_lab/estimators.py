"""Censoring weights, weighted product-limit risks, and the analysis battery.

Risks are estimated on the annual grid with a discrete weighted
product-limit estimator. Within each follow-up year t the hazard is the
weight-sum of events over the weight-sum at risk; the two-year risk is one
minus the product of (1 - hazard) over years 1 and 2. Censored indexes leave
the risk set after their censoring year.

Artificial censoring can only strike untreated Visit 1 indexes, at year 1,
and its probability is a known function of severity at the next visit, so
the year 1 weight is always 1 and the year 2 weight is the inverse of the
probability of remaining uncensored given that severity.

Every analysis contrasts a treated and an untreated risk through the risk
ratio; standardized analyses mix (arm x severity) stratum risks with the
target population's severity shares first. Risks and shares are read off
one count table per design, never off the indexes. A replicate's tables come
from its person-type counts through person_type_map; analyze_replicate
tabulates a person-level cohort's index sets instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioSpec, WEIGHT_MODE_INITIATION, WEIGHT_MODE_PAPER
from .designs import (
    DESIGN_SPT,
    CountTable,
    IndexSet,
    TableMap,
    build_esnt_cal,
    build_esnt_td,
    build_spt,
    count_table,
    table_map,
    type_cohort,
)
from .population import Cohort, UndefinedRatioError, pattern_events, true_rr

ANALYSIS_TRUE = "true_rr"
ANALYSIS_CRUDE = "crude"
ANALYSIS_ATE_SNT = "ate_snt"
ANALYSIS_ATT_SNT = "att_snt"
ANALYSIS_ATE_SPT = "ate_spt"
ANALYSIS_ATT_SPT = "att_spt"
ANALYSES = (
    ANALYSIS_TRUE,
    ANALYSIS_CRUDE,
    ANALYSIS_ATE_SNT,
    ANALYSIS_ATT_SNT,
    ANALYSIS_ATE_SPT,
    ANALYSIS_ATT_SPT,
)

TARGET_NONE = "none"
TARGET_SNT_ALL = "snt_all"
TARGET_SNT_TREATED = "snt_treated"
TARGET_SPT_ALL = "spt_all"
TARGET_SPT_TREATED = "spt_treated"

FLAG_EMPTY_STRATUM = "empty_stratum"
FLAG_EMPTY_TARGET = "empty_target"
FLAG_ZERO_RISK_TREATED = "zero_risk_treated"
FLAG_ZERO_RISK_UNTREATED = "zero_risk_untreated"
FLAG_UNDEFINED_TRUTH = "undefined_truth"


class EmptyRiskSetError(ValueError):
    """No indexes in the requested arm (and stratum) at year 1."""


class DegenerateWeightError(ValueError):
    """A censoring probability of 1 makes the weight infinite."""


@dataclass(frozen=True)
class AnalysisResult:
    """One estimator's risks and risk ratio for one replicate dataset."""

    design: str
    analysis: str
    target_population: str
    risk_treated: float
    risk_untreated: float
    rr: float
    log_rr: float
    n_treated: int
    n_untreated: int
    degenerate: str = ""


_CERTAIN_CENSORING = "certain censoring: Pr(uncensored) = 0 for some severity level"


def _uncensored_prob(indexes: IndexSet, spec: ScenarioSpec, mode: str) -> np.ndarray:
    """Pr(uncensored) of each index under censoring_weights' rule."""
    if mode not in (WEIGHT_MODE_INITIATION, WEIGHT_MODE_PAPER):
        raise ValueError(f"unknown weight mode {mode!r}")
    tp = np.asarray(spec.treat_prob)
    dp = np.asarray(spec.decision_prob)
    hazard = tp if mode == WEIGHT_MODE_PAPER else dp * tp
    p_uncensored = 1.0 - hazard

    at_risk = ~indexes.treated & (indexes.index_visit == 1)
    return np.where(at_risk, p_uncensored[indexes.severity_next], 1.0)


def censoring_weights(
    indexes: IndexSet, spec: ScenarioSpec, mode: str = WEIGHT_MODE_INITIATION
) -> np.ndarray:
    """Per-index weight schedule, shape (n, 2) for follow-up years 1 and 2.

    Treated indexes and Visit 2 indexes cannot be censored, so their weights
    are 1. For untreated Visit 1 indexes the year 2 weight is
    1 / Pr(uncensored | severity at Visit 2), where the censoring hazard is
    Pr(decision point) * Pr(initiate | decision point) under the default
    'initiation' mode and just Pr(initiate) under 'paper_simplified'.
    """
    p = _uncensored_prob(indexes, spec, mode)
    if np.any(p <= 0.0):
        raise DegenerateWeightError(_CERTAIN_CENSORING)
    w = np.ones((len(indexes), 2))
    w[:, 1] = 1.0 / p
    return w


def _km(year_sums: list[list[float]], tau: int = 2) -> float:
    """Product-limit risk from one stratum's per-state weight sums of
    follow-up years 1 and 2. An empty risk set leaves the curve flat."""
    surv = 1.0
    for t in range(min(tau, 2)):
        denom = sum(year_sums[t][2 * t:])
        if denom <= 0.0:
            break
        surv *= 1.0 - year_sums[t][2 * t] / denom
    return 1.0 - surv


def _risks(table: CountTable, tau: int = 2) -> dict[tuple[int, int | None], float | None]:
    """Risk of each arm (severity None) and each (arm x severity) stratum;
    None where the stratum has no indexes."""
    counts = table.counts.sum(axis=(0, 3)).tolist()  # [arm][severity]
    strata = table.weight_sums.sum(axis=1).tolist()  # [year][arm][severity][state]
    arms = table.weight_sums.sum(axis=(1, 3)).tolist()  # [year][arm][state]
    risks: dict[tuple[int, int | None], float | None] = {}
    for arm in (0, 1):
        risks[arm, None] = _km([y[arm] for y in arms], tau) if sum(counts[arm]) else None
        for sev in (0, 1):
            risks[arm, sev] = _km([y[arm][sev] for y in strata], tau) if counts[arm][sev] else None
    return risks


def ipcw_km_risk(
    indexes: IndexSet,
    weights: np.ndarray,
    treated: bool,
    severity: int | None = None,
    tau: int = 2,
) -> float:
    """Weighted product-limit two-year risk for one arm, optionally within
    one severity-at-index stratum.

    Raises EmptyRiskSetError when the year 1 risk set is empty. An empty
    year 2 risk set leaves the curve flat at its year 1 value.
    """
    risk = _risks(count_table(indexes, weights), tau).get((int(treated), severity))
    if risk is None:
        raise EmptyRiskSetError(
            f"no indexes with treated={treated}"
            + ("" if severity is None else f", severity={severity}")
        )
    return risk


def _severity_shares(table: CountTable, subset: str) -> tuple[float, float] | None:
    by_arm = table.counts.sum(axis=(0, 3))  # [arm][severity]
    n_low, n_high = (by_arm[1] if subset == "treated" else by_arm.sum(axis=0)).tolist()
    total = n_low + n_high
    return (1.0 - n_high / total, n_high / total) if total else None


def severity_distribution(indexes: IndexSet, subset: str = "all") -> tuple[float, float]:
    """Empirical (low, high) severity-at-index shares over all or treated
    indexes; the standardization target of the ATE and ATT analyses."""
    if subset not in ("all", "treated"):
        raise ValueError(f"unknown subset {subset!r}")
    shares = _severity_shares(count_table(indexes), subset)
    if shares is None:
        raise EmptyRiskSetError(f"no {subset} indexes to standardize to")
    return shares


def _targets(table: CountTable) -> list[tuple[float, float] | str]:
    """Severity shares of all and of treated indexes; the empty_target flag
    in place of the shares of an empty subset."""
    return [
        _severity_shares(table, subset) or f"{FLAG_EMPTY_TARGET}:{subset}"
        for subset in ("all", "treated")
    ]


def _analyses(
    table: CountTable, specs: list[tuple[str, str, tuple[float, float] | str | None]]
) -> list[AnalysisResult]:
    """One result per (analysis, target population, target) spec. A target of
    None is the crude arm contrast, shares standardize the (arm x severity)
    stratum risks, and a flag string marks an empty target. Empty arms and
    strata are flagged, never raised."""
    risks = _risks(table)
    n_untreated, n_treated = table.counts.sum(axis=(0, 2, 3)).tolist()
    results = []
    for analysis, target_population, target in specs:
        flags: list[str] = []
        arm_risk = [float("nan"), float("nan")]
        if isinstance(target, str):
            flags.append(target)
        elif target is None:
            for arm in (0, 1):
                if risks[arm, None] is None:
                    flags.append(f"{FLAG_EMPTY_STRATUM}:arm{arm}")
                else:
                    arm_risk[arm] = risks[arm, None]
        else:
            for arm in (0, 1):
                arm_risk[arm] = 0.0
                for sev in (0, 1):
                    if risks[arm, sev] is None:
                        flags.append(f"{FLAG_EMPTY_STRATUM}:arm{arm}/sev{sev}")
                    else:
                        arm_risk[arm] += target[sev] * risks[arm, sev]
        risk_treated, risk_untreated = arm_risk[1], arm_risk[0]
        rr = log_rr = float("nan")
        if not flags:
            if risk_untreated == 0.0:
                flags.append(FLAG_ZERO_RISK_UNTREATED)
            else:
                rr = risk_treated / risk_untreated
                if rr > 0.0:
                    log_rr = math.log(rr)
                else:
                    flags.append(FLAG_ZERO_RISK_TREATED)
        results.append(AnalysisResult(
            table.design, analysis, target_population, risk_treated, risk_untreated,
            rr, log_rr, n_treated, n_untreated, ";".join(flags),
        ))
    return results


def standardized_rr(
    indexes: IndexSet,
    weights: np.ndarray,
    target: tuple[float, float],
    analysis: str,
    target_population: str,
) -> AnalysisResult:
    """Directly standardized risk ratio: per-arm stratum risks mixed with
    the target severity distribution. An empty (arm x stratum) cell flags
    the result as degenerate instead of raising."""
    return _analyses(count_table(indexes, weights), [(analysis, target_population, target)])[0]


def crude_rr(indexes: IndexSet, weights: np.ndarray, analysis: str = ANALYSIS_CRUDE,
             target_population: str = TARGET_NONE) -> AnalysisResult:
    """Arm-level weighted risks with no standardization."""
    return _analyses(count_table(indexes, weights), [(analysis, target_population, None)])[0]


def battery(
    tables: tuple[CountTable, CountTable, CountTable],
    true_events: tuple[int, int],
    n: int,
) -> list[AnalysisResult]:
    """The full analysis battery for one replicate: 14 results.

    tables are the SPT's and the two emulations' (censoring-weighted) count
    tables; true_events counts the n persons with an event by tau under
    sustained initiation and under never initiating.

    SPT: the within-cohort true risk ratio, the crude contrast, and
    standardizations to its own all-participant and treated-participant
    severity distributions. Each emulation: the censoring-weighted crude
    contrast, standardizations to its own index populations, and
    standardizations to the single point trial's populations from the same
    cohort. Degenerate cells are flagged, never dropped.
    """
    try:
        truth = true_rr(*true_events, n)
        risks = (truth.risk_treated, truth.risk_untreated, truth.rr, truth.log_rr)
        flag = "" if truth.rr > 0 else FLAG_ZERO_RISK_TREATED
    except UndefinedRatioError:
        risks = (float("nan"),) * 4
        flag = FLAG_UNDEFINED_TRUTH
    results = [AnalysisResult(DESIGN_SPT, ANALYSIS_TRUE, TARGET_NONE, *risks, n, n, flag)]

    spt_table, *emulations = tables
    spt_all, spt_treated = _targets(spt_table)
    results += _analyses(spt_table, [
        (ANALYSIS_CRUDE, TARGET_NONE, None),
        (ANALYSIS_ATE_SPT, TARGET_SPT_ALL, spt_all),
        (ANALYSIS_ATT_SPT, TARGET_SPT_TREATED, spt_treated),
    ])
    for table in emulations:
        own_all, own_treated = _targets(table)
        results += _analyses(table, [
            (ANALYSIS_CRUDE, TARGET_NONE, None),
            (ANALYSIS_ATE_SNT, TARGET_SNT_ALL, own_all),
            (ANALYSIS_ATT_SNT, TARGET_SNT_TREATED, own_treated),
            (ANALYSIS_ATE_SPT, TARGET_SPT_ALL, spt_all),
            (ANALYSIS_ATT_SPT, TARGET_SPT_TREATED, spt_treated),
        ])
    return results


def _weight_modes(cal_weight_mode: str) -> tuple[str, str]:
    """Censoring-weight modes of eSNT-CAL and eSNT-TD; eSNT-TD always uses
    the decision-point product form."""
    return cal_weight_mode, WEIGHT_MODE_INITIATION


def analyze_replicate(
    cohort: Cohort,
    spt: IndexSet,
    cal: IndexSet,
    td: IndexSet,
    spec: ScenarioSpec,
    cal_weight_mode: str = WEIGHT_MODE_INITIATION,
) -> list[AnalysisResult]:
    """The battery of one replicate's cohort and designs, each design
    tabulated from its indexes."""
    cal_mode, td_mode = _weight_modes(cal_weight_mode)
    tables = (
        count_table(spt),
        count_table(cal, censoring_weights(cal, spec, cal_mode)),
        count_table(td, censoring_weights(td, spec, td_mode)),
    )
    events = pattern_events(cohort, spec.horizon_tau)
    return battery(tables, tuple(int(np.count_nonzero(e)) for e in events), len(cohort))


@dataclass(frozen=True)
class PersonTypeMap:
    """The fixed map from a replicate's count of each person type
    (designs.N_TYPES) to its three count tables and its true-RR counts, for
    one scenario and calendar-emulation weight mode."""

    designs: tuple[TableMap, TableMap, TableMap]
    blocked: np.ndarray  # bool per type: an index with Pr(uncensored) <= 0
    events: tuple[np.ndarray, np.ndarray]  # bool per type, see pattern_events

    def tables(self, counts: np.ndarray) -> tuple[CountTable, CountTable, CountTable]:
        if counts[self.blocked].any():
            raise DegenerateWeightError(_CERTAIN_CENSORING)
        return tuple(tmap.table(counts) for tmap in self.designs)

    def true_events(self, counts: np.ndarray) -> tuple[int, int]:
        treated, untreated = self.events
        return counts[treated].sum().item(), counts[untreated].sum().item()


@functools.lru_cache(maxsize=8)
def person_type_map(spec: ScenarioSpec, cal_weight_mode: str) -> PersonTypeMap:
    """Run the design builders and the censoring-weight rule once over one
    person of each type (designs.type_cohort). The map is cached per
    process and shared by its callers, which only read it."""
    cohort, assignment = type_cohort()
    maps = [table_map(build_spt(cohort, assignment))]
    blocked = np.zeros(len(cohort), dtype=bool)
    for build, mode in zip((build_esnt_cal, build_esnt_td), _weight_modes(cal_weight_mode)):
        idx = build(cohort, assignment)
        p = _uncensored_prob(idx, spec, mode)
        certain = p <= 0.0
        blocked[idx.person_id[certain]] = True
        w = np.ones((len(idx), 2))
        w[:, 1] = 1.0 / np.where(certain, np.inf, p)  # blocked types raise before use
        maps.append(table_map(idx, w))
    return PersonTypeMap(tuple(maps), blocked, pattern_events(cohort, spec.horizon_tau))
