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
from its person-type counts through person_type_map, and battery_block
computes the batteries of a block of replicates from tables with a leading
replicate axis; analyze_replicate tabulates a person-level cohort's index
sets instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ScenarioSpec, WEIGHT_MODE_INITIATION, WEIGHT_MODE_PAPER
from .designs import (
    DESIGN_CAL,
    DESIGN_SPT,
    DESIGN_TD,
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


#: The (design, analysis, target population) of each result of battery, in
#: order; the columns of an AnalysisBlock.
ANALYSIS_LABELS = (
    (DESIGN_SPT, ANALYSIS_TRUE, TARGET_NONE),
    (DESIGN_SPT, ANALYSIS_CRUDE, TARGET_NONE),
    (DESIGN_SPT, ANALYSIS_ATE_SPT, TARGET_SPT_ALL),
    (DESIGN_SPT, ANALYSIS_ATT_SPT, TARGET_SPT_TREATED),
    *(
        (design, analysis, target)
        for design in (DESIGN_CAL, DESIGN_TD)
        for analysis, target in (
            (ANALYSIS_CRUDE, TARGET_NONE),
            (ANALYSIS_ATE_SNT, TARGET_SNT_ALL),
            (ANALYSIS_ATT_SNT, TARGET_SNT_TREATED),
            (ANALYSIS_ATE_SPT, TARGET_SPT_ALL),
            (ANALYSIS_ATT_SPT, TARGET_SPT_TREATED),
        )
    ),
)


class AnalysisBlock(NamedTuple):
    """The batteries of a block of replicates as columns: row r, column j
    holds the AnalysisResult of replicate r labelled ANALYSIS_LABELS[j]."""

    risk_treated: np.ndarray  # (R, 14)
    risk_untreated: np.ndarray  # (R, 14)
    rr: np.ndarray  # (R, 14)
    log_rr: np.ndarray  # (R, 14)
    n_treated: np.ndarray  # (R, 14) int
    n_untreated: np.ndarray  # (R, 14) int
    degenerate: np.ndarray  # (R, 14) str objects, "" when usable


def _join_flags(flags: list[tuple[np.ndarray, str]], size: int) -> np.ndarray:
    """Per row, the labels of the set masks joined by ';' in list order."""
    out = np.full(size, "", dtype=object)
    for mask, label in flags:
        hit = np.flatnonzero(mask)
        if hit.size:
            before = out[hit]
            out[hit] = np.where(before == "", label, before + (";" + label))
    return out


def _km_block(year1: np.ndarray, year2: np.ndarray) -> np.ndarray:
    """_km over arrays whose last axis holds the per-state weight sums of
    year 1 and of year 2, with the same left-to-right sums."""
    denom1 = ((year1[..., 0] + year1[..., 1]) + year1[..., 2]) + year1[..., 3]
    denom2 = year2[..., 2] + year2[..., 3]
    surv1 = 1.0 - year1[..., 0] / denom1
    surv2 = surv1 * (1.0 - year2[..., 2] / denom2)
    return 1.0 - np.where(denom1 > 0.0, np.where(denom2 > 0.0, surv2, surv1), 1.0)


def _risks_block(table: CountTable):
    """_risks of each replicate of a block: the arm risks (R, arm) and the
    stratum risks (R, arm, severity), each with a mask of the non-empty ones."""
    counts = table.counts.sum(axis=(1, 4))  # [replicate][arm][severity]
    ws = table.weight_sums  # [replicate][year][initiator-person][arm][severity][state]
    strata = ws[:, :, 0] + ws[:, :, 1]  # [replicate][year][arm][severity][state]
    # the order in which numpy sums axes (1, 3) of one table
    arms = ((ws[:, :, 0, :, 0] + ws[:, :, 0, :, 1]) + ws[:, :, 1, :, 0]) + ws[:, :, 1, :, 1]
    return (
        _km_block(arms[:, 0], arms[:, 1]), counts.sum(axis=2) > 0,
        _km_block(strata[:, 0], strata[:, 1]), counts > 0,
    )


def _targets_block(table: CountTable) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """_targets of each replicate of a block: per subset, the (R, 2) severity
    shares, the mask of replicates where the subset is empty, and its flag."""
    by_arm = table.counts.sum(axis=(1, 4))  # [replicate][arm][severity]
    targets = []
    for subset, n_sev in (("all", by_arm[:, 0] + by_arm[:, 1]), ("treated", by_arm[:, 1])):
        total = n_sev[:, 0] + n_sev[:, 1]
        high = n_sev[:, 1] / total
        targets.append((np.stack([1.0 - high, high], axis=1), total == 0,
                        f"{FLAG_EMPTY_TARGET}:{subset}"))
    return targets


def _analyses_block(table: CountTable, targets: list) -> list[tuple[np.ndarray, ...]]:
    """_analyses of each replicate of a block, one column tuple per target:
    None for the crude contrast, else a _targets_block entry."""
    arm_risk, arm_ok, stratum_risk, stratum_ok = _risks_block(table)
    n_untreated, n_treated = np.moveaxis(table.counts.sum(axis=(1, 3, 4)), 1, 0)
    size = len(n_treated)
    columns = []
    for target in targets:
        if target is None:
            risk = np.where(arm_ok, arm_risk, np.nan)
            flags = [(~arm_ok[:, arm], f"{FLAG_EMPTY_STRATUM}:arm{arm}") for arm in (0, 1)]
        else:
            shares, empty, flag = target
            risk = np.zeros((size, 2))
            flags = [(empty, flag)]
            for arm in (0, 1):
                for sev in (0, 1):
                    ok = stratum_ok[:, arm, sev]
                    mixed = risk[:, arm] + shares[:, sev] * stratum_risk[:, arm, sev]
                    risk[:, arm] = np.where(ok, mixed, risk[:, arm])
                    flags.append((~ok & ~empty, f"{FLAG_EMPTY_STRATUM}:arm{arm}/sev{sev}"))
            risk[empty] = np.nan
        risk_untreated, risk_treated = risk[:, 0], risk[:, 1]
        usable = ~np.logical_or.reduce([mask for mask, _ in flags])
        zero_untreated = usable & (risk_untreated == 0.0)
        rr = np.where(usable & ~zero_untreated, risk_treated / risk_untreated, np.nan)
        positive = rr > 0.0
        log_rr = np.full(size, np.nan)
        log_rr[positive] = list(map(math.log, rr[positive].tolist()))
        flags += [
            (zero_untreated, FLAG_ZERO_RISK_UNTREATED),
            (usable & ~zero_untreated & ~positive, FLAG_ZERO_RISK_TREATED),
        ]
        columns.append((risk_treated, risk_untreated, rr, log_rr, n_treated, n_untreated,
                        _join_flags(flags, size)))
    return columns


def _truth_block(events_treated: np.ndarray, events_untreated: np.ndarray, n: int):
    """The true_rr row of each replicate of a block (see battery)."""
    undefined = (events_untreated == 0) | (n == 0)
    risks = [
        np.where(undefined, np.nan, events / n) for events in (events_treated, events_untreated)
    ]
    rr = risks[0] / risks[1]
    positive = rr > 0.0
    log_rr = np.full(len(rr), np.nan)
    log_rr[positive] = np.log(rr[positive])
    flags = _join_flags(
        [(undefined, FLAG_UNDEFINED_TRUTH), (~undefined & ~positive, FLAG_ZERO_RISK_TREATED)],
        len(rr),
    )
    n_col = np.full(len(rr), n)
    return (*risks, rr, log_rr, n_col, n_col, flags)


def battery_block(
    tables: tuple[CountTable, CountTable, CountTable],
    true_events: tuple[np.ndarray, np.ndarray],
    n: int,
) -> AnalysisBlock:
    """battery over a block of replicates: tables with a leading replicate
    axis (PersonTypeMap.blocks). Integer work is exact and each float is
    formed as battery forms it, so every row equals battery's results."""
    with np.errstate(divide="ignore", invalid="ignore"):
        columns = [_truth_block(*true_events, n)]
        spt_table, *emulations = tables
        spt_all, spt_treated = _targets_block(spt_table)
        columns += _analyses_block(spt_table, [None, spt_all, spt_treated])
        for table in emulations:
            own_all, own_treated = _targets_block(table)
            columns += _analyses_block(
                table, [None, own_all, own_treated, spt_all, spt_treated]
            )
    return AnalysisBlock(*(np.stack(column, axis=1) for column in zip(*columns)))


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
    (designs.N_TYPES), or of each class of types (partition), to its three
    count tables and its true-RR counts, for one scenario and
    calendar-emulation weight mode."""

    designs: tuple[TableMap, TableMap, TableMap]
    blocked: np.ndarray  # bool per type or class: an index with Pr(uncensored) <= 0
    events: tuple[np.ndarray, np.ndarray]  # bool per type or class, see pattern_events

    def check(self, counts: np.ndarray) -> None:
        """Raise DegenerateWeightError if any person counted is blocked."""
        if counts[..., self.blocked].any():
            raise DegenerateWeightError(_CERTAIN_CENSORING)

    def tables(self, counts: np.ndarray) -> tuple[CountTable, CountTable, CountTable]:
        self.check(counts)
        return tuple(tmap.table(counts) for tmap in self.designs)

    def true_events(self, counts: np.ndarray) -> tuple[int, int]:
        treated, untreated = self.events
        return counts[treated].sum().item(), counts[untreated].sum().item()

    def blocks(
        self, counts: np.ndarray
    ) -> tuple[tuple[CountTable, CountTable, CountTable], tuple[np.ndarray, np.ndarray]]:
        """tables and true_events of a block of replicates, counts[r, k]
        persons of type (or class) k in replicate r: the tables with a
        leading replicate axis (TableMap.block) and the event counts."""
        self.check(counts)
        treated, untreated = self.events
        return (
            tuple(tmap.block(counts) for tmap in self.designs),
            (counts[:, treated].sum(axis=1), counts[:, untreated].sum(axis=1)),
        )

    def partition(self) -> tuple[np.ndarray, "PersonTypeMap"]:
        """Output-equivalence classes: types whose columns are all identical
        (the same count of indexes in each table group of every design, the
        same indexed, initiator, blocked and event flags). Returns each
        type's class and the map over classes, whose tables of class counts
        equal the tables of the type counts."""
        signature = np.column_stack([
            self.blocked,
            *self.events,
            *(col for tmap in self.designs
              for col in (tmap.indexed, tmap.initiator, tmap.memberships())),
        ]).astype(np.int8)
        order = np.lexsort(signature.T[::-1])
        ordered = signature[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        type_class = np.empty(len(order), dtype=np.intp)
        type_class[order] = np.cumsum(new) - 1
        first = order[new]  # the lowest type of each class stands for it
        return type_class, PersonTypeMap(
            tuple(tmap.merge(type_class, first) for tmap in self.designs),
            self.blocked[first],
            tuple(e[first] for e in self.events),
        )


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


@functools.lru_cache(maxsize=8)
def person_class_map(
    spec: ScenarioSpec, cal_weight_mode: str
) -> tuple[np.ndarray, PersonTypeMap]:
    """The class of each person type and the map over classes
    (PersonTypeMap.partition of person_type_map), cached the same way."""
    return person_type_map(spec, cal_weight_mode).partition()
