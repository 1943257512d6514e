"""Censoring weights, weighted product-limit risks, and the analysis battery.

Risks are estimated on the annual grid with a discrete weighted
product-limit estimator. Within each follow-up year t the hazard is the
weight-sum of events over the weight-sum at risk; the two-year risk is one
minus the product of (1 - hazard) over years 1 and 2. Censored indexes leave
the risk set after their censoring year.

Artificial censoring can only strike untreated Visit 1 indexes, at year 1,
and its probability is a known function of severity at the next visit, so
the year 1 weight is always 1 and each index carries one weight, for year
2: the inverse of the probability of remaining uncensored given that
severity. So the year 1 weight sums are the index counts.

Every analysis contrasts a treated and an untreated risk through the risk
ratio; standardized analyses mix (arm x severity) stratum risks with the
target population's severity shares first. Risks and shares are read off
one count table per design, never off the indexes. A block of replicates'
tables come from their counts of each class of person types through
person_class_map: one product of the counts with the map's int8 columns
gives every count the tables need (ClassMap.blocks), and
battery_block computes their batteries from tables with a leading
replicate axis. The person-level views (analyze_replicate and
ipcw_km_risk) tabulate one cohort's index sets as a block of one and read
its single row.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .cells import ANALYSIS_LABELS
from .config import (
    CERTAIN_CENSORING,
    DegenerateWeightError,
    ScenarioSpec,
    WEIGHT_MODE_INITIATION,
    WEIGHT_MODE_PAPER,
)
from .designs import (
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
from .population import Cohort, pattern_events

FLAG_EMPTY_STRATUM = "empty_stratum"
FLAG_EMPTY_TARGET = "empty_target"
FLAG_ZERO_RISK_TREATED = "zero_risk_treated"
FLAG_ZERO_RISK_UNTREATED = "zero_risk_untreated"
FLAG_UNDEFINED_TRUTH = "undefined_truth"


class EmptyRiskSetError(ValueError):
    """No indexes in the requested arm (and stratum) at year 1."""


class AnalysisResult(NamedTuple):
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


def _uncensored_prob(
    indexes: IndexSet,
    decision_prob: tuple[float, float],
    treat_prob: tuple[float, float],
    mode: str,
) -> np.ndarray:
    """Pr(uncensored) of each index under censoring_weights' rule."""
    if mode not in (WEIGHT_MODE_INITIATION, WEIGHT_MODE_PAPER):
        raise ValueError(f"unknown weight mode {mode!r}")
    tp = np.asarray(treat_prob)
    dp = np.asarray(decision_prob)
    hazard = tp if mode == WEIGHT_MODE_PAPER else dp * tp
    p_uncensored = 1.0 - hazard

    at_risk = ~indexes.treated & (indexes.index_visit == 1)
    return np.where(at_risk, p_uncensored[indexes.severity_next], 1.0)


def censoring_weights(
    indexes: IndexSet, spec: ScenarioSpec, mode: str = WEIGHT_MODE_INITIATION
) -> np.ndarray:
    """The (n,) year 2 weight of each index; every year 1 weight is 1.

    Treated indexes and Visit 2 indexes cannot be censored, so their weights
    are 1. For untreated Visit 1 indexes the weight is
    1 / Pr(uncensored | severity at Visit 2), where the censoring hazard is
    Pr(decision point) * Pr(initiate | decision point) under the default
    'initiation' mode and just Pr(initiate) under 'paper_simplified'.
    """
    p = _uncensored_prob(indexes, spec.decision_prob, spec.treat_prob, mode)
    if np.any(p <= 0.0):
        raise DegenerateWeightError(CERTAIN_CENSORING)
    return 1.0 / p


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

    def results(self, r: int) -> list[AnalysisResult]:
        """Row r as AnalysisResults, in ANALYSIS_LABELS order."""
        values = zip(*(column[r].tolist() for column in self))
        return [AnalysisResult(*label, *row) for label, row in zip(ANALYSIS_LABELS, values)]


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
    """Product-limit two-year risks over arrays whose last axis holds the
    per-state weight sums of year 1 (the counts) and of year 2; the
    denominators are left-to-right sums. An empty year 2 risk set leaves the
    curve flat."""
    denom1 = ((year1[..., 0] + year1[..., 1]) + year1[..., 2]) + year1[..., 3]
    denom2 = year2[..., 2] + year2[..., 3]
    surv1 = 1.0 - year1[..., 0] / denom1
    surv2 = surv1 * (1.0 - year2[..., 2] / denom2)
    return 1.0 - np.where(denom1 > 0.0, np.where(denom2 > 0.0, surv2, surv1), 1.0)


def _risks_block(table: CountTable):
    """The arm risks (R, arm) and the (arm x severity) stratum risks
    (R, arm, severity) of each replicate of a block, each with a mask of the
    non-empty ones."""
    # per year, [replicate][initiator-person][arm][severity][state]
    years = (table.counts, table.weight_sums)
    strata = [t[:, 0] + t[:, 1] for t in years]  # [replicate][arm][severity][state]
    # the order in which numpy sums axes (1, 3) of one table
    arms = [((t[:, 0, :, 0] + t[:, 0, :, 1]) + t[:, 1, :, 0]) + t[:, 1, :, 1] for t in years]
    counts = strata[0].sum(axis=3)  # [replicate][arm][severity]
    return _km_block(*arms), counts.sum(axis=2) > 0, _km_block(*strata), counts > 0


def _targets_block(table: CountTable) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """The standardization targets of each replicate of a block: per subset
    (all, then treated indexes), the (R, 2) severity shares, the mask of
    replicates where the subset is empty, and its empty_target flag."""
    by_arm = table.counts.sum(axis=(1, 4))  # [replicate][arm][severity]
    targets = []
    for subset, n_sev in (("all", by_arm[:, 0] + by_arm[:, 1]), ("treated", by_arm[:, 1])):
        total = n_sev[:, 0] + n_sev[:, 1]
        high = n_sev[:, 1] / total
        targets.append((np.stack([1.0 - high, high], axis=1), total == 0,
                        f"{FLAG_EMPTY_TARGET}:{subset}"))
    return targets


def _analyses_block(table: CountTable, targets: list) -> list[tuple[np.ndarray, ...]]:
    """One column tuple of AnalysisResult fields per target, over each
    replicate of a block. A target of None is the crude arm contrast; a
    _targets_block entry standardizes the (arm x severity) stratum risks.
    Empty targets, arms and strata are flagged, never raised."""
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
    """The finite-sample truth of each replicate of a block, as the columns
    of its true_rr result: the shares of its n persons with an event by
    HORIZON_TAU under sustained initiation and under never initiating, and
    their ratio. Undefined when the never-initiate share is zero."""
    undefined = (events_untreated == 0) | (n == 0)
    risks = [
        np.where(undefined, np.nan, events / n) for events in (events_treated, events_untreated)
    ]
    rr = risks[0] / risks[1]
    positive = rr > 0.0
    log_rr = np.full(len(rr), np.nan)
    log_rr[positive] = list(map(math.log, rr[positive].tolist()))
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
    """The full analysis battery, 14 results per replicate, of a block of
    replicates of n persons each.

    tables are the SPT's and the two emulations' (censoring-weighted) count
    tables with a leading replicate axis (ClassMap.blocks); true_events
    counts the persons of each replicate with an event by HORIZON_TAU under
    sustained initiation and under never initiating.

    SPT: the within-cohort true risk ratio, the crude contrast, and
    standardizations to its own all-participant and treated-participant
    severity distributions. Each emulation: the censoring-weighted crude
    contrast, standardizations to its own index populations, and
    standardizations to the single point trial's populations from the same
    cohort. Degenerate cells are flagged, never dropped.

    Integer work is exact, no row depends on another, and each float is
    formed in the order the golden digests pin (see README).
    """
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


def ipcw_km_risk(
    indexes: IndexSet,
    weights: np.ndarray,
    treated: bool,
    severity: int | None = None,
) -> float:
    """Weighted product-limit two-year risk for one arm, optionally within
    one severity-at-index stratum.

    Raises EmptyRiskSetError when the year 1 risk set is empty. An empty
    year 2 risk set leaves the curve flat at its year 1 value.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        arm_risk, arm_ok, stratum_risk, stratum_ok = _risks_block(count_table(indexes, weights))
    arm = int(treated)
    if severity is None:
        risk, ok = arm_risk[0, arm], arm_ok[0, arm]
    else:
        risk, ok = stratum_risk[0, arm, severity], stratum_ok[0, arm, severity]
    if not ok:
        raise EmptyRiskSetError(
            f"no indexes with treated={treated}"
            + ("" if severity is None else f", severity={severity}")
        )
    return risk.item()


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
    tabulated from its indexes, as a block of one."""
    cal_mode, td_mode = _weight_modes(cal_weight_mode)
    tables = (
        count_table(spt),
        count_table(cal, censoring_weights(cal, spec, cal_mode)),
        count_table(td, censoring_weights(td, spec, td_mode)),
    )
    events = [np.array([np.count_nonzero(e)]) for e in pattern_events(cohort)]
    return battery_block(tables, events, len(cohort)).results(0)


class ClassMap(NamedTuple):
    """The fixed map from a replicate's count of each class of person types
    to its three count tables and its true-RR counts, for one scenario and
    calendar-emulation weight mode (person_class_map).

    columns holds one int8 row per class: whether it is blocked (an index
    with Pr(uncensored) <= 0), whether it has an event by HORIZON_TAU under
    sustained initiation and under never initiating (pattern_events), then
    each design's table_map columns in cells.DESIGNS order. The types of a
    class (designs.N_TYPES, numbered by type_class) share that row, so
    columns[type_class] is the map of the types."""

    type_class: np.ndarray  # (N_TYPES,) the class of each person type
    columns: np.ndarray  # (classes, 3 + design columns) int8
    designs: tuple[TableMap, TableMap, TableMap]

    @property
    def blocked(self) -> np.ndarray:
        """bool per class: has an index with Pr(uncensored) <= 0."""
        return self.columns[:, 0] > 0

    def blocks(
        self, counts: np.ndarray
    ) -> tuple[tuple[CountTable, CountTable, CountTable], tuple[np.ndarray, np.ndarray]]:
        """The three count tables and the true-event counts of a block of
        replicates, counts[r, k] persons of class k in replicate r: the
        tables with a leading replicate axis (TableMap.table) and, per
        replicate, the persons with an event by HORIZON_TAU under sustained
        initiation and under never initiating (battery_block's input). All
        of them are column sums of one product with columns; for integer
        counts it is exact and calls no BLAS routine. No person counted may
        be blocked: a blocked class's year 2 weight is a placeholder
        (harness.scenario_block checks)."""
        sums = counts @ self.columns.astype(counts.dtype)
        tables, start = [], 3
        for tmap in self.designs:
            stop = start + 2 + len(tmap.cell)
            tables.append(tmap.table(sums[:, start:stop]))
            start = stop
        return tuple(tables), (sums[:, 1], sums[:, 2])


def person_class_map(spec: ScenarioSpec, cal_weight_mode: str) -> ClassMap:
    """Run the design builders and the censoring-weight rule once over one
    person of each type (designs.type_cohort) and merge the types whose
    rows of the map are identical into one class. The map reads only the
    spec's decision and treatment probabilities, so it is cached per
    process on those and the mode: scenarios that differ in nothing else
    share one map. Its callers only read it."""
    return _class_map(spec.decision_prob, spec.treat_prob, cal_weight_mode)


@functools.lru_cache(maxsize=8)
def _class_map(
    decision_prob: tuple[float, float], treat_prob: tuple[float, float], cal_weight_mode: str
) -> ClassMap:
    cohort, assignment = type_cohort()
    maps = [table_map(build_spt(cohort, assignment))]
    blocked = np.zeros(len(cohort), dtype=bool)
    for build, mode in zip((build_esnt_cal, build_esnt_td), _weight_modes(cal_weight_mode)):
        idx = build(cohort, assignment)
        p = _uncensored_prob(idx, decision_prob, treat_prob, mode)
        certain = p <= 0.0
        blocked[idx.person_id[certain]] = True
        # blocked types are never tabulated
        maps.append(table_map(idx, 1.0 / np.where(certain, np.inf, p)))
    tmaps, columns = zip(*maps)
    flags = np.stack([blocked, *pattern_events(cohort)], axis=1)
    rows = np.hstack([flags, *columns])
    # Classes are numbered in the order of their rows, and so every draw
    # follows that order. Each row is one bytes value, whose order is the
    # row order since no entry is negative; np.unique(axis=0) sorts the rows
    # field by field, about 50 times slower.
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first, type_class = np.unique(keys, return_index=True, return_inverse=True)
    return ClassMap(type_class, rows[first], tmaps)
