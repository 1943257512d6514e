"""The cells of the lab's outputs and their summaries, on the standard
library alone.

Every per-replicate and summary row belongs to a labelled cell: (design,
analysis, target population) for an estimate, (design, group, severity)
for a descriptive row, each within a scenario. This module holds those
labels, the summary row types, the Monte Carlo summary (summarize) and the
descriptive summary (summarize_descriptives). Both summaries reproduce
numpy's arithmetic bit for bit in plain Python (pairwise_sum, percentiles),
so only simulate loads the engine and numpy.

Performance measures per summary cell, on the log risk-ratio scale:

  bias  = mean(estimate) - reference
  ese   = sample standard deviation of the estimates (n-1 denominator)
  rmse  = sqrt(mean((estimate - reference)^2))
  mcse  = ese / sqrt(n_effective)   (Monte Carlo standard error of the bias)

The reference defaults to the exact enumerated single point trial truth
(hazards.enumerate_truth) and can be overridden with a fixed risk-ratio
value.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import reduce
from operator import add
from typing import NamedTuple

from .config import SCENARIO_IDS
from .hazards import TruthEntry

DESIGN_SPT = "SPT"
DESIGN_CAL = "eSNT-CAL"
DESIGN_TD = "eSNT-TD"
DESIGNS = (DESIGN_SPT, DESIGN_CAL, DESIGN_TD)

GROUP_ALL = "all"
GROUP_TREATED = "treated"
GROUP_INITIATOR = "initiator-person"
GROUP_NONINITIATOR = "noninitiator-person"
DESCRIBE_GROUPS = (GROUP_ALL, GROUP_TREATED, GROUP_INITIATOR, GROUP_NONINITIATOR)

SEVERITY_LABELS = ("low", "high")

#: The (design, group, severity) of each descriptive row of a replicate, in
#: column order.
DESCRIBE_LABELS = tuple(
    (design, group, severity)
    for design in DESIGNS
    for group in DESCRIBE_GROUPS
    for severity in SEVERITY_LABELS
)

DESCRIBE_STATISTICS = ("n_people", "n_indexes", "pct_high", "avg_indexes_per_person")

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

#: The (design, analysis, target population) of each result of the battery,
#: in order; the columns of an estimators.AnalysisBlock.
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

#: summarize's input: per (scenario, design, analysis, target
#: population) cell, a float sequence of the log RR of each of its
#: replicates (an array('d') from the engine or a file) and their degenerate
#: flags.
Cells = dict[tuple[str, str, str, str], tuple[Sequence[float], Sequence[str]]]

#: summarize_descriptives' input: per (scenario, design, group, severity)
#: cell, a float sequence of each DESCRIBE_STATISTICS entry, one value per
#: replicate.
DescribeCells = dict[tuple[str, str, str, str], Sequence[Sequence[float]]]


class InsufficientReplicatesError(ValueError):
    """A summary cell has fewer than two usable replicates."""


class MetricsRow(NamedTuple):
    """One summary.csv row, its fields in column order."""

    scenario_id: str
    design: str
    analysis: str
    target_population: str
    rr_summary: float  # exp(mean log rr): geometric-mean summary of the RR
    bias: float
    mcse_bias: float
    ese: float
    rmse: float
    n_effective: int


class DescriptiveSummaryRow(NamedTuple):
    """One describe_summary.csv row, its fields in column order."""

    scenario_id: str
    design: str
    group: str
    severity: str
    statistic: str
    median: float
    q25: float
    q75: float


def label_order(*labels: tuple[str, ...]):
    """The sort key of cell keys: the position of each leading label of a key
    in the matching tuple of labels."""
    return lambda key: tuple(map(tuple.index, labels, key))


def pairwise_sum(values: Sequence[float]) -> float:
    """The sum of the values exactly as numpy.add.reduce computes it over a
    contiguous float64 array: from the identity 0.0, plus numpy's pairwise
    sum, which adds fewer than 8 values in a loop from -0.0, up to 128 in
    eight strided accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    and then the tail, and splits more at n/2 rounded down to a multiple of
    8. reduce(add) keeps each addition rounded; sum() compensates from
    Python 3.12."""
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], start: int, n: int) -> float:
    if n < 8:
        return reduce(add, values[start : start + n], -0.0)
    if n <= 128:
        stop = start + n - n % 8
        r = [reduce(add, values[start + j : stop : 8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[stop : start + n], total)
    half = n // 2
    half -= half % 8
    return _pairwise(values, start, half) + _pairwise(values, start + half, n - half)


def _sum_of_squares(values: Sequence[float], center: float) -> float:
    """The sum of squared deviations from center, as numpy forms it in var
    and in mean((values - center) ** 2)."""
    return pairwise_sum([(v - center) * (v - center) for v in values])


def summarize(
    cells: Cells,
    truth_by_scenario: dict[str, TruthEntry],
    truth_override: float | None = None,
) -> list[MetricsRow]:
    """Aggregate per-replicate estimates into one row per
    (scenario, design, analysis) cell against the truth reference (cells:
    harness.estimate_cells or output.read_estimates). The mean, the SD and
    the RMSE are numpy's mean, std(ddof=1) and sqrt(mean(d ** 2)), bit for
    bit (pairwise_sum).

    Replicates flagged degenerate are excluded cell-wise and reported
    through n_effective. Cells with fewer than two usable replicates raise
    InsufficientReplicatesError.
    """
    rows: list[MetricsRow] = []
    for key in sorted(cells, key=label_order(SCENARIO_IDS, DESIGNS, ANALYSES)):
        log_rr, degenerate = cells[key]
        values = [v for v, flag in zip(log_rr, degenerate) if flag == ""]
        n_eff = len(values)
        if n_eff < 2:
            raise InsufficientReplicatesError(
                f"cell {key} has {n_eff} non-degenerate replicates; need >= 2"
            )
        if truth_override is not None:
            theta_ref = math.log(truth_override)
        else:
            theta_ref = truth_by_scenario[key[0]].log_rr
        mean = pairwise_sum(values) / n_eff
        ese = math.sqrt(_sum_of_squares(values, mean) / (n_eff - 1))
        rmse = math.sqrt(_sum_of_squares(values, theta_ref) / n_eff)
        rows.append(MetricsRow(
            *key, rr_summary=math.exp(mean), bias=mean - theta_ref,
            mcse_bias=ese / math.sqrt(n_eff), ese=ese, rmse=rmse, n_effective=n_eff,
        ))
    return rows


def percentiles(values: Sequence[float], qs: Sequence[float]) -> list[float]:
    """The q-quantiles of the values that are not NaN, by linear
    interpolation, exactly as numpy.nanpercentile(values, 100 * q) computes
    them with its default method: the virtual index (n - 1) q between the
    sorted values a and b is interpolated as numpy's _lerp does, a + (b - a)
    t, or b - (b - a)(1 - t) when t >= 0.5. Every quantile of no values is
    NaN."""
    ordered = sorted(v for v in values if v == v)  # NaN != NaN
    n = len(ordered)
    if n == 0:
        return [float("nan")] * len(qs)
    out = []
    for q in qs:
        virtual = (n - 1) * q
        if virtual >= n - 1:  # numpy takes the last value, at index -1, for both
            a = b = ordered[-1]
            t = virtual + 1.0
        else:
            i = int(virtual)
            a, b, t = ordered[i], ordered[i + 1], virtual - i
        diff = b - a
        out.append(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t)
    return out


def summarize_descriptives(cells: DescribeCells) -> list[DescriptiveSummaryRow]:
    """Median and interquartile range of each descriptive statistic across
    replicates (percentiles; cells: output.read_describe)."""
    order = label_order(SCENARIO_IDS, DESIGNS, DESCRIBE_GROUPS, SEVERITY_LABELS)
    out: list[DescriptiveSummaryRow] = []
    for key in sorted(cells, key=order):
        for stat, values in zip(DESCRIBE_STATISTICS, cells[key]):
            q25, med, q75 = percentiles(values, (0.25, 0.5, 0.75))
            out.append(DescriptiveSummaryRow(*key, stat, med, q25, q75))
    return out
