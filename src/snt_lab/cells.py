"""The cells of the lab's outputs, on the standard library alone.

Every per-replicate and summary row belongs to a labelled cell: (design,
analysis, target population) for an estimate, (design, group, severity)
for a descriptive row, each within a scenario. This module holds those
labels, the summary row types, and the descriptive summary, which needs no
numpy, so the verbs that only re-read CSV files (describe, plot-data) and
solve never load the engine.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .config import SCENARIO_IDS

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

#: harness.summarize's input: per (scenario, design, analysis, target
#: population) cell, the log RR and the degenerate flag of each of its
#: replicates.
Cells = dict[tuple[str, str, str, str], tuple[Sequence[float], Sequence[str]]]

#: summarize_descriptives' input: per (scenario, design, group, severity)
#: cell, the values of each DESCRIBE_STATISTICS entry, one per replicate.
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
