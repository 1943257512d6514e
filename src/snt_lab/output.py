"""Schema-stable CSV emission and ingestion.

Column order and names are fixed contracts. Floats are rendered with six
significant digits, '.' decimal separator, '\\n' line endings; undefined
values are written as 'nan' so every file parses back losslessly.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Iterator

from .designs import DESCRIBE_LABELS, DescribeRow
from .estimators import ANALYSIS_LABELS, AnalysisResult
from .harness import BLOCK_ROWS, DescriptiveSummaryRow, MetricsRow, ScenarioBlock
from .hazards import SolveReport
from .population import TruthEntry

HAZARDS_COLUMNS = (
    "scenario_id", "pi", "p00", "p01", "p10", "p11", "max_abs_residual", "feasible",
)
TRUTH_COLUMNS = (
    "scenario_id", "pi", "estimand", "risk_treated", "risk_untreated",
    "rr_true", "log_rr_true",
)
ESTIMATES_COLUMNS = (
    "scenario_id", "replicate", "design", "analysis", "target_population",
    "risk_treated", "risk_untreated", "rr", "log_rr",
    "n_indexes_treated", "n_indexes_untreated", "degenerate_flag",
)
DESCRIBE_COLUMNS = (
    "scenario_id", "replicate", "design", "group", "severity",
    "n_people", "n_indexes", "pct_high", "avg_indexes_per_person",
)
SUMMARY_COLUMNS = (
    "scenario_id", "design", "analysis", "target_population",
    "rr_summary", "bias", "mcse_bias", "ese", "rmse", "n_effective",
)
#: truth.csv's estimands, each written with the one enumerated entry: in the
#: single point trial treatment is randomized independently of severity, so
#: the severity-standardized estimands equal the marginal contrast.
TRUTH_ESTIMANDS = ("marginal", "std_spt_all", "std_spt_treated")
FIGURE_COLUMNS = ("scenario", "design", "standardization_target", "bias", "mcse")
DESCRIBE_SUMMARY_COLUMNS = (
    "scenario_id", "design", "group", "severity", "statistic", "median", "q25", "q75",
)

#: summary analyses feeding each figure file, mapped to the standardization
#: target labels used in the plots
FIGURE_ATE_TARGETS = {"crude": "crude", "ate_snt": "snt", "ate_spt": "spt"}
FIGURE_ATT_TARGETS = {"crude": "crude", "att_snt": "snt", "att_spt": "spt"}


def fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".6g")
    return str(value)


def write_csv(path: Path, header: tuple[str, ...], rows: Iterable[tuple | str]) -> None:
    """Write the header, then each row: a tuple of values formatted by fmt,
    or a line already formatted the same way (estimate_lines,
    describe_lines)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                writer.writerow([fmt(v) for v in row])


def _block_lines(
    block: ScenarioBlock, labels: tuple[tuple[str, ...], ...], template: str, columns
) -> Iterator[str]:
    """The CSV lines of a scenario block, made as they are written,
    BLOCK_ROWS replicates at a time: the scenario, the replicate and the
    column's label, then that row's value of each (R, labels) column through
    template. '%.6g' and '%d' format exactly as fmt does, and no field needs
    csv quoting: labels and flags hold no ',', '"' or line break."""
    tails = [",".join(label) + "," for label in labels]
    line = template.__mod__
    for start in range(0, len(block.replicates), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        heads = [f"{block.scenario_id},{r}," for r in block.replicates[rows].tolist()]
        yield from map(line, zip(
            [head for head in heads for _ in tails],
            tails * len(heads),
            *(column[rows].ravel().tolist() for column in columns),
        ))


def estimate_lines(block: ScenarioBlock) -> Iterator[str]:
    """The estimates.csv lines of one scenario block."""
    a = block.analyses
    return _block_lines(
        block, ANALYSIS_LABELS, "%s%s%.6g,%.6g,%.6g,%.6g,%d,%d,%s\n",
        (a.risk_treated, a.risk_untreated, a.rr, a.log_rr, a.n_treated, a.n_untreated,
         a.degenerate),
    )


def describe_lines(block: ScenarioBlock) -> Iterator[str]:
    """The describe.csv lines of one scenario block."""
    d = block.descriptives
    return _block_lines(
        block, DESCRIBE_LABELS, "%s%s%d,%d,%.6g,%.6g\n",
        (d.n_people, d.n_indexes, d.pct_high, d.avg_indexes_per_person),
    )


def hazards_rows(reports: dict[str, tuple[float, SolveReport]]) -> list[tuple]:
    return [
        (sid, pi, r.hazards.p00, r.hazards.p01, r.hazards.p10, r.hazards.p11,
         r.max_abs_residual, r.feasible)
        for sid, (pi, r) in reports.items()
    ]


def truth_rows(truths: dict[str, tuple[float, TruthEntry]]) -> list[tuple]:
    return [
        (sid, pi, label, entry.risk_treated, entry.risk_untreated, entry.rr, entry.log_rr)
        for sid, (pi, entry) in truths.items()
        for label in TRUTH_ESTIMANDS
    ]


def summary_row(row: MetricsRow) -> tuple:
    return (
        row.scenario_id, row.design, row.analysis, row.target_population,
        row.rr_summary, row.bias, row.mcse_bias, row.ese, row.rmse, row.n_effective,
    )


def describe_summary_row(row: DescriptiveSummaryRow) -> tuple:
    return (
        row.scenario_id, row.design, row.group, row.severity, row.statistic,
        row.median, row.q25, row.q75,
    )


def figure_rows(summary: list[MetricsRow], targets: dict[str, str]) -> list[tuple]:
    return [
        (row.scenario_id, row.design, targets[row.analysis], row.bias, row.mcse_bias)
        for row in summary
        if row.analysis in targets
    ]


class SchemaError(ValueError):
    """A CSV input does not match its declared schema."""


def _read_rows(path: Path, columns: tuple[str, ...]) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if header != columns:
            raise SchemaError(
                f"{path}: header {header} does not match expected {columns}"
            )
        return [dict(zip(columns, row)) for row in reader]


def read_estimates(path: Path) -> list[tuple[str, int, AnalysisResult]]:
    records = []
    for row in _read_rows(path, ESTIMATES_COLUMNS):
        records.append(
            (
                row["scenario_id"],
                int(row["replicate"]),
                AnalysisResult(
                    design=row["design"],
                    analysis=row["analysis"],
                    target_population=row["target_population"],
                    risk_treated=float(row["risk_treated"]),
                    risk_untreated=float(row["risk_untreated"]),
                    rr=float(row["rr"]),
                    log_rr=float(row["log_rr"]),
                    n_treated=int(row["n_indexes_treated"]),
                    n_untreated=int(row["n_indexes_untreated"]),
                    degenerate=row["degenerate_flag"],
                ),
            )
        )
    return records


def read_describe(path: Path) -> list[tuple[str, int, DescribeRow]]:
    out = []
    for row in _read_rows(path, DESCRIBE_COLUMNS):
        out.append(
            (
                row["scenario_id"],
                int(row["replicate"]),
                DescribeRow(
                    design=row["design"],
                    group=row["group"],
                    severity=row["severity"],
                    n_people=int(row["n_people"]),
                    n_indexes=int(row["n_indexes"]),
                    pct_high=float(row["pct_high"]),
                    avg_indexes_per_person=float(row["avg_indexes_per_person"]),
                ),
            )
        )
    return out


def read_summary(path: Path) -> list[MetricsRow]:
    return [
        MetricsRow(
            scenario_id=row["scenario_id"],
            design=row["design"],
            analysis=row["analysis"],
            target_population=row["target_population"],
            rr_summary=float(row["rr_summary"]),
            bias=float(row["bias"]),
            mcse_bias=float(row["mcse_bias"]),
            ese=float(row["ese"]),
            rmse=float(row["rmse"]),
            n_effective=int(row["n_effective"]),
        )
        for row in _read_rows(path, SUMMARY_COLUMNS)
    ]
