"""Schema-stable CSV emission and ingestion.

Column order and names are fixed contracts, and each file's line template
sits beside its columns: '%.6g' for floats (six significant digits, 'nan'
when undefined), '%d' for counts and flags, '\\n' line endings, and no
quoting, since no label or flag holds ',', '"' or a line break. A verb that
re-reads a file reads these rounded values: summarize re-aggregates
six-digit log RRs, so it matches simulate's own summary.csv only to about
five digits.

The module runs on the standard library: the readers return per-cell float
sequences (array('d') columns), so the verbs that only re-read files never
load numpy. Only the block line writers take the engine's scenario blocks,
each a run of consecutive replicates, whose lines they make as they are
written.
"""

from __future__ import annotations

import csv
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Container, Iterable, Iterator

from .cells import (
    ANALYSIS_LABELS,
    DESCRIBE_LABELS,
    DESCRIBE_STATISTICS,
    Cells,
    DescribeCells,
    DescriptiveSummaryRow,
    MetricsRow,
)
from .config import SCENARIO_IDS, ScenarioSpec
from .hazards import SolveReport, TruthEntry

if TYPE_CHECKING:
    from .harness import ScenarioBlock

HAZARDS_COLUMNS = (
    "scenario_id", "pi", "p00", "p01", "p10", "p11", "max_abs_residual", "feasible",
)
HAZARDS_LINE = "%s,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%d\n"
TRUTH_COLUMNS = (
    "scenario_id", "pi", "estimand", "risk_treated", "risk_untreated",
    "rr_true", "log_rr_true",
)
TRUTH_LINE = "%s,%.6g,%s,%.6g,%.6g,%.6g,%.6g\n"
ESTIMATES_COLUMNS = (
    "scenario_id", "replicate", "design", "analysis", "target_population",
    "risk_treated", "risk_untreated", "rr", "log_rr",
    "n_indexes_treated", "n_indexes_untreated", "degenerate_flag",
)
ESTIMATES_LINE = "%s%s%.6g,%.6g,%.6g,%.6g,%d,%d,%s\n"
DESCRIBE_COLUMNS = (
    "scenario_id", "replicate", "design", "group", "severity",
    "n_people", "n_indexes", "pct_high", "avg_indexes_per_person",
)
DESCRIBE_LINE = "%s%s%d,%d,%.6g,%.6g\n"
#: summary.csv and describe_summary.csv are their row types' fields, in order
SUMMARY_COLUMNS = MetricsRow._fields
SUMMARY_LINE = "%s,%s,%s,%s,%.6g,%.6g,%.6g,%.6g,%.6g,%d\n"
DESCRIBE_SUMMARY_COLUMNS = DescriptiveSummaryRow._fields
DESCRIBE_SUMMARY_LINE = "%s,%s,%s,%s,%s,%.6g,%.6g,%.6g\n"
FIGURE_COLUMNS = ("scenario", "design", "standardization_target", "bias", "mcse")
FIGURE_LINE = "%s,%s,%s,%.6g,%.6g\n"
#: truth.csv's estimands, each written with the one enumerated entry: in the
#: single point trial treatment is randomized independently of severity, so
#: the severity-standardized estimands equal the marginal contrast.
TRUTH_ESTIMANDS = ("marginal", "std_spt_all", "std_spt_treated")

#: summary analyses feeding each figure file, mapped to the standardization
#: target labels used in the plots
FIGURE_ATE_TARGETS = {"crude": "crude", "ate_snt": "snt", "ate_spt": "spt"}
FIGURE_ATT_TARGETS = {"crude": "crude", "att_snt": "snt", "att_spt": "spt"}


def write_csv(path: Path, header: tuple[str, ...], lines: Iterable[str]) -> None:
    """Write the comma-joined header, then a line maker's finished lines."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _block_lines(
    block: ScenarioBlock, labels: tuple[tuple[str, ...], ...], template: str, columns
) -> Iterator[str]:
    """The CSV lines of a scenario block, made as they are written:
    template's two leading '%s' take the 'scenario,replicate,' head and the
    column's 'label,' tail, each joined once, and the rest that row's value
    of each (replicates, labels) column."""
    tails = [",".join(label) + "," for label in labels]
    heads = [f"{block.scenario_id},{r}," for r in block.replicates.tolist()]
    yield from map(template.__mod__, zip(
        [head for head in heads for _ in tails],
        tails * len(heads),
        *(column.ravel().tolist() for column in columns),
    ))


def estimate_lines(block: ScenarioBlock) -> Iterator[str]:
    """The estimates.csv lines of one scenario block."""
    a = block.analyses
    return _block_lines(
        block, ANALYSIS_LABELS, ESTIMATES_LINE,
        (a.risk_treated, a.risk_untreated, a.rr, a.log_rr, a.n_treated, a.n_untreated,
         a.degenerate),
    )


def describe_lines(block: ScenarioBlock) -> Iterator[str]:
    """The describe.csv lines of one scenario block."""
    d = block.descriptives
    return _block_lines(
        block, DESCRIBE_LABELS, DESCRIBE_LINE,
        (d.n_people, d.n_indexes, d.pct_high, d.avg_indexes_per_person),
    )


def hazards_lines(specs: list[ScenarioSpec], reports: dict[str, SolveReport]) -> list[str]:
    """The hazards.csv lines: each scenario's pi and its calibration."""
    return [
        HAZARDS_LINE % (spec.scenario_id, spec.progression_prob, *report.hazards,
                        report.max_abs_residual, report.feasible)
        for spec in specs
        for report in [reports[spec.scenario_id]]
    ]


def truth_lines(specs: list[ScenarioSpec], truths: dict[str, TruthEntry]) -> list[str]:
    """The truth.csv lines: each scenario's pi and truth, once per estimand."""
    return [
        TRUTH_LINE % (spec.scenario_id, spec.progression_prob, label, *truths[spec.scenario_id])
        for spec in specs
        for label in TRUTH_ESTIMANDS
    ]


def summary_lines(summary: list[MetricsRow]) -> list[str]:
    return [SUMMARY_LINE % row for row in summary]


def describe_summary_lines(rows: list[DescriptiveSummaryRow]) -> list[str]:
    return [DESCRIBE_SUMMARY_LINE % row for row in rows]


def figure_lines(summary: list[MetricsRow], targets: dict[str, str]) -> list[str]:
    """The figure lines of the summary's cells whose analysis is in targets."""
    return [
        FIGURE_LINE % (row.scenario_id, row.design, targets[row.analysis], row.bias,
                       row.mcse_bias)
        for row in summary
        if row.analysis in targets
    ]


class SchemaError(ValueError):
    """A CSV input does not match its declared schema."""


#: The cells of estimates.csv and summary.csv, and of describe.csv, that a
#: reader accepts.
_ESTIMATE_KEYS = frozenset((sid, *label) for sid in SCENARIO_IDS for label in ANALYSIS_LABELS)
_DESCRIBE_KEYS = frozenset((sid, *label) for sid in SCENARIO_IDS for label in DESCRIBE_LABELS)


def _rows(path: Path, columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """The body rows of a CSV file with the given header, each with its
    line, as it is read: row i of the body is line i + 2. Each row's field
    count is checked."""
    width = len(columns)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        if tuple(header) != columns:
            raise SchemaError(f"{path}: header {tuple(header)} does not match expected {columns}")
        for line, row in enumerate(reader, start=2):
            if len(row) != width:
                raise SchemaError(f"{path}:{line}: {len(row)} fields, expected {width}")
            yield line, row


def _unparsed(path: Path, line: int, names: Iterable[str], fields: Iterable[str]) -> SchemaError:
    """The error naming the first of the named fields that does not parse:
    n_effective as an integer, the others as numbers."""
    for name, value in zip(names, fields):
        kind, what = (int, "an integer") if name == "n_effective" else (float, "a number")
        try:
            kind(value)
        except ValueError:
            return SchemaError(f"{path}:{line}: {name} {value!r} is not {what}")


def _replicate_cells(
    path: Path, columns: tuple[str, ...], keys: frozenset, scenarios: Container[str],
    numbers: tuple[str, ...], texts: tuple[str, ...] = (),
) -> dict[tuple, tuple]:
    """The cells of a file whose columns are scenario_id, replicate, three
    labels and values: per (scenario_id, *labels) key of the given
    scenarios, the values over its rows, in file order, of each numbers
    column as an array('d'), then of each texts column as a list. Each row
    is checked as it is read, so an error names the first defect in line
    order: its field count; its key, against keys; then, unless the row is
    of another scenario and skipped, its replicate, an integer >= 1 that
    its cell has not had before; and its numbers."""
    cell_name = "/".join((columns[0], *columns[2:5]))
    number_at = tuple(map(columns.index, numbers))
    text_at = tuple(map(columns.index, texts))
    cells = {}  # key: (the line of each replicate, its numbers and its texts, row after row)
    for line, row in _rows(path, columns):
        key = (row[0], row[2], row[3], row[4])
        cell = cells.get(key)
        if cell is None:
            if key not in keys:
                raise SchemaError(f"{path}:{line}: unknown {cell_name} {key}")
            if key[0] not in scenarios:
                continue
            cell = cells[key] = ({}, array("d"), [])
        lines, values, strings = cell
        try:
            rid = int(row[1])
        except ValueError:
            raise SchemaError(f"{path}:{line}: replicate {row[1]!r} is not an integer") from None
        if rid < 1:
            raise SchemaError(f"{path}:{line}: replicate {rid} is not >= 1")
        first = lines.setdefault(rid, line)
        if first != line:
            raise SchemaError(f"{path}:{line}: cell/replicate {(*key, rid)} repeats line {first}")
        try:
            for i in number_at:
                values.append(float(row[i]))
        except ValueError:
            raise _unparsed(path, line, numbers, [row[i] for i in number_at]) from None
        for i in text_at:
            strings.append(row[i])
    k, m = len(number_at), len(text_at)
    for key, (_, values, strings) in cells.items():  # split each cell's rows into columns
        cells[key] = (*(values[j::k] for j in range(k)), *(strings[j::m] for j in range(m)))
    return cells


def read_estimates(path: Path, scenarios: Container[str] = SCENARIO_IDS) -> Cells:
    """summarize's cells of an estimates.csv, in the form harness.estimate_cells
    gives for blocks: per (scenario, design, analysis, target) key of the given
    scenarios, the log RR and the flag of each of its rows, in file order."""
    return _replicate_cells(
        path, ESTIMATES_COLUMNS, _ESTIMATE_KEYS, scenarios, ("log_rr",), ("degenerate_flag",)
    )


def read_describe(path: Path, scenarios: Container[str] = SCENARIO_IDS) -> DescribeCells:
    """summarize_descriptives' cells of a describe.csv: per (scenario,
    design, group, severity) key of the given scenarios, the values of each
    DESCRIBE_STATISTICS column over its rows, in file order."""
    return _replicate_cells(path, DESCRIBE_COLUMNS, _DESCRIBE_KEYS, scenarios, DESCRIBE_STATISTICS)


def read_summary(path: Path, scenarios: Container[str] = SCENARIO_IDS) -> list[MetricsRow]:
    """The rows of a summary.csv of the given scenarios, in file order, each
    cell on one row; other rows have only their field count and cell checked."""
    rows = []
    lines = {}
    for line, fields in _rows(path, SUMMARY_COLUMNS):
        key = tuple(fields[:4])
        if key not in _ESTIMATE_KEYS:
            raise SchemaError(f"{path}:{line}: unknown {'/'.join(SUMMARY_COLUMNS[:4])} {key}")
        if key[0] not in scenarios:
            continue
        first = lines.setdefault(key, line)
        if first != line:
            raise SchemaError(f"{path}:{line}: cell {key} repeats line {first}")
        try:
            rows.append(MetricsRow(*key, *map(float, fields[4:9]), int(fields[9])))
        except ValueError:
            raise _unparsed(path, line, SUMMARY_COLUMNS[4:], fields[4:]) from None
    return rows
