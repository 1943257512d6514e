"""Schema-stable CSV emission and ingestion.

Column order and names are fixed contracts. Floats are rendered with six
significant digits, '.' decimal separator, '\\n' line endings; undefined
values are written as 'nan' so every file parses back losslessly.

The module runs on the standard library: the readers return Python lists,
so the verbs that only re-read files never load numpy. Only the block line
writers take the engine's scenario blocks.
"""

from __future__ import annotations

import csv
import math
import operator
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .cells import (
    ANALYSIS_LABELS,
    DESCRIBE_LABELS,
    DESCRIBE_STATISTICS,
    Cells,
    DescribeCells,
    DescriptiveSummaryRow,
    MetricsRow,
)
from .config import SCENARIO_IDS
from .hazards import SolveReport, TruthEntry

if TYPE_CHECKING:
    from .harness import ScenarioBlock

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
#: summary.csv and describe_summary.csv are their row types' fields, which
#: write_csv writes in order
SUMMARY_COLUMNS = MetricsRow._fields
DESCRIBE_SUMMARY_COLUMNS = DescriptiveSummaryRow._fields
#: truth.csv's estimands, each written with the one enumerated entry: in the
#: single point trial treatment is randomized independently of severity, so
#: the severity-standardized estimands equal the marginal contrast.
TRUTH_ESTIMANDS = ("marginal", "std_spt_all", "std_spt_treated")
FIGURE_COLUMNS = ("scenario", "design", "standardization_target", "bias", "mcse")

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
    from .harness import BLOCK_ROWS  # loaded already: it made the block

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


def figure_rows(summary: list[MetricsRow], targets: dict[str, str]) -> list[tuple]:
    return [
        (row.scenario_id, row.design, targets[row.analysis], row.bias, row.mcse_bias)
        for row in summary
        if row.analysis in targets
    ]


class SchemaError(ValueError):
    """A CSV input does not match its declared schema."""


#: The label columns of a summary cell in estimates.csv and summary.csv; the
#: labels of the cells of these files, and of describe.csv, a reader accepts.
_CELL_COLUMNS = ("scenario_id", "design", "analysis", "target_population")
_ESTIMATE_KEYS = frozenset((sid, *label) for sid in SCENARIO_IDS for label in ANALYSIS_LABELS)
_DESCRIBE_KEYS = frozenset((sid, *label) for sid in SCENARIO_IDS for label in DESCRIBE_LABELS)


def _read_columns(
    path: Path, columns: tuple[str, ...], names: tuple[str, ...]
) -> dict[str, tuple[str, ...]]:
    """The fields of the named columns of a CSV file with the given header,
    column by column. Each row is kept only as a tuple of those fields, which
    the garbage collector stops scanning, and its field count is checked as
    it is read. Errors name the file's line: row i of the body is line
    i + 2."""
    pick = operator.itemgetter(*map(columns.index, names))
    width = len(columns)
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
        rows = []
        for row in reader:
            if len(row) != width:
                raise SchemaError(
                    f"{path}:{len(rows) + 2}: {len(row)} fields, expected {width}"
                )
            rows.append(pick(row))
    return dict(zip(names, zip(*rows))) if rows else dict.fromkeys(names, ())


def _numbers(path: Path, columns: dict, name: str, kind=float) -> list:
    """Column name parsed by kind (float or int)."""
    values = columns[name]
    try:
        return list(map(kind, values))
    except ValueError:
        what = "an integer" if kind is int else "a number"
        for line, value in enumerate(values, start=2):
            try:
                kind(value)
            except ValueError:
                raise SchemaError(f"{path}:{line}: {name} {value!r} is not {what}") from None
        raise


def _rows_by_key(
    path: Path, columns: dict, names: tuple[str, ...], known: frozenset
) -> dict[tuple, list[int]]:
    """The rows of each key, the labels in columns names, in file order.
    Every key must be known."""
    rows: dict[tuple, list[int]] = {}
    for row, key in enumerate(zip(*(columns[name] for name in names))):
        rows.setdefault(key, []).append(row)
    for key, key_rows in rows.items():
        if key not in known:
            raise SchemaError(f"{path}:{key_rows[0] + 2}: unknown {'/'.join(names)} {key}")
    return rows


def _replicates(path: Path, columns: dict) -> list[int]:
    """The replicate column, each an integer >= 1."""
    replicates = _numbers(path, columns, "replicate", int)
    if min(replicates, default=1) < 1:
        row = next(row for row, rid in enumerate(replicates) if rid < 1)
        raise SchemaError(f"{path}:{row + 2}: replicate {replicates[row]} is not >= 1")
    return replicates


def _reject_repeats(path: Path, what: str, keys: list[tuple]) -> None:
    """Each row's key must be new; the error names the first line that
    repeats one."""
    if len(set(keys)) == len(keys):
        return
    first: dict[tuple, int] = {}
    for row, key in enumerate(keys):
        if key in first:
            raise SchemaError(f"{path}:{row + 2}: {what} {key} repeats line {first[key] + 2}")
        first[key] = row


def read_estimates(path: Path) -> Cells:
    """summarize's cells of an estimates.csv, in the form
    harness.estimate_cells gives for blocks: per (scenario, design,
    analysis, target) key, the log RR and the flag of each of its rows, in
    file order, as lists."""
    columns = _read_columns(
        path, ESTIMATES_COLUMNS, (*_CELL_COLUMNS, "replicate", "log_rr", "degenerate_flag")
    )
    cells = _rows_by_key(path, columns, _CELL_COLUMNS, _ESTIMATE_KEYS)
    labels = [columns[name] for name in _CELL_COLUMNS]
    _reject_repeats(path, "cell/replicate", list(zip(*labels, _replicates(path, columns))))
    log_rr = _numbers(path, columns, "log_rr")
    flags = columns["degenerate_flag"]
    return {
        key: ([log_rr[row] for row in rows], [flags[row] for row in rows])
        for key, rows in cells.items()
    }


def read_describe(path: Path) -> DescribeCells:
    """summarize_descriptives' cells of a describe.csv: per (scenario,
    design, group, severity) key, a list of each DESCRIBE_STATISTICS
    column's values over its rows, in file order."""
    columns = _read_columns(path, DESCRIBE_COLUMNS, DESCRIBE_COLUMNS)
    names = ("scenario_id", "design", "group", "severity")
    cells = _rows_by_key(path, columns, names, _DESCRIBE_KEYS)
    labels = [columns[name] for name in names]
    _reject_repeats(path, "cell/replicate", list(zip(*labels, _replicates(path, columns))))
    stats = [_numbers(path, columns, name) for name in DESCRIBE_STATISTICS]
    return {
        key: [[values[row] for row in rows] for values in stats]
        for key, rows in cells.items()
    }


def read_summary(path: Path) -> list[MetricsRow]:
    """The rows of a summary.csv, in file order; each cell on one row."""
    columns = _read_columns(path, SUMMARY_COLUMNS, SUMMARY_COLUMNS)
    _rows_by_key(path, columns, _CELL_COLUMNS, _ESTIMATE_KEYS)  # checks the labels
    labels = [columns[name] for name in _CELL_COLUMNS]
    _reject_repeats(path, "cell", list(zip(*labels)))
    numbers = [
        _numbers(path, columns, name, int if name == "n_effective" else float)
        for name in SUMMARY_COLUMNS[len(_CELL_COLUMNS):]
    ]
    return list(map(MetricsRow, *labels, *numbers))
