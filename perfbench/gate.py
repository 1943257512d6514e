"""Correctness gate for one benchmark run's output directory.

The gate checks the files a `snt-lab` verb leaves behind against the
documented CSV contracts, independently of the program's own constants:
the exact file set, each header, the row counts implied by the command,
the summary's `n_effective` bookkeeping and, at the paper's cohort size,
that every SPT-targeted cell lands within 4 Monte Carlo standard errors of
the enumerated truth. A failed check raises `GateError` naming the check.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from pathlib import Path

HEADERS = {
    "hazards.csv": (
        "scenario_id", "pi", "p00", "p01", "p10", "p11", "max_abs_residual", "feasible",
    ),
    "truth.csv": (
        "scenario_id", "pi", "estimand", "risk_treated", "risk_untreated",
        "rr_true", "log_rr_true",
    ),
    "estimates.csv": (
        "scenario_id", "replicate", "design", "analysis", "target_population",
        "risk_treated", "risk_untreated", "rr", "log_rr",
        "n_indexes_treated", "n_indexes_untreated", "degenerate_flag",
    ),
    "describe.csv": (
        "scenario_id", "replicate", "design", "group", "severity",
        "n_people", "n_indexes", "pct_high", "avg_indexes_per_person",
    ),
    "summary.csv": (
        "scenario_id", "design", "analysis", "target_population",
        "rr_summary", "bias", "mcse_bias", "ese", "rmse", "n_effective",
    ),
    "figure3.csv": ("scenario", "design", "standardization_target", "bias", "mcse"),
    "figureS3.csv": ("scenario", "design", "standardization_target", "bias", "mcse"),
    "describe_summary.csv": (
        "scenario_id", "design", "group", "severity", "statistic", "median", "q25", "q75",
    ),
}

#: What `simulate` writes with fewer than two replicates, with two or more,
#: and what the directory holds after `summarize`, `describe` and `plot-data`.
SETUP_FILES = frozenset({"hazards.csv", "truth.csv", "estimates.csv", "describe.csv"})
SIMULATE_FILES = SETUP_FILES | {"summary.csv", "figure3.csv", "figureS3.csv"}
REAGGREGATE_FILES = SIMULATE_FILES | {"describe_summary.csv"}

ANALYSES_PER_REPLICATE = 14
DESCRIBE_ROWS_PER_REPLICATE = 24  # 3 designs x 4 groups x 2 severities
TRUTH_ROWS_PER_SCENARIO = 3
SPT_TARGETS = ("spt_all", "spt_treated")
MAX_TRUTH_MCSE = 4.0
#: summary.csv is computed from full-precision estimates, the gate from the
#: six-significant-digit CSV; their means may differ by rounding only.
SUMMARY_TOLERANCE = 1e-5


class GateError(AssertionError):
    """An output check failed; `check` names which one."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


def _fail(check: str, detail: str):
    raise GateError(check, detail)


def require_empty(out_dir: Path) -> None:
    """Every run writes into a fresh directory, so no stale file can stand
    in for one the run failed to write."""
    if out_dir.exists() and any(out_dir.iterdir()):
        _fail("fresh_out", f"{out_dir} is not empty before the run")


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = HEADERS[path.name]
    if not rows or tuple(rows[0]) != header:
        _fail("header", f"{path.name} header {rows[0] if rows else None} is not {header}")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            _fail("row_shape", f"{path.name} line {line} has {len(row)} fields, "
                               f"expected {len(header)}")
    return rows[1:]


def _count(name: str, rows: list, expected: int) -> None:
    if len(rows) != expected:
        _fail("row_count", f"{name} has {len(rows)} rows, expected {expected}")


def check_outputs(
    out_dir: Path, files: frozenset[str], scenarios: int, reps: int, truth_check: bool
) -> None:
    """Check one output directory; `files` is the exact expected file set."""
    present = {p.name for p in out_dir.iterdir()}
    if present != files:
        _fail("file_set", f"missing {sorted(files - present)}, "
                          f"unexpected {sorted(present - files)}")
    tables = {name: _rows(out_dir / name) for name in sorted(files)}

    _count("hazards.csv", tables["hazards.csv"], scenarios)
    _count("truth.csv", tables["truth.csv"], scenarios * TRUTH_ROWS_PER_SCENARIO)
    estimates = tables["estimates.csv"]
    _count("estimates.csv", estimates, scenarios * reps * ANALYSES_PER_REPLICATE)
    _count("describe.csv", tables["describe.csv"],
           scenarios * reps * DESCRIBE_ROWS_PER_REPLICATE)
    if "summary.csv" not in tables:
        return

    summary = tables["summary.csv"]
    _count("summary.csv", summary, scenarios * ANALYSES_PER_REPLICATE)
    kept: dict[tuple, list[float]] = defaultdict(list)
    flagged: dict[tuple, int] = defaultdict(int)
    for row in estimates:
        cell = tuple(row[i] for i in (0, 2, 3, 4))
        if row[11]:
            flagged[cell] += 1
        else:
            kept[cell].append(float(row[8]))
    truth = {row[0]: float(row[6]) for row in tables["truth.csv"] if row[2] == "marginal"}

    cells = []
    for row in summary:
        cell = tuple(row[:4])
        n_effective = int(row[9])
        if n_effective + flagged[cell] != reps:
            _fail("n_effective", f"{cell}: n_effective {n_effective} + flagged "
                                 f"{flagged[cell]} != reps {reps}")
        values = kept[cell]
        mean = math.fsum(values) / len(values)
        cells.append((cell, float(row[5]), values, mean, mean - truth[cell[0]]))

    for cell, _, values, mean, bias in cells:
        if truth_check and cell[3] in SPT_TARGETS:
            sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
            mcse = sd / math.sqrt(len(values))
            if abs(bias) > MAX_TRUTH_MCSE * mcse:
                _fail("spt_truth", f"{cell}: bias {bias:.4g} exceeds "
                                   f"{MAX_TRUTH_MCSE:g} MCSE ({mcse:.4g})")
    for cell, reported, _, _, bias in cells:
        if abs(bias - reported) > SUMMARY_TOLERANCE:
            _fail("summary_bias", f"{cell}: summary bias {reported:.6g}, "
                                  f"estimates give {bias:.6g}")


def digest(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in an output directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def require_identical(check: str, expected: dict[str, str], got: dict[str, str]) -> None:
    """Two runs that must agree byte for byte, file by file."""
    if expected != got:
        differ = sorted(k for k in expected.keys() | got.keys()
                        if expected.get(k) != got.get(k))
        _fail(check, f"files differ: {differ}")
