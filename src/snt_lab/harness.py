"""Deterministic replicate loops and Monte Carlo performance summaries.

Every replicate owns a random substream derived from (master seed, scenario
ordinal, replicate index) through numpy's SeedSequence entropy mixing, with
PCG64 (period 2^128, documented cross-platform output) as the generator. A
replicate is therefore reproducible in isolation and results never depend on
worker count or scheduling: replicates are merged by index after the fact.

Performance measures per summary cell, on the log risk-ratio scale:

  bias  = mean(estimate) - reference
  ese   = sample standard deviation of the estimates (n-1 denominator)
  rmse  = sqrt(mean((estimate - reference)^2))
  mcse  = ese / sqrt(n_effective)   (Monte Carlo standard error of the bias)

The reference defaults to the exact enumerated single point trial truth and
can be overridden with a fixed risk-ratio value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, ScenarioSpec, SCENARIO_IDS
from .designs import (
    DESIGNS,
    DescribeRow,
    DESCRIBE_GROUPS,
    N_TYPES,
    SEVERITY_LABELS,
    describe_tables,
    person_type_codes,
)
from .estimators import ANALYSES, AnalysisResult, battery, person_type_map
from .hazards import HazardSet, solve
from .population import TruthTable, draw_base_codes, enumerate_truth

# run_replicate no longer takes the person-level path. Its entry points stay
# importable from this module, where perfbench/trace.py wraps them.
from .designs import (
    assign_treatments,
    build_esnt_cal,
    build_esnt_td,
    build_spt,
    describe_replicate,
)
from .estimators import analyze_replicate
from .population import draw_cohort

#: Substream namespace for the optional finite superpopulation pool; real
#: replicates are numbered from 1.
_POOL_STREAM_ID = 0

DESCRIBE_STATISTICS = ("n_people", "n_indexes", "pct_high", "avg_indexes_per_person")


class InsufficientReplicatesError(ValueError):
    """A summary cell has fewer than two usable replicates."""


@dataclass(frozen=True)
class EstimateRecord:
    """One analysis result tagged with its scenario and replicate."""

    scenario_id: str
    replicate: int
    result: AnalysisResult


@dataclass
class ReplicateResult:
    scenario_id: str
    replicate: int
    analyses: list[AnalysisResult]
    descriptives: list[DescribeRow]


@dataclass(frozen=True)
class MetricsRow:
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


@dataclass(frozen=True)
class DescriptiveSummaryRow:
    scenario_id: str
    design: str
    group: str
    severity: str
    statistic: str
    median: float
    q25: float
    q75: float


def scenario_ordinal(scenario_id: str) -> int:
    return SCENARIO_IDS.index(scenario_id) + 1


def replicate_stream(
    master_seed: int, scenario_id: str, replicate_id: int
) -> np.random.Generator:
    """The dedicated random stream of one (scenario, replicate) cell."""
    seq = np.random.SeedSequence(
        [master_seed, scenario_ordinal(scenario_id), replicate_id]
    )
    return np.random.Generator(np.random.PCG64(seq))


def draw_superpopulation(
    spec: ScenarioSpec, hazards: HazardSet, run: RunConfig
) -> np.ndarray:
    """Draw the base codes of the finite pool for with-replacement cohort
    sampling."""
    rng = replicate_stream(run.master_seed, spec.scenario_id, _POOL_STREAM_ID)
    return draw_base_codes(rng, spec, hazards, run.superpop)


def run_replicate(
    spec: ScenarioSpec,
    hazards: HazardSet,
    replicate_id: int,
    run: RunConfig,
    pool: np.ndarray | None = None,
) -> ReplicateResult:
    """Execute one replicate: draw (or resample from the pool) the base
    codes, draw the treatment bits, count the person types, and read the
    three designs' tables, the analyses and the descriptive rows off the
    counts."""
    rng = replicate_stream(run.master_seed, spec.scenario_id, replicate_id)
    n = run.n_individuals
    if pool is None:
        base = draw_base_codes(rng, spec, hazards, n)
    else:
        base = pool[rng.integers(0, len(pool), size=n)]
    counts = np.bincount(person_type_codes(rng, base, spec), minlength=N_TYPES)
    types = person_type_map(spec, run.cal_weight_mode)
    tables = types.tables(counts)
    return ReplicateResult(
        scenario_id=spec.scenario_id,
        replicate=replicate_id,
        analyses=battery(tables, types.true_events(counts), n),
        descriptives=describe_tables(tables, n),
    )


def _run_chunk(args) -> list[ReplicateResult]:
    spec, hazards, run, replicate_ids, pool = args
    out = []
    for rid in replicate_ids:
        try:
            out.append(run_replicate(spec, hazards, rid, run, pool))
        except Exception as exc:
            raise RuntimeError(
                f"replicate {rid} of {spec.scenario_id} failed: {exc}"
            ) from exc
    return out


def run_scenario(
    spec: ScenarioSpec, run: RunConfig, hazards: HazardSet | None = None
) -> list[ReplicateResult]:
    """Run all replicates of one scenario, optionally across worker
    processes. Output is ordered by replicate index regardless of
    scheduling; a failing replicate aborts the run and is named."""
    if hazards is None:
        hazards = solve(spec).hazards
    pool = None
    if run.superpop is not None:
        pool = draw_superpopulation(spec, hazards, run)

    replicate_ids = list(range(1, run.n_replicates + 1))
    if not replicate_ids:
        return []

    if run.parallelism <= 1 or len(replicate_ids) == 1:
        return _run_chunk((spec, hazards, run, replicate_ids, pool))

    workers = min(run.parallelism, len(replicate_ids))
    chunk_size = max(1, math.ceil(len(replicate_ids) / (workers * 4)))
    chunks = [
        (spec, hazards, run, replicate_ids[i : i + chunk_size], pool)
        for i in range(0, len(replicate_ids), chunk_size)
    ]
    from concurrent.futures import ProcessPoolExecutor  # serial runs skip loading it

    results: list[ReplicateResult] = []
    with ProcessPoolExecutor(max_workers=workers) as executor:
        for part in executor.map(_run_chunk, chunks):
            results.extend(part)
    results.sort(key=lambda r: r.replicate)
    return results


def estimate_records(results: list[ReplicateResult]) -> list[EstimateRecord]:
    return [
        EstimateRecord(scenario_id=r.scenario_id, replicate=r.replicate, result=a)
        for r in results
        for a in r.analyses
    ]


def summarize(
    records: list[EstimateRecord],
    truth_by_scenario: dict[str, TruthTable],
    truth_override: float | None = None,
) -> list[MetricsRow]:
    """Aggregate per-replicate estimates into one row per
    (scenario, design, analysis) cell against the truth reference.

    Replicates flagged degenerate are excluded cell-wise and reported
    through n_effective. Cells with fewer than two usable replicates raise
    InsufficientReplicatesError.
    """
    cells: dict[tuple[str, str, str, str], list[float]] = {}
    seen_order: dict[tuple[str, str, str, str], None] = {}
    for rec in records:
        key = (
            rec.scenario_id,
            rec.result.design,
            rec.result.analysis,
            rec.result.target_population,
        )
        seen_order.setdefault(key, None)
        if rec.result.degenerate == "":
            cells.setdefault(key, []).append(rec.result.log_rr)

    def sort_key(key):
        sid, design, analysis, _ = key
        return (SCENARIO_IDS.index(sid), DESIGNS.index(design), ANALYSES.index(analysis))

    rows: list[MetricsRow] = []
    for key in sorted(seen_order, key=sort_key):
        sid, design, analysis, target = key
        values = np.asarray(cells.get(key, ()), dtype=float)
        n_eff = values.size
        if n_eff < 2:
            raise InsufficientReplicatesError(
                f"cell {key} has {n_eff} non-degenerate replicates; need >= 2"
            )
        if truth_override is not None:
            theta_ref = math.log(truth_override)
        else:
            theta_ref = truth_by_scenario[sid].marginal.log_rr
        mean = float(values.mean())
        ese = float(values.std(ddof=1))
        bias = mean - theta_ref
        rmse = float(np.sqrt(np.mean((values - theta_ref) ** 2)))
        rows.append(
            MetricsRow(
                scenario_id=sid,
                design=design,
                analysis=analysis,
                target_population=target,
                rr_summary=math.exp(mean),
                bias=bias,
                mcse_bias=ese / math.sqrt(n_eff),
                ese=ese,
                rmse=rmse,
                n_effective=n_eff,
            )
        )
    return rows


def summarize_descriptives(
    rows: list[tuple[str, int, DescribeRow]]
) -> list[DescriptiveSummaryRow]:
    """Median and interquartile range of each descriptive statistic across
    replicates (percentiles by linear interpolation)."""
    cells: dict[tuple[str, str, str, str], dict[str, list[float]]] = {}
    for sid, _replicate, row in rows:
        key = (sid, row.design, row.group, row.severity)
        stats = cells.setdefault(key, {s: [] for s in DESCRIBE_STATISTICS})
        stats["n_people"].append(row.n_people)
        stats["n_indexes"].append(row.n_indexes)
        stats["pct_high"].append(row.pct_high)
        stats["avg_indexes_per_person"].append(row.avg_indexes_per_person)

    def sort_key(key):
        sid, design, group, severity = key
        return (
            SCENARIO_IDS.index(sid),
            DESIGNS.index(design),
            DESCRIBE_GROUPS.index(group),
            SEVERITY_LABELS.index(severity),
        )

    out: list[DescriptiveSummaryRow] = []
    for key in sorted(cells, key=sort_key):
        sid, design, group, severity = key
        for stat in DESCRIBE_STATISTICS:
            values = np.asarray(cells[key][stat], dtype=float)
            if np.isnan(values).all():
                q25 = med = q75 = float("nan")
            else:
                q25, med, q75 = np.nanpercentile(values, [25, 50, 75])
            out.append(
                DescriptiveSummaryRow(
                    scenario_id=sid,
                    design=design,
                    group=group,
                    severity=severity,
                    statistic=stat,
                    median=float(med),
                    q25=float(q25),
                    q75=float(q75),
                )
            )
    return out


def truth_tables(
    specs: list[ScenarioSpec], hazards_by_scenario: dict[str, HazardSet]
) -> dict[str, TruthTable]:
    return {
        spec.scenario_id: enumerate_truth(spec, hazards_by_scenario[spec.scenario_id])
        for spec in specs
    }
