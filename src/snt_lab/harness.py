"""Deterministic replicate loops and Monte Carlo performance summaries.

Every replicate owns a random substream derived from (master seed, scenario
ordinal, replicate index) through numpy's SeedSequence entropy mixing, with
PCG64 (period 2^128, documented cross-platform output) as the generator. A
replicate is therefore reproducible in isolation and results never depend on
worker count or scheduling: the class law is computed once per scenario, a
replicate only draws its cohort's count of each class of person types from
it, in one multinomial call, the counts are merged by index, and one block
computation per scenario checks the merged counts for blocked classes and
reads every analysis and descriptive row off them.

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
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import RunConfig, ScenarioSpec, SCENARIO_IDS
from .designs import (
    DESIGNS,
    DescribeBlock,
    DESCRIBE_GROUPS,
    DESCRIBE_LABELS,
    SEVERITY_LABELS,
    describe_block,
    treatment_probabilities,
)
from .estimators import (
    ANALYSES,
    ANALYSIS_LABELS,
    CERTAIN_CENSORING,
    AnalysisBlock,
    battery_block,
    person_class_map,
)
from .hazards import HazardSet, solve
from .population import TruthEntry, base_type_probabilities, enumerate_truth

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

#: Replicates whose tables are computed, or whose lines are formatted, at
#: once; bounds the temporaries of a paper-scale scenario to a few MB.
BLOCK_ROWS = 1024

DESCRIBE_STATISTICS = ("n_people", "n_indexes", "pct_high", "avg_indexes_per_person")


class InsufficientReplicatesError(ValueError):
    """A summary cell has fewer than two usable replicates."""


@dataclass(frozen=True)
class ScenarioBlock:
    """Every replicate of one scenario as columns: row r of the analyses and
    of the descriptive rows belongs to replicate replicates[r]."""

    scenario_id: str
    replicates: np.ndarray
    analyses: AnalysisBlock
    descriptives: DescribeBlock


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
    """Draw the finite pool for with-replacement cohort sampling: how many
    of its run.superpop people have each base type
    (population.N_BASE_TYPES)."""
    rng = replicate_stream(run.master_seed, spec.scenario_id, _POOL_STREAM_ID)
    return rng.multinomial(run.superpop, base_type_probabilities(spec, hazards))


def class_probabilities(
    spec: ScenarioSpec,
    hazards: HazardSet,
    cal_weight_mode: str,
    pool: np.ndarray | None = None,
) -> np.ndarray:
    """The probability that a person of a cohort falls in each class of
    person types (estimators.person_class_map): the base-type law, or the
    pool's base-type frequencies, times the treatment law, summed per class.
    Sampling from a pool with replacement gives i.i.d. people whose type law
    is exactly that product."""
    base_p = base_type_probabilities(spec, hazards) if pool is None else pool / pool.sum()
    type_class, _ = person_class_map(spec, cal_weight_mode)
    p_class = np.bincount(
        type_class, weights=(base_p[:, None] * treatment_probabilities(spec)).ravel()
    )
    return p_class / p_class.sum()


def run_replicate(
    p_class: np.ndarray, run: RunConfig, scenario_id: str, replicate_id: int
) -> np.ndarray:
    """Draw one replicate as its count of people in each class of person
    types: one multinomial draw of the cohort over the class probabilities
    (class_probabilities) from the replicate's own stream."""
    rng = replicate_stream(run.master_seed, scenario_id, replicate_id)
    return rng.multinomial(run.n_individuals, p_class)


def _run_chunk(args) -> np.ndarray:
    """The class counts of a run of replicates, one row each."""
    p_class, run, scenario_id, replicate_ids = args
    out = np.empty((len(replicate_ids), len(p_class)), dtype=np.int64)
    for row, rid in enumerate(replicate_ids):
        out[row] = run_replicate(p_class, run, scenario_id, rid)
    return out


def scenario_block(
    spec: ScenarioSpec, run: RunConfig, replicate_ids: list[int], counts: np.ndarray
) -> ScenarioBlock:
    """The analyses and descriptive rows of the given replicates of one
    scenario, computed as column operations on their (R x classes) class
    counts (run_replicate). Raises RuntimeError naming the first replicate
    that counts a person of a blocked class."""
    replicates = np.asarray(replicate_ids, dtype=np.int64)
    if len(counts) == 0:  # an empty run builds no map
        return ScenarioBlock(
            spec.scenario_id, replicates,
            AnalysisBlock(*(np.empty((0, len(ANALYSIS_LABELS)), dtype=t)
                            for t in (float, float, float, float, int, int, object))),
            DescribeBlock(*(np.empty((0, len(DESCRIBE_LABELS)), dtype=t)
                            for t in (int, int, float, float))),
        )
    _, classes = person_class_map(spec, run.cal_weight_mode)
    blocked = counts[:, classes.blocked].any(axis=1)
    if blocked.any():
        raise RuntimeError(
            f"replicate {replicates[blocked.argmax()]} of {spec.scenario_id} failed: "
            f"{CERTAIN_CENSORING}"
        )
    n = run.n_individuals
    analyses, descriptives = [], []
    for start in range(0, len(counts), BLOCK_ROWS):
        tables, events = classes.blocks(counts[start : start + BLOCK_ROWS])
        analyses.append(battery_block(tables, events, n))
        descriptives.append(describe_block(tables, n))
    return ScenarioBlock(spec.scenario_id, replicates, _concat(analyses), _concat(descriptives))


def _concat(parts: list):
    """One column block from blocks of consecutive rows."""
    return type(parts[0])(*map(np.concatenate, zip(*parts)))


def run_scenario(
    spec: ScenarioSpec, run: RunConfig, hazards: HazardSet | None = None
) -> ScenarioBlock:
    """Run all replicates of one scenario, in chunks of replicates that run
    serially or across worker processes. The class law is computed once,
    here; a chunk only draws and returns integer class counts. The counts
    are merged in replicate order and every float is computed here, on the
    merged block, so the result does not depend on scheduling."""
    replicate_ids = list(range(1, run.n_replicates + 1))
    if not replicate_ids:  # builds no map, no law and no pool
        return scenario_block(spec, run, replicate_ids, np.empty((0, 0), dtype=np.int64))
    if hazards is None:
        hazards = solve(spec).hazards
    pool = None if run.superpop is None else draw_superpopulation(spec, hazards, run)
    p_class = class_probabilities(spec, hazards, run.cal_weight_mode, pool)

    workers = min(run.parallelism, len(replicate_ids))
    # four chunks per worker balance the load; a serial run is one chunk,
    # so its counts are never copied into a merged matrix
    chunk_size = math.ceil(len(replicate_ids) / (4 * workers if workers > 1 else 1))
    chunks = [
        (p_class, run, spec.scenario_id, replicate_ids[i : i + chunk_size])
        for i in range(0, len(replicate_ids), chunk_size)
    ]
    if workers == 1:
        (counts,) = map(_run_chunk, chunks)
    else:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip loading it

        with ProcessPoolExecutor(max_workers=workers) as executor:
            counts = np.concatenate(list(executor.map(_run_chunk, chunks)))
    return scenario_block(spec, run, replicate_ids, counts)


#: summarize's input: per (scenario, design, analysis, target population)
#: cell, the log RR and the degenerate flag of each of its replicates.
Cells = dict[tuple[str, str, str, str], tuple[np.ndarray, np.ndarray]]

#: summarize_descriptives' input: per (scenario, design, group, severity)
#: cell, one row per replicate and one column per DESCRIBE_STATISTICS entry.
DescribeCells = dict[tuple[str, str, str, str], np.ndarray]


def estimate_cells(blocks: Iterable[ScenarioBlock]) -> Cells:
    """The cells of scenario blocks: columns of their analysis blocks."""
    cells = {}
    for block in blocks:
        a = block.analyses
        for j, label in enumerate(ANALYSIS_LABELS):
            cells[(block.scenario_id, *label)] = (a.log_rr[:, j], a.degenerate[:, j])
    return cells


def _label_order(*labels: tuple[str, ...]):
    """The sort key of cell keys: the position of each leading label of a key
    in the matching tuple of labels."""
    return lambda key: tuple(map(tuple.index, labels, key))


def summarize(
    cells: Cells,
    truth_by_scenario: dict[str, TruthEntry],
    truth_override: float | None = None,
) -> list[MetricsRow]:
    """Aggregate per-replicate estimates into one row per
    (scenario, design, analysis) cell against the truth reference (cells:
    estimate_cells, output.read_estimates).

    Replicates flagged degenerate are excluded cell-wise and reported
    through n_effective. Cells with fewer than two usable replicates raise
    InsufficientReplicatesError.
    """
    rows: list[MetricsRow] = []
    for key in sorted(cells, key=_label_order(SCENARIO_IDS, DESIGNS, ANALYSES)):
        log_rr, degenerate = cells[key]
        values = log_rr[degenerate == ""]
        n_eff = values.size
        if n_eff < 2:
            raise InsufficientReplicatesError(
                f"cell {key} has {n_eff} non-degenerate replicates; need >= 2"
            )
        if truth_override is not None:
            theta_ref = math.log(truth_override)
        else:
            theta_ref = truth_by_scenario[key[0]].log_rr
        mean = float(values.mean())
        ese = float(values.std(ddof=1))
        bias = mean - theta_ref
        rmse = float(np.sqrt(np.mean((values - theta_ref) ** 2)))
        rows.append(MetricsRow(
            *key, rr_summary=math.exp(mean), bias=bias, mcse_bias=ese / math.sqrt(n_eff),
            ese=ese, rmse=rmse, n_effective=n_eff,
        ))
    return rows


def summarize_descriptives(cells: DescribeCells) -> list[DescriptiveSummaryRow]:
    """Median and interquartile range of each descriptive statistic across
    replicates (percentiles by linear interpolation; cells:
    output.read_describe)."""
    order = _label_order(SCENARIO_IDS, DESIGNS, DESCRIBE_GROUPS, SEVERITY_LABELS)
    out: list[DescriptiveSummaryRow] = []
    for key in sorted(cells, key=order):
        for stat, values in zip(DESCRIBE_STATISTICS, cells[key].T):
            if np.isnan(values).all():
                q25 = med = q75 = float("nan")
            else:
                q25, med, q75 = np.nanpercentile(values, [25, 50, 75])
            out.append(DescriptiveSummaryRow(*key, stat, float(med), float(q25), float(q75)))
    return out


def truth_tables(
    specs: list[ScenarioSpec], hazards_by_scenario: dict[str, HazardSet]
) -> dict[str, TruthEntry]:
    """The enumerated truth of each scenario."""
    return {
        spec.scenario_id: enumerate_truth(spec, hazards_by_scenario[spec.scenario_id])
        for spec in specs
    }
