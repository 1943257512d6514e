"""Deterministic replicate loops.

Every replicate owns a random substream derived from (master seed, scenario
ordinal, replicate index) through numpy's SeedSequence entropy mixing, with
PCG64 (period 2^128, documented cross-platform output) as the generator. A
replicate is therefore reproducible in isolation and results never depend on
worker count or scheduling: the class law is computed once per scenario, a
replicate only draws its cohort's count of each class of person types from
it, in one multinomial call, the counts are merged by index, and one block
computation per scenario checks the merged counts for blocked classes and
reads every analysis and descriptive row off them. estimate_cells hands
the blocks' estimates to cells.summarize as lists.

This module is the engine, with population, designs and estimators: it
needs numpy, and the CLI imports it only for simulate. The labels, the
Monte Carlo and descriptive summaries (cells) and the calibration and exact
truth (hazards) run on the standard library.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .cells import ANALYSIS_LABELS, DESCRIBE_LABELS, Cells
from .config import RunConfig, ScenarioSpec, SCENARIO_IDS
from .designs import DescribeBlock, describe_block, treatment_probabilities
from .estimators import (
    CERTAIN_CENSORING,
    AnalysisBlock,
    battery_block,
    person_class_map,
)
from .hazards import HazardSet, solve
from .population import base_type_probabilities

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

@dataclass(frozen=True)
class ScenarioBlock:
    """Every replicate of one scenario as columns: row r of the analyses and
    of the descriptive rows belongs to replicate replicates[r]."""

    scenario_id: str
    replicates: np.ndarray
    analyses: AnalysisBlock
    descriptives: DescribeBlock


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


def estimate_cells(blocks: Iterable[ScenarioBlock]) -> Cells:
    """The cells of scenario blocks: columns of their analysis blocks, as
    lists (the form output.read_estimates gives)."""
    cells = {}
    for block in blocks:
        a = block.analyses
        for j, label in enumerate(ANALYSIS_LABELS):
            cells[(block.scenario_id, *label)] = (
                a.log_rr[:, j].tolist(), a.degenerate[:, j].tolist()
            )
    return cells
