"""Deterministic replicate loops.

Every replicate owns a random substream derived from (master seed, scenario
ordinal, replicate index) through numpy's SeedSequence entropy mixing, with
PCG64 (period 2^128, documented cross-platform output) as the generator. A
replicate is therefore reproducible in isolation. The class law is computed
once per scenario, a replicate only draws its cohort's count of each class
of person types from it, in one multinomial call, and a scenario runs as
blocks of up to BLOCK_ROWS replicates: each block's counts are drawn, checked
for blocked classes and read off into every analysis and descriptive row
before the next block is drawn. output makes the blocks' lines and
summary cells.

Every replicate is drawn in the calling process, in replicate order:
multinomial holds the interpreter lock, so threads cannot share the draws.

This module is the engine, with population, designs and estimators: it
needs numpy, and the CLI imports it only for simulate. The labels, the
Monte Carlo and descriptive summaries (cells) and the calibration and exact
truth (hazards) run on the standard library.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .config import (
    CERTAIN_CENSORING,
    DegenerateWeightError,
    RunConfig,
    ScenarioSpec,
    SCENARIO_IDS,
)
from .designs import DescribeBlock, describe_block, treatment_probabilities
from .estimators import AnalysisBlock, battery_block, person_class_map
from .hazards import HazardSet
from .population import base_type_probabilities

# The person-level entry points stay importable from this module because
# perfbench/trace.py wraps them here by name (ROADMAP item 4).
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

#: Replicates drawn, computed and written as one block; bounds the count
#: matrix and the temporaries of a paper-scale scenario to a few MB.
BLOCK_ROWS = 1024


class ScenarioBlock(NamedTuple):
    """Consecutive replicates of one scenario as columns: row r of the
    analyses and of the descriptive rows belongs to replicate replicates[r]."""

    scenario_id: str
    replicates: np.ndarray
    analyses: AnalysisBlock
    descriptives: DescribeBlock


def scenario_ordinal(scenario_id: str) -> int:
    return SCENARIO_IDS.index(scenario_id) + 1


def _seed_words(value: int) -> list[int]:
    """The uint32 words that numpy's SeedSequence makes of a non-negative
    int: little-endian, with no trailing zero word, and one word for 0."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


@functools.lru_cache(maxsize=8)
def _scenario_words(master_seed: int, scenario_id: str) -> tuple[int, ...]:
    """The words of the master seed and the scenario ordinal, computed once
    per scenario."""
    return (*_seed_words(master_seed), *_seed_words(scenario_ordinal(scenario_id)))


def replicate_stream(
    master_seed: int, scenario_id: str, replicate_id: int
) -> np.random.Generator:
    """The dedicated random stream of one (scenario, replicate) cell: the
    stream of SeedSequence([master_seed, ordinal, replicate_id]), seeded
    with the uint32 array numpy would make of that list, which skips its
    per-int coercion."""
    words = [*_scenario_words(master_seed, scenario_id), *_seed_words(replicate_id)]
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
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
    type_class = person_class_map(spec, cal_weight_mode).type_class
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


def scenario_block(
    spec: ScenarioSpec, run: RunConfig, replicate_ids: Sequence[int], counts: np.ndarray
) -> ScenarioBlock:
    """The analyses and descriptive rows of the given replicates of one
    scenario, computed as column operations on their (replicates x classes)
    class counts (run_replicate). Raises DegenerateWeightError naming the
    first replicate that counts a person of a blocked class."""
    replicates = np.asarray(replicate_ids, dtype=np.int64)
    classes = person_class_map(spec, run.cal_weight_mode)
    blocked = counts[:, classes.blocked].any(axis=1)
    if blocked.any():
        raise DegenerateWeightError(
            f"replicate {replicates[blocked.argmax()]} of {spec.scenario_id} failed: "
            f"{CERTAIN_CENSORING}"
        )
    tables, events = classes.blocks(counts)
    n = run.n_individuals
    return ScenarioBlock(spec.scenario_id, replicates, battery_block(tables, events, n),
                         describe_block(tables, n))


def run_scenario(spec: ScenarioSpec, run: RunConfig, hazards: HazardSet) -> list[ScenarioBlock]:
    """Run all replicates of one scenario, as one block per BLOCK_ROWS
    replicates, in replicate order. The class law is computed once, here;
    each replicate only draws its row of integer class counts
    (run_replicate, looked up at each call), and every float is computed on
    a block of counts."""
    if not run.n_replicates:  # draws no pool and builds no map or law
        return []
    superpop = None if run.superpop is None else draw_superpopulation(spec, hazards, run)
    p_class = class_probabilities(spec, hazards, run.cal_weight_mode, superpop)
    blocks = []
    for start in range(1, run.n_replicates + 1, BLOCK_ROWS):
        replicate_ids = range(start, min(start + BLOCK_ROWS, run.n_replicates + 1))
        counts = np.array([run_replicate(p_class, run, spec.scenario_id, rid)
                           for rid in replicate_ids])
        blocks.append(scenario_block(spec, run, replicate_ids, counts))
    return blocks
