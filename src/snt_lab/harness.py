"""Deterministic replicate loops.

Every replicate owns a random substream derived from (master seed, scenario
ordinal, replicate index) through numpy's SeedSequence entropy mixing, with
PCG64 (period 2^128, documented cross-platform output) as the generator. A
replicate is therefore reproducible in isolation. A block's seeds are
computed at once (replicate_words): SeedSequence's uint32 hashing runs on
columns and gives each replicate the exact state words that
SeedSequence([master seed, ordinal, replicate]) gives, in about a sixth of
the time that building one SeedSequence per replicate takes. The words are kept
SeedSequence's, and not some cheaper hash of the same triple, so that every
stream, and so every output byte, stays the one that list names; the pool's
stream is the block of one (replicate_stream). The class law is computed
once per scenario, a replicate only draws its cohort's count of each class
of person types from it, in one multinomial call, and a scenario runs as
blocks of up to BLOCK_ROWS replicates: each block's counts are drawn, checked
for blocked classes and read off into every analysis and descriptive row
before the next block is drawn. output makes the blocks' lines and
summary cells.

A scenario's replicates are drawn in the calling process, in replicate
order: multinomial holds the interpreter lock, so threads cannot share the
draws. The CLI's simulate runs the back half of its scenarios in a second,
forked process when it has two CPUs; the scenarios' substreams are
disjoint, so that changes no draw.

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
# perfbench/trace.py wraps them here by name (ROADMAP item 5).
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


_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """init and its count successors under multiplication by mult, mod 2**32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


# numpy's SeedSequence (bit_generator.pyx): a pool of 4 words, the multiplier
# sequences of its hashmix steps (HASH_A: 4 to fill the pool, 12 to mix it,
# 4 per entropy word beyond the pool) and of its output step (HASH_B: 8
# uint32 words make 4 uint64 ones), and the multipliers of its mix step.
_POOL_SIZE = 4
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 20)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value: np.ndarray, step: int) -> np.ndarray:
    value = ((value ^ _HASH_A[step]) * _HASH_A[step + 1]) & _MASK32
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def replicate_words(
    master_seed: int, scenario_id: str, replicate_ids: Sequence[int]
) -> np.ndarray:
    """The (replicates x 4) uint64 words that
    SeedSequence([master_seed, ordinal, rid]).generate_state(4, np.uint64)
    gives for each replicate id: the PCG64 seed of its stream. SeedSequence's
    steps run on columns, one row per replicate, since their hash constants
    do not depend on the data. A row's entropy is the seed's one or two
    words, the ordinal's and the id's one or two; a shorter row is padded
    with zeros, which is how SeedSequence fills its pool, and a fifth word
    is mixed in only on the rows that have one.

    The uint32 words are held in int64 columns, whose products wrap mod
    2**64 and are masked to SeedSequence's mod 2**32: the engine's other
    integer work runs int64 loops already, where uint32 ones would page in
    more of numpy's code (about 70 KB of resident memory)."""
    prefix = _scenario_words(master_seed, scenario_id)  # 2 or 3 words below 2**64
    ids = np.asarray(replicate_ids, dtype=np.uint64).view(np.int64)
    entropy = np.empty((len(prefix) + 2, len(ids)), dtype=np.int64)
    entropy[:len(prefix)] = np.array(prefix)[:, None]
    entropy[-2] = ids & _MASK32
    entropy[-1] = (ids >> 32) & _MASK32
    pool = [_hashmix(entropy[i], i) for i in range(_POOL_SIZE)]
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], step))
                step += 1
    if len(entropy) > _POOL_SIZE and entropy[-1].any():  # the id's high word is a fifth
        fifth = entropy[-1] != 0
        for dst in range(_POOL_SIZE):
            mixed = _mix(pool[dst], _hashmix(entropy[_POOL_SIZE], step + dst))
            pool[dst] = np.where(fifth, mixed, pool[dst])
    out = []
    for i in range(2 * _POOL_SIZE):
        value = ((pool[i % _POOL_SIZE] ^ _HASH_B[i]) * _HASH_B[i + 1]) & _MASK32
        out.append(value ^ (value >> 16))
    # each uint64 word is a pair of output words, the first as its low half
    state = np.empty((len(ids), _POOL_SIZE), dtype=np.int64)
    for k in range(_POOL_SIZE):
        state[:, k] = out[2 * k] | (out[2 * k + 1] << 32)
    return state.view(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """The ISeedSequence that hands a row of replicate_words to PCG64 as the
    state its SeedSequence would generate (PCG64 asks for 4 uint64 words).
    Made on first use, since its base class loads numpy.random, which a run
    that draws nothing never needs."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return SeedWords


def _stream(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_seed_words_type()(words)))


def replicate_stream(
    master_seed: int, scenario_id: str, replicate_id: int
) -> np.random.Generator:
    """The dedicated random stream of one (scenario, replicate) cell: the
    stream of SeedSequence([master_seed, ordinal, replicate_id]), seeded
    with its row of replicate_words."""
    return _stream(replicate_words(master_seed, scenario_id, [replicate_id])[0])


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


def run_replicate(p_class: np.ndarray, run: RunConfig, words: np.ndarray) -> np.ndarray:
    """Draw one replicate as its count of people in each class of person
    types: one multinomial draw of the cohort over the class probabilities
    (class_probabilities) from the replicate's own stream, seeded with its
    row of replicate_words."""
    return _stream(words).multinomial(run.n_individuals, p_class)


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
        words = replicate_words(run.master_seed, spec.scenario_id, replicate_ids)
        counts = np.array([run_replicate(p_class, run, row) for row in words])
        blocks.append(scenario_block(spec, run, replicate_ids, counts))
    return blocks
