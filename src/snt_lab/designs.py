"""Observed-treatment assignment and index-level dataset construction.

Three designs are built from one cohort and one treatment assignment, by
one builder that differs only in who is re-indexed at Visit 2:

  SPT       the Visit 1 block alone, arm randomized marginally: nobody
            initiates at Visit 2 and nobody is re-indexed
  eSNT-CAL  Visit 1 index for everyone; every alive non-initiator is
            re-indexed at Visit 2
  eSNT-TD   like eSNT-CAL, but an untreated Visit 2 index exists only when
            Visit 2 qualified as a treatment decision point

Untreated Visit 1 indexes of the emulations are artificially censored at
year 1 when the person initiates at Visit 2. An outcome in year 1 takes
precedence over censoring: a person who has the outcome cannot initiate.
Visit 2 indexes get a full two-year window (outcomes determined at Visits 2
and 3) and can never be censored because no later initiation exists.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cells import DESCRIBE_LABELS, DESIGN_CAL, DESIGN_SPT, DESIGN_TD
from .config import HORIZON_TAU, ScenarioSpec
from .population import (
    Cohort,
    HIGH,
    N_BASE_TYPES,
    PATTERN_NEVER,
    PATTERN_VISIT1,
    PATTERN_VISIT2,
    base_severity,
    expand_base_codes,
)

#: A person type is the base type (population.N_BASE_TYPES) followed by three
#: treatment bits: the SPT arm, Visit 1 initiation and the Visit 2 initiation
#: draw. A replicate's outputs depend only on its count of each type.
N_TYPES = N_BASE_TYPES * 8


class TreatmentAssignment(NamedTuple):
    """Observed treatment draws for one cohort.

    a2 can be true only for persons untreated at Visit 1, event-free in year
    1, and (by the shared gated generation) with a decision point at Visit 2.
    """

    spt_arm: np.ndarray  # bool, randomized arm in the single point trial
    a1: np.ndarray  # bool, initiation at Visit 1 in the emulation world
    a2: np.ndarray  # bool, initiation at Visit 2


class IndexSet:
    """Column-oriented index-level dataset for one design; len() counts its
    indexes."""

    __slots__ = (
        "design", "person_id", "index_visit", "severity_at_index", "treated",
        "futime", "event", "censored", "severity_next",
    )

    def __init__(
        self, design: str, person_id: np.ndarray, index_visit: np.ndarray,
        severity_at_index: np.ndarray, treated: np.ndarray, futime: np.ndarray,
        event: np.ndarray, censored: np.ndarray, severity_next: np.ndarray,
    ):
        self.design = design
        self.person_id = person_id
        self.index_visit = index_visit
        self.severity_at_index = severity_at_index
        self.treated = treated
        self.futime = futime
        self.event = event
        self.censored = censored
        self.severity_next = severity_next

    def __len__(self) -> int:
        return self.person_id.shape[0]


def draw_treatment_bits(
    rng: np.random.Generator, high1: np.ndarray, high2: np.ndarray, spec: ScenarioSpec
) -> np.ndarray:
    """Draw each person's three treatment bits (SPT arm, Visit 1 initiation,
    Visit 2 initiation draw, high bit first) given high severity at Visits 1
    and 2. The SPT arm is marginal; the initiation draws compare against the
    severity-specific probability."""
    tp_low, tp_high = spec.treat_prob
    bits = (rng.random(len(high1)) < spec.spt_treat_prob).astype(np.uint16)
    for high in (high1, high2):
        bits *= 2
        bits |= rng.random(len(high)) < np.where(high, tp_high, tp_low)
    return bits


def treatment_probabilities(spec: ScenarioSpec) -> np.ndarray:
    """Exact (N_BASE_TYPES, 8) probability of each treatment-bit pattern
    given the base type, the law that draw_treatment_bits draws from. Row b,
    column k is the probability of person type (b << 3) | k given base type
    b."""
    base = np.arange(N_BASE_TYPES)[:, None]
    bits = np.arange(8)
    spt = spec.spt_treat_prob
    prob = np.where(bits & 4, spt, 1.0 - spt)
    tp_low, tp_high = spec.treat_prob
    for visit, bit in ((0, 2), (1, 1)):
        q = np.where(base_severity(base, visit), tp_high, tp_low)
        prob = prob * np.where(bits & bit, q, 1.0 - q)
    return prob


def assignment_from_bits(cohort: Cohort, bits: np.ndarray) -> TreatmentAssignment:
    """Expand treatment bits into the observed treatment of each person.

    Visit 2 initiation requires: untreated at Visit 1, no observed outcome in
    year 1, a decision point at Visit 2, and the initiation draw.
    """
    a1 = (bits & 2) > 0
    alive1 = cohort.event_time[:, PATTERN_NEVER] != 1
    a2 = ~a1 & alive1 & cohort.decision2 & ((bits & 1) > 0)
    return TreatmentAssignment(spt_arm=bits >= 4, a1=a1, a2=a2)


def assign_treatments(
    rng: np.random.Generator, cohort: Cohort, spec: ScenarioSpec
) -> TreatmentAssignment:
    """Draw the SPT arm and the emulation-world initiation indicators
    (draw_treatment_bits, then assignment_from_bits)."""
    high = cohort.severity == HIGH
    return assignment_from_bits(
        cohort, draw_treatment_bits(rng, high[:, 0], high[:, 1], spec)
    )


def type_cohort() -> tuple[Cohort, TreatmentAssignment]:
    """One person of each of the N_TYPES person types, person k of type k."""
    codes = np.arange(N_TYPES)
    cohort = expand_base_codes(codes >> 3)
    return cohort, assignment_from_bits(cohort, codes & 7)


def _follow(pattern_time: np.ndarray, start_year: int):
    """Follow-up time and event status for a window of HORIZON_TAU years
    starting at start_year (years counted from Visit 1)."""
    offset = pattern_time.astype(np.int64) - start_year
    futime = np.minimum(offset, HORIZON_TAU).astype(np.int16)
    event = offset <= HORIZON_TAU
    return futime, event


def _build_indexes(
    cohort: Cohort, design: str, treated1: np.ndarray, a2: np.ndarray, gate
) -> IndexSet:
    """Every person's Visit 1 index, treated as treated1 and censored at
    year 1 by a Visit 2 initiation (a2), then a Visit 2 index for each alive
    non-initiator wherever gate holds (a bool or a per-person mask)."""
    n = len(cohort)
    ids = np.arange(n, dtype=np.int64)
    alive1 = cohort.event_time[:, PATTERN_NEVER] != 1

    # Visit 1 block: everyone. Initiators follow sustained initiation;
    # non-initiators follow never-initiate until (possibly) censored at year
    # 1 by their own Visit 2 initiation. A year-1 outcome precedes censoring.
    pattern1 = np.where(treated1, PATTERN_VISIT1, PATTERN_NEVER)
    futime1, event1 = _follow(cohort.event_time[ids, pattern1], start_year=0)
    censored1 = ~treated1 & alive1 & a2
    futime1 = np.where(censored1, 1, futime1).astype(np.int16)
    event1 = np.where(censored1, False, event1)

    # Visit 2 block: alive non-initiators where the gate holds, re-indexed
    # with their Visit 2 treatment status.
    ids2 = ids[~treated1 & alive1 & gate]
    pattern2 = np.where(a2[ids2], PATTERN_VISIT2, PATTERN_NEVER)
    futime2, event2 = _follow(cohort.event_time[ids2, pattern2], start_year=1)

    return IndexSet(
        design=design,
        person_id=np.concatenate([ids, ids2]),
        index_visit=np.concatenate([np.ones(n, np.int8), np.full(len(ids2), 2, np.int8)]),
        severity_at_index=np.concatenate([cohort.severity[:, 0], cohort.severity[ids2, 1]]),
        treated=np.concatenate([treated1, a2[ids2]]),
        futime=np.concatenate([futime1, futime2]),
        event=np.concatenate([event1, event2]),
        censored=np.concatenate([censored1, np.zeros(len(ids2), dtype=bool)]),
        severity_next=np.concatenate([cohort.severity[:, 1], cohort.severity[ids2, 2]]),
    )


def build_spt(cohort: Cohort, assignment: TreatmentAssignment) -> IndexSet:
    nobody = np.zeros(len(cohort), dtype=bool)
    return _build_indexes(cohort, DESIGN_SPT, assignment.spt_arm, nobody, False)


def build_esnt_cal(cohort: Cohort, assignment: TreatmentAssignment) -> IndexSet:
    return _build_indexes(cohort, DESIGN_CAL, assignment.a1, assignment.a2, True)


def build_esnt_td(cohort: Cohort, assignment: TreatmentAssignment) -> IndexSet:
    # initiation implies a decision point, so the gate drops untreated indexes only
    return _build_indexes(cohort, DESIGN_TD, assignment.a1, assignment.a2, cohort.decision2)


class CountTable(NamedTuple):
    """Index counts and year 2 weight sums of one design, cell by cell, for
    each cohort of a block (TableMap.table); one cohort is a block of one.

    Cells are initiator-person (the index's person has a treated index in
    this design) x arm x severity at index x follow-up state. The four
    follow-up states are: event in year 1; exit at year 1 without an event
    (censored); event in year 2; event-free through year 2. So the year-t
    risk set is states 2(t-1) onward and its events are state 2(t-1).
    Every index weighs 1 in year 1, so the counts are the year 1 weight
    sums. Every risk, standardization target and descriptive row of the
    design is a function of this table.
    """

    counts: np.ndarray  # (R, 2, 2, 2, 4): indexes per cell, float if frequency-weighted
    weight_sums: np.ndarray  # (R, 2, 2, 2, 4) float: year 2 weights per cell
    n_people: np.ndarray  # (R,): persons with at least one index
    n_initiators: np.ndarray  # (R,): persons with a treated index


class TableMap(NamedTuple):
    """Where the indexes of one design fall in its count table: they are
    sorted into groups that share a cell and a year 2 weight, and each
    person's row of the map's columns (table_map) counts its indexes in
    each group. So the table of any cohort of such persons is read off the
    column sums of its persons (table)."""

    cell: np.ndarray  # the count-table cell of each group, in ascending order
    weights: np.ndarray  # the year 2 weight of each group

    def table(self, sums: np.ndarray) -> CountTable:
        """The count tables of a block of cohorts from the column sums of
        their persons, sums[r] = people[r] @ columns (table_map), as one
        CountTable with a leading cohort axis. Float sums are frequency
        weights and give a table of the same. Each cell adds its groups in
        map order, the weight sums as group count x weight: the order the
        golden digests pin."""
        counts = np.zeros((len(sums), 32), dtype=sums.dtype)
        weight_sums = np.zeros((len(sums), 32))
        for group, (cell, weight) in enumerate(zip(self.cell.tolist(), self.weights.tolist())):
            persons = sums[:, 2 + group]
            counts[:, cell] += persons
            weight_sums[:, cell] += persons * weight
        return CountTable(
            counts=counts.reshape(-1, 2, 2, 2, 4),
            weight_sums=weight_sums.reshape(-1, 2, 2, 2, 4),
            n_people=sums[:, 0],
            n_initiators=sums[:, 1],
        )


def table_map(idx: IndexSet, weights: np.ndarray | None = None) -> tuple[TableMap, np.ndarray]:
    """The table map of one design and its columns: the (persons,
    2 + groups) int8 matrix that holds, per person, whether it has an
    index, whether it has a treated index, and its count of indexes in each
    group. weights is the (n,) year 2 weight of each index; without it
    every index weighs 1. Follow-up times must be 1 or 2 years, as the
    designs build them."""
    pid = idx.person_id
    n_slots = int(pid.max(initial=-1)) + 1
    initiator = np.zeros(n_slots, dtype=bool)
    initiator[pid.compress(idx.treated)] = True
    # one binary digit per axis, the state being the pair (futime == 2, no event)
    code = initiator[pid].view(np.uint8)
    for digit in (idx.treated, idx.severity_at_index == 1, idx.futime == 2, ~idx.event):
        code *= 2
        code |= digit
    if weights is None:
        weights = np.ones(len(pid))
    # sort by cell, then weight; a group starts wherever the sorted key changes
    order = np.lexsort((weights, code))
    code, weights = code[order], weights[order]
    first = np.ones(len(pid), dtype=bool)
    first[1:] = (code[1:] != code[:-1]) | (weights[1:] != weights[:-1])
    starts = np.flatnonzero(first)
    columns = np.zeros((n_slots, 2 + len(starts)), dtype=np.int8)
    columns[pid, 0] = 1
    columns[:, 1] = initiator
    np.add.at(columns, (pid[order], 1 + np.cumsum(first)), 1)
    return TableMap(code[starts].astype(np.intp), weights[starts]), columns


def count_table(idx: IndexSet, weights: np.ndarray | None = None) -> CountTable:
    """Tabulate one design, every person counted once (see table_map), as a
    block of one cohort."""
    tmap, columns = table_map(idx, weights)
    return tmap.table(columns.sum(axis=0, dtype=np.int64)[None])


class DescribeRow(NamedTuple):
    design: str
    group: str
    severity: str
    n_people: int
    n_indexes: int
    pct_high: float
    avg_indexes_per_person: float


class DescribeBlock(NamedTuple):
    """The descriptive rows of a block of replicates as columns: row r,
    column j holds the DescribeRow of replicate r labelled cells.DESCRIBE_LABELS[j]."""

    n_people: np.ndarray  # (R, 24) int
    n_indexes: np.ndarray  # (R, 24) int
    pct_high: np.ndarray  # (R, 24)
    avg_indexes_per_person: np.ndarray  # (R, 24)

    def rows(self, r: int) -> list[DescribeRow]:
        """Row r as DescribeRows, in DESCRIBE_LABELS order."""
        values = zip(*(column[r].tolist() for column in self))
        return [DescribeRow(*label, *row) for label, row in zip(DESCRIBE_LABELS, values)]


def describe_block(tables: list[CountTable], n_persons: int) -> DescribeBlock:
    """Descriptive rows of each design's count tables, in cells.DESIGNS
    order, over a block of replicates (TableMap.table).

    Index-level groups ('all', 'treated') summarize indexes directly;
    person-level groups split persons by ever-initiator status and count the
    indexes those persons contribute, so a non-initiator's censored Visit 1
    index of an eventual initiator counts toward the initiator group.
    """
    n_people, n_indexes, pct_high, avg = [], [], [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for table in tables:
            # [replicate][initiator-person][arm][severity]
            by_cell = table.counts.sum(axis=4)
            groups = (
                (table.n_people, by_cell.sum(axis=(1, 2))),
                (table.n_initiators, by_cell[:, :, 1].sum(axis=1)),
                (table.n_initiators, by_cell[:, 1].sum(axis=1)),
                (n_persons - table.n_initiators, by_cell[:, 0].sum(axis=1)),
            )
            for people, by_severity in groups:
                total = by_severity[:, 0] + by_severity[:, 1]
                pct = np.where(total > 0, 100.0 * by_severity[:, 1] / total, np.nan)
                for z in (0, 1):
                    n_people.append(people)
                    n_indexes.append(by_severity[:, z])
                    pct_high.append(pct)
                    avg.append(np.where(people > 0, by_severity[:, z] / people, np.nan))
    columns = (n_people, n_indexes, pct_high, avg)
    return DescribeBlock(*(np.stack(column, axis=1) for column in columns))


def describe_replicate(
    spt: IndexSet, cal: IndexSet, td: IndexSet, n_persons: int
) -> list[DescribeRow]:
    """Descriptive rows for the three designs built from one cohort."""
    return describe_block([count_table(idx) for idx in (spt, cal, td)], n_persons).rows(0)
