"""Observed-treatment assignment and index-level dataset construction.

Three designs are built from one cohort and one treatment assignment:

  SPT       one Visit 1 index per person, arm randomized marginally
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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cells import (
    DESCRIBE_GROUPS,
    DESIGN_CAL,
    DESIGN_SPT,
    DESIGN_TD,
    DESIGNS,
    SEVERITY_LABELS,
)
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


@dataclass
class TreatmentAssignment:
    """Observed treatment draws for one cohort.

    a2 can be true only for persons untreated at Visit 1, event-free in year
    1, and (by the shared gated generation) with a decision point at Visit 2.
    """

    spt_arm: np.ndarray  # bool, randomized arm in the single point trial
    a1: np.ndarray  # bool, initiation at Visit 1 in the emulation world
    a2: np.ndarray  # bool, initiation at Visit 2


@dataclass(frozen=True)
class IndexRecord:
    """One analyzed time origin, unpacked into plain Python values."""

    person_id: int
    index_visit: int
    severity_at_index: int
    treated: bool
    futime: int
    event: bool
    censored: bool
    severity_next: int


@dataclass
class IndexSet:
    """Column-oriented index-level dataset for one design."""

    design: str
    person_id: np.ndarray
    index_visit: np.ndarray
    severity_at_index: np.ndarray
    treated: np.ndarray
    futime: np.ndarray
    event: np.ndarray
    censored: np.ndarray
    severity_next: np.ndarray

    def __len__(self) -> int:
        return self.person_id.shape[0]

    def record(self, i: int) -> IndexRecord:
        return IndexRecord(
            person_id=int(self.person_id[i]),
            index_visit=int(self.index_visit[i]),
            severity_at_index=int(self.severity_at_index[i]),
            treated=bool(self.treated[i]),
            futime=int(self.futime[i]),
            event=bool(self.event[i]),
            censored=bool(self.censored[i]),
            severity_next=int(self.severity_next[i]),
        )

    def records(self) -> list[IndexRecord]:
        return [self.record(i) for i in range(len(self))]

    @classmethod
    def from_records(cls, design: str, records: list[IndexRecord]) -> "IndexSet":
        """Build a dataset from explicit records (hand-built test fixtures)."""
        return cls(
            design=design,
            person_id=np.array([r.person_id for r in records], dtype=np.int64),
            index_visit=np.array([r.index_visit for r in records], dtype=np.int8),
            severity_at_index=np.array(
                [r.severity_at_index for r in records], dtype=np.int8
            ),
            treated=np.array([r.treated for r in records], dtype=bool),
            futime=np.array([r.futime for r in records], dtype=np.int16),
            event=np.array([r.event for r in records], dtype=bool),
            censored=np.array([r.censored for r in records], dtype=bool),
            severity_next=np.array([r.severity_next for r in records], dtype=np.int8),
        )


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


def build_spt(cohort: Cohort, assignment: TreatmentAssignment) -> IndexSet:
    """One Visit 1 index per person; the randomized arm selects between the
    sustained-initiation and never-initiate potential event times."""
    n = len(cohort)
    pattern = np.where(assignment.spt_arm, PATTERN_VISIT1, PATTERN_NEVER)
    t = cohort.event_time[np.arange(n), pattern]
    futime, event = _follow(t, start_year=0)
    return IndexSet(
        design=DESIGN_SPT,
        person_id=np.arange(n, dtype=np.int64),
        index_visit=np.ones(n, dtype=np.int8),
        severity_at_index=cohort.severity[:, 0].copy(),
        treated=assignment.spt_arm.copy(),
        futime=futime,
        event=event,
        censored=np.zeros(n, dtype=bool),
        severity_next=cohort.severity[:, 1].copy(),
    )


def _build_esnt(cohort: Cohort, assignment: TreatmentAssignment, design: str) -> IndexSet:
    n = len(cohort)
    ids = np.arange(n, dtype=np.int64)
    a1, a2 = assignment.a1, assignment.a2
    alive1 = cohort.event_time[:, PATTERN_NEVER] != 1

    # Visit 1 block: everyone. Initiators follow sustained initiation;
    # non-initiators follow never-initiate until (possibly) censored at year
    # 1 by their own Visit 2 initiation. A year-1 outcome precedes censoring.
    pattern1 = np.where(a1, PATTERN_VISIT1, PATTERN_NEVER)
    t1 = cohort.event_time[ids, pattern1]
    futime1, event1 = _follow(t1, start_year=0)
    censored1 = ~a1 & alive1 & a2
    futime1 = np.where(censored1, 1, futime1).astype(np.int16)
    event1 = np.where(censored1, False, event1)

    # Visit 2 block: alive non-initiators, re-indexed with their Visit 2
    # treatment status. The treatment-decision design additionally gates
    # untreated re-indexing on the decision point (treated re-indexing is
    # already gated: initiation implies a decision point).
    m = ~a1 & alive1
    if design == DESIGN_TD:
        m &= cohort.decision2
    ids2 = ids[m]
    pattern2 = np.where(a2[ids2], PATTERN_VISIT2, PATTERN_NEVER)
    t2 = cohort.event_time[ids2, pattern2]
    futime2, event2 = _follow(t2, start_year=1)

    return IndexSet(
        design=design,
        person_id=np.concatenate([ids, ids2]),
        index_visit=np.concatenate(
            [np.ones(n, dtype=np.int8), np.full(len(ids2), 2, dtype=np.int8)]
        ),
        severity_at_index=np.concatenate(
            [cohort.severity[:, 0], cohort.severity[ids2, 1]]
        ),
        treated=np.concatenate([a1, a2[ids2]]),
        futime=np.concatenate([futime1, futime2]),
        event=np.concatenate([event1, event2]),
        censored=np.concatenate([censored1, np.zeros(len(ids2), dtype=bool)]),
        severity_next=np.concatenate(
            [cohort.severity[:, 1], cohort.severity[ids2, 2]]
        ),
    )


def build_esnt_cal(cohort: Cohort, assignment: TreatmentAssignment) -> IndexSet:
    return _build_esnt(cohort, assignment, DESIGN_CAL)


def build_esnt_td(cohort: Cohort, assignment: TreatmentAssignment) -> IndexSet:
    return _build_esnt(cohort, assignment, DESIGN_TD)


@dataclass(frozen=True)
class CountTable:
    """Index counts and weight sums of one design, cell by cell, for each
    cohort of a block (TableMap.block); one cohort is a block of one.

    Cells are initiator-person (the index's person has a treated index in
    this design) x arm x severity at index x follow-up state. The four
    follow-up states are: event in year 1; exit at year 1 without an event
    (censored); event in year 2; event-free through year 2. So the year-t
    risk set is states 2(t-1) onward and its events are state 2(t-1).
    Every risk, standardization target and descriptive row of the design is
    a function of this table.
    """

    design: str
    counts: np.ndarray  # (R, 2, 2, 2, 4): indexes per cell, float if frequency-weighted
    weight_sums: np.ndarray  # (R, 2, 2, 2, 2, 4) float: [cohort][year 1 or 2][cell]
    n_people: np.ndarray  # (R,): persons with at least one index
    n_initiators: np.ndarray  # (R,): persons with a treated index


@dataclass(frozen=True)
class TableMap:
    """Where the indexes of each person of one design fall in its count
    table, so that the table of any cohort of such persons is a weighted
    tabulation of the person counts.

    The indexes are sorted into groups that share a cell and a weight
    schedule; a table sums the person counts of each group, then the groups
    of each cell.
    """

    design: str
    person: np.ndarray  # the person of each index, grouped
    starts: np.ndarray  # the first index of each group
    cell: np.ndarray  # the count-table cell of each group
    weights: np.ndarray | None  # (2, n_groups): years 1 and 2, or None for 1
    indexed: np.ndarray  # bool per person: has an index
    initiator: np.ndarray  # bool per person: has a treated index

    def index_groups(self) -> np.ndarray:
        """The group of each index, in map order."""
        sizes = np.diff(self.starts, append=len(self.person))
        return np.repeat(np.arange(len(self.starts)), sizes)

    def memberships(self) -> np.ndarray:
        """(persons, groups) int8: how many indexes of each person fall in
        each group."""
        shape = (len(self.indexed), len(self.starts))
        key = self.person * shape[1] + self.index_groups()
        return np.bincount(key, minlength=shape[0] * shape[1]).reshape(shape).astype(np.int8)

    def merge(self, person_class: np.ndarray, first: np.ndarray) -> "TableMap":
        """The map over classes of persons with equal memberships and flags:
        person_class gives each person's class and first[c] the person that
        stands for class c. Tabulating class counts gives the table of the
        persons' counts."""
        stands = np.zeros(len(self.indexed), dtype=bool)
        stands[first] = True
        keep = stands[self.person]
        group = self.index_groups()[keep]
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        assert len(starts) == len(self.starts), "a class must keep every group"
        return TableMap(
            design=self.design,
            person=person_class[self.person[keep]],
            starts=starts,
            cell=self.cell,
            weights=self.weights,
            indexed=self.indexed[first],
            initiator=self.initiator[first],
        )

    def block(self, people: np.ndarray) -> CountTable:
        """The count tables of a block of cohorts, people[r, k] persons like
        person k in cohort r, as one CountTable with a leading cohort axis.
        Float people are frequency weights and give a table of the same.
        Counts of integer people are exact. Each weight sum is group count x
        weight, added group by group in map order, the order the golden
        digests pin."""
        per_group = np.add.reduceat(people[:, self.person], self.starts, axis=1)
        cells, first = np.unique(self.cell, return_index=True)
        sizes = np.diff(first, append=len(self.cell))
        counts = np.zeros((len(people), 32), dtype=people.dtype)
        counts[:, cells] = np.add.reduceat(per_group, first, axis=1)
        if self.weights is None:
            sums = np.stack([counts, counts], axis=1).astype(float)
        else:
            sums = np.zeros((len(people), 2, 32))
            for year, w in enumerate(self.weights):
                weighted = per_group * w
                total = weighted[:, first]
                for k in range(1, sizes.max(initial=1)):
                    more = sizes > k
                    total[:, more] += weighted[:, first[more] + k]
                sums[:, year, cells] = total
        return CountTable(
            design=self.design,
            counts=counts.reshape(-1, 2, 2, 2, 4),
            weight_sums=sums.reshape(-1, 2, 2, 2, 2, 4),
            n_people=people[:, self.indexed].sum(axis=1),
            n_initiators=people[:, self.initiator].sum(axis=1),
        )


def table_map(idx: IndexSet, weights: np.ndarray | None = None) -> TableMap:
    """The table map of one design. weights is the (n, 2) per-index weight
    schedule of follow-up years 1 and 2; without it every index weighs 1.
    Follow-up times must be 1 or 2 years, as the designs build them."""
    pid = idx.person_id
    n_slots = int(pid.max(initial=-1)) + 1
    initiator = np.zeros(n_slots, dtype=bool)
    initiator[pid.compress(idx.treated)] = True
    # one binary digit per axis, the state being the pair (futime == 2, no event)
    code = initiator[pid].view(np.uint8)
    for digit in (idx.treated, idx.severity_at_index == 1, idx.futime == 2, ~idx.event):
        code *= 2
        code |= digit
    # sort by cell, then weights; a group starts wherever the sorted key changes
    key = np.vstack([code.astype(float), *([] if weights is None else weights.T)])
    order = np.lexsort(key[::-1])
    key = key[:, order]
    first = np.ones(len(pid), dtype=bool)
    first[1:] = np.any(key[:, 1:] != key[:, :-1], axis=0)
    starts = np.flatnonzero(first)
    return TableMap(
        design=idx.design,
        person=pid[order],
        starts=starts,
        cell=key[0, starts].astype(np.intp),
        weights=None if weights is None else key[1:, starts],
        indexed=np.bincount(pid, minlength=n_slots) > 0,
        initiator=initiator,
    )


def count_table(idx: IndexSet, weights: np.ndarray | None = None) -> CountTable:
    """Tabulate one design, every person counted once (see table_map), as a
    block of one cohort."""
    tmap = table_map(idx, weights)
    return tmap.block(np.ones((1, len(tmap.indexed)), dtype=np.int64))


@dataclass(frozen=True)
class DescribeRow:
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

    def rows(self, r: int, designs: tuple[str, ...] = DESIGNS) -> list[DescribeRow]:
        """Row r as DescribeRows, the block's tables being those of designs."""
        labels = [(d, g, s) for d in designs for g in DESCRIBE_GROUPS for s in SEVERITY_LABELS]
        values = zip(*(column[r].tolist() for column in self))
        return [DescribeRow(*label, *row) for label, row in zip(labels, values)]


def describe_block(tables: list[CountTable], n_persons: int) -> DescribeBlock:
    """Descriptive rows of each design's count tables, over a block of
    replicates (TableMap.block).

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
    tables = [count_table(idx) for idx in (spt, cal, td)]
    return describe_block(tables, n_persons).rows(0, tuple(t.design for t in tables))
