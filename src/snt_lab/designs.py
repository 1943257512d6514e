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

import numpy as np

from .config import ScenarioSpec
from .population import (
    Cohort,
    PATTERN_NEVER,
    PATTERN_VISIT1,
    PATTERN_VISIT2,
)

DESIGN_SPT = "SPT"
DESIGN_CAL = "eSNT-CAL"
DESIGN_TD = "eSNT-TD"
DESIGNS = (DESIGN_SPT, DESIGN_CAL, DESIGN_TD)

GROUP_ALL = "all"
GROUP_TREATED = "treated"
GROUP_INITIATOR = "initiator-person"
GROUP_NONINITIATOR = "noninitiator-person"
DESCRIBE_GROUPS = (GROUP_ALL, GROUP_TREATED, GROUP_INITIATOR, GROUP_NONINITIATOR)

SEVERITY_LABELS = ("low", "high")


@dataclass
class TreatmentAssignment:
    """Observed treatment draws for one cohort.

    a2 can be true only for persons untreated at Visit 1, event-free in year
    1, and (by the shared gated generation) with a decision point at Visit 2.
    """

    spt_arm: np.ndarray  # bool, randomized arm in the single point trial
    a1: np.ndarray  # bool, initiation at Visit 1 in the emulation world
    a2: np.ndarray  # bool, initiation at Visit 2
    observed_pattern: np.ndarray  # int8 pattern codes


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


def assign_treatments(
    rng: np.random.Generator, cohort: Cohort, spec: ScenarioSpec
) -> TreatmentAssignment:
    """Draw the SPT arm and the emulation-world initiation indicators.

    The SPT arm is marginal. Visit 1 initiation depends on severity at
    Visit 1. Visit 2 initiation requires: untreated at Visit 1, no observed
    outcome in year 1, a decision point at Visit 2, and an initiation draw
    against the severity-specific probability.
    """
    n = len(cohort)
    tp = np.asarray(spec.treat_prob)
    spt_arm = rng.random(n) < spec.spt_treat_prob
    a1 = rng.random(n) < tp[cohort.severity[:, 0]]
    init2 = rng.random(n) < tp[cohort.severity[:, 1]]
    alive1 = cohort.event_time[:, PATTERN_NEVER] != 1
    a2 = ~a1 & alive1 & cohort.decision2 & init2
    observed = np.where(
        a1, PATTERN_VISIT1, np.where(a2, PATTERN_VISIT2, PATTERN_NEVER)
    ).astype(np.int8)
    return TreatmentAssignment(spt_arm=spt_arm, a1=a1, a2=a2, observed_pattern=observed)


def _follow(pattern_time: np.ndarray, start_year: int, tau: int = 2):
    """Follow-up time and event status for a window of tau years starting at
    start_year (years counted from Visit 1)."""
    offset = pattern_time.astype(np.int64) - start_year
    futime = np.minimum(offset, tau).astype(np.int16)
    event = offset <= tau
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
    """Index counts and weight sums of one design, cell by cell.

    Cells are initiator-person (the index's person has a treated index in
    this design) x arm x severity at index x follow-up state. The four
    follow-up states are: event in year 1; exit at year 1 without an event
    (censored); event in year 2; event-free through year 2. So the year-t
    risk set is states 2(t-1) onward and its events are state 2(t-1).
    Every risk, standardization target and descriptive row of the design is
    a function of this table.
    """

    design: str
    counts: np.ndarray  # (2, 2, 2, 4) int: indexes per cell
    weight_sums: np.ndarray  # (2, 2, 2, 2, 4) float: [year 1 or 2][cell]
    n_people: int  # persons with at least one index
    n_initiators: int  # persons with a treated index


def count_table(idx: IndexSet, weights: np.ndarray | None = None) -> CountTable:
    """Tabulate one design. weights is the (n, 2) per-index weight schedule
    of follow-up years 1 and 2; without it every index weighs 1. Follow-up
    times must be 1 or 2 years, as the designs build them."""
    pid = idx.person_id
    n_slots = int(pid.max(initial=-1)) + 1
    ever_init = np.zeros(n_slots, dtype=bool)
    ever_init[pid.compress(idx.treated)] = True
    # one binary digit per axis, the state being the pair (futime == 2, no event)
    code = ever_init[pid].view(np.uint8)
    for digit in (idx.treated, idx.severity_at_index == 1, idx.futime == 2, ~idx.event):
        code *= 2
        code |= digit
    code = code.astype(np.intp)
    counts = np.bincount(code, minlength=32)
    if weights is None:
        sums = np.stack([counts, counts]).astype(float)
    else:
        sums = np.stack([
            np.bincount(code, weights[:, 0], minlength=32),
            np.bincount(code, weights[:, 1], minlength=32),
        ])
    return CountTable(
        design=idx.design,
        counts=counts.reshape(2, 2, 2, 4),
        weight_sums=sums.reshape(2, 2, 2, 2, 4),
        n_people=int(np.count_nonzero(np.bincount(pid))),
        n_initiators=int(ever_init.sum()),
    )


@dataclass(frozen=True)
class DescribeRow:
    design: str
    group: str
    severity: str
    n_people: int
    n_indexes: int
    pct_high: float
    avg_indexes_per_person: float


def describe_dataset(idx: IndexSet, n_persons: int) -> list[DescribeRow]:
    """Descriptive rows for one design.

    Index-level groups ('all', 'treated') summarize indexes directly;
    person-level groups split persons by ever-initiator status and count the
    indexes those persons contribute, so a non-initiator's censored Visit 1
    index of an eventual initiator counts toward the initiator group.
    """
    table = count_table(idx)
    by_cell = table.counts.sum(axis=3)  # [initiator-person][arm][severity]
    groups = (
        (GROUP_ALL, table.n_people, by_cell.sum(axis=(0, 1))),
        (GROUP_TREATED, table.n_initiators, by_cell[:, 1].sum(axis=0)),
        (GROUP_INITIATOR, table.n_initiators, by_cell[1].sum(axis=0)),
        (GROUP_NONINITIATOR, n_persons - table.n_initiators, by_cell[0].sum(axis=0)),
    )
    rows: list[DescribeRow] = []
    for group, n_people, by_severity in groups:
        n_by_sev = by_severity.tolist()
        total = n_by_sev[0] + n_by_sev[1]
        pct_high = 100.0 * n_by_sev[1] / total if total else float("nan")
        rows += [
            DescribeRow(
                design=idx.design,
                group=group,
                severity=SEVERITY_LABELS[z],
                n_people=n_people,
                n_indexes=n_by_sev[z],
                pct_high=pct_high,
                avg_indexes_per_person=(n_by_sev[z] / n_people) if n_people else float("nan"),
            )
            for z in (0, 1)
        ]
    return rows


def describe_replicate(
    spt: IndexSet, cal: IndexSet, td: IndexSet, n_persons: int
) -> list[DescribeRow]:
    """Descriptive rows for the three designs built from one cohort."""
    rows: list[DescribeRow] = []
    for idx in (spt, cal, td):
        rows += describe_dataset(idx, n_persons)
    return rows
