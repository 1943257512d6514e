import math

import numpy as np
import pytest

from block_rows import index_set
from oracles import IndexRow
from snt_lab.config import builtin_scenarios
from snt_lab.cells import GROUP_ALL, GROUP_INITIATOR, GROUP_NONINITIATOR, GROUP_TREATED
from snt_lab.designs import (
    DESIGN_CAL,
    DESIGN_SPT,
    DESIGN_TD,
    TreatmentAssignment,
    assign_treatments,
    build_esnt_cal,
    build_esnt_td,
    build_spt,
    count_table,
    describe_block,
    describe_replicate,
)
from snt_lab.hazards import solve
from snt_lab.population import Cohort, PATTERN_NEVER, draw_cohort

# Enumerated ever-treated probability for S1 at progression 0.6:
#   P(initiate at Visit 1) + P(untreated, event-free, decision point, initiate)
EVER_TREATED_S1_PI06 = 0.4750138297


def spec_and_hazards(name="S1", pi=0.6):
    spec = {s.scenario_id: s for s in builtin_scenarios(pi)}[name]
    return spec, solve(spec).hazards


def rng(seed=1234):
    return np.random.default_rng(seed)


def hand_cohort():
    """Six persons covering every construction branch.

    po rows are (arm0, arm1) flags per visit; all severities low except
    person 5 (high at baseline).
    """
    po = np.array(
        [
            # 0: no outcomes at all
            [[0, 0], [0, 0], [0, 0]],
            # 1: never-initiate outcome at year 1 (and arm-1 outcome at visit 2)
            [[1, 0], [0, 1], [0, 0]],
            # 2: never-initiate outcome at year 2
            [[0, 0], [1, 0], [0, 0]],
            # 3: never-initiate outcome at year 3 only
            [[0, 0], [0, 0], [1, 0]],
            # 4: arm-1 outcome at visit 2 only
            [[0, 0], [0, 1], [0, 0]],
            # 5: arm-1 outcome at visit 1
            [[0, 1], [0, 0], [0, 0]],
        ],
        dtype=bool,
    )
    severity = np.array(
        [[0, 0, 1], [0, 0, 0], [0, 1, 1], [0, 0, 0], [0, 0, 0], [1, 1, 1]],
        dtype=np.int8,
    )
    decision2 = np.array([True, True, True, False, True, True])
    return Cohort.from_arrays(severity=severity, decision2=decision2, po=po)


def hand_assignment():
    # person 0: untreated then initiates at Visit 2
    # person 1: untreated, dies year 1 (cannot initiate)
    # person 2: untreated throughout, event at year 2
    # person 3: untreated throughout (no decision point)
    # person 4: initiates at Visit 1
    # person 5: initiates at Visit 1
    a1 = np.array([False, False, False, False, True, True])
    a2 = np.array([True, False, False, False, False, False])
    spt_arm = np.array([True, False, False, True, False, True])
    return TreatmentAssignment(spt_arm=spt_arm, a1=a1, a2=a2)


def describe_rows(idx, n_persons):
    """The descriptive rows of one design's table, as a block of one."""
    rows = describe_block([count_table(idx)], n_persons).rows(0)
    return [row._replace(design=idx.design) for row in rows]


class TestAssignTreatments:
    def test_never_treated_when_probabilities_zero(self):
        spec, h = spec_and_hazards()
        spec = spec._replace(treat_prob=(0.0, 0.0))
        cohort = draw_cohort(rng(), spec, h, 2000)
        a = assign_treatments(rng(1), cohort, spec)
        assert not a.a1.any() and not a.a2.any()

    def test_no_visit2_initiation_without_decision_points(self):
        spec, h = spec_and_hazards()
        spec = spec._replace(decision_prob=(0.0, 0.0))
        cohort = draw_cohort(rng(), spec, h, 2000)
        a = assign_treatments(rng(1), cohort, spec)
        assert not a.a2.any()

    def test_visit2_initiation_requires_gates(self):
        spec, h = spec_and_hazards("S3")
        cohort = draw_cohort(rng(2), spec, h, 50000)
        a = assign_treatments(rng(3), cohort, spec)
        alive = cohort.event_time[:, PATTERN_NEVER] != 1
        assert not (a.a2 & a.a1).any()
        assert (a.a2 <= (cohort.decision2 & alive & ~a.a1)).all()

    def test_ever_treated_share_matches_enumeration(self):
        spec, h = spec_and_hazards()
        n = 1_000_000
        cohort = draw_cohort(rng(4), spec, h, n)
        a = assign_treatments(rng(5), cohort, spec)
        share = (a.a1 | a.a2).mean()
        se = math.sqrt(EVER_TREATED_S1_PI06 * (1 - EVER_TREATED_S1_PI06) / n)
        assert abs(share - EVER_TREATED_S1_PI06) < 3 * se

    def test_spt_arm_share(self):
        spec, h = spec_and_hazards()
        n = 1_000_000
        cohort = draw_cohort(rng(6), spec, h, n)
        a = assign_treatments(rng(7), cohort, spec)
        se = math.sqrt(0.375 * 0.625 / n)
        assert abs(a.spt_arm.mean() - 0.375) < 3 * se


class TestBuildSPT:
    def test_one_index_per_person(self):
        spec, h = spec_and_hazards()
        cohort = draw_cohort(rng(), spec, h, 777)
        spt = build_spt(cohort, assign_treatments(rng(1), cohort, spec))
        assert len(spt) == 777
        assert (spt.index_visit == 1).all()
        assert not spt.censored.any()
        assert np.isin(spt.futime, (1, 2)).all()

    def test_hand_cohort_follow_up(self):
        spt = build_spt(hand_cohort(), hand_assignment())
        # person 1 untreated: never-initiate outcome at year 1
        assert (spt.futime[1], bool(spt.event[1])) == (1, True)
        # person 0 treated arm: no arm-1 outcomes -> follow-up ends at horizon
        assert (spt.futime[0], bool(spt.event[0])) == (2, False)
        # person 2 untreated: event at year 2
        assert (spt.futime[2], bool(spt.event[2])) == (2, True)
        # person 3 treated arm: arm-1 outcomes never -> censored at horizon
        assert (spt.futime[3], bool(spt.event[3])) == (2, False)
        # person 5 treated arm: arm-1 outcome at visit 1 -> event year 1
        assert (spt.futime[5], bool(spt.event[5])) == (1, True)

    def test_event_beyond_horizon_is_not_counted(self):
        # person with the never-initiate outcome only at year 3
        cohort = hand_cohort()
        a = hand_assignment()
        spt = build_spt(cohort, a)
        # person 3 under the untreated arm would event at year 3; arm is
        # treated here, so force the untreated arm instead
        a.spt_arm[3] = False
        spt = build_spt(cohort, a)
        assert (spt.futime[3], bool(spt.event[3])) == (2, False)


class TestBuildEsnt:
    def test_hand_cohort_cal(self):
        cal = build_esnt_cal(hand_cohort(), hand_assignment())
        # Visit 1 block is persons 0..5, Visit 2 block: persons 0, 2, 3
        assert list(cal.person_id) == [0, 1, 2, 3, 4, 5, 0, 2, 3]
        assert list(cal.index_visit) == [1, 1, 1, 1, 1, 1, 2, 2, 2]

        # person 0: untreated V1 index censored at initiation, and a treated
        # Visit 2 index with no events anywhere: full two-year follow-up
        assert (cal.futime[0], bool(cal.event[0]), bool(cal.censored[0])) == (1, False, True)
        assert bool(cal.treated[6]) and (cal.futime[6], bool(cal.event[6])) == (2, False)

        # person 1: year-1 event wins, no Visit 2 index
        assert (cal.futime[1], bool(cal.event[1]), bool(cal.censored[1])) == (1, True, False)

        # person 2: untreated with event at year 2: V1 index events at 2y,
        # V2 index sees the same calendar event at offset 1
        assert (cal.futime[2], bool(cal.event[2]), bool(cal.censored[2])) == (2, True, False)
        assert not cal.treated[7] and (cal.futime[7], bool(cal.event[7])) == (1, True)

        # person 3: event at year 3 is beyond the V1 window but inside the
        # V2 window
        assert (cal.futime[3], bool(cal.event[3])) == (2, False)
        assert not cal.treated[8] and (cal.futime[8], bool(cal.event[8])) == (2, True)

        # persons 4, 5 treated at V1: single index each, following sustained
        # initiation
        assert bool(cal.treated[4]) and (cal.futime[4], bool(cal.event[4])) == (2, True)
        assert bool(cal.treated[5]) and (cal.futime[5], bool(cal.event[5])) == (1, True)

        # severity at index and at the next visit
        assert list(cal.severity_at_index[6:]) == [0, 1, 0]
        assert list(cal.severity_next[6:]) == [1, 1, 0]

    def test_hand_cohort_td_gates_untreated_reindexing(self):
        td = build_esnt_td(hand_cohort(), hand_assignment())
        # person 3 has no decision point: present in CAL's V2 block, absent here
        assert list(td.person_id) == [0, 1, 2, 3, 4, 5, 0, 2]
        cal = build_esnt_cal(hand_cohort(), hand_assignment())
        assert set(zip(td.person_id, td.index_visit)) <= set(
            zip(cal.person_id, cal.index_visit)
        )

    def test_treated_at_visit1_contributes_single_index(self):
        spec, h = spec_and_hazards("S2")
        cohort = draw_cohort(rng(8), spec, h, 30000)
        a = assign_treatments(rng(9), cohort, spec)
        cal = build_esnt_cal(cohort, a)
        treated_v1 = set(np.flatnonzero(a.a1))
        v2_people = set(cal.person_id[cal.index_visit == 2])
        assert not (treated_v1 & v2_people)

    def test_count_identities(self):
        for name in ("S1", "S3"):
            spec, h = spec_and_hazards(name)
            cohort = draw_cohort(rng(10), spec, h, 20000)
            a = assign_treatments(rng(11), cohort, spec)
            alive = cohort.event_time[:, PATTERN_NEVER] != 1
            cal = build_esnt_cal(cohort, a)
            td = build_esnt_td(cohort, a)
            assert len(cal) == len(cohort) + int((~a.a1 & alive).sum())
            assert len(td) == len(cohort) + int((~a.a1 & alive & cohort.decision2).sum())

    def test_td_subset_and_equal_treated_sets(self):
        spec, h = spec_and_hazards("S4")
        cohort = draw_cohort(rng(12), spec, h, 20000)
        a = assign_treatments(rng(13), cohort, spec)
        cal = build_esnt_cal(cohort, a)
        td = build_esnt_td(cohort, a)
        cal_keys = set(zip(cal.person_id, cal.index_visit))
        td_keys = set(zip(td.person_id, td.index_visit))
        assert td_keys <= cal_keys
        cal_treated = set(zip(cal.person_id[cal.treated], cal.index_visit[cal.treated]))
        td_treated = set(zip(td.person_id[td.treated], td.index_visit[td.treated]))
        assert cal_treated == td_treated

    def test_td_equals_cal_when_decision_certain(self):
        spec, h = spec_and_hazards()
        spec = spec._replace(decision_prob=(1.0, 1.0))
        cohort = draw_cohort(rng(14), spec, h, 10000)
        a = assign_treatments(rng(15), cohort, spec)
        cal = build_esnt_cal(cohort, a)
        td = build_esnt_td(cohort, a)
        for field in ("person_id", "index_visit", "severity_at_index", "treated",
                      "futime", "event", "censored", "severity_next"):
            assert np.array_equal(getattr(cal, field), getattr(td, field))

    def test_record_invariants(self):
        spec, h = spec_and_hazards("S3")
        cohort = draw_cohort(rng(16), spec, h, 30000)
        a = assign_treatments(rng(17), cohort, spec)
        for idx in (build_spt(cohort, a), build_esnt_cal(cohort, a), build_esnt_td(cohort, a)):
            assert not (idx.event & idx.censored).any()
            assert not idx.censored[idx.treated].any()
            assert not idx.censored[idx.index_visit == 2].any()
            assert np.isin(idx.futime, (1, 2)).all()
            no_end = ~idx.event & ~idx.censored
            assert (idx.futime[no_end] == 2).all()
            # follow-up from an index's own visit: Visit 2 indexes never use
            # outcomes before Visit 2, so nobody there can have the year-1
            # never-initiate event
            v2 = idx.index_visit == 2
            assert (cohort.event_time[idx.person_id[v2], PATTERN_NEVER] != 1).all()


class TestCountTable:
    def test_cells_and_weight_sums(self):
        def rec(pid, visit, sev, treated, futime, event):
            return IndexRow(pid, visit, sev, treated, futime, event,
                            censored=futime == 1 and not event, severity_next=0)

        idx = index_set(DESIGN_CAL, [
            rec(0, 1, 0, False, 1, True),  # person 0 initiates at Visit 2
            rec(0, 2, 1, True, 2, False),
            rec(1, 1, 1, False, 1, False),
            rec(5, 1, 0, False, 2, True),
            rec(5, 2, 0, False, 2, True),
        ])
        # year 2 weights; every year 1 weight is 1, so the counts are the
        # year 1 weight sums
        weights = np.array([1.0, 1.0, 2.5, 4.0, 3.0])
        table = count_table(idx, weights)
        counts, weight_sums = table.counts[0], table.weight_sums[0]
        # [initiator-person, arm, severity, state]
        cells = [(0, 0, 0, 2), (0, 0, 1, 1), (1, 0, 0, 0), (1, 1, 1, 3)]
        assert [tuple(c) for c in np.argwhere(counts)] == cells
        assert [tuple(c) for c in np.argwhere(weight_sums)] == cells
        assert [counts[c] for c in cells] == [2, 1, 1, 1]
        assert [weight_sums[c] for c in cells] == [7.0, 2.5, 1.0, 1.0]
        assert (table.n_people[0], table.n_initiators[0]) == (3, 1)
        unit = count_table(idx)
        assert np.array_equal(unit.weight_sums[0], unit.counts[0])


class TestDescribe:
    def test_replicate_rows_complete(self):
        spec, h = spec_and_hazards()
        cohort = draw_cohort(rng(18), spec, h, 4000)
        a = assign_treatments(rng(19), cohort, spec)
        rows = describe_replicate(
            build_spt(cohort, a), build_esnt_cal(cohort, a), build_esnt_td(cohort, a),
            len(cohort),
        )
        assert len(rows) == 3 * 4 * 2
        designs = {r.design for r in rows}
        assert designs == {DESIGN_SPT, DESIGN_CAL, DESIGN_TD}

    def test_spt_shares(self):
        spec, h = spec_and_hazards()
        n = 200_000
        cohort = draw_cohort(rng(20), spec, h, n)
        a = assign_treatments(rng(21), cohort, spec)
        rows = {
            (r.group, r.severity): r
            for r in describe_rows(build_spt(cohort, a), n)
        }
        assert rows[(GROUP_ALL, "high")].pct_high == pytest.approx(25.0, abs=0.75)
        assert rows[(GROUP_TREATED, "high")].pct_high == pytest.approx(25.0, abs=1.5)
        n_init = rows[(GROUP_INITIATOR, "low")].n_people
        assert n_init / n == pytest.approx(0.375, abs=0.01)
        assert rows[(GROUP_NONINITIATOR, "low")].n_people == n - n_init
        # one index per person: per-person averages are the severity shares
        assert rows[(GROUP_NONINITIATOR, "low")].avg_indexes_per_person == pytest.approx(
            0.75, abs=0.01
        )

    def test_initiator_group_counts_all_their_indexes(self):
        cal = build_esnt_cal(hand_cohort(), hand_assignment())
        rows = {(r.group, r.severity): r for r in describe_rows(cal, 6)}
        # initiators: persons 0, 4, 5; their indexes: three V1 (low, low,
        # high) plus person 0's treated V2 index (low)
        assert rows[(GROUP_INITIATOR, "low")].n_people == 3
        assert rows[(GROUP_INITIATOR, "low")].n_indexes == 3
        assert rows[(GROUP_INITIATOR, "high")].n_indexes == 1
        # non-initiators: persons 1, 2, 3 with V1 low x3, V2 high (person 2),
        # V2 low (person 3)
        assert rows[(GROUP_NONINITIATOR, "low")].n_indexes == 4
        assert rows[(GROUP_NONINITIATOR, "high")].n_indexes == 1
        assert rows[(GROUP_NONINITIATOR, "high")].avg_indexes_per_person == pytest.approx(1 / 3)
        # treated group: person 0's V2 index plus persons 4, 5 V1 indexes
        assert rows[(GROUP_TREATED, "low")].n_indexes == 2
        assert rows[(GROUP_TREATED, "high")].n_indexes == 1
        assert rows[(GROUP_TREATED, "high")].pct_high == pytest.approx(100 / 3)

    def test_single_person_cohort_degenerates_gracefully(self):
        spec, h = spec_and_hazards()
        cohort = draw_cohort(rng(22), spec, h, 1)
        a = assign_treatments(rng(23), cohort, spec)
        rows = describe_replicate(
            build_spt(cohort, a), build_esnt_cal(cohort, a), build_esnt_td(cohort, a), 1
        )
        for r in rows:
            assert r.n_people in (0, 1)
            if r.n_people == 0:
                assert math.isnan(r.avg_indexes_per_person)
