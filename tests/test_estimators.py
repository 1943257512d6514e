import math

import numpy as np
import pytest

from block_rows import cal_rows, index_set
from oracles import (
    IndexRow,
    index_rows,
    km_risk_oracle,
    severity_shares_oracle,
    standardized_rr_oracle,
    stratified_km_oracle,
)
from snt_lab.cells import ANALYSES
from snt_lab.config import WEIGHT_MODE_INITIATION, WEIGHT_MODE_PAPER, builtin_scenarios
from snt_lab.designs import (
    DESIGN_CAL,
    DESIGN_SPT,
    assign_treatments,
    build_esnt_cal,
    build_esnt_td,
    build_spt,
    count_table,
)
from snt_lab.estimators import (
    DegenerateWeightError,
    EmptyRiskSetError,
    analyze_replicate,
    censoring_weights,
    ipcw_km_risk,
)
from snt_lab.hazards import solve
from snt_lab.population import draw_cohort


def spec_and_hazards(name="S1", pi=0.6):
    spec = {s.scenario_id: s for s in builtin_scenarios(pi)}[name]
    return spec, solve(spec).hazards


def record(person_id=0, index_visit=1, severity_at_index=0, treated=False,
           futime=2, event=False, censored=False, severity_next=0):
    return IndexRow(
        person_id=person_id, index_visit=index_visit,
        severity_at_index=severity_at_index, treated=treated, futime=futime,
        event=event, censored=censored, severity_next=severity_next,
    )


def dataset(records, design=DESIGN_CAL):
    return index_set(design, records)


class TestCensoringWeights:
    def test_treated_and_visit2_indexes_are_unweighted(self):
        spec, _ = spec_and_hazards("S3")
        idx = dataset([
            record(treated=True, severity_next=1),
            record(index_visit=2, severity_next=1),
            record(index_visit=2, treated=True, severity_next=1),
        ])
        w = censoring_weights(idx, spec)
        assert np.array_equal(w, np.ones(3))

    def test_untreated_visit1_weights_s1(self):
        spec, _ = spec_and_hazards("S1")
        idx = dataset([record(severity_next=1), record(severity_next=0)])
        w = censoring_weights(idx, spec)
        assert w.shape == (2,)
        # 1 / (1 - 0.3 * 0.75) and 1 / (1 - 0.3 * 0.25)
        assert w[0] == pytest.approx(1.2903225806451613, abs=1e-12)
        assert w[1] == pytest.approx(1.0810810810810811, abs=1e-12)

    def test_untreated_visit1_weights_s3(self):
        spec, _ = spec_and_hazards("S3")
        w = censoring_weights(dataset([record(severity_next=1), record(severity_next=0)]), spec)
        assert w[0] == pytest.approx(2.5, abs=1e-12)
        assert w[1] == pytest.approx(1.0526315789473684, abs=1e-12)

    def test_simplified_mode_drops_decision_term(self):
        spec, _ = spec_and_hazards("S3")
        w = censoring_weights(dataset([record(severity_next=1)]), spec, WEIGHT_MODE_PAPER)
        assert w[0] == pytest.approx(4.0, abs=1e-12)  # 1 / (1 - 0.75)

    def test_certain_censoring_is_degenerate(self):
        spec, _ = spec_and_hazards("S1")
        spec = spec._replace(decision_prob=(1.0, 1.0), treat_prob=(0.5, 1.0))
        with pytest.raises(DegenerateWeightError):
            censoring_weights(dataset([record(severity_next=1)]), spec)

    def test_certain_censoring_of_uncensorable_indexes_is_harmless(self):
        spec, _ = spec_and_hazards("S1")
        spec = spec._replace(decision_prob=(1.0, 1.0), treat_prob=(0.5, 1.0))
        idx = dataset([
            record(treated=True, severity_next=1),
            record(index_visit=2, severity_next=1),
            record(severity_next=0),
        ])
        w = censoring_weights(idx, spec)
        assert w.tolist() == [1.0, 1.0, 2.0]

    def test_unknown_mode_rejected(self):
        spec, _ = spec_and_hazards("S1")
        with pytest.raises(ValueError):
            censoring_weights(dataset([record()]), spec, "bogus")


class TestIpcwKmRisk:
    def test_two_record_weighted_example(self):
        # index A: event at year 2, next-visit severity high; index B: no
        # event, next-visit severity low (weights from the S1 decision and
        # initiation probabilities)
        spec, _ = spec_and_hazards("S1")
        idx = dataset([
            record(person_id=0, futime=2, event=True, severity_next=1),
            record(person_id=1, futime=2, event=False, severity_next=0),
        ])
        w = censoring_weights(idx, spec)
        risk = ipcw_km_risk(idx, w, treated=False)
        wa, wb = 1.2903225806451613, 1.0810810810810811
        assert risk == pytest.approx(wa / (wa + wb), abs=1e-12)
        assert risk == pytest.approx(0.5441176470588236, abs=1e-10)
        oracle = km_risk_oracle(index_rows(idx), np.column_stack([np.ones(2), w]))
        assert risk == pytest.approx(oracle, abs=1e-15)

    def test_reduces_to_empirical_proportion_without_censoring(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            recs = [
                record(person_id=i, futime=int(rng.integers(1, 3)), event=bool(rng.random() < 0.5))
                for i in range(n)
            ]
            recs = [
                r if r.event or r.futime == 2 else r._replace(futime=2)
                for r in recs
            ]
            idx = dataset(recs)
            unit = np.ones(n)
            expected = sum(r.event for r in recs) / n
            assert ipcw_km_risk(idx, unit, treated=False) == pytest.approx(expected, abs=1e-12)

    def test_matches_oracle_on_random_small_datasets(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 13))
            recs = []
            for i in range(n):
                futime = int(rng.integers(1, 3))
                event = bool(rng.random() < 0.4) if futime in (1, 2) else False
                censored = (not event) and futime == 1 and bool(rng.random() < 0.5)
                recs.append(
                    record(
                        person_id=i,
                        treated=bool(rng.random() < 0.5),
                        severity_at_index=int(rng.random() < 0.5),
                        futime=futime,
                        event=event,
                        censored=censored,
                    )
                )
            idx = dataset(recs)
            w = rng.uniform(0.5, 3.0, n)
            for treated in (False, True):
                picked = [r for r in recs if r.treated == treated]
                if not picked:
                    with pytest.raises(EmptyRiskSetError):
                        ipcw_km_risk(idx, w, treated=treated)
                    continue
                expected = stratified_km_oracle(
                    recs, np.column_stack([np.ones(n), w]), treated=treated
                )
                assert ipcw_km_risk(idx, w, treated=treated) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_invariant_to_weight_rescaling(self):
        spec, h = spec_and_hazards("S3")
        cohort = draw_cohort(np.random.default_rng(3), spec, h, 5000)
        a = assign_treatments(np.random.default_rng(4), cohort, spec)
        cal = build_esnt_cal(cohort, a)
        w = censoring_weights(cal, spec)
        for arm in (False, True):
            base = ipcw_km_risk(cal, w, treated=arm)
            assert ipcw_km_risk(cal, w * 17.3, treated=arm) == pytest.approx(
                base, abs=1e-12
            )

    def test_empty_year2_risk_set_keeps_year1_value(self):
        idx = dataset([record(futime=1, event=True), record(futime=1, censored=True)])
        unit = np.ones(2)
        assert ipcw_km_risk(idx, unit, treated=False) == pytest.approx(0.5, abs=1e-15)


class TestSeverityDistribution:
    def test_empirical_shares(self):
        records = [
            record(severity_at_index=0), record(severity_at_index=0),
            record(severity_at_index=1), record(severity_at_index=1, treated=True),
        ]
        assert severity_shares_oracle(records, "all") == (0.5, 0.5)
        assert severity_shares_oracle(records, "treated") == (0.0, 1.0)

    def test_point_mass(self):
        assert severity_shares_oracle([record(severity_at_index=1)], "all") == (0.0, 1.0)

    def test_shares_sum_to_one(self):
        spec, h = spec_and_hazards("S2")
        cohort = draw_cohort(np.random.default_rng(5), spec, h, 10000)
        a = assign_treatments(np.random.default_rng(6), cohort, spec)
        for subset in ("all", "treated"):
            low, high = severity_shares_oracle(index_rows(build_esnt_td(cohort, a)), subset)
            assert low + high == pytest.approx(1.0, abs=1e-12)


def proportions_dataset():
    """Stratum risks exactly: treated (0.10, 0.30), untreated (0.20, 0.40)."""
    recs = []
    quota = {
        (True, 0, 0.10): 10, (True, 1, 0.30): 10,
        (False, 0, 0.20): 10, (False, 1, 0.40): 10,
    }
    pid = 0
    for (treated, sev, risk), n in quota.items():
        events = round(risk * n)
        for i in range(n):
            recs.append(
                record(person_id=pid, treated=treated, severity_at_index=sev,
                       futime=2, event=i < events)
            )
            pid += 1
    return dataset(recs)


class TestStandardizedRR:
    def test_hand_arithmetic_example(self):
        idx = proportions_dataset()
        unit = np.ones(len(idx))
        res = cal_rows(count_table(idx), (0.5, 0.5))["ate_spt"]
        assert res.risk_treated == pytest.approx(0.20, abs=1e-12)
        assert res.risk_untreated == pytest.approx(0.30, abs=1e-12)
        assert res.rr == pytest.approx(2 / 3, abs=1e-12)
        rt, ru, rr = standardized_rr_oracle(
            index_rows(idx), np.column_stack([unit, unit]), (0.5, 0.5)
        )
        assert (res.risk_treated, res.risk_untreated, res.rr) == pytest.approx(
            (rt, ru, rr), abs=1e-15
        )

    def test_point_mass_target_selects_stratum(self):
        res = cal_rows(count_table(proportions_dataset()), (1.0, 0.0))["ate_spt"]
        assert res.rr == pytest.approx(0.5, abs=1e-12)

    def test_idle_under_homogeneous_stratum_risks(self):
        recs = []
        for sev in (0, 1):
            for treated in (False, True):
                risk = 0.1 if treated else 0.2
                for i in range(10):
                    recs.append(
                        record(person_id=len(recs), treated=treated,
                               severity_at_index=sev, event=i < round(risk * 10))
                    )
        table = count_table(dataset(recs))
        for target in ((0.5, 0.5), (0.9, 0.1), (0.0, 1.0)):
            rows = cal_rows(table, target)
            assert rows["ate_spt"].rr == pytest.approx(rows["crude"].rr, abs=1e-12)

    def test_standardized_risk_within_stratum_range(self):
        rng = np.random.default_rng(9)
        spec, h = spec_and_hazards("S4")
        cohort = draw_cohort(rng, spec, h, 20000)
        a = assign_treatments(rng, cohort, spec)
        cal = build_esnt_cal(cohort, a)
        w = censoring_weights(cal, spec)
        for target in ((0.3, 0.7), (0.75, 0.25)):
            res = cal_rows(count_table(cal, w), target)["ate_spt"]
            for arm, std in ((1, res.risk_treated), (0, res.risk_untreated)):
                lo = min(ipcw_km_risk(cal, w, bool(arm), severity=z) for z in (0, 1))
                hi = max(ipcw_km_risk(cal, w, bool(arm), severity=z) for z in (0, 1))
                assert lo - 1e-12 <= std <= hi + 1e-12

    def test_empty_stratum_sets_flag(self):
        idx = dataset([
            record(treated=True, severity_at_index=0, event=True, futime=1),
            record(treated=False, severity_at_index=0),
        ])
        res = cal_rows(count_table(idx), (0.5, 0.5))["ate_spt"]
        assert "empty_stratum" in res.degenerate
        assert math.isnan(res.rr)

    def test_zero_risk_flags(self):
        idx = dataset([
            record(treated=True), record(treated=False),
        ])
        res = cal_rows(count_table(idx))["crude"]
        assert "zero_risk_untreated" in res.degenerate
        idx = dataset([
            record(treated=True), record(treated=False, futime=1, event=True),
        ])
        res = cal_rows(count_table(idx))["crude"]
        assert res.rr == 0.0
        assert math.isnan(res.log_rr)
        assert "zero_risk_treated" in res.degenerate


class TestAnalyzeReplicate:
    def battery(self, name="S1", n=4000, seed=7, mode=WEIGHT_MODE_INITIATION, pi=0.6):
        spec, h = spec_and_hazards(name, pi)
        rng = np.random.default_rng(seed)
        cohort = draw_cohort(rng, spec, h, n)
        a = assign_treatments(rng, cohort, spec)
        return analyze_replicate(
            cohort,
            build_spt(cohort, a),
            build_esnt_cal(cohort, a),
            build_esnt_td(cohort, a),
            spec,
            mode,
        )

    def test_battery_shape(self):
        results = self.battery()
        assert len(results) == 14
        labels = [(r.design, r.analysis) for r in results]
        assert labels[:4] == [
            ("SPT", "true_rr"), ("SPT", "crude"), ("SPT", "ate_spt"), ("SPT", "att_spt"),
        ]
        for design in ("eSNT-CAL", "eSNT-TD"):
            assert [(design, a) for a in ("crude", "ate_snt", "att_snt", "ate_spt", "att_spt")] == [
                l for l in labels if l[0] == design
            ]
        assert all(r.analysis in ANALYSES for r in results)

    def test_spt_standardization_consistent_under_homogeneous_risks(self):
        # with equal stratum risks, crude and both standardizations agree
        idx = dataset([
            record(person_id=i, treated=t, severity_at_index=z, event=(i % 5 == 0))
            for i, (t, z) in enumerate(
                [(t, z) for t in (False, True) for z in (0, 1) for _ in range(10)]
            )
        ], DESIGN_SPT)
        # ate_snt and att_snt standardize to the table's own all-index and
        # treated-index severity shares
        rows = cal_rows(count_table(idx))
        for analysis in ("ate_snt", "att_snt"):
            assert rows[analysis].rr == pytest.approx(rows["crude"].rr, abs=1e-12)

    def test_homogeneous_world_estimates_delta(self):
        # no severity imbalance can arise: equal treatment and decision
        # probabilities, no progression, one shared risk ratio
        spec, _ = spec_and_hazards("S1")
        spec = spec._replace(
            progression_prob=0.0,
            treat_prob=(0.4, 0.4),
            decision_prob=(0.5, 0.5),
            delta=(0.6, 0.6),
            spt_treat_prob=0.4,
        )
        h = solve(spec).hazards
        log_rrs = []
        rng = np.random.default_rng(11)
        for _ in range(30):
            cohort = draw_cohort(rng, spec, h, 20000)
            a = assign_treatments(rng, cohort, spec)
            results = analyze_replicate(
                cohort, build_spt(cohort, a), build_esnt_cal(cohort, a),
                build_esnt_td(cohort, a), spec,
            )
            log_rrs.append(
                [r.log_rr for r in results
                 if r.analysis in ("ate_snt", "att_snt", "ate_spt", "att_spt")]
            )
        arr = np.array(log_rrs)
        mean = arr.mean(axis=0)
        mcse = arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
        assert (np.abs(mean - math.log(0.6)) < 3.5 * mcse).all()

    def test_no_initiation_world_has_unit_weights(self):
        spec, h = spec_and_hazards("S1")
        spec = spec._replace(decision_prob=(0.0, 0.0))
        rng = np.random.default_rng(13)
        cohort = draw_cohort(rng, spec, h, 20000)
        a = assign_treatments(rng, cohort, spec)
        cal = build_esnt_cal(cohort, a)
        w = censoring_weights(cal, spec)
        assert np.array_equal(w, np.ones(len(cal)))
        assert cal_rows(count_table(cal, w))["crude"].rr == cal_rows(count_table(cal))["crude"].rr

    def test_replicate_never_dropped_on_degenerate_cohort(self):
        results = self.battery(n=1, seed=3)
        assert len(results) == 14
        assert any(r.degenerate for r in results)

    def test_td_untreated_counts_smaller_than_cal(self):
        results = {(r.design, r.analysis): r for r in self.battery(name="S3")}
        assert (
            results[("eSNT-TD", "crude")].n_untreated
            < results[("eSNT-CAL", "crude")].n_untreated
        )
        assert (
            results[("eSNT-TD", "crude")].n_treated
            == results[("eSNT-CAL", "crude")].n_treated
        )
