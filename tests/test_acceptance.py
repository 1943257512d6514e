"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Desk scale is 1000 replicates of n = 5000 cohorts at the default seed (42);
criterion 10's range check additionally runs one scenario at the full 5000
replicates.

Criterion 10's MCSE-range clause is asserted exactly as specified and is
expected to fail: with 5000-person cohorts the per-replicate spread of the
log risk ratio is about 0.05-0.08, so the Monte Carlo standard error of the
bias at 5000 replicates is about 0.001, an order of magnitude below the
asserted [0.004, 0.010] window. See the analysis note shipped alongside the
repository history.
"""

import math
import time

import numpy as np
import pytest

from block_rows import cal_rows, index_set
from oracles import (
    IndexRow,
    severity_shares_oracle,
    standardized_rr_oracle,
    stratified_km_oracle,
)
from snt_lab.cells import DESCRIBE_LABELS, summarize, summarize_descriptives
from snt_lab.cli import main as cli_main
from snt_lab.config import RunConfig, WEIGHT_MODE_INITIATION, builtin_scenarios
from snt_lab.designs import count_table
from snt_lab.estimators import (
    ANALYSIS_LABELS,
    battery_block,
    censoring_weights,
    person_class_map,
)
from snt_lab.harness import class_probabilities, run_scenario
from snt_lab.hazards import (
    RESIDUAL_TOL,
    SolverInfeasible,
    enumerate_truth,
    solve,
    truth_tables,
)
from snt_lab.output import estimate_cells

ADJUSTED_ANALYSES = ("ate_snt", "att_snt", "ate_spt", "att_spt")


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def desk():
    """Desk-scale run: all four scenarios, 1000 replicates x n = 5000."""
    specs = builtin_scenarios()
    hazards = {s.scenario_id: solve(s).hazards for s in specs}
    truths = truth_tables(specs, hazards)
    run = RunConfig(n_individuals=5000, n_replicates=1000, master_seed=42)
    blocks, elapsed = [], {}
    for spec in specs:
        start = time.perf_counter()
        blocks += run_scenario(spec, run, hazards[spec.scenario_id])
        elapsed[spec.scenario_id] = time.perf_counter() - start
    rows = summarize(estimate_cells(blocks), truths)
    cells = {(r.scenario_id, r.design, r.analysis): r for r in rows}
    return {"blocks": blocks, "cells": cells, "elapsed": elapsed, "truths": truths}


def test_criterion_1_solver_exactness():
    start = time.perf_counter()
    reports = [solve(s) for s in builtin_scenarios(0.6)]
    elapsed = time.perf_counter() - start
    worst = max(r.max_abs_residual for r in reports)
    in_range = all(
        0.0 <= p <= 1.0
        for r in reports
        for p in (r.hazards.p00, r.hazards.p01, r.hazards.p10, r.hazards.p11)
    )
    s2_hi = {s.scenario_id: s for s in builtin_scenarios(0.78)}["S2"]
    raised = False
    try:
        solve(s2_hi)
    except SolverInfeasible:
        raised = True
    ok = in_range and worst < RESIDUAL_TOL and raised and elapsed < 1.0
    assert report(
        "criterion 1 (solver exactness)",
        ok,
        f"max residual {worst:.2e}, infeasible raised={raised}, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_homogeneous_truth():
    details = []
    ok = True
    for name in ("S1", "S3"):
        spec = {s.scenario_id: s for s in builtin_scenarios(0.6)}[name]
        t = enumerate_truth(spec, solve(spec).hazards)
        ok &= abs(t.rr - 0.70) < 1e-9
        ok &= abs(t.risk_treated - 0.1225) < 1e-9
        ok &= abs(t.risk_untreated - 0.1750) < 1e-9
        details.append(f"{name}: rr={t.rr:.9f}")
    assert report("criterion 2 (homogeneous truth)", ok, "; ".join(details))


def test_criterion_3_estimator_oracle():
    """The battery's eSNT-CAL rows of hand-enumerable count tables against
    the plain-loop oracles: the crude risks, the standardizations to the
    table's own all-index and treated-index populations, and ate_spt, whose
    SPT table has the severity shares (0.6, 0.4)."""
    spec = builtin_scenarios(0.6)[0]

    def rec(**kw):
        base = dict(person_id=0, index_visit=1, severity_at_index=0, treated=False,
                    futime=2, event=False, censored=False, severity_next=0)
        base.update(kw)
        return IndexRow(**base)

    worst = 0.0
    # the two-record weighted product-limit example: its treated arm is
    # empty, so the crude row is flagged, but the untreated risk is read
    records = [
        rec(person_id=0, futime=2, event=True, severity_next=1),
        rec(person_id=1, futime=2, event=False, severity_next=0),
    ]
    idx = index_set("eSNT-CAL", records)
    w = censoring_weights(idx, spec)
    crude = cal_rows(count_table(idx, w))["crude"]
    worst = max(worst, abs(
        crude.risk_untreated
        - stratified_km_oracle(records, np.column_stack([np.ones(2), w]), treated=False)
    ))

    # randomized hand-enumerable datasets, up to 12 indexes
    rng = np.random.default_rng(2024)
    target = (0.6, 0.4)
    for _ in range(40):
        n = int(rng.integers(4, 13))
        records = []
        for i in range(n):
            futime = int(rng.integers(1, 3))
            event = bool(rng.random() < 0.5)
            records.append(rec(
                person_id=i,
                treated=bool(i % 2),
                severity_at_index=int(rng.random() < 0.5),
                futime=futime,
                event=event,
                censored=(not event) and futime == 1 and bool(rng.random() < 0.4),
            ))
        # every (arm, stratum) cell must be populated for standardization
        records += [
            rec(person_id=n + j, treated=bool(t), severity_at_index=z, event=True, futime=1)
            for j, (t, z) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)])
        ]
        idx = index_set("eSNT-CAL", records)
        year2 = rng.uniform(0.8, 2.5, len(records))
        weights = np.column_stack([np.ones(len(records)), year2])
        rows = cal_rows(count_table(idx, year2), target)
        crude = rows["crude"]
        for treated, risk in ((True, crude.risk_treated), (False, crude.risk_untreated)):
            worst = max(worst, abs(risk - stratified_km_oracle(records, weights, treated)))
        for analysis, shares in (
            ("ate_snt", severity_shares_oracle(records, "all")),
            ("att_snt", severity_shares_oracle(records, "treated")),
            ("ate_spt", target),
        ):
            res = rows[analysis]
            rt, ru, rr = standardized_rr_oracle(records, weights, shares)
            worst = max(worst, abs(res.risk_treated - rt), abs(res.risk_untreated - ru),
                        abs(res.rr - rr))
    ok = worst < 1e-12
    assert report("criterion 3 (estimator oracle)", ok, f"max |diff| = {worst:.2e}")


def test_criterion_4_homogeneous_unbiasedness(desk):
    worst = 0.0
    for sid in ("S1", "S3"):
        for design, analysis in [
            ("SPT", "ate_spt"), ("SPT", "att_spt"),
            ("eSNT-CAL", "ate_snt"), ("eSNT-CAL", "att_snt"),
            ("eSNT-CAL", "ate_spt"), ("eSNT-CAL", "att_spt"),
            ("eSNT-TD", "ate_snt"), ("eSNT-TD", "att_snt"),
            ("eSNT-TD", "ate_spt"), ("eSNT-TD", "att_spt"),
        ]:
            row = desk["cells"][(sid, design, analysis)]
            worst = max(worst, abs(row.bias) / row.mcse_bias)
    runtime = desk["elapsed"]["S1"] + desk["elapsed"]["S3"]
    ok = worst < 3.0 and runtime < 60.0
    assert report(
        "criterion 4 (homogeneous unbiasedness)",
        ok,
        f"max |bias|/mcse = {worst:.2f}, S1+S3 runtime {runtime:.1f}s in one process",
    )


def test_criterion_5_confounding_direction(desk):
    ratios = []
    ok = True
    for sid in ("S1", "S2", "S3", "S4"):
        for design in ("eSNT-CAL", "eSNT-TD"):
            row = desk["cells"][(sid, design, "crude")]
            ratios.append(row.bias / row.mcse_bias)
            ok &= row.bias > 0 and row.bias > 3 * row.mcse_bias
    assert report(
        "criterion 5 (crude confounding bias positive)",
        ok,
        f"bias/mcse range [{min(ratios):.0f}, {max(ratios):.0f}]",
    )


def test_criterion_6_heterogeneity_ordering(desk):
    ok = True
    details = []
    for sid in ("S2", "S4"):
        for design in ("eSNT-CAL", "eSNT-TD"):
            ate = desk["cells"][(sid, design, "ate_snt")]
            att = desk["cells"][(sid, design, "att_snt")]
            ok &= att.bias > ate.bias > 3 * ate.mcse_bias
            for analysis in ("ate_spt", "att_spt"):
                row = desk["cells"][(sid, design, analysis)]
                ok &= abs(row.bias) < 3 * row.mcse_bias
            details.append(f"{sid}/{design}: att {att.bias:+.3f} > ate {ate.bias:+.3f}")
    assert report("criterion 6 (heterogeneity ordering)", ok, "; ".join(details))


def test_criterion_7_precision_ordering(desk):
    ok = True
    details = []
    for sid in ("S1", "S2", "S3", "S4"):
        spt_ese = desk["cells"][(sid, "SPT", "crude")].ese
        cal_ate = desk["cells"][(sid, "eSNT-CAL", "ate_snt")].ese
        cal_att = desk["cells"][(sid, "eSNT-CAL", "att_snt")].ese
        ok &= cal_ate < spt_ese and cal_att < spt_ese
        details.append(f"{sid}: {max(cal_ate, cal_att):.3f} < {spt_ese:.3f}")
    assert report("criterion 7 (precision ordering)", ok, "; ".join(details))


def delta_method_ese(spec, n):
    """Law-level ESE of every analysis of an n-person cohort: the
    delta-method standard deviation sqrt(sum_i p_i J_i^2 / n) of each log RR
    as a function of the class frequencies p (Bishop, Fienberg & Holland
    1975, ch. 14), with the gradient J from central differences of step
    1e-2 x p_i. The log RRs do not change when all counts are scaled, so the
    multinomial covariance term p p' drops out. Every difference is one row
    of one battery_block call over frequency-weighted class counts."""
    hazards = solve(spec).hazards
    p = class_probabilities(spec, hazards, WEIGHT_MODE_INITIATION)
    classes = person_class_map(spec, WEIGHT_MODE_INITIATION)
    assert (p > 0).all()
    step = np.diag(1e-2 * p)
    block = battery_block(*classes.blocks(np.vstack([p, p + step, p - step])), n)
    assert (block.degenerate == "").all()
    k = len(p)
    gradient = (block.log_rr[1 : k + 1] - block.log_rr[k + 1 :]) / (2e-2 * p[:, None])
    return np.sqrt((p[:, None] * gradient**2).sum(axis=0) / n)


def test_criterion_7_law_level_precision_ordering(desk):
    """Criterion 7 on the law: the delta-method ESEs at n = 5000 order the
    designs as the Monte Carlo ESEs should, and agree with the desk run's."""
    column = {label[:2]: j for j, label in enumerate(ANALYSIS_LABELS)}
    cells = (("SPT", "crude"), ("eSNT-CAL", "ate_snt"), ("eSNT-CAL", "att_snt"))
    ok = True
    details = []
    for spec in builtin_scenarios():
        ese = delta_method_ese(spec, 5000)
        spt, ate, att = (ese[column[cell]] for cell in cells)
        ok &= ate < spt and att < spt
        for cell in cells:
            mc = desk["cells"][(spec.scenario_id, *cell)].ese
            ok &= abs(mc / ese[column[cell]] - 1.0) < 0.1
        details.append(f"{spec.scenario_id}: {ate:.4f}/{att:.4f} < {spt:.4f}")
    assert report("criterion 7 law level (precision ordering)", ok, "; ".join(details))


def test_criterion_8_descriptive_calibration():
    spec = builtin_scenarios(0.78)[0]
    run = RunConfig(n_individuals=5000, n_replicates=200, master_seed=42)
    blocks = run_scenario(spec, run, solve(spec).hazards)
    # summarize_descriptives' cells: per label, the blocks' column of each statistic
    columns = [np.concatenate(parts) for parts in zip(*(b.descriptives for b in blocks))]
    cells = {
        (spec.scenario_id, *label): [column[:, j].tolist() for column in columns]
        for j, label in enumerate(DESCRIBE_LABELS)
    }
    medians = {
        (r.design, r.group): r.median
        for r in summarize_descriptives(cells)
        if r.statistic == "pct_high" and r.severity == "high"
    }
    cal_all = medians[("eSNT-CAL", "all")]
    cal_treated = medians[("eSNT-CAL", "treated")]
    spt_all = medians[("SPT", "all")]
    spt_treated = medians[("SPT", "treated")]
    ok = (
        abs(cal_all - 44.0) <= 2.0
        and abs(cal_treated - 60.0) <= 2.0
        and abs(spt_all - 25.0) <= 1.0
        and abs(spt_treated - 25.0) <= 1.0
    )
    assert report(
        "criterion 8 (descriptive calibration)",
        ok,
        f"CAL all {cal_all:.1f}% (44+-2), CAL treated {cal_treated:.1f}% (60+-2), "
        f"SPT {spt_all:.1f}/{spt_treated:.1f}% (25+-1)",
    )


def test_criterion_9_thread_determinism(tmp_path):
    outputs = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        code = cli_main([
            "simulate", "--scenario", "S1", "--reps", "30", "--n", "400",
            "--seed", "42", "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        outputs[threads] = (
            (out / "estimates.csv").read_bytes(),
            (out / "summary.csv").read_bytes(),
        )
    ok = outputs[1] == outputs[4] == outputs[8]
    assert report(
        "criterion 9 (thread determinism)",
        ok,
        "estimates.csv and summary.csv byte-identical across threads 1/4/8",
    )


def test_criterion_10_metric_identities(desk):
    worst_identity = 0.0
    worst_mcse = 0.0
    # independently recompute Table-style MCSE from the raw estimates of
    # every block of each cell
    by_cell = {}
    for block in desk["blocks"]:
        for j, (design, analysis, _target) in enumerate(ANALYSIS_LABELS):
            usable = block.analyses.degenerate[:, j] == ""
            key = (block.scenario_id, design, analysis)
            by_cell.setdefault(key, []).append(block.analyses.log_rr[usable, j])
    miscounted = []
    for key, row in desk["cells"].items():
        n = row.n_effective
        identity_gap = abs(row.rmse**2 - (row.bias**2 + (n - 1) / n * row.ese**2))
        worst_identity = max(worst_identity, identity_gap)
        values = np.concatenate(by_cell[key])
        if len(values) != n:
            miscounted.append(key)
            continue
        direct = math.sqrt(((values - values.mean()) ** 2).sum() / (n * (n - 1)))
        worst_mcse = max(worst_mcse, abs(row.mcse_bias - direct))
    ok = worst_identity < 1e-9 and worst_mcse < 1e-12 and not miscounted
    assert report(
        "criterion 10 (metric identities)",
        ok,
        f"max identity gap {worst_identity:.2e}, max mcse gap {worst_mcse:.2e}, "
        f"cells whose usable replicates are not n_effective: {miscounted}",
    )


def test_criterion_10_full_scale_mcse_range():
    """Asserted as specified; expected to fail (see module docstring)."""
    specs = builtin_scenarios()
    spec = specs[0]
    hazards = solve(spec).hazards
    run = RunConfig(n_individuals=5000, n_replicates=5000, master_seed=42)
    blocks = run_scenario(spec, run, hazards)
    rows = summarize(estimate_cells(blocks), truth_tables([spec], {"S1": hazards}))
    mcses = [r.mcse_bias for r in rows]
    lo, hi = min(mcses), max(mcses)
    ok = all(0.004 <= m <= 0.010 for m in mcses)
    assert report(
        "criterion 10 (full-scale mcse range)",
        ok,
        f"mcse_bias range [{lo:.5f}, {hi:.5f}] vs asserted [0.004, 0.010]; "
        "a log-RR spread of 0.05-0.08 per 5000-person replicate caps the MCSE "
        "near 0.001 at 5000 replicates",
    )
