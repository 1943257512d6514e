"""Independent brute-force implementations used to check the package's
event times and estimators.

Everything here is deliberately written as plain Python loops over persons
and index rows (IndexRow, read off an index set's columns), with no shared
code paths with the package.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class IndexRow(NamedTuple):
    """One index of a design, as plain Python values."""

    person_id: int
    index_visit: int
    severity_at_index: int
    treated: bool
    futime: int
    event: bool
    censored: bool
    severity_next: int


def index_rows(idx):
    """The indexes of an index set as IndexRows, read off its columns."""
    columns = (getattr(idx, field).tolist() for field in IndexRow._fields)
    return [IndexRow(*row) for row in zip(*columns)]


def event_time_under_pattern(po, pattern):
    """Walk visits 1..3 applying the pattern's arm at each visit (pattern 0
    never initiates, 1 initiates at Visit 2, 2 at Visit 1); return the first
    year offset whose potential-outcome flag po[visit][arm] is set, else
    None."""
    arms = ((0, 0, 0), (0, 1, 1), (1, 1, 1))[pattern]
    for visit in range(3):
        if po[visit][arms[visit]]:
            return visit + 1
    return None


def bisect_root(f, lo=0.0, hi=1.0, iters=200):
    """Bisection root of a scalar function bracketed on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, "root not bracketed"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def km_risk_oracle(records, weights, tau=2):
    """Weighted product-limit risk over (futime, event) records.

    records: sequence of objects with .futime and .event
    weights: sequence of (w1, w2) pairs aligned with records
    """
    surv = 1.0
    for t in range(1, tau + 1):
        at_risk = [i for i, r in enumerate(records) if r.futime >= t]
        denom = sum(weights[i][t - 1] for i in at_risk)
        if denom <= 0:
            break
        num = sum(
            weights[i][t - 1]
            for i in at_risk
            if records[i].event and records[i].futime == t
        )
        surv = surv * (1.0 - num / denom)
    return 1.0 - surv


def stratified_km_oracle(records, weights, treated, severity=None, tau=2):
    picked = [
        (r, w)
        for r, w in zip(records, weights)
        if r.treated == treated
        and (severity is None or r.severity_at_index == severity)
    ]
    assert picked, "empty stratum in oracle"
    return km_risk_oracle([r for r, _ in picked], [w for _, w in picked], tau=tau)


def standardized_rr_oracle(records, weights, target, tau=2):
    """Direct-standardization risk ratio by hand arithmetic."""
    risk = {}
    for arm in (0, 1):
        total = 0.0
        for sev in (0, 1):
            total += target[sev] * stratified_km_oracle(
                records, weights, treated=bool(arm), severity=sev, tau=tau
            )
        risk[arm] = total
    return risk[1], risk[0], risk[1] / risk[0]


def censoring_weight_oracle(record, spec, mode="initiation"):
    """(w1, w2) of one index: only untreated Visit 1 indexes are weighted,
    by 1 / Pr(uncensored | severity at the next visit)."""
    if record.treated or record.index_visit != 1:
        return (1.0, 1.0)
    hazard = spec.treat_prob[record.severity_next]
    if mode != "paper_simplified":
        hazard = spec.decision_prob[record.severity_next] * hazard
    return (1.0, 1.0 / (1.0 - hazard))


def severity_shares_oracle(records, subset):
    """(low, high) shares of severity at index over all or treated records,
    or None when the subset is empty."""
    picked = [r for r in records if subset == "all" or r.treated]
    if not picked:
        return None
    n_high = sum(1 for r in picked if r.severity_at_index == 1)
    return (1.0 - n_high / len(picked), n_high / len(picked))


def _contrast_oracle(risk_treated, risk_untreated, flags, n_treated, n_untreated):
    rr = log_rr = math.nan
    if not flags:
        if risk_untreated == 0.0:
            flags.append("zero_risk_untreated")
        else:
            rr = risk_treated / risk_untreated
            if rr > 0.0:
                log_rr = math.log(rr)
            else:
                flags.append("zero_risk_treated")
    return (risk_treated, risk_untreated, rr, log_rr, n_treated, n_untreated,
            ";".join(flags))


def _design_rows_oracle(records, weights, targets):
    """One tuple per target: None is the crude contrast, a subset name whose
    shares are None is an empty target, and shares standardize."""
    n_treated = sum(1 for r in records if r.treated)
    n_untreated = len(records) - n_treated

    def risk(arm, severity=None):
        picked = [
            (r, w) for r, w in zip(records, weights)
            if r.treated == bool(arm)
            and (severity is None or r.severity_at_index == severity)
        ]
        if not picked:
            return None
        return km_risk_oracle([r for r, _ in picked], [w for _, w in picked])

    rows = []
    for subset, shares in targets:
        flags = []
        risks = [math.nan, math.nan]
        if subset is None:
            for arm in (0, 1):
                r = risk(arm)
                if r is None:
                    flags.append(f"empty_stratum:arm{arm}")
                else:
                    risks[arm] = r
        elif shares is None:
            flags.append(f"empty_target:{subset}")
        else:
            for arm in (0, 1):
                risks[arm] = 0.0
                for sev in (0, 1):
                    r = risk(arm, sev)
                    if r is None:
                        flags.append(f"empty_stratum:arm{arm}/sev{sev}")
                    else:
                        risks[arm] += shares[sev] * r
        rows.append(_contrast_oracle(risks[1], risks[0], flags, n_treated, n_untreated))
    return rows


def battery_oracle(cohort, spt, cal, td, spec, cal_weight_mode="initiation"):
    """The 14 (risk_treated, risk_untreated, rr, log_rr, n_treated,
    n_untreated, degenerate) tuples of one replicate, in battery order:
    the SPT's true, crude, ATE and ATT rows, then for each emulation its
    crude row and standardizations to its own and to the SPT's targets."""
    def events_by_year2(pattern):
        times = (event_time_under_pattern(po, pattern) for po in cohort.po)
        return sum(1 for t in times if t is not None and t <= 2)

    n = len(cohort)
    treated, untreated = events_by_year2(2), events_by_year2(0)
    if untreated == 0:
        rows = [(math.nan, math.nan, math.nan, math.nan, n, n, "undefined_truth")]
    else:
        rr = (treated / n) / (untreated / n)
        rows = [(treated / n, untreated / n, rr, math.log(rr) if rr > 0 else math.nan,
                 n, n, "" if rr > 0 else "zero_risk_treated")]

    spt_records = index_rows(spt)
    spt_targets = [(s, severity_shares_oracle(spt_records, s)) for s in ("all", "treated")]
    rows += _design_rows_oracle(
        spt_records, [(1.0, 1.0)] * len(spt_records), [(None, None)] + spt_targets
    )
    for idx, mode in ((cal, cal_weight_mode), (td, "initiation")):
        records = index_rows(idx)
        weights = [censoring_weight_oracle(r, spec, mode) for r in records]
        own = [(s, severity_shares_oracle(records, s)) for s in ("all", "treated")]
        rows += _design_rows_oracle(records, weights, [(None, None)] + own + spt_targets)
    return rows


def describe_oracle(idx, n_persons):
    """(design, group, severity, n_people, n_indexes, pct_high,
    avg_indexes_per_person) rows of one design, by plain loops."""
    records = index_rows(idx)
    initiators = {r.person_id for r in records if r.treated}
    groups = [
        ("all", len({r.person_id for r in records}), records),
        ("treated", len(initiators), [r for r in records if r.treated]),
        ("initiator-person", len(initiators),
         [r for r in records if r.person_id in initiators]),
        ("noninitiator-person", n_persons - len(initiators),
         [r for r in records if r.person_id not in initiators]),
    ]
    rows = []
    for group, n_people, picked in groups:
        n_by_sev = [sum(1 for r in picked if r.severity_at_index == z) for z in (0, 1)]
        total = n_by_sev[0] + n_by_sev[1]
        for z, label in ((0, "low"), (1, "high")):
            rows.append((
                idx.design, group, label, n_people, n_by_sev[z],
                100.0 * n_by_sev[1] / total if total else math.nan,
                n_by_sev[z] / n_people if n_people else math.nan,
            ))
    return rows


def draw_oracle(rng, spec, hazards, n):
    """The generative law and the treatment draws as plain arrays, stated
    without type codes: (severity, decision2, po, spt_arm, a1, init2)."""
    import numpy as np

    pi = spec.progression_prob
    s1 = rng.random(n) < spec.baseline_high_prob
    s2 = s1 | (rng.random(n) < pi)
    s3 = s2 | (rng.random(n) < pi)
    severity = np.stack([s1, s2, s3], axis=1).astype(np.int8)
    decision2 = rng.random(n) < np.asarray(spec.decision_prob)[severity[:, 1]]
    p = np.array([[hazards.p00, hazards.p01], [hazards.p10, hazards.p11]])
    po = rng.random((n, 3, 2)) < p.T[severity]
    tp = np.asarray(spec.treat_prob)
    spt_arm = rng.random(n) < spec.spt_treat_prob
    a1 = rng.random(n) < tp[severity[:, 0]]
    init2 = rng.random(n) < tp[severity[:, 1]]
    return severity, decision2, po, spt_arm, a1, init2
