"""The class-count draw against its law, and the class map against the
person-level path.

A replicate is one multinomial draw of its cohort's count of each class of
person types (estimators.person_class_map), over class probabilities
factored into a base-type law (population.base_type_probabilities) and a
treatment law given the base type (designs.treatment_probabilities). These
tests check the factors against the product of the Bernoulli probabilities
of each type's draws (type_probabilities); the pooled class counts of many
replicates against the class law, with and without a finite pool; that a
table map's columns count each person's indexes in the group of their cell
and weight; that the class map, expanded to types, holds the rows that the
builders, the censoring rule and table_map give each type, and that its
flag columns equal their definitions; that specs which differ only in what
the map does not read share one map; that a cohort drawn by the plain-array
oracle and tabulated into class counts gives, through the scenario block,
the rows of the person-level path; that a scenario block equals the one-row
blocks of its replicates' counts; and that the class law that simulate
draws from, through the map, gives the enumerated truth.
"""

import math

import numpy as np
import pytest

from block_rows import replicate_rows
from oracles import draw_oracle
from snt_lab import harness
from snt_lab.config import (
    RunConfig,
    WEIGHT_MODE_INITIATION,
    WEIGHT_MODE_PAPER,
    builtin_scenarios,
)
from snt_lab.designs import (
    N_TYPES,
    TreatmentAssignment,
    assign_treatments,
    build_esnt_cal,
    build_esnt_td,
    build_spt,
    describe_block,
    describe_replicate,
    table_map,
    treatment_probabilities,
    type_cohort,
)
from snt_lab.estimators import (
    analyze_replicate,
    battery_block,
    censoring_weights,
    person_class_map,
)
from snt_lab.harness import (
    class_probabilities,
    draw_superpopulation,
    run_replicate,
    run_scenario,
    scenario_block,
)
from snt_lab.hazards import enumerate_truth, solve
from snt_lab.population import (
    HIGH,
    PATTERN_NEVER,
    Cohort,
    base_type_probabilities,
    draw_cohort,
    pattern_events,
)

SPECS = {s.scenario_id: s for s in builtin_scenarios()}
HAZARDS = {sid: solve(spec).hazards for sid, spec in SPECS.items()}
MODES = (WEIGHT_MODE_INITIATION, WEIGHT_MODE_PAPER)
#: A high-severity decision point that always initiates: an untreated Visit 1
#: index with high severity at Visit 2 is censored for certain.
BLOCKING = SPECS["S3"]._replace(decision_prob=(0.2, 1.0), treat_prob=(0.25, 1.0))


def type_probabilities(spec, hazards):
    """Exact probability of each person type: the product of the Bernoulli
    probabilities of its draws."""
    cohort, a = type_cohort()
    sev = cohort.severity.astype(bool)
    init2 = (np.arange(N_TYPES) & 1).astype(bool)

    def bernoulli(outcome, prob):
        return np.where(outcome, prob, 1.0 - prob)

    def by_severity(high, pair):
        return np.where(high, pair[1], pair[0])

    pi = spec.progression_prob
    prob = bernoulli(sev[:, 0], spec.baseline_high_prob)
    for v in (1, 2):
        prob *= np.where(sev[:, v - 1], sev[:, v], bernoulli(sev[:, v], pi))
    prob *= bernoulli(cohort.decision2, by_severity(sev[:, 1], spec.decision_prob))
    p = ((hazards.p00, hazards.p01), (hazards.p10, hazards.p11))
    for v in range(3):
        for arm in (0, 1):
            prob *= bernoulli(cohort.po[:, v, arm], by_severity(sev[:, v], p[arm]))
    prob *= bernoulli(a.spt_arm, spec.spt_treat_prob)
    prob *= bernoulli(a.a1, by_severity(sev[:, 0], spec.treat_prob))
    prob *= bernoulli(init2, by_severity(sev[:, 1], spec.treat_prob))
    return prob


@pytest.mark.parametrize("spec", [*SPECS.values(), BLOCKING], ids=[*SPECS, "blocking"])
def test_factored_probabilities_equal_the_reference(spec):
    hazards = HAZARDS[spec.scenario_id]
    reference = type_probabilities(spec, hazards)
    base_p = base_type_probabilities(spec, hazards)
    cond = treatment_probabilities(spec)
    assert base_p.shape == (N_TYPES // 8,) and cond.shape == (N_TYPES // 8, 8)
    assert np.abs((base_p[:, None] * cond).ravel() - reference).max() <= 1e-15
    assert abs(base_p.sum() - 1.0) <= 1e-12
    assert np.abs(cond.sum(axis=1) - 1.0).max() <= 1e-12
    for mode in MODES:
        classes = person_class_map(spec, mode)
        p_class = np.bincount(classes.type_class, weights=reference)
        got = class_probabilities(spec, hazards, mode)
        assert got.shape == classes.blocked.shape
        assert np.abs(got - p_class / p_class.sum()).max() <= 1e-15


#: -log of the false-alarm probability of each chi-square test below.
FALSE_ALARM_LOG = math.log(1e6)


def assert_pearson_below_bound(counts, p):
    """Pearson's X^2 of counts against the class probabilities p stays below
    the level that a chi-square variable with k degrees of freedom exceeds
    with probability below 1e-6: k + 2 sqrt(k x) + 2x with x = log(1e6)
    (Laurent & Massart 2000, Lemma 1). Classes with an expected count below
    5 are merged into one cell, and that cell with the next class if it is
    still below 5."""
    assert not counts[p == 0].any(), "a class of probability 0 was drawn"
    mean = counts.sum() * p
    order = np.argsort(mean, kind="stable")
    small = int(np.searchsorted(mean[order], 5.0))
    if small and mean[order[:small]].sum() < 5.0:
        small += 1
    cells = [order[:small]] * bool(small) + [[i] for i in order[small:]]
    observed = np.array([counts[cell].sum() for cell in cells])
    expected = np.array([mean[cell].sum() for cell in cells])
    statistic = float(((observed - expected) ** 2 / expected).sum())
    k = len(cells) - 1
    bound = k + 2 * math.sqrt(k * FALSE_ALARM_LOG) + 2 * FALSE_ALARM_LOG
    assert statistic < bound, (statistic, bound, k)


@pytest.mark.parametrize("superpop", [None, 20_000], ids=["law", "pool"])
@pytest.mark.parametrize("scenario_id", sorted(SPECS))
def test_pooled_class_counts_follow_the_class_law(scenario_id, superpop):
    # replicates are i.i.d., so their summed class counts are one
    # multinomial draw of all their people over the class probabilities
    spec, hazards = SPECS[scenario_id], HAZARDS[scenario_id]
    mode = MODES[int(scenario_id[1]) % 2]
    run = RunConfig(n_individuals=5000, master_seed=17, cal_weight_mode=mode, superpop=superpop)
    # the law of a person's type: the reference, or with a pool the pool's
    # base-type frequencies times the reference's treatment law
    law = type_probabilities(spec, hazards).reshape(-1, 8)
    pool = None
    if superpop is not None:
        pool = draw_superpopulation(spec, hazards, run)
        assert_pearson_below_bound(pool, law.sum(axis=1))
        law = pool[:, None] / superpop * (law / law.sum(axis=1, keepdims=True))
    type_class = person_class_map(spec, mode).type_class
    p_class = class_probabilities(spec, hazards, mode, pool)
    pooled = sum(run_replicate(p_class, run, scenario_id, r) for r in range(1, 201))
    assert pooled.sum() == 200 * 5000
    assert_pearson_below_bound(pooled, np.bincount(type_class, weights=law.ravel()))


def cohort_arrays(cohort, assignment):
    return [cohort.severity, cohort.decision2, cohort.po, cohort.event_time,
            assignment.spt_arm, assignment.a1, assignment.a2]


def oracle_replicate(spec, hazards, n, seed):
    """A cohort of the plain-array oracle draws (draw_oracle): the cohort,
    its treatments and each person's type code, packed by hand: the number
    of high-severity visits (2 bits), the decision point, the outcome grid
    by visit and then arm, the SPT arm, Visit 1 initiation and the Visit 2
    initiation draw."""
    severity, decision2, po, spt_arm, a1, init2 = draw_oracle(
        np.random.default_rng(seed), spec, hazards, n
    )
    cohort = Cohort.from_arrays(severity=severity, decision2=decision2, po=po)
    alive1 = cohort.event_time[:, PATTERN_NEVER] != 1
    assignment = TreatmentAssignment(
        spt_arm=spt_arm, a1=a1, a2=~a1 & alive1 & decision2 & init2
    )
    code = severity.sum(axis=1).astype(np.int64)
    for bit in (decision2, *po.reshape(n, 6).T, spt_arm, a1, init2):
        code = 2 * code + bit
    return cohort, assignment, code


@pytest.mark.parametrize("scenario_id", sorted(SPECS))
@pytest.mark.parametrize("n", [1, 7, 5000])
def test_person_level_draws_follow_the_oracle_and_pack_into_type_codes(scenario_id, n):
    spec, hazards = SPECS[scenario_id], HAZARDS[scenario_id]
    rng = np.random.default_rng(n)
    cohort = draw_cohort(rng, spec, hazards, n)
    person_level = cohort_arrays(cohort, assign_treatments(rng, cohort, spec))
    oracle, oracle_assignment, code = oracle_replicate(spec, hazards, n, n)
    from_oracle = cohort_arrays(oracle, oracle_assignment)
    types, type_assignment = type_cohort()
    from_codes = cohort_arrays(types.take(code), TreatmentAssignment(
        *(getattr(type_assignment, name)[code] for name in type_assignment._fields)
    ))
    for got, oracle_array, expected in zip(person_level, from_oracle, from_codes):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, oracle_array)
        assert np.array_equal(got, expected)


def person_level_rows(cohort, assignment, spec, mode):
    """The person-level analyses and descriptive rows of one cohort."""
    spt, cal, td = (build(cohort, assignment) for build in (build_spt, build_esnt_cal, build_esnt_td))
    return (
        analyze_replicate(cohort, spt, cal, td, spec, mode),
        describe_replicate(spt, cal, td, len(cohort)),
    )


def type_level(classes):
    """The class map expanded to types: one row of its columns per type."""
    return classes._replace(columns=classes.columns[classes.type_class])


def one_row(classes, counts, n):
    """The battery and descriptive rows of one replicate's class (or, on a
    type_level map, type) counts, read off a block of one."""
    tables, events = classes.blocks(counts[None])
    return battery_block(tables, events, n).results(0), describe_block(tables, n).rows(0)


def same_float(a, b, tol=1e-12):
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= tol


def assert_same_rows(got, expected, tol=1e-12):
    """Floats to tol, everything else exactly."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for field in g._fields:
            gv, ev = getattr(g, field), getattr(e, field)
            if isinstance(ev, float):
                assert same_float(gv, ev, tol), (field, g, e)
            else:
                assert type(gv) is type(ev) and gv == ev, (field, g, e)


def check_oracle_cohort(scenario_id, n, seed, mode):
    """An oracle cohort tabulated into class counts gives, as a scenario
    block of one, exactly the rows of its type counts, and those of the
    person-level path to 1e-12."""
    spec, hazards = SPECS[scenario_id], HAZARDS[scenario_id]
    cohort, assignment, code = oracle_replicate(spec, hazards, n, seed)
    classes = person_class_map(spec, mode)
    counts = np.bincount(classes.type_class[code], minlength=len(classes.blocked))
    run = RunConfig(n_individuals=n, cal_weight_mode=mode)
    result = replicate_rows([scenario_block(spec, run, [seed], counts[None])])[0]
    by_type = one_row(type_level(classes), np.bincount(code, minlength=N_TYPES), n)
    assert_same_rows(result.analyses, by_type[0], tol=0.0)
    assert_same_rows(result.descriptives, by_type[1], tol=0.0)
    analyses, descriptives = person_level_rows(cohort, assignment, spec, mode)
    assert_same_rows(result.analyses, analyses)
    assert_same_rows(result.descriptives, descriptives)
    return {r.degenerate for r in result.analyses}


def test_tiny_oracle_cohorts_through_class_counts_match_the_person_level_path_and_hit_every_flag():
    flags = set()
    for k in range(320):
        scenario_id = ("S1", "S2", "S3", "S4")[k % 4]
        flags |= check_oracle_cohort(scenario_id, 1 + k % 12, 1 + k, MODES[(k // 4) % 2])
    kinds = {part.split(":")[0] for flag in flags if flag for part in flag.split(";")}
    assert kinds == {
        "empty_stratum", "empty_target", "zero_risk_treated", "zero_risk_untreated",
        "undefined_truth",
    }


@pytest.mark.parametrize(
    "scenario_id,seed,mode",
    [
        ("S4", 1, WEIGHT_MODE_INITIATION),
        ("S2", 2, WEIGHT_MODE_PAPER),
        ("S3", 3, WEIGHT_MODE_INITIATION),
    ],
)
def test_paper_size_oracle_cohorts_through_class_counts_match_the_person_level_path(
    scenario_id, seed, mode
):
    assert check_oracle_cohort(scenario_id, 5000, seed, mode) == {""}


@pytest.mark.parametrize(
    "build,mode",
    [
        (build_spt, None),
        (build_esnt_cal, WEIGHT_MODE_PAPER),
        (build_esnt_td, WEIGHT_MODE_INITIATION),
    ],
)
def test_members_count_each_index_in_the_group_of_its_cell_and_weights(build, mode):
    cohort, assignment = type_cohort()
    idx = build(cohort, assignment)
    weights = None if mode is None else censoring_weights(idx, SPECS["S4"], mode)
    tmap, columns = table_map(idx, weights)
    pid = idx.person_id
    assert columns.dtype == np.int8
    assert columns.shape == (len(cohort), 2 + len(tmap.cell))
    # each index's cell, digit by digit: initiator person, arm, high severity
    # at index, follow-up past year 1, no event
    initiator = np.zeros(len(cohort), dtype=bool)
    initiator[pid[idx.treated]] = True
    cell = (
        16 * initiator[pid] + 8 * idx.treated + 4 * (idx.severity_at_index == 1)
        + 2 * (idx.futime == 2) + ~idx.event
    )
    assert np.array_equal(columns[:, 0], np.bincount(pid) > 0)
    assert np.array_equal(columns[:, 1], initiator)
    # one group per (cell, year 2 weight), in ascending order
    groups = list(zip(tmap.cell.tolist(), tmap.weights.tolist()))
    assert groups == sorted(set(groups))
    year2 = np.ones(len(idx)) if weights is None else weights
    match = (cell[:, None] == tmap.cell) & (year2[:, None] == tmap.weights)
    assert np.array_equal(match.sum(axis=1), np.ones(len(idx)))  # one group per index
    expected = np.zeros((len(cohort), len(groups)), dtype=np.int64)
    np.add.at(expected, (pid, match.argmax(axis=1)), 1)
    assert np.array_equal(columns[:, 2:], expected)


@pytest.mark.parametrize("mode", MODES)
def test_the_flag_columns_equal_their_definitions(mode):
    cohort, assignment = type_cohort()
    treated_events, untreated_events = pattern_events(cohort)
    # BLOCKING initiates at every high-severity Visit 2, so an untreated
    # Visit 1 index with high severity at Visit 2 is censored for certain
    blocking = ~assignment.a1 & (cohort.severity[:, 1] == HIGH)
    assert 0 < blocking.sum() < N_TYPES
    nothing = np.zeros(N_TYPES, dtype=bool)
    for spec, blocked in [(BLOCKING, blocking), *((spec, nothing) for spec in SPECS.values())]:
        columns = type_level(person_class_map(spec, mode)).columns
        assert np.array_equal(columns[:, 0], blocked)
        assert np.array_equal(columns[:, 1], treated_events)
        assert np.array_equal(columns[:, 2], untreated_events)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scenario_id", sorted(SPECS))
def test_the_class_map_holds_the_rows_the_builders_give_each_type(scenario_id, mode):
    # each type's row rebuilt from one person of each type: no type is
    # blocked in a built-in scenario, so every index has a censoring weight,
    # and eSNT-TD always weighs in the initiation mode
    spec = SPECS[scenario_id]
    cohort, assignment = type_cohort()
    spt, cal, td = (build(cohort, assignment)
                    for build in (build_spt, build_esnt_cal, build_esnt_td))
    maps = [table_map(spt), table_map(cal, censoring_weights(cal, spec, mode)),
            table_map(td, censoring_weights(td, spec, WEIGHT_MODE_INITIATION))]
    rows = np.hstack([np.zeros((N_TYPES, 1), dtype=np.int8),
                      np.stack(pattern_events(cohort), axis=1),
                      *(columns for _, columns in maps)])
    classes = person_class_map(spec, mode)
    assert classes.columns.dtype == np.int8
    assert np.array_equal(classes.columns[classes.type_class], rows)
    for got, (expected, _) in zip(classes.designs, maps):
        assert np.array_equal(got.cell, expected.cell)
        assert np.array_equal(got.weights, expected.weights)
    # one class per distinct row, numbered in ascending row order
    assert list(map(tuple, classes.columns.tolist())) == sorted(set(map(tuple, rows.tolist())))
    if (scenario_id, mode) == ("S4", WEIGHT_MODE_INITIATION):
        assert classes.columns.shape == (201, 69)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scenario_id", sorted(SPECS))
def test_class_counts_give_the_tables_of_the_type_counts(scenario_id, mode):
    spec = SPECS[scenario_id]
    classes = person_class_map(spec, mode)
    types = type_level(classes)
    rng = np.random.default_rng(len(scenario_id + mode))
    for counts in (rng.integers(0, 3, N_TYPES), type_probabilities(spec, HAZARDS[scenario_id])):
        merged = np.zeros(len(classes.columns), dtype=counts.dtype)
        np.add.at(merged, classes.type_class, counts)
        (got_tables, got_events), (tables, events) = (
            classes.blocks(merged[None]), types.blocks(counts[None])
        )
        for got, expected in zip(got_tables, tables):
            assert np.allclose(got.counts[0], expected.counts[0], rtol=0, atol=1e-12)
            assert np.allclose(got.weight_sums[0], expected.weight_sums[0], rtol=0, atol=1e-12)
            assert abs(got.n_people[0] - expected.n_people[0]) <= 1e-12
            assert abs(got.n_initiators[0] - expected.n_initiators[0]) <= 1e-12
        assert np.allclose(got_events, events, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_the_maps_are_shared_by_specs_that_differ_only_in_what_they_do_not_read(mode):
    # the map reads only the decision and treatment probabilities and the mode
    spec = SPECS["S3"]
    for name, value in (("scenario_id", "S9"), ("delta", (0.5, 0.9)), ("risk_untreated", (0.1, 0.3)),
                        ("progression_prob", 0.5), ("baseline_high_prob", 0.4),
                        ("spt_treat_prob", 0.5)):
        other = spec._replace(**{name: value})
        assert person_class_map(other, mode) is person_class_map(spec, mode)
    assert person_class_map(SPECS["S4"], mode) is person_class_map(spec, mode)
    for other in (spec._replace(decision_prob=(0.3, 0.8)),
                  spec._replace(treat_prob=(0.25, 0.8))):
        assert person_class_map(other, mode) is not person_class_map(spec, mode)
    other_mode = MODES[1 - MODES.index(mode)]
    assert person_class_map(spec, other_mode) is not person_class_map(spec, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scenario_id", sorted(SPECS))
def test_scenario_blocks_equal_one_row_blocks_of_the_replicate_counts(scenario_id, mode):
    spec, hazards = SPECS[scenario_id], HAZARDS[scenario_id]
    run = RunConfig(n_individuals=8, n_replicates=150, master_seed=3, cal_weight_mode=mode)
    rows = replicate_rows(run_scenario(spec, run, hazards))
    assert [r.replicate for r in rows] == list(range(1, 151))
    classes = person_class_map(spec, mode)
    p_class = class_probabilities(spec, hazards, mode)
    flags = set()
    for row in rows:
        counts = run_replicate(p_class, run, scenario_id, row.replicate)
        analyses, descriptives = one_row(classes, counts, run.n_individuals)
        assert_same_rows(row.analyses, analyses, tol=0.0)
        assert_same_rows(row.descriptives, descriptives, tol=0.0)
        flags |= {r.degenerate for r in analyses}
    assert len(flags) > 5  # rows with different flags share the block


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scenario_id", ["S2", "S3"])
def test_block_floats_are_formed_as_the_reference_forms_them(scenario_id, mode):
    # large random class counts make every float sum round, so a different
    # order of any addition would show in the last place
    classes = person_class_map(SPECS[scenario_id], mode)
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 10**6, (60, len(classes.blocked)))
    counts[:, classes.blocked] = 0
    counts[:3, rng.integers(0, counts.shape[1], 3)] = 0
    n = 10**6 * counts.shape[1]
    tables, events = classes.blocks(counts)
    block = scenario_block(SPECS[scenario_id], RunConfig(n_individuals=n, cal_weight_mode=mode),
                           list(range(1, 61)), counts)
    for r, row in enumerate(replicate_rows([block])):
        expected, expected_events = classes.blocks(counts[r][None])
        for got, table in zip(tables, expected):
            assert np.array_equal(got.counts[r], table.counts[0])
            assert np.array_equal(got.weight_sums[r], table.weight_sums[0])
            assert (got.n_people[r], got.n_initiators[r]) == (
                table.n_people[0], table.n_initiators[0]
            )
        assert (events[0][r], events[1][r]) == (expected_events[0][0], expected_events[1][0])
        analyses, descriptives = one_row(classes, counts[r], n)
        assert_same_rows(row.analyses, analyses, 0.0)
        assert_same_rows(row.descriptives, descriptives, 0.0)


def blocked_draws(run):
    """The class counts that run_replicate draws for each replicate of a
    BLOCKING run, and per replicate whether they include a blocked class."""
    classes = person_class_map(BLOCKING, run.cal_weight_mode)
    p_class = class_probabilities(BLOCKING, HAZARDS["S3"], run.cal_weight_mode)
    assert 0 < p_class[classes.blocked].sum() < 1
    counts = np.array([run_replicate(p_class, run, "S3", r)
                       for r in range(1, run.n_replicates + 1)])
    return counts, counts[:, classes.blocked].any(axis=1)


def test_degenerate_weights_are_raised_only_for_classes_drawn():
    run = RunConfig(n_individuals=3, n_replicates=40, master_seed=1)
    counts, blocked = blocked_draws(run)
    assert blocked.any() and not blocked.all()
    for replicate_id, (row, raises) in enumerate(zip(counts, blocked), start=1):
        if raises:
            with pytest.raises(RuntimeError, match=f"^replicate {replicate_id} of S3 failed"):
                scenario_block(BLOCKING, run, [replicate_id], row[None])
        else:
            block = scenario_block(BLOCKING, run, [replicate_id], row[None])
            assert block.replicates.tolist() == [replicate_id]


def test_the_blocked_check_names_a_replicate_by_its_id():
    # rows 1 and 2 (replicates 9 and 12) count a person of a blocked class
    run = RunConfig(n_individuals=4)
    classes = person_class_map(BLOCKING, run.cal_weight_mode)
    blocked, allowed = np.flatnonzero(classes.blocked)[0], np.flatnonzero(~classes.blocked)[0]
    counts = np.zeros((3, len(classes.blocked)), dtype=np.int64)
    counts[:, allowed] = 4
    counts[1:, allowed], counts[1:, blocked] = 3, 1
    with pytest.raises(RuntimeError, match="^replicate 9 of S3 failed: certain censoring"):
        scenario_block(BLOCKING, run, [5, 9, 12], counts)


def test_a_degenerate_replicate_is_named():
    run = RunConfig(n_individuals=3, n_replicates=40, master_seed=1)
    _, blocked = blocked_draws(run)
    assert blocked.any()
    first = 1 + int(np.argmax(blocked))
    with pytest.raises(RuntimeError, match=f"^replicate {first} of S3 failed: certain censoring"):
        run_scenario(BLOCKING, run, HAZARDS["S3"])


def test_a_degenerate_replicate_in_a_later_block_is_named(monkeypatch):
    run = RunConfig(n_individuals=1, n_replicates=20, master_seed=5)
    _, blocked = blocked_draws(run)
    first = 1 + int(np.argmax(blocked))
    monkeypatch.setattr(harness, "BLOCK_ROWS", 7)
    assert blocked.any() and first > 7  # not in the first block
    with pytest.raises(RuntimeError, match=f"^replicate {first} of S3 failed: certain censoring"):
        run_scenario(BLOCKING, run, HAZARDS["S3"])


@pytest.mark.parametrize("scenario_id", sorted(SPECS))
def test_the_class_law_through_the_map_gives_the_enumerated_truth(scenario_id):
    # the law that simulate draws each replicate's class counts from
    spec, hazards = SPECS[scenario_id], HAZARDS[scenario_id]
    p_class = class_probabilities(spec, hazards, WEIGHT_MODE_INITIATION)
    classes = person_class_map(spec, WEIGHT_MODE_INITIATION)
    results = battery_block(*classes.blocks(p_class[None]), 1).results(0)
    truth = enumerate_truth(spec, hazards)
    spt = [r for r in results if r.design == "SPT"]
    assert [r.analysis for r in spt] == ["true_rr", "crude", "ate_spt", "att_spt"]
    for r in spt:
        assert r.degenerate == ""
        assert abs(r.risk_treated - truth.risk_treated) <= 1e-12
        assert abs(r.risk_untreated - truth.risk_untreated) <= 1e-12
