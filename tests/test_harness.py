import hashlib
import math
import warnings
from array import array
from functools import partial

import numpy as np
import pytest

from block_rows import replicate_rows
from snt_lab import cli, harness, output
from snt_lab.cells import (
    InsufficientReplicatesError,
    pairwise_sum,
    percentiles,
    summarize,
    summarize_descriptives,
)
from snt_lab.config import RunConfig, builtin_scenarios, validate_run
from snt_lab.harness import (
    class_probabilities,
    replicate_stream,
    replicate_words,
    run_replicate,
    run_scenario,
    scenario_block,
    scenario_ordinal,
)
from snt_lab.hazards import enumerate_truth, solve, truth_tables
from snt_lab.output import estimate_cells


def scenario(name="S1", pi=0.6):
    return {s.scenario_id: s for s in builtin_scenarios(pi)}[name]


def small_run(**overrides):
    base = dict(n_individuals=400, n_replicates=6, master_seed=42)
    base.update(overrides)
    return RunConfig(**base)


def crude_cells(sid, log_rr, degenerate=None, form=list):
    """summarize's cells: one SPT crude cell with these replicates' log RR,
    in the given form, and flags (none flagged by default)."""
    flags = [""] * len(log_rr) if degenerate is None else list(degenerate)
    return {(sid, "SPT", "crude", "none"): (form(map(float, log_rr)), flags)}


#: The float sequences the Python reductions take: lists, and the
#: array('d') columns that output's readers and estimate_cells hand over.
FORMS = pytest.mark.parametrize("form", [list, partial(array, "d")], ids=["list", "array"])

#: Lengths at and around the branches of numpy's pairwise summation, and
#: the paper's 1,000 and 5,000 replicates.
EDGE_LENGTHS = (0, 1, 7, 8, 9, 127, 128, 129, 1000, 5000)


def replicate_result(spec, hazards, replicate_id, run):
    """One replicate's rows, counted by run_replicate and read off its block."""
    p_class = class_probabilities(spec, hazards, run.cal_weight_mode)
    (words,) = replicate_words(run.master_seed, spec.scenario_id, [replicate_id])
    counts = run_replicate(p_class, run, words)
    return replicate_rows([scenario_block(spec, run, [replicate_id], counts[None])])[0]


class TestReplicateStream:
    def test_streams_are_reproducible_and_distinct(self):
        a = replicate_stream(42, "S1", 1).random(5)
        b = replicate_stream(42, "S1", 1).random(5)
        c = replicate_stream(42, "S1", 2).random(5)
        d = replicate_stream(42, "S2", 1).random(5)
        e = replicate_stream(43, "S1", 1).random(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        assert not np.array_equal(a, e)

    @pytest.mark.parametrize("seed", [0, 42, 2**32, 2**64 - 1])
    def test_stream_is_the_seed_sequence_of_the_list(self, seed):
        for scenario_id in ("S1", "S4"):
            for replicate_id in (0, 1, 4999, 2**33):
                listed = np.random.SeedSequence(
                    [seed, scenario_ordinal(scenario_id), replicate_id]
                )
                expected = np.random.PCG64(listed).state
                got = replicate_stream(seed, scenario_id, replicate_id).bit_generator.state
                assert got == expected, (seed, scenario_id, replicate_id)


#: The seven files of a --superpop run at the largest seed, as written when
#: the pool's stream and each replicate's were seeded by a SeedSequence of
#: their own.
TOP_SEED_SUPERPOP = {
    "hazards.csv": "c86fe2f66772a487329769d2c1cd6776941cf965ad5f3500e024db5d8fc69c21",
    "truth.csv": "ad4d8c7161d0fed9207ff456ec116b84da73bd5489acf6683ceec629119323b2",
    "estimates.csv": "63a85932f11a87c0ac9de3e947a89eb4cb70ed2092e52f92637e8b07ce24f5c7",
    "describe.csv": "5ee1fee5d6f010e0d8a4a633fcef0725de1012a2880d629ef3fc00e3850dfc6c",
    "summary.csv": "e3fb74efa3218e7ac76250a6469d76ef47cb0e72405c63e723886f0164dc1574",
    "figure3.csv": "dae963983c9058a6f9412e2a50b7524d0e15f783ad69e14f988d8379dc645a99",
    "figureS3.csv": "6cb727233981421ad330981146c26b5e7b68b672cccafbbbecd569249cf4b4d3",
}


def seed_sequence_words(seed, scenario_id, replicate_ids):
    return np.array([
        np.random.SeedSequence([seed, scenario_ordinal(scenario_id), rid])
        .generate_state(4, np.uint64) for rid in replicate_ids
    ])


class TestReplicateWords:
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_every_row_of_a_run_is_its_seed_sequence_state(self, seed, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROWS", 7)
        rows = []
        drawn = harness.run_replicate

        def recorded(p_class, run, words):
            rows.append(words.copy())
            return drawn(p_class, run, words)

        monkeypatch.setattr(harness, "run_replicate", recorded)
        spec = scenario("S3")
        blocks = run_scenario(spec, small_run(n_replicates=16, master_seed=seed),
                              solve(spec).hazards)
        assert [len(b.replicates) for b in blocks] == [7, 7, 2]
        assert np.array_equal(rows, seed_sequence_words(seed, "S3", range(1, 17)))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_one_and_two_word_ids_share_a_block(self, seed):
        ids = [0, 1, 2**32 - 1, 2**32, 2**33 + 5, 7, 2**64 - 1]
        for scenario_id in ("S1", "S4"):
            assert np.array_equal(replicate_words(seed, scenario_id, ids),
                                  seed_sequence_words(seed, scenario_id, ids))

    def test_a_superpop_run_writes_the_bytes_of_one_seed_sequence_per_replicate(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(harness, "BLOCK_ROWS", 7)
        argv = ["simulate", "--scenario", "all", "--n", "100", "--reps", "9",
                "--seed", str(2**64 - 1), "--superpop", "3000", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in tmp_path.iterdir()} == TOP_SEED_SUPERPOP


class TestRunReplicate:
    def test_bit_identical_replay(self):
        spec = scenario()
        h = solve(spec).hazards
        r1 = replicate_result(spec, h, 3, small_run())
        r2 = replicate_result(spec, h, 3, small_run())
        assert r1.analyses == r2.analyses
        assert r1.descriptives == r2.descriptives
        assert r1.replicate == 3 and r1.scenario_id == "S1"

    def test_smallest_cohort_completes(self):
        spec = scenario("S4")
        h = solve(spec).hazards
        res = replicate_result(spec, h, 1, small_run(n_individuals=1))
        assert len(res.analyses) == 14

    def test_replicates_uncorrelated(self):
        spec = scenario()
        h = solve(spec).hazards
        run = small_run(n_individuals=150, n_replicates=400)
        results = replicate_rows(run_scenario(spec, run, h))
        crude = np.array(
            [a.log_rr for r in results for a in r.analyses
             if a.design == "SPT" and a.analysis == "crude"]
        )
        crude = crude[np.isfinite(crude)]
        x, y = crude[:-1], crude[1:]
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 3 / math.sqrt(len(x))


class TestRunScenario:
    def test_zero_replicates(self):
        spec = scenario()
        assert run_scenario(spec, small_run(n_replicates=0), solve(spec).hazards) == []

    @pytest.mark.parametrize("reps", [1, 6, 7, 8, 20])
    def test_a_scenario_is_blocks_of_block_rows_replicates_in_order(self, reps, monkeypatch):
        spec = scenario("S3")
        h = solve(spec).hazards
        run = small_run(n_replicates=reps)
        (whole,) = run_scenario(spec, run, h)
        monkeypatch.setattr(harness, "BLOCK_ROWS", 7)
        blocks = run_scenario(spec, run, h)
        assert len(blocks) == math.ceil(reps / 7)
        assert [len(b.replicates) for b in blocks[:-1]] == [7] * (len(blocks) - 1)
        assert np.concatenate([b.replicates for b in blocks]).tolist() == list(range(1, reps + 1))
        assert replicate_rows(blocks) == replicate_rows([whole])
        cells, whole_cells = estimate_cells(blocks), estimate_cells([whole])
        assert cells.keys() == whole_cells.keys()
        for key, (log_rr, flags) in cells.items():
            assert log_rr.tobytes() == whole_cells[key][0].tobytes() and flags == whole_cells[key][1]

    @pytest.mark.parametrize("make", [output.estimate_lines, output.describe_lines])
    def test_the_line_makers_take_one_block_at_a_time(self, make, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_ROWS", 7)
        spec = scenario("S2")
        blocks = run_scenario(spec, small_run(n_replicates=20), solve(spec).hazards)
        assert len(blocks) == 3
        per_block = [list(make([block])) for block in blocks]
        taken = []

        def each():
            for block in blocks:
                taken.append(block)
                yield block

        lines = make(each())
        assert not taken
        for k, expected in enumerate(per_block, start=1):
            # the first line of block k takes that block, and no other
            assert [next(lines) for _ in expected] == expected
            assert len(taken) == k
        assert next(lines, None) is None

    def test_superpop_mode_resamples_deterministically(self):
        spec = scenario()
        run = small_run(superpop=1000, n_replicates=3)
        h = solve(spec).hazards
        a = replicate_rows(run_scenario(spec, run, h))
        b = replicate_rows(run_scenario(spec, run, h))
        assert a == b

    def test_an_invalid_mode_fails_in_the_class_law(self):
        # the law is computed once per scenario, before any replicate, so
        # the mode's own error surfaces; every entry point validates first
        spec = scenario()
        h = solve(spec).hazards
        bad = small_run(n_replicates=2)._replace(cal_weight_mode="not_a_mode")
        assert any("cal_weight_mode" in problem for problem in validate_run(bad))
        with pytest.raises(ValueError, match="unknown weight mode 'not_a_mode'"):
            run_scenario(spec, bad, h)


class TestSummarize:
    def truth(self, sid="S1"):
        spec = scenario(sid)
        return {sid: enumerate_truth(spec, solve(spec).hazards)}

    def test_constant_estimates_at_truth(self):
        theta = math.log(0.7)
        row = summarize(crude_cells("S1", [theta] * 10), self.truth())[0]
        assert row.bias == pytest.approx(0.0, abs=1e-12)
        assert row.ese == 0.0
        assert row.rmse == pytest.approx(0.0, abs=1e-12)
        assert row.rr_summary == pytest.approx(0.7, abs=1e-12)
        assert row.n_effective == 10

    def test_constant_offset_bias(self):
        row = summarize(crude_cells("S1", [math.log(0.8)] * 5), self.truth())[0]
        assert row.bias == pytest.approx(math.log(0.8 / 0.7), abs=1e-12)
        assert row.bias == pytest.approx(0.13353139262452263, abs=1e-12)
        assert row.ese == 0.0
        assert row.rmse == pytest.approx(abs(row.bias), abs=1e-12)

    def test_formulas_match_direct_computation(self):
        rng = np.random.default_rng(21)
        values = rng.normal(math.log(0.7), 0.08, size=50)
        row = summarize(crude_cells("S2", values), self.truth("S2"))[0]
        theta = self.truth("S2")["S2"].log_rr
        assert row.bias == pytest.approx(values.mean() - theta, abs=1e-12)
        assert row.ese == pytest.approx(values.std(ddof=1), abs=1e-12)
        assert row.rmse == pytest.approx(
            math.sqrt(np.mean((values - theta) ** 2)), abs=1e-12
        )
        assert row.mcse_bias == pytest.approx(row.ese / math.sqrt(50), abs=1e-15)
        # Monte Carlo SE of the bias, written directly
        direct = math.sqrt(
            ((values - values.mean()) ** 2).sum() / (50 * 49)
        )
        assert row.mcse_bias == pytest.approx(direct, abs=1e-12)

    def test_metric_identity(self):
        rng = np.random.default_rng(22)
        values = rng.normal(-0.3, 0.2, size=200)
        row = summarize(crude_cells("S1", values), self.truth())[0]
        n = row.n_effective
        mse = row.rmse**2
        assert mse == pytest.approx(
            row.bias**2 + (n - 1) / n * row.ese**2, abs=1e-9
        )

    def test_truth_override(self):
        cells = crude_cells("S1", [math.log(0.7)] * 3)
        row = summarize(cells, self.truth(), truth_override=0.8)[0]
        assert row.bias == pytest.approx(math.log(0.7 / 0.8), abs=1e-12)

    def test_degenerate_replicates_excluded_cellwise(self):
        cells = crude_cells(
            "S1", [math.log(0.7)] * 5 + [float("nan")], [""] * 5 + ["zero_risk_treated"]
        )
        row = summarize(cells, self.truth())[0]
        assert row.n_effective == 5
        assert math.isfinite(row.bias)

    def test_insufficient_replicates(self):
        with pytest.raises(InsufficientReplicatesError):
            summarize(crude_cells("S1", [math.log(0.7)]), self.truth())

    def test_cells_sorted_and_complete(self):
        spec = scenario("S1")
        h = solve(spec).hazards
        blocks = run_scenario(spec, small_run(n_replicates=4), h)
        rows = summarize(estimate_cells(blocks), self.truth())
        assert len(rows) == 14
        assert [(r.design, r.analysis) for r in rows[:4]] == [
            ("SPT", "true_rr"), ("SPT", "crude"), ("SPT", "ate_spt"), ("SPT", "att_spt"),
        ]


def same_bits(got, expected):
    """Equal as float64 bit patterns (so -0.0 differs from 0.0), or both NaN."""
    got, expected = np.float64(got), np.float64(expected)
    return got.view(np.uint64) == expected.view(np.uint64) or (
        np.isnan(got) and np.isnan(expected))


class TestPairwiseSum:
    """pairwise_sum and summarize against numpy's sum, mean, std(ddof=1)
    and RMSE, bit for bit, across the three branches of numpy's pairwise
    summation (under 8 values, up to 128, split above)."""

    BOUNDARIES = (*EDGE_LENGTHS, 2, 15, 16, 17, 135, 136, 137,
                  255, 256, 257, 1023, 1024, 1025, 4999)

    def arrays(self, largest_exponent):
        """Seeded arrays: normal values, magnitudes over many orders up to
        10**largest_exponent, or a single repeated value, some entries
        replaced by NaN, +-inf, -0.0 or 0.0."""
        rng = np.random.default_rng(20261019)
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
        lengths = [*self.BOUNDARIES, *rng.integers(1, 5001, size=200).tolist()]
        for trial, n in enumerate(lengths):
            kind = trial % 4
            if kind == 0:
                values = rng.normal(size=n)
            elif kind == 1:
                values = rng.normal(size=n) * 10.0 ** rng.integers(-8, largest_exponent + 1, size=n)
            elif kind == 2:
                values = np.full(n, rng.choice([-0.0, 0.0, rng.normal()]))
            else:
                values = rng.normal(-0.3, 0.1, size=n)
            special = rng.random(n) < rng.choice([0.0, 0.0, 0.01, 0.3])
            values[special] = rng.choice(specials, size=special.sum())
            yield values

    @FORMS
    def test_sum_matches_numpy(self, form):
        for values in self.arrays(300):
            with np.errstate(all="ignore"):
                expected = np.add.reduce(values)
            assert same_bits(pairwise_sum(form(values.tolist())), expected), values

    @FORMS
    def test_summary_matches_numpy(self, form):
        theta = math.log(0.7)
        for values in self.arrays(2):
            if values.size < 2:
                continue
            row = summarize(crude_cells("S1", values, form=form), {}, truth_override=0.7)[0]
            with np.errstate(all="ignore"):
                expected = (values.mean() - theta, values.std(ddof=1),
                            np.sqrt(np.mean((values - theta) ** 2)))
            for got, want in zip((row.bias, row.ese, row.rmse), expected):
                assert same_bits(got, want), values


class TestSummarizeDescriptives:
    def cells(self, values):
        """summarize_descriptives' cells: one cell whose replicates have
        these pct_high values, columns in DESCRIBE_STATISTICS order."""
        n = len(values)
        return {("S1", "SPT", "all", "high"): [[100.0] * n, [25.0] * n, list(values),
                                               [0.25] * n]}

    def test_single_replicate_iqr_collapses(self):
        out = summarize_descriptives(self.cells([25.0]))
        cell = {r.statistic: r for r in out}
        assert cell["pct_high"].median == 25.0
        assert cell["pct_high"].q25 == 25.0
        assert cell["pct_high"].q75 == 25.0

    def test_constant_statistic_zero_width(self):
        out = summarize_descriptives(self.cells([10.0] * 7))
        cell = {r.statistic: r for r in out}
        assert cell["pct_high"].q25 == cell["pct_high"].q75 == 10.0

    def test_linear_interpolation_convention(self):
        values = [1.0, 2.0, 3.0, 4.0]
        out = summarize_descriptives(self.cells(values))
        cell = {r.statistic: r for r in out}["pct_high"]
        assert cell.q25 == pytest.approx(np.percentile(values, 25))
        assert cell.median == pytest.approx(2.5)
        assert cell.q75 == pytest.approx(np.percentile(values, 75))

    def test_nan_cells_pass_through(self):
        rows = self.cells([float("nan"), float("nan")])
        out = summarize_descriptives(rows)
        cell = {r.statistic: r for r in out}["pct_high"]
        assert all(math.isnan(v) for v in (cell.median, cell.q25, cell.q75))

    @FORMS
    def test_percentiles_match_numpy_bit_for_bit(self, form):
        rng = np.random.default_rng(20261018)
        specials = np.array([np.nan, np.inf, -np.inf])
        lengths = [*EDGE_LENGTHS, *rng.integers(1, 401, size=4000).tolist()]
        for trial, n in enumerate(lengths):
            kind = trial % 4
            if kind == 0:
                values = rng.normal(size=n)
            elif kind == 1:  # many ties
                values = rng.integers(0, 5, size=n).astype(float)
            elif kind == 2:  # all equal
                values = np.full(n, rng.normal())
            else:  # magnitudes over ten orders
                values = rng.normal(size=n) * 10.0 ** rng.integers(-5, 6, size=n)
            special = rng.random(n) < rng.choice([0.0, 0.05, 0.3])
            values[special] = rng.choice(specials, size=special.sum())
            # inf - inf inside numpy's lerp; NaN, with a warning, for no values
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = np.broadcast_to(np.nanpercentile(values, [25, 50, 75]), 3)
            got = np.array(percentiles(form(values.tolist()), (0.25, 0.5, 0.75)))
            same = (got.view(np.uint64) == expected.view(np.uint64)) | (
                np.isnan(got) & np.isnan(expected))
            assert same.all(), (values, got, expected)


class TestTruthTables:
    def test_builds_per_scenario(self):
        specs = builtin_scenarios()
        hazards = {s.scenario_id: solve(s).hazards for s in specs}
        tables = truth_tables(specs, hazards)
        assert tables["S1"].rr == pytest.approx(0.7, abs=1e-12)
        assert tables["S2"].rr == pytest.approx(0.6428571428571429, abs=1e-12)
