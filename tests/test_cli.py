import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snt_lab
from snt_lab import output
from snt_lab.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from snt_lab.output import (
    DESCRIBE_COLUMNS,
    DESCRIBE_SUMMARY_COLUMNS,
    ESTIMATES_COLUMNS,
    FIGURE_COLUMNS,
    HAZARDS_COLUMNS,
    SUMMARY_COLUMNS,
    TRUTH_COLUMNS,
    read_estimates,
)

SIMULATE_FILES = (
    "hazards.csv", "truth.csv", "estimates.csv", "describe.csv",
    "summary.csv", "figure3.csv", "figureS3.csv",
)


def run_cli(*argv):
    return main(list(argv))


def header_of(path):
    return tuple(path.read_text().splitlines()[0].split(","))


def simulate_args(out, *extra):
    return (
        "simulate", "--scenario", "S1", "--reps", "8", "--n", "300",
        "--seed", "123", "--out", str(out), *extra,
    )


class TestParsing:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        assert "solve" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--bogus", "1")
        assert exc.value.code == EXIT_USAGE

    def test_negative_reps_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--reps", "-5")
        assert exc.value.code == EXIT_USAGE
        assert "--reps" in capsys.readouterr().err

    def test_missing_verb_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == EXIT_USAGE

    def test_bad_scenario_choice(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--scenario", "S9")
        assert exc.value.code == EXIT_USAGE


class TestSolveVerb:
    def test_writes_hazards_csv(self, tmp_path):
        assert run_cli("solve", "--out", str(tmp_path)) == EXIT_OK
        path = tmp_path / "hazards.csv"
        assert header_of(path) == HAZARDS_COLUMNS
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        s1 = dict(zip(HAZARDS_COLUMNS, lines[1].split(",")))
        assert s1["scenario_id"] == "S1"
        assert float(s1["p01"]) == pytest.approx(0.133975, abs=1e-6)
        assert s1["feasible"] == "1"

    def test_single_scenario_with_pi(self, tmp_path):
        assert run_cli("solve", "--scenario", "S2", "--pi", "0.6", "--out", str(tmp_path)) == EXIT_OK
        lines = (tmp_path / "hazards.csv").read_text().splitlines()
        assert len(lines) == 2
        row = dict(zip(HAZARDS_COLUMNS, lines[1].split(",")))
        assert float(row["pi"]) == 0.6
        assert float(row["p10"]) == pytest.approx(0.00241442, abs=1e-7)

    def test_infeasible_exits_three_and_cleans_up(self, tmp_path, capsys):
        code = run_cli("solve", "--scenario", "S2", "--pi", "0.78", "--out", str(tmp_path))
        assert code == EXIT_INFEASIBLE
        assert "0.0933" in capsys.readouterr().err
        assert not (tmp_path / "hazards.csv").exists()


class TestTruthVerb:
    def test_truth_all_scenarios(self, tmp_path):
        assert run_cli("truth", "--pi", "0.6", "--out", str(tmp_path)) == EXIT_OK
        path = tmp_path / "truth.csv"
        assert header_of(path) == TRUTH_COLUMNS
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 4 * 3  # scenarios x estimand labels
        first = dict(zip(TRUTH_COLUMNS, lines[0].split(",")))
        assert first["estimand"] == "marginal"
        assert float(first["rr_true"]) == pytest.approx(0.7, abs=1e-9)


class TestSimulateVerb:
    def test_emits_all_files_with_schemas(self, tmp_path):
        assert run_cli(*simulate_args(tmp_path)) == EXIT_OK
        for name in SIMULATE_FILES:
            assert (tmp_path / name).exists(), name
        assert header_of(tmp_path / "estimates.csv") == ESTIMATES_COLUMNS
        assert header_of(tmp_path / "describe.csv") == DESCRIBE_COLUMNS
        assert header_of(tmp_path / "summary.csv") == SUMMARY_COLUMNS
        assert header_of(tmp_path / "figure3.csv") == FIGURE_COLUMNS
        records = read_estimates(tmp_path / "estimates.csv")
        assert len(records) == 8 * 14
        # figure data: S1 rows are SPT crude/spt + two emulations x three targets
        fig3 = (tmp_path / "figure3.csv").read_text().splitlines()[1:]
        assert len(fig3) == 8

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*simulate_args(out1)) == EXIT_OK
        assert run_cli(*simulate_args(out2)) == EXIT_OK
        for name in SIMULATE_FILES:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_infeasible_simulation_leaves_no_estimates(self, tmp_path):
        code = run_cli(
            "simulate", "--scenario", "S2", "--pi", "0.78", "--reps", "4",
            "--n", "100", "--out", str(tmp_path),
        )
        assert code == EXIT_INFEASIBLE
        assert not (tmp_path / "estimates.csv").exists()
        assert not (tmp_path / "hazards.csv").exists()

    def test_zero_replicates_still_succeeds(self, tmp_path):
        code = run_cli(
            "simulate", "--scenario", "S1", "--reps", "0", "--n", "50",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert (tmp_path / "estimates.csv").read_text().splitlines() == [
            ",".join(ESTIMATES_COLUMNS)
        ]
        assert not (tmp_path / "summary.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"n_replicates": 3, "n_individuals": 200}}))
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "--scenario", "S1", "--config", str(cfg),
            "--reps", "5", "--seed", "9", "--out", str(out),
        )
        assert code == EXIT_OK
        records = read_estimates(out / "estimates.csv")
        assert {r.replicate for r in records} == {1, 2, 3, 4, 5}

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    def test_superpop_mode_runs(self, tmp_path):
        code = run_cli(*simulate_args(tmp_path, "--superpop", "1000"))
        assert code == EXIT_OK
        assert (tmp_path / "estimates.csv").exists()

    def test_rerun_into_used_directory_leaves_no_stale_outputs(self, tmp_path):
        common = ("simulate", "--n", "100", "--seed", "5", "--out", str(tmp_path))
        assert run_cli(*common, "--scenario", "all", "--reps", "3") == EXIT_OK
        assert run_cli("describe", "--out", str(tmp_path)) == EXIT_OK
        (tmp_path / "notes.txt").write_text("kept")
        assert run_cli(*common, "--scenario", "S1", "--reps", "1") == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ("hazards.csv", "truth.csv", "estimates.csv", "describe.csv", "notes.txt")
        )
        assert {r.scenario_id for r in read_estimates(tmp_path / "estimates.csv")} == {"S1"}

    def test_cell_without_two_usable_replicates_keeps_per_replicate_outputs(
        self, tmp_path, capsys
    ):
        for stale in ("summary.csv", "figure3.csv", "figureS3.csv", "describe_summary.csv"):
            (tmp_path / stale).write_text("stale")
        args = ("--scenario", "all", "--n", "5", "--reps", "300", "--seed", "3")
        assert run_cli("simulate", *args, "--out", str(tmp_path)) == EXIT_USAGE
        assert "cell ('S2', 'eSNT-TD', 'att_spt', 'spt_treated')" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ("hazards.csv", "truth.csv", "estimates.csv", "describe.csv")
        )
        records = read_estimates(tmp_path / "estimates.csv")
        assert len(records) == 4 * 300 * 14
        assert len((tmp_path / "describe.csv").read_text().splitlines()) == 1 + 4 * 300 * 24

    @staticmethod
    def fail_during_estimates_write(monkeypatch, exc):
        """Raise exc once estimates.csv has its header and one row."""
        real_row, calls = output.estimate_row, []

        def estimate_row(record):
            calls.append(record)
            if len(calls) > 1:
                raise exc
            return real_row(record)

        monkeypatch.setattr(output, "estimate_row", estimate_row)

    def test_write_failure_midway_removes_the_partial_file(self, tmp_path, monkeypatch):
        self.fail_during_estimates_write(monkeypatch, OSError("disk full"))
        assert run_cli(*simulate_args(tmp_path)) == EXIT_IO
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(9)])
    def test_interrupt_during_writes_removes_outputs_and_reraises(
        self, tmp_path, monkeypatch, exc
    ):
        self.fail_during_estimates_write(monkeypatch, exc)
        with pytest.raises(type(exc)):
            run_cli(*simulate_args(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestReaggregationVerbs:
    @pytest.fixture()
    def sim_dir(self, tmp_path):
        assert run_cli(*simulate_args(tmp_path)) == EXIT_OK
        return tmp_path

    def test_summarize_recomputes_close_to_simulate(self, sim_dir):
        original = (sim_dir / "summary.csv").read_text()
        assert run_cli("summarize", "--scenario", "S1", "--out", str(sim_dir)) == EXIT_OK
        again = (sim_dir / "summary.csv").read_text()
        orig_rows = original.splitlines()
        new_rows = again.splitlines()
        assert orig_rows[0] == new_rows[0]
        # inputs were rounded to six significant digits, so allow tiny drift
        for a, b in zip(orig_rows[1:], new_rows[1:]):
            fa, fb = a.split(","), b.split(",")
            assert fa[:4] == fb[:4]
            for x, y in zip(fa[4:9], fb[4:9]):
                assert float(x) == pytest.approx(float(y), abs=1e-4)

    def test_summarize_with_truth_override(self, sim_dir):
        assert run_cli(
            "summarize", "--scenario", "S1", "--truth-override", "0.7",
            "--out", str(sim_dir),
        ) == EXIT_OK

    def test_describe_verb(self, sim_dir):
        assert run_cli("describe", "--out", str(sim_dir)) == EXIT_OK
        path = sim_dir / "describe_summary.csv"
        assert header_of(path) == DESCRIBE_SUMMARY_COLUMNS
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 3 * 4 * 2 * 4  # designs x groups x severities x stats

    def test_plot_data_round_trip_is_byte_identical(self, sim_dir):
        fig3 = (sim_dir / "figure3.csv").read_bytes()
        figs3 = (sim_dir / "figureS3.csv").read_bytes()
        assert run_cli("plot-data", "--out", str(sim_dir)) == EXIT_OK
        assert (sim_dir / "figure3.csv").read_bytes() == fig3
        assert (sim_dir / "figureS3.csv").read_bytes() == figs3

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert run_cli("summarize", "--out", str(tmp_path / "nope")) == EXIT_IO
        assert run_cli("plot-data", "--out", str(tmp_path / "nope")) == EXIT_IO

    def test_schema_mismatch_is_io_error(self, tmp_path):
        (tmp_path / "estimates.csv").write_text("wrong,header\n1,2\n")
        assert run_cli("summarize", "--out", str(tmp_path)) == EXIT_IO

    def test_summarize_scenario_filter_empty_selection(self, sim_dir):
        # narrowing to a scenario absent from the file leaves nothing to
        # summarize: an empty (header-only) summary, like a zero-rep run
        assert run_cli("summarize", "--scenario", "S2", "--out", str(sim_dir)) == EXIT_OK
        assert (sim_dir / "summary.csv").read_text().splitlines() == [
            ",".join(SUMMARY_COLUMNS)
        ]

    def test_summarize_single_replicate_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--scenario", "S1", "--reps", "1", "--n", "200",
            "--out", str(tmp_path),
        )
        assert code == EXIT_OK and not (tmp_path / "summary.csv").exists()
        assert run_cli("summarize", "--scenario", "S1", "--out", str(tmp_path)) == EXIT_USAGE
        assert "non-degenerate replicates" in capsys.readouterr().err


class TestEnvironmentDefaults:
    def test_threads_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNT_LAB_THREADS", "2")
        assert run_cli(*simulate_args(tmp_path / "env")) == EXIT_OK
        monkeypatch.setenv("SNT_LAB_THREADS", "1")
        assert run_cli(*simulate_args(tmp_path / "one")) == EXIT_OK
        for name in SIMULATE_FILES:
            assert (tmp_path / "env" / name).read_bytes() == (
                tmp_path / "one" / name
            ).read_bytes()

    def test_console_entry_point(self, tmp_path):
        # the child runs the same package copy as this process, installed or not
        path = [str(Path(snt_lab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-m", "snt_lab", "solve", "--out", str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0
        assert (tmp_path / "hazards.csv").exists()

    def test_import_leaves_the_process_pool_unloaded(self):
        path = [str(Path(snt_lab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, snt_lab.cli; print('concurrent.futures.process' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.stdout.strip() == "False"
