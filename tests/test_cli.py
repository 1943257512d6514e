import csv
import fnmatch
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import snt_lab
from snt_lab import estimators, harness, output
from snt_lab.cells import ANALYSES, DESIGNS
from snt_lab.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from snt_lab.config import SCENARIO_IDS
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


def cell_rows(cells):
    """The number of estimates.csv rows behind read_estimates' cells."""
    return sum(len(log_rr) for log_rr, _flags in cells.values())


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def package_env():
    """The environment of a child that runs the same package copy as this
    process, installed or not."""
    path = [str(Path(snt_lab.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def staging_dirs(out):
    return list(out.parent.glob(f".{out.name}.*"))


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


    def test_zero_untreated_risk_exits_three_and_writes_nothing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"scenarios": [{"scenario_id": "S1", "risk_untreated": [0, 0]}]}))
        sim = tmp_path / "sim"
        assert run_cli(*simulate_args(sim)) == EXIT_OK
        (sim / "summary.csv").unlink()
        before = sorted(path.name for path in sim.iterdir())
        for verb, out in (("truth", tmp_path / "truth"), ("simulate", tmp_path / "simulate"),
                          ("summarize", sim)):
            proc = subprocess.run(
                [sys.executable, "-m", "snt_lab", verb, "--scenario", "S1", "--config",
                 str(cfg), "--n", "50", "--reps", "3", "--out", str(out)],
                capture_output=True, text=True, env=package_env(),
            )
            assert proc.returncode == EXIT_INFEASIBLE, proc.stderr
            assert "Traceback" not in proc.stderr
            assert "untreated two-year risk is 0; the risk ratio is undefined" in proc.stderr
            assert staging_dirs(out) == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "sim"]
        assert sorted(path.name for path in sim.iterdir()) == before


class TestSimulateVerb:
    def test_emits_all_files_with_schemas(self, tmp_path):
        assert run_cli(*simulate_args(tmp_path)) == EXIT_OK
        for name in SIMULATE_FILES:
            assert (tmp_path / name).exists(), name
        assert header_of(tmp_path / "estimates.csv") == ESTIMATES_COLUMNS
        assert header_of(tmp_path / "describe.csv") == DESCRIBE_COLUMNS
        assert header_of(tmp_path / "summary.csv") == SUMMARY_COLUMNS
        assert header_of(tmp_path / "figure3.csv") == FIGURE_COLUMNS
        assert cell_rows(read_estimates(tmp_path / "estimates.csv")) == 8 * 14
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

    @pytest.mark.parametrize("pool", [(), ("--superpop", "1000")], ids=["law", "superpop"])
    def test_zero_replicates_build_no_type_map_and_no_class_law(
        self, tmp_path, monkeypatch, pool
    ):
        # a scenario without replicates draws no pool and builds no map and
        # no class law
        calls = []
        for owner, name in ((estimators, "person_type_map"), (harness, "person_class_map"),
                            (harness, "class_probabilities"), (harness, "draw_superpopulation")):
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        args = ("simulate", "--scenario", "all", "--n", "50", *pool)
        assert run_cli(*args, "--reps", "0", "--out", str(tmp_path / "zero")) == EXIT_OK
        assert calls == []
        assert run_cli(*args, "--reps", "1", "--out", str(tmp_path / "one")) == EXIT_OK
        assert "class_probabilities" in calls
        assert ("draw_superpopulation" in calls) == bool(pool)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"n_replicates": 3, "n_individuals": 200}}))
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "--scenario", "S1", "--config", str(cfg),
            "--reps", "5", "--seed", "9", "--out", str(out),
        )
        assert code == EXIT_OK
        header, *rows = csv_rows(out / "estimates.csv")
        column = header.index("replicate")
        assert {int(row[column]) for row in rows} == {1, 2, 3, 4, 5}

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("document, key", [
        (b'{"run": {"output_dir": 5}}', "output_dir"),
        (b'{"scenarios": [{"scenario_id": ["S1"]}]}', "scenario_id"),
        (b'{"run": {"superpop": true}}', "superpop"),
        (b'{"run": {"n_individuals": true}}', "n_individuals"),
        (b'{"scenarios": [{"scenario_id": "S1", "decision_prob": [true, 0.3]}]}',
         "decision_prob"),
        (b'{"scenarios": [{"scenario_id": "S1", "horizon_tau": 2}]}', "horizon_tau"),
        (b'{"scenarios": [{"scenario_id": "S1", "n_visits": 3}]}', "n_visits"),
        ('{"run": {"master_seed": 7}} \u00e9'.encode("latin-1"), "UTF-8"),
        (b'{"run": {"truth_override": Infinity}}', "truth_override"),
        (b'{"scenarios": [{"scenario_id": "S1", "delta": [Infinity, 0.7]}]}', "delta"),
    ], ids=["output_dir-number", "scenario_id-list", "superpop-bool", "n_individuals-bool",
            "decision_prob-bool", "horizon_tau", "n_visits", "not-utf8",
            "truth_override-infinite", "delta-infinite"])
    def test_malformed_config_value_exits_two(self, tmp_path, capsys, document, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(document)
        code = run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == EXIT_USAGE
        assert key in capsys.readouterr().err

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
        assert {key[0] for key in read_estimates(tmp_path / "estimates.csv")} == {"S1"}

    def test_cell_without_two_usable_replicates_keeps_per_replicate_outputs(
        self, tmp_path, capsys
    ):
        for stale in ("summary.csv", "figure3.csv", "figureS3.csv", "describe_summary.csv"):
            (tmp_path / stale).write_text("stale")
        args = ("--scenario", "all", "--n", "5", "--reps", "300", "--seed", "3")
        assert run_cli("simulate", *args, "--out", str(tmp_path)) == EXIT_USAGE
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ("hazards.csv", "truth.csv", "estimates.csv", "describe.csv")
        )
        cells = read_estimates(tmp_path / "estimates.csv")
        assert cell_rows(cells) == 4 * 300 * 14
        # the first cell in summary order with fewer than two unflagged rows
        summary_order = sorted(cells, key=lambda key: (
            SCENARIO_IDS.index(key[0]), DESIGNS.index(key[1]), ANALYSES.index(key[2])
        ))
        short = [key for key in summary_order if cells[key][1].count("") < 2]
        assert short
        assert f"cell {short[0]} has " in capsys.readouterr().err
        assert len((tmp_path / "describe.csv").read_text().splitlines()) == 1 + 4 * 300 * 24

    @staticmethod
    def fail_during_estimates_write(monkeypatch, exc):
        """Raise exc once estimates.csv has its header and one row."""
        real_lines = output.estimate_lines

        def estimate_lines(block):
            yield next(real_lines(block))
            raise exc

        monkeypatch.setattr(output, "estimate_lines", estimate_lines)

    def test_write_failure_midway_removes_the_partial_file(self, tmp_path, monkeypatch):
        self.fail_during_estimates_write(monkeypatch, OSError("disk full"))
        assert run_cli(*simulate_args(tmp_path)) == EXIT_IO
        assert list(tmp_path.iterdir()) == []
        assert staging_dirs(tmp_path) == []

    @pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(9)])
    def test_interrupt_during_writes_removes_outputs_and_reraises(
        self, tmp_path, monkeypatch, exc
    ):
        self.fail_during_estimates_write(monkeypatch, exc)
        with pytest.raises(type(exc)):
            run_cli(*simulate_args(tmp_path))
        assert list(tmp_path.iterdir()) == []
        assert staging_dirs(tmp_path) == []

    def test_killed_simulate_leaves_no_truncated_csv(self, tmp_path):
        args = ("simulate", "--scenario", "S1", "--reps", "4000", "--n", "20", "--seed", "8")
        ref, out = tmp_path / "ref", tmp_path / "out"
        assert run_cli(*args, "--out", str(ref)) == EXIT_OK
        proc = subprocess.Popen(
            [sys.executable, "-m", "snt_lab", *args, "--out", str(out)],
            env=package_env(), stderr=subprocess.DEVNULL,
        )
        try:
            # kill while estimates.csv is being written
            deadline = time.monotonic() + 120
            while not list(tmp_path.glob(".out.*/estimates.csv")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL
        for path in out.iterdir() if out.exists() else ():
            assert path.read_bytes() == (ref / path.name).read_bytes(), path.name

    def test_staging_left_by_dead_processes_is_removed(self, tmp_path, monkeypatch):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped, so no process has its pid
        dead = tmp_path / f".runs.{child.pid}.abc123"
        live = tmp_path / f".runs.{os.getpid()}.xyz789"
        for staging in (dead, live):
            staging.mkdir()
            (staging / "estimates.csv").write_text("partial")
        staged = []
        write_csv = output.write_csv

        def recording_write_csv(path, header, rows):
            staged.append(path.parent.name)
            write_csv(path, header, rows)

        monkeypatch.setattr(output, "write_csv", recording_write_csv)
        out = tmp_path / "runs"
        assert run_cli("solve", "--scenario", "S1", "--out", str(out)) == EXIT_OK
        assert not dead.exists()
        assert (live / "estimates.csv").read_text() == "partial"
        assert staging_dirs(out) == [live]
        # this run staged in .runs.<pid>.<random>, which .gitignore's .runs.*/ ignores
        assert len(staged) == 1 and staged[0].startswith(f".runs.{os.getpid()}.")
        gitignore = (Path(__file__).parents[1] / ".gitignore").read_text().split()
        assert ".runs.*/" in gitignore and fnmatch.fnmatch(staged[0], ".runs.*")


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

    def test_summarize_rejects_an_infinite_truth_override(self, sim_dir, capsys):
        before = (sim_dir / "summary.csv").read_bytes()
        assert run_cli(
            "summarize", "--truth-override", "inf", "--out", str(sim_dir)
        ) == EXIT_USAGE
        assert "truth_override" in capsys.readouterr().err
        assert (sim_dir / "summary.csv").read_bytes() == before

    def test_describe_verb(self, sim_dir):
        assert run_cli("describe", "--out", str(sim_dir)) == EXIT_OK
        path = sim_dir / "describe_summary.csv"
        assert header_of(path) == DESCRIBE_SUMMARY_COLUMNS
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 3 * 4 * 2 * 4  # designs x groups x severities x stats

    def test_describe_scenario_filter(self, tmp_path):
        args = ("--n", "100", "--reps", "3", "--seed", "4", "--out", str(tmp_path))
        assert run_cli("simulate", "--scenario", "all", *args) == EXIT_OK
        assert run_cli("describe", "--out", str(tmp_path)) == EXIT_OK
        header, *rows = csv_rows(tmp_path / "describe_summary.csv")
        assert {row[0] for row in rows} == {"S1", "S2", "S3", "S4"}
        assert run_cli("describe", "--scenario", "S1", *args) == EXIT_OK
        assert csv_rows(tmp_path / "describe_summary.csv") == [
            header, *(row for row in rows if row[0] == "S1")
        ]

    def test_plot_data_scenario_filter(self, tmp_path):
        args = ("--n", "100", "--reps", "3", "--seed", "4", "--out", str(tmp_path))
        assert run_cli("simulate", "--scenario", "all", *args) == EXIT_OK
        figures = {name: csv_rows(tmp_path / name) for name in ("figure3.csv", "figureS3.csv")}
        for _header, *rows in figures.values():
            assert {row[0] for row in rows} == {"S1", "S2", "S3", "S4"}
        assert run_cli("plot-data", "--scenario", "S1", *args) == EXIT_OK
        for name, (header, *rows) in figures.items():
            assert csv_rows(tmp_path / name) == [header, *(row for row in rows if row[0] == "S1")]

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

    @pytest.mark.parametrize("verb, name, column, value", [
        # column set to value on the file's line 3; None drops that line's last field
        ("summarize", "estimates.csv", None, None),
        ("summarize", "estimates.csv", "log_rr", "abc"),
        ("summarize", "estimates.csv", "scenario_id", "S9"),
        ("summarize", "estimates.csv", "analysis", "bogus"),
        ("summarize", "estimates.csv", "target_population", "all"),
        ("summarize", "estimates.csv", "replicate", "abc"),
        ("summarize", "estimates.csv", "replicate", "0"),
        ("summarize", "estimates.csv", "replicate", "1.5"),
        # line 2 holds replicate 1's true_rr row, so line 3 repeats its key
        ("summarize", "estimates.csv", "analysis", "true_rr"),
        ("describe", "describe.csv", None, None),
        ("describe", "describe.csv", "design", "XX"),
        ("describe", "describe.csv", "group", "bogus"),
        ("describe", "describe.csv", "severity", "medium"),
        ("describe", "describe.csv", "pct_high", "1.2.3"),
        ("describe", "describe.csv", "replicate", "abc"),
        ("describe", "describe.csv", "replicate", "-1"),
        # line 2 holds replicate 1's (SPT, all, low) row
        ("describe", "describe.csv", "severity", "low"),
        ("plot-data", "summary.csv", None, None),
        ("plot-data", "summary.csv", "bias", "x"),
        ("plot-data", "summary.csv", "design", "XX"),
        # line 2 holds the (S1, SPT, true_rr, none) cell
        ("plot-data", "summary.csv", "analysis", "true_rr"),
    ])
    def test_malformed_input_is_io_error_naming_the_line(
        self, sim_dir, capsys, verb, name, column, value
    ):
        path = sim_dir / name
        header, *rows = csv_rows(path)
        if column is None:
            del rows[1][-1]
        else:
            rows[1][header.index(column)] = value
        path.write_text("".join(",".join(row) + "\n" for row in (header, *rows)))
        before = {p.name: p.read_bytes() for p in sim_dir.iterdir()}
        assert run_cli(verb, "--out", str(sim_dir)) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}:3:" in err
        assert {p.name: p.read_bytes() for p in sim_dir.iterdir()} == before
        assert staging_dirs(sim_dir) == []

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
    @pytest.mark.parametrize("value", ["0", "abc", "-2", ""])
    def test_invalid_threads_env_var_is_usage_error(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("SNT_LAB_THREADS", value)
        assert run_cli(*simulate_args(tmp_path / "out")) == EXIT_USAGE
        assert "SNT_LAB_THREADS" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # an explicit --threads does not read the variable
        assert run_cli(*simulate_args(tmp_path / "out"), "--threads", "1") == EXIT_OK

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
        proc = subprocess.run(
            [sys.executable, "-m", "snt_lab", "solve", "--out", str(tmp_path)],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 0
        assert (tmp_path / "hazards.csv").exists()

    def test_import_leaves_the_process_pool_unloaded(self, tmp_path):
        script = (
            "import sys, snt_lab.cli\n"
            "print('concurrent.futures.process' in sys.modules)\n"
            "assert snt_lab.cli.main(['simulate', '--scenario', 'S1', '--n', '1000',\n"
            "                         '--reps', '2', '--threads', '1', '--out', sys.argv[1]]) == 0\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out")],
            capture_output=True, text=True, check=True, env=package_env(),
        )
        assert proc.stdout.split() == ["False", "False"]

    def test_only_the_engine_verbs_load_numpy(self, tmp_path):
        out = str(tmp_path / "out")
        script = (
            "import json, sys, snt_lab.cli\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        status = snt_lab.cli.main(argv)\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            "    assert status == 0, argv\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "print(json.dumps(loaded))\n"
        )

        def numpy_loaded(*verbs):
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(verbs)],
                capture_output=True, text=True, check=True, env=package_env(),
            )
            return json.loads(proc.stdout.splitlines()[-1])  # after --help's text

        simulate = ["simulate", "--scenario", "S1", "--n", "50", "--reps", "3", "--out", out]
        assert numpy_loaded(simulate) == [True]
        stdlib = [["--help"], ["solve", "--out", out], ["truth", "--out", out],
                  ["summarize", "--out", out], ["describe", "--out", out],
                  ["plot-data", "--out", out]]
        assert numpy_loaded(*stdlib) == [False] * 6
        assert numpy_loaded(*stdlib, simulate) == [False] * 6 + [True]
        assert numpy_loaded(["simulate", *simulate[1:5], "--reps", "0", "--out", out]) == [True]


def test_trace_script_patches_names_that_exist(tmp_path):
    """perfbench/trace.py wraps the package's functions by name, so a
    deleted or renamed one fails here and not only in a traced benchmark."""
    trace = Path(__file__).parents[1] / "perfbench" / "trace.py"
    spans = tmp_path / "spans.json"
    out = str(tmp_path / "out")
    verbs = [["simulate", "--scenario", "S1", "--n", "50", "--reps", "3", "--out", out],
             *([verb, "--out", out] for verb in ("summarize", "describe", "plot-data"))]
    proc = subprocess.run(
        [sys.executable, str(trace), str(spans), "all", json.dumps(verbs)],
        capture_output=True, text=True, env=package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads(spans.read_text())["spans"]]
    assert names.count("harness.run_replicate") == 3
    # the bench's output.read_*_s and summarize_descriptives_ms come from these
    for name in ("output.read_estimates", "output.read_describe", "output.read_summary",
                 "cli.summarize_descriptives"):
        assert names.count(name) == 1, name
