import argparse
import ast
import csv
import fnmatch
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import snt_lab
from snt_lab import cli, estimators, harness, output
from snt_lab.cells import ANALYSES, DESIGNS
from snt_lab.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    _resolve,
    build_parser,
    main,
    parse_args,
)
from snt_lab.config import SCENARIO_IDS, WEIGHT_MODE_PAPER, RunConfig
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

#: a field one character over csv's size limit, and the reader's error for it
LONG_FIELD = "x" * (csv.field_size_limit() + 1)
FIELD_LIMIT_MESSAGE = f"field larger than field limit ({csv.field_size_limit()})"


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


#: A valid value for every flag, and the flags each verb takes.
FLAG_VALUES = {
    "--scenario": "S1", "--pi": "0.5", "--reps": "3", "--n": "10", "--seed": "7",
    "--threads": "2", "--superpop": "100", "--cal-weights": "paper",
    "--truth-override": "0.8", "--config": "cfg.json", "--out": "out",
}
SCENARIO_FLAGS = ("--scenario", "--pi", "--config", "--out")
FILE_FLAGS = ("--scenario", "--config", "--out")
VERB_FLAGS = {
    "solve": SCENARIO_FLAGS,
    "truth": SCENARIO_FLAGS,
    "simulate": tuple(FLAG_VALUES),
    "summarize": SCENARIO_FLAGS + ("--truth-override",),
    "describe": FILE_FLAGS,
    "plot-data": FILE_FLAGS,
}


class TestEmptyOutputDirectory:
    """An empty output directory is refused, never taken for the current
    directory, whose files stay as they were; "." still names it."""

    @staticmethod
    def files(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    @pytest.fixture
    def cwd(self, tmp_path, monkeypatch):
        """A current directory that holds a run's files."""
        monkeypatch.chdir(tmp_path)
        for name in SIMULATE_FILES + ("describe_summary.csv",):
            (tmp_path / name).write_text("kept")
        (tmp_path / "cfg.json").write_text('{"run": {"output_dir": ""}}')
        return tmp_path

    @pytest.mark.parametrize("verb", VERB_FLAGS)
    def test_an_empty_out_exits_two(self, cwd, capsys, verb):
        before = self.files(cwd)
        with pytest.raises(SystemExit) as exc:
            run_cli(verb, "--scenario", "S1", "--out", "")
        assert exc.value.code == EXIT_USAGE
        assert "argument --out: must not be empty\n" in capsys.readouterr().err
        assert self.files(cwd) == before

    @pytest.mark.parametrize("verb", VERB_FLAGS)
    def test_an_empty_config_output_dir_exits_two(self, cwd, capsys, verb):
        before = self.files(cwd)
        assert run_cli(verb, "--scenario", "S1", "--config", "cfg.json") == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: run field 'output_dir' must be a non-empty path string\n"
        )
        assert self.files(cwd) == before

    def test_out_dot_is_the_current_directory(self, cwd):
        assert run_cli("solve", "--scenario", "S1", "--out", ".") == EXIT_OK
        assert (cwd / "hazards.csv").read_text().startswith("scenario_id,")


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

    @pytest.mark.parametrize("verb, flag", [(v, f) for v in VERB_FLAGS for f in FLAG_VALUES])
    def test_a_verb_takes_only_the_flags_it_reads(self, capsys, verb, flag):
        argv = [verb, flag, FLAG_VALUES[flag]]
        if flag in VERB_FLAGS[verb]:
            parse_args(argv)
            return
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_each_flag_sets_its_config_field(self):
        assert _resolve(parse_args(["simulate"]))[1] == RunConfig()
        flags = [token for flag, value in FLAG_VALUES.items() if flag != "--config"
                 for token in (flag, value)]
        specs, run = _resolve(parse_args(["simulate", *flags]))
        assert [(s.scenario_id, s.progression_prob) for s in specs] == [("S1", 0.5)]
        # --threads is checked but sets no field
        assert run == RunConfig(
            n_individuals=10, n_replicates=3, master_seed=7,
            output_dir=Path("out"), cal_weight_mode=WEIGHT_MODE_PAPER, superpop=100,
            truth_override=0.8,
        )

    def test_help_names_each_value_after_its_flag(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--help")
        text = capsys.readouterr().out
        for usage in ("--pi PI", "--reps REPS", "--n N", "--seed SEED", "--threads THREADS",
                      "--cal-weights {initiation,paper}", "--out OUT"):
            assert f"[{usage}]" in text, usage

    @pytest.mark.parametrize("flag, rule, values", [
        ("--reps", "an integer >= 0", ["abc", "1.5", "", "-1"]),
        ("--n", "an integer >= 1", ["abc", "1e3", "0"]),
        ("--seed", "an unsigned 64-bit integer", ["abc", "-1", str(2**64)]),
        ("--threads", "an integer >= 1", ["abc", "0"]),
        ("--superpop", "an integer >= 1", ["abc", "-3"]),
    ])
    def test_a_bad_integer_states_the_flags_rule(self, capsys, flag, rule, values):
        for value in values:
            with pytest.raises(SystemExit) as exc:
                run_cli("simulate", flag, value)
            assert exc.value.code == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"argument {flag}: must be {rule}, got {value!r}\n" in err, err

    def test_bad_cal_weights_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--cal-weights", "paper_simplified")
        assert exc.value.code == EXIT_USAGE
        assert "--cal-weights: must be initiation or paper" in capsys.readouterr().err

    def test_readme_flag_table_matches_the_parser(self):
        """README's verb x flag table lists exactly the flags each verb takes."""
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()

        def cells(line):  # a markdown table row; a "\|" inside a cell is no border
            return [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]

        verbs = cells(next(line for line in lines if line.startswith("| flag ")))[1:]
        documented = {verb: [] for verb in verbs}
        for line in lines:
            if line.startswith("| `--"):
                flag, *marks = cells(line)
                for verb, mark in zip(verbs, marks, strict=True):
                    if mark:
                        documented[verb].append(re.match(r"`(--[a-z-]+)", flag).group(1))
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert documented == {
            verb: [option for action in parser._actions for option in action.option_strings
                   if option != "--help" and option.startswith("--")]
            for verb, parser in subparsers.choices.items()
        }


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

    def test_infeasible_names_the_scenario(self, tmp_path, capsys):
        # S1 solves at this pi; S2 is the first scenario that does not
        assert run_cli("solve", "--pi", "0.78", "--out", str(tmp_path)) == EXIT_INFEASIBLE
        assert "calibration infeasible: S2 low_treated: " in capsys.readouterr().err


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
        for verb, out, extra in (("truth", tmp_path / "truth", ()),
                                 ("simulate", tmp_path / "simulate", ("--n", "50", "--reps", "3")),
                                 ("summarize", sim, ())):
            proc = subprocess.run(
                [sys.executable, "-m", "snt_lab", verb, "--scenario", "S1", "--config",
                 str(cfg), *extra, "--out", str(out)],
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

    def test_a_blocked_class_draw_exits_three_with_one_error_line(self, tmp_path):
        # every decision point initiates at high severity, so an untreated
        # Visit 1 index with high severity at Visit 2 is censored for certain
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenarios": [
            {"scenario_id": "S3", "decision_prob": [1.0, 1.0], "treat_prob": [0.5, 1.0]}
        ]}))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "snt_lab", "simulate", "--scenario", "S3", "--config",
             str(cfg), "--n", "3", "--reps", "40", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == EXIT_INFEASIBLE, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: replicate 1 of S3 failed: certain censoring: "
            "Pr(uncensored) = 0 for some severity level"
        ]
        assert not out.exists() and staging_dirs(out) == []

    @pytest.mark.parametrize("below", [("x",), ()], ids=["under-a-file", "a-file"])
    def test_an_out_that_cannot_be_made_fails_before_any_draw(self, tmp_path, capsys, below):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker.joinpath(*below)
        code = run_cli("simulate", "--reps", "1000", "--n", "5000", "--out", str(out))
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "replicates x n=" not in err and err.startswith("error: "), err
        assert len(err.splitlines()) == 1, err
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept"

    def test_a_config_with_parallelism_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"parallelism": 2}}))
        out = tmp_path / "out"
        assert run_cli(*simulate_args(out), "--config", str(cfg)) == EXIT_USAGE
        assert "unknown run keys: ['parallelism']" in capsys.readouterr().err
        assert not out.exists()

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
        # no class law; person_class_map looks _class_map up at call time
        calls = []
        for owner, name in ((estimators, "_class_map"), (harness, "person_class_map"),
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

        def estimate_lines(blocks):
            yield next(real_lines(blocks))
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

    @pytest.mark.parametrize("scenario", ["S1", "all"])
    def test_killed_simulate_leaves_no_truncated_csv(self, tmp_path, scenario):
        # with all four scenarios on two CPUs or more, the parent is killed
        # while it writes its half, and its child may still be running
        args = ("simulate", "--scenario", scenario, "--reps", "4000", "--n", "20", "--seed", "8")
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
        # a live run into runs.<dead pid> stages here; its first field is no pid
        sibling = tmp_path / f".runs.{child.pid}.{os.getpid()}.def456"
        for staging in (dead, live, sibling):
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
        for kept in (live, sibling):
            assert (kept / "estimates.csv").read_text() == "partial"
        assert sorted(staging_dirs(out)) == sorted([live, sibling])
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
        assert run_cli("describe", "--scenario", "S1", "--out", str(tmp_path)) == EXIT_OK
        assert csv_rows(tmp_path / "describe_summary.csv") == [
            header, *(row for row in rows if row[0] == "S1")
        ]

    def test_plot_data_scenario_filter(self, tmp_path):
        args = ("--n", "100", "--reps", "3", "--seed", "4", "--out", str(tmp_path))
        assert run_cli("simulate", "--scenario", "all", *args) == EXIT_OK
        figures = {name: csv_rows(tmp_path / name) for name in ("figure3.csv", "figureS3.csv")}
        for _header, *rows in figures.values():
            assert {row[0] for row in rows} == {"S1", "S2", "S3", "S4"}
        assert run_cli("plot-data", "--scenario", "S1", "--out", str(tmp_path)) == EXIT_OK
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

    @pytest.mark.parametrize("verb, name, column, value, message", [
        # column set to value on the file's line 3, None drops that line's
        # last field; message is the error after "error: <path>:3: "
        ("summarize", "estimates.csv", None, None, "11 fields, expected 12"),
        ("summarize", "estimates.csv", "log_rr", "abc", "log_rr 'abc' is not a number"),
        ("summarize", "estimates.csv", "scenario_id", "S9",
         "unknown scenario_id/design/analysis/target_population ('S9', 'SPT', 'crude', 'none')"),
        ("summarize", "estimates.csv", "analysis", "bogus",
         "unknown scenario_id/design/analysis/target_population ('S1', 'SPT', 'bogus', 'none')"),
        ("summarize", "estimates.csv", "target_population", "all",
         "unknown scenario_id/design/analysis/target_population ('S1', 'SPT', 'crude', 'all')"),
        ("summarize", "estimates.csv", "replicate", "abc", "replicate 'abc' is not an integer"),
        ("summarize", "estimates.csv", "replicate", "0", "replicate 0 is not >= 1"),
        ("summarize", "estimates.csv", "replicate", "1.5", "replicate '1.5' is not an integer"),
        # line 2 holds replicate 1's true_rr row, so line 3 repeats its key
        ("summarize", "estimates.csv", "analysis", "true_rr",
         "cell/replicate ('S1', 'SPT', 'true_rr', 'none', 1) repeats line 2"),
        ("describe", "describe.csv", None, None, "8 fields, expected 9"),
        ("describe", "describe.csv", "design", "XX",
         "unknown scenario_id/design/group/severity ('S1', 'XX', 'all', 'high')"),
        ("describe", "describe.csv", "group", "bogus",
         "unknown scenario_id/design/group/severity ('S1', 'SPT', 'bogus', 'high')"),
        ("describe", "describe.csv", "severity", "medium",
         "unknown scenario_id/design/group/severity ('S1', 'SPT', 'all', 'medium')"),
        ("describe", "describe.csv", "n_people", "x", "n_people 'x' is not a number"),
        ("describe", "describe.csv", "n_indexes", "", "n_indexes '' is not a number"),
        ("describe", "describe.csv", "pct_high", "1.2.3", "pct_high '1.2.3' is not a number"),
        ("describe", "describe.csv", "avg_indexes_per_person", "0.5x",
         "avg_indexes_per_person '0.5x' is not a number"),
        ("describe", "describe.csv", "replicate", "abc", "replicate 'abc' is not an integer"),
        ("describe", "describe.csv", "replicate", "-1", "replicate -1 is not >= 1"),
        ("describe", "describe.csv", "replicate", "0", "replicate 0 is not >= 1"),
        ("describe", "describe.csv", "replicate", "1.5", "replicate '1.5' is not an integer"),
        # line 2 holds replicate 1's (SPT, all, low) row
        ("describe", "describe.csv", "severity", "low",
         "cell/replicate ('S1', 'SPT', 'all', 'low', 1) repeats line 2"),
        ("plot-data", "summary.csv", None, None, "9 fields, expected 10"),
        ("plot-data", "summary.csv", "bias", "x", "bias 'x' is not a number"),
        ("plot-data", "summary.csv", "design", "XX",
         "unknown scenario_id/design/analysis/target_population ('S1', 'XX', 'crude', 'none')"),
        # line 2 holds the (S1, SPT, true_rr, none) cell
        ("plot-data", "summary.csv", "analysis", "true_rr",
         "cell ('S1', 'SPT', 'true_rr', 'none') repeats line 2"),
        # a field over csv's size limit stops the reader on its line
        *(pytest.param(verb, name, "design", LONG_FIELD, FIELD_LIMIT_MESSAGE,
                       id=f"{verb}-{name}-design-long_field")
          for verb, name in (("summarize", "estimates.csv"), ("describe", "describe.csv"),
                             ("plot-data", "summary.csv"))),
    ])
    def test_malformed_input_is_io_error_naming_the_line(
        self, sim_dir, capsys, verb, name, column, value, message
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
        assert capsys.readouterr().err == f"error: {path}:3: {message}\n"
        assert {p.name: p.read_bytes() for p in sim_dir.iterdir()} == before
        assert staging_dirs(sim_dir) == []

    @pytest.mark.parametrize("verb, name", [
        ("summarize", "estimates.csv"), ("describe", "describe.csv"), ("plot-data", "summary.csv"),
    ])
    def test_a_byte_that_is_not_utf8_is_io_error_naming_the_file(
        self, sim_dir, capsys, verb, name
    ):
        # decoding is done in chunks, so no line can be named
        path = sim_dir / name
        with open(path, "ab") as fh:
            fh.write(b"S1,1,SPT,all,lo\xffw,1,1,1,1\n")
        before = {p.name: p.read_bytes() for p in sim_dir.iterdir()}
        assert run_cli(verb, "--out", str(sim_dir)) == EXIT_IO
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"
        assert {p.name: p.read_bytes() for p in sim_dir.iterdir()} == before
        assert staging_dirs(sim_dir) == []

    def test_the_first_defect_in_line_order_is_named(self, sim_dir, capsys):
        # each row is checked as it is read, field count included
        path = sim_dir / "estimates.csv"
        header, *rows = csv_rows(path)
        rows[1][header.index("log_rr")] = "abc"
        del rows[3][-1]
        path.write_text("".join(",".join(row) + "\n" for row in (header, *rows)))
        assert run_cli("summarize", "--out", str(sim_dir)) == EXIT_IO
        assert f"{path}:3: log_rr 'abc' is not a number" in capsys.readouterr().err

    def test_a_replicate_id_of_any_size_reads_back(self, tmp_path):
        path = tmp_path / "describe.csv"
        path.write_text("".join(
            ",".join(row) + "\n" for row in (
                DESCRIBE_COLUMNS,
                ("S1", "1", "SPT", "all", "low", "300", "40", "12.5", "0.5"),
                ("S1", str(10**12), "SPT", "all", "low", "310", "41", "13.5", "0.25"),
            )
        ))
        cells = output.read_describe(path)
        assert {key: list(map(list, columns)) for key, columns in cells.items()} == {
            ("S1", "SPT", "all", "low"): [[300.0, 310.0], [40.0, 41.0], [12.5, 13.5], [0.5, 0.25]]
        }

    def test_readers_hold_only_the_cells_columns(self, tmp_path):
        args = ("--scenario", "all", "--n", "200", "--reps", "150", "--superpop", "1000000")
        assert run_cli("simulate", *args, "--out", str(tmp_path)) == EXIT_OK
        for read, name, rows, limit_mb in ((output.read_describe, "describe.csv", 14_400, 5),
                                           (output.read_estimates, "estimates.csv", 8_400, 2)):
            tracemalloc.start()
            try:
                cells = read(tmp_path / name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(len(columns[0]) for columns in cells.values()) == rows
            assert peak < limit_mb * 1e6, (name, peak)

    def test_summarize_removes_the_figure_files_of_the_summary_it_replaces(self, sim_dir):
        assert run_cli(
            "summarize", "--scenario", "S1", "--truth-override", "0.5", "--out", str(sim_dir)
        ) == EXIT_OK
        assert not (sim_dir / "figure3.csv").exists()
        assert not (sim_dir / "figureS3.csv").exists()
        assert run_cli("plot-data", "--out", str(sim_dir)) == EXIT_OK
        header, *rows = csv_rows(sim_dir / "figure3.csv")
        summary = {tuple(row[:3]): row for row in csv_rows(sim_dir / "summary.csv")[1:]}
        assert rows[0][:4] == ["S1", "SPT", "crude", summary["S1", "SPT", "crude"][5]]

    def test_summarize_calibrates_only_the_scenarios_it_has_rows_for(self, tmp_path):
        # S2 cannot be calibrated at pi = 0.78, but the file holds only S1
        args = ("--pi", "0.78", "--out", str(tmp_path))
        assert run_cli("simulate", "--scenario", "S1", "--reps", "8", "--n", "300",
                       *args) == EXIT_OK
        assert run_cli("summarize", "--scenario", "S1", *args) == EXIT_OK
        selected = (tmp_path / "summary.csv").read_bytes()
        assert run_cli("summarize", *args) == EXIT_OK
        assert (tmp_path / "summary.csv").read_bytes() == selected

    def test_summarize_with_a_truth_override_calibrates_nothing(self, tmp_path):
        # the config's S1 truth is undefined, but the override replaces it
        config = tmp_path / "c.json"
        config.write_text(json.dumps(
            {"scenarios": [{"scenario_id": "S1", "risk_untreated": [0, 0]}]}
        ))
        args = ("--scenario", "S1", "--out", str(tmp_path))
        assert run_cli("simulate", "--n", "100", "--reps", "3", *args) == EXIT_OK
        assert run_cli("summarize", "--truth-override", "0.7", *args) == EXIT_OK
        plain = (tmp_path / "summary.csv").read_bytes()
        assert run_cli("summarize", "--config", str(config), "--truth-override", "0.7",
                       *args) == EXIT_OK
        assert (tmp_path / "summary.csv").read_bytes() == plain

    def test_rows_of_unselected_scenarios_are_skipped_after_their_label_check(
        self, tmp_path, capsys
    ):
        args = ("--n", "100", "--reps", "3", "--seed", "4", "--out", str(tmp_path))
        assert run_cli("simulate", "--scenario", "all", *args) == EXIT_OK
        path = tmp_path / "estimates.csv"
        header, *rows = csv_rows(path)
        line = next(i for i, row in enumerate(rows) if row[0] == "S2")
        rows[line][header.index("log_rr")] = "abc"
        path.write_text("".join(",".join(row) + "\n" for row in (header, *rows)))
        assert run_cli("summarize", "--out", str(tmp_path)) == EXIT_IO
        assert f"{path}:{line + 2}: log_rr 'abc' is not a number" in capsys.readouterr().err
        assert run_cli("summarize", "--scenario", "S1", "--out", str(tmp_path)) == EXIT_OK
        # an unknown label is still an error in a row of another scenario
        rows[line][header.index("analysis")] = "bogus"
        path.write_text("".join(",".join(row) + "\n" for row in (header, *rows)))
        assert run_cli("summarize", "--scenario", "S1", "--out", str(tmp_path)) == EXIT_IO
        assert f"{path}:{line + 2}: unknown" in capsys.readouterr().err

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
    def test_the_threads_env_var_is_not_read(self, tmp_path, monkeypatch):
        assert run_cli(*simulate_args(tmp_path / "unset")) == EXIT_OK
        monkeypatch.setenv("SNT_LAB_THREADS", "abc")
        assert run_cli(*simulate_args(tmp_path / "garbage")) == EXIT_OK
        for name in SIMULATE_FILES:
            assert (tmp_path / "garbage" / name).read_bytes() == (
                tmp_path / "unset" / name
            ).read_bytes(), name

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "snt_lab", "solve", "--out", str(tmp_path)],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == 0
        assert (tmp_path / "hazards.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_import_leaves_the_process_pool_unloaded(self, tmp_path, threads):
        script = (
            "import sys, snt_lab.cli\n"
            "print('concurrent.futures' in sys.modules)\n"
            "assert snt_lab.cli.main(['simulate', '--scenario', 'S1', '--n', '1000',\n"
            "                         '--reps', '2', '--threads', sys.argv[2],\n"
            "                         '--out', sys.argv[1]]) == 0\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out"), threads],
            capture_output=True, text=True, check=True, env=package_env(),
        )
        assert proc.stdout.split() == ["False", "False"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    @pytest.mark.parametrize("preset", [None, "2"])
    def test_simulate_loads_numpy_with_one_blas_thread(self, tmp_path, preset):
        # the engine calls no BLAS routine, so OpenBLAS starts no thread
        # pool; a value the user set is kept
        script = (
            "import os, sys, snt_lab.cli\n"
            "assert snt_lab.cli.main(['simulate', '--scenario', 'S1', '--n', '200',\n"
            "                         '--reps', '2', '--threads', '1', '--out', sys.argv[1]]) == 0\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))\n"
        )
        env = package_env()
        env.pop("OPENBLAS_NUM_THREADS", None)  # in-process simulate tests set it here
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out")],
            capture_output=True, text=True, check=True, env=env,
        )
        value, threads = proc.stdout.split()
        if preset is None:
            assert threads == "1"
        assert value == (preset or "1")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_console_entry_point_runs_without_openssl(self, tmp_path, threads):
        # numpy.random imports secrets, hmac and so _hashlib (OpenSSL's
        # libcrypto); the program's own process uses the built-in hashes.
        # console_main's fast exit is replaced by sys.exit, so the script
        # goes on to check the hashes after it.
        script = (
            "import json, sys, snt_lab.cli\n"
            "snt_lab.cli._leave_process = sys.exit\n"
            "try:\n"
            "    snt_lab.cli.console_main()\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "import hashlib, hmac\n"
            "print(json.dumps([sys.modules.get('_hashlib') is None,\n"
            "                  'numpy.random' in sys.modules,\n"
            "                  hashlib.sha256(b'abc').hexdigest(),\n"
            "                  hmac.new(b'Jefe', b'what do ya want for nothing?',\n"
            "                           'sha256').hexdigest()]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--n", "200", "--reps", "6",
             "--threads", threads, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, check=True, env=package_env(),
        )
        # FIPS 180-2 and RFC 4231 (test case 2) known answers
        assert json.loads(proc.stdout) == [
            True, True,
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ]
        # hashlib logs nothing about a missing hash: stderr holds only the
        # per-scenario lines
        assert [re.sub(r"\d+\.\ds$", "", line) for line in proc.stderr.splitlines()] == [
            f"{sid}: 6 replicates x n=200 done in " for sid in SCENARIO_IDS
        ]

    def test_a_library_caller_keeps_openssl(self, tmp_path):
        pytest.importorskip("_hashlib")  # a Python built with OpenSSL
        script = (
            "import sys, snt_lab.cli\n"
            "assert snt_lab.cli.main(['simulate', '--scenario', 'S1', '--n', '200',\n"
            "                         '--reps', '2', '--out', sys.argv[1]]) == 0\n"
            "import _hashlib\n"
        )
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out")],
            capture_output=True, text=True, check=True, env=package_env(),
        )

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
            "    assert status == int(sys.argv[2]), (argv, status)\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "print(json.dumps(loaded))\n"
        )

        def numpy_loaded(*verbs, status=EXIT_OK):
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(verbs), str(status)],
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
        assert numpy_loaded(["simulate", *simulate[1:5], "--reps", "0", "--out", out]) == [False]
        # a simulate without a replicate to draw, or one that fails before its
        # first draw, runs on the standard library too
        assert numpy_loaded(["simulate", *simulate[1:5], "--reps", "0", "--superpop", "1000",
                             "--out", out]) == [False]
        infeasible = ["simulate", "--scenario", "S2", "--pi", "0.78", "--reps", "2", "--out", out]
        assert numpy_loaded(infeasible, status=EXIT_INFEASIBLE) == [False]
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        unmakeable = ["simulate", *simulate[1:5], "--reps", "2", "--out", str(blocker)]
        assert numpy_loaded(unmakeable, status=EXIT_IO) == [False]

    def test_the_engine_loads_once_after_hazards_and_truth_are_staged(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        staged = []
        load_engine = cli._load_engine

        def recorded():
            staged.append(sorted(p.name for d in staging_dirs(out) for p in d.iterdir()))
            load_engine()

        monkeypatch.setattr(cli, "_load_engine", recorded)
        argv = ["simulate", "--scenario", "all", "--n", "50", "--out", str(out)]
        assert run_cli(*argv, "--reps", "0") == EXIT_OK
        assert staged == []
        assert run_cli(*argv, "--reps", "3") == EXIT_OK
        assert staged == [["hazards.csv", "truth.csv"]]

    def test_the_console_path_of_a_set_up_run_imports_no_numpy(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "snt_lab", "simulate", "--reps", "0",
             "--n", "50", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=package_env(),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = proc.stderr.splitlines()
        assert [line for line in lines if "numpy" in line] == []
        assert without_times("\n".join(line for line in lines
                                        if not line.startswith("import time:"))) == [
            f"{sid}: 0 replicates x n=50 done in" for sid in SCENARIO_IDS
        ]

    def test_no_verb_loads_dataclasses_or_an_unused_parser(self, tmp_path):
        # the child reads its verbs with eval and prints a repr, so that
        # nothing but the verbs themselves can load json
        out = str(tmp_path / "out")
        config = tmp_path / "config.json"
        config.write_text('{"run": {"n_individuals": 50}}')
        script = (
            "import sys, snt_lab.cli\n"
            "loaded = []\n"
            "for argv in eval(sys.argv[1]):\n"
            "    try:\n"
            "        status = snt_lab.cli.main(argv)\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            "    assert status == 0, argv\n"
            "    loaded.append(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
            "print(repr(loaded))\n"
        )
        assert run_cli("simulate", "--scenario", "S1", "--n", "50", "--reps", "3",
                       "--out", out) == EXIT_OK
        stdlib = [["--help"], ["solve", "--out", out], ["truth", "--out", out],
                  ["summarize", "--out", out], ["describe", "--out", out],
                  ["plot-data", "--out", out]]
        verbs = [*stdlib, ["solve", "--config", str(config), "--out", out],
                 ["simulate", "--scenario", "S1", "--n", "50", "--reps", "3", "--out", out]]
        proc = subprocess.run(
            [sys.executable, "-c", script, repr(verbs)],
            capture_output=True, text=True, check=True, env=package_env(),
        )
        loaded = ast.literal_eval(proc.stdout.splitlines()[-1])  # after --help's text
        assert loaded[:6] == [[]] * 6
        assert loaded[6] == ["json"]
        assert "dataclasses" not in loaded[7]


class TestInProcessDraws:
    @pytest.fixture
    def pools_built(self, monkeypatch):
        """The max_workers of every ProcessPoolExecutor built from now on."""
        import concurrent.futures

        built = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                built.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        return built

    def test_two_threads_write_the_files_of_one(self, tmp_path, pools_built):
        argv = ["simulate", "--scenario", "all", "--n", "200", "--reps", "6"]
        assert run_cli(*argv, "--threads", "2", "--out", str(tmp_path / "two")) == EXIT_OK
        assert run_cli(*argv, "--threads", "1", "--out", str(tmp_path / "one")) == EXIT_OK
        assert pools_built == []
        for name in SIMULATE_FILES:
            assert (tmp_path / "two" / name).read_bytes() == (
                tmp_path / "one" / name
            ).read_bytes()

    def test_blocks_of_seven_write_the_files_of_one_block(self, tmp_path, monkeypatch):
        # 20 replicates per scenario are one block at the default size and
        # blocks of 7, 7 and 6 here
        argv = ["simulate", "--scenario", "all", "--n", "200", "--reps", "20"]
        assert run_cli(*argv, "--out", str(tmp_path / "one")) == EXIT_OK
        monkeypatch.setattr(harness, "BLOCK_ROWS", 7)
        assert run_cli(*argv, "--out", str(tmp_path / "sevens")) == EXIT_OK
        for name in SIMULATE_FILES:
            assert (tmp_path / "sevens" / name).read_bytes() == (
                tmp_path / "one" / name
            ).read_bytes(), name

    @pytest.mark.parametrize("threads, reps", [("1", "6"), ("4", "6"), ("2", "0"), ("2", "1")])
    def test_no_run_builds_a_pool(self, tmp_path, pools_built, threads, reps):
        argv = ["simulate", "--n", "200", "--reps", reps, "--threads", threads]
        assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
        assert pools_built == []


def set_cpus(monkeypatch, count):
    """Make simulate see count CPUs in its affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def without_times(text):
    return [re.sub(r"done in \d+\.\ds$", "done in", line) for line in text.splitlines()]


def assert_no_child_left():
    # every child this process made has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
class TestSecondProcess:
    @pytest.fixture
    def forks(self, monkeypatch):
        """The os.fork calls made from now on."""
        calls = []
        fork = os.fork

        def counted():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @pytest.mark.parametrize("case", ["default", "blocks-of-7", "superpop"])
    def test_two_processes_write_the_files_of_one(self, tmp_path, monkeypatch, forks, case):
        argv = ["simulate", "--scenario", "all", "--n", "200", "--reps", "20", "--seed", "17"]
        if case == "blocks-of-7":  # blocks of 7, 7 and 6 replicates per scenario
            monkeypatch.setattr(harness, "BLOCK_ROWS", 7)
        if case == "superpop":
            argv += ["--superpop", "5000"]
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            assert run_cli(*argv, "--out", str(tmp_path / str(cpus))) == EXIT_OK
            assert len(forks) == cpus - 1
        for name in SIMULATE_FILES:
            assert (tmp_path / "2" / name).read_bytes() == (
                tmp_path / "1" / name
            ).read_bytes(), name
        assert staging_dirs(tmp_path / "2") == []
        assert_no_child_left()

    @pytest.mark.parametrize("scenario, reps, cpus, forked", [
        ("all", "2", 2, 1), ("all", "2", 8, 1), ("S1", "2", 2, 0), ("all", "0", 2, 0),
        ("all", "2", 1, 0),
    ], ids=["all", "eight-cpus", "one-scenario", "no-replicates", "one-cpu"])
    def test_only_a_run_with_two_cpus_scenarios_and_a_replicate_forks(
        self, tmp_path, monkeypatch, capsys, forks, scenario, reps, cpus, forked
    ):
        set_cpus(monkeypatch, cpus)
        argv = ["simulate", "--scenario", scenario, "--n", "100", "--reps", reps]
        assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
        assert len(forks) == forked
        # the parent prints every scenario's line, in scenario order
        ids = SCENARIO_IDS if scenario == "all" else (scenario,)
        assert without_times(capsys.readouterr().err) == [
            f"{sid}: {reps} replicates x n=100 done in" for sid in ids
        ]
        assert_no_child_left()

    def test_a_process_with_another_thread_does_not_fork(self, tmp_path, monkeypatch, forks):
        set_cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert run_cli("simulate", "--n", "100", "--reps", "2",
                           "--out", str(tmp_path)) == EXIT_OK
        finally:
            release.set()
            thread.join()
        assert forks == []

    def test_a_blocked_class_in_the_second_process_exits_three_as_in_one(
        self, tmp_path, monkeypatch, capsys, forks
    ):
        # S3 alone always initiates at high severity (see
        # test_a_blocked_class_draw_exits_three_with_one_error_line)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenarios": [
            {"scenario_id": "S3", "decision_prob": [1.0, 1.0], "treat_prob": [0.5, 1.0]}
        ]}))
        argv = ["simulate", "--scenario", "all", "--config", str(cfg), "--n", "3",
                "--reps", "40", "--seed", "1"]
        errors = {}
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            out = tmp_path / f"out{cpus}"
            assert run_cli(*argv, "--out", str(out)) == EXIT_INFEASIBLE
            errors[cpus] = without_times(capsys.readouterr().err)
            assert not out.exists() and staging_dirs(out) == []
        assert len(forks) == 1
        assert errors[2] == errors[1] == [
            "S1: 40 replicates x n=3 done in", "S2: 40 replicates x n=3 done in",
            "error: replicate 1 of S3 failed: certain censoring: "
            "Pr(uncensored) = 0 for some severity level",
        ]
        assert_no_child_left()

    def test_a_second_process_that_dies_without_a_result_exits_one(
        self, tmp_path, monkeypatch, capsys, forks
    ):
        run_scenario = cli.run_scenario

        def dying(spec, *args):
            if spec.scenario_id == "S3":
                os._exit(7)
            return run_scenario(spec, *args)

        monkeypatch.setattr(cli, "run_scenario", dying)
        set_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        assert run_cli("simulate", "--n", "100", "--reps", "3", "--out", str(out)) == EXIT_IO
        assert len(forks) == 1
        assert without_times(capsys.readouterr().err) == [
            "S1: 3 replicates x n=100 done in", "S2: 3 replicates x n=100 done in",
            "error: the process running S3, S4 ended with exit status 7 "
            "before it handed back its result",
        ]
        assert not out.exists() and staging_dirs(out) == []
        assert_no_child_left()

    def test_the_staging_channel_leaves_only_the_run_files(self, tmp_path, monkeypatch, forks):
        # the child's <name>.back parts and its pickled result stay in the
        # staging directory, which goes with them
        set_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        assert run_cli("simulate", "--n", "100", "--reps", "3", "--out", str(out)) == EXIT_OK
        assert len(forks) == 1
        assert sorted(p.name for p in out.iterdir()) == sorted(SIMULATE_FILES)
        assert staging_dirs(out) == []
        assert_no_child_left()

    def test_an_interrupt_in_the_parent_kills_the_second_process(
        self, tmp_path, monkeypatch, forks
    ):
        TestSimulateVerb.fail_during_estimates_write(monkeypatch, KeyboardInterrupt())
        set_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            run_cli("simulate", "--n", "100", "--reps", "3", "--out", str(out))
        assert len(forks) == 1
        assert not out.exists() and staging_dirs(out) == []
        assert_no_child_left()


def console_env():
    """package_env without PYTHONUNBUFFERED, so the child's streams buffer
    as a user's do and a line lost to the fast exit would show."""
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


class TestFastExit:
    """The program's own process leaves by os._exit once main returns
    (console_main), with every status, message and file of a normal exit."""

    @staticmethod
    def console(*argv, cwd=None):
        return subprocess.run([sys.executable, "-m", "snt_lab", *argv], capture_output=True,
                              text=True, env=console_env(), timeout=120, cwd=cwd)

    def test_a_run_exits_zero_with_every_line_and_file(self, tmp_path):
        argv = ("simulate", "--scenario", "all", "--n", "100", "--reps", "4", "--seed", "9")
        proc = self.console(*argv, "--out", str(tmp_path / "console"))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert without_times(proc.stderr) == [
            f"{sid}: 4 replicates x n=100 done in" for sid in SCENARIO_IDS
        ]
        assert run_cli(*argv, "--out", str(tmp_path / "main")) == EXIT_OK
        for name in SIMULATE_FILES:
            assert (tmp_path / "console" / name).read_bytes() == (
                tmp_path / "main" / name
            ).read_bytes(), name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["console", "main"]

    @pytest.mark.parametrize("argv, status, message", [
        (("--out", "afile", "--reps", "2"), EXIT_IO, "error: [Errno 20] Not a directory"),
        (("--scenario", "S1", "--n", "5", "--reps", "2"), EXIT_USAGE,
         "error: cell ('S1', 'SPT', 'true_rr', 'none') has 0 non-degenerate replicates"),
        (("--n", "0"), EXIT_USAGE, "snt-lab simulate: error: argument --n: must be"),
        (("--scenario", "S2", "--pi", "0.78", "--reps", "2"), EXIT_INFEASIBLE,
         "error: calibration infeasible: S2 low_treated: "),
    ], ids=["existing-file", "too-few-usable-replicates", "usage", "infeasible"])
    def test_a_failure_keeps_its_status_and_its_one_error_line(
        self, tmp_path, argv, status, message
    ):
        (tmp_path / "afile").write_text("kept")
        proc = self.console("simulate", "--out", "out", "--n", "50", *argv, cwd=tmp_path)
        assert proc.returncode == status, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith(message), proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.glob(".out.*")) == list(tmp_path.glob(".afile.*")) == []
        assert (tmp_path / "afile").read_text() == "kept"

    def test_a_failed_flush_takes_the_normal_exit(self, tmp_path):
        script = (
            "import sys, snt_lab.cli\n"
            "class Closed:\n"
            "    def write(self, text):\n"
            "        return len(text)\n"
            "    def flush(self):\n"
            "        raise BrokenPipeError(32, 'Broken pipe')\n"
            "sys.stdout = Closed()\n"
            "try:\n"
            "    snt_lab.cli.console_main()\n"
            "except SystemExit as exc:\n"
            "    sys.stdout = sys.__stdout__\n"
            "    print('normal exit', exc.code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "solve", "--scenario", "S1",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=console_env(), timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "normal exit 0\n", "")
        assert (tmp_path / "out" / "hazards.csv").exists()

    @pytest.mark.parametrize("call, printed", [
        ("sys.exit(snt_lab.cli.main(sys.argv[1:]))", "atexit ran\n"),
        ("snt_lab.cli.console_main()", ""),
    ], ids=["library-caller", "console"])
    def test_only_a_library_caller_runs_its_atexit_handlers(self, tmp_path, call, printed):
        script = "import atexit, sys, snt_lab.cli\natexit.register(print, 'atexit ran')\n" + call
        proc = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--scenario", "S1", "--n", "200",
             "--reps", "2", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=console_env(), timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_OK, printed), proc.stderr
        assert (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_the_verbs_leave_nothing_open_for_the_fast_exit_to_hide(self, tmp_path):
        # every file and child is closed or reaped by main itself: under
        # -X dev a ResourceWarning for one is an error, printed on stderr
        script = (
            "import gc, os, sys\n"
            "from snt_lab import cli\n"
            "fork, forks = os.fork, []\n"
            "def counted():\n"
            "    forks.append(os.getpid())\n"
            "    return fork()\n"
            "os.fork = counted\n"
            "for cpus in (1, 2):\n"
            "    os.sched_getaffinity = lambda pid, cpus=cpus: set(range(cpus))\n"
            "    out = f'{sys.argv[1]}{cpus}'\n"
            "    assert cli.main(['simulate', '--n', '100', '--reps', '3',\n"
            "                     '--out', out]) == 0\n"
            "    for verb in ('summarize', 'describe', 'plot-data'):\n"
            "        assert cli.main([verb, '--out', out]) == 0, verb\n"
            "gc.collect()\n"
            "print(len(forks))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script,
             str(tmp_path / "out")],
            capture_output=True, text=True, env=console_env(), timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr
        assert without_times(proc.stderr) == 2 * [
            f"{sid}: 3 replicates x n=100 done in" for sid in SCENARIO_IDS
        ]


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
