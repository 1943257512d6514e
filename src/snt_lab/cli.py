"""Command-line entry point.

Verbs: solve, truth, simulate, summarize, describe, plot-data, each taking
only the flags it reads (`_VERBS`).
Exit codes: 0 success, 1 I/O failure or malformed input file (named with
its line), 2 usage error, 3 infeasible calibration, an undefined truth
(an untreated two-year risk of 0) or an infinite censoring weight (a
replicate that draws a person censored for certain). A verb writes its
files into a temporary sibling of the output directory and moves them in
only when it succeeds, so a failed, interrupted or killed run never leaves
a truncated file there; the next run removes the siblings that killed runs
left.
simulate also removes the derived files of an earlier run in the same
directory that it did not rewrite, and summarize the figure files made from
the summary.csv it replaces. A simulate whose summary has a cell with
fewer than two usable replicates moves in its complete per-replicate files,
writes no summary and exits 2.

Only simulate loads the engine (harness, and with it numpy): its
run_scenario is bound into this module when simulate starts, or when it is
first read as an attribute of the module; output turns the blocks it
returns into lines and summary cells. Loading it sets OpenBLAS to one
thread before numpy loads, unless OPENBLAS_NUM_THREADS is already set: the
engine calls no BLAS routine. solve, truth, summarize, describe, plot-data
and --help run on the standard library. simulate draws every replicate in
its own process: --threads is checked to be an integer >= 1 and changes
nothing else.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from . import output
from .cells import InsufficientReplicatesError, summarize, summarize_descriptives
from .config import (
    ConfigError,
    DegenerateWeightError,
    RunConfig,
    SCENARIO_IDS,
    ScenarioSpec,
    WEIGHT_MODE_INITIATION,
    WEIGHT_MODE_PAPER,
    builtin_scenarios,
    load_config,
    validate,
    validate_run,
)
from .hazards import SolverInfeasible, solve, truth_tables

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _load_engine() -> None:
    """Bind the engine's run_scenario into this module. One already bound is
    kept, so a wrapper installed as this module's attribute (as
    perfbench/trace.py installs one) is the one simulate calls."""
    # The engine calls no BLAS routine, so OpenBLAS's thread pool is only
    # start-up cost. The variable is read when numpy loads; a value the user
    # set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import harness

    globals().setdefault("run_scenario", harness.run_scenario)


def __getattr__(name: str):
    if name == "run_scenario":
        _load_engine()
        return run_scenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _int_within(text: str, rule: str, low: int, high: float = float("inf")) -> int:
    """text as an integer in [low, high), or a usage error that states the
    rule and the text given."""
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if low <= value < high:
            return value
    raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")


def _nonnegative_int(text: str) -> int:
    return _int_within(text, "an integer >= 0", 0)


def _positive_int(text: str) -> int:
    return _int_within(text, "an integer >= 1", 1)


def _seed(text: str) -> int:
    return _int_within(text, "an unsigned 64-bit integer", 0, 2**64)


def _cal_weights(text: str) -> str:
    modes = {"initiation": WEIGHT_MODE_INITIATION, "paper": WEIGHT_MODE_PAPER}
    if text not in modes:
        raise argparse.ArgumentTypeError(f"must be initiation or paper, got {text!r}")
    return modes[text]


#: Each flag's argparse settings. A flag that sets a config field has the
#: field's name as its dest, and a metavar that keeps --help as it was.
_FLAGS = {
    "--scenario": dict(choices=SCENARIO_IDS + ("all",), default="all",
                       help="scenario to operate on (default: all)"),
    "--pi": dict(dest="progression_prob", type=float, metavar="PI",
                 help="override the per-visit severity progression probability"),
    "--reps": dict(dest="n_replicates", type=_nonnegative_int, metavar="REPS",
                   help="number of simulation replicates"),
    "--n": dict(dest="n_individuals", type=_positive_int, metavar="N",
                help="individuals per cohort"),
    "--seed": dict(dest="master_seed", type=_seed, metavar="SEED", help="master seed"),
    "--threads": dict(dest="threads", type=_positive_int,
                      help="checked to be >= 1 but changes nothing: every replicate "
                           "is drawn in one process"),
    "--superpop": dict(type=_positive_int,
                       help="draw a finite pool of this size once per scenario "
                            "and sample cohorts from it with replacement"),
    "--cal-weights": dict(dest="cal_weight_mode", type=_cal_weights,
                          metavar="{initiation,paper}",
                          help="censoring-weight formula for the calendar emulation"),
    "--truth-override": dict(type=float,
                             help="summarize against this fixed true risk ratio instead "
                                  "of the enumerated truth"),
    "--config": dict(type=Path, help="JSON config file"),
    "--out": dict(dest="output_dir", type=Path, metavar="OUT",
                  help="output directory (default: runs)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snt-lab",
        description="Simulation laboratory comparing sequential nested trial "
                    "emulations against a single point trial.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (command, help_text, flags) in _VERBS.items():
        verb_parser = sub.add_parser(verb, help=help_text)
        verb_parser.set_defaults(command=command)
        for flag in flags:
            verb_parser.add_argument(flag, **_FLAGS[flag])
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _resolve(args: argparse.Namespace) -> tuple[list[ScenarioSpec], RunConfig]:
    """Config file values first, then the verb's flags on top."""
    if args.config is not None:
        specs, run = load_config(args.config)
    else:
        specs, run = builtin_scenarios(), RunConfig()

    given = vars(args)
    if given.get("progression_prob") is not None:
        specs = [s._replace(progression_prob=args.progression_prob) for s in specs]
    if args.scenario != "all":
        specs = [s for s in specs if s.scenario_id == args.scenario]
    run = run._replace(**{
        name: given[name] for name in run._fields if given.get(name) is not None
    })

    violations = [
        f"{s.scenario_id}: {v}" for s in specs for v in validate(s)
    ] + validate_run(run)
    if violations:
        raise ConfigError("invalid settings: " + "; ".join(violations))
    return specs, run


def _remove_orphans(parent: Path, prefix: str) -> None:
    """Remove the staging directories prefix<pid>.<random> in parent that
    killed verbs left: those whose process no longer exists. <random> has no
    dot, so the staging directory prefix<k>.<pid>.<random> of a run into the
    sibling <name>.<k> is never taken for one."""
    for path in parent.iterdir():
        pid, _, suffix = path.name.removeprefix(prefix).partition(".")
        if (path.name.startswith(prefix) and pid.isdecimal() and suffix
                and "." not in suffix and path.is_dir()):
            try:
                os.kill(int(pid), 0)
            except ProcessLookupError:
                shutil.rmtree(path, ignore_errors=True)
            except (OSError, OverflowError):  # alive under another user, or no pid
                pass


class _OutputTracker:
    """Stages a verb's files in a temporary sibling of the output directory,
    .<name>.<pid>.<random>, so that only complete files ever appear in it
    (publish)."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        #: files of an earlier run that publish deletes unless rewritten
        self.stale: tuple[str, ...] = ()
        self.staging: Path | None = None
        self.written: list[str] = []

    def write(self, name: str, header: tuple[str, ...], lines) -> None:
        if self.staging is None:
            parent, prefix = self.out_dir.parent, f".{self.out_dir.name}."
            parent.mkdir(parents=True, exist_ok=True)
            _remove_orphans(parent, prefix)
            self.staging = Path(tempfile.mkdtemp(prefix=f"{prefix}{os.getpid()}.", dir=parent))
        self.written.append(name)
        output.write_csv(self.staging / name, header, lines)

    def publish(self) -> None:
        """Move the staged files into the output directory, each replacing
        its namesake atomically, and delete the stale files this run did not
        write, so a reused directory holds no results of an earlier run."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for name in self.written:
            os.replace(self.staging / name, self.out_dir / name)
        for name in self.stale:
            if name not in self.written:
                (self.out_dir / name).unlink(missing_ok=True)
        self.discard()

    def discard(self) -> None:
        """Remove the staging directory and whatever it still holds."""
        if self.staging is not None:
            shutil.rmtree(self.staging, ignore_errors=True)
            self.staging = None
        self.written = []


def _solve_with_truths(specs: list[ScenarioSpec]):
    """Calibrate every scenario, failing on the first infeasible one, and
    enumerate the truths: the solve reports and the truth of each scenario."""
    reports = {s.scenario_id: solve(s) for s in specs}
    return reports, truth_tables(specs, {sid: rep.hazards for sid, rep in reports.items()})


def _cmd_solve(specs, run, tracker) -> None:
    reports = {s.scenario_id: solve(s) for s in specs}
    tracker.write("hazards.csv", output.HAZARDS_COLUMNS, output.hazards_lines(specs, reports))


def _cmd_truth(specs, run, tracker) -> None:
    _, truths = _solve_with_truths(specs)
    tracker.write("truth.csv", output.TRUTH_COLUMNS, output.truth_lines(specs, truths))


#: The figure files, made from a summary.csv (and so deleted by summarize,
#: which rewrites it), and the summary analyses each holds.
_FIGURES = {"figure3.csv": output.FIGURE_ATE_TARGETS, "figureS3.csv": output.FIGURE_ATT_TARGETS}
#: Files derived from simulate's per-replicate outputs, which simulate
#: deletes unless it rewrites them; describe_summary.csv always derives from
#: an earlier describe.csv.
_DERIVED_FILES = ("summary.csv", *_FIGURES, "describe_summary.csv")


def _cmd_simulate(specs, run, tracker) -> None:
    _load_engine()
    tracker.stale = _DERIVED_FILES
    reports, truths = _solve_with_truths(specs)
    # written first, so an output directory that cannot be made fails the
    # run before any replicate is drawn
    tracker.write("hazards.csv", output.HAZARDS_COLUMNS, output.hazards_lines(specs, reports))
    tracker.write("truth.csv", output.TRUTH_COLUMNS, output.truth_lines(specs, truths))

    blocks = []
    for spec in specs:
        start = time.perf_counter()
        blocks += run_scenario(spec, run, reports[spec.scenario_id].hazards)
        elapsed = time.perf_counter() - start
        print(
            f"{spec.scenario_id}: {run.n_replicates} replicates x "
            f"n={run.n_individuals} done in {elapsed:.1f}s",
            file=sys.stderr,
        )

    # the lines are made as they are written; no file's text is held at once
    tracker.write("estimates.csv", output.ESTIMATES_COLUMNS, output.estimate_lines(blocks))
    tracker.write("describe.csv", output.DESCRIBE_COLUMNS, output.describe_lines(blocks))
    if run.n_replicates >= 2:
        try:
            summary = summarize(output.estimate_cells(blocks), truths, run.truth_override)
        except InsufficientReplicatesError as exc:
            # the per-replicate files are complete; only the summary is missing
            tracker.publish()
            raise InsufficientReplicatesError(
                f"{exc}; kept hazards.csv, truth.csv, estimates.csv and describe.csv, "
                "wrote no summary or figure files"
            ) from exc
        tracker.write("summary.csv", output.SUMMARY_COLUMNS, output.summary_lines(summary))
        _write_figures(tracker, summary)


def _write_figures(tracker, summary) -> None:
    """figure3.csv and figureS3.csv: the ATE and the ATT cells of a summary."""
    for name, targets in _FIGURES.items():
        tracker.write(name, output.FIGURE_COLUMNS, output.figure_lines(summary, targets))


def _ids(specs: list[ScenarioSpec]) -> set[str]:
    return {s.scenario_id for s in specs}


def _cmd_summarize(specs, run, tracker) -> None:
    tracker.stale = tuple(_FIGURES)
    cells = output.read_estimates(run.output_dir / "estimates.csv", _ids(specs))
    truths = {}
    if run.truth_override is None:  # an override stands for every truth
        present = {key[0] for key in cells}  # a scenario without rows needs no truth
        _, truths = _solve_with_truths([s for s in specs if s.scenario_id in present])
    summary = summarize(cells, truths, run.truth_override)
    tracker.write("summary.csv", output.SUMMARY_COLUMNS, output.summary_lines(summary))


def _cmd_describe(specs, run, tracker) -> None:
    cells = output.read_describe(run.output_dir / "describe.csv", _ids(specs))
    lines = output.describe_summary_lines(summarize_descriptives(cells))
    tracker.write("describe_summary.csv", output.DESCRIBE_SUMMARY_COLUMNS, lines)


def _cmd_plot_data(specs, run, tracker) -> None:
    _write_figures(tracker, output.read_summary(run.output_dir / "summary.csv", _ids(specs)))


_SCENARIO_FLAGS = ("--scenario", "--pi", "--config", "--out")
_FILE_FLAGS = ("--scenario", "--config", "--out")

#: Each verb's command, its help line and the flags it reads.
_VERBS = {
    "solve": (_cmd_solve, "calibrate per-visit outcome probabilities (hazards.csv)",
              _SCENARIO_FLAGS),
    "truth": (_cmd_truth, "enumerate exact two-year truths (truth.csv)", _SCENARIO_FLAGS),
    "simulate": (_cmd_simulate, "run replicates and emit all result files", tuple(_FLAGS)),
    "summarize": (_cmd_summarize, "re-aggregate an existing estimates.csv into summary.csv",
                  ("--scenario", "--pi", "--truth-override", "--config", "--out")),
    "describe": (_cmd_describe,
                 "re-aggregate an existing describe.csv into describe_summary.csv",
                 _FILE_FLAGS),
    "plot-data": (_cmd_plot_data, "reshape summary.csv into figure3.csv and figureS3.csv",
                  _FILE_FLAGS),
}


def execute(args: argparse.Namespace) -> int:
    try:
        specs, run = _resolve(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    tracker = _OutputTracker(run.output_dir)
    try:
        args.command(specs, run, tracker)
        tracker.publish()
    except SolverInfeasible as exc:
        print(f"error: calibration infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DegenerateWeightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InsufficientReplicatesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (output.SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        tracker.discard()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    return execute(parse_args(argv))


def console_main() -> None:
    # numpy.random imports secrets, which imports hmac and so _hashlib:
    # OpenSSL's libcrypto, 3.4 MB of resident memory and a few ms of start-up
    # for hashes the engine never computes. Marked unavailable, hashlib and
    # hmac use CPython's built-in hashes, as on a Python built without
    # OpenSSL. Only the program's own process does without it: a library
    # caller of main or of the engine keeps its OpenSSL hashes.
    sys.modules.setdefault("_hashlib", None)
    sys.exit(main())
