"""Command-line entry point.

Verbs: solve, truth, simulate, summarize, describe, plot-data. Exit codes:
0 success, 1 I/O failure or malformed input file (named with its line), 2
usage error, 3 infeasible calibration or an undefined truth (an untreated
two-year risk of 0). A verb writes its files into a temporary sibling of
the output directory and moves them in only when it succeeds, so a failed,
interrupted or killed run never leaves a truncated file there; the next run
removes the siblings that killed runs left.
simulate also removes the derived files of an earlier run in the same
directory that it did not rewrite. A simulate whose summary has a cell with
fewer than two usable replicates moves in its complete per-replicate files,
writes no summary and exits 2.

Only simulate loads the engine (harness, and with it numpy): its entry
points are bound into this module when simulate starts, or when they are
first read as attributes of the module. solve, truth, summarize, describe,
plot-data and --help run on the standard library.
"""

from __future__ import annotations

import argparse
import dataclasses
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

VERBS = ("solve", "truth", "simulate", "summarize", "describe", "plot-data")

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

THREADS_ENV_VAR = "SNT_LAB_THREADS"

#: The engine's entry points that the verbs call, and the verbs that call them.
_ENGINE_NAMES = ("estimate_cells", "run_scenario")
_ENGINE_VERBS = ("simulate",)


def _load_engine() -> None:
    """Bind the engine's entry points into this module. A name already bound
    is kept, so a wrapper installed as this module's attribute (as
    perfbench/trace.py installs them) is the one the verbs call."""
    from . import harness

    for name in _ENGINE_NAMES:
        globals().setdefault(name, getattr(harness, name))


def __getattr__(name: str):
    if name in _ENGINE_NAMES:
        _load_engine()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("must be an unsigned 64-bit integer")
    return value


def _default_threads() -> int | None:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return None
    try:
        return _positive_int(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise ConfigError(
            f"{THREADS_ENV_VAR} must be an integer >= 1, got {raw!r}"
        ) from None


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", choices=SCENARIO_IDS + ("all",), default="all",
        help="scenario to operate on (default: all)",
    )
    parser.add_argument("--pi", type=float, default=None,
                        help="override the per-visit severity progression probability")
    parser.add_argument("--reps", type=_nonnegative_int, default=None,
                        help="number of simulation replicates")
    parser.add_argument("--n", type=_positive_int, default=None,
                        help="individuals per cohort")
    parser.add_argument("--seed", type=_seed, default=None, help="master seed")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help=f"worker processes (default: ${THREADS_ENV_VAR} or 1)")
    parser.add_argument("--superpop", type=_positive_int, default=None,
                        help="draw a finite pool of this size once per scenario "
                             "and sample cohorts from it with replacement")
    parser.add_argument("--cal-weights", choices=("initiation", "paper"), default=None,
                        help="censoring-weight formula for the calendar emulation")
    parser.add_argument("--truth-override", type=float, default=None,
                        help="summarize against this fixed true risk ratio instead "
                             "of the enumerated truth")
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: runs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snt-lab",
        description="Simulation laboratory comparing sequential nested trial "
                    "emulations against a single point trial.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    descriptions = {
        "solve": "calibrate per-visit outcome probabilities (hazards.csv)",
        "truth": "enumerate exact two-year truths (truth.csv)",
        "simulate": "run replicates and emit all result files",
        "summarize": "re-aggregate an existing estimates.csv into summary.csv",
        "describe": "re-aggregate an existing describe.csv into describe_summary.csv",
        "plot-data": "reshape summary.csv into figure3.csv and figureS3.csv",
    }
    for verb in VERBS:
        _add_common_flags(sub.add_parser(verb, help=descriptions[verb]))
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def _resolve(args: argparse.Namespace) -> tuple[list[ScenarioSpec], RunConfig]:
    """Config file values first, then CLI flags on top."""
    if args.config is not None:
        specs, run = load_config(args.config)
    else:
        specs, run = builtin_scenarios(), RunConfig()

    if args.pi is not None:
        specs = [dataclasses.replace(s, progression_prob=args.pi) for s in specs]
    if args.scenario != "all":
        specs = [s for s in specs if s.scenario_id == args.scenario]

    overrides = {}
    if args.reps is not None:
        overrides["n_replicates"] = args.reps
    if args.n is not None:
        overrides["n_individuals"] = args.n
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    threads = args.threads if args.threads is not None else _default_threads()
    if threads is not None:
        overrides["parallelism"] = threads
    if args.superpop is not None:
        overrides["superpop"] = args.superpop
    if args.cal_weights is not None:
        overrides["cal_weight_mode"] = (
            WEIGHT_MODE_PAPER if args.cal_weights == "paper" else WEIGHT_MODE_INITIATION
        )
    if args.truth_override is not None:
        overrides["truth_override"] = args.truth_override
    if args.out is not None:
        overrides["output_dir"] = args.out
    run = dataclasses.replace(run, **overrides)

    violations = [
        f"{s.scenario_id}: {v}" for s in specs for v in validate(s)
    ] + validate_run(run)
    if violations:
        raise ConfigError("invalid settings: " + "; ".join(violations))
    return specs, run


def _remove_orphans(parent: Path, prefix: str) -> None:
    """Remove the staging directories prefix<pid>.<random> in parent that
    killed verbs left: those whose process no longer exists."""
    for path in parent.iterdir():
        pid, dot, _ = path.name.removeprefix(prefix).partition(".")
        if path.name.startswith(prefix) and dot and pid.isdecimal() and path.is_dir():
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

    def __init__(self, out_dir: Path, stale: tuple[str, ...] = ()):
        self.out_dir = out_dir
        #: files of an earlier run that publish deletes unless rewritten
        self.stale = stale
        self.staging: Path | None = None
        self.written: list[str] = []

    def write(self, name: str, header: tuple[str, ...], rows) -> Path:
        if self.staging is None:
            parent, prefix = self.out_dir.parent, f".{self.out_dir.name}."
            parent.mkdir(parents=True, exist_ok=True)
            _remove_orphans(parent, prefix)
            self.staging = Path(tempfile.mkdtemp(prefix=f"{prefix}{os.getpid()}.", dir=parent))
        path = self.staging / name
        self.written.append(name)
        output.write_csv(path, header, rows)
        return path

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


def _solve_all(specs: list[ScenarioSpec]):
    return {s.scenario_id: (s.progression_prob, solve(s)) for s in specs}


def _solve_with_truths(specs: list[ScenarioSpec]):
    """Calibrate every scenario, failing on the first infeasible one, and
    enumerate the truths: the solve reports and the truth of each scenario."""
    reports = _solve_all(specs)
    return reports, truth_tables(specs, {sid: rep.hazards for sid, (_, rep) in reports.items()})


def _truth_rows(specs, truths) -> list[tuple]:
    return output.truth_rows(
        {s.scenario_id: (s.progression_prob, truths[s.scenario_id]) for s in specs}
    )


def _cmd_solve(specs, run, tracker) -> None:
    reports = _solve_all(specs)
    tracker.write("hazards.csv", output.HAZARDS_COLUMNS, output.hazards_rows(reports))


def _cmd_truth(specs, run, tracker) -> None:
    _, truths = _solve_with_truths(specs)
    tracker.write("truth.csv", output.TRUTH_COLUMNS, _truth_rows(specs, truths))


#: Files derived from simulate's per-replicate outputs, which simulate
#: deletes unless it rewrites them; describe_summary.csv always derives from
#: an earlier describe.csv.
_DERIVED_FILES = ("summary.csv", "figure3.csv", "figureS3.csv", "describe_summary.csv")


def _cmd_simulate(specs, run, tracker) -> None:
    reports, truths = _solve_with_truths(specs)

    blocks = []
    for spec in specs:
        start = time.perf_counter()
        blocks.append(run_scenario(spec, run, reports[spec.scenario_id][1].hazards))
        elapsed = time.perf_counter() - start
        print(
            f"{spec.scenario_id}: {run.n_replicates} replicates x "
            f"n={run.n_individuals} done in {elapsed:.1f}s",
            file=sys.stderr,
        )

    tracker.write("hazards.csv", output.HAZARDS_COLUMNS, output.hazards_rows(reports))
    tracker.write("truth.csv", output.TRUTH_COLUMNS, _truth_rows(specs, truths))
    # the lines are made as they are written; no file's text is held at once
    tracker.write(
        "estimates.csv",
        output.ESTIMATES_COLUMNS,
        (line for block in blocks for line in output.estimate_lines(block)),
    )
    tracker.write(
        "describe.csv",
        output.DESCRIBE_COLUMNS,
        (line for block in blocks for line in output.describe_lines(block)),
    )
    if run.n_replicates >= 2:
        try:
            summary = summarize(estimate_cells(blocks), truths, run.truth_override)
        except InsufficientReplicatesError as exc:
            # the per-replicate files are complete; only the summary is missing
            tracker.publish()
            raise InsufficientReplicatesError(
                f"{exc}; kept hazards.csv, truth.csv, estimates.csv and describe.csv, "
                "wrote no summary or figure files"
            ) from exc
        tracker.write("summary.csv", output.SUMMARY_COLUMNS, summary)
        _write_figures(tracker, summary)


def _write_figures(tracker, summary) -> None:
    """figure3.csv and figureS3.csv: the ATE and the ATT cells of a summary."""
    for name, targets in (("figure3.csv", output.FIGURE_ATE_TARGETS),
                          ("figureS3.csv", output.FIGURE_ATT_TARGETS)):
        tracker.write(name, output.FIGURE_COLUMNS, output.figure_rows(summary, targets))


def _selected(specs, cells: dict) -> dict:
    """The cells of the selected scenarios (a cell's key starts with one)."""
    selected = {s.scenario_id for s in specs}
    return {key: cell for key, cell in cells.items() if key[0] in selected}


def _cmd_summarize(specs, run, tracker) -> None:
    cells = _selected(specs, output.read_estimates(run.output_dir / "estimates.csv"))
    _, truths = _solve_with_truths(specs)
    summary = summarize(cells, truths, run.truth_override)
    tracker.write("summary.csv", output.SUMMARY_COLUMNS, summary)


def _cmd_describe(specs, run, tracker) -> None:
    cells = _selected(specs, output.read_describe(run.output_dir / "describe.csv"))
    tracker.write(
        "describe_summary.csv", output.DESCRIBE_SUMMARY_COLUMNS, summarize_descriptives(cells)
    )


def _cmd_plot_data(specs, run, tracker) -> None:
    rows = output.read_summary(run.output_dir / "summary.csv")
    # read_summary holds each cell on one row, so keying the rows by cell drops none
    _write_figures(tracker, _selected(specs, {row[:4]: row for row in rows}).values())


_COMMANDS = {
    "solve": _cmd_solve,
    "truth": _cmd_truth,
    "simulate": _cmd_simulate,
    "summarize": _cmd_summarize,
    "describe": _cmd_describe,
    "plot-data": _cmd_plot_data,
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

    if args.verb in _ENGINE_VERBS:
        _load_engine()
    tracker = _OutputTracker(
        run.output_dir, _DERIVED_FILES if args.verb == "simulate" else ()
    )
    try:
        _COMMANDS[args.verb](specs, run, tracker)
        tracker.publish()
    except SolverInfeasible as exc:
        print(f"error: calibration infeasible: {exc}", file=sys.stderr)
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
    sys.exit(main())
