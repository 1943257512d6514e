"""Command-line entry point.

Verbs: solve, truth, simulate, summarize, describe, plot-data. Exit codes:
0 success, 1 I/O failure, 2 usage error, 3 infeasible calibration. Partial
outputs are removed on any failure or interrupt so downstream steps never
read a truncated run, and simulate removes the derived files of an earlier
run in the same directory that it did not rewrite. A simulate whose summary
has a cell with fewer than two usable replicates keeps its complete
per-replicate files, writes no summary and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

from . import output
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
from .harness import (
    InsufficientReplicatesError,
    estimate_records,
    run_scenario,
    summarize,
    summarize_descriptives,
    truth_tables,
)
from .hazards import SolverInfeasible, solve

VERBS = ("solve", "truth", "simulate", "summarize", "describe", "plot-data")

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3

THREADS_ENV_VAR = "SNT_LAB_THREADS"


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
        return None


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
                        help="materialize a finite pool of this size and sample "
                             "cohorts from it with replacement")
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


class _OutputTracker:
    """Records written files so a failed invocation leaves nothing behind."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    def write(self, name: str, header: tuple[str, ...], rows) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        # registered before opening, so a write that fails midway is discarded
        self.written.append(path)
        output.write_csv(path, header, rows)
        return path

    def remove_unwritten(self, names: tuple[str, ...]) -> None:
        """Delete the named outputs of an earlier run that this one did not
        rewrite, so a reused directory holds no stale results."""
        for name in names:
            path = self.out_dir / name
            if path not in self.written:
                path.unlink(missing_ok=True)

    def keep_written(self) -> None:
        """Keep the files written so far even if the invocation fails."""
        self.written.clear()

    def discard_all(self) -> None:
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


def _solve_all(specs: list[ScenarioSpec]):
    return {s.scenario_id: (s.progression_prob, solve(s)) for s in specs}


def _cmd_solve(specs, run, tracker) -> None:
    reports = _solve_all(specs)
    tracker.write("hazards.csv", output.HAZARDS_COLUMNS, output.hazards_rows(reports))


def _cmd_truth(specs, run, tracker) -> None:
    reports = _solve_all(specs)
    truths = {
        s.scenario_id: (
            s.progression_prob,
            truth_tables([s], {s.scenario_id: reports[s.scenario_id][1].hazards})[
                s.scenario_id
            ],
        )
        for s in specs
    }
    tracker.write("truth.csv", output.TRUTH_COLUMNS, output.truth_rows(truths))


#: Files derived from simulate's per-replicate outputs; describe_summary.csv
#: always derives from an earlier describe.csv.
_DERIVED_FILES = ("summary.csv", "figure3.csv", "figureS3.csv", "describe_summary.csv")


def _cmd_simulate(specs, run, tracker) -> None:
    reports = _solve_all(specs)  # fail fast on any infeasible scenario
    hazards = {sid: rep.hazards for sid, (_, rep) in reports.items()}
    truths = truth_tables(specs, hazards)

    all_results = []
    for spec in specs:
        start = time.perf_counter()
        results = run_scenario(spec, run, hazards[spec.scenario_id])
        elapsed = time.perf_counter() - start
        print(
            f"{spec.scenario_id}: {run.n_replicates} replicates x "
            f"n={run.n_individuals} done in {elapsed:.1f}s",
            file=sys.stderr,
        )
        all_results.extend(results)

    records = estimate_records(all_results)
    tracker.write("hazards.csv", output.HAZARDS_COLUMNS, output.hazards_rows(reports))
    tracker.write(
        "truth.csv",
        output.TRUTH_COLUMNS,
        output.truth_rows(
            {s.scenario_id: (s.progression_prob, truths[s.scenario_id]) for s in specs}
        ),
    )
    tracker.write(
        "estimates.csv",
        output.ESTIMATES_COLUMNS,
        (output.estimate_row(r) for r in records),
    )
    tracker.write(
        "describe.csv", output.DESCRIBE_COLUMNS, output.describe_rows(all_results)
    )
    if run.n_replicates >= 2:
        try:
            summary = summarize(records, truths, run.truth_override)
        except InsufficientReplicatesError as exc:
            # the per-replicate files are complete; only the summary is missing
            tracker.remove_unwritten(_DERIVED_FILES)
            tracker.keep_written()
            raise InsufficientReplicatesError(
                f"{exc}; kept hazards.csv, truth.csv, estimates.csv and describe.csv, "
                "wrote no summary or figure files"
            ) from exc
        tracker.write(
            "summary.csv", output.SUMMARY_COLUMNS, map(output.summary_row, summary)
        )
        tracker.write(
            "figure3.csv",
            output.FIGURE_COLUMNS,
            output.figure_rows(summary, output.FIGURE_ATE_TARGETS),
        )
        tracker.write(
            "figureS3.csv",
            output.FIGURE_COLUMNS,
            output.figure_rows(summary, output.FIGURE_ATT_TARGETS),
        )
    tracker.remove_unwritten(_DERIVED_FILES)


def _cmd_summarize(specs, run, tracker) -> None:
    records = output.read_estimates(run.output_dir / "estimates.csv")
    selected = {s.scenario_id for s in specs}
    records = [r for r in records if r.scenario_id in selected]
    reports = _solve_all(specs)
    truths = truth_tables(specs, {sid: rep.hazards for sid, (_, rep) in reports.items()})
    summary = summarize(records, truths, run.truth_override)
    tracker.write("summary.csv", output.SUMMARY_COLUMNS, map(output.summary_row, summary))


def _cmd_describe(specs, run, tracker) -> None:
    rows = output.read_describe(run.output_dir / "describe.csv")
    summary = summarize_descriptives(rows)
    tracker.write(
        "describe_summary.csv",
        output.DESCRIBE_SUMMARY_COLUMNS,
        map(output.describe_summary_row, summary),
    )


def _cmd_plot_data(specs, run, tracker) -> None:
    summary = output.read_summary(run.output_dir / "summary.csv")
    tracker.write(
        "figure3.csv",
        output.FIGURE_COLUMNS,
        output.figure_rows(summary, output.FIGURE_ATE_TARGETS),
    )
    tracker.write(
        "figureS3.csv",
        output.FIGURE_COLUMNS,
        output.figure_rows(summary, output.FIGURE_ATT_TARGETS),
    )


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

    tracker = _OutputTracker(run.output_dir)
    try:
        _COMMANDS[args.verb](specs, run, tracker)
    except SolverInfeasible as exc:
        tracker.discard_all()
        print(f"error: calibration infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InsufficientReplicatesError as exc:
        tracker.discard_all()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except output.SchemaError as exc:
        tracker.discard_all()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        tracker.discard_all()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BaseException:
        tracker.discard_all()
        raise
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    return execute(parse_args(argv))


def console_main() -> None:
    sys.exit(main())
