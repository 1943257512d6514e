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

Only a simulate that draws a replicate loads the engine (harness, and with
it numpy): its run_scenario is bound into this module once hazards.csv and
truth.csv are staged, or when it is first read as an attribute of the
module; output turns the blocks it returns into lines and summary cells.
Loading it sets OpenBLAS to one thread before numpy loads, unless
OPENBLAS_NUM_THREADS is already set: the engine calls no BLAS routine.
solve, truth, summarize, describe, plot-data, --help, simulate --reps 0 and
a simulate that fails before its first draw (an infeasible calibration, an
--out that cannot be made) run on the standard library.

simulate runs the back half of its scenarios (S3 and S4 of all four) in a
second process, forked once hazards.csv and truth.csv are staged, when it
has two scenarios or more, a replicate or more, two CPUs in its affinity
mask, os.fork and no other thread; each half draws from its own scenarios'
substreams, so the files are byte for byte those of one process. The CPU
count alone decides: --threads is checked to be an integer >= 1 and changes
nothing else.

The program's own process (console_main: snt-lab and python -m snt_lab)
flushes stdout and stderr once main returns and leaves by os._exit, as the
second process does, skipping interpreter teardown. A library caller of main
keeps its normal interpreter exit and its atexit handlers; a usage error
from argparse and an uncaught exception take the normal exit too.
"""

from __future__ import annotations

import argparse
import errno
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
                      help="checked to be >= 1 but changes nothing: with two CPUs or "
                           "more, a second process runs the back half of the scenarios"),
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
            # refused here, or publish would fail only after all the work
            if self.out_dir.exists() and not self.out_dir.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                         str(self.out_dir))
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
    tracker.stale = _DERIVED_FILES
    reports, truths = _solve_with_truths(specs)
    # written first, so an output directory that cannot be made fails the
    # run before any replicate is drawn
    tracker.write("hazards.csv", output.HAZARDS_COLUMNS, output.hazards_lines(specs, reports))
    tracker.write("truth.csv", output.TRUTH_COLUMNS, output.truth_lines(specs, truths))
    if run.n_replicates:  # loaded before the fork, so the child repeats no import
        _load_engine()

    # forked before any class map or class law is built: each process builds
    # only its own scenarios'
    back, front = None, specs
    if _forks(specs, run):
        half = len(specs) // 2
        back, front = _SecondProcess(specs[half:], run, reports, tracker.staging), specs[:half]
    try:
        blocks = _run_scenarios(front, run, reports,
                                lambda spec, elapsed: _report_done(run, spec, elapsed))
        # the lines are made as they are written; no file's text is held at once
        for name, columns, lines in _replicate_lines(blocks):
            tracker.write(name, columns, lines)
        cells = output.estimate_cells(blocks)
        del blocks  # freed before the child's cells are read in
        if back is not None:
            cells.update(back.join())
    finally:
        if back is not None:
            back.stop()
    if run.n_replicates >= 2:
        try:
            summary = summarize(cells, truths, run.truth_override)
        except InsufficientReplicatesError as exc:
            # the per-replicate files are complete; only the summary is missing
            tracker.publish()
            raise InsufficientReplicatesError(
                f"{exc}; kept hazards.csv, truth.csv, estimates.csv and describe.csv, "
                "wrote no summary or figure files"
            ) from exc
        tracker.write("summary.csv", output.SUMMARY_COLUMNS, output.summary_lines(summary))
        _write_figures(tracker, summary)


def _forks(specs: list[ScenarioSpec], run: RunConfig) -> bool:
    """Whether simulate runs the back half of its scenarios in a second
    process: it has two scenarios or more and a replicate or more, two CPUs
    to run on, and no other thread, whose locks a fork would copy in
    whatever state they were in."""
    affinity = getattr(os, "sched_getaffinity", None)
    if not (len(specs) >= 2 and run.n_replicates >= 1 and hasattr(os, "fork")
            and affinity is not None and len(affinity(0)) >= 2):
        return False
    try:  # every thread, a native one such as a BLAS pool's too, is a task
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _report_done(run: RunConfig, spec: ScenarioSpec, elapsed: float) -> None:
    print(
        f"{spec.scenario_id}: {run.n_replicates} replicates x "
        f"n={run.n_individuals} done in {elapsed:.1f}s",
        file=sys.stderr,
    )


def _run_scenarios(specs, run, reports, done) -> list:
    """The scenario blocks of specs, run in order (run_scenario, looked up at
    each call, and only with a replicate to draw, so that a run without one
    loads no engine); done(spec, elapsed seconds) follows each scenario."""
    blocks = []
    for spec in specs:
        start = time.perf_counter()
        if run.n_replicates:
            blocks += run_scenario(spec, run, reports[spec.scenario_id].hazards)
        done(spec, time.perf_counter() - start)
    return blocks


def _replicate_lines(blocks):
    """simulate's per-replicate files: each one's name, columns and lines."""
    return (("estimates.csv", output.ESTIMATES_COLUMNS, output.estimate_lines(blocks)),
            ("describe.csv", output.DESCRIBE_COLUMNS, output.describe_lines(blocks)))


class _SecondProcess:
    """The back half of simulate's scenarios, run in a child forked from the
    simulate process, so it repeats no import. The child writes their
    per-replicate lines, with no header, to <name>.back in the staging
    directory, and sends back through a pipe, pickled, their summary cells,
    each finished scenario's time and the exception it stopped on, if any;
    then it leaves by os._exit."""

    def __init__(self, specs, run, reports, staging: Path):
        self.specs, self.run, self.staging = specs, run, staging
        parent = os.getpid()
        self.pipe, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(self.pipe)
            os.close(write_end)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(self.pipe)
                _run_back_half(specs, run, reports, staging, parent, write_end)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)

    def join(self):
        """Wait for the child's result and reap the child; report its
        scenarios, raise the exception it stopped on, or else append its
        lines to the staged files: its cells."""
        import pickle

        with open(self.pipe, "rb") as fh:
            self.pipe = None
            result = fh.read()
        code = os.waitstatus_to_exitcode(self._reap())
        if code:
            ended = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise OSError(f"the process running {', '.join(s.scenario_id for s in self.specs)} "
                          f"ended with {ended} before it handed back its result")
        cells, times, error = pickle.loads(result)
        for spec, elapsed in zip(self.specs, times):
            _report_done(self.run, spec, elapsed)
        if error is not None:
            raise error
        for name in ("estimates.csv", "describe.csv"):
            with (open(self.staging / f"{name}.back", "rb") as part,
                  open(self.staging / name, "ab") as whole):
                shutil.copyfileobj(part, whole, 1 << 20)
        return cells

    def stop(self) -> None:
        """Kill and reap the child, unless join has reaped it."""
        if self.pipe is not None:
            os.close(self.pipe)
            self.pipe = None
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        """Wait for the child to end and return its wait status."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return status


def _run_back_half(specs, run, reports, staging: Path, parent: int, pipe: int) -> None:
    """The work of simulate's second process (_SecondProcess). It leaves at
    once when a finished scenario shows that its parent is gone."""
    import pickle

    cells, times, error = None, [], None

    def done(spec, elapsed):
        if os.getppid() != parent:
            os._exit(1)
        times.append(elapsed)

    try:
        blocks = _run_scenarios(specs, run, reports, done)
        for name, _, lines in _replicate_lines(blocks):
            output.write_csv(staging / f"{name}.back", None, lines)
        cells = output.estimate_cells(blocks)
    except BaseException as exc:  # raised by the parent
        error = exc
    result = pickle.dumps((cells, times, error))
    with open(pipe, "wb") as fh:
        fh.write(result)


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
    status = main()
    # When main returns, every file is published, every staging directory
    # removed and the second process reaped: interpreter teardown (module
    # teardown and a last garbage collection, about 16 ms once numpy is
    # loaded) would only cost time. A flush that fails takes the normal exit,
    # which reports it: a stream that is None (its descriptor was closed at
    # start-up), a closed pipe or a closed file.
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        sys.exit(status)
    _leave_process(status)


def _leave_process(status: int) -> None:
    """End the program's process at once, with status (console_main)."""
    os._exit(status)
