"""snt-lab benchmark runner.

    python3 perfbench/run.py --workload paper-serial --seed 42 --seconds 40 --trace 0

Runs the `snt-lab` CLI from this checkout's `src/` as a subprocess, one
command at a time, and gates every output directory (see gate.py). With
`--trace 0` it repeats set-up, simulate and re-aggregation for about
`--seconds` seconds and reports the end-to-end metrics as medians over the
repetitions. With `--trace 1` it makes one untraced and one traced simulate
of the same size (see trace.py) and reports the per-layer metrics. The last
line of standard output is one JSON object; the lines before it give every
metric by name and unit, the sample count behind it, and the provenance.
A copy of the full result goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
from gate import GateError  # noqa: E402

SCENARIOS = 4
#: Every run of the benchmark ends within this many seconds; a command
#: still running at the deadline is killed and counts as failed.
RUN_DEADLINE_S = 170.0
#: Repetitions measured even when --seconds would allow fewer.
MIN_REPETITIONS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    threads: int
    #: replicates per scenario in each measured simulate
    reps: int
    #: replicates per scenario in the traced run; 4 x trace_reps >= 1000
    #: leaves ten samples beyond each p99
    trace_reps: int
    superpop: int | None = None
    #: SPT-targeted cells within 4 MCSE of the truth (paper cohort size only)
    truth_check: bool = True
    #: thread count of a reference run whose CSVs must match byte for byte
    reference_threads: int | None = None

    def simulate(self, out: Path, seed: int, reps: int, threads: int | None = None) -> list[str]:
        argv = ["simulate", "--scenario", "all", "--n", str(self.n),
                "--threads", str(threads or self.threads), "--seed", str(seed),
                "--reps", str(reps), "--out", str(out)]
        if self.superpop is not None:
            argv += ["--superpop", str(self.superpop)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-serial",
            "paper cohort size on one worker: the replicate loop (analyze, describe, "
            "draw, build) is ~90% of wall time",
            n=5000, threads=1, reps=50, trace_reps=250,
        ),
        Workload(
            "paper-threads2",
            "the same command on two pool workers: chunking, pickling results back and "
            "merging, byte-identical to one worker",
            n=5000, threads=2, reps=50, trace_reps=250, reference_threads=1,
        ),
        Workload(
            "small-cohort",
            "200-person cohorts from a 1e6 pool: per-call overhead, CSV writes and reads "
            "back dominate, and set-up draws the pool",
            n=200, threads=1, reps=150, trace_reps=500, superpop=1_000_000,
            truth_check=False,
        ),
    )
}

REAGGREGATE_VERBS = ("summarize", "describe", "plot-data")

E2E_UNITS = {
    "replicates_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "reaggregate_s": "s",
    "completed_fraction": "ratio",
}

LAYER_UNITS = {
    "hazards.solve_ms": "ms",
    "population.draw_cohort_ms.p50": "ms",
    "population.draw_cohort_ms.p99": "ms",
    "population.take_ms.p50": "ms",
    "population.draw_superpopulation_s": "s",
    "population.enumerate_truth_ms": "ms",
    "designs.assign_ms.p50": "ms",
    "designs.build_ms.p50": "ms",
    "designs.describe_ms.p50": "ms",
    "designs.indexes_per_rep": "count",
    "estimators.analyze_ms.p50": "ms",
    "estimators.analyze_ms.p99": "ms",
    "estimators.ipcw_km_risk_calls_per_rep": "count",
    "estimators.ipcw_km_risk_self_ms": "ms",
    "estimators.degenerate_per_1k": "1/1000",
    "harness.run_replicate_ms.p50": "ms",
    "harness.run_replicate_ms.p99": "ms",
    "harness.self_ms_per_rep": "ms",
    "harness.replicate_samples": "count",
    "harness.parallel_speedup": "x",
    "harness.summarize_ms": "ms",
    "harness.summarize_descriptives_ms": "ms",
    "output.write_s": "s",
    "output.rows_written": "count",
    "output.bytes_written": "B",
    "output.read_estimates_s": "s",
    "output.read_describe_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "x",
}


@dataclass
class Proc:
    wall_s: float
    maxrss_mb: float


class CommandFailed(Exception):
    def __init__(self, argv: list[str], status: int, log: Path):
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        super().__init__(f"{' '.join(argv[:2])} exited {status}: {' | '.join(tail)}")


@dataclass
class BenchRun:
    """One benchmark run: where it works, its deadline and its tallies."""

    root: Path
    work: Path
    deadline: float
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)
    samples: dict[str, int] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)

    def command(self, argv: list[str]) -> Proc:
        """Run one command to completion. The rusage from wait4 covers this
        process and the children it waited for (its pool workers), and
        nothing else the benchmark started. The command gets its own process
        group, so a kill at the deadline also ends its pool workers."""
        self.attempted += 1
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        env.pop("SNT_LAB_THREADS", None)
        log = self.work / "command.log"
        with open(log, "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=env,
                                    stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT, start_new_session=True)

            def kill() -> None:
                os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if proc.returncode != 0:
            raise CommandFailed(argv, proc.returncode, log)
        return Proc(wall, usage.ru_maxrss / 1024.0)

    def cli(self, argv: list[str]) -> Proc:
        return self.command(["-m", "snt_lab", *argv])

    @contextlib.contextmanager
    def guard(self):
        """Record a failed command or check, naming it, and carry on."""
        try:
            yield
        except GateError as exc:
            self.failures.append({"check": exc.check, "detail": exc.detail})
        except CommandFailed as exc:
            self.failures.append({"check": "exit_status", "detail": str(exc)})

    def fresh(self, name: str) -> Path:
        out = self.work / name
        gate.require_empty(out)
        return out

    def drop(self, out: Path) -> None:
        shutil.rmtree(out, ignore_errors=True)


def _sim_files(reps: int) -> frozenset[str]:
    return gate.SIMULATE_FILES if reps >= 2 else gate.SETUP_FILES


def checked_simulate(s: BenchRun, w: Workload, name: str, seed: int, reps: int,
                     threads: int | None = None) -> tuple[Path, Proc]:
    out = s.fresh(name)
    proc = s.cli(w.simulate(out, seed, reps, threads))
    gate.check_outputs(out, _sim_files(reps), SCENARIOS, reps, w.truth_check and reps >= 2)
    return out, proc


def checked_reaggregate(s: BenchRun, out: Path, reps: int) -> float:
    wall = sum(s.cli([verb, "--out", str(out)]).wall_s for verb in REAGGREGATE_VERBS)
    gate.check_outputs(out, gate.REAGGREGATE_FILES, SCENARIOS, reps, False)
    return wall


def measure_e2e(s: BenchRun, w: Workload, seed: int, seconds: float) -> dict[str, float]:
    """Repeat set-up, simulate and re-aggregation for about `seconds`. A
    failed command or check is recorded and ends its repetition; the
    repetitions after it still run."""
    setup, rate, rss, reagg = [], [], [], []
    #: digest each repetition must reproduce, and the check that compares it
    expected: dict[str, tuple[dict, str]] = {}

    def compare(key: str, got: dict) -> None:
        with s.guard():
            if key in expected:
                gate.require_identical(expected[key][1], expected[key][0], got)
            expected[key] = (got, "repeat_identity")

    def repetition(i: int) -> None:
        out, proc = checked_simulate(s, w, f"setup{i}", seed, 0)
        s.drop(out)
        setup.append(proc.wall_s)

        out, proc = checked_simulate(s, w, f"run{i}", seed, w.reps)
        rate.append(SCENARIOS * w.reps / proc.wall_s)
        rss.append(proc.maxrss_mb)
        compare("simulate", gate.digest(out))

        reagg.append(checked_reaggregate(s, out, w.reps))
        compare("reaggregate", gate.digest(out))
        s.drop(out)

    with s.guard():
        warm, _ = checked_simulate(s, w, "warmup", seed, 0)  # compiles bytecode, fills caches
        s.drop(warm)
    if w.reference_threads is not None:
        with s.guard():
            ref, _ = checked_simulate(s, w, "reference", seed, w.reps, w.reference_threads)
            expected["simulate"] = (gate.digest(ref), "threads_identity")
            s.drop(ref)

    start = time.monotonic()
    i = 0
    while True:
        t0 = time.monotonic()
        with s.guard():
            repetition(i)
        i += 1
        now = time.monotonic()
        if now > s.deadline or (i >= MIN_REPETITIONS and now + (now - t0) - start > seconds):
            break
    if not (setup and rate and reagg):
        return {}
    s.raw.update(replicates_per_s=rate, setup_s=setup, peak_rss_mb=rss, reaggregate_s=reagg)
    s.samples.update({name: len(values) for name, values in s.raw.items()})
    s.samples["completed_fraction"] = s.attempted
    return {
        "replicates_per_s": statistics.median(rate),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "reaggregate_s": statistics.median(reagg),
    }


def traced(s: BenchRun, layers: str, verbs: list[list[str]]) -> dict:
    """Run `verbs` in one trace.py process and return its spans."""
    spans = s.work / f"spans-{layers}-{s.attempted}.json"
    s.command([str(BENCH_DIR / "trace.py"), str(spans), layers, json.dumps(verbs)])
    with open(spans) as fh:
        return json.load(fh)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _under(spans, verb: str) -> list[int]:
    """Indexes of the spans nested inside the first span named `verb`."""
    top = next(i for i, sp in enumerate(spans) if sp[0] == verb)
    inside, out = {top}, []
    for i in range(top + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            out.append(i)
    return out


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


#: Metrics over replicates: (layer span, what to total per replicate, and
#: the statistic across replicates). "" totals the span's duration.
PER_REPLICATE = {
    "population.draw_cohort_ms.p50": ("population.draw_cohort", "", _median),
    "population.draw_cohort_ms.p99": ("population.draw_cohort", "", _p99),
    "population.take_ms.p50": ("population.take", "", _median),
    "designs.assign_ms.p50": ("designs.assign", "", _median),
    "designs.build_ms.p50": ("designs.build", "", _median),
    "designs.describe_ms.p50": ("designs.describe", "", _median),
    "designs.indexes_per_rep": ("designs.build", ".count", _mean),
    "estimators.analyze_ms.p50": ("estimators.analyze", "", _median),
    "estimators.analyze_ms.p99": ("estimators.analyze", "", _p99),
    "estimators.ipcw_km_risk_calls_per_rep": ("estimators.ipcw_km_risk", ".calls", _mean),
    "estimators.ipcw_km_risk_self_ms": ("estimators.ipcw_km_risk", ".self", _median),
    "harness.run_replicate_ms.p50": ("harness.run_replicate", "", _median),
    "harness.run_replicate_ms.p99": ("harness.run_replicate", "", _p99),
    "harness.self_ms_per_rep": ("harness.run_replicate", ".self", _median),
}


def layer_metrics(sim: dict, reagg: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics from the spans of a traced simulate and a traced
    re-aggregation. A layer's self time is its span minus its children."""
    spans = sim["spans"]
    dur = [(sp[2] - sp[1]) * 1000.0 for sp in spans]
    own = list(dur)
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            own[sp[3]] -= dur[i]

    per_rep: dict[int, dict[str, float]] = {}
    rep_of = []
    for i, (name, _s, _e, parent, count) in enumerate(spans):
        rep = i if name == "harness.run_replicate" else (rep_of[parent] if parent >= 0 else -1)
        rep_of.append(rep)
        if rep < 0:
            continue
        cell = per_rep.setdefault(rep, defaultdict(float))
        cell[name] += dur[i]
        cell[name + ".calls"] += 1
        cell[name + ".self"] += own[i]
        if count is not None:
            cell[name + ".count"] += count

    def col(name: str, suffix: str = "") -> list[float]:
        """Per-replicate totals of a layer, over the replicates that called it."""
        return [c[name + suffix] for c in per_rep.values() if c.get(name + ".calls")]

    def named(name: str, within=None) -> list[int]:
        pool = within if within is not None else range(len(spans))
        return [i for i in pool if spans[i][0] == name]

    metrics, samples = {}, {}
    for metric, (layer, suffix, stat) in PER_REPLICATE.items():
        values = col(layer, suffix)
        metrics[metric] = stat(values)
        samples[metric] = len(values)

    in_sim = _under(spans, "verb.simulate")
    solves = [dur[i] for i in named("cli.solve", in_sim)]
    writes = named("output.write_csv", in_sim)
    reps = len(per_rep)

    def reaggregate_s(name: str) -> float:
        return sum(sp[2] - sp[1] for sp in reagg["spans"] if sp[0] == name)

    simulate = next(i for i, sp in enumerate(spans) if sp[0] == "verb.simulate")

    metrics.update({
        "hazards.solve_ms": _median(solves),
        "population.draw_superpopulation_s": sum(
            dur[i] for i in named("population.draw_superpopulation")) / 1000.0,
        "population.enumerate_truth_ms": sum(dur[i] for i in named("cli.truth_tables", in_sim)),
        "estimators.degenerate_per_1k": 1000.0 * sum(col("estimators.analyze", ".count"))
        / (reps * gate.ANALYSES_PER_REPLICATE),
        "harness.replicate_samples": reps,
        "harness.summarize_ms": reaggregate_s("cli.summarize") * 1000.0,
        "harness.summarize_descriptives_ms": reaggregate_s("cli.summarize_descriptives") * 1000.0,
        "output.write_s": sum(dur[i] for i in writes) / 1000.0,
        "output.rows_written": sum(spans[i][4][0] for i in writes),
        "output.bytes_written": sum(spans[i][4][1] for i in writes),
        "output.read_estimates_s": reaggregate_s("output.read_estimates"),
        "output.read_describe_s": reaggregate_s("output.read_describe"),
        "cli.import_s": sim["import_s"],
        "cli.self_s": own[simulate] / 1000.0,
    })
    samples["hazards.solve_ms"] = len(solves)
    samples["estimators.degenerate_per_1k"] = reps
    return metrics, samples


def replicate_phase_s(doc: dict) -> float:
    return sum(sp[2] - sp[1] for sp in doc["spans"] if sp[0] == "cli.run_scenario")


def in_process_rate(doc: dict, reps: int) -> float:
    """Replicates per second over the import and the simulate verb, timed
    inside the traced process; spans written at exit are not counted."""
    simulate = next(sp for sp in doc["spans"] if sp[0] == "verb.simulate")
    return SCENARIOS * reps / (doc["import_s"] + simulate[2] - simulate[1])


def measure_trace(s: BenchRun, w: Workload, seed: int) -> dict[str, float]:
    """Per-layer metrics from a serial traced run, which the pool would hide
    in its workers. Runs with only the CLI-level calls timed give the
    untraced rate and the 1- against 2-worker replicate phase."""
    warm, _ = checked_simulate(s, w, "warmup", seed, 0)
    s.drop(warm)
    reps = w.trace_reps

    def simulate(name: str, layers: str, threads: int) -> tuple[dict, Path]:
        out = s.fresh(name)
        doc = traced(s, layers, [w.simulate(out, seed, reps, threads)])
        gate.check_outputs(out, _sim_files(reps), SCENARIOS, reps, w.truth_check)
        return doc, out

    serial, out = simulate("serial", "cli", 1)
    expected = gate.digest(out)
    sim, out = simulate("traced", "all", 1)
    gate.require_identical("trace_identity", expected, gate.digest(out))
    reagg = traced(s, "all", [[verb, "--out", str(out)] for verb in REAGGREGATE_VERBS])
    gate.check_outputs(out, gate.REAGGREGATE_FILES, SCENARIOS, reps, False)
    parallel, out = simulate("parallel", "cli", 2)
    gate.require_identical("threads_identity", expected, gate.digest(out))

    metrics, samples = layer_metrics(sim, reagg)
    metrics["harness.parallel_speedup"] = replicate_phase_s(serial) / replicate_phase_s(parallel)
    metrics["trace.overhead"] = in_process_rate(serial, reps) / in_process_rate(sim, reps)
    s.samples.update(samples)
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, w: Workload, seed: int, trace: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "workload": asdict(w),
        "seed": seed,
        "trace": trace,
    }


def run(root: Path, w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object (with provenance)."""
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    s = BenchRun(root=root, work=Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch)),
                deadline=time.monotonic() + RUN_DEADLINE_S)
    metrics: dict[str, float] = {}
    try:
        if trace:
            with s.guard():
                metrics = measure_trace(s, w, seed)
        else:
            metrics = measure_e2e(s, w, seed, seconds)
    finally:
        shutil.rmtree(s.work, ignore_errors=True)
    if not trace and metrics:
        failed = len(s.failures)
        metrics["completed_fraction"] = (s.attempted - failed) / s.attempted
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": not s.failures,
        "attempted": s.attempted,
        "failed": len(s.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "samples": s.samples,
        "raw": s.raw,
        "failures": s.failures,
        "provenance": provenance(root, w, seed, trace),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    if not (root / "src" / "snt_lab" / "cli.py").is_file():
        print(f"error: no snt-lab sources under {root / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    result = run(root, w, args.seed, args.seconds, bool(args.trace))

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")

    print("provenance " + json.dumps(result["provenance"]))
    for failure in result["failures"]:
        print(f"FAILED {failure['check']}: {failure['detail']}")
    for key, m in result["metrics"].items():
        n = result["samples"].get(key)
        print(f"{key} = {m['value']:.6g} {m['unit']}" + (f" (samples={n})" if n else ""))
    if len(result["metrics"]) != len(LAYER_UNITS if args.trace else E2E_UNITS):
        return 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
