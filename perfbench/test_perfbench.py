"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

They check that a run emits every metric BENCHMARK.json names, with its
unit, and that the correctness gate rejects corrupted outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Each workload's command at a size that runs in seconds. The SPT truth
#: check needs the paper's cohort size, so it is off here.
TINY = {
    name: replace(w, n=200, reps=3, trace_reps=3, truth_check=False,
                  superpop=1000 if w.superpop else None)
    for name, w in run.WORKLOADS.items()
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = run.run(ROOT, TINY[workload], seed=7, seconds=0, trace=trace)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), key
    provenance = result["provenance"]
    for key in ("nproc", "cpu_model", "python", "numpy", "source_sha256", "seed"):
        assert provenance[key] is not None, key
    assert provenance["workload"]["n"] == 200


def test_bench_alone_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"], "--workload", "paper-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One tiny simulate on one worker and on two, re-aggregated."""
    s = run.BenchRun(root=ROOT, work=tmp_path_factory.mktemp("gate"),
                    deadline=time.monotonic() + 120)
    w = TINY["paper-serial"]
    dirs = {}
    for threads in (1, 2):
        out, _ = run.checked_simulate(s, w, f"t{threads}", seed=5, reps=w.reps,
                                      threads=threads)
        run.checked_reaggregate(s, out, w.reps)
        dirs[threads] = out
    return dirs


def corrupted(outputs, tmp_path, name: str, edit) -> Path:
    """A copy of the one-worker outputs with `name` rewritten by `edit`."""
    out = tmp_path / "out"
    shutil.copytree(outputs[1], out)
    path = out / name
    path.write_text(edit(path.read_text()))
    return out


def check(out: Path, truth_check: bool = False) -> None:
    reps = TINY["paper-serial"].reps
    gate.check_outputs(out, gate.REAGGREGATE_FILES, run.SCENARIOS, reps, truth_check)


def test_gate_accepts_real_outputs(outputs):
    for out in outputs.values():
        check(out)
    gate.require_identical("threads_identity", gate.digest(outputs[1]),
                           gate.digest(outputs[2]))


def test_gate_rejects_truncated_estimates(outputs, tmp_path):
    out = corrupted(outputs, tmp_path, "estimates.csv",
                    lambda text: "".join(text.splitlines(keepends=True)[:-5]))
    with pytest.raises(gate.GateError) as err:
        check(out)
    assert err.value.check == "row_count"


def test_gate_rejects_line_cut_short(outputs, tmp_path):
    out = corrupted(outputs, tmp_path, "estimates.csv", lambda text: text[:-40])
    with pytest.raises(gate.GateError) as err:
        check(out)
    assert err.value.check == "row_shape"


def test_gate_rejects_changed_header(outputs, tmp_path):
    out = corrupted(outputs, tmp_path, "describe.csv",
                    lambda text: text.replace("pct_high", "share_high", 1))
    with pytest.raises(gate.GateError) as err:
        check(out)
    assert err.value.check == "header"


def test_gate_rejects_threads_mismatch(outputs, tmp_path):
    # Two replicates' rows out of order, as a merge that ignored the
    # replicate index would leave them.
    def swap_replicates(text):
        lines = text.splitlines(keepends=True)
        lines[1:15], lines[15:29] = lines[15:29], lines[1:15]
        return "".join(lines)

    out = corrupted(outputs, tmp_path, "estimates.csv", swap_replicates)
    check(out)  # same rows, so only the byte comparison can tell
    with pytest.raises(gate.GateError) as err:
        gate.require_identical("threads_identity", gate.digest(outputs[2]), gate.digest(out))
    assert err.value.check == "threads_identity"


def test_gate_rejects_stale_and_missing_files(outputs, tmp_path):
    out = corrupted(outputs, tmp_path, "figure3.csv", lambda text: text)
    (out / "describe_summary.csv").unlink()
    with pytest.raises(gate.GateError) as err:
        check(out)
    assert err.value.check == "file_set"
    with pytest.raises(gate.GateError) as err:
        gate.require_empty(out)
    assert err.value.check == "fresh_out"


def test_gate_rejects_wrong_n_effective(outputs, tmp_path):
    def edit(text):
        lines = text.splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        fields[-1] = str(int(fields[-1]) - 1)
        lines[1] = ",".join(fields) + "\n"
        return "".join(lines)

    out = corrupted(outputs, tmp_path, "summary.csv", edit)
    with pytest.raises(gate.GateError) as err:
        check(out)
    assert err.value.check == "n_effective"


def test_gate_rejects_spt_cells_off_the_truth(outputs, tmp_path):
    def shift_truth(text):
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines[1:], start=1):
            fields = line.rstrip("\n").split(",")
            fields[-1] = str(float(fields[-1]) + 5.0)
            lines[i] = ",".join(fields) + "\n"
        return "".join(lines)

    out = corrupted(outputs, tmp_path, "truth.csv", shift_truth)
    with pytest.raises(gate.GateError) as err:
        check(out, truth_check=True)
    assert err.value.check == "spt_truth"
