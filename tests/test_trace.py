"""perfbench/trace.py still runs the package: it wraps functions by their
module attribute names, so a name it patches that leaves src/ fails here,
and not only in perfbench's own tests. Its wrappers change no output byte:
a traced run writes the files of an untraced one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import snt_lab
from snt_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_a_traced_simulate_exits_0_records_the_replicate_spans_and_writes_the_same_bytes(
    tmp_path
):
    spans_path = tmp_path / "spans.json"
    simulate = ["simulate", "--scenario", "S1", "--n", "50", "--reps", "3"]
    verbs = [[*simulate, "--out", str(tmp_path / "out")]]
    src = str(Path(snt_lab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(spans_path), "all",
         json.dumps(verbs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["status"] == 0
    names = [span[0] for span in trace["spans"]]
    assert "cli.run_scenario" in names
    assert names.count("harness.run_replicate") == 3
    # write_csv is wrapped with a row-counting generator
    assert main([*simulate, "--out", str(tmp_path / "untraced")]) == 0
    traced, untraced = (sorted((tmp_path / out).iterdir()) for out in ("out", "untraced"))
    assert [p.name for p in traced] == [p.name for p in untraced]
    for a, b in zip(traced, untraced):
        assert a.read_bytes() == b.read_bytes(), a.name
