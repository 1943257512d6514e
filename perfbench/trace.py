"""Traced, in-process run of `snt-lab` verbs.

    python3 perfbench/trace.py SPANS.json {all|cli} '[["simulate", ...], ...]'

Imports `snt_lab` fresh (timing the import), replaces each layer's public
functions at the module attributes the program looks them up by with
wrappers that record a span, runs each verb through `snt_lab.cli.main`
serially, and writes every span to SPANS.json at the end. With `cli` only
the CLI-level calls are wrapped, which keeps the replicate loop untouched.

A span is `[name, start, end, parent, count]`: `parent` is the index of the
enclosing span (-1 at top level) and `count` is work counted at the same
boundary (indexes built, flagged analyses, rows written) or null.
`config` does microseconds of work per run and is not wrapped.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array


class Tracer:
    """Keeps spans in memory as flat columns, which adds no objects for the
    garbage collector to scan; a stack of open spans gives each its parent."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: dict[int, object] = {}
        self.stack: list[int] = []

    def span(self, name: str, fn, count=None):
        """Wrap `fn`; `count(result, args)` gives the span's work count."""
        names, starts, ends, parents = self.names, self.start, self.end, self.parent
        counts, stack = self.counts, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                counts[idx] = count(result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr), count))

    def rows(self) -> list[list]:
        return [
            [name, s, e, p, self.counts.get(i)]
            for i, (name, s, e, p) in enumerate(
                zip(self.names, self.start, self.end, self.parent))
        ]


def _flagged(results, _args) -> int:
    return sum(1 for r in results if r.degenerate)


def _traced_write_csv(tracer: Tracer, write_csv):
    """Count the rows write_csv consumes and the bytes it leaves."""

    def write_counted(path, header, rows):
        n = 0

        def each():
            nonlocal n
            for row in rows:
                n += 1
                yield row

        write_csv(path, header, each())
        return [n, os.path.getsize(path)]

    traced = tracer.span("output.write_csv", write_counted, lambda r, _a: r)

    @functools.wraps(write_csv)
    def wrapper(path, header, rows):
        traced(path, header, rows)

    return wrapper


LAYERS = ("all", "cli")


def install(tracer: Tracer, layers: str) -> None:
    """Wrap the CLI-level calls and, with `all`, every layer's entry points."""
    from snt_lab import cli, estimators, harness, output, population

    for attr, name in (
        ("run_scenario", "cli.run_scenario"),
        ("summarize", "cli.summarize"),
        ("summarize_descriptives", "cli.summarize_descriptives"),
        ("truth_tables", "cli.truth_tables"),
        ("solve", "cli.solve"),
    ):
        tracer.patch(cli, attr, name)
    if layers != "all":
        return

    tracer.patch(harness, "draw_superpopulation", "population.draw_superpopulation")
    tracer.patch(harness, "run_replicate", "harness.run_replicate")
    tracer.patch(harness, "draw_cohort", "population.draw_cohort")
    tracer.patch(harness, "assign_treatments", "designs.assign")
    for attr in ("build_spt", "build_esnt_cal", "build_esnt_td"):
        tracer.patch(harness, attr, "designs.build", lambda r, _a: len(r))
    tracer.patch(harness, "analyze_replicate", "estimators.analyze", _flagged)
    tracer.patch(harness, "describe_replicate", "designs.describe")
    tracer.patch(population.Cohort, "take", "population.take")
    tracer.patch(estimators, "ipcw_km_risk", "estimators.ipcw_km_risk")
    output.write_csv = _traced_write_csv(tracer, output.write_csv)
    tracer.patch(output, "read_estimates", "output.read_estimates")
    tracer.patch(output, "read_describe", "output.read_describe")
    tracer.patch(output, "read_summary", "output.read_summary")


def main(argv: list[str]) -> int:
    spans_path, layers, verbs = argv[0], argv[1], json.loads(argv[2])
    if layers not in LAYERS:
        raise SystemExit(f"layers must be one of {LAYERS}, got {layers!r}")
    start = time.perf_counter()
    import snt_lab.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    install(tracer, layers)
    status = 0
    for verb in verbs:
        run_verb = tracer.span(f"verb.{verb[0]}", snt_lab.cli.main)
        status = run_verb(verb)
        if status != 0:
            break
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "status": status, "spans": tracer.rows()}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
