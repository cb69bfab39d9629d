#!/usr/bin/env python3
"""Self-test of the benchmark harness on a tiny config, (5,13) cartan level 1.

    python3 perfbench/selftest.py

Checks that an iteration with the recorded hashes passes, that a wrong
expected hash counts as a failed iteration, that the metric names and units
written match BENCHMARK.json in both modes, that the traced spans nest
(so no self time is counted twice) and no layer time is negative, and that a
tree without sources gives a nonzero exit and no result.  Takes about 15 s.
"""

import json
import sys
from pathlib import Path

import run

TINY = "selftest-cartan-5-13-L1"
TINY_WORKLOAD = run.Workload(
    run.tower_steps(5, 13, 1, "cartan", export=True),
    hashed=("report.json", "export/level1.edges"),
    single_thread_repeat=True)


def spans_nest(spans, wall):
    """True if each span lies within its parent's [start, end], a top-level
    span within [0, wall], and siblings do not overlap."""
    last_end = {}
    for s in spans:
        lo, hi = (0.0, wall) if s["parent"] is None else (
            spans[s["parent"]]["start"], spans[s["parent"]]["end"])
        if not lo <= s["start"] <= s["end"] <= hi:
            return False
        if s["start"] < last_end.get(s["parent"], lo):
            return False
        last_end[s["parent"]] = s["end"]
    return bool(spans)


def main():
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expected = json.loads(run.EXPECTED.read_text())[TINY]

    result, _ = run.measure(TINY, TINY_WORKLOAD, run.DEFAULT_SEED, 0, False, expected)
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          "recorded hashes pass the gate")
    check({k: v["unit"] for k, v in result["metrics"].items()} == e2e,
          "untraced metric names and units match BENCHMARK.json end_to_end")
    check(all(v["value"] > 0 for v in result["metrics"].values()),
          "end-to-end metrics are positive")

    wrong = dict(expected, **{"report.json": "0" * 64})
    result, record = run.measure(TINY, TINY_WORKLOAD, run.DEFAULT_SEED, 0, False, wrong)
    check(not result["correct"] and result["failed"] == result["attempted"] >= 1
          and record["fail_rate"] == 1.0,
          "a wrong expected hash counts as a failed iteration")

    result, record = run.measure(TINY, TINY_WORKLOAD, run.DEFAULT_SEED, 0, True, expected)
    metrics = result["metrics"]
    check(result["correct"], "traced run passes the gate, one BLAS thread included")
    check({k: v["unit"] for k, v in metrics.items()} == per_layer,
          "traced metric names and units match BENCHMARK.json per_layer")
    check(all(v["value"] >= 0 for k, v in metrics.items() if k.endswith(".s")),
          "layer self times and other.s are not negative")
    check(spans_nest(record["traced"]["spans"], record["traced"]["wall_s"]),
          "every span lies inside its parent's, and the outer ones inside the traced wall")
    check(metrics["build.vertices"]["value"] == 182 and metrics["girth.value"]["value"] == 1
          and metrics["probe.words"]["value"] == 936,
          "traced counts match the config")

    run.SRC = Path(run.OUT / "no-such-tree")
    check(run.main(["--workload", "probe-5-13-L3-w8", "--seconds", "1"]) == 2,
          "a tree without sources exits 2 before printing a result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
