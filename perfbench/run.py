#!/usr/bin/env python3
"""Benchmark harness for expander-forge: time the verified-tower pipeline
end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tower-cartan-5-13-L2 --seed 42 --seconds 30 --trace 0

Each iteration of a workload is a fresh interpreter (worker.py), started one
after another from this process with the BLAS thread variables unset.  An
untraced run (``--trace 0``) repeats the workload until ``--seconds`` would
be exceeded and reports medians of the end-to-end metrics.  A traced run
(``--trace 1``) does untraced iterations for half the budget, then one traced
iteration, and reports per-layer self times and counts.  Every iteration's
outputs go through the output gate outside the timed region.  The last line
of stdout is the JSON result; the full record, with the environment, goes to
``.perfbench/results/``.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEFAULT_SEED = 42
CHILD_TIMEOUT_S = 150
E2E_METRICS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {"vertices": "count", "edges": "count", "value": "count", "words": "count",
               "survivors": "count", "bytes": "bytes", "vertices_per_s": "vertices/s",
               "words_per_s": "words/s", "s": "s"}


@dataclass
class Workload:
    """steps(seed, workdir) gives the worker's steps; `hashed` lists the output
    files whose sha256 is pinned in expected.json, `seeded` the subset whose
    bytes depend on the seed (pinned only at DEFAULT_SEED), and `check`
    returns problems found by seed-independent invariants."""

    steps: Callable
    hashed: tuple
    seeded: tuple = ()
    check: Callable = None
    single_thread_repeat: bool = False


def _cli(argv, stdout="stdout.txt"):
    return {"kind": "cli", "argv": [str(a) for a in argv], "stdout": stdout}


def tower_steps(q1, q2, levels, variant, export):
    def steps(seed, workdir):
        argv = ["tower", "--q1", q1, "--q2", q2, "--levels", levels, "--variant", variant,
                "--probe-len", 4, "--report", workdir / "report.json"]
        if export:
            argv += ["--export-dir", workdir / "export"]
        return [_cli(argv)]

    return steps


def probe_steps(seed, workdir):
    base = ["probe", "--q1", 5, "--q2", 13, "--level", 3, "--max-word-len", 8]
    return [_cli(base, "untwisted.txt"),
            _cli(base + ["--twist-seed", seed], "twisted.txt")]


def build_steps(seed, workdir):
    return [{"kind": "build", "q1": 5, "q2": 17, "level": 2,
             "out": "level2.edges", "facts": "build.json"}]


_WORD = re.compile(r"^word \[([\d.]+)\] quaternion \((-?\d+), (-?\d+), (-?\d+), (-?\d+)\)")
_TESTED = re.compile(r"^# (\d+) reduced words tested, (\d+) survive (\d+) level")
PROBE_WORDS = 585936  # reduced words of length 1..8 over 6 generators


def _probe_survivors(text, label):
    lines = text.splitlines()
    tested = [m for m in map(_TESTED.match, lines) if m]
    words = [m.groups() for m in map(_WORD.match, lines) if m]
    problems = []
    if len(tested) != 1 or int(tested[0].group(1)) != PROBE_WORDS:
        problems.append(f"{label}: expected one '# {PROBE_WORDS} reduced words tested' line")
    elif int(tested[0].group(2)) != len(words):
        problems.append(f"{label}: survivor count line disagrees with the word lines")
    return words, problems


def probe_check(workdir):
    """Untwisted, the survivors are exactly the powers gamma^k and
    conj(gamma)^k, k = 1..8, of gamma = 1+2i; twisted, none has length one."""
    words, problems = _probe_survivors((workdir / "untwisted.txt").read_text(), "untwisted")
    want = set()
    for sign in (1, -1):
        z = complex(1, 0)
        for k in range(1, 9):
            z *= complex(1, 2 * sign)
            want.add((k, int(z.real), int(z.imag)))
    got = set()
    for letters, x0, x1, x2, x3 in words:
        seq = letters.split(".")
        if len(set(seq)) != 1 or (x2, x3) != ("0", "0"):
            problems.append(f"untwisted survivor [{letters}] is not a power of one generator")
        got.add((len(seq), int(x0), int(x1)))
    if got != want or len(words) != len(want):
        problems.append("untwisted survivors are not exactly the powers of 1+2i and 1-2i")
    twisted, more = _probe_survivors((workdir / "twisted.txt").read_text(), "twisted")
    problems += more
    if any("." not in letters for letters, *_ in twisted):
        problems.append("twisted probe kept a length-one survivor")
    return problems


WORKLOADS = {
    # The ROADMAP headline; the eigensolve dominates.
    "tower-cartan-5-13-L2": Workload(
        tower_steps(5, 13, 2, "cartan", export=True),
        hashed=("report.json", "export/level1.edges", "export/level2.edges"),
        single_thread_repeat=True),
    # Girth dominates; bipartite spectrum path.
    "tower-cayley-5-17-L1": Workload(
        tower_steps(5, 17, 1, "cayley", export=False), hashed=("report.json",)),
    # The only workload where the probe dominates; the twisted half is seeded.
    "probe-5-13-L3-w8": Workload(
        probe_steps, hashed=("untwisted.txt", "twisted.txt"), seeded=("twisted.txt",),
        check=probe_check),
    # Build and cover dominate; the edge list is written and read back.
    "build-cartan-5-17-L2": Workload(
        build_steps, hashed=("level2.edges", "build.json")),
}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def gate(wl, seed, workdir, expected):
    """Problems with one iteration's outputs: pinned hashes, then invariants."""
    problems = []
    for name in wl.hashed:
        if name in wl.seeded and seed != DEFAULT_SEED:
            continue
        path = workdir / name
        if not path.is_file():
            problems.append(f"missing output {name}")
        elif sha256(path) != expected.get(name):
            problems.append(f"{name}: sha256 differs from the recorded output")
    if wl.check is not None and not problems:
        problems += wl.check(workdir)
    return problems


def child_env(threads):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    if threads is not None:
        env.update({"OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)})
    return env


def run_worker(steps, workdir, trace=False, threads=None):
    """One fresh interpreter; returns (worker result or None, problems)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spec = {"src": str(SRC), "workdir": str(workdir), "steps": steps, "trace": trace,
            "blas_env_keys": list(BLAS_ENV)}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=child_env(threads), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"worker timed out after {CHILD_TIMEOUT_S} s"]
    result_path = workdir / "_result.json"
    if not result_path.is_file():
        return None, [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]
    res = json.loads(result_path.read_text())
    problems = []
    if res["error"] is not None:
        problems.append(f"worker raised: {res['error']}")
    if any(res["codes"]) or proc.returncode:
        problems.append(f"exit codes {res['codes']}, worker {proc.returncode}: "
                        f"{proc.stderr[-2000:]}")
    return res, problems


class Run:
    """Iterations of one workload and their tallies."""

    def __init__(self, name, wl, seed, expected):
        self.name, self.wl, self.seed, self.expected = name, wl, seed, expected
        self.workdir = OUT / "work" / f"{name}-{os.getpid()}"
        self.samples = []
        self.attempted = 0
        self.problems = []
        self.envs = []

    def iteration(self, trace=False, threads=None):
        self.attempted += 1
        res, problems = run_worker(self.wl.steps(self.seed, self.workdir), self.workdir,
                                   trace, threads)
        if not problems:
            problems = gate(self.wl, self.seed, self.workdir, self.expected)
        shutil.rmtree(self.workdir, ignore_errors=True)
        if res is not None:
            self.envs.append(res["env"])
        if problems:
            self.problems.append({"iteration": self.attempted, "trace": trace,
                                  "threads": threads, "problems": problems})
            return None
        return res

    def loop(self, budget):
        """Untraced iterations while the next one is predicted to fit."""
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            res = self.iteration()
            if res is not None:
                self.samples.append(res)
            now = time.perf_counter()
            if now - start + (now - t) > budget:
                return


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def commit_of(root):
    """The checked-out commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(name, wl, seed, seconds, trace, expected):
    """Run one workload; return (printed result, full record)."""
    run = Run(name, wl, seed, expected)
    run.loop(seconds / 2 if trace else seconds)
    metrics = {}
    record = {}
    if trace:
        traced = run.iteration(trace=True)
        if traced is not None and run.samples:
            layers = dict(traced["layers"])
            layers["trace_overhead_s"] = traced["wall_s"] - median_of(run.samples, "wall_s")
            layers["spectrum_1t.s"] = 0.0
            record["traced"] = traced
            if wl.single_thread_repeat:
                single = run.iteration(trace=True, threads=1)
                if single is not None:
                    layers["spectrum_1t.s"] = single["layers"]["spectrum.s"]
                    record["single_thread"] = single
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    elif run.samples:
        metrics = {k: {"value": median_of(run.samples, k), "unit": u}
                   for k, u in E2E_METRICS.items()}
    failed = len(run.problems)
    result = {"correct": failed == 0 and bool(metrics), "attempted": run.attempted,
              "failed": failed, "metrics": metrics}
    record.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "fail_rate": failed / run.attempted,
        "problems": run.problems,
        "samples": [{k: s[k] for k in E2E_METRICS} for s in run.samples],
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "commit": commit_of(ROOT),
            "per_iteration": run.envs,
        },
        "result": result,
    })
    return result, record


def layer_unit(name):
    return "s" if name == "trace_overhead_s" else LAYER_UNITS[name.partition(".")[2]]


def write_record(record):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / (f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
                      f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description="expander-forge benchmark harness")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="twist seed of the probe workload's twisted half")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "expander_forge" / "__init__.py").is_file():
        print(f"error: no expander_forge sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())[args.workload]
    result, record = measure(args.workload, WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), expected)
    path = write_record(record)
    for p in record["problems"]:
        print(f"iteration {p['iteration']} failed: {p['problems']}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
