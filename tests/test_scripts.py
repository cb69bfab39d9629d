"""Smoke tests of the scripts, run as subprocesses against the package's
public names, and of the names the traced benchmark wraps."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,expect", [
    ("run_tower_experiment.py", ["--q1", "5", "--q2", "13", "--levels", "1"], "  1       182 "),
    ("run_tower_experiment.py", ["--q1", "5", "--q2", "13", "--levels", "1", "--twist-seed", "42"],
     "probe (len <= 4, twisted): 6 survivor(s)"),
    ("spectrum_histogram.py", ["--q1", "5", "--q2", "13", "--level", "1", "--bins", "8"],
     ": 182 vertices"),
], ids=["run_tower_experiment", "run_tower_experiment_twisted", "spectrum_histogram"])
def test_script_runs(script, args, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


def test_benchmark_traced_names_resolve():
    # perfbench/worker.py wraps these (module, function) pairs by name; read
    # the table without importing or running the worker
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert traced
    for module, function in traced:
        fn = getattr(importlib.import_module(f"expander_forge.{module}"), function, None)
        assert inspect.isfunction(fn), f"{module}.{function}"
