"""Smoke tests of the scripts, run as subprocesses against the package's
public names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,expect", [
    ("run_tower_experiment.py", ["--q1", "5", "--q2", "13", "--levels", "1"], "  1       182 "),
    ("spectrum_histogram.py", ["--q1", "5", "--q2", "13", "--level", "1", "--bins", "8"],
     ": 182 vertices"),
], ids=["run_tower_experiment", "spectrum_histogram"])
def test_script_runs(script, args, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
