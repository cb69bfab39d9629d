"""Smoke tests of the scripts, run as subprocesses against the package's
public names, and of the names the traced benchmark wraps."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.sparse as sp

from conftest import complete_graph, cycle_graph
from expander_forge import InvalidParameterError, TowerConfig, adjacency, build_level

ROOT = Path(__file__).resolve().parent.parent


def _load(path):
    # a script or the benchmark worker, loaded by path as a module
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script,args,expect", [
    ("run_tower_experiment.py", ["--q1", "5", "--q2", "13", "--levels", "1"], "  1       182 "),
    ("run_tower_experiment.py", ["--q1", "5", "--q2", "13", "--levels", "1", "--twist-seed", "42"],
     "probe (len <= 4, twisted): 6 survivor(s)"),
    ("run_tower_experiment.py", ["--q1", "5", "--q2", "13", "--levels", "2", "--twist-seed", "17"],
     "degenerate twist seeds skipped: [17]"),
    ("spectrum_histogram.py", ["--q1", "5", "--q2", "13", "--level", "1", "--bins", "8"],
     ": 182 vertices"),
], ids=["run_tower_experiment", "run_tower_experiment_twisted", "run_tower_experiment_reseeded",
        "spectrum_histogram"])
def test_script_runs(script, args, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


def test_histogram_examples():
    histogram = _load(ROOT / "scripts" / "spectrum_histogram.py").full_spectrum_histogram
    h = histogram(adjacency(cycle_graph(6)), 1)
    assert h.fraction_inside == 1.0
    assert sum(h.counts) == 6
    h4 = histogram(adjacency(complete_graph(4)), 2)
    assert h4.fraction_inside == 0.75
    lvl = build_level(TowerConfig(5, 13), 1)
    hl = histogram(adjacency(lvl.graph), 5)
    assert hl.fraction_inside == (182 - 1) / 182


def test_histogram_refuses_a_matrix_beyond_the_dense_threshold():
    histogram = _load(ROOT / "scripts" / "spectrum_histogram.py").full_spectrum_histogram
    with pytest.raises(InvalidParameterError, match="5000 > 4096 vertices"):
        histogram(sp.identity(5000, format="csr"), 2)


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


def test_benchmark_build_pipeline_runs(tmp_path):
    # perfbench/worker.py's library pipeline, loaded by path and run on
    # (5,13) level 2, so that a signature change to what it calls fails here
    # and not first as a failed benchmark run
    import expander_forge

    worker = _load(ROOT / "perfbench" / "worker.py")
    facts = worker.build_pipeline(expander_forge, {"q1": 5, "q2": 13, "level": 2,
                                                   "out": "top.edges"}, str(tmp_path))
    assert facts == {"vertices": [182, 30758], "coverings_verified": [True], "girth": 1,
                     "loop_witness": [0, 5], "loaded": [30758, 184548]}
    assert (tmp_path / "top.edges").is_file()


def test_traced_probe_is_one_probe_returning_the_probe_first(monkeypatch):
    # perfbench/worker.py counts the words of each intersection_probe call
    # and reads result[0].survivors from probe_with_reseed, which returns
    # (probe, reseeds); a degenerate seed (17 at (5,13)) costs no second
    # probe
    from expander_forge import tower

    calls = []
    probe = tower.intersection_probe
    monkeypatch.setattr(tower, "intersection_probe",
                        lambda *args, **kwargs: calls.append(args) or probe(*args, **kwargs))
    for seed, reseeds in ((42, ()), (17, (17,))):
        calls.clear()
        result = tower.probe_with_reseed(tower.TowerConfig(5, 13, levels=2, twist_seed=seed), 4)
        assert type(result) is tuple and len(result) == 2
        assert isinstance(result[0].survivors, tuple) and result[1] == reseeds
        assert len(calls) == 1
