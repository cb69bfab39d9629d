"""End-to-end acceptance criteria.

Each test checks one criterion at its stated tolerance and prints a single
PASS line (run with `pytest tests/test_acceptance.py -v -s` to see them);
a pytest failure is the corresponding FAIL line.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import covering_morphism
from expander_forge.multigraph import girth
from expander_forge.quat import Quaternion, enumerate_generators, split
from expander_forge.spectra import ramanujan_check
from expander_forge.tower import (
    TowerConfig,
    build_level,
    intersection_probe,
    loop_witness,
    natural_covering,
    probe_with_reseed,
)
from oracles import (bfs_transition_table, brute_force_pgl2_cartan_graph, link_is_covering,
                     raw_twist_draw)

pytestmark = pytest.mark.acceptance

REPO_ROOT = Path(__file__).resolve().parent.parent

# Regression fixtures recorded from the first verified run of criterion 7
# (survivors are exactly the powers of 1+2i and of its conjugate).
UNTWISTED_SURVIVORS_5_13_LEN4 = (
    (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0),
    (5,), (5, 5), (5, 5, 5), (5, 5, 5, 5),
)
TWISTED_SURVIVORS_5_13_SEED42_LEN4 = ()


def _passed(criterion: int, desc: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {criterion} exceeded budget: {elapsed:.1f}s >= {budget}s"
    print(f"PASS criterion {criterion}: {desc} [{elapsed:.1f}s < {budget:.0f}s]")


def test_criterion_1_generator_counts():
    t0 = time.perf_counter()
    for q1, count in [(5, 6), (13, 14), (17, 18), (29, 30)]:
        gs = enumerate_generators(q1)
        assert len(gs.gens) == count
        coeff_set = {g.coefficients() for g in gs.gens}
        for g in gs.gens:
            assert g.conjugate().coefficients() in coeff_set
    _passed(1, "generator counts 6/14/18/30, conjugation-closed", t0, 1.0)


def test_criterion_2_level1_cartan_5_13():
    t0 = time.perf_counter()
    lvl = build_level(TowerConfig(5, 13), 1)
    g = lvl.graph
    assert g.num_vertices == 182
    assert set(g.degrees()) == {6}
    assert g.connected()
    assert girth(g) == 1
    wit = loop_witness(lvl)
    assert wit.vertex == 0
    assert lvl.generators.gens[wit.generator] == Quaternion(1, 2, 0, 0)
    assert g.terminus[wit.vertex * lvl.degree + wit.generator] == wit.vertex
    assert g.bipartition() is None
    report = ramanujan_check(g, method="dense")
    assert abs(report.lambda_top - 6.0) <= 1e-9
    assert report.lambda_top_multiplicity == 1
    assert report.max_abs_nontrivial <= 2 * math.sqrt(5) + 1e-8
    assert report.ramanujan
    _passed(2, "level-1 cartan (5,13): 182 vertices, loop by 1+2i, Ramanujan", t0, 5.0)


def test_criterion_3_level2_cartan_5_13():
    t0 = time.perf_counter()
    cfg = TowerConfig(5, 13, levels=2)
    l1 = build_level(cfg, 1)
    l2 = build_level(cfg, 2)
    assert l2.graph.num_vertices == 30758
    report = ramanujan_check(l2.graph, method="iterative")
    assert report.method == "iterative"
    assert abs(report.ramanujan_bound - 4.4721359550) < 1e-10
    assert report.max_abs_nontrivial <= report.ramanujan_bound + 1e-8
    assert report.ramanujan
    assert report.max_residual <= 1e-10
    assert girth(l2.graph) == 1
    cov = natural_covering(l2, l1)
    check = link_is_covering(*covering_morphism(l2, l1, cov.vertex_map))
    assert check.ok and check.witness == -1
    _passed(3, "level-2 cartan (5,13): 30758 vertices, iterative Ramanujan, covering", t0, 120.0)


def test_criterion_4_psl_mode_5_29():
    t0 = time.perf_counter()
    cfg = TowerConfig(5, 29)
    assert cfg.mode == "PSL"
    lvl = build_level(cfg, 1)
    assert lvl.graph.num_vertices == 870
    from expander_forge.projgroup import is_psl

    assert all(is_psl(split(s, lvl.pp)) for s in lvl.generators.gens)
    report = ramanujan_check(lvl.graph)
    assert report.ramanujan
    assert girth(lvl.graph) == 1
    _passed(4, "PSL mode (5,29): 870 vertices, S(1) in PSL, Ramanujan, girth 1", t0, 10.0)


def test_criterion_5_cayley_variant_5_13():
    t0 = time.perf_counter()
    lvl = build_level(TowerConfig(5, 13, variant="cayley"), 1)
    g = lvl.graph
    assert g.num_vertices == 2184
    assert g.bipartition() is not None
    report = ramanujan_check(g, method="dense")
    assert report.ramanujan
    assert abs(report.lambda_top - 6.0) <= 1e-9
    assert abs(report.lambda_bottom + 6.0) <= 1e-9
    raw_girth = girth(g)
    floor = math.ceil(4 / 3 * math.log(2184, 5))
    assert floor == 7
    assert raw_girth >= floor
    _passed(5, f"cayley (5,13): 2184 vertices, bipartite, Ramanujan, girth {raw_girth} >= 7",
            t0, 30.0)


def test_criterion_6_oracle_equivalence_13_5():
    t0 = time.perf_counter()
    lvl = build_level(TowerConfig(13, 5), 1)
    assert lvl.graph.num_vertices == 30
    assert set(lvl.graph.degrees()) == {14}
    assert bfs_transition_table(lvl) == brute_force_pgl2_cartan_graph(13, 5)
    _passed(6, "(13,5) pair-orbit graph label-isomorphic to PGL2(F5) coset oracle", t0, 5.0)


def test_criterion_7_intersection_dichotomy():
    t0 = time.perf_counter()
    cfg = TowerConfig(5, 13, levels=3)
    untwisted = intersection_probe(cfg, max_word_len=4, up_to_level=3)
    survivors = untwisted.survivor_letters()
    length_one = {h.quaternion.coefficients() for h in untwisted.survivors
                  if len(h.word) == 1}
    assert length_one == {(1, 2, 0, 0), (1, -2, 0, 0)}  # gamma and its conjugate
    assert survivors == UNTWISTED_SURVIVORS_5_13_LEN4
    twisted_cfg = TowerConfig(5, 13, levels=3, twist_seed=42)
    probe, reseeds = probe_with_reseed(twisted_cfg, max_word_len=4, up_to_level=3)
    twist = probe.twist
    assert not probe.has_length_one_survivor()
    assert probe.survivor_letters() == TWISTED_SURVIVORS_5_13_SEED42_LEN4
    # seed 42 is kept: its raw g(1) conjugates no generator to a diagonal matrix
    assert reseeds == () and twist.seed == 42
    assert twist.matrices[0] == raw_twist_draw(5, 13, 42)
    assert probe == intersection_probe(twisted_cfg, 4, 3)
    _passed(7, "probe: gamma survives untwisted, eliminated under twist seed 42", t0, 60.0)


def test_criterion_8_property_suites_standalone():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "properties", "-q", "--no-header"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    tail = proc.stdout.strip().splitlines()[-1]
    assert "passed" in tail and "failed" not in tail
    _passed(8, f"property suites standalone ({tail})", t0, 60.0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for threads, name in (("1", "a"), ("4", "b")):
        report = tmp_path / f"report-{name}.json"
        export = tmp_path / f"export-{name}"
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "expander_forge", "tower",
             "--q1", "5", "--q2", "13", "--levels", "2",
             "--report", str(report), "--export-dir", str(export)],
            cwd=REPO_ROOT, capture_output=True, text=True, env=env, timeout=560,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((
            report.read_bytes(),
            (export / "level1.edges").read_bytes(),
            (export / "level2.edges").read_bytes(),
        ))
    assert outputs[0][0] == outputs[1][0], "reports differ between runs/thread counts"
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]
    # and equal to the bytes recorded when this run was first pinned
    assert [hashlib.sha256(b).hexdigest() for b in outputs[0]] == [
        "61e5d234ee31fe1cb34ae237dbc2033e7e58daeed0dcc6b3f3115776c2bf4dab",
        "e2ef737100fd813142b245b65c26ffca5aaae4ff402fe57b8ee282a5a3007164",
        "de0e7599fa10b582948990653d17f7397723904347c1e75559893e374e71d3dc",
    ]
    report = json.loads(outputs[0][0])
    assert [lvl["girth"] for lvl in report["levels"]] == [1, 1]
    assert all(c["verified"] for c in report["coverings"])
    assert report["probe"]["contains_length_one"] is True
    spectrum = report["levels"][1]["spectrum"]
    assert spectrum["lambda_top"] == 6.0
    assert spectrum["lambda_top_multiplicity"] == 1
    assert spectrum["lambda_bottom"] == -4.46721329076
    assert spectrum["max_abs_nontrivial"] == 4.46721329076
    assert spectrum["method"] == "iterative"
    _passed(9, "cmd_tower byte-identical across reruns and 1 vs 4 threads", t0, 120.0)
