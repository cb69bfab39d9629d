import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    loop_graph,
    path_graph,
    petersen_graph,
    prism_graph,
)
from expander_forge import multigraph, spectra
from expander_forge.errors import ConvergenceError, InvalidParameterError
from expander_forge.multigraph import SerreGraph
from expander_forge.spectra import (
    DENSE_THRESHOLD,
    RAMANUJAN_TOL,
    RESIDUAL_RTOL,
    adjacency,
    extreme_eigenvalues,
    full_spectrum_histogram,
    nontrivial_ends,
    ramanujan_check,
)
from expander_forge.tower import TowerConfig, build_level
from oracles import arpack_nontrivial_ends

ROOT = Path(__file__).resolve().parent.parent


def _trivial(g, q):
    return spectra._trivial_vectors(adjacency(g), q, g.bipartition())


def _reference_ends(g, q):
    # (bottom, top) nontrivial eigenvalues: dense, or the ARPACK oracle
    # above DENSE_THRESHOLD
    a = adjacency(g)
    if g.num_vertices > DENSE_THRESHOLD:
        return arpack_nontrivial_ends(a, q, g.is_bipartite())
    vals = sorted(np.linalg.eigvalsh(a.toarray()))[:-1]
    if g.is_bipartite():
        vals = vals[1:]
    return vals[0], vals[-1]


def test_adjacency_loop_convention():
    a = adjacency(loop_graph()).toarray()
    assert a.shape == (1, 1)
    assert a[0, 0] == 2  # both directed halves of the loop originate at 0


def test_adjacency_c3():
    a = adjacency(cycle_graph(3)).toarray()
    assert np.array_equal(a, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))


def test_adjacency_rows_match_links():
    lvl = build_level(TowerConfig(5, 13), 1)
    a = adjacency(lvl.graph)
    assert a.shape == (182, 182)
    sums = np.asarray(a.sum(axis=1)).ravel()
    assert np.array_equal(sums, np.full(182, 6.0))
    assert (a != a.T).nnz == 0


def test_k4_spectrum():
    vals = extreme_eigenvalues(adjacency(complete_graph(4)), 4).values
    assert np.allclose(vals, [-1, -1, -1, 3])
    report = ramanujan_check(complete_graph(4), 2)
    assert report.ramanujan
    assert abs(report.max_abs_nontrivial - 1.0) < 1e-9
    assert report.lambda_top_multiplicity == 1
    assert not report.bipartite


def test_c6_spectrum():
    vals = extreme_eigenvalues(adjacency(cycle_graph(6)), 6).values
    expected = sorted(2 * math.cos(2 * math.pi * k / 6) for k in range(6))
    assert np.allclose(vals, expected)


def test_petersen():
    report = ramanujan_check(petersen_graph(), 2)
    assert report.ramanujan
    assert abs(report.max_abs_nontrivial - 2.0) < 1e-9
    both_ends = extreme_eigenvalues(adjacency(petersen_graph()), 6).values
    assert np.allclose(both_ends, [-2, -2, -2, 1, 1, 3])


def test_prism_not_ramanujan():
    # C20 x K2: eigenvalue 2cos(pi/10) + 1 > 2*sqrt(2)
    report = ramanujan_check(prism_graph(20), 2)
    assert not report.ramanujan
    assert abs(report.max_abs_nontrivial - (2 * math.cos(math.pi / 10) + 1)) < 1e-9
    assert report.bipartite
    assert abs(report.lambda_bottom + 3.0) < 1e-9


@pytest.mark.parametrize("make,q,copies", [
    (petersen_graph, 2, [1, 2]),
    (lambda: prism_graph(20), 2, [1, 2]),
    (lambda: build_level(TowerConfig(5, 13), 1).graph, 5, [1]),
], ids=["petersen", "prism20", "looped cartan"])
def test_ramanujan_check_counts_components_once(monkeypatch, make, q, copies):
    # connected() and is_bipartite() share one V-vertex count; the double
    # cover adds one 2V-vertex count, except on a graph with a loop, which
    # is not bipartite
    calls = []
    count = multigraph._component_count

    def counting(n, u, v):
        calls.append(n)
        return count(n, u, v)

    monkeypatch.setattr(multigraph, "_component_count", counting)
    g = make()
    ramanujan_check(g, q)
    assert calls == [c * g.num_vertices for c in copies]


def test_ramanujan_check_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        ramanujan_check(path_graph(3), 1)  # not regular
    disjoint = SerreGraph.from_geometric_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    with pytest.raises(InvalidParameterError):
        ramanujan_check(disjoint, 1)


def test_histogram_examples():
    h = full_spectrum_histogram(adjacency(cycle_graph(6)), 1)
    assert h.fraction_inside == 1.0
    assert sum(h.counts) == 6
    h4 = full_spectrum_histogram(adjacency(complete_graph(4)), 2)
    assert h4.fraction_inside == 0.75
    lvl = build_level(TowerConfig(5, 13), 1)
    hl = full_spectrum_histogram(adjacency(lvl.graph), 5)
    assert hl.fraction_inside == (182 - 1) / 182


def test_extreme_eigenvalues_both_ends():
    # C6 spectrum: -2, -1, -1, 1, 1, 2; an odd count takes the extra value on top.
    a = adjacency(cycle_graph(6))
    assert extreme_eigenvalues(a, 1).values == pytest.approx((2.0,))
    assert extreme_eigenvalues(a, 2).values == pytest.approx((-2.0, 2.0))
    assert extreme_eigenvalues(a, 3).values == pytest.approx((-2.0, 1.0, 2.0))
    # The Lanczos path returns the two nontrivial ends of the bipartite prism,
    # ascending, each residual-certified.
    prism = prism_graph(20)
    iterative = nontrivial_ends(adjacency(prism), _trivial(prism, 2))
    assert iterative.method == "iterative"
    assert list(iterative.values) == sorted(iterative.values)
    assert iterative.values == pytest.approx(_reference_ends(prism, 2), abs=1e-9)
    assert max(iterative.residuals) <= RESIDUAL_RTOL * 3


def test_trivial_removal_dense():
    # K4: trivial 3, nontrivial spectrum {-1, -1, -1}.
    report = ramanujan_check(complete_graph(4), 2, method="dense")
    assert report.lambda_top == pytest.approx(3.0)
    assert report.lambda_bottom == pytest.approx(-1.0)
    assert report.max_abs_nontrivial == pytest.approx(1.0)


def test_trivial_eigenvalue_guard(monkeypatch):
    # A deflation that misses q+1 (Petersen, 1/sqrt(V) perturbed) or -(q+1)
    # (bipartite prism, colouring dropped) must not reach the verdict.  The
    # perturbed vector is no eigenvector, so the Ritz residuals fail; the
    # dropped colouring lets -(q+1) into the ends, which the guard catches.
    trivial_vectors = spectra._trivial_vectors

    def perturbed_ones(a, q, sides):
        vecs = trivial_vectors(a, q, sides)
        u = vecs[0] + 1e-3 * np.sin(np.arange(len(vecs[0])))
        vecs[0] = u / np.linalg.norm(u)
        return vecs

    def colouring_dropped(a, q, sides):
        return trivial_vectors(a, q, sides)[:1]

    monkeypatch.setattr(spectra, "_trivial_vectors", perturbed_ones)
    with pytest.raises(ConvergenceError):
        ramanujan_check(petersen_graph(), 2, method="iterative")
    monkeypatch.setattr(spectra, "_trivial_vectors", colouring_dropped)
    with pytest.raises(ConvergenceError, match="trivial eigenvalue leaked"):
        ramanujan_check(prism_graph(20), 2, method="iterative")

    # A wrong colouring fails the exact check A s = -(q+1) s.
    monkeypatch.undo()
    bipartition = SerreGraph.bipartition

    def wrong_colouring(g):
        sides = bipartition(g)
        sides[0] = not sides[0]
        return sides

    monkeypatch.setattr(SerreGraph, "bipartition", wrong_colouring)
    with pytest.raises(ConvergenceError, match="bipartition is not an eigenvector"):
        ramanujan_check(prism_graph(20), 2, method="iterative")


def test_solver_parameter_errors():
    a = adjacency(cycle_graph(6))
    k2 = SerreGraph.from_geometric_edges(2, [(0, 1)])
    with pytest.raises(InvalidParameterError):
        nontrivial_ends(adjacency(k2), _trivial(k2, 0))  # no nontrivial spectrum
    with pytest.raises(InvalidParameterError):
        ramanujan_check(cycle_graph(6), 1, method="magic")
    for how_many in (0, 7):
        with pytest.raises(InvalidParameterError):
            extreme_eigenvalues(a, how_many)
    import scipy.sparse as sp

    big = sp.identity(5000, format="csr")
    with pytest.raises(InvalidParameterError):
        full_spectrum_histogram(big, 2)


# --- invariant suites ------------------------------------------------------


@pytest.mark.properties
@pytest.mark.slow
def test_dense_vs_iterative_agreement():
    # Both solver paths on the bipartite 2184-vertex Cayley level and the
    # non-bipartite 182-vertex cartan level.
    for cfg in (TowerConfig(5, 13, variant="cayley"), TowerConfig(5, 13)):
        lvl = build_level(cfg, 1)
        dense = ramanujan_check(lvl.graph, 5, method="dense")
        iterative = ramanujan_check(lvl.graph, 5, method="iterative")
        assert abs(dense.lambda_top - iterative.lambda_top) < 1e-8
        assert abs(dense.lambda_bottom - iterative.lambda_bottom) < 1e-8
        assert abs(dense.max_abs_nontrivial - iterative.max_abs_nontrivial) < 1e-8
        assert dense.lambda_top_multiplicity == iterative.lambda_top_multiplicity == 1
        assert dense.ramanujan == iterative.ramanujan
        assert iterative.max_residual <= 1e-10 * 6


@pytest.mark.properties
def test_iterative_residual_contract():
    lvl = build_level(TowerConfig(5, 13), 1)
    a = adjacency(lvl.graph)
    trivial = _trivial(lvl.graph, 5)
    assert len(trivial) == 1  # not bipartite
    ones = np.ones(182)
    assert np.array_equal(a @ ones, 6 * ones)  # the trivial eigenvector of q+1, exactly
    res = nontrivial_ends(a, trivial)
    assert res.method == "iterative"
    assert max(res.residuals) <= 1e-10 * 6
    assert res.steps >= 1 and res.matvecs == 2 * res.steps + 2
    assert max(abs(v) for v in res.values) <= 2 * math.sqrt(5) + RAMANUJAN_TOL


# (id, graph factory, q)
PARITY = [
    ("k4", lambda: complete_graph(4), 2),
    ("c7", lambda: cycle_graph(7), 1),
    ("petersen", petersen_graph, 2),
    ("prism20", lambda: prism_graph(20), 2),
    ("cartan-5-13-L1", lambda: build_level(TowerConfig(5, 13), 1).graph, 5),
    ("cayley-5-13-L1", lambda: build_level(TowerConfig(5, 13, variant="cayley"), 1).graph, 5),
    ("cayley-5-29-L1", lambda: build_level(TowerConfig(5, 29, variant="cayley"), 1).graph, 5),
]


@pytest.mark.parametrize("make,q", [p[1:] for p in PARITY], ids=[p[0] for p in PARITY])
def test_lanczos_ends_match_reference(make, q):
    # The nontrivial ends equal the dense ones (the ARPACK oracle's above
    # DENSE_THRESHOLD) within 1e-9, and the report takes q+1, simple, on
    # top and -(q+1) at the bottom of a bipartite graph.
    g = make()
    ref = _reference_ends(g, q)
    eig = nontrivial_ends(adjacency(g), _trivial(g, q))
    assert eig.values == pytest.approx(ref, abs=1e-9)
    assert max(eig.residuals) <= RESIDUAL_RTOL * (q + 1)
    report = ramanujan_check(g, q, method="iterative")
    assert (report.lambda_top, report.lambda_top_multiplicity) == (q + 1, 1)
    assert report.lambda_bottom == (-(q + 1) if g.is_bipartite() else eig.values[0])
    assert report.max_abs_nontrivial == pytest.approx(max(map(abs, ref)), abs=1e-9)
    assert (report.lanczos_steps, report.matvecs) == (eig.steps, eig.matvecs)


def test_ritz_vectors_orthogonal_to_trivial(monkeypatch):
    # With the projections made no-ops, the recurrence finds q+1 with
    # eigenvector 1/sqrt(V): its residual passes, its overlap must not.
    monkeypatch.setattr(spectra._Reductions, "project", lambda self, x, units: None)
    g = petersen_graph()
    with pytest.raises(ConvergenceError, match="overlaps a trivial eigenvector"):
        nontrivial_ends(adjacency(g), _trivial(g, 2))


def test_lanczos_step_cap(monkeypatch):
    monkeypatch.setattr(spectra, "LANCZOS_MAX_STEPS", 3)
    with pytest.raises(ConvergenceError, match="in 3 steps"):
        ramanujan_check(build_level(TowerConfig(5, 13), 1).graph, 5, method="iterative")


def test_ritz_values_independent_of_blas_threads():
    # The recurrence makes no BLAS call, so the values, residual and step
    # count are bitwise the same at one and two BLAS threads.
    code = ("from expander_forge.spectra import ramanujan_check\n"
            "from expander_forge.tower import TowerConfig, build_level\n"
            "g = build_level(TowerConfig(5, 17, variant='cayley'), 1).graph\n"
            "r = ramanujan_check(g, 5)\n"
            "print(r.method, repr(r.max_abs_nontrivial), repr(r.lambda_bottom),\n"
            "      repr(r.max_residual), r.lanczos_steps)\n")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].startswith("iterative ")
    assert outs[0] == outs[1]
