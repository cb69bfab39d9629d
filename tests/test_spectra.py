import math
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    complete_graph,
    cycle_graph,
    from_geometric_edges,
    loop_graph,
    path_graph,
    petersen_graph,
    prism_graph,
)
from expander_forge import multigraph, spectra
from expander_forge.cli import format_edgelist, load_graph
from expander_forge.errors import InvalidParameterError, VerificationError
from expander_forge.multigraph import SerreGraph
from expander_forge.spectra import (
    DENSE_THRESHOLD,
    RAMANUJAN_TOL,
    RESIDUAL_RTOL,
    adjacency,
    nontrivial_ends,
    ramanujan_check,
)
from expander_forge.tower import TowerConfig, build_level, swap_orbits
from oracles import arpack_nontrivial_ends, coo_swap_halves

ROOT = Path(__file__).resolve().parent.parent


def _trivial(g, q):
    # the unit trivial vectors of the whole graph, its one block
    [(a, pairs)] = spectra._blocks(g, q, g.bipartition(), None)
    return spectra._trivial_vectors(a, pairs)


def _reference_ends(g, q):
    # (bottom, top) nontrivial eigenvalues: dense, or the ARPACK oracle
    # above DENSE_THRESHOLD
    a = adjacency(g)
    if g.num_vertices > DENSE_THRESHOLD:
        return arpack_nontrivial_ends(a, q, g.bipartition() is not None)
    vals = sorted(np.linalg.eigvalsh(a.toarray()))[:-1]
    if g.bipartition() is not None:
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


def test_adjacency_is_built_on_the_graph_arrays_and_leaves_them(tmp_path):
    # The CSR equals, array for array, the one built from copies of the edge
    # arrays, shares no memory with them and leaves them unchanged; on a
    # cayley level and on the same graph loaded from a file
    built = build_level(TowerConfig(5, 13, variant="cayley"), 1).graph
    path = tmp_path / "cayley-5-13-L1.edges"
    path.write_text(format_edgelist(built))
    for g in (built, load_graph(str(path))):
        n = g.num_vertices
        before = (g.origin.copy(), g.terminus.copy())
        want = sp.coo_matrix((np.ones(g.num_edges), (np.array(g.origin), np.array(g.terminus))),
                             shape=(n, n)).tocsr()
        a = adjacency(g)
        for part in ("indptr", "indices", "data"):
            got, ref = getattr(a, part), getattr(want, part)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert not any(np.shares_memory(got, x) for x in (g.origin, g.terminus))
        assert np.array_equal(g.origin, before[0]) and np.array_equal(g.terminus, before[1])


def test_k4_spectrum():
    vals = spectra._dense_values(adjacency(complete_graph(4)))
    assert np.allclose(vals, [-1, -1, -1, 3])
    report = ramanujan_check(complete_graph(4))
    assert report.ramanujan
    assert abs(report.max_abs_nontrivial - 1.0) < 1e-9
    assert report.lambda_top_multiplicity == 1
    assert not report.bipartite


def test_c6_spectrum():
    vals = spectra._dense_values(adjacency(cycle_graph(6)))
    expected = sorted(2 * math.cos(2 * math.pi * k / 6) for k in range(6))
    assert np.allclose(vals, expected)


def test_petersen():
    report = ramanujan_check(petersen_graph())
    assert report.ramanujan
    assert abs(report.max_abs_nontrivial - 2.0) < 1e-9
    vals = spectra._dense_values(adjacency(petersen_graph()))
    assert np.allclose(vals, [-2] * 4 + [1] * 5 + [3])


def test_prism_not_ramanujan():
    # C20 x K2: eigenvalue 2cos(pi/10) + 1 > 2*sqrt(2)
    report = ramanujan_check(prism_graph(20))
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
    # connected() and bipartition() share one V-vertex count; the double
    # cover adds one 2V-vertex count, except on a graph with a loop, which
    # is not bipartite
    calls = []
    count = multigraph.connected_components

    def counting(pattern, directed):
        calls.append(pattern.shape[0])
        return count(pattern, directed=directed)

    monkeypatch.setattr(multigraph, "connected_components", counting)
    g = make()
    assert ramanujan_check(g).q == q
    assert calls == [c * g.num_vertices for c in copies]


def test_ramanujan_check_rejects_bad_input():
    with pytest.raises(InvalidParameterError, match=r"^graph is not regular \(degrees \[1, 2\]\)$"):
        ramanujan_check(path_graph(3))
    # q is the degree less one, and the verdict needs q >= 1
    for g, degree in ((from_geometric_edges(2, [(0, 1)]), 1), (SerreGraph(3, [], [], [], []), 0)):
        with pytest.raises(InvalidParameterError,
                           match=f"^graph has degree {degree}; the verdict needs degree >= 2$"):
            ramanujan_check(g)
    disjoint = from_geometric_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    with pytest.raises(InvalidParameterError, match="^graph is not connected$"):
        ramanujan_check(disjoint)


def test_ramanujan_check_refuses_a_graph_of_no_vertices():
    # vacuously regular, but with no spectrum to judge
    with pytest.raises(InvalidParameterError, match="^graph has no vertices$"):
        ramanujan_check(SerreGraph(0, [], [], [], []))


def test_lanczos_nontrivial_ends_of_prism():
    # The Lanczos path returns the two nontrivial ends of the bipartite prism,
    # ascending, each residual-certified.
    prism = prism_graph(20)
    iterative = nontrivial_ends(adjacency(prism), _trivial(prism, 2), 3, threading.Event())
    assert iterative.method == "iterative"
    assert list(iterative.values) == sorted(iterative.values)
    assert iterative.values == pytest.approx(_reference_ends(prism, 2), abs=1e-9)
    assert max(iterative.residuals) <= RESIDUAL_RTOL * 3


def test_trivial_removal_dense():
    # K4: trivial 3, nontrivial spectrum {-1, -1, -1}.
    report = ramanujan_check(complete_graph(4), method="dense")
    assert report.lambda_top == pytest.approx(3.0)
    assert report.lambda_bottom == pytest.approx(-1.0)
    assert report.max_abs_nontrivial == pytest.approx(1.0)


def test_trivial_eigenvalue_guard(monkeypatch):
    # A deflation that misses q+1 (Petersen, 1/sqrt(V) perturbed) or -(q+1)
    # (bipartite prism, colouring dropped) must not reach the verdict.  The
    # perturbed vector is no eigenvector, so the Ritz residuals fail; the
    # dropped colouring lets -(q+1) into the ends, which the guard catches.
    trivial_vectors = spectra._trivial_vectors

    def perturbed_ones(op, pairs):
        vecs = trivial_vectors(op, pairs)
        u = vecs[0] + 1e-3 * np.sin(np.arange(len(vecs[0])))
        vecs[0] = u / np.linalg.norm(u)
        return vecs

    def colouring_dropped(op, pairs):
        return trivial_vectors(op, pairs)[:1]

    monkeypatch.setattr(spectra, "_trivial_vectors", perturbed_ones)
    with pytest.raises(VerificationError):
        ramanujan_check(petersen_graph(), method="iterative")
    monkeypatch.setattr(spectra, "_trivial_vectors", colouring_dropped)
    with pytest.raises(VerificationError, match="trivial eigenvalue leaked"):
        ramanujan_check(prism_graph(20), method="iterative")

    # A wrong colouring fails the exact check A s = -(q+1) s, with and
    # without a swap.
    monkeypatch.undo()
    bipartition = SerreGraph.bipartition

    def wrong_colouring(g):
        sides = bipartition(g)
        sides[0] = not sides[0]
        return sides

    monkeypatch.setattr(SerreGraph, "bipartition", wrong_colouring)
    with pytest.raises(VerificationError, match="not an eigenvector of -3"):
        ramanujan_check(prism_graph(20), method="iterative")
    for orbits in _prism_orbits(20).values():
        with pytest.raises(VerificationError, match="not an eigenvector of -3"):
            ramanujan_check(prism_graph(20), method="iterative", orbits=orbits)


# (id, graph factory, q, dense report fields, iterative report fields or
# None for the refusal); the fields run from lambda_top to matvecs
DEGENERATE = [
    ("loop", loop_graph, 1,
     (2.0, 1, 2.0, 0.0, False, 2.0, True, "dense", 0.0, 0, 0), None),
    ("triple-edge", lambda: from_geometric_edges(2, [(0, 1)] * 3), 2,
     (3.0, 1, -3.0, 0.0, True, 2 * math.sqrt(2), True, "dense", 0.0, 0, 0), None),
    ("looped-pair", lambda: from_geometric_edges(2, [(0, 0), (1, 1), (0, 1)]), 2,
     (3.0, 1, 1.0, 1.0, False, 2 * math.sqrt(2), True, "dense", 0.0, 0, 0),
     (3.0, 1, 1.0, 1.0, False, 2 * math.sqrt(2), True, "iterative", None, 1, 4)),
]


@pytest.mark.parametrize("make,q,dense,iterative", [d[1:] for d in DEGENERATE],
                         ids=[d[0] for d in DEGENERATE])
def test_degenerate_verdicts(make, q, dense, iterative):
    # Graphs whose nontrivial spectrum is empty or one value.  The dense
    # report of an empty one has max|nontrivial| 0 and the bottom of the
    # whole spectrum; the iterative method refuses it.
    g = make()
    fields = ("lambda_top", "lambda_top_multiplicity", "lambda_bottom", "max_abs_nontrivial",
              "bipartite", "ramanujan_bound", "ramanujan", "method", "max_residual",
              "lanczos_steps", "matvecs")
    for method, want in (("dense", dense), ("iterative", iterative)):
        if want is None:
            with pytest.raises(InvalidParameterError, match="no nontrivial spectrum"):
                ramanujan_check(g, method=method)
            continue
        report = ramanujan_check(g, method=method)
        assert report.q == q
        for name, value in zip(fields, want):
            got = getattr(report, name)
            if name == "max_residual" and value is None:
                assert 0.0 <= got <= RESIDUAL_RTOL * (q + 1)
            elif isinstance(value, float):
                assert got == pytest.approx(value, abs=1e-12), name
            else:
                assert got == value, name


def test_solver_parameter_errors():
    k2 = from_geometric_edges(2, [(0, 1)])
    with pytest.raises(InvalidParameterError):
        # no nontrivial spectrum
        nontrivial_ends(adjacency(k2), _trivial(k2, 0), 1, threading.Event())
    with pytest.raises(InvalidParameterError):
        ramanujan_check(cycle_graph(6), method="magic")


# --- invariant suites ------------------------------------------------------


@pytest.mark.properties
@pytest.mark.slow
def test_dense_vs_iterative_agreement():
    # Both solver paths on the bipartite 2184-vertex Cayley level and the
    # non-bipartite 182-vertex cartan level.
    for cfg in (TowerConfig(5, 13, variant="cayley"), TowerConfig(5, 13)):
        lvl = build_level(cfg, 1)
        dense = ramanujan_check(lvl.graph, method="dense")
        iterative = ramanujan_check(lvl.graph, method="iterative")
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
    res = nontrivial_ends(a, trivial, 6, threading.Event())
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
    eig = nontrivial_ends(adjacency(g), _trivial(g, q), q + 1, threading.Event())
    assert eig.values == pytest.approx(ref, abs=1e-9)
    assert max(eig.residuals) <= RESIDUAL_RTOL * (q + 1)
    report = ramanujan_check(g, method="iterative")
    assert report.q == q and report.ramanujan_bound == 2 * math.sqrt(q)
    assert (report.lambda_top, report.lambda_top_multiplicity) == (q + 1, 1)
    assert report.lambda_bottom == (-(q + 1) if report.bipartite else eig.values[0])
    assert report.max_abs_nontrivial == pytest.approx(max(map(abs, ref)), abs=1e-9)
    assert (report.lanczos_steps, report.matvecs) == (eig.steps, eig.matvecs)


def test_replay_reuses_the_coefficients_bitwise(monkeypatch):
    # Given the first pass's coefficients, the replay forms bitwise the same
    # vectors and takes no inner product but the projection's.
    g = build_level(TowerConfig(5, 13), 1).graph
    a, trivial = adjacency(g), _trivial(g, 5)
    ops = spectra._Reductions(g.num_vertices)
    dots = []
    dot = ops.dot
    monkeypatch.setattr(ops, "dot", lambda x, y: dots.append(1) or dot(x, y))
    first = [(v.copy(), alpha, beta) for _, (v, alpha, beta)
             in zip(range(30), spectra._lanczos(a, trivial, ops, threading.Event()))]
    first_dots = len(dots)
    coefficients = ([f[1] for f in first], [f[2] for f in first])
    replay = [v.copy() for _, (v, _, _) in
              zip(range(30), spectra._lanczos(a, trivial, ops, threading.Event(), coefficients))]
    assert all(np.array_equal(f[0], v) for f, v in zip(first, replay))
    # the start's projection and norm, then per step alpha, projection, beta
    assert first_dots == 2 + 3 * 30 and len(dots) - first_dots == 2 + 30


def test_ritz_vectors_orthogonal_to_trivial(monkeypatch):
    # With the projections made no-ops, the recurrence finds q+1 with
    # eigenvector 1/sqrt(V): its residual passes, its overlap must not.
    monkeypatch.setattr(spectra._Reductions, "project", lambda self, x, units: None)
    g = petersen_graph()
    with pytest.raises(VerificationError, match="overlaps a trivial eigenvector"):
        nontrivial_ends(adjacency(g), _trivial(g, 2), 3, threading.Event())


def test_lanczos_step_cap(monkeypatch):
    monkeypatch.setattr(spectra, "LANCZOS_MAX_STEPS", 3)
    with pytest.raises(VerificationError, match="in 3 steps"):
        ramanujan_check(build_level(TowerConfig(5, 13), 1).graph, method="iterative")


def test_ritz_values_independent_of_blas_threads():
    # The recurrence makes no BLAS call, so the values, residual and step
    # count are bitwise the same at one and two BLAS threads; the cartan
    # level's two swap halves are solved at once, on two threads.
    code = ("from expander_forge.spectra import ramanujan_check\n"
            "from expander_forge.tower import TowerConfig, build_level, swap_orbits\n"
            "g = build_level(TowerConfig(5, 17, variant='cayley'), 1).graph\n"
            "r = ramanujan_check(g)\n"
            "print(r.method, repr(r.max_abs_nontrivial), repr(r.lambda_bottom),\n"
            "      repr(r.max_residual), r.lanczos_steps)\n"
            "lvl = build_level(TowerConfig(5, 13, levels=2), 2)\n"
            "r = ramanujan_check(lvl.graph, method='iterative', orbits=swap_orbits(lvl))\n"
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
    assert [line.split()[0] for line in outs[0].splitlines()] == ["iterative"] * 2
    assert outs[0] == outs[1]


def test_matvec_add_is_the_kernel_of_a_at_v():
    # _matvec_add calls scipy's private CSR kernel.  From zeros it is a @ v
    # bitwise; from a prefill it adds a @ v to it, checked where every sum
    # is exact (integer vectors, beta a power of two) on a built half.
    lvl = build_level(TowerConfig(5, 13), 1)
    orbits = spectra._checked_orbits(lvl.graph, swap_orbits(lvl))
    even, odd = spectra._swap_halves(lvl.graph, orbits)
    rng = np.random.default_rng(5)
    for half in (even, odd):
        n = half.shape[0]
        v = rng.standard_normal(n)
        w = np.zeros(n)
        spectra._matvec_add(half, v, w)
        assert np.array_equal(w, half @ v)
        v, v_prev = rng.integers(-1000, 1000, (2, n)).astype(float)
        beta = 0.5
        w = -beta * v_prev
        spectra._matvec_add(half, v, w)
        assert np.array_equal(w, -beta * v_prev + half @ v)


# --- the swap halves ---------------------------------------------------------


def _cartan(q1, q2, n, seed=None):
    return build_level(TowerConfig(q1, q2, levels=n, twist_seed=seed), n)


def _orbits(swap):
    # the orbits of an involution, one row each in order of the lesser
    # vertex; a fixed point v is a row (v, v)
    reps = np.flatnonzero(np.arange(len(swap)) <= swap)
    return np.column_stack((reps, swap[reps]))


def _swap(orbits, n):
    # the involution exchanging the two vertices of each row
    swap = np.arange(n)
    swap[orbits[:, 0]], swap[orbits[:, 1]] = orbits[:, 1], orbits[:, 0]
    return swap


def _prism_orbits(n):
    # C_n x K_2: exchanging the two cycles changes the colour of every
    # vertex, turning both cycles by n/2 keeps it when n/2 is even
    ids = np.arange(2 * n)
    return {"layers": _orbits((ids + n) % (2 * n)),
            "turn": _orbits(ids // n * n + (ids + n // 2) % n)}


# (id, level factory); each level has a point swap
SWAPPED = [
    ("cartan-5-13-L1", lambda: _cartan(5, 13, 1)),
    ("cartan-13-5-L2", lambda: _cartan(13, 5, 2)),
    ("cartan-13-5-L2-twist7", lambda: _cartan(13, 5, 2, seed=7)),
    ("cartan-5-29-L1-psl", lambda: _cartan(5, 29, 1)),
]


@pytest.mark.parametrize("make", [p[1] for p in SWAPPED], ids=[p[0] for p in SWAPPED])
def test_swap_halves_match_single_solve_and_dense(make):
    # Forced iterative, the halves give the ends of the one-component solve
    # and of the dense spectrum within 1e-9, and the same verdict.
    lvl = make()
    g, q = lvl.graph, lvl.degree - 1
    halves = ramanujan_check(g, method="iterative", orbits=swap_orbits(lvl))
    single = ramanujan_check(g, method="iterative")
    dense = ramanujan_check(g, method="dense")
    assert halves.method == "iterative" and not halves.bipartite
    for other in (single, dense):
        assert halves.max_abs_nontrivial == pytest.approx(other.max_abs_nontrivial, abs=1e-9)
        assert halves.lambda_bottom == pytest.approx(other.lambda_bottom, abs=1e-9)
        assert (halves.lambda_top, halves.lambda_top_multiplicity) == (q + 1, 1)
        assert halves.ramanujan == other.ramanujan
    assert halves.max_residual <= RESIDUAL_RTOL * (q + 1)
    # two solves of at least one checked block each, replay included
    assert halves.lanczos_steps >= 2 * spectra._CHECK_EVERY
    assert halves.matvecs == 2 * halves.lanczos_steps + 4


@pytest.mark.parametrize("name", ["layers", "turn"])
def test_swap_halves_place_the_bipartition_by_parity(name):
    # The prism is bipartite; the colouring is odd under "layers" and even
    # under "turn", and the halves give the dense ends in either case.
    g = prism_graph(20)
    orbits = _prism_orbits(20)[name]
    sides = g.bipartition()
    assert np.array_equal(sides[_swap(orbits, 40)], sides) == (name == "turn")
    report = ramanujan_check(g, method="iterative", orbits=orbits)
    dense = ramanujan_check(g, method="dense")
    assert report.bipartite and report.lambda_bottom == -3.0
    assert report.max_abs_nontrivial == pytest.approx(dense.max_abs_nontrivial, abs=1e-9)
    assert report.ramanujan == dense.ramanujan
    assert report.max_residual <= RESIDUAL_RTOL * 3


def test_swap_halves_together_have_the_spectrum_of_a():
    # The even and odd halves are symmetric, and their spectra together are
    # the adjacency spectrum, in the fiber row order and in id order.
    lvl = build_level(TowerConfig(5, 13), 1)
    g = lvl.graph
    orbits = spectra._checked_orbits(g, swap_orbits(lvl))
    a = adjacency(g).toarray()
    want = np.linalg.eigvalsh(a)
    for order in (orbits, orbits[np.argsort(orbits[:, 0])]):
        even, odd = spectra._swap_halves(g, order)
        assert even.shape == odd.shape == (g.num_vertices // 2,) * 2
        assert np.array_equal(np.sort(order.ravel()), np.arange(182))
        for half in (even, odd):
            assert (half != half.T).nnz == 0
        got = np.sort(np.concatenate([np.linalg.eigvalsh(h.toarray()) for h in (even, odd)]))
        assert got == pytest.approx(want, abs=1e-9)
        r, s = order[:, 0], order[:, 1]
        assert np.array_equal(even.toarray(), a[np.ix_(r, r)] + a[np.ix_(r, s)])


@pytest.mark.parametrize("q1,q2,n,cancels", [
    (5, 13, 1, False), (5, 13, 2, False), (13, 5, 1, True), (13, 5, 2, False),
    (13, 5, 3, False), (17, 5, 1, True), (5, 29, 1, False),
])
def test_swap_halves_are_the_coo_conversion_bit_for_bit(q1, q2, n, cancels):
    # The CSR built straight from the table rows is the canonical CSR that
    # the conversion from COO gives: the same indptr, indices and data, of
    # the same dtypes.  Where the odd half's signs cancel, it holds fewer
    # entries than the even half.
    lvl = _cartan(q1, q2, n)
    orbits = spectra._checked_orbits(lvl.graph, swap_orbits(lvl))
    got, want = spectra._swap_halves(lvl.graph, orbits), coo_swap_halves(lvl.graph, orbits)
    for half, oracle in zip(got, want):
        assert half.has_canonical_format
        for name in ("indptr", "indices", "data"):
            a, b = getattr(half, name), getattr(oracle, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert (got[1].nnz < got[0].nnz) == cancels


def _level_halves(make):
    lvl = make()
    return lvl.graph, lvl.degree - 1, swap_orbits(lvl)


# (id, factory of (graph, q, orbits)): every SWAPPED level, and both prism
# swaps, which place the bipartition in either half
HALVES = [(name, lambda make=make: _level_halves(make)) for name, make in SWAPPED]
HALVES += [(f"prism20-{name}", lambda name=name: (prism_graph(20), 2, _prism_orbits(20)[name]))
           for name in ("layers", "turn")]


@pytest.mark.parametrize("make", [h[1] for h in HALVES], ids=[h[0] for h in HALVES])
def test_swap_halves_follow_the_row_order_given(make):
    # Row i of each half is the orbit (r_i, s_i) in row i of the input,
    # whatever the order of the rows and of the two vertices in a row: the
    # even entry (i, j) counts the edges from r_i to r_j or s_j, the odd
    # entry those to r_j less those to s_j.
    g, _, orbits = make()
    a = adjacency(g).toarray()
    flipped = orbits.copy()
    flipped[::2] = orbits[::2, ::-1]
    shuffled = orbits[np.random.default_rng(17).permutation(len(orbits))]
    for order in (orbits, orbits[::-1], shuffled, flipped):
        even, odd = spectra._swap_halves(g, spectra._checked_orbits(g, order))
        r, s = order[:, 0], order[:, 1]
        assert np.array_equal(even.toarray(), a[np.ix_(r, r)] + a[np.ix_(r, s)])
        assert np.array_equal(odd.toarray(), a[np.ix_(r, r)] - a[np.ix_(r, s)])


@pytest.mark.parametrize("make", [h[1] for h in HALVES], ids=[h[0] for h in HALVES])
def test_halves_ends_equal_the_sequential_solves(make):
    # The concurrent halves give, field for field and bitwise, the merge of
    # nontrivial_ends run one after the other on the even and odd halves.
    g, q, orbits = make()
    orbits, sides = spectra._checked_orbits(g, orbits), g.bipartition()
    blocks = spectra._blocks(g, q, sides, orbits)
    even, odd = spectra._swap_halves(g, orbits)
    assert [(op != half).nnz for (op, _), half in zip(blocks, (even, odd))] == [0, 0]
    # all ones is even; the colouring goes to the half of its parity
    want = [[q + 1], []]
    if sides is not None:
        want[int(not np.array_equal(sides[_swap(orbits, len(sides))], sides))].append(-(q + 1))
    assert [[lam for lam, _ in pairs] for _, pairs in blocks] == want
    eigs = [nontrivial_ends(op, spectra._trivial_vectors(op, pairs), q + 1, threading.Event())
            for op, pairs in blocks]
    want = spectra.EigenResult(
        (min(e.values[0] for e in eigs), max(e.values[-1] for e in eigs)),
        eigs[0].residuals + eigs[1].residuals, "iterative",
        eigs[0].steps + eigs[1].steps, eigs[0].matvecs + eigs[1].matvecs)
    got = spectra._solve_blocks(blocks, q + 1)
    assert got == want
    assert [x.hex() for x in got.values + got.residuals] == \
        [x.hex() for x in want.values + want.residuals]


def _failing_halves(monkeypatch, fails, wait=0.0):
    """Make nontrivial_ends raise VerificationError on the halves named in
    fails; the odd half first sleeps wait seconds.  Returns the log of the
    halves that finished, each with the thread it ran on."""
    solve, log = spectra.nontrivial_ends, []

    def half(a, trivial, norm, cancel):
        name = "even" if len(trivial) else "odd"  # a cartan level: 1/sqrt(V) is even
        if name == "odd":
            time.sleep(wait)
        log.append((name, threading.current_thread()))
        if name in fails:
            raise VerificationError(f"the {name} half failed")
        return solve(a, trivial, norm, cancel)

    monkeypatch.setattr(spectra, "nontrivial_ends", half)
    return log


@pytest.mark.parametrize("fails,message", [(("odd",), "the odd half failed"),
                                           (("even", "odd"), "the even half failed"),
                                           (("even",), "the even half failed")])
def test_halves_error_is_raised_after_the_worker_is_joined(monkeypatch, fails, message):
    # An error in either half comes out, the even half's first; the worker
    # has finished by then, so no thread outlives the call.
    lvl = _cartan(5, 13, 1)
    log = _failing_halves(monkeypatch, fails, wait=0.2)
    before = threading.active_count()
    with pytest.raises(VerificationError, match=message):
        ramanujan_check(lvl.graph, method="iterative", orbits=swap_orbits(lvl))
    assert threading.active_count() == before
    assert sorted(name for name, _ in log) == ["even", "odd"]
    threads = dict(log)
    assert threads["even"] is threading.current_thread()
    assert threads["odd"] is not threading.current_thread()
    assert not threads["odd"].is_alive()


def test_an_interrupt_in_the_even_half_cancels_the_odd_half(monkeypatch):
    # The odd half waits for the even half to fail, then starts a real
    # solve: it is cancelled at its first step, so the interrupt gets out at
    # once, not after a whole solve of the odd half.
    lvl = _cartan(5, 13, 1)
    solve, odd_errors = spectra.nontrivial_ends, []

    def half(a, trivial, norm, cancel):
        if len(trivial):
            raise KeyboardInterrupt
        cancel.wait(timeout=10)
        try:
            return solve(a, trivial, norm, cancel)
        except VerificationError as exc:
            odd_errors.append(str(exc))
            raise

    monkeypatch.setattr(spectra, "nontrivial_ends", half)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        ramanujan_check(lvl.graph, method="iterative", orbits=swap_orbits(lvl))
    assert time.perf_counter() - started < 5
    assert odd_errors == ["the solve was cancelled"]


def test_halves_leave_no_thread_behind(monkeypatch):
    lvl = _cartan(5, 13, 1)
    log = _failing_halves(monkeypatch, ())
    before = threading.active_count()
    report = ramanujan_check(lvl.graph, method="iterative", orbits=swap_orbits(lvl))
    assert report.method == "iterative"
    assert threading.active_count() == before
    assert len({thread for _, thread in log}) == 2


@pytest.mark.parametrize("make,q", [(lambda: prism_graph(20), 2),
                                    (lambda: _cartan(5, 13, 1).graph, 5)],
                         ids=["prism20", "cartan-5-13-L1"])
def test_one_block_is_solved_on_the_calling_thread(monkeypatch, make, q):
    # Without a swap the whole graph is the one block: nontrivial_ends runs
    # once, here, and no thread is started.
    solve, log = spectra.nontrivial_ends, []
    before = threading.active_count()

    def logged(a, trivial, norm, cancel):
        log.append((a.shape, len(trivial), threading.current_thread(), threading.active_count()))
        return solve(a, trivial, norm, cancel)

    monkeypatch.setattr(spectra, "nontrivial_ends", logged)
    g = make()
    report = ramanujan_check(g, method="iterative")
    n = g.num_vertices
    assert report.q == q
    assert log == [((n, n), 1 + report.bipartite, threading.current_thread(), before)]
    assert threading.active_count() == before


@pytest.mark.parametrize("end", ["top", "bottom"])
def test_dense_solve_missing_a_trivial_end_is_refused(monkeypatch, end):
    # A dense spectrum whose top is not q+1, or whose bottom is not -(q+1)
    # on a bipartite graph, never reaches the verdict.
    solve = spectra._dense_values

    def moved(a):
        values = solve(a)
        if end == "top":
            values[-1] -= 1e-6
        else:
            values[0] += 1e-6
        return values

    monkeypatch.setattr(spectra, "_dense_values", moved)
    with pytest.raises(VerificationError, match="missed a trivial eigenvalue"):
        ramanujan_check(prism_graph(20), method="dense")


def _orbit_variants(orbits, n):
    """(id, bad orbits, message) for the valid orbits of n vertices whose
    first two rows are (a, sa) and (b, sb), with a < sa: a fixed point
    written as a row (a, a), a row left out, a row given twice, two orbits
    re-paired, ids out of range, and arrays that are no integer (., 2)."""
    (a, sa), (b, sb) = (tuple(int(v) for v in row) for row in orbits[:2])
    fixed = orbits.copy()
    fixed[0] = a
    repaired = orbits.copy()
    repaired[:2] = [(a, sb), (b, sa)]
    wrapped, beyond = orbits.copy(), orbits.copy()
    wrapped[0, 0], beyond[0, 1] = -1, n
    return [("fixed", fixed, f"orbits hold vertex {a} 2 times, not once"),
            ("missing", orbits[1:], f"orbits hold vertex {a} 0 times, not once"),
            ("twice", np.vstack([orbits, orbits[:1]]), f"orbits hold vertex {a} 2 times"),
            ("repaired", repaired, "not those of an automorphism"),
            ("negative", wrapped, "out of range"),
            ("beyond", beyond, "out of range"),
            ("flat", orbits.ravel(), "integer array of"),
            ("three columns", np.column_stack([orbits, orbits[:, :1]]), "integer array of"),
            ("float", orbits.astype(float), "integer array of")]


@pytest.mark.parametrize("method", ["dense", "iterative"])
def test_wrong_swap_is_refused_before_any_solve(monkeypatch, method):
    lvl = build_level(TowerConfig(5, 13), 1)
    orbits = swap_orbits(lvl)

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the orbits were checked")

    for name in ("nontrivial_ends", "_dense_values", "_swap_halves", "adjacency"):
        monkeypatch.setattr(spectra, name, no_solve)
    monkeypatch.setattr(SerreGraph, "connected", no_solve)
    for _, bad, message in _orbit_variants(orbits, 182):
        with pytest.raises(InvalidParameterError, match=message):
            ramanujan_check(lvl.graph, method=method, orbits=bad)
    # the prism's reflection i -> -i fixes vertex 0, so it has a row (0, 0)
    ids = np.arange(40)
    with pytest.raises(InvalidParameterError, match="orbits hold vertex 0 2 times"):
        ramanujan_check(prism_graph(20), method=method,
                        orbits=_orbits(ids // 20 * 20 + (-ids) % 20))


def test_shuffled_edge_ids_get_the_same_swap_verdict(monkeypatch):
    # A built level lists its edges in origin order, so the neighbour rows
    # are read without a sort.  The same edges under shuffled ids are sorted
    # first, and get the same verdict and the same refusals.
    lvl = build_level(TowerConfig(5, 13), 1)
    g, orbits = lvl.graph, swap_orbits(lvl)
    new = np.random.default_rng(5).permutation(g.num_edges)  # edge e gets id new[e]

    def moved(a):
        out = np.empty_like(a)
        out[new] = a
        return out

    twin = SerreGraph(g.num_vertices, moved(g.origin), moved(g.terminus), moved(new[g.inv]),
                      moved(g.label))
    assert np.any(np.diff(twin.origin) < 0)
    sorts, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, **kw: sorts.append(len(a)) or argsort(a, **kw))
    reports = []
    for graph, sorted_ids in ((g, []), (twin, [g.num_edges])):
        sorts.clear()
        assert np.array_equal(spectra._checked_orbits(graph, orbits), orbits)
        assert sorts == sorted_ids
        reports.append(ramanujan_check(graph, method="iterative", orbits=orbits))
        for _, bad, message in _orbit_variants(orbits, g.num_vertices):
            with pytest.raises(InvalidParameterError, match=message):
                spectra._checked_orbits(graph, bad)
    assert reports[0].ramanujan and reports[1].ramanujan
    assert reports[1].max_abs_nontrivial == pytest.approx(reports[0].max_abs_nontrivial,
                                                          abs=1e-9)


def _matchings(vertices):
    # every pairing of the vertices into rows of two
    if not vertices:
        yield []
        return
    a, rest = vertices[0], vertices[1:]
    for i, b in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield [(a, b)] + tail


@pytest.mark.parametrize("g", [
    prism_graph(4),  # the cube
    # a 3-regular path of loops and double edges, reflected by v -> 5 - v
    from_geometric_edges(6, [(0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 4), (3, 4), (4, 5),
                             (5, 5)]),
], ids=["cube", "looped-path"])
def test_swap_check_is_the_edge_multiset_statement(g):
    # For every pairing of the vertices, the neighbour-row check accepts
    # exactly when the swap maps the multiset of (origin, terminus) pairs
    # onto itself.  Neither graph lists its edges in origin order.
    assert set(g.degrees()) == {3} and np.any(np.diff(g.origin) < 0)
    pairs = Counter(zip(g.origin.tolist(), g.terminus.tolist()))
    accepted = 0
    for rows in _matchings(list(range(g.num_vertices))):
        orbits = np.array(rows)
        swap = _swap(orbits, g.num_vertices)
        want = Counter(zip(swap[g.origin].tolist(), swap[g.terminus].tolist())) == pairs
        try:
            spectra._checked_orbits(g, orbits)
            got = True
        except InvalidParameterError as e:
            assert "not those of an automorphism" in str(e)
            got = False
        assert got == want, rows
        accepted += got
    assert accepted >= 1
