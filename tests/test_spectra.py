import math

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
from expander_forge.errors import ConvergenceError, InvalidParameterError
from expander_forge.spectra import (
    RAMANUJAN_TOL,
    adjacency,
    extreme_eigenvalues,
    full_spectrum_histogram,
    ramanujan_check,
)
from expander_forge.tower import TowerConfig, build_level


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
    vals = extreme_eigenvalues(adjacency(complete_graph(4)), 4, "dense").values
    assert np.allclose(vals, [-1, -1, -1, 3])
    report = ramanujan_check(complete_graph(4), 2)
    assert report.ramanujan
    assert abs(report.max_abs_nontrivial - 1.0) < 1e-9
    assert report.lambda_top_multiplicity == 1
    assert not report.bipartite


def test_c6_spectrum():
    vals = extreme_eigenvalues(adjacency(cycle_graph(6)), 6, "dense").values
    expected = sorted(2 * math.cos(2 * math.pi * k / 6) for k in range(6))
    assert np.allclose(vals, expected)


def test_petersen():
    report = ramanujan_check(petersen_graph(), 2)
    assert report.ramanujan
    assert abs(report.max_abs_nontrivial - 2.0) < 1e-9
    both_ends = extreme_eigenvalues(adjacency(petersen_graph()), 6, "dense").values
    assert np.allclose(both_ends, [-2, -2, -2, 1, 1, 3])


def test_prism_not_ramanujan():
    # C20 x K2: eigenvalue 2cos(pi/10) + 1 > 2*sqrt(2)
    report = ramanujan_check(prism_graph(20), 2)
    assert not report.ramanujan
    assert abs(report.max_abs_nontrivial - (2 * math.cos(math.pi / 10) + 1)) < 1e-9
    assert report.bipartite
    assert abs(report.lambda_bottom + 3.0) < 1e-9


def test_ramanujan_check_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        ramanujan_check(path_graph(3), 1)  # not regular
    from expander_forge.multigraph import SerreGraph

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
    assert extreme_eigenvalues(a, 1, "dense").values == pytest.approx((2.0,))
    assert extreme_eigenvalues(a, 2, "dense").values == pytest.approx((-2.0, 2.0))
    assert extreme_eigenvalues(a, 3, "dense").values == pytest.approx((-2.0, 1.0, 2.0))
    prism = adjacency(prism_graph(20))
    dense = extreme_eigenvalues(prism, 5, "dense")
    iterative = extreme_eigenvalues(prism, 5, "iterative")
    assert iterative.method == "iterative"
    assert list(iterative.values) == sorted(iterative.values)
    assert iterative.values == pytest.approx(dense.values, abs=1e-9)


def test_trivial_removal_dense():
    # K4: trivial 3, nontrivial spectrum {-1, -1, -1}.
    report = ramanujan_check(complete_graph(4), 2, method="dense")
    assert report.lambda_top == pytest.approx(3.0)
    assert report.lambda_bottom == pytest.approx(-1.0)
    assert report.max_abs_nontrivial == pytest.approx(1.0)


def test_trivial_eigenvalue_guard(monkeypatch):
    # Certified eigenpairs that miss q+1 (Petersen) or -(q+1) (bipartite
    # prism) must not reach the removal by value.
    from expander_forge import spectra

    for graph, drop_top in ((petersen_graph(), True), (prism_graph(20), False)):
        def eigsh_missing_trivial(a, k, **kwargs):
            w, vecs = np.linalg.eigh(a.toarray())
            keep = np.r_[0:k] if drop_top else np.r_[1:k, len(w) - 1]
            return w[keep], vecs[:, keep]

        monkeypatch.setattr(spectra.spla, "eigsh", eigsh_missing_trivial)
        with pytest.raises(ConvergenceError):
            ramanujan_check(graph, 2, method="iterative")


def test_solver_parameter_errors():
    a = adjacency(cycle_graph(6))
    with pytest.raises(InvalidParameterError):
        extreme_eigenvalues(a, 5, "iterative")  # k >= n - 1
    with pytest.raises(InvalidParameterError):
        extreme_eigenvalues(a, 1, "magic")
    for how_many in (0, 7):
        with pytest.raises(InvalidParameterError):
            extreme_eigenvalues(a, how_many, "dense")
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
    res = extreme_eigenvalues(a, 3, "iterative")
    assert res.method == "iterative"
    assert max(res.residuals) <= 1e-10 * 6
    assert res.values[-1] == pytest.approx(6.0, abs=1e-9)  # trivial, q+1
    assert max(abs(v) for v in res.values[:-1]) <= 2 * math.sqrt(5) + RAMANUJAN_TOL
