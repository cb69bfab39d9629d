"""Adjacency spectra of constructed graphs and the Ramanujan verdict.

The adjacency matrix counts directed edges, so a geometric loop contributes
2 to its diagonal entry and every row sums to the vertex degree; this is the
convention under which a (q+1)-regular graph has trivial eigenvalue q+1
(and -(q+1) exactly when bipartite).  Graphs up to DENSE_THRESHOLD vertices
get a full dense solve; larger ones get one undeflated ARPACK solve
(Lanczos with implicit restarts) for a few eigenvalues at both ends of the
spectrum.  Every returned Ritz pair is re-verified against an explicit
residual bound, so a non-converged solve can never masquerade as a verdict.
The trivial eigenvalues are removed by value, after a check that the
returned ends lie within that bound of them.  What is certified is the
residual of each returned pair, which puts a true eigenvalue within it of
the Ritz value; that the returned values are the extreme ones is not.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, InvalidParameterError
from .multigraph import SerreGraph, index_dtype

DENSE_THRESHOLD = 4096
RAMANUJAN_TOL = 1e-8
RESIDUAL_RTOL = 1e-10
_MULT_TOL = 1e-6


def adjacency(g: SerreGraph) -> sp.csr_matrix:
    """Symmetric nonnegative integer matrix; A[u, v] = #directed edges u -> v."""
    data = np.ones(g.num_edges, dtype=np.float64)
    a = sp.coo_matrix(
        (data, (np.array(g.origin), np.array(g.terminus))),
        shape=(g.num_vertices, g.num_vertices),
    )
    return a.tocsr()


@dataclass(frozen=True)
class EigenResult:
    values: tuple
    residuals: tuple
    method: str


@dataclass(frozen=True)
class SpectralReport:
    """Extreme eigenvalues and the Ramanujan verdict for a (q+1)-regular graph."""

    q: int
    n_vertices: int
    lambda_top: float
    lambda_top_multiplicity: int
    lambda_bottom: float
    max_abs_nontrivial: float
    bipartite: bool
    ramanujan_bound: float
    ramanujan: bool
    method: str
    max_residual: float


def _deterministic_start(n: int) -> np.ndarray:
    # Fixed generic start vector so repeated runs are bit-reproducible.
    return np.cos(0.7 * np.arange(n)) + 0.1


def _norm_bound(a: sp.csr_matrix) -> float:
    # Max row sum bounds the spectral norm of a symmetric nonnegative matrix.
    return float(np.max(a.sum(axis=1)))


def _dense_values(a) -> np.ndarray:
    return np.linalg.eigvalsh(a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float))


def _krylov_dim(n: int, how_many: int) -> int:
    # A generous Krylov basis copes with the eigenvalue clustering at the
    # spectral edge.
    return min(n - 1, max(4 * how_many + 1, 80))


def solve_bytes(n_vertices: int, n_edges: int) -> int:
    """Bytes ramanujan_check's solve holds for a graph of this size: the
    dense matrix, or the ARPACK basis (for the largest k it asks, 6) plus
    the CSR adjacency with at most one entry per directed edge."""
    if n_vertices <= DENSE_THRESHOLD:
        return 8 * n_vertices * n_vertices
    width = np.dtype(index_dtype(max(n_vertices, n_edges))).itemsize
    basis = 8 * _krylov_dim(n_vertices, 6) * n_vertices
    return basis + (8 + width) * n_edges + width * (n_vertices + 1)


def extreme_eigenvalues(a, how_many, method="auto") -> EigenResult:
    """Eigenvalues at both ends of the spectrum, ascending, with residuals.

    how_many // 2 values come from the bottom and the rest from the top, as
    with ARPACK's 'BE' mode.  The dense path reports zero residuals.  The
    iterative path returns Ritz values, each with ||Av - lambda v|| checked
    against RESIDUAL_RTOL * ||A||; that certifies a true eigenvalue within
    the residual of each value, not that the values are the extreme ones.
    """
    n = a.shape[0]
    if not 1 <= how_many <= n:
        raise InvalidParameterError(f"how_many={how_many} is outside 1..{n}")
    if method == "auto":
        method = "dense" if n <= DENSE_THRESHOLD else "iterative"
    if method == "dense":
        asc = sorted(_dense_values(a))
        lo = how_many // 2
        picked = asc[:lo] + asc[len(asc) - (how_many - lo):]
        return EigenResult(tuple(picked), tuple(0.0 for _ in picked), "dense")
    if method != "iterative":
        raise InvalidParameterError(f"unknown method={method!r}")
    if how_many >= n - 1:
        raise InvalidParameterError("iterative solver needs how_many < n - 1")

    v0 = _deterministic_start(n)
    # The ARPACK tolerance sits an order below the residual contract, which
    # is re-verified explicitly below.
    ncv = _krylov_dim(n, how_many)
    try:
        # ARPACK returns the Ritz values in ascending order.
        vals, vecs = spla.eigsh(a, k=how_many, which="BE", v0=v0,
                                tol=0.1 * RESIDUAL_RTOL, ncv=ncv)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    bound = _norm_bound(a)
    residuals = []
    for lam, v in zip(vals, vecs.T):
        v = v / np.linalg.norm(v)
        res = float(np.linalg.norm(a @ v - lam * v))
        if not res <= RESIDUAL_RTOL * bound:
            raise ConvergenceError(
                f"residual {res:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||A|| = "
                f"{RESIDUAL_RTOL * bound:.3e} for eigenvalue {lam}"
            )
        residuals.append(res)
    return EigenResult(tuple(float(x) for x in vals), tuple(residuals), "iterative")


def ramanujan_check(g: SerreGraph, q: int, method="auto") -> SpectralReport:
    """Verdict: every nontrivial eigenvalue satisfies |lambda| <= 2*sqrt(q).

    Requires a connected (q+1)-regular graph.  Its trivial eigenvalues are
    q+1 (always, simple when connected) and -(q+1) (exactly when bipartite).
    The dense path takes the whole spectrum; the iterative path takes one
    undeflated both-ends solve for four nontrivial values plus the trivial
    ones.  The top value, and the bottom one when bipartite, must lie within
    the residual bound RESIDUAL_RTOL * ||A|| of its trivial eigenvalue, or
    ConvergenceError is raised; the trivial values are then removed by value
    and the verdict is taken over the rest.  An iterative verdict certifies
    the residuals of the returned Ritz pairs, not that they are the extreme
    eigenvalues.
    """
    if q < 1:
        raise InvalidParameterError(f"degree parameter q must be >= 1, got {q}")
    degs = set(g.degrees())
    if degs != {q + 1}:
        raise InvalidParameterError(f"graph is not {q + 1}-regular (degrees {sorted(degs)})")
    if not g.connected():
        raise InvalidParameterError("graph is not connected")
    bip = g.is_bipartite()
    a = adjacency(g)
    n = g.num_vertices
    bound = 2.0 * math.sqrt(q)
    if method == "auto":
        method = "dense" if n <= DENSE_THRESHOLD else "iterative"

    eig = extreme_eigenvalues(a, n if method == "dense" else 4 + 1 + bip, method)
    vals = list(eig.values)
    lam_top, lam_bottom = vals[-1], vals[0]
    mult = sum(1 for v in vals if abs(v - lam_top) < _MULT_TOL)
    # A certified residual puts a true eigenvalue within it of the Ritz
    # value, so this keeps the removal below from dropping a nontrivial one.
    slack = RESIDUAL_RTOL * _norm_bound(a)
    if abs(lam_top - (q + 1)) > slack or (bip and abs(lam_bottom + (q + 1)) > slack):
        raise ConvergenceError(
            f"solve missed a trivial eigenvalue: ends {lam_bottom!r}, {lam_top!r} "
            f"for q+1 = {q + 1}{' (bipartite)' if bip else ''}"
        )
    vals.remove(min(vals, key=lambda x: abs(x - (q + 1))))
    if bip:
        vals.remove(min(vals, key=lambda x: abs(x + (q + 1))))
    max_abs = max((abs(v) for v in vals), default=0.0)

    return SpectralReport(
        q=q,
        n_vertices=n,
        lambda_top=float(lam_top),
        lambda_top_multiplicity=mult,
        lambda_bottom=float(lam_bottom),
        max_abs_nontrivial=float(max_abs),
        bipartite=bip,
        ramanujan_bound=bound,
        ramanujan=bool(max_abs <= bound + RAMANUJAN_TOL),
        method=eig.method,
        max_residual=float(max(eig.residuals)),
    )


@dataclass(frozen=True)
class HistogramReport:
    counts: tuple
    bin_edges: tuple
    fraction_inside: float
    interval: tuple


def full_spectrum_histogram(a, q: int, bins: int = 32) -> HistogramReport:
    """Full spectrum binned over [-(q+1), q+1], with the fraction of
    eigenvalues inside the interval [-2*sqrt(q), 2*sqrt(q)]."""
    n = a.shape[0]
    if n > DENSE_THRESHOLD:
        raise InvalidParameterError(
            f"histogram needs a dense solve; {n} > {DENSE_THRESHOLD} vertices"
        )
    vals = _dense_values(a)
    bound = 2.0 * math.sqrt(q)
    inside = np.abs(vals) <= bound + RAMANUJAN_TOL
    # Eigenvalues lie in [-(q+1), q+1] exactly; clip off floating-point noise
    # so boundary values stay in the outer bins.
    clipped = np.clip(vals, -(q + 1.0), q + 1.0)
    counts, edges = np.histogram(clipped, bins=bins, range=(-(q + 1.0), q + 1.0))
    return HistogramReport(
        counts=tuple(int(c) for c in counts),
        bin_edges=tuple(float(e) for e in edges),
        fraction_inside=float(np.mean(inside)),
        interval=(-bound, bound),
    )
