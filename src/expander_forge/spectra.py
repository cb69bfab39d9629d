"""Adjacency spectra of constructed graphs and the Ramanujan verdict.

The adjacency matrix counts directed edges, so a geometric loop contributes
2 to its diagonal entry and every row sums to the vertex degree; this is the
convention under which a (q+1)-regular graph has trivial eigenvalue q+1
(and -(q+1) exactly when bipartite).  Graphs up to DENSE_THRESHOLD vertices
get a full dense solve.  Larger ones get a plain three-term Lanczos
recurrence on the orthogonal complement of the known trivial eigenvectors:
1/sqrt(V), and the +-1 bipartition vector when bipartite, which is checked
to satisfy A s = -(q+1) s exactly.  No Lanczos basis is stored; a second
pass replays the recurrence to form the two extreme Ritz vectors, whose
explicit residuals are verified against RESIDUAL_RTOL * ||A||, so a
non-converged solve can never masquerade as a verdict.  The inner products
are numpy reductions rather than BLAS calls, so the Ritz values are the same
at any BLAS thread count.  The top eigenvalue q+1 is simple by
Perron-Frobenius, since the graph is connected; it and -(q+1) come from the
theorem, not from the solve.  What is certified is the residual of each
returned pair, which puts a true eigenvalue within it of the Ritz value;
that the returned values are the extreme ones is not.

A caller that knows a swap of the graph, a fixed-point-free involution of
the vertices that is an automorphism (checked here before any solve), gets
the iterative solve on its two halves: the adjacency restricted to the
swap-even and to the swap-odd vectors, two half-size symmetric matrices on
one representative per orbit whose spectra together are A's (the standard
symmetry-adapted reduction).  Each half runs the solve above; a locality key
orders their rows, so a row's neighbours lie in few blocks.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, InvalidParameterError
from .multigraph import SerreGraph, index_dtype

DENSE_THRESHOLD = 4096
RAMANUJAN_TOL = 1e-8
RESIDUAL_RTOL = 1e-10
LANCZOS_MAX_STEPS = 20000
_CHECK_EVERY = 20
_MULT_TOL = 1e-6
# V-vectors the solve holds beyond the CSR adjacency: about seven for Lanczos
# and up to four trivial vectors; tracemalloc measured 8.1-9.2 at level 2.
_SOLVE_VECTORS = 16


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
    steps: int
    matvecs: int


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
    lanczos_steps: int
    matvecs: int


def _deterministic_start(n: int) -> np.ndarray:
    # Fixed generic start vector so repeated runs are bit-reproducible.
    return np.cos(0.7 * np.arange(n)) + 0.1


def _norm_bound(a: sp.csr_matrix) -> float:
    # The max absolute row sum bounds the spectral norm of a symmetric matrix.
    return float(np.max(abs(a).sum(axis=1)))


def _dense_values(a) -> np.ndarray:
    return np.linalg.eigvalsh(a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float))


def solve_bytes(n_vertices: int, n_edges: int) -> int:
    """Peak bytes ramanujan_check holds for a graph of this size: the larger
    of the double-cover component count (per directed edge, its end ids, a
    boolean pattern and two float64 CSR copies, 3*width + 17 bytes by
    tracemalloc, counted as 3*width + 20; per cover vertex a label and two
    indptr entries) and the solve (the dense matrix, or _SOLVE_VECTORS
    V-vectors plus the CSR adjacency)."""
    width = np.dtype(index_dtype(max(2 * n_vertices, n_edges))).itemsize
    counts = (3 * width + 20) * n_edges + 2 * (4 + 2 * width) * n_vertices
    if n_vertices <= DENSE_THRESHOLD:
        return max(counts, 8 * n_vertices * n_vertices)
    vectors = 8 * _SOLVE_VECTORS * n_vertices
    return max(counts, vectors + (8 + width) * n_edges + width * (n_vertices + 1))


def extreme_eigenvalues(a, how_many) -> EigenResult:
    """how_many eigenvalues at both ends of the spectrum, ascending, from a
    dense solve: how_many // 2 from the bottom and the rest from the top.
    The residuals are reported as zero."""
    n = a.shape[0]
    if not 1 <= how_many <= n:
        raise InvalidParameterError(f"how_many={how_many} is outside 1..{n}")
    asc = sorted(_dense_values(a))
    lo = how_many // 2
    picked = asc[:lo] + asc[len(asc) - (how_many - lo):]
    return EigenResult(tuple(picked), tuple(0.0 for _ in picked), "dense", 0, 0)


class _Reductions:
    """In-place vector kernels on one scratch buffer.  Inner products are
    numpy sums, never BLAS calls, so their rounding does not depend on the
    BLAS thread count and no BLAS threads are woken."""

    def __init__(self, n: int):
        self.tmp = np.empty(n)

    def dot(self, x, y) -> float:
        return float(np.multiply(x, y, out=self.tmp).sum())

    def axpy(self, y, c: float, x):
        """y += c * x."""
        np.add(y, np.multiply(x, c, out=self.tmp), out=y)

    def project(self, x, units):
        """Remove from x its components along the unit vectors."""
        for u in units:
            self.axpy(x, -self.dot(x, u), u)


def _lanczos(a, trivial, ops: _Reductions, coefficients=None):
    """Yield (v_j, alpha_j, beta_j), j = 1, 2, ..., of the three-term
    Lanczos recurrence A v_j = beta_{j-1} v_{j-1} + alpha_j v_j + beta_j v_{j+1}
    from the deterministic start, on the orthogonal complement of the unit
    vectors in trivial; every new vector is projected against them again.
    Given the (alphas, betas) of an earlier run, it replays that run and
    takes them instead of the two inner products, so its vectors are bitwise
    the earlier run's.  v_j is only valid until the next step, which divides
    by beta_j."""
    v = _deterministic_start(a.shape[0])
    ops.project(v, trivial)
    v /= math.sqrt(ops.dot(v, v))
    v_prev, beta = np.zeros_like(v), 0.0
    for j in itertools.count():
        w = a @ v
        ops.axpy(w, -beta, v_prev)
        alpha = ops.dot(w, v) if coefficients is None else coefficients[0][j]
        ops.axpy(w, -alpha, v)
        ops.project(w, trivial)
        beta = math.sqrt(ops.dot(w, w)) if coefficients is None else coefficients[1][j]
        yield v, alpha, beta
        w /= beta
        v_prev, v = v, w


def _ritz_ends(alphas, betas):
    """(value, eigenvector) of the bottom and top eigenpairs of the
    tridiagonal matrix with diagonal alphas and off-diagonal betas[:-1]."""
    d, e = np.array(alphas), np.array(betas[:-1])
    ends = []
    for i in (0, len(d) - 1):
        w, s = eigh_tridiagonal(d, e, select="i", select_range=(i, i))
        ends.append((float(w[0]), s[:, 0]))
    return ends


def nontrivial_ends(a, trivial, norm=None) -> EigenResult:
    """Bottom and top eigenvalues of a on the orthogonal complement of the
    orthonormal vectors in trivial, which must be eigenvectors of a.  norm
    bounds ||A|| and scales the tolerances; by default the max absolute row
    sum.

    The first pass runs the Lanczos recurrence and, every _CHECK_EVERY
    steps, stops once both extreme Ritz pairs of the tridiagonal matrix have
    residual estimate beta_m |s_m| <= 0.1 * RESIDUAL_RTOL * ||A||; reaching
    LANCZOS_MAX_STEPS raises ConvergenceError.  The second pass replays the
    recurrence with the first pass's coefficients to form the two Ritz
    vectors, each of which must have ||Av - lambda v|| <= RESIDUAL_RTOL *
    ||A|| and be orthogonal to trivial within RESIDUAL_RTOL, or
    ConvergenceError is raised.  That certifies a true eigenvalue within the
    residual of each value, not that the values are the extreme ones.
    """
    n = a.shape[0]
    if n <= len(trivial):
        raise InvalidParameterError(
            f"no nontrivial spectrum: {n} vertices, {len(trivial)} trivial eigenvectors")
    if norm is None:
        norm = _norm_bound(a)
    stop = 0.1 * RESIDUAL_RTOL * norm
    ops = _Reductions(n)
    alphas, betas = [], []
    for _, alpha, beta in _lanczos(a, trivial, ops):
        alphas.append(alpha)
        betas.append(beta)
        m = len(alphas)
        if beta <= stop or m % _CHECK_EVERY == 0 or m >= LANCZOS_MAX_STEPS:
            ends = _ritz_ends(alphas, betas)
            if all(beta * abs(s[-1]) <= stop for _, s in ends):
                break
            if m >= LANCZOS_MAX_STEPS:
                raise ConvergenceError(
                    f"Lanczos did not converge in {m} steps: residual estimates "
                    f"{[beta * abs(s[-1]) for _, s in ends]} exceed {stop:.3e}")

    ritz = [np.zeros(n) for _ in ends]
    for j, (v, _, _) in zip(range(m), _lanczos(a, trivial, ops, (alphas, betas))):
        for y, (_, s) in zip(ritz, ends):
            ops.axpy(y, float(s[j]), v)
    residuals = []
    for y, (lam, _) in zip(ritz, ends):
        y /= math.sqrt(ops.dot(y, y))
        r = a @ y
        ops.axpy(r, -lam, y)
        res = math.sqrt(ops.dot(r, r))
        if not res <= RESIDUAL_RTOL * norm:
            raise ConvergenceError(
                f"residual {res:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||A|| = "
                f"{RESIDUAL_RTOL * norm:.3e} for eigenvalue {lam}")
        overlap = max((abs(ops.dot(y, u)) for u in trivial), default=0.0)
        if not overlap <= RESIDUAL_RTOL:
            raise ConvergenceError(
                f"Ritz vector of {lam} overlaps a trivial eigenvector by {overlap:.3e}")
        residuals.append(res)
    return EigenResult(tuple(lam for lam, _ in ends), tuple(residuals), "iterative",
                       m, 2 * m + len(ends))


def _sorted_pairs(n: int, u, v) -> np.ndarray:
    """The codes u[i]*n + v[i], sorted: the multiset of the pairs."""
    codes = np.multiply(u, n, dtype=np.int64)
    codes += v
    codes.sort()
    return codes


def _checked_swap(g: SerreGraph, swap) -> np.ndarray:
    """swap as an id array, after checking on the graph's edge arrays that
    it is a fixed-point-free involution of the vertices mapping the edges
    onto the edges with multiplicity; else InvalidParameterError."""
    n = g.num_vertices
    s = np.asarray(swap)
    if s.shape != (n,) or s.dtype.kind not in "iu":
        raise InvalidParameterError(f"swap must be an integer array of {n} vertex ids")
    if n and (s.min() < 0 or s.max() >= n):
        raise InvalidParameterError("swap maps a vertex out of range")
    s = s.astype(index_dtype(n), copy=False)
    ids = np.arange(n, dtype=s.dtype)
    for bad, what in ((s == ids, "fixes"), (s[s] != ids, "is not an involution at")):
        hits = np.flatnonzero(bad)
        if len(hits):
            raise InvalidParameterError(f"swap {what} vertex {hits[0]}")
    if not np.array_equal(_sorted_pairs(n, g.origin, g.terminus),
                          _sorted_pairs(n, s[g.origin], s[g.terminus])):
        raise InvalidParameterError("swap is not an automorphism: it does not map the "
                                    "edges onto the edges with multiplicity")
    return s


def _swap_halves(g: SerreGraph, swap, locality=None):
    """(reps, even, odd): the adjacency on the swap-even and the swap-odd
    vectors, as half-size matrices on the representatives reps, the lesser
    vertex of each orbit {v, swap[v]}, in order of locality (ties by id).
    Even entry (i, j) counts the edges from reps[i] to reps[j] or its swap;
    the odd entry counts those to reps[j] less those to its swap.  Each is
    A in the orthonormal basis (e_r +- e_swap(r)) / sqrt(2), which is
    symmetric because swap is an automorphism; swap must be checked."""
    n = g.num_vertices
    reps = np.flatnonzero(np.arange(n) < swap)
    if locality is not None:
        key = np.asarray(locality)
        if key.shape != (n,):
            raise InvalidParameterError(f"locality must give one key to each of {n} vertices")
        reps = reps[np.argsort(key[reps], kind="stable")]
    h = len(reps)
    row = np.empty(n, dtype=swap.dtype)
    row[reps] = row[swap[reps]] = np.arange(h, dtype=swap.dtype)
    sign = np.full(n, -1.0)
    sign[reps] = 1.0
    out = sign[g.origin] > 0  # the edges leaving a representative
    i, t = row[g.origin[out]], g.terminus[out]
    j = row[t]
    even = sp.csr_matrix((np.ones(len(j)), (i, j)), shape=(h, h))
    odd = sp.csr_matrix((sign[t], (i, j)), shape=(h, h))
    odd.eliminate_zeros()
    return reps, even, odd


def _trivial_vectors(a, q: int, sides, ones=True) -> list:
    """Unit eigenvectors of the trivial eigenvalues: 1/sqrt(V) for q+1
    (unless not ones) and, when the graph is bipartite (sides is its
    colouring), the +-1 colouring over sqrt(V) for -(q+1), after checking
    A s = -(q+1) s exactly."""
    n = a.shape[0]
    vecs = [np.full(n, 1.0 / math.sqrt(n))] if ones else []
    if sides is not None:
        s = np.where(sides, 1.0, -1.0)
        if not np.array_equal(a @ s, -(q + 1) * s):
            raise ConvergenceError(f"the bipartition is not an eigenvector of -(q+1) = {-(q + 1)}")
        vecs.append(s / math.sqrt(n))
    return vecs


def _halves_ends(g: SerreGraph, q: int, swap, locality, sides) -> EigenResult:
    """nontrivial_ends on each swap half (_swap_halves), merged: the lesser
    bottom, the greater top, every residual, and the summed steps and
    matvecs.  1/sqrt(V) is even; the bipartition vector goes in the half its
    parity under swap names, where _trivial_vectors checks it exactly."""
    reps, even, odd = _swap_halves(g, swap, locality)
    half_sides = [None, None]
    if sides is not None:
        half_sides[not np.array_equal(sides[swap], sides)] = sides[reps]
    eigs = [nontrivial_ends(op, _trivial_vectors(op, q, s, ones=op is even), norm=q + 1)
            for op, s in zip((even, odd), half_sides)]
    return EigenResult((min(e.values[0] for e in eigs), max(e.values[-1] for e in eigs)),
                       tuple(r for e in eigs for r in e.residuals), "iterative",
                       sum(e.steps for e in eigs), sum(e.matvecs for e in eigs))


def ramanujan_check(g: SerreGraph, q: int, method="auto", swap=None,
                    locality=None) -> SpectralReport:
    """Verdict: every nontrivial eigenvalue satisfies |lambda| <= 2*sqrt(q).

    Requires a connected (q+1)-regular graph.  Its trivial eigenvalues are
    q+1 (always, simple by Perron-Frobenius since it is connected) and
    -(q+1) (exactly when bipartite).  The dense path takes the whole
    spectrum, checks that its ends lie within RESIDUAL_RTOL * ||A|| of the
    trivial values, and removes them by value.  The iterative path solves on
    the complement of the trivial eigenvectors (nontrivial_ends) and raises
    ConvergenceError if either nontrivial end lies within that slack of
    +-(q+1), so a leaked trivial eigenvalue never reaches the verdict.  An
    iterative verdict certifies the residuals of the two Ritz pairs, not
    that they are the extreme eigenvalues.

    swap, a vertex permutation, is checked to be a fixed-point-free
    involution and an automorphism before any solve, else
    InvalidParameterError.  The iterative path then solves on its two halves,
    rows in order of locality (one sortable key per vertex), and reports
    their merged ends, residuals and counts; the dense path is unchanged.
    """
    if q < 1:
        raise InvalidParameterError(f"degree parameter q must be >= 1, got {q}")
    degs = set(g.degrees())
    if degs != {q + 1}:
        raise InvalidParameterError(f"graph is not {q + 1}-regular (degrees {sorted(degs)})")
    if swap is not None:
        swap = _checked_swap(g, swap)
    if not g.connected():
        raise InvalidParameterError("graph is not connected")
    sides = g.bipartition()
    bip = sides is not None
    n = g.num_vertices
    bound = 2.0 * math.sqrt(q)
    if method == "auto":
        method = "dense" if n <= DENSE_THRESHOLD else "iterative"
    # A certified residual puts a true eigenvalue within it of the Ritz
    # value, so this slack keeps a nontrivial value from being taken for a
    # trivial one; ||A|| is at most the degree q+1.
    slack = RESIDUAL_RTOL * (q + 1)

    if method == "dense":
        eig = extreme_eigenvalues(adjacency(g), n)
        vals = list(eig.values)
        lam_top, lam_bottom = vals[-1], vals[0]
        mult = sum(1 for v in vals if abs(v - lam_top) < _MULT_TOL)
        if abs(lam_top - (q + 1)) > slack or (bip and abs(lam_bottom + (q + 1)) > slack):
            raise ConvergenceError(
                f"solve missed a trivial eigenvalue: ends {lam_bottom!r}, {lam_top!r} "
                f"for q+1 = {q + 1}{' (bipartite)' if bip else ''}"
            )
        vals.remove(min(vals, key=lambda x: abs(x - (q + 1))))
        if bip:
            vals.remove(min(vals, key=lambda x: abs(x + (q + 1))))
        max_abs = max((abs(v) for v in vals), default=0.0)
    elif method == "iterative":
        if swap is None:
            a = adjacency(g)
            eig = nontrivial_ends(a, _trivial_vectors(a, q, sides), norm=q + 1)
        else:
            eig = _halves_ends(g, q, swap, locality, sides)
        lo, hi = eig.values
        if hi >= q + 1 - slack or lo <= -(q + 1) + slack:
            raise ConvergenceError(
                f"a trivial eigenvalue leaked into the nontrivial ends {lo!r}, {hi!r} "
                f"for q+1 = {q + 1}{' (bipartite)' if bip else ''}"
            )
        lam_top, mult = float(q + 1), 1
        lam_bottom = -float(q + 1) if bip else lo
        max_abs = max(abs(lo), abs(hi))
    else:
        raise InvalidParameterError(f"unknown method={method!r}")

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
        lanczos_steps=eig.steps,
        matvecs=eig.matvecs,
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
