"""Adjacency spectra of constructed graphs and the Ramanujan verdict.

The adjacency matrix counts directed edges, so a geometric loop contributes
2 to its diagonal entry and every row sums to the vertex degree; this is the
convention under which a (q+1)-regular graph has trivial eigenvalue q+1
(and -(q+1) exactly when bipartite).  ramanujan_check has one verdict path.
Up to DENSE_THRESHOLD vertices a dense solve takes the whole spectrum, and
its two trivial ends are checked and dropped.  Above it, a plain three-term
Lanczos recurrence runs on each block: A itself or, given the orbits of a
swap (an involution of the vertices with no fixed point that is an
automorphism, checked before any solve), its two halves, A on the
swap-even and on the swap-odd vectors.  They are half-size symmetric
matrices with one row per orbit, in the order the orbits are given, whose
spectra together are A's (the standard symmetry-adapted reduction).  A
block is solved on the complement of its trivial eigenvectors: the
all-ones vector and, when bipartite, the +-1 colouring, each in the block
of its swap parity and checked to satisfy A x = lambda x exactly.  No
basis is stored; a second pass replays the recurrence to form the two
extreme Ritz vectors, whose residuals must lie within RESIDUAL_RTOL *
||A||, so a non-converged solve never masquerades as a verdict.  A step
allocates nothing: three vectors rotate, and the CSR kernel that a @ v
runs adds A v into a buffer prefilled with -beta v_prev.  The inner
products are einsum reductions, not BLAS calls, so the Ritz values are
the same at any BLAS thread count and no BLAS thread is woken.  A second
block runs on one worker thread while the first runs on the caller's; the
kernels release the GIL, which is what lets two threads pay, and the
merged result is the sequential one.

Both methods share one tail.  A nontrivial end within the residual bound of
+-(q+1) raises, and q+1 (simple by Perron-Frobenius, the graph being
connected) and -(q+1) come from the theorem, not from the solve.  What is
certified is the residual of each returned pair, which puts a true
eigenvalue within it of the Ritz value, not that the values are extreme.
"""

import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse._sparsetools import csr_matvec

from .errors import InvalidParameterError, VerificationError
from .multigraph import SerreGraph, index_dtype

DENSE_THRESHOLD = 4096
RAMANUJAN_TOL = 1e-8
RESIDUAL_RTOL = 1e-10
LANCZOS_MAX_STEPS = 20000
_CHECK_EVERY = 20
# V-vectors the solve holds beyond the CSR adjacency: about seven for Lanczos
# and up to four trivial vectors.  At (5,13) level 2 tracemalloc measured,
# beyond the matrices' CSR arrays, 8.2 for the solve of A and 7.3 for both
# swap halves at once (a half's vectors are half as long), trivial vectors
# included, and 9.3 and 7.8 with the construction of the matrices.
_SOLVE_VECTORS = 16


def adjacency(g: SerreGraph) -> sp.csr_matrix:
    """Symmetric nonnegative integer matrix; A[u, v] = #directed edges u -> v,
    in canonical CSR form (sorted columns, no duplicates), built from a copy
    of the rows of g.csr(): sum_duplicates compacts them in place, and on a
    tower level they are its table."""
    n, (indptr, ends, _) = g.num_vertices, g.csr()
    a = sp.csr_matrix((np.ones(g.num_edges), ends.copy(), indptr), shape=(n, n))
    a.sum_duplicates()
    return a


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


def _dense_values(a) -> np.ndarray:
    return np.linalg.eigvalsh(a.toarray())


def solve_bytes(n_vertices: int, n_edges: int, looped: bool) -> int:
    """Peak bytes ramanujan_check holds for a graph of this size, with a
    loop or without: the larger of the component count and the solve (the
    dense matrix, or _SOLVE_VECTORS V-vectors plus the CSR adjacency).  A
    graph with a loop counts the components of its V vertices; one without
    also those of its 2V-vertex double cover, which costs more (bipartition
    returns None on a loop before it counts).  A count of c*V vertices holds
    per directed edge the pattern's float64 entries and its float64 CSR
    transpose, and on the double cover the shifted end ids: (c - 1)*width +
    20 bytes by tracemalloc on a graph in origin order, counted as c*width +
    20; and per vertex a label and two indptr entries."""
    width = np.dtype(index_dtype(max(2 * n_vertices, n_edges))).itemsize
    copies = 1 if looped else 2
    counts = (copies * width + 20) * n_edges + copies * (4 + 2 * width) * n_vertices
    if n_vertices <= DENSE_THRESHOLD:
        return max(counts, 8 * n_vertices * n_vertices)
    vectors = 8 * _SOLVE_VECTORS * n_vertices
    return max(counts, vectors + (8 + width) * n_edges + width * (n_vertices + 1))


class _Reductions:
    """In-place vector kernels on one scratch buffer.  Inner products are
    einsum reductions, never BLAS calls, so their rounding does not depend
    on the BLAS thread count and no BLAS threads are woken."""

    def __init__(self, n: int):
        self.tmp = np.empty(n)

    def dot(self, x, y) -> float:
        return float(np.einsum("i,i->", x, y))

    def axpy(self, y, c: float, x):
        """y += c * x."""
        np.add(y, np.multiply(x, c, out=self.tmp), out=y)

    def project(self, x, units):
        """Remove from x its components along the unit vectors."""
        for u in units:
            self.axpy(x, -self.dot(x, u), u)


def _matvec_add(a, x, y):
    """y += a @ x in place, by the kernel a @ x itself runs.  a must be a
    square float64 CSR matrix and x, y contiguous float64 vectors of its
    size: the kernel checks none of it."""
    n = a.shape[0]
    csr_matvec(n, n, a.indptr, a.indices, a.data, x, y)


def _lanczos(a, trivial, ops: _Reductions, cancel, coefficients=None):
    """Yield (v_j, alpha_j, beta_j), j = 1, 2, ..., of the three-term
    Lanczos recurrence A v_j = beta_{j-1} v_{j-1} + alpha_j v_j + beta_j v_{j+1}
    from the deterministic start, on the orthogonal complement of the unit
    vectors in trivial; every new vector is projected against them again.
    A step runs in Paige's order (C. C. Paige, J. Inst. Maths Applics 10,
    1972): w = A v_j - beta_{j-1} v_{j-1}, alpha_j = w.v_j, w -= alpha_j v_j,
    beta_j = ||w||.  a is a float64 CSR matrix.  Given the (alphas, betas) of an earlier run,
    it replays that run and takes them instead of the two inner products, so
    its vectors are bitwise the earlier run's.  Once the threading.Event
    cancel is set, the next step raises VerificationError.  v_j is only valid
    until the next step, which overwrites it."""
    v = _deterministic_start(a.shape[0])
    ops.project(v, trivial)
    v /= math.sqrt(ops.dot(v, v))
    v_prev, w, beta = np.zeros_like(v), np.empty_like(v), 0.0
    for j in itertools.count():
        if cancel.is_set():
            raise VerificationError("the solve was cancelled")
        np.multiply(v_prev, -beta, out=w)
        _matvec_add(a, v, w)
        alpha = ops.dot(w, v) if coefficients is None else coefficients[0][j]
        ops.axpy(w, -alpha, v)
        ops.project(w, trivial)
        beta = math.sqrt(ops.dot(w, w)) if coefficients is None else coefficients[1][j]
        yield v, alpha, beta
        w /= beta
        v_prev, v, w = v, w, v_prev


def _ritz_ends(alphas, betas):
    """(value, eigenvector) of the bottom and top eigenpairs of the
    tridiagonal matrix with diagonal alphas and off-diagonal betas[:-1]."""
    d, e = np.array(alphas), np.array(betas[:-1])
    ends = []
    for i in (0, len(d) - 1):
        w, s = eigh_tridiagonal(d, e, select="i", select_range=(i, i))
        ends.append((float(w[0]), s[:, 0]))
    return ends


def nontrivial_ends(a, trivial, norm, cancel) -> EigenResult:
    """Bottom and top eigenvalues of a on the orthogonal complement of the
    orthonormal vectors in trivial, which must be eigenvectors of a.  norm
    bounds ||A|| and scales the tolerances.

    The first pass runs the Lanczos recurrence and, every _CHECK_EVERY
    steps, stops once both extreme Ritz pairs of the tridiagonal matrix have
    residual estimate beta_m |s_m| <= 0.1 * RESIDUAL_RTOL * ||A||; reaching
    LANCZOS_MAX_STEPS raises VerificationError.  The second pass replays the
    recurrence with the first pass's coefficients to form the two Ritz
    vectors, each of which must have ||Av - lambda v|| <= RESIDUAL_RTOL *
    ||A|| and be orthogonal to trivial within RESIDUAL_RTOL, or
    VerificationError is raised.  That certifies a true eigenvalue within the
    residual of each value, not that the values are the extreme ones.
    Setting the threading.Event cancel ends the solve with VerificationError
    at its next Lanczos step.
    """
    a = sp.csr_matrix(a, dtype=np.float64)  # the matvec kernel's input; no copy of one
    n = a.shape[0]
    if a.shape != (n, n):
        raise InvalidParameterError(f"matrix of shape {a.shape} is not square")
    if n <= len(trivial):
        raise InvalidParameterError(
            f"no nontrivial spectrum: {n} vertices, {len(trivial)} trivial eigenvectors")
    stop = 0.1 * RESIDUAL_RTOL * norm
    ops = _Reductions(n)
    alphas, betas = [], []
    for _, alpha, beta in _lanczos(a, trivial, ops, cancel):
        alphas.append(alpha)
        betas.append(beta)
        m = len(alphas)
        if beta <= stop or m % _CHECK_EVERY == 0 or m >= LANCZOS_MAX_STEPS:
            ends = _ritz_ends(alphas, betas)
            if all(beta * abs(s[-1]) <= stop for _, s in ends):
                break
            if m >= LANCZOS_MAX_STEPS:
                estimates = ", ".join(f"{beta * abs(s[-1]):.3e}" for _, s in ends)
                raise VerificationError(f"Lanczos did not converge in {m} steps: residual "
                                        f"estimates [{estimates}] exceed {stop:.3e}")

    ritz = [np.zeros(n) for _ in ends]
    for j, (v, _, _) in zip(range(m), _lanczos(a, trivial, ops, cancel, (alphas, betas))):
        for y, (_, s) in zip(ritz, ends):
            ops.axpy(y, float(s[j]), v)
    residuals = []
    for y, (lam, _) in zip(ritz, ends):
        y /= math.sqrt(ops.dot(y, y))
        r = np.multiply(y, -lam, out=ops.tmp)
        _matvec_add(a, y, r)
        res = math.sqrt(ops.dot(r, r))
        if not res <= RESIDUAL_RTOL * norm:
            raise VerificationError(
                f"residual {res:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||A|| = "
                f"{RESIDUAL_RTOL * norm:.3e} for eigenvalue {lam}")
        overlap = max((abs(ops.dot(y, u)) for u in trivial), default=0.0)
        if not overlap <= RESIDUAL_RTOL:
            raise VerificationError(
                f"Ritz vector of {lam} overlaps a trivial eigenvector by {overlap:.3e}")
        residuals.append(res)
    return EigenResult(tuple(lam for lam, _ in ends), tuple(residuals), "iterative",
                       m, 2 * m + len(ends))


def _checked_orbits(g: SerreGraph, orbits) -> np.ndarray:
    """orbits as an (h, 2) id array, after checking that its rows hold every
    vertex exactly once and that the swap exchanging each row's two vertices
    maps the edges onto the edges with multiplicity: on the regular g, that
    the sorted neighbour row of swap[v] is swap of the row of v.  Else
    InvalidParameterError."""
    n = g.num_vertices
    o = np.asarray(orbits)
    if o.ndim != 2 or o.shape[1] != 2 or o.dtype.kind not in "iu":
        raise InvalidParameterError("orbits must be an integer array of (representative, "
                                    "partner) rows")
    if o.size and (o.min() < 0 or o.max() >= n):
        raise InvalidParameterError(f"orbits name a vertex out of range [0, {n})")
    o = o.astype(index_dtype(n), copy=False)
    hits = np.flatnonzero(np.bincount(o.ravel(), minlength=n) != 1)
    if len(hits):
        v = hits[0]
        raise InvalidParameterError(
            f"orbits hold vertex {v} {np.count_nonzero(o == v)} times, not once")
    swap = np.empty(n, dtype=o.dtype)
    swap[o[:, 0]], swap[o[:, 1]] = o[:, 1], o[:, 0]
    rows = np.sort(g.csr()[1].reshape(n, -1), axis=1)
    if not np.array_equal(rows[swap], np.sort(swap[rows], axis=1)):
        raise InvalidParameterError("orbits are not those of an automorphism: their swap "
                                    "does not map the edges onto the edges with multiplicity")
    return o


def _swap_halves(g: SerreGraph, orbits):
    """(even, odd): the adjacency on the swap-even and the swap-odd vectors,
    as half-size matrices whose row i is the checked orbit (r, s) =
    orbits[i].  Even entry (i, j) counts the edges from r_i to r_j or s_j;
    the odd entry counts those to r_j less those to s_j.  Each is A in the
    orthonormal basis (e_r +- e_s) / sqrt(2), which is symmetric because
    the swap is an automorphism."""
    reps, partners = orbits.T
    n, h = g.num_vertices, len(orbits)
    row = np.empty(n, dtype=orbits.dtype)
    row[reps] = row[partners] = np.arange(h, dtype=orbits.dtype)
    sign = np.full(n, -1.0)
    sign[reps] = 1.0
    t = g.csr()[1].reshape(n, -1)[reps]  # the edges leaving a representative
    d, size = t.shape[1], t.size
    idx = index_dtype(size)
    signs = sign[t].reshape(-1)
    columns = row[t].reshape(-1).astype(idx, copy=False)
    del t
    # Row i lists the column of every edge leaving r_i, repeats included;
    # sum_duplicates sorts and sums each row in place into canonical CSR.
    # That compaction overwrites indices and indptr, so each half owns its own.
    indptr = np.arange(0, size + 1, d, dtype=idx)
    even = sp.csr_matrix((np.ones(size), columns, indptr), shape=(h, h))
    odd = sp.csr_matrix((signs, columns.copy(), indptr.copy()), shape=(h, h))
    for half in (even, odd):
        half.sum_duplicates()
    odd.eliminate_zeros()
    return even, odd


def _blocks(g: SerreGraph, q: int, sides, orbits) -> list:
    """The iterative solve's blocks, each (matrix, [(eigenvalue, +-1 vector)]):
    A alone, or given checked orbits its swap halves (_swap_halves).  The
    trivial vectors, all ones for q+1 and the colouring sides for -(q+1), go
    to the half of their swap parity (an automorphism keeps or exchanges
    the sides of a connected graph), restricted to the representatives."""
    # the halves first, so the V-vectors below miss their construction peak
    halves = None if orbits is None else _swap_halves(g, orbits)
    pairs = [(q + 1, np.ones(g.num_vertices))]
    if sides is not None:
        pairs.append((-(q + 1), np.where(sides, 1.0, -1.0)))
    if halves is None:
        return [(adjacency(g), pairs)]
    reps, partners = orbits.T
    blocks = [(half, []) for half in halves]
    for lam, x in pairs:
        blocks[not np.array_equal(x[partners], x[reps])][1].append((lam, x[reps]))
    return blocks


def _trivial_vectors(op, pairs) -> list:
    """The unit vectors x / sqrt(len(x)) of the (eigenvalue, +-1 vector x)
    pairs, after checking op x == eigenvalue * x exactly for each, else
    VerificationError."""
    vecs = []
    for lam, x in pairs:
        if not np.array_equal(op @ x, lam * x):
            raise VerificationError(f"a trivial vector is not an eigenvector of {lam}")
        vecs.append(x / math.sqrt(len(x)))
    return vecs


def _solve_blocks(blocks, norm) -> EigenResult:
    """nontrivial_ends on each block of _blocks, merged in block order: the
    least bottom, the greatest top, every residual, summed steps and matvecs.
    The first block runs here and any other on one worker thread, which one
    block never starts.  The worker is joined before this returns or raises,
    and the first block's error comes out first, as in a sequential solve;
    that error, an interrupt included, cancels the others at their next
    step, so the join does not wait for a whole solve."""
    cancel = threading.Event()

    def solve(op, pairs):
        return nontrivial_ends(op, _trivial_vectors(op, pairs), norm, cancel)

    first, *rest = blocks
    with ThreadPoolExecutor(max_workers=1) as worker:
        others = [worker.submit(solve, *block) for block in rest]
        try:
            eigs = [solve(*first)]
        except BaseException:
            cancel.set()
            raise
        eigs += [other.result() for other in others]
    return EigenResult((min(e.values[0] for e in eigs), max(e.values[-1] for e in eigs)),
                       tuple(r for e in eigs for r in e.residuals), "iterative",
                       sum(e.steps for e in eigs), sum(e.matvecs for e in eigs))


def ramanujan_check(g: SerreGraph, method="auto", orbits=None) -> SpectralReport:
    """Verdict: every nontrivial eigenvalue satisfies |lambda| <= 2*sqrt(q).

    Requires a connected regular graph of at least one vertex, whose degree
    q+1 must be at least 2; q is read from it.  The dense method checks that
    its spectrum ends within RESIDUAL_RTOL * ||A|| of the trivial values and
    drops them; the iterative one merges the ends of its blocks (_blocks,
    _solve_blocks).  Then one tail: a nontrivial end within that slack of
    +-(q+1) raises VerificationError, and the report takes q+1, simple, on
    top and -(q+1) at the bottom of a bipartite graph.  With no nontrivial
    eigenvalue, max|nontrivial| is 0 (dense) or the solve is refused
    (iterative).  orbits, an (h, 2) integer array, gives the orbits of a
    swap of the vertices, one (representative, partner) row each in the row
    order of the swap halves; before any solve its rows are checked to hold
    every vertex exactly once and to be the orbits of an automorphism, else
    InvalidParameterError.  Only the iterative method solves on the swap
    halves.
    """
    if not g.num_vertices:
        raise InvalidParameterError("graph has no vertices")
    degrees = g.degrees()
    if degrees.min() != degrees.max():
        raise InvalidParameterError(
            f"graph is not regular (degrees {np.unique(degrees).tolist()})")
    q = int(degrees[0]) - 1
    if q < 1:
        raise InvalidParameterError(f"graph has degree {q + 1}; the verdict needs degree >= 2")
    if orbits is not None:
        orbits = _checked_orbits(g, orbits)
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

    if method == "dense":  # the whole spectrum, ascending; residuals are zero
        vals = _dense_values(adjacency(g))
        eig = EigenResult(tuple(vals), (0.0,) * n, "dense", 0, 0)
        if abs(vals[-1] - (q + 1)) > slack or (bip and abs(vals[0] + (q + 1)) > slack):
            raise VerificationError(
                f"solve missed a trivial eigenvalue: ends {vals[0]!r}, {vals[-1]!r} "
                f"for q+1 = {q + 1}{' (bipartite)' if bip else ''}"
            )
        nontrivial = vals[bip:-1]
    elif method == "iterative":
        eig = _solve_blocks(_blocks(g, q, sides, orbits), q + 1)
        nontrivial = eig.values
    else:
        raise InvalidParameterError(f"unknown method={method!r}")
    max_abs = max((abs(v) for v in nontrivial), default=0.0)
    if max_abs >= q + 1 - slack:
        raise VerificationError(
            f"a trivial eigenvalue leaked into the nontrivial ends {nontrivial[0]!r}, "
            f"{nontrivial[-1]!r} for q+1 = {q + 1}{' (bipartite)' if bip else ''}"
        )

    return SpectralReport(
        q=q,
        lambda_top=float(q + 1),
        lambda_top_multiplicity=1,
        # the bottom of the whole spectrum; q+1 when it has nothing else
        lambda_bottom=-float(q + 1) if bip else float(min(nontrivial, default=q + 1)),
        max_abs_nontrivial=float(max_abs),
        bipartite=bip,
        ramanujan_bound=bound,
        ramanujan=bool(max_abs <= bound + RAMANUJAN_TOL),
        method=eig.method,
        max_residual=float(max(eig.residuals)),
        lanczos_steps=eig.steps,
        matvecs=eig.matvecs,
    )

