"""Serre-style multigraphs and covering-map verification.

A graph is a set of directed edges with origin/terminus maps and a
fixed-point-free involution e -> inv(e) pairing each directed edge with its
reverse; loops and parallel edges are first-class.  A graph read from a file
holds its edge maps as four numpy integer arrays (int32 while every id fits,
int64 beyond).  A tower level holds only its V x d transition table and the
generator pairing, from which the edge maps of any chunk of edge ids follow;
its readers take those chunks or the table's rows, and no edge-length id
array besides the table is stored.  Girth counts a loop as a closed path of
length 1 and a parallel pair as one of length 2, and a path may never
traverse inv(e) right after e; it is a breadth-first search over the edges
in origin order, a batch of sources at a time.  Connectivity and
bipartiteness are component counts by scipy's csgraph on a CSR pattern of
the termini in origin order, which on a tower level is its table.  Graph
validation and the covering check, morphism axioms included, are array
identities, scanned a chunk at a time for the first failing id, so their
messages and witnesses are those of a check run one edge or vertex at a
time.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import InvalidParameterError

__all__ = ["SerreGraph", "CoveringCheck", "girth", "is_covering", "index_dtype"]

_INT32_IDS = 2**31
# ids checked at a time: a check's scratch, about 30 bytes an id on four
# arrays and 50 on a table, stays within a chunk whatever the graph's size
_VALIDATE_CHUNK = 1 << 15
# ids counted at a time by _origin_counts, whose bincount of an unsorted
# chunk spans every vertex, so its chunks are larger
_COUNT_CHUNK = 1 << 20
_GIRTH_CELLS = 1 << 18


def index_dtype(count: int):
    """Integer dtype for ids below count: int32 while they fit, else int64."""
    return np.int32 if count < _INT32_IDS else np.int64


def _first_failure(count: int, checks):
    """(i, message): the least id i below count that fails a check, and the
    message of the first check it fails; (-1, "") when all pass.
    checks(start, stop) lists (boolean mask over ids start..stop-1, message)
    per check, in order, and is asked for _VALIDATE_CHUNK ids at a time."""
    for start in range(0, count, _VALIDATE_CHUNK):
        checked = checks(start, min(start + _VALIDATE_CHUNK, count))
        hits = np.flatnonzero(functools.reduce(np.logical_or, [m for m, _ in checked]))
        if len(hits):
            i = int(hits[0])
            return start + i, next(message for m, message in checked if m[i])
    return -1, ""


def _origin_counts(origin, n: int) -> np.ndarray:
    """np.bincount(origin, minlength=n), counted _COUNT_CHUNK ids at a time
    from each chunk's least id, so the int64 copy that bincount makes of an
    int32 array stays one chunk long."""
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, len(origin), _COUNT_CHUNK):
        chunk = origin[start:start + _COUNT_CHUNK]
        low = int(chunk.min())
        part = np.bincount(chunk - low)
        counts[low:low + len(part)] += part
    return counts


def _id_array(values, labels=False):
    """values as an integer array, not narrowed.  Python ints outside int64
    become -1, which lies outside every id range, so validation reports them
    as out of range instead of overflowing; as labels they are an error."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        if labels:
            raise InvalidParameterError("edge labels must fit in 64 bits") from None
        lo, hi = -(2**63), 2**63
        return np.fromiter((v if lo <= v < hi else -1 for v in values),
                           dtype=np.int64, count=len(values))


class SerreGraph:
    """Immutable multigraph given by parallel numpy edge arrays, or by a
    transition table.

    origin[e], terminus[e], label[e], inv[e] describe directed edge e; the
    involution must satisfy inv(e) != e, inv(inv(e)) == e, and reverse the
    endpoints.  A graph built by from_table holds only its V x d table and
    the generator pairing: edge e = v*d + i leaves v with label i, ends at
    table[v, i] and reverses to table[v, i]*d + pairing[i].  Its terminus is
    a view of the table, and its origin, label and inv are computed on each
    access, never stored; the readers below derive them a chunk at a time
    (edges) or read the table's rows.  meta carries construction parameters
    for exports.
    """

    __slots__ = ("num_vertices", "table", "pairing", "_origin", "_terminus", "_label", "_inv",
                 "meta", "_components")

    def __init__(self, num_vertices, origin, terminus, inv, label=None, meta=None):
        self.num_vertices = int(num_vertices)
        self.table = self.pairing = None
        self._origin = _id_array(origin)
        self._terminus = _id_array(terminus)
        self._inv = _id_array(inv)
        self._label = (np.full(len(self._origin), -1, dtype=np.int32) if label is None
                       else _id_array(label, labels=True))
        self.meta = dict(meta) if meta else {}
        self._components = None
        ne = len(self._origin)
        if not (len(self._terminus) == len(self._inv) == len(self._label) == ne):
            raise InvalidParameterError("edge arrays have mismatched lengths")
        self._check()
        ids = index_dtype(max(self.num_vertices, ne))
        self._origin, self._terminus, self._inv = (
            a.astype(ids, copy=False) for a in (self._origin, self._terminus, self._inv))

    @classmethod
    def from_table(cls, table, pairing, meta=None):
        """The graph whose edge v*d + i runs from v to table[v, i] with label
        i and reverses to table[v, i]*d + pairing[i], for a (V, d) integer
        table and a pairing of its d labels.  It is checked on the four
        arrays this derives, a chunk at a time, so a corrupt entry fails as
        they would: the checks gather table[table[v, i], pairing[i]] once."""
        g = cls.__new__(cls)
        table = np.asarray(table)
        if table.ndim != 2 or table.dtype.kind != "i":
            raise InvalidParameterError("a transition table must be a 2-D integer array")
        nv, d = table.shape
        ids = index_dtype(max(nv, table.size))
        pairing = np.asarray(pairing)
        if pairing.shape != (d,) or pairing.dtype.kind != "i":
            raise InvalidParameterError(f"a generator pairing must be {d} integer labels")
        g.num_vertices, g.table, g.pairing = nv, table, pairing.astype(ids)
        g._origin = g._terminus = g._label = g._inv = None
        g.meta = dict(meta) if meta else {}
        g._components = None
        g._check()
        g.table = table.astype(ids, copy=False)
        return g

    def _check(self):
        """Raise InvalidParameterError for the first edge that fails _edge_checks."""
        if self.num_edges % 2:
            raise InvalidParameterError("directed edge count must be even")
        e, message = _first_failure(self.num_edges, self._edge_checks)
        if e >= 0:
            o, t, _ = self.edges(slice(e, e + 1))
            raise InvalidParameterError(message.format(e=e, o=o[0], t=t[0]))

    def _edge_checks(self, start, stop):
        """The checks of edges start..stop-1 for _first_failure."""
        nv, ne = self.num_vertices, self.num_edges
        o, t, iv = self.edges(slice(start, stop))
        e = np.arange(start, stop, dtype=index_dtype(ne))
        inv_out = (iv < 0) | (iv >= ne)
        back_o, back_t, back_iv = self.edges(np.where(inv_out, 0, iv))
        return [((o < 0) | (o >= nv) | (t < 0) | (t >= nv), "edge {e} has endpoint out of range"),
                (inv_out, "edge {e} has inverse id out of range"),
                (iv == e, "involution fixed point at edge {e} ({o} -> {t}): a generator acting "
                          "as its own inverse on this vertex is not representable"),
                (back_iv != e, "involution not involutive at edge {e}"),
                ((back_o != t) | (back_t != o), "involution does not reverse edge {e}")]

    @property
    def num_edges(self) -> int:
        """Number of directed edges (twice the geometric edge count)."""
        return len(self._origin) if self.table is None else self.table.size

    @property
    def origin(self) -> np.ndarray:
        if self.table is None:
            return self._origin
        nv, d = self.table.shape
        return np.repeat(np.arange(nv, dtype=self.table.dtype), d)

    @property
    def terminus(self) -> np.ndarray:
        return self._terminus if self.table is None else self.table.reshape(-1)

    @property
    def label(self) -> np.ndarray:
        if self.table is None:
            return self._label
        nv, d = self.table.shape
        return np.tile(np.arange(d, dtype=self.table.dtype), nv)

    @property
    def inv(self) -> np.ndarray:
        if self.table is None:
            return self._inv
        return (self.table * self.table.shape[1] + self.pairing).reshape(-1)

    def edges(self, ids):
        """(origin, terminus, inv) of the edges ids, a slice or an array of
        ids: slices or gathers of the arrays, or derived from the table."""
        if self.table is None:
            return self._origin[ids], self._terminus[ids], self._inv[ids]
        d, flat = self.table.shape[1], self.table.reshape(-1)
        if isinstance(ids, slice):
            terminus = flat[ids]
            ids = np.arange(*ids.indices(len(flat)), dtype=flat.dtype)
        else:
            terminus = np.take(flat, ids)
        origin, label = np.divmod(ids, d)
        return origin, terminus, terminus * d + np.take(self.pairing, label)

    def origin_order(self):
        """The edge ids sorted by origin, ties in id order, or None when the
        ids already are: on a table-backed graph, and on every file read
        back."""
        if self.table is not None or not np.any(self._origin[1:] < self._origin[:-1]):
            return None
        return np.argsort(self._origin, kind="stable").astype(self._origin.dtype)

    def neighbour_rows(self) -> np.ndarray:
        """The (V, d) termini of each vertex's edges in id order: the table,
        or the termini sorted by origin.  The graph must be d-regular."""
        if self.table is not None:
            return self.table
        order = self.origin_order()
        rows = self._terminus if order is None else self._terminus[order]
        return rows.reshape(self.num_vertices, -1)

    def degrees(self) -> np.ndarray:
        """The number of edges out of each vertex."""
        if self.table is not None:
            return np.full(self.num_vertices, self.table.shape[1], dtype=np.int64)
        return _origin_counts(self._origin, self.num_vertices)

    def _pattern(self, n: int, shift: int = 0):
        """The n x n CSR matrix with an entry at (origin[e], terminus[e] + shift)
        for every edge e, in float64, the dtype the component count converts
        its input to.  Its rows are the termini in origin order, which on a
        table-backed graph and on every file read back are the terminus
        array itself."""
        ne, order = self.num_edges, self.origin_order()
        ends = self.terminus if order is None else self.terminus[order]
        if shift:
            ends = np.add(ends, shift, dtype=index_dtype(max(n, ne)))
        indptr = np.full(n + 1, ne, dtype=ends.dtype)
        indptr[0] = 0
        indptr[1:self.num_vertices + 1] = np.cumsum(self.degrees())
        return sp.csr_matrix((np.ones(ne), ends, indptr), shape=(n, n))

    def _vertex_components(self) -> int:
        """Number of connected components, counted once and kept."""
        if self._components is None:
            self._components = connected_components(self._pattern(self.num_vertices),
                                                    directed=False)[0]
        return self._components

    def connected(self) -> bool:
        """Whether the graph has at most one component (the empty graph has none)."""
        return self._vertex_components() <= 1

    def bipartition(self):
        """A 2-colouring as a boolean side per vertex, or None when the graph
        is not bipartite.  The bipartite double cover, with an edge from v to
        the copy of w for every edge from v to w, has twice the graph's
        components exactly when it is bipartite; a loop joins a vertex to its
        copy, so any loop gives None before the count.  Then v and its copy
        lie in different components, and v's side is whether its component's
        label is below its copy's."""
        if self.geometric_loop_count():
            return None
        nv = self.num_vertices
        count, labels = connected_components(self._pattern(2 * nv, nv), directed=False)
        if count != 2 * self._vertex_components():
            return None
        return labels[:nv] < labels[nv:]

    def geometric_loop_count(self) -> int:
        if self.table is not None:
            at_home = self.table == np.arange(self.num_vertices, dtype=self.table.dtype)[:, None]
            return int(np.count_nonzero(at_home)) // 2
        return int(np.count_nonzero(self._origin == self._terminus)) // 2


def girth(g: SerreGraph):
    """Length of the shortest closed path without backtracking.

    1 for a loop, 2 for a parallel geometric pair, math.inf for forests.
    Otherwise a breadth-first search from every source s over the vertices
    above s (a shortest cycle runs through its least vertex and ones above
    it), from _GIRTH_CELLS // V sources at a time, never taking the reverse
    of the edge it arrived by.  In the round from distance d, an edge into a
    reached vertex closes a walk of length 2d + 1, and two edges into one
    unseen vertex close one of 2d + 2; the least over all sources is exact.
    """
    if g.geometric_loop_count():
        return 1
    nv, ids = g.num_vertices, g.terminus.dtype
    # the search runs on CSR positions: edges sorted by origin, each with its
    # terminus and the position of its reverse
    order = g.origin_order()
    terminus, reverse = g.terminus, g.inv
    if order is not None:
        position = np.empty_like(order)
        position[order] = np.arange(len(order), dtype=ids)
        terminus, reverse = terminus[order], position[reverse[order]]
    degree = g.degrees()
    stop = np.cumsum(degree)
    batch = max(1, _GIRTH_CELLS // max(nv, 1))
    best = math.inf
    for s0 in range(0, nv, batch):
        row = np.arange(min(batch, nv - s0), dtype=ids)
        vertex, back = s0 + row, np.full(len(row), -1, dtype=ids)
        # a source arrives by no edge, and is never entered again: only
        # vertices above it are
        dist = np.full(len(row) * nv, -1, dtype=np.int32)
        d = 0
        while len(row) and 2 * d + 1 < best:
            n = degree[vertex]
            ends = np.cumsum(n)
            e = (np.arange(ends[-1]) + np.repeat(stop[vertex] - ends, n)).astype(ids)
            row, back = np.repeat(row, n), np.repeat(back, n)
            w = terminus[e]
            keep = (e != back) & (w > s0 + row)
            e, cell = e[keep], row[keep] * nv + w[keep]
            # a reached vertex is at distance d: one at d - 1 would have
            # closed a walk of length 2d in the round before
            if (dist[cell] >= 0).any():
                best = 2 * d + 1
            if 2 * d + 2 >= best:
                break
            # a cell that does not read back its own entry's mark was reached twice
            mark = np.arange(-2, -2 - len(cell), -1, dtype=np.int32)
            dist[cell] = mark
            won = dist[cell] == mark
            if not won.all():
                best = 2 * d + 2
            e, cell = e[won], cell[won]
            d += 1
            dist[cell] = d
            row, vertex = np.divmod(cell, nv)
            back = reverse[e]
    return best


@dataclass(frozen=True)
class CoveringCheck:
    """Verdict of a covering-map verification, with a witness on failure."""

    ok: bool
    witness: int = -1
    reason: str = ""


def is_covering(source: SerreGraph, target: SerreGraph, vertex_map, edge_map) -> CoveringCheck:
    """Whether the maps are a morphism from source onto target, commuting
    with origin, terminus and the involution, that is surjective on vertices
    and bijective on every vertex link.

    A failed verdict names the first failure: map lengths that do not match
    the source (witness -1), a vertex image out of range (that vertex), an
    edge whose image is out of range or does not commute (its origin; the
    reason names the edge), the least target vertex missed, or else the
    least source vertex whose link map is not bijective."""
    if len(vertex_map) != source.num_vertices or len(edge_map) != source.num_edges:
        return CoveringCheck(False, -1, "map lengths do not match the source graph")
    vm, em = _id_array(vertex_map), _id_array(edge_map)
    v, message = _first_failure(len(vm), lambda a, b: [
        ((vm[a:b] < 0) | (vm[a:b] >= target.num_vertices), "vertex map image out of range")])
    if v >= 0:
        return CoveringCheck(False, v, message)
    if len(em) and not target.num_edges:
        return CoveringCheck(False, int(source.edges(slice(0, 1))[0][0]),
                             "edge map image out of range")

    def edge_checks(start, stop):
        # the gathers are np.take, which is faster than indexing here
        fe = em[start:stop]
        out = (fe < 0) | (fe >= target.num_edges)
        origin, terminus, inv = source.edges(slice(start, stop))
        t_origin, t_terminus, t_inv = target.edges(np.where(out, 0, fe).astype(np.intp))
        ends = ((t_origin != np.take(vm, origin)) | (t_terminus != np.take(vm, terminus)))
        return [(out, "edge map image out of range"),
                (ends, "edge {e} does not commute with origin/terminus"),
                (np.take(em, inv) != t_inv, "edge {e} does not commute with the involution")]

    e, message = _first_failure(len(em), edge_checks)
    if e >= 0:
        return CoveringCheck(False, int(source.edges(slice(e, e + 1))[0][0]), message.format(e=e))
    hit = np.zeros(target.num_vertices, dtype=bool)
    hit[vm] = True
    v, message = _first_failure(target.num_vertices,
                                lambda a, b: [(~hit[a:b], "vertex map is not surjective")])
    if v >= 0:
        return CoveringCheck(False, v, message)
    # A morphism maps the link of v into the link of vm[v], whose edges are
    # numbered from 0.  Give v a block of max(deg(v), deg(vm[v])) slots and
    # let each edge of v fill the slot its image's number names: v's link
    # maps bijectively exactly when its block is full.
    tdeg = target.degrees()
    order = target.origin_order()
    number = np.arange(target.num_edges) - np.repeat(np.cumsum(tdeg) - tdeg, tdeg)
    if order is not None:
        number[order] = number.copy()
    size = source.degrees()
    np.maximum(size, np.take(tdeg, vm), out=size)
    start = np.cumsum(size)
    start -= size
    filled = np.zeros(int(size.sum()), dtype=bool)
    for a in range(0, source.num_edges, _VALIDATE_CHUNK):
        chunk = slice(a, a + _VALIDATE_CHUNK)
        filled[np.take(start, source.edges(chunk)[0]) + np.take(number, em[chunk])] = True
    slot, message = _first_failure(len(filled),
                                   lambda a, b: [(~filled[a:b], "link map is not bijective")])
    if slot >= 0:
        return CoveringCheck(False, int(np.searchsorted(start, slot, side="right")) - 1, message)
    return CoveringCheck(True)
