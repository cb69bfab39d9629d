"""Serre-style multigraphs and covering-map verification.

A graph is a set of directed edges with origin/terminus maps and a
fixed-point-free involution e -> inv(e) pairing each directed edge with its
reverse; loops and parallel edges are first-class.  The edge maps are numpy
integer arrays (int32 while every id fits, int64 beyond).  Girth counts a
loop as a closed path of length 1 and a parallel pair as one of length 2,
and a path may never traverse inv(e) right after e; it is a pure-Python
traversal over one list copy of the arrays it reads.  Connectivity and
bipartiteness are component counts by scipy's csgraph.  Graph validation
and the morphism and covering checks are array identities, scanned a chunk
at a time for the first failing id, so their messages and witnesses are
those of a check run one edge or vertex at a time.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import GraphConstructionError, InvalidMorphismError

__all__ = ["SerreGraph", "GraphMorphism", "CoveringCheck", "girth", "is_covering",
           "index_dtype"]

_INT32_IDS = 2**31
_VALIDATE_CHUNK = 1 << 20


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
    """np.bincount(origin, minlength=n), counted _VALIDATE_CHUNK ids at a
    time from each chunk's least id, so the int64 copy that bincount makes
    of an int32 array stays one chunk long."""
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, len(origin), _VALIDATE_CHUNK):
        chunk = origin[start:start + _VALIDATE_CHUNK]
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
            raise GraphConstructionError("edge labels must fit in 64 bits") from None
        lo, hi = -(2**63), 2**63
        return np.fromiter((v if lo <= v < hi else -1 for v in values),
                           dtype=np.int64, count=len(values))


class SerreGraph:
    """Immutable multigraph given by parallel numpy edge arrays.

    origin[e], terminus[e], label[e], inv[e] describe directed edge e; the
    involution must satisfy inv(e) != e, inv(inv(e)) == e, and reverse the
    endpoints.  meta carries construction parameters for exports.
    """

    __slots__ = ("num_vertices", "origin", "terminus", "label", "inv", "meta", "_links",
                 "_components")

    def __init__(self, num_vertices, origin, terminus, inv, label=None,
                 meta=None, validate=True):
        self.num_vertices = int(num_vertices)
        self.origin = _id_array(origin)
        self.terminus = _id_array(terminus)
        self.inv = _id_array(inv)
        self.label = (np.full(len(self.origin), -1, dtype=np.int32) if label is None
                      else _id_array(label, labels=True))
        self.meta = dict(meta) if meta else {}
        self._links = None
        self._components = None
        if validate:
            self._validate()
        ids = index_dtype(max(self.num_vertices, len(self.origin)))
        self.origin, self.terminus, self.inv = (
            a.astype(ids, copy=False) for a in (self.origin, self.terminus, self.inv))

    def _validate(self):
        ne = len(self.origin)
        if not (len(self.terminus) == len(self.inv) == len(self.label) == ne):
            raise GraphConstructionError("edge arrays have mismatched lengths")
        if ne % 2:
            raise GraphConstructionError("directed edge count must be even")
        e, message = _first_failure(ne, self._edge_checks)
        if e >= 0:
            raise GraphConstructionError(
                message.format(e=e, o=self.origin[e], t=self.terminus[e]))

    def _edge_checks(self, start, stop):
        """The checks of edges start..stop-1 for _first_failure."""
        nv, ne = self.num_vertices, len(self.origin)
        o, t, iv = self.origin[start:stop], self.terminus[start:stop], self.inv[start:stop]
        e = np.arange(start, stop)
        inv_out = (iv < 0) | (iv >= ne)
        eb = np.where(inv_out, 0, iv)
        return [((o < 0) | (o >= nv) | (t < 0) | (t >= nv), "edge {e} has endpoint out of range"),
                (inv_out, "edge {e} has inverse id out of range"),
                (iv == e, "involution fixed point at edge {e} ({o} -> {t}): a generator acting "
                          "as its own inverse on this vertex is not representable"),
                (self.inv[eb] != e, "involution not involutive at edge {e}"),
                ((self.origin[eb] != t) | (self.terminus[eb] != o),
                 "involution does not reverse edge {e}")]

    @classmethod
    def from_geometric_edges(cls, num_vertices, geom_edges, labels=None):
        """Build from undirected edges (u, v); loops u == v are allowed.
        Geometric edge i gives directed edges 2i (u -> v) and 2i+1."""
        ends = np.array(geom_edges, dtype=np.int64).reshape(-1, 2)
        lab = [-1] * len(ends) if labels is None else labels
        return cls(num_vertices, ends.ravel(), ends[:, ::-1].ravel(),
                   np.arange(2 * len(ends)) ^ 1, [x for x in lab for _ in (0, 1)])

    @property
    def num_edges(self) -> int:
        """Number of directed edges (twice the geometric edge count)."""
        return len(self.origin)

    def links(self):
        """Adjacency index: links()[v] lists the edge ids with origin v."""
        if self._links is None:
            order = np.argsort(self.origin, kind="stable").tolist()
            ends = np.cumsum(_origin_counts(self.origin, self.num_vertices)).tolist()
            self._links = [order[a:b] for a, b in zip([0] + ends, ends)]
        return self._links

    def degrees(self):
        return _origin_counts(self.origin, self.num_vertices).tolist()

    def _vertex_components(self) -> int:
        """Number of connected components, counted once and kept."""
        if self._components is None:
            self._components = _component_count(self.num_vertices, self.origin,
                                                self.terminus)[0]
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
        copies = np.add(self.terminus, nv, dtype=index_dtype(2 * nv))
        count, labels = _component_count(2 * nv, self.origin, copies)
        if count != 2 * self._vertex_components():
            return None
        return labels[:nv] < labels[nv:]

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None

    def geometric_loop_count(self) -> int:
        return int(np.count_nonzero(self.origin == self.terminus)) // 2


def _component_count(n: int, u, v):
    """(count, labels) of the connected components of the undirected graph
    on vertices 0..n-1 with an edge between u[i] and v[i] for every i."""
    pattern = sp.coo_matrix((np.ones(len(u), dtype=bool), (u, v)), shape=(n, n))
    return connected_components(pattern, directed=False)


def girth(g: SerreGraph):
    """Length of the shortest closed path without backtracking.

    1 for a loop, 2 for a parallel geometric pair, math.inf for forests.
    Otherwise BFS from every vertex, tracking parent *edges* so parallel
    edges are handled correctly; each non-tree edge (u, v) closes a walk of
    length dist(u) + dist(v) + 1, and the minimum over all sources is exact.
    """
    origin, terminus = g.origin, g.terminus
    if np.any(origin == terminus):
        return 1
    forward = np.arange(g.num_edges) < g.inv
    lo, hi = np.sort(np.stack([origin[forward], terminus[forward]]).astype(np.int64), axis=0)
    pairs = lo * g.num_vertices + hi
    if len(np.unique(pairs)) < len(pairs):
        return 2
    best = math.inf
    links = g.links()
    terminus, inv = terminus.tolist(), g.inv.tolist()
    nv = g.num_vertices
    dist = [-1] * nv
    parent = [-1] * nv
    for s in range(nv):
        touched = [s]
        dist[s] = 0
        parent[s] = -1
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            du = dist[u]
            if 2 * du >= best:
                break
            skip = inv[parent[u]] if parent[u] >= 0 else -1
            for e in links[u]:
                if e == skip:
                    continue
                w = terminus[e]
                if dist[w] < 0:
                    dist[w] = du + 1
                    parent[w] = e
                    queue.append(w)
                    touched.append(w)
                else:
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
        for v in touched:
            dist[v] = -1
    return best


@dataclass(frozen=True)
class GraphMorphism:
    """Vertex and edge maps between Serre graphs, commuting with o, t, inv."""

    source: SerreGraph
    target: SerreGraph
    vertex_map: tuple
    edge_map: tuple

    def validate(self):
        """The maps as integer arrays.  Raises InvalidMorphismError unless
        both are in range and commute with origin, terminus and the
        involution; the message names the first failing edge, and the error
        carries its origin."""
        src, tgt = self.source, self.target
        if len(self.vertex_map) != src.num_vertices or len(self.edge_map) != src.num_edges:
            raise InvalidMorphismError("map lengths do not match the source graph")
        vm, em = _id_array(self.vertex_map), _id_array(self.edge_map)
        v, message = _first_failure(len(vm), lambda a, b: [
            ((vm[a:b] < 0) | (vm[a:b] >= tgt.num_vertices), "vertex map image out of range")])
        if v >= 0:
            raise InvalidMorphismError(message, v)
        if len(em) and not tgt.num_edges:
            raise InvalidMorphismError("edge map image out of range", int(src.origin[0]))
        e, message = _first_failure(len(em), lambda a, b: self._edge_checks(vm, em, a, b))
        if e >= 0:
            raise InvalidMorphismError(message.format(e=e), int(src.origin[e]))
        return vm, em

    def _edge_checks(self, vm, em, start, stop):
        """The checks of source edges start..stop-1 for _first_failure.  The
        gathers are np.take, which is faster than indexing here."""
        src, tgt = self.source, self.target
        fe = em[start:stop]
        out = (fe < 0) | (fe >= tgt.num_edges)
        fb = np.where(out, 0, fe).astype(np.intp)
        ends = ((np.take(tgt.origin, fb) != np.take(vm, src.origin[start:stop]))
                | (np.take(tgt.terminus, fb) != np.take(vm, src.terminus[start:stop])))
        return [(out, "edge map image out of range"),
                (ends, "edge {e} does not commute with origin/terminus"),
                (np.take(em, src.inv[start:stop]) != np.take(tgt.inv, fb),
                 "edge {e} does not commute with the involution")]


@dataclass(frozen=True)
class CoveringCheck:
    """Verdict of a covering-map verification, with a witness on failure."""

    ok: bool
    witness: int = -1
    reason: str = ""


def is_covering(f: GraphMorphism) -> CoveringCheck:
    """Whether f is surjective on vertices and bijective on every vertex link.

    Raises InvalidMorphismError if f is not a morphism; otherwise the verdict
    names the least target vertex missed or else the least source vertex
    whose link map is not bijective."""
    vm, em = f.validate()
    src, tgt = f.source, f.target
    hit = np.zeros(tgt.num_vertices, dtype=bool)
    hit[vm] = True
    v, message = _first_failure(tgt.num_vertices,
                                lambda a, b: [(~hit[a:b], "vertex map is not surjective")])
    if v >= 0:
        return CoveringCheck(False, v, message)
    # A morphism maps the link of v into the link of vm[v], whose edges are
    # numbered from 0.  Give v a block of max(deg(v), deg(vm[v])) slots and
    # let each edge of v fill the slot its image's number names: v's link
    # maps bijectively exactly when its block is full.
    tdeg = _origin_counts(tgt.origin, tgt.num_vertices)
    number = np.empty(tgt.num_edges, dtype=np.int64)
    number[np.argsort(tgt.origin, kind="stable")] = (
        np.arange(tgt.num_edges) - np.repeat(np.cumsum(tdeg) - tdeg, tdeg))
    size = _origin_counts(src.origin, src.num_vertices)
    np.maximum(size, np.take(tdeg, vm), out=size)
    start = np.cumsum(size)
    start -= size
    filled = np.zeros(int(size.sum()), dtype=bool)
    for a in range(0, src.num_edges, _VALIDATE_CHUNK):
        chunk = slice(a, a + _VALIDATE_CHUNK)
        filled[np.take(start, src.origin[chunk]) + np.take(number, em[chunk])] = True
    slot, message = _first_failure(len(filled),
                                   lambda a, b: [(~filled[a:b], "link map is not bijective")])
    if slot >= 0:
        return CoveringCheck(False, int(np.searchsorted(start, slot, side="right")) - 1, message)
    return CoveringCheck(True)
