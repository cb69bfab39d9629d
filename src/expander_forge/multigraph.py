"""Serre-style multigraphs and covering-map verification.

A graph is a set of directed edges with origin/terminus maps and a
fixed-point-free involution e -> inv(e) pairing each directed edge with its
reverse; loops and parallel edges are first-class.  The edge maps are numpy
integer arrays (int32 while every id fits, int64 beyond) and are validated
vectorized.  Girth follows the convention under which a loop is a closed
path of length 1 and a parallel pair one of length 2, and a path may never
traverse inv(e) immediately after e.  Connectivity and bipartiteness are
component counts by scipy's csgraph, and the component labels of the
bipartite double cover give the 2-colouring; girth and the covering check are
pure-Python traversals that work on one list copy of the arrays they read,
never on numpy scalars.
"""

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


def _id_array(values):
    """values as an integer array, not narrowed.  Python ints outside int64
    become -1, which lies outside every id range, so validation reports them
    as out of range instead of overflowing."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        lo, hi = -(2**63), 2**63
        return np.fromiter((v if lo <= v < hi else -1 for v in values),
                           dtype=np.int64, count=len(values))


def _label_array(values):
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise GraphConstructionError("edge labels must fit in 64 bits") from None


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
                      else _label_array(label))
        self.meta = dict(meta) if meta else {}
        self._links = None
        self._components = None
        if validate:
            self._validate()
        ids = index_dtype(max(self.num_vertices, len(self.origin)))
        self.origin = self.origin.astype(ids, copy=False)
        self.terminus = self.terminus.astype(ids, copy=False)
        self.inv = self.inv.astype(ids, copy=False)

    def _validate(self):
        ne = len(self.origin)
        if not (len(self.terminus) == len(self.inv) == len(self.label) == ne):
            raise GraphConstructionError("edge arrays have mismatched lengths")
        if ne % 2:
            raise GraphConstructionError("directed edge count must be even")
        for start in range(0, ne, _VALIDATE_CHUNK):
            bad = np.flatnonzero(self._bad_edges(start, min(start + _VALIDATE_CHUNK, ne)))
            if len(bad):
                raise GraphConstructionError(self._edge_error(start + int(bad[0])))

    def _bad_edges(self, start, stop):
        """Mask over edges start..stop-1 of those failing any edge check."""
        nv, ne = self.num_vertices, len(self.origin)
        o, t, iv = self.origin[start:stop], self.terminus[start:stop], self.inv[start:stop]
        e = np.arange(start, stop)
        bad = (o < 0) | (o >= nv) | (t < 0) | (t >= nv)
        inv_out = (iv < 0) | (iv >= ne)
        bad |= inv_out
        bad |= iv == e
        eb = np.where(inv_out, 0, iv)
        bad |= self.inv[eb] != e
        bad |= self.origin[eb] != t
        bad |= self.terminus[eb] != o
        return bad

    def _edge_error(self, e):
        """The message for the first check that edge e fails."""
        nv, ne = self.num_vertices, len(self.origin)
        o, t, eb = int(self.origin[e]), int(self.terminus[e]), int(self.inv[e])
        if not (0 <= o < nv and 0 <= t < nv):
            return f"edge {e} has endpoint out of range"
        if not 0 <= eb < ne:
            return f"edge {e} has inverse id out of range"
        if eb == e:
            return (f"involution fixed point at edge {e} ({o} -> {t}): a generator acting "
                    "as its own inverse on this vertex is not representable")
        if self.inv[eb] != e:
            return f"involution not involutive at edge {e}"
        return f"involution does not reverse edge {e}"

    @classmethod
    def from_geometric_edges(cls, num_vertices, geom_edges, labels=None):
        """Build from undirected edges (u, v); loops u == v are allowed."""
        origin, terminus, inv, lab = [], [], [], []
        for i, (u, v) in enumerate(geom_edges):
            e = 2 * i
            origin += [u, v]
            terminus += [v, u]
            inv += [e + 1, e]
            gl = labels[i] if labels is not None else -1
            lab += [gl, gl]
        return cls(num_vertices, origin, terminus, inv, lab)

    @property
    def num_edges(self) -> int:
        """Number of directed edges (twice the geometric edge count)."""
        return len(self.origin)

    def links(self):
        """Adjacency index: links()[v] lists the edge ids with origin v."""
        if self._links is None:
            order = np.argsort(self.origin, kind="stable").tolist()
            ends = np.cumsum(np.bincount(self.origin, minlength=self.num_vertices)).tolist()
            links, start = [], 0
            for end in ends:
                links.append(order[start:end])
                start = end
            self._links = links
        return self._links

    def link(self, v: int):
        """All directed edges originating at v; its size is the degree of v."""
        return self.links()[v]

    def degrees(self):
        return np.bincount(self.origin, minlength=self.num_vertices).tolist()

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
        components exactly when it is bipartite (a loop joins a vertex to its
        copy, so any loop gives None); then v and its copy lie in different
        components, and the side of v is whether its component's label is
        below its copy's."""
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
        src, tgt = self.source, self.target
        if len(self.vertex_map) != src.num_vertices or len(self.edge_map) != src.num_edges:
            raise InvalidMorphismError("map lengths do not match the source graph")
        vm, em = _as_list(self.vertex_map), _as_list(self.edge_map)
        for v in vm:
            if not 0 <= v < tgt.num_vertices:
                raise InvalidMorphismError("vertex map image out of range")
        s_o, s_t, s_i = src.origin.tolist(), src.terminus.tolist(), src.inv.tolist()
        t_o, t_t, t_i = tgt.origin.tolist(), tgt.terminus.tolist(), tgt.inv.tolist()
        for e in range(src.num_edges):
            fe = em[e]
            if not 0 <= fe < tgt.num_edges:
                raise InvalidMorphismError("edge map image out of range")
            if t_o[fe] != vm[s_o[e]] or t_t[fe] != vm[s_t[e]]:
                raise InvalidMorphismError(f"edge {e} does not commute with origin/terminus")
            if em[s_i[e]] != t_i[fe]:
                raise InvalidMorphismError(f"edge {e} does not commute with the involution")


def _as_list(values):
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


@dataclass(frozen=True)
class CoveringCheck:
    """Verdict of a covering-map verification, with a witness on failure."""

    ok: bool
    witness: int = -1
    reason: str = ""


def is_covering(f: GraphMorphism) -> CoveringCheck:
    """Whether f is surjective on vertices and bijective on every vertex link.

    Raises InvalidMorphismError if f is not a morphism; otherwise returns a
    verdict carrying a witness vertex when some link map fails to be
    bijective (or some target vertex is missed).
    """
    f.validate()
    src, tgt = f.source, f.target
    vm, em = _as_list(f.vertex_map), _as_list(f.edge_map)
    hit = [False] * tgt.num_vertices
    for v in vm:
        hit[v] = True
    for v, h in enumerate(hit):
        if not h:
            return CoveringCheck(False, v, "vertex map is not surjective")
    for v in range(src.num_vertices):
        image = sorted(em[e] for e in src.link(v))
        if image != sorted(tgt.link(vm[v])):
            return CoveringCheck(False, v, "link map is not bijective")
    return CoveringCheck(True)
