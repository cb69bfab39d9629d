import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from expander_forge.cli import _dot_pieces, _edge_list, _edge_list_graph
from expander_forge.multigraph import SerreGraph

settings.register_profile("default", deadline=None)
settings.load_profile("default")


def from_geometric_edges(num_vertices, geom_edges, labels=None) -> SerreGraph:
    """The graph of undirected edges (u, v); loops u == v are allowed.
    Geometric edge i gives directed edges 2i (u -> v) and 2i+1."""
    ends = np.array(geom_edges, dtype=np.int64).reshape(-1, 2)
    lab = [-1] * len(ends) if labels is None else labels
    return SerreGraph(num_vertices, ends.ravel(), ends[:, ::-1].ravel(),
                      np.arange(2 * len(ends)) ^ 1, [x for x in lab for _ in (0, 1)])


def parse_edgelist(text: str) -> SerreGraph:
    """The graph of an edge list's text, read by the library's byte reader."""
    return _edge_list_graph(*_edge_list(text.encode()))


def format_dot(g: SerreGraph) -> str:
    """The DOT text of g, joined from the pieces the export streams."""
    return "".join(_dot_pieces(g))


def traced_peak(fn, *args):
    """(fn(*args), peak): the call's result and the peak of the memory
    tracemalloc traced during it, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def covering_morphism(upper, lower, vertex_map):
    """(source, target, vertex map, edge map), the arguments of is_covering,
    from built level upper onto lower for a covering's vertex map, with the
    label-preserving edge map it implies: edge e goes to
    vertex_map[e // d] * d + e % d."""
    d = upper.degree
    edge_map = (np.asarray(vertex_map)[:, None] * d + np.arange(d)).reshape(-1)
    return upper.graph, lower.graph, vertex_map, edge_map


def cycle_graph(n: int) -> SerreGraph:
    return from_geometric_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> SerreGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return from_geometric_edges(n, edges)


def path_graph(n: int) -> SerreGraph:
    return from_geometric_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> SerreGraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return from_geometric_edges(10, edges)


def prism_graph(n: int) -> SerreGraph:
    """The circular ladder C_n x K_2 (3-regular, 2n vertices)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return from_geometric_edges(2 * n, edges)


def loop_graph() -> SerreGraph:
    return from_geometric_edges(1, [(0, 0)])


def wedge_two_loops() -> SerreGraph:
    return from_geometric_edges(1, [(0, 0), (0, 0)])


def parallel_pair() -> SerreGraph:
    return from_geometric_edges(2, [(0, 1), (0, 1)])


def theta_graph() -> SerreGraph:
    return from_geometric_edges(2, [(0, 1), (0, 1), (0, 1)])


def lollipop_graph() -> SerreGraph:
    """Path 0-1-2-3 with a loop at 3; shortest cycle is the loop."""
    return from_geometric_edges(4, [(0, 1), (1, 2), (2, 3), (3, 3)])


def binary_tree(depth: int) -> SerreGraph:
    edges = []
    n = 2 ** (depth + 1) - 1
    for v in range(1, n):
        edges.append(((v - 1) // 2, v))
    return from_geometric_edges(n, edges)


def small_girth_fixtures():
    """(name, graph, expected girth) for every <= 12-vertex fixture."""
    return [
        ("loop", loop_graph(), 1),
        ("wedge2", wedge_two_loops(), 1),
        ("lollipop", lollipop_graph(), 1),
        ("parallel", parallel_pair(), 2),
        ("theta", theta_graph(), 2),
        ("c3", cycle_graph(3), 3),
        ("c4", cycle_graph(4), 4),
        ("c5", cycle_graph(5), 5),
        ("c6", cycle_graph(6), 6),
        ("k4", complete_graph(4), 3),
        ("petersen", petersen_graph(), 5),
        ("path4", path_graph(4), math.inf),
        ("tree", binary_tree(2), math.inf),
    ]


@st.composite
def random_multigraphs(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 10))
    edges = [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)]
    return from_geometric_edges(n, edges)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def c3():
    return cycle_graph(3)
