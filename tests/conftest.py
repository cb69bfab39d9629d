import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from expander_forge.multigraph import SerreGraph

settings.register_profile("default", deadline=None)
settings.load_profile("default")


def cycle_graph(n: int) -> SerreGraph:
    return SerreGraph.from_geometric_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> SerreGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return SerreGraph.from_geometric_edges(n, edges)


def path_graph(n: int) -> SerreGraph:
    return SerreGraph.from_geometric_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> SerreGraph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return SerreGraph.from_geometric_edges(10, edges)


def prism_graph(n: int) -> SerreGraph:
    """The circular ladder C_n x K_2 (3-regular, 2n vertices)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return SerreGraph.from_geometric_edges(2 * n, edges)


def loop_graph() -> SerreGraph:
    return SerreGraph.from_geometric_edges(1, [(0, 0)])


def wedge_two_loops() -> SerreGraph:
    return SerreGraph.from_geometric_edges(1, [(0, 0), (0, 0)])


def parallel_pair() -> SerreGraph:
    return SerreGraph.from_geometric_edges(2, [(0, 1), (0, 1)])


def theta_graph() -> SerreGraph:
    return SerreGraph.from_geometric_edges(2, [(0, 1), (0, 1), (0, 1)])


def lollipop_graph() -> SerreGraph:
    """Path 0-1-2-3 with a loop at 3; shortest cycle is the loop."""
    return SerreGraph.from_geometric_edges(4, [(0, 1), (1, 2), (2, 3), (3, 3)])


def binary_tree(depth: int) -> SerreGraph:
    edges = []
    n = 2 ** (depth + 1) - 1
    for v in range(1, n):
        edges.append(((v - 1) // 2, v))
    return SerreGraph.from_geometric_edges(n, edges)


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
    return SerreGraph.from_geometric_edges(n, edges)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def c3():
    return cycle_graph(3)
