import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    cycle_graph,
    from_geometric_edges,
    loop_graph,
    lollipop_graph,
    parallel_pair,
    path_graph,
    petersen_graph,
    random_multigraphs,
    small_girth_fixtures,
    theta_graph,
    wedge_two_loops,
)
from expander_forge import multigraph
from expander_forge.errors import InvalidParameterError
from expander_forge.multigraph import CoveringCheck, SerreGraph, girth, is_covering
from oracles import (
    bfs_girth,
    brute_force_girth,
    link_is_covering,
    loop_validation_error,
    traversal_bipartite,
    traversal_connected,
    vertex_links,
)


def test_link_sizes():
    g = loop_graph()
    assert len(vertex_links(g)[0]) == 2  # both directions of the loop originate at 0
    iso = from_geometric_edges(2, [(1, 1)])
    assert g.degrees().tolist() == [2]
    assert vertex_links(iso)[0] == [] and iso.degrees().tolist() == [0, 2]
    k4 = complete_graph(4)
    assert all(len(vertex_links(k4)[v]) == 3 for v in range(4))
    assert k4.degrees().tolist() == [3] * 4


def test_involution_axioms_enforced():
    with pytest.raises(InvalidParameterError):
        # fixed point: an edge its own inverse
        SerreGraph(1, [0], [0], [0])
    with pytest.raises(InvalidParameterError):
        SerreGraph(2, [0, 1], [1, 0], [0, 1])  # inv not involutive
    with pytest.raises(InvalidParameterError):
        # involution does not reverse endpoints
        SerreGraph(3, [0, 1, 1, 2], [1, 0, 2, 1], [3, 2, 1, 0])
    with pytest.raises(InvalidParameterError):
        SerreGraph(2, [0], [1], [0])  # odd edge count


# one corrupted entry of the 4-cycle's edge arrays, and the message of the
# lowest failing edge (a corruption can make an earlier edge fail first)
VALIDATION_PARITY = [
    ("terminus", 2, -1, "edge 2 has endpoint out of range"),
    ("origin", 5, 9, "involution does not reverse edge 4"),
    ("inv", 6, 8, "edge 6 has inverse id out of range"),
    ("inv", 0, 0, "involution fixed point at edge 0 (0 -> 1): a generator acting "
                  "as its own inverse on this vertex is not representable"),
    ("inv", 2, 4, "involution not involutive at edge 2"),
    ("terminus", 0, 2, "involution does not reverse edge 0"),
    ("origin", 3, 2**70, "involution does not reverse edge 2"),
    ("inv", 1, 2**40, "involution not involutive at edge 0"),
]


@pytest.mark.parametrize("field,index,value,message", VALIDATION_PARITY)
def test_validation_parity_with_edge_loop(field, index, value, message):
    arrays = {"origin": [0, 1, 1, 2, 2, 3, 3, 0],
              "terminus": [1, 0, 2, 1, 3, 2, 0, 3],
              "inv": [1, 0, 3, 2, 5, 4, 7, 6]}
    assert loop_validation_error(4, **arrays) is None
    arrays[field][index] = value
    with pytest.raises(InvalidParameterError) as exc:
        SerreGraph(4, arrays["origin"], arrays["terminus"], arrays["inv"])
    assert str(exc.value) == message == loop_validation_error(4, **arrays)


def test_girth_examples():
    assert girth(loop_graph()) == 1
    assert girth(parallel_pair()) == 2
    assert girth(theta_graph()) == 2
    assert girth(cycle_graph(5)) == 5
    assert girth(complete_graph(4)) == 3
    assert girth(lollipop_graph()) == 1
    assert girth(petersen_graph()) == 5
    assert girth(path_graph(5)) == math.inf
    assert girth(SerreGraph(0, [], [], [])) == math.inf
    assert girth(from_geometric_edges(6, [(0, 1), (1, 2), (3, 4)])) == math.inf


def test_girth_matches_brute_force_on_fixtures():
    for name, g, expected in small_girth_fixtures():
        got = girth(g)
        assert got == expected, name
        oracle = brute_force_girth(g, max_len=8)
        if oracle <= 8:
            assert got == oracle, name
        else:
            assert got > 8, name


def test_bipartite():
    assert cycle_graph(6).bipartition() is not None
    assert cycle_graph(5).bipartition() is None
    assert loop_graph().bipartition() is None


def test_connected_and_degrees():
    c6 = cycle_graph(6)
    assert c6.connected()
    assert c6.degrees().tolist() == [2] * 6
    disjoint = from_geometric_edges(4, [(0, 1), (2, 3)])
    assert not disjoint.connected()


# (name, graph, connected, bipartite)
COMPONENT_FIXTURES = [
    ("empty", SerreGraph(0, [], [], []), True, True),
    ("isolated vertex", SerreGraph(1, [], [], []), True, True),
    ("c5", cycle_graph(5), True, False),
    ("c6", cycle_graph(6), True, True),
    ("path5", path_graph(5), True, True),
    ("two triangles", from_geometric_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), False, False),
    ("loop", loop_graph(), True, False),
    ("parallel pair", parallel_pair(), True, True),
    ("petersen", petersen_graph(), True, False),
    ("k4", complete_graph(4), True, False),
]


@pytest.mark.parametrize("name,g,connected,bipartite", COMPONENT_FIXTURES,
                         ids=[f[0] for f in COMPONENT_FIXTURES])
def test_components_match_traversal_oracles(name, g, connected, bipartite):
    assert g.connected() is connected is traversal_connected(g)
    assert (g.bipartition() is not None) is bipartite is traversal_bipartite(g)[0]


def _double_cover_c6_to_c3():
    c6, c3 = cycle_graph(6), cycle_graph(3)
    vmap = tuple(v % 3 for v in range(6))
    emap = []
    for e in range(c6.num_edges):
        i = e // 2
        emap.append(2 * (i % 3) + e % 2)
    return c6, c3, vmap, tuple(emap)


def test_covering_identity_and_double_cover():
    c3 = cycle_graph(3)
    assert is_covering(c3, c3, tuple(range(3)), tuple(range(c3.num_edges))).ok
    assert is_covering(*_double_cover_c6_to_c3()).ok


def test_covering_fails_on_path_collapse():
    # collapse path 0-1-2 onto the single edge 0-1; link at the midpoint
    # maps two edges onto one
    p3 = path_graph(3)
    target = path_graph(2)
    vmap = (0, 1, 0)
    emap = (0, 1, 1, 0)
    check = is_covering(p3, target, vmap, emap)
    assert not check.ok
    assert check.witness == 1


def test_covering_fails_on_non_surjective():
    c3 = cycle_graph(3)
    disjoint = from_geometric_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    vmap = (0, 1, 2)
    emap = tuple(range(6))
    check = is_covering(c3, disjoint, vmap, emap)
    assert not check.ok and check.reason.startswith("vertex map is not surjective")


def test_invalid_morphism_is_a_failed_verdict():
    # a non-morphism is refused by the verdict, not by an exception
    c6, c3 = cycle_graph(6), cycle_graph(3)
    assert is_covering(c6, c3, tuple(v % 3 for v in range(6)), (0,) * c6.num_edges) == (
        CoveringCheck(False, 0, "edge 0 does not commute with the involution"))
    assert is_covering(c6, c3, (0,) * 6, tuple(range(12))) == (
        CoveringCheck(False, 0, "edge 0 does not commute with origin/terminus"))


def _assert_matches_link_oracle(f):
    """is_covering and the link-by-link oracle agree on f; a failure that
    names an edge has that edge's origin as its witness."""
    got = is_covering(*f)
    assert got == link_is_covering(*f)
    edge = re.match(r"edge (\d+) ", got.reason)
    if edge:
        assert got.witness == f[0].origin[int(edge.group(1))]
    return got


def _identity(g):
    return g, g, tuple(range(g.num_vertices)), tuple(range(g.num_edges))


_C3_WITH_ISOLATED = from_geometric_edges(4, [(0, 1), (1, 2), (2, 0)])

# (name, is_covering's arguments, verdict of the link-by-link check)
COVERING_PARITY = [
    ("identity c3", _identity(cycle_graph(3)), (True, -1, "")),
    ("double cover c6 -> c3", _double_cover_c6_to_c3(), (True, -1, "")),
    ("identity loop", _identity(loop_graph()), (True, -1, "")),
    ("path collapse", (path_graph(3), path_graph(2), (0, 1, 0), (0, 1, 1, 0)),
     (False, 1, "link map is not bijective")),
    ("non-surjective", (cycle_graph(3), from_geometric_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), (0, 1, 2), tuple(range(6))),
     (False, 3, "vertex map is not surjective")),
    ("parallel pair folded", (parallel_pair(), parallel_pair(), (0, 1), (0, 1, 0, 1)),
     (False, 0, "link map is not bijective")),
    ("isolated vertex", (_C3_WITH_ISOLATED, cycle_graph(3), (0, 1, 2, 0), tuple(range(6))),
     (False, 3, "link map is not bijective")),
    ("two loops onto one", (wedge_two_loops(), loop_graph(), (0,), (0, 1, 0, 1)),
     (False, 0, "link map is not bijective")),
    ("lengths", (cycle_graph(3), cycle_graph(3), (0, 1), tuple(range(6))),
     (False, -1, "map lengths do not match the source graph")),
    ("vertex image", (cycle_graph(3), cycle_graph(3), (0, 1, 3), tuple(range(6))),
     (False, 2, "vertex map image out of range")),
    ("edge image", (cycle_graph(3), cycle_graph(3), (0, 1, 2), (0, 1, 2, 3, 2**70, 5)),
     (False, 2, "edge map image out of range")),
    ("one edge image moved", (cycle_graph(3), cycle_graph(3), (0, 1, 2), (0, 1, 4, 3, 4, 5)),
     (False, 1, "edge 2 does not commute with origin/terminus")),
    ("all edges to 0", (cycle_graph(6), cycle_graph(3), (0, 1, 2, 0, 1, 2), (0,) * 12),
     (False, 0, "edge 0 does not commute with the involution")),
    ("all vertices to 0", (cycle_graph(6), cycle_graph(3), (0,) * 6, tuple(range(12))),
     (False, 0, "edge 0 does not commute with origin/terminus")),
    ("involution", (parallel_pair(), parallel_pair(), (0, 1), (2, 1, 2, 3)),
     (False, 0, "edge 0 does not commute with the involution")),
    ("no target edges", (cycle_graph(3), SerreGraph(3, [], [], []), (0, 1, 2), tuple(range(6))),
     (False, 0, "edge map image out of range")),
]


@pytest.mark.parametrize("chunk", [1, 3, 1 << 20])
@pytest.mark.parametrize("name,f,verdict", COVERING_PARITY, ids=[c[0] for c in COVERING_PARITY])
def test_covering_matches_link_oracle(monkeypatch, name, f, verdict, chunk):
    monkeypatch.setattr(multigraph, "_VALIDATE_CHUNK", chunk)
    assert _assert_matches_link_oracle(f) == CoveringCheck(*verdict)


@st.composite
def morphisms(draw):
    """A relabelled isomorphism of a random multigraph or a random 2-lift
    onto it, then possibly one edge image, one inverse pair of edge images
    or one vertex image changed."""
    g = draw(random_multigraphs())
    n, m = g.num_vertices, g.num_edges // 2
    ends = [(int(g.origin[2 * i]), int(g.terminus[2 * i])) for i in range(m)]
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        order = draw(st.permutations(range(m)))
        flip = [draw(st.booleans()) for _ in range(m)]
        edges, em = [], [0] * (2 * m)
        for j, i in enumerate(order):
            u, v = ends[i]
            edges.append((perm[v], perm[u]) if flip[j] else (perm[u], perm[v]))
            em[2 * i], em[2 * i + 1] = 2 * j + flip[j], 2 * j + 1 - flip[j]
        f = g, from_geometric_edges(n, edges), tuple(perm), tuple(em)
    else:
        # sheet a of vertex v is v + a*n; a twisted edge crosses sheets
        twist = [draw(st.booleans()) for _ in range(m)]
        edges, em = [], []
        for i, (u, v) in enumerate(ends):
            for a in (0, 1):
                edges.append((u + a * n, v + (a ^ twist[i]) * n))
                em += [2 * i, 2 * i + 1]
        lift = from_geometric_edges(2 * n, edges)
        f = lift, g, tuple(v % n for v in range(2 * n)), tuple(em)
    src, tgt, vm, em = f[0], f[1], list(f[2]), list(f[3])
    change = draw(st.sampled_from(["none", "edge", "pair", "vertex"] if em
                                  else ["none", "vertex"]))
    if change == "edge":
        em[draw(st.integers(0, len(em) - 1))] = draw(st.integers(-1, tgt.num_edges))
    elif change == "pair":
        # e and inv(e) sent to another edge with the same ends and its
        # inverse: still a morphism, but links may fold
        e = draw(st.integers(0, len(em) - 1))
        ends = (vm[src.origin[e]], vm[src.terminus[e]])
        t = draw(st.sampled_from([t for t in range(tgt.num_edges)
                                  if (tgt.origin[t], tgt.terminus[t]) == ends]))
        em[e], em[src.inv[e]] = t, int(tgt.inv[t])
    elif change == "vertex":
        vm[draw(st.integers(0, len(vm) - 1))] = draw(st.integers(-1, tgt.num_vertices))
    return change, (src, tgt, tuple(vm), tuple(em))


@pytest.mark.properties
@settings(max_examples=300)
@given(morphisms(), st.integers(1, 8))
def test_covering_matches_link_oracle_random(case, chunk):
    change, f = case
    with mock.patch.object(multigraph, "_VALIDATE_CHUNK", chunk):
        got = _assert_matches_link_oracle(f)
    if change == "none":
        assert got == CoveringCheck(True)


def _random_nb_closed_walks(g, rng, count=20, max_len=12):
    walks = []
    links = vertex_links(g)
    for _ in range(count * 20):
        if len(walks) >= count:
            break
        v0 = rng.randrange(g.num_vertices)
        walk = []
        v = v0
        for _ in range(rng.randint(1, max_len)):
            options = [e for e in links[v] if not walk or e != g.inv[walk[-1]]]
            if not options:
                break
            e = rng.choice(options)
            walk.append(e)
            v = g.terminus[e]
        if walk and v == v0:
            walks.append(walk)
    return walks


@pytest.mark.properties
def test_covering_preserves_closed_nonbacktracking_paths():
    # A closed non-backtracking path upstairs maps to a closed
    # non-backtracking path of equal length downstairs.
    src, tgt, vertex_map, edge_map = _double_cover_c6_to_c3()
    rng = random.Random(5)
    walks = _random_nb_closed_walks(src, rng)
    assert walks
    for walk in walks:
        image = [edge_map[e] for e in walk]
        assert len(image) == len(walk)
        assert tgt.origin[image[0]] == vertex_map[src.origin[walk[0]]]
        assert tgt.terminus[image[-1]] == tgt.origin[image[0]]
        for a, b in zip(image, image[1:]):
            assert tgt.origin[b] == tgt.terminus[a]
            assert b != tgt.inv[a]


@pytest.mark.properties
@settings(max_examples=150)
@given(random_multigraphs())
def test_girth_brute_force_agreement_random(g):
    got = girth(g)
    has_loop = any(g.origin[e] == g.terminus[e] for e in range(g.num_edges))
    assert (got == 1) == has_loop
    oracle = brute_force_girth(g, max_len=8)
    if oracle <= 8:
        assert got == oracle
    else:
        assert got > 8


@pytest.mark.properties
@settings(max_examples=100)
@given(random_multigraphs())
def test_involution_axioms_after_construction(g):
    for e in range(g.num_edges):
        eb = g.inv[e]
        assert eb != e
        assert g.inv[eb] == e
        assert g.origin[eb] == g.terminus[e]
        assert g.terminus[eb] == g.origin[e]
    assert g.num_edges % 2 == 0
    assert sum(g.degrees()) == g.num_edges


@pytest.mark.properties
@settings(max_examples=100)
@given(random_multigraphs())
def test_girth_two_iff_parallel_no_loop(g):
    got = girth(g)
    has_loop = any(g.origin[e] == g.terminus[e] for e in range(g.num_edges))
    pairs = {}
    has_parallel = False
    for e in range(g.num_edges):
        if e < g.inv[e] and g.origin[e] != g.terminus[e]:
            key = tuple(sorted((g.origin[e], g.terminus[e])))
            if key in pairs:
                has_parallel = True
            pairs[key] = True
    assert (got == 2) == (not has_loop and has_parallel)


@st.composite
def simple_graphs(draw, parallel=False):
    """Graphs with no loop, so that girth runs its search instead of a
    shortcut: with no parallel pair, the empty graph included, or with at
    least one."""
    n = draw(st.integers(2 if parallel else 0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if parallel:
        chosen += 2 * draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
    return from_geometric_edges(n, draw(st.permutations(chosen)))


@pytest.mark.properties
@settings(max_examples=300)
@given(st.one_of(random_multigraphs(), simple_graphs(), simple_graphs(parallel=True)))
def test_girth_matches_bfs_oracle_at_every_batch_size(g):
    # batches of one source, of three, and of the default size
    want = bfs_girth(g)
    oracle = brute_force_girth(g, max_len=8)
    assert want == oracle if oracle <= 8 else want > 8
    for cells in (g.num_vertices, 3 * g.num_vertices, multigraph._GIRTH_CELLS):
        with mock.patch.object(multigraph, "_GIRTH_CELLS", cells):
            assert girth(g) == want, cells


@pytest.mark.parametrize("g,want", [(loop_graph(), 1), (lollipop_graph(), 1),
                                    (parallel_pair(), 2), (theta_graph(), 2)])
def test_girth_shortcuts_run_no_search(g, want):
    # a loop decides the girth before any search starts; a parallel pair has
    # no shortcut, and the search finds it (the name is kept for its ids)
    with mock.patch.object(multigraph, "_origin_counts",
                           side_effect=multigraph._origin_counts) as counts:
        assert girth(g) == want
    assert counts.called is (want == 2)


@pytest.mark.properties
@settings(max_examples=150)
@given(random_multigraphs())
def test_components_match_traversal_oracles_random(g):
    assert g.connected() == traversal_connected(g)
    assert (g.bipartition() is not None) == traversal_bipartite(g)[0]


def _proper_colouring(g, sides) -> bool:
    return bool((sides[g.origin] != sides[g.terminus]).all())


@pytest.mark.parametrize("name,g,connected,bipartite", COMPONENT_FIXTURES,
                         ids=[f[0] for f in COMPONENT_FIXTURES])
def test_bipartition_is_a_proper_colouring(name, g, connected, bipartite):
    sides = g.bipartition()
    assert (sides is not None) is bipartite
    if bipartite:
        assert sides.dtype == bool and len(sides) == g.num_vertices
        assert _proper_colouring(g, sides)


@pytest.mark.properties
@settings(max_examples=150)
@given(random_multigraphs())
def test_bipartition_matches_traversal_oracle_random(g):
    sides = g.bipartition()
    assert (sides is not None) == traversal_bipartite(g)[0]
    if sides is not None:
        assert _proper_colouring(g, sides)


@pytest.mark.parametrize("chunk", [1, 3, 7, 2**20])
def test_origin_counts_match_bincount(monkeypatch, chunk):
    # counted a chunk at a time from the chunk's least id, sorted or not,
    # with vertices of no edge at either end
    monkeypatch.setattr(multigraph, "_COUNT_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for origin in (rng.integers(2, 40, size=200, dtype=np.int32),
                   np.sort(rng.integers(0, 37, size=101)), np.zeros(0, dtype=np.int32)):
        want = np.bincount(origin, minlength=45)
        assert np.array_equal(multigraph._origin_counts(origin, 45), want)
    g = theta_graph()
    assert g.degrees().tolist() == [3, 3] and [len(x) for x in vertex_links(g)] == [3, 3]
