import math
import random

import pytest
from hypothesis import given, settings

from conftest import (
    complete_graph,
    cycle_graph,
    loop_graph,
    lollipop_graph,
    parallel_pair,
    path_graph,
    petersen_graph,
    random_multigraphs,
    small_girth_fixtures,
    theta_graph,
)
from expander_forge.errors import GraphConstructionError, InvalidMorphismError
from expander_forge.multigraph import (
    GraphMorphism,
    SerreGraph,
    girth,
    is_covering,
)
from oracles import (
    brute_force_girth,
    loop_validation_error,
    traversal_bipartite,
    traversal_connected,
)


def test_link_sizes():
    g = loop_graph()
    assert len(g.link(0)) == 2  # both directions of the loop originate at 0
    iso = SerreGraph.from_geometric_edges(2, [(1, 1)])
    assert g.degrees() == [2]
    assert iso.link(0) == []
    k4 = complete_graph(4)
    assert all(len(k4.link(v)) == 3 for v in range(4))


def test_involution_axioms_enforced():
    with pytest.raises(GraphConstructionError):
        # fixed point: an edge its own inverse
        SerreGraph(1, [0], [0], [0])
    with pytest.raises(GraphConstructionError):
        SerreGraph(2, [0, 1], [1, 0], [0, 1])  # inv not involutive
    with pytest.raises(GraphConstructionError):
        # involution does not reverse endpoints
        SerreGraph(3, [0, 1, 1, 2], [1, 0, 2, 1], [3, 2, 1, 0])
    with pytest.raises(GraphConstructionError):
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
    with pytest.raises(GraphConstructionError) as exc:
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
    assert cycle_graph(6).is_bipartite() is True
    assert cycle_graph(5).is_bipartite() is False
    assert not loop_graph().is_bipartite()


def test_connected_and_degrees():
    c6 = cycle_graph(6)
    assert c6.connected()
    assert c6.degrees() == [2] * 6
    disjoint = SerreGraph.from_geometric_edges(4, [(0, 1), (2, 3)])
    assert not disjoint.connected()


# (name, graph, connected, bipartite)
COMPONENT_FIXTURES = [
    ("empty", SerreGraph(0, [], [], []), True, True),
    ("isolated vertex", SerreGraph(1, [], [], []), True, True),
    ("c5", cycle_graph(5), True, False),
    ("c6", cycle_graph(6), True, True),
    ("path5", path_graph(5), True, True),
    ("two triangles", SerreGraph.from_geometric_edges(
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
    assert g.is_bipartite() is bipartite is traversal_bipartite(g)[0]


def _double_cover_c6_to_c3():
    c6, c3 = cycle_graph(6), cycle_graph(3)
    vmap = tuple(v % 3 for v in range(6))
    emap = []
    for e in range(c6.num_edges):
        i = e // 2
        emap.append(2 * (i % 3) + e % 2)
    return GraphMorphism(c6, c3, vmap, tuple(emap))


def test_covering_identity_and_double_cover():
    c3 = cycle_graph(3)
    ident = GraphMorphism(c3, c3, tuple(range(3)), tuple(range(c3.num_edges)))
    assert is_covering(ident).ok
    assert is_covering(_double_cover_c6_to_c3()).ok


def test_covering_fails_on_path_collapse():
    # collapse path 0-1-2 onto the single edge 0-1; link at the midpoint
    # maps two edges onto one
    p3 = path_graph(3)
    target = path_graph(2)
    vmap = (0, 1, 0)
    emap = (0, 1, 1, 0)
    check = is_covering(GraphMorphism(p3, target, vmap, emap))
    assert not check.ok
    assert check.witness == 1


def test_covering_fails_on_non_surjective():
    c3 = cycle_graph(3)
    disjoint = SerreGraph.from_geometric_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    vmap = (0, 1, 2)
    emap = tuple(range(6))
    check = is_covering(GraphMorphism(c3, disjoint, vmap, emap))
    assert not check.ok and check.reason.startswith("vertex map is not surjective")


def test_invalid_morphism_raises():
    c6, c3 = cycle_graph(6), cycle_graph(3)
    with pytest.raises(InvalidMorphismError):
        is_covering(GraphMorphism(c6, c3, tuple(v % 3 for v in range(6)),
                                  tuple(0 for _ in range(c6.num_edges))))
    with pytest.raises(InvalidMorphismError):
        is_covering(GraphMorphism(c6, c3, (0,) * 6, tuple(range(12))))


def _random_nb_closed_walks(g, rng, count=20, max_len=12):
    walks = []
    links = g.links()
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
    f = _double_cover_c6_to_c3()
    rng = random.Random(5)
    walks = _random_nb_closed_walks(f.source, rng)
    assert walks
    for walk in walks:
        image = [f.edge_map[e] for e in walk]
        assert len(image) == len(walk)
        tgt = f.target
        assert tgt.origin[image[0]] == f.vertex_map[f.source.origin[walk[0]]]
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


@pytest.mark.properties
@settings(max_examples=150)
@given(random_multigraphs())
def test_components_match_traversal_oracles_random(g):
    assert g.connected() == traversal_connected(g)
    assert g.is_bipartite() == traversal_bipartite(g)[0]
