import math

import numpy as np
import pytest

from expander_forge import spectra, tower
from expander_forge.errors import InvalidParameterError, WordLengthError
from expander_forge.modarith import PrimePower
from expander_forge.multigraph import girth
from expander_forge.projgroup import is_psl, reduce_matrix
from expander_forge.quat import Quaternion
from expander_forge.tower import (
    TowerConfig,
    build_level,
    build_tower,
    expected_vertices,
    find_torus_pair,
    intersection_probe,
    loop_witness,
    lps_girth_floor,
    natural_covering,
    probe_with_reseed,
    swap_and_fibers,
    twist_sequence,
    two_squares,
)
from oracles import (
    bfs_transition_table,
    brute_force_pgl2_cartan_graph,
    cayley_girth_by_relator,
    traversal_bipartite,
    traversal_connected,
)


def test_config_validation():
    assert TowerConfig(5, 13).mode == "PGL"
    assert TowerConfig(5, 29).mode == "PSL"
    assert TowerConfig(13, 5).mode == "PGL"
    with pytest.raises(InvalidParameterError):
        TowerConfig(5, 5)
    with pytest.raises(InvalidParameterError):
        TowerConfig(7, 13)  # 7 = 3 mod 4
    with pytest.raises(InvalidParameterError):
        TowerConfig(4, 13)
    with pytest.raises(InvalidParameterError):
        TowerConfig(5, 13, levels=0)
    with pytest.raises(InvalidParameterError):
        TowerConfig(5, 13, variant="torus")
    with pytest.raises(InvalidParameterError):
        TowerConfig(5, 13, variant="borel", twist_seed=1)


def test_two_squares():
    assert two_squares(5) == (1, 2)
    assert two_squares(13) == (3, 2)
    assert two_squares(29) == (5, 2)
    torus = find_torus_pair(5, 13)
    assert torus.gamma == Quaternion(1, 2, 0, 0)
    assert torus.delta == Quaternion(3, 2, 0, 0)
    assert torus.gamma * torus.delta == torus.delta * torus.gamma


@pytest.mark.parametrize("q1,q2,variant,n,count", [
    (5, 13, "cartan", 1, 182),
    (5, 13, "borel", 1, 14),
    (5, 13, "cayley", 1, 2184),
    (5, 13, "borel", 2, 182),
    (5, 29, "cartan", 1, 870),
    (13, 5, "cartan", 1, 30),
    (13, 5, "cartan", 2, 750),
])
def test_level_counts(q1, q2, variant, n, count):
    cfg = TowerConfig(q1, q2, levels=n, variant=variant)
    assert expected_vertices(cfg, n) == count
    lvl = build_level(cfg, n)
    g = lvl.graph
    assert g.num_vertices == count
    assert set(g.degrees()) == {q1 + 1}
    assert g.connected()
    assert g.num_edges == count * (q1 + 1)


def test_cayley_psl_mode_count():
    cfg = TowerConfig(5, 29, variant="cayley")
    lvl = build_level(cfg, 1)
    assert lvl.graph.num_vertices == 29 * 28 * 30 // 2  # |PSL2(F29)|
    assert not lvl.graph.is_bipartite()
    assert all(is_psl(m) for m in lvl.generator_matrices)


def test_cayley_pgl_is_bipartite():
    lvl = build_level(TowerConfig(5, 13, variant="cayley"), 1)
    assert lvl.graph.is_bipartite()
    assert not any(is_psl(m) for m in lvl.generator_matrices)


def test_build_level_deterministic():
    cfg = TowerConfig(5, 13)
    a = build_level(cfg, 1)
    b = build_level(cfg, 1)
    assert np.array_equal(a.graph.origin, b.graph.origin)
    assert np.array_equal(a.graph.terminus, b.graph.terminus)
    assert np.array_equal(a.graph.inv, b.graph.inv)
    assert np.array_equal(a.codes, b.codes)


def test_girth_one_with_loop_witness():
    for q1, q2 in [(5, 13), (13, 5), (5, 29)]:
        for variant in ("cartan", "borel"):
            lvl = build_level(TowerConfig(q1, q2, variant=variant), 1)
            assert girth(lvl.graph) == 1
            wit = loop_witness(lvl)
            assert wit.vertex == 0  # untwisted base is discovered first
            e = lvl.edge_id(wit.vertex, wit.generator)
            assert lvl.graph.terminus[e] == wit.vertex
            gamma = find_torus_pair(q1, q2).gamma
            assert lvl.generators.gens[wit.generator] == gamma


def test_loop_witness_rejects_cayley():
    lvl = build_level(TowerConfig(5, 13, variant="cayley"), 1)
    with pytest.raises(InvalidParameterError):
        loop_witness(lvl)


@pytest.mark.parametrize("variant", ["cartan", "borel", "cayley"])
def test_natural_covering_13_5(variant):
    cfg = TowerConfig(13, 5, levels=2, variant=variant)
    lo = build_level(cfg, 1)
    hi = build_level(cfg, 2)
    cov = natural_covering(hi, lo)
    assert cov.verified
    ratio = hi.graph.num_vertices / lo.graph.num_vertices
    expected_ratio = {"cartan": 25, "borel": 5, "cayley": 125}[variant]
    assert ratio == expected_ratio
    with pytest.raises(InvalidParameterError):
        natural_covering(lo, hi)


def test_covering_composition_matches_direct_reduction():
    cfg = TowerConfig(13, 5, levels=3)
    l1 = build_level(cfg, 1)
    l2 = build_level(cfg, 2)
    l3 = build_level(cfg, 3)
    c32 = natural_covering(l3, l2)
    c21 = natural_covering(l2, l1)
    composed = c21.morphism.vertex_map[c32.morphism.vertex_map]

    def point_mod5(code):
        # decode (x : 1) or (1 : 5t) mod 125, reduce both coordinates mod 5
        # and recode; a pair of points mod 125 is c0 * 150 + c1, mod 5 c0 * 6 + c1
        x, y = (code, 1) if code < 125 else (1, (code - 125) * 5)
        x, y = x % 5, y % 5
        return x if y == 1 else 5 + y // 5

    index1 = {code: v for v, code in enumerate(l1.codes.tolist())}
    direct = [index1[point_mod5(c // 150) * 6 + point_mod5(c % 150)] for c in l3.codes.tolist()]
    assert np.array_equal(composed, direct)


def test_loop_persists_down_coverings():
    cfg = TowerConfig(5, 13, levels=2)
    l1 = build_level(cfg, 1)
    l2 = build_level(cfg, 2)
    cov = natural_covering(l2, l1)
    w2 = loop_witness(l2)
    w1 = loop_witness(l1)
    assert cov.morphism.vertex_map[w2.vertex] == w1.vertex
    e2 = l2.edge_id(w2.vertex, w2.generator)
    assert cov.morphism.edge_map[e2] == l1.edge_id(w1.vertex, w1.generator)


def test_twist_sequence_determinism_and_compatibility():
    cfg = TowerConfig(5, 13, levels=3, twist_seed=42)
    t1 = twist_sequence(cfg, 42)
    t2 = twist_sequence(cfg, 42)
    assert t1 == t2
    assert len(t1.matrices) == 3
    for n in (2, 3):
        assert reduce_matrix(t1.matrices[n - 1], PrimePower(13, n - 1)) == t1.matrices[n - 2]
    t3 = twist_sequence(cfg, 43)
    assert t3 != t1


def test_twist_sequence_psl_mode():
    cfg = TowerConfig(5, 29, levels=2, twist_seed=11)
    tw = twist_sequence(cfg, 11)
    for m in tw.matrices:
        assert is_psl(m)


def test_twisted_level_isomorphic_to_untwisted():
    cfg = TowerConfig(5, 13, levels=2, twist_seed=7)
    tw = twist_sequence(cfg, 7)
    for n in (1, 2):
        plain = build_level(TowerConfig(5, 13, levels=2), n)
        twisted = build_level(cfg, n, tw)
        # identical key sets; the key-indexed transition structure agrees,
        # so relabeling by keys is a label-preserving isomorphism
        plain_keys, twisted_keys = plain.codes.tolist(), twisted.codes.tolist()
        assert sorted(plain_keys) == sorted(twisted_keys)
        p_index = {k: v for v, k in enumerate(plain_keys)}
        t_index = {k: v for v, k in enumerate(twisted_keys)}
        d = plain.degree
        step = max(1, plain.graph.num_vertices // 100)
        for v in range(0, plain.graph.num_vertices, step):
            key = plain_keys[v]
            tv = t_index[key]
            for i in range(d):
                p_target = plain_keys[plain.graph.terminus[v * d + i]]
                t_target = twisted_keys[twisted.graph.terminus[tv * d + i]]
                assert p_target == t_target
        assert twisted_keys[0] != plain.pp.modulus  # ((0:1), (1:0)) has code m


def test_identity_twist_reproduces_untwisted():
    from expander_forge.projgroup import identity
    from expander_forge.tower import TwistSequence

    cfg = TowerConfig(5, 13, levels=2, twist_seed=0)
    ident_twist = TwistSequence(0, tuple(identity(PrimePower(13, n)) for n in (1, 2)))
    plain_cfg = TowerConfig(5, 13, levels=2)
    for n in (1, 2):
        plain = build_level(plain_cfg, n)
        twisted = build_level(cfg, n, ident_twist)
        assert np.array_equal(twisted.codes, plain.codes)
        assert np.array_equal(twisted.graph.terminus, plain.graph.terminus)
        assert np.array_equal(twisted.graph.inv, plain.graph.inv)


def test_twisted_covering_verifies():
    cfg = TowerConfig(5, 13, levels=2, twist_seed=7)
    tw = twist_sequence(cfg, 7)
    l1 = build_level(cfg, 1, tw)
    l2 = build_level(cfg, 2, tw)
    cov = natural_covering(l2, l1)
    assert cov.verified
    # the standard-key loop vertex still persists down the twisted covering
    w2 = loop_witness(l2)
    w1 = loop_witness(l1)
    assert cov.morphism.vertex_map[w2.vertex] == w1.vertex


def test_oracle_label_isomorphism_13_5():
    # Full enumeration of PGL2(F5) and its right diagonal cosets must give
    # the same BFS transition table as the pair-orbit construction.
    lvl = build_level(TowerConfig(13, 5), 1)
    assert lvl.graph.num_vertices == 30
    oracle_table = brute_force_pgl2_cartan_graph(13, 5)
    assert bfs_transition_table(lvl) == oracle_table


def test_probe_untwisted_survivors():
    cfg = TowerConfig(5, 13, levels=2)
    probe = intersection_probe(cfg, max_word_len=2, up_to_level=2)
    assert probe.survivor_letters() == ((0,), (0, 0), (5,), (5, 5))
    assert probe.words_tested == 6 + 6 * 5
    gamma_hits = [h for h in probe.survivors if len(h.word.letters) == 1]
    assert {h.quaternion.coefficients() for h in gamma_hits} == {
        (1, 2, 0, 0), (1, -2, 0, 0)
    }


def test_probe_word_cap():
    cfg = TowerConfig(5, 13, levels=1)
    with pytest.raises(WordLengthError):
        intersection_probe(cfg, max_word_len=9)
    probe = intersection_probe(cfg, max_word_len=1)
    assert probe.survivor_letters() == ((0,), (5,))


def test_probe_twisted_eliminates_gamma():
    cfg = TowerConfig(5, 13, levels=3, twist_seed=42)
    probe, twist, reseeds = probe_with_reseed(cfg, max_word_len=4, up_to_level=3)
    assert reseeds == ()
    assert twist.seed == 42
    assert not probe.has_length_one_survivor()
    assert probe.survivors == ()


def test_probe_membership_consistent_across_levels():
    # survival at level n+1 implies survival at level n
    cfg = TowerConfig(5, 13, levels=3)
    deep = intersection_probe(cfg, max_word_len=3, up_to_level=3)
    shallow = intersection_probe(cfg, max_word_len=3, up_to_level=1)
    assert set(deep.survivor_letters()) <= set(shallow.survivor_letters())


def test_probe_13_5_mixed_words_wash_out_with_depth():
    # At the small modulus q2 = 5 many mixed-letter words are diagonal mod 5
    # and mod 25, but by depth 3 only the powers of 3+2i (generator 13) and
    # of its conjugate (generator 8) remain (regression fixture from a
    # verified run).
    counts = {}
    for depth in (1, 2, 3):
        pr = intersection_probe(TowerConfig(13, 5, levels=depth), 4, depth)
        counts[depth] = len(pr.survivors)
    assert counts == {1: 1020, 2: 32, 3: 8}
    deep = intersection_probe(TowerConfig(13, 5, levels=3), 4, 3)
    assert deep.survivor_letters() == (
        (8,), (8, 8), (8, 8, 8), (8, 8, 8, 8),
        (13,), (13, 13), (13, 13, 13), (13, 13, 13, 13),
    )


def test_build_tower_degenerate_single_level():
    result = build_tower(TowerConfig(5, 13, levels=1))
    assert len(result.levels) == 1
    assert result.coverings == ()
    assert result.summaries[0].girth == 1
    assert result.summaries[0].spectral.ramanujan
    assert result.probe.survivor_letters() == (
        (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0),
        (5,), (5, 5), (5, 5, 5), (5, 5, 5, 5),
    )


def test_build_tower_twisted_single_level():
    result = build_tower(TowerConfig(5, 13, levels=1, twist_seed=42))
    assert result.reseeds == ()
    assert result.twist is not None and result.twist.seed == 42
    s = result.summaries[0]
    assert s.girth == 1 and s.spectral.ramanujan
    assert not result.probe.has_length_one_survivor()
    # the twisted base vertex is not the standard pair, but the loop
    # witness still lives at the standard-key vertex
    assert s.witness is not None and s.witness.vertex != 0


def test_build_tower_cayley_records_girth_floor():
    result = build_tower(TowerConfig(5, 13, levels=1, variant="cayley"))
    s = result.summaries[0]
    assert s.girth_floor == 7
    assert s.girth >= s.girth_floor
    assert s.witness is None
    assert s.bipartite
    assert s.spectral.ramanujan


def test_build_tower_psl_5_29():
    result = build_tower(TowerConfig(5, 29, levels=1))
    assert result.mode == "PSL"
    s = result.summaries[0]
    assert s.vertices == 870
    assert s.girth == 1
    assert s.spectral.ramanujan


def test_lps_girth_floor():
    assert lps_girth_floor(5, 2184) == 7
    assert lps_girth_floor(5, 182) == math.ceil(4 * math.log(182) / (3 * math.log(5)))


def test_expected_vertices_invalid_level():
    cfg = TowerConfig(5, 13, levels=1)
    with pytest.raises(InvalidParameterError):
        build_level(cfg, 2)


# --- invariant suites ------------------------------------------------------


@pytest.mark.properties
def test_mode_matches_is_psl_for_all_generators():
    for q1, q2 in [(5, 13), (5, 29), (13, 5), (13, 29), (17, 13)]:
        cfg = TowerConfig(q1, q2)
        lvl = build_level(cfg, 1)
        flags = [is_psl(m) for m in lvl.generator_matrices]
        if cfg.mode == "PSL":
            assert all(flags)
        else:
            assert not any(flags)


@pytest.mark.properties
@pytest.mark.slow
def test_cayley_girth_matches_relator_oracle():
    lvl = build_level(TowerConfig(5, 13, variant="cayley"), 1)
    bfs_girth = girth(lvl.graph)
    oracle = cayley_girth_by_relator(5, 13, 1, max_len=8)
    assert bfs_girth == oracle == 8


# (q1, q2, variant, level, bipartite); every level is connected
COMPONENT_LEVELS = [
    (5, 13, "cartan", 1, False),
    (5, 13, "cartan", 2, False),
    (13, 5, "borel", 1, False),
    (13, 5, "borel", 2, False),
    (13, 5, "borel", 3, False),
    (5, 13, "cayley", 1, True),
    (5, 17, "cayley", 1, True),
    (5, 29, "cayley", 1, False),
    (13, 5, "cayley", 1, True),
    (13, 5, "cayley", 2, True),
]


@pytest.mark.parametrize("q1,q2,variant,n,bipartite", COMPONENT_LEVELS)
def test_level_components_match_traversal_oracles(q1, q2, variant, n, bipartite):
    g = build_level(TowerConfig(q1, q2, levels=n, variant=variant), n).graph
    assert g.connected() is True is traversal_connected(g)
    assert g.is_bipartite() is bipartite is traversal_bipartite(g)[0]


@pytest.mark.parametrize("q1,q2,seed", [(5, 13, None), (13, 5, 7), (5, 29, None)],
                         ids=["5-13", "13-5-twist7", "5-29-psl"])
def test_swap_commutes_with_generators_and_fibers_follow_the_covering(q1, q2, seed):
    cfg = TowerConfig(q1, q2, levels=2, twist_seed=seed)
    twist = None if seed is None else twist_sequence(cfg, seed)
    lower, upper = (build_level(cfg, n, twist) for n in (1, 2))
    vmap = np.asarray(natural_covering(upper, lower).morphism.vertex_map)
    (swap1, fibers1), (swap2, fibers2) = swap_and_fibers(lower), swap_and_fibers(upper)
    for lvl, swap, fibers in ((lower, swap1, fibers1), (upper, swap2, fibers2)):
        assert np.array_equal(spectra._checked_swap(lvl.graph, swap), swap)
        assert np.array_equal(lvl.table[swap], swap[lvl.table])
        assert np.array_equal(fibers[swap], fibers)
    # a level-1 fiber modulo the swap is one orbit of level 1
    assert len(np.unique(fibers1)) == lower.graph.num_vertices // 2
    assert np.array_equal(fibers2, fibers1[vmap])
    assert np.array_equal(swap1[vmap], vmap[swap2])


def test_swap_and_fibers_rejects_other_variants():
    for variant in ("borel", "cayley"):
        with pytest.raises(InvalidParameterError, match="cartan"):
            swap_and_fibers(build_level(TowerConfig(5, 13, variant=variant), 1))


def test_build_tower_solves_cartan_levels_on_swap_halves(monkeypatch):
    # cartan levels hand their swap and fibers to the check; other variants none
    seen = []
    check = tower.ramanujan_check

    def recording(g, q, **kwargs):
        seen.append((g.num_vertices, {k: v is not None for k, v in kwargs.items()}))
        return check(g, q, **kwargs)

    monkeypatch.setattr(tower, "ramanujan_check", recording)
    build_tower(TowerConfig(13, 5, levels=2))
    build_tower(TowerConfig(5, 13, variant="borel"))
    on = {"swap": True, "locality": True}
    off = {"swap": False, "locality": False}
    assert seen == [(30, on), (750, on), (14, off)]
