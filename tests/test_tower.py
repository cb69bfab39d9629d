import dataclasses
import math

import numpy as np
import pytest

from conftest import covering_morphism
from expander_forge import spectra, tower
from expander_forge.errors import InvalidParameterError, VerificationError
from expander_forge.modarith import PrimePower
from expander_forge.multigraph import girth
from expander_forge.projgroup import is_psl, p1_size, reduce_matrix
from expander_forge.quat import Quaternion, split
from expander_forge.tower import (
    TowerConfig,
    TwistSequence,
    build_level,
    build_tower,
    expected_vertices,
    intersection_probe,
    loop_witness,
    lps_girth_floor,
    natural_covering,
    probe_with_reseed,
    swap_orbits,
    twist_sequence,
    two_squares,
)
from oracles import (
    bfs_transition_table,
    brute_force_pgl2_cartan_graph,
    cayley_girth_by_relator,
    raw_twist_draw,
    traversal_bipartite,
    traversal_connected,
    word_enumeration_probe,
)

# The twist seeds in 0..299 whose raw g(1) conjugates a generator matrix mod
# q2 to a diagonal one; the same sets as the seeds whose probe to depth 1
# keeps a length-one word when drawn without the rule.
RESEEDED_0_299 = {
    (5, 13): (17, 21, 27, 36, 117, 143, 192, 213, 240, 257, 298),
    (13, 5): (3, 5, 8, 19, 23, 31, 35, 36, 41, 45, 49, 58, 60, 63, 69, 79, 84, 86, 88, 95,
              99, 100, 111, 123, 140, 142, 143, 147, 150, 153, 154, 158, 159, 165, 166, 172,
              173, 180, 181, 182, 189, 198, 199, 201, 206, 213, 215, 217, 220, 224, 225, 228,
              238, 240, 249, 250, 255, 265, 266, 277, 281, 284, 288, 290),
}


def _generator_matrices(lvl):
    """The level's generators split mod q2^n."""
    return [split(s, lvl.pp) for s in lvl.generators.gens]


def _raw_degenerate(q1, q2, seed) -> bool:
    """Whether seed's raw g(1) keeps a length-one word in the oracle probe
    to depth 1."""
    raw = TwistSequence(seed, (raw_twist_draw(q1, q2, seed),))
    return bool(word_enumeration_probe(TowerConfig(q1, q2), 1, 1, twist=raw).survivors)


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


def test_depth_past_an_int64_modulus_is_refused():
    # 13**17 < 2**63 <= 13**18; a depth of 10**9 is refused without forming
    # 13**(10**9), and a probe deeper than its config the same way
    assert TowerConfig(5, 13, levels=17).levels == 17
    for k in (18, 10**9):
        message = rf"^modulus 13\*\*{k} does not fit in int64$"
        with pytest.raises(InvalidParameterError, match=message):
            TowerConfig(5, 13, levels=k)
        with pytest.raises(InvalidParameterError, match=message):
            intersection_probe(TowerConfig(5, 13), 2, up_to_level=k)
    with pytest.raises(InvalidParameterError, match=r"^up_to_level must be >= 1, got 0$"):
        intersection_probe(TowerConfig(5, 13), 2, up_to_level=0)


def test_two_squares():
    assert two_squares(5) == (1, 2)
    assert two_squares(13) == (3, 2)
    assert two_squares(29) == (5, 2)
    assert two_squares(17) == (1, 4)
    with pytest.raises(InvalidParameterError):
        two_squares(7)


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
    assert lvl.graph.bipartition() is None
    assert all(is_psl(m) for m in _generator_matrices(lvl))


def test_cayley_pgl_is_bipartite():
    lvl = build_level(TowerConfig(5, 13, variant="cayley"), 1)
    assert lvl.graph.bipartition() is not None
    assert not any(is_psl(m) for m in _generator_matrices(lvl))


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
            assert lvl.graph.terminus[wit.vertex * lvl.degree + wit.generator] == wit.vertex
            gamma = Quaternion(*two_squares(q1), 0, 0)
            assert lvl.generators.gens[wit.generator] == gamma
            # the witness checks the loop's own edge: with gamma's edge at
            # the base moved elsewhere, it refuses, though its conjugate's
            # edge is still a loop
            table = lvl.table.copy()
            table[wit.vertex, wit.generator] = 1
            assert table[wit.vertex, lvl.generators.inverse_pairing[wit.generator]] == wit.vertex
            with pytest.raises(VerificationError, match="is not a loop"):
                loop_witness(dataclasses.replace(lvl, table=table))


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
    composed = c21.vertex_map[c32.vertex_map]

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
    assert cov.vertex_map[w2.vertex] == w1.vertex
    e2 = w2.vertex * l2.degree + w2.generator
    e1 = w1.vertex * l1.degree + w1.generator
    _, _, _, edge_map = covering_morphism(l2, l1, cov.vertex_map)
    assert edge_map[e2] == e1


def test_twist_sequence_determinism_and_compatibility():
    cfg = TowerConfig(5, 13, levels=3, twist_seed=42)
    t1 = twist_sequence(cfg)
    t2 = twist_sequence(cfg)
    assert t1 == t2
    assert t1.seed == 42 and len(t1.matrices) == 3
    for n in (2, 3):
        assert reduce_matrix(t1.matrices[n - 1], PrimePower(13, n - 1)) == t1.matrices[n - 2]
    t3 = twist_sequence(dataclasses.replace(cfg, twist_seed=43))
    assert t3 != t1
    # the draws come in order, so a longer sequence extends a shorter one
    assert twist_sequence(cfg, 2).matrices == t1.matrices[:2]
    assert twist_sequence(cfg, 5).matrices[:3] == t1.matrices


def test_twist_sequence_needs_a_seed():
    with pytest.raises(InvalidParameterError, match="twist seed"):
        twist_sequence(TowerConfig(5, 13, levels=2))


@pytest.mark.parametrize("q1,q2", [(5, 13), (13, 5)])
def test_one_seed_draws_one_twist_at_every_depth(q1, q2, monkeypatch):
    # build_level and the probe stop at _transitions, which is handed the
    # base matrix g(n) each of them read; no level or walk is built
    class Drawn(Exception):
        pass

    def record(variant, pp, smats, pairing, base_matrix):
        seen.append(base_matrix)
        raise Drawn

    seen = []
    monkeypatch.setattr(tower, "_transitions", record)
    degenerate = [s for s in range(300 + tower._RESEED_TRIES) if _raw_degenerate(q1, q2, s)]
    assert tuple(s for s in degenerate if s < 300) == RESEEDED_0_299[q1, q2]
    for seed in range(300):
        kept = next(s for s in range(seed, seed + tower._RESEED_TRIES) if s not in degenerate)
        shorter = ()
        for depth in (1, 2, 3):
            cfg = TowerConfig(q1, q2, levels=depth, twist_seed=seed)
            twist = twist_sequence(cfg)
            assert twist.seed == kept and twist.matrices[0] == raw_twist_draw(q1, q2, kept)
            assert twist.matrices[:depth - 1] == shorter
            shorter = twist.matrices
            for n in range(1, depth + 1):
                with pytest.raises(Drawn):
                    build_level(cfg, n)
                assert seen.pop() == twist.matrices[n - 1]
            with pytest.raises(Drawn):
                intersection_probe(cfg, 1)
            assert seen.pop() == twist.matrices[-1]


def test_twist_sequence_gives_up_after_the_reseed_tries(monkeypatch):
    cfg = TowerConfig(5, 13, levels=2, twist_seed=17)
    assert twist_sequence(cfg).seed == 18
    monkeypatch.setattr(tower, "_RESEED_TRIES", 1)
    with pytest.raises(VerificationError, match="after 1 tries from 17"):
        twist_sequence(cfg)
    with pytest.raises(InvalidParameterError, match="levels >= 1"):
        twist_sequence(cfg, 0)


def test_twist_sequence_psl_mode():
    cfg = TowerConfig(5, 29, levels=2, twist_seed=11)
    tw = twist_sequence(cfg)
    for m in tw.matrices:
        assert is_psl(m)


def test_twisted_level_isomorphic_to_untwisted():
    cfg = TowerConfig(5, 13, levels=2, twist_seed=7)
    for n in (1, 2):
        plain = build_level(TowerConfig(5, 13, levels=2), n)
        twisted = build_level(cfg, n)
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


def test_identity_twist_reproduces_untwisted(monkeypatch):
    from expander_forge.projgroup import identity
    from expander_forge.tower import TwistSequence

    def identity_twist(cfg, levels=None):
        n_levels = cfg.levels if levels is None else levels
        return TwistSequence(cfg.twist_seed, tuple(identity(PrimePower(cfg.q2, n))
                                                   for n in range(1, n_levels + 1)))

    monkeypatch.setattr(tower, "twist_sequence", identity_twist)
    cfg = TowerConfig(5, 13, levels=2, twist_seed=0)
    plain_cfg = TowerConfig(5, 13, levels=2)
    for n in (1, 2):
        plain = build_level(plain_cfg, n)
        twisted = build_level(cfg, n)
        assert np.array_equal(twisted.codes, plain.codes)
        assert np.array_equal(twisted.graph.terminus, plain.graph.terminus)
        assert np.array_equal(twisted.graph.inv, plain.graph.inv)


def test_twisted_covering_verifies():
    cfg = TowerConfig(5, 13, levels=2, twist_seed=7)
    l1 = build_level(cfg, 1)
    l2 = build_level(cfg, 2)
    cov = natural_covering(l2, l1)
    assert cov.verified
    # the standard-key loop vertex still persists down the twisted covering
    w2 = loop_witness(l2)
    w1 = loop_witness(l1)
    assert cov.vertex_map[w2.vertex] == w1.vertex


def test_seeded_config_builds_the_twisted_level():
    # The seed alone twists the level: the base vertex is the standard pair
    # (code 13^2 = 169) moved by g(2).  test_level_tables checks the whole
    # level against the tuple-state builder given twist_sequence(cfg).
    lvl = build_level(TowerConfig(5, 13, levels=2, twist_seed=7), 2)
    assert lvl.codes[0] == 22753 != lvl.pp.modulus


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
    gamma_hits = [h for h in probe.survivors if len(h.word) == 1]
    assert {h.quaternion.coefficients() for h in gamma_hits} == {
        (1, 2, 0, 0), (1, -2, 0, 0)
    }


def test_probe_word_cap():
    cfg = TowerConfig(5, 13, levels=1)
    with pytest.raises(InvalidParameterError,
                       match=r"^max_word_len 9 exceeds cap 8 \(~2929686 reduced words\)$"):
        intersection_probe(cfg, max_word_len=9)
    probe = intersection_probe(cfg, max_word_len=1)
    assert probe.survivor_letters() == ((0,), (5,))


def test_probe_twisted_eliminates_gamma():
    cfg = TowerConfig(5, 13, levels=3, twist_seed=42)
    probe, reseeds = probe_with_reseed(cfg, max_word_len=4, up_to_level=3)
    assert reseeds == ()
    assert probe.twist.seed == 42
    assert not probe.has_length_one_survivor()
    assert probe.survivors == ()


def test_seeded_probe_is_twisted_and_matches_the_reseeding_probe():
    # seed 17 is degenerate, so the seeded probe itself reads seed 18's twist
    for seed, kept in ((42, 42), (17, 18)):
        cfg = TowerConfig(5, 13, levels=3, twist_seed=seed)
        probe = intersection_probe(cfg, 4)
        assert probe.twisted and probe.up_to_level == 3
        assert not probe.has_length_one_survivor()
        assert probe_with_reseed(cfg, 4) == (probe, tuple(range(seed, kept)))
        assert probe.twist == twist_sequence(cfg)
        assert probe == intersection_probe(dataclasses.replace(cfg, twist_seed=kept), 4)
        plain = intersection_probe(dataclasses.replace(cfg, twist_seed=None), 4)
        assert not plain.twisted and plain.has_length_one_survivor()


def test_probe_deeper_than_the_config_draws_the_same_twist():
    shallow = TowerConfig(5, 13, levels=2, twist_seed=42)
    deep = TowerConfig(5, 13, levels=3, twist_seed=42)
    probe = intersection_probe(shallow, 6, up_to_level=3)
    assert probe.twisted and probe.up_to_level == 3
    assert probe == intersection_probe(deep, 6)


def test_degenerate_seed_is_reseeded_and_the_tower_built_from_the_next():
    # at seed 17, the raw g(1) conjugates a generator of (5,13) to a diagonal
    # matrix, and seed 18's does not
    assert _raw_degenerate(5, 13, 17) and not _raw_degenerate(5, 13, 18)
    cfg = TowerConfig(5, 13, levels=1, twist_seed=17)
    reseeded = dataclasses.replace(cfg, twist_seed=18)
    probe, reseeds = probe_with_reseed(cfg, 1)
    assert reseeds == (17,)
    assert probe.twist == twist_sequence(cfg) == twist_sequence(reseeded)
    assert probe == intersection_probe(cfg, 1) == intersection_probe(reseeded, 1)
    result = build_tower(cfg, probe_max_word_len=1)
    assert result.reseeds == (17,) and result.probe.twist.seed == 18
    assert result.config == cfg
    (lvl,) = result.levels
    assert lvl.config == cfg
    assert np.array_equal(lvl.codes, build_level(reseeded, 1).codes)


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
    assert result.probe.twist is not None and result.probe.twist.seed == 42
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
    assert s.spectral.bipartite
    assert s.spectral.ramanujan


def test_build_tower_psl_5_29():
    result = build_tower(TowerConfig(5, 29, levels=1))
    assert result.config.mode == "PSL"
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
        flags = [is_psl(m) for m in _generator_matrices(lvl)]
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
    assert (g.bipartition() is not None) is bipartite is traversal_bipartite(g)[0]


@pytest.mark.parametrize("q1,q2,seed", [(5, 13, None), (13, 5, 7), (5, 29, None)],
                         ids=["5-13", "13-5-twist7", "5-29-psl"])
def test_swap_commutes_with_generators_and_fibers_follow_the_covering(q1, q2, seed):
    cfg = TowerConfig(q1, q2, levels=2, twist_seed=seed)
    lower, upper = (build_level(cfg, n) for n in (1, 2))
    vmap = natural_covering(upper, lower).vertex_map
    orbits1, orbits2 = swap_orbits(lower), swap_orbits(upper)
    swaps = []
    for lvl, orbits in ((lower, orbits1), (upper, orbits2)):
        assert np.array_equal(spectra._checked_orbits(lvl.graph, orbits), orbits)
        assert np.all(orbits[:, 0] < orbits[:, 1])  # the lesser vertex represents
        swap = np.empty(lvl.graph.num_vertices, dtype=orbits.dtype)
        swap[orbits[:, 0]], swap[orbits[:, 1]] = orbits[:, 1], orbits[:, 0]
        assert np.array_equal(lvl.table[swap], swap[lvl.table])
        swaps.append(swap)
    # a level-1 fiber modulo the swap is one orbit of level 1, and the rows
    # run by the unordered pair of its points
    npts = p1_size(lower.pp)
    c0, c1 = np.divmod(lower.codes[orbits1[:, 0]], npts)
    assert np.all(np.diff(np.minimum(c0, c1) * npts + np.maximum(c0, c1)) > 0)
    # level 2's rows run by the level-1 orbit under both of their vertices,
    # then by representative
    row1 = np.empty(lower.graph.num_vertices, dtype=np.int64)
    row1[orbits1[:, 0]] = row1[orbits1[:, 1]] = np.arange(len(orbits1))
    fibers = row1[vmap[orbits2[:, 0]]]
    assert np.array_equal(fibers, row1[vmap[orbits2[:, 1]]])
    step = np.diff(fibers)
    assert np.all((step > 0) | ((step == 0) & (np.diff(orbits2[:, 0]) > 0)))
    assert np.array_equal(swaps[0][vmap], vmap[swaps[1]])


def test_swap_and_fibers_rejects_other_variants():
    for variant in ("borel", "cayley"):
        with pytest.raises(InvalidParameterError, match="cartan"):
            swap_orbits(build_level(TowerConfig(5, 13, variant=variant), 1))


def test_build_tower_solves_cartan_levels_on_swap_halves(monkeypatch):
    # cartan levels hand their swap orbits to the check; other variants none.
    # The levels are checked top level first.
    seen = []
    check = tower.ramanujan_check

    def recording(g, **kwargs):
        seen.append((g.num_vertices, {k: v is not None for k, v in kwargs.items()}))
        return check(g, **kwargs)

    monkeypatch.setattr(tower, "ramanujan_check", recording)
    build_tower(TowerConfig(13, 5, levels=2))
    build_tower(TowerConfig(5, 13, variant="borel"))
    on, off = {"orbits": True}, {"orbits": False}
    assert seen == [(750, on), (30, on), (14, off)]


def test_build_tower_runs_the_dense_solves_after_the_swap_halves(monkeypatch):
    # On (5,13) level 2 the two swap halves are solved on two threads before
    # level 1's dense solve wakes a BLAS thread; the summaries stay in level
    # order.
    calls = []
    dense, blocks = spectra._dense_values, spectra._solve_blocks
    monkeypatch.setattr(spectra, "_dense_values",
                        lambda a: calls.append(("dense", a.shape[0])) or dense(a))
    monkeypatch.setattr(spectra, "_solve_blocks",
                        lambda bs, norm: calls.append(("blocks", len(bs))) or blocks(bs, norm))
    result = build_tower(TowerConfig(5, 13, levels=2))
    assert calls == [("blocks", 2), ("dense", 182)]
    assert [(s.n, s.vertices) for s in result.summaries] == [(1, 182), (2, 30758)]
    assert [s.spectral.method for s in result.summaries] == ["dense", "iterative"]
