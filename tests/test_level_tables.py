"""The vectorized level builder and array covering check against the
original tuple-state builder and the link-by-link covering check, pinned
edge-list bytes, the up-front memory refusals of levels, the eigensolve
and the probe's step tables, and a level's graph held as its table."""

import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import covering_morphism, traced_peak
from expander_forge import cli, multigraph, spectra, tower
from expander_forge.cli import format_edgelist
from expander_forge.errors import InvalidParameterError, VerificationError
from expander_forge.multigraph import CoveringCheck, SerreGraph, is_covering
from expander_forge.tower import (
    TowerConfig,
    build_level,
    build_tower,
    intersection_probe,
    natural_covering,
    twist_sequence,
)
from oracles import link_is_covering, tuple_state_level

# (q1, q2, variant, top level, twist seed): every level 1..top is checked
ORACLE_TOWERS = [
    (5, 13, "cartan", 2, None),
    (13, 5, "cartan", 3, None),
    (5, 29, "cartan", 1, None),  # PSL
    (13, 5, "borel", 3, None),
    (5, 13, "borel", 2, None),
    (5, 13, "cayley", 1, None),
    (13, 5, "cayley", 2, None),
    (5, 17, "cayley", 1, None),
    (5, 13, "cartan", 2, 7),
]


def _levels(q1, q2, variant, top, seed):
    cfg = TowerConfig(q1, q2, levels=top, variant=variant, twist_seed=seed)
    twist = twist_sequence(cfg) if seed is not None else None
    return cfg, twist, [build_level(cfg, n) for n in range(1, top + 1)]


@pytest.mark.parametrize("q1,q2,variant,top,seed", ORACLE_TOWERS)
def test_tables_match_tuple_state_oracle(q1, q2, variant, top, seed):
    cfg, twist, levels = _levels(q1, q2, variant, top, seed)
    for lvl in levels:
        table, codes = tuple_state_level(cfg, lvl.n, twist)
        assert lvl.table.tolist() == table
        assert lvl.codes.tolist() == codes
        assert np.array_equal(lvl.graph.terminus, lvl.table.reshape(-1))
    for upper, lower in zip(levels[1:], levels):
        cov = natural_covering(upper, lower)
        assert cov.verified and (cov.source_n, cov.target_n) == (upper.n, lower.n)
        f = covering_morphism(upper, lower, cov.vertex_map)
        assert link_is_covering(*f) == is_covering(*f) == CoveringCheck(True)


def test_tables_filled_in_point_chunks(monkeypatch):
    # 11 divides no P^1 size used here, so every permutation is filled over
    # several chunks ending in a partial one
    configs = [TowerConfig(5, 13, levels=3), TowerConfig(5, 13, levels=3, twist_seed=42)]
    want = [intersection_probe(cfg, 6) for cfg in configs]
    assert [p.twisted for p in want] == [False, True]
    monkeypatch.setattr(tower, "_POINT_CHUNK", 11)
    assert [intersection_probe(cfg, 6) for cfg in configs] == want
    for tower_args in [(5, 13, "cartan", 2, 7), (13, 5, "borel", 3, None)]:
        cfg, twist, levels = _levels(*tower_args)
        for lvl in levels:
            table, codes = tuple_state_level(cfg, lvl.n, twist)
            assert lvl.table.tolist() == table
            assert lvl.codes.tolist() == codes


def _two_switch(level, v, x, i):
    """level with the edges labelled i at v and at x exchanging targets, and
    their reverse edges following: the involution stays valid and every edge
    keeps its label."""
    d, pairing = level.degree, level.generators.inverse_pairing
    j = pairing[i]
    table = level.table.copy()
    w, y = table[v, i], table[x, i]
    assert len({v, w, x, y}) == 4
    table[v, i], table[x, i], table[w, j], table[y, j] = y, w, x, v
    g = level.graph
    graph = SerreGraph(g.num_vertices, g.origin, table.reshape(-1),
                       (table * d + np.asarray(pairing)).reshape(-1), g.label, g.meta)
    return dataclasses.replace(level, table=table, graph=graph)


def test_covering_check_names_corrupted_vertex():
    _, _, (l1, l2) = _levels(13, 5, "cartan", 2, None)
    _, _, vmap, emap = covering_morphism(l2, l1, natural_covering(l2, l1).vertex_map)
    v, i = 417, 0
    w = l2.table[v, i]
    # x over another lower vertex than v, so both switched edges stop
    # commuting with the terminus; all four switched edges start at or after
    # v, so the first failing edge is (v, i)
    x = next(x for x in range(v + 1, len(vmap))
             if vmap[x] != vmap[v] and l2.table[x, i] > v and l2.table[x, i] != w)
    assert w > v
    corrupted = _two_switch(l2, v, x, i)
    e = v * l2.degree + i
    reason = f"edge {e} does not commute with origin/terminus"
    assert link_is_covering(corrupted.graph, l1.graph, vmap, emap) == (
        CoveringCheck(False, v, reason))
    with pytest.raises(VerificationError,
                       match=f"^covering 2 -> 1 failed at vertex {v}: {reason}$"):
        natural_covering(corrupted, l1)


def test_covering_check_names_missing_codes_and_missed_vertices():
    _, _, (l1, l2) = _levels(13, 5, "cartan", 2, None)
    vmap = natural_covering(l2, l1).vertex_map
    w = 7
    # lower vertex w recoded as ((0:1), (0:1)), a pair no vertex has
    lower = dataclasses.replace(l1, codes=np.where(np.arange(30) == w, 0, l1.codes))
    first = np.flatnonzero(vmap == w)[0]
    with pytest.raises(VerificationError,
                       match=f"failed at vertex {first}: reduced code missing from level 1"):
        natural_covering(l2, lower)
    # every upper vertex over w recoded to lie over another vertex: w is
    # missed, but the maps stop commuting with the terminus first, at the
    # first (u, i) where the lower table disagrees with the recoded vertex map
    over = np.flatnonzero(vmap != w)[0]
    upper = dataclasses.replace(l2, codes=np.where(vmap == w, l2.codes[over], l2.codes))
    recoded = np.where(vmap == w, vmap[over], vmap)
    e = np.flatnonzero(l1.table[recoded] != recoded[l2.table])[0]
    with pytest.raises(VerificationError,
                       match=f"failed at vertex {e // l2.degree}: "
                             f"edge {e} does not commute with origin/terminus$"):
        natural_covering(upper, l1)


@pytest.mark.parametrize("chunk", [7, 1 << 20])
def test_covering_check_matches_link_oracle_on_levels(monkeypatch, chunk):
    # corruptions of a level-2 -> level-1 covering, with chunks small enough
    # that the first failure lies past several chunk boundaries
    monkeypatch.setattr(multigraph, "_VALIDATE_CHUNK", chunk)
    _, _, (l1, l2) = _levels(13, 5, "cartan", 2, None)
    f = covering_morphism(l2, l1, natural_covering(l2, l1).vertex_map)
    _, _, vm, em = f

    def changed(values, index, value):
        values = values.copy()
        values[index] = value
        return values

    assert is_covering(*f) == link_is_covering(*f) == CoveringCheck(True)
    # of an edge and its inverse, the lower id is checked first
    e = min(6000, int(l2.graph.inv[6000]))
    x = next(x for x in range(700, len(vm))
             if vm[x] != vm[600] and len({600, x, l2.table[600, 2], l2.table[x, 2]}) == 4)
    switched = _two_switch(l2, 600, x, 2)
    corrupted = [
        (l2.graph, l1.graph, vm, changed(em, e, em[e + 1])),
        (l2.graph, l1.graph, vm, changed(em, e, l1.graph.num_edges)),
        (l2.graph, l1.graph, changed(vm, 600, -1), em),
        (switched.graph, l1.graph, vm, em),
    ]
    verdicts = [is_covering(*g) for g in corrupted]
    assert verdicts == [link_is_covering(*g) for g in corrupted]
    assert not verdicts[3].ok and " does not commute with " in verdicts[3].reason
    assert verdicts[0].reason.startswith(f"edge {e} does not commute")
    assert verdicts[:3] == [
        CoveringCheck(False, e // l2.degree, verdicts[0].reason),
        CoveringCheck(False, e // l2.degree, "edge map image out of range"),
        CoveringCheck(False, 600, "vertex map image out of range")]


# sha256 of format_edgelist(build_level(...).graph), recorded with the
# original tuple-state builder
PINNED_EDGE_LISTS = [
    ((13, 5, "cartan", 2, None), "78ab4c56303ff06347cd0dd154386b0fd853a58b1412638ff3ba556767f8d113"),
    ((5, 29, "cartan", 1, None), "38dc78067dae4d86c4ded7288d33c5da4f9755c5a149fbae7d7f478d15f3b7a8"),
    ((5, 13, "cartan", 2, 7), "611d52a3313c4175f509e26480e46f6a0a77dd4c53c87bfbf223903b505f1fb1"),
    ((5, 13, "borel", 2, None), "c6c13ed5d80bade3fb347164b6982a565cb4d46035751cf5f12cca930dec6084"),
    ((13, 5, "borel", 3, None), "fba6d9a19f78ff2fc29db4924d8070995b80214ddf1a38a10936b7fc8e9ecc6c"),
    ((5, 13, "cayley", 1, None), "0749d4096e265863ae1f69de147686dd51f6f0d1b2260f3868e9ed90cdacb048"),
    ((13, 5, "cayley", 2, None), "eb199677b9399a39f9b8c839ee6003d24d30fa1e15e90c9cc3fc402e7118b84e"),
]


@pytest.mark.parametrize("level,digest", PINNED_EDGE_LISTS)
def test_edge_list_bytes_pinned(level, digest):
    q1, q2, variant, n, seed = level
    cfg = TowerConfig(q1, q2, levels=n, variant=variant, twist_seed=seed)
    text = format_edgelist(build_level(cfg, n).graph)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_refuses_levels_beyond_physical_memory(monkeypatch):
    cfg = TowerConfig(5, 13, levels=2)
    need = tower.estimated_bytes(cfg, 2)
    assert need > tower.estimated_bytes(cfg, 1) > 0

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the memory check")

    monkeypatch.setattr(tower, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(tower, "_bfs", no_work)
    monkeypatch.setattr(tower, "probe_with_reseed", no_work)
    with pytest.raises(InvalidParameterError, match=f"estimated {need} bytes"):
        build_level(cfg, 2)
    with pytest.raises(InvalidParameterError, match="physical memory"):
        build_tower(cfg)
    monkeypatch.undo()
    monkeypatch.setattr(tower, "_physical_memory", lambda: need)
    assert build_level(cfg, 2).graph.num_vertices == 30758


def test_tower_refusal_counts_the_eigensolve(monkeypatch):
    # Memory that holds the levels but not the top level's Lanczos vectors
    # and CSR matrix: build_tower refuses before any work, build_level builds.
    cfg = TowerConfig(5, 13, levels=2)
    levels_only = tower.estimated_bytes(cfg, 1) + tower.estimated_bytes(cfg, 2)
    solve = spectra.solve_bytes(30758, 30758 * 6, True)
    assert solve >= 16 * 30758 * 8 + (8 + 4) * 30758 * 6

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the memory check")

    monkeypatch.setattr(tower, "_physical_memory", lambda: levels_only + solve - 1)
    monkeypatch.setattr(tower, "probe_with_reseed", no_work)
    monkeypatch.setattr(tower, "build_level", no_work)
    with pytest.raises(InvalidParameterError,
                       match=f"top eigensolve need an estimated {levels_only + solve} bytes"):
        build_tower(cfg)
    monkeypatch.undo()
    monkeypatch.setattr(tower, "_physical_memory", lambda: levels_only + solve - 1)
    assert build_level(cfg, 2).graph.num_vertices == 30758


@pytest.mark.parametrize("q1,q2,variant", [(13, 5, "cayley"), (5, 13, "cartan")])
def test_ramanujan_check_peak_within_solve_bytes(q1, q2, variant):
    # level 2: 15,000 vertices of degree 14, bipartite, which peaks in the
    # double-cover component count; and 30,758 vertices of degree 6 with loops
    g = build_level(TowerConfig(q1, q2, levels=2, variant=variant), 2).graph
    report, peak = traced_peak(spectra.ramanujan_check, g)
    assert report.q == q1
    assert peak <= spectra.solve_bytes(g.num_vertices, g.num_edges, variant == "cartan")


def test_swap_halves_peak_within_solve_bytes():
    # the (5,13) cartan level 2 solved on its swap halves, as build_tower does
    lvl = build_level(TowerConfig(5, 13, levels=2), 2)
    orbits = tower.swap_orbits(lvl)
    report, peak = traced_peak(lambda: spectra.ramanujan_check(lvl.graph, orbits=orbits))
    assert report.method == "iterative"
    assert peak <= spectra.solve_bytes(lvl.graph.num_vertices, lvl.graph.num_edges, True)


def test_swap_halves_construction_peak_per_edge():
    # built straight as CSR, the (5,13) cartan level-2 halves peak near the
    # 12.7 bytes an edge they hold; a conversion from COO takes 24.8
    lvl = build_level(TowerConfig(5, 13, levels=2), 2)
    orbits = spectra._checked_orbits(lvl.graph, tower.swap_orbits(lvl))
    _, peak = traced_peak(spectra._swap_halves, lvl.graph, orbits)
    assert peak < 18 * lvl.graph.num_edges


def test_probe_refuses_step_tables_beyond_physical_memory(monkeypatch):
    # Memory between the level-3 and level-4 estimates of the probe's step
    # tables: level 3 runs unchanged, level 4 is refused before any work.
    configs = [TowerConfig(5, 13, levels=4), TowerConfig(5, 13, levels=4, twist_seed=42)]
    need3, need4 = tower._probe_bytes(configs[0], 3), tower._probe_bytes(configs[0], 4)
    assert 0 < need3 < need4
    want = [intersection_probe(cfg, 6, 3) for cfg in configs]
    assert [p.twisted for p in want] == [False, True]

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the memory check")

    monkeypatch.setattr(tower, "_physical_memory", lambda: (need3 + need4) // 2)
    assert [intersection_probe(cfg, 6, 3) for cfg in configs] == want
    monkeypatch.setattr(tower, "_transitions", no_work)
    monkeypatch.setattr(tower, "twist_sequence", no_work)
    for cfg in configs:
        with pytest.raises(InvalidParameterError, match=f"estimated {need4} bytes"):
            intersection_probe(cfg, 6, 4)


def test_solve_bytes_dense_path():
    assert spectra.solve_bytes(182, 1092, True) == 8 * 182 * 182


def test_solve_bytes_charges_the_double_cover_only_without_a_loop(tmp_path):
    # (13,5) cayley level 2, 15,000 vertices and 210,000 directed edges,
    # int32 ids, where the component count outweighs the solve: with a loop
    # only the V-vertex count would run, 24 bytes an edge and 12 a vertex;
    # without one the double cover's runs too, 28 and 24.
    nv, ne = 15000, 210000
    assert spectra.solve_bytes(nv, ne, True) == 24 * ne + 12 * nv == 5_220_000
    assert spectra.solve_bytes(nv, ne, False) == 28 * ne + 24 * nv == 6_240_000
    # (5,13) cartan level 2, 30,758 vertices and 184,548 edges with loops:
    # the Lanczos vectors and CSR adjacency dominate
    nv, ne = 30758, 184548
    solve = 8 * 16 * nv + (8 + 4) * ne + 4 * (nv + 1)
    assert spectra.solve_bytes(nv, ne, True) == solve == 6_274_636
    # the loaded level's four arrays count on the same CSR pattern
    path = tmp_path / "level2.edges"
    cli.write_edgelist(str(path), build_level(TowerConfig(5, 13, levels=2), 2).graph)
    g = cli.load_graph(str(path))
    assert g.table is None and g.geometric_loop_count()
    report, peak = traced_peak(spectra.ramanujan_check, g)
    assert report.method == "iterative" and peak <= spectra.solve_bytes(nv, ne, True)


@pytest.mark.parametrize("q1,q2,variant,n", [(5, 13, "cartan", 2), (13, 5, "cayley", 2),
                                             (5, 17, "cayley", 1), (5, 13, "borel", 3)])
def test_build_level_peak_within_estimated_bytes(q1, q2, variant, n):
    # 30,758 vertices of degree 6 and 15,000 of degree 14, where the BFS
    # sets the peak; 4,896 and 2,366 vertices of degree 6, where the graph
    # check's chunk does
    cfg = TowerConfig(q1, q2, levels=n, variant=variant)
    lvl, peak = traced_peak(build_level, cfg, n)
    assert lvl.graph.num_vertices == tower.expected_vertices(cfg, n)
    assert peak <= tower.estimated_bytes(cfg, n)


def test_built_level_holds_no_edge_length_array_besides_its_table(tmp_path):
    # the graph of a built level holds its table and the pairing; origin,
    # label and inv are computed on each access, and terminus is a view of
    # the table.  A file read back holds the four arrays.
    lvl = build_level(TowerConfig(5, 13, levels=2), 2)
    g, d, ne = lvl.graph, lvl.degree, lvl.graph.num_edges
    assert g.table is lvl.table and g.pairing.tolist() == list(lvl.generators.inverse_pairing)
    held = [getattr(g, name) for name in SerreGraph.__slots__ if hasattr(g, name)]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert [a for a in arrays if a.size >= ne] == [lvl.table]
    assert max(a.size for a in arrays if a is not lvl.table) < ne
    assert np.shares_memory(g.terminus, lvl.table)
    for name in ("origin", "label", "inv"):
        assert getattr(g, name) is not getattr(g, name), name
    assert np.array_equal(g.origin, np.repeat(np.arange(g.num_vertices), d))
    assert np.array_equal(g.label, np.tile(np.arange(d), g.num_vertices))
    assert np.array_equal(g.inv, (lvl.table * d + g.pairing).reshape(-1))
    path = tmp_path / "level2.edges"
    cli.write_edgelist(str(path), g)
    loaded = cli.load_graph(str(path))
    assert loaded.table is None and loaded.origin is loaded.origin
    for name in ("origin", "terminus", "label", "inv"):
        assert np.array_equal(getattr(loaded, name), getattr(g, name)), name


def test_table_level_readers_trace_less_than_the_three_arrays(tmp_path):
    # (5,17) cartan level 2: 530,604 directed edges, whose origin, label and
    # inv as int32 took 12 bytes an edge.  Measured: natural_covering 10.1
    # bytes an edge (its edge map, the check's V-length scratch and the code
    # reduction), girth and the loop count 1.7 (a boolean per edge and a
    # vertex range), write_edgelist 4.0 (one chunk in flight).
    cfg = TowerConfig(5, 17, levels=2)
    l1, l2 = build_level(cfg, 1), build_level(cfg, 2)
    g, ne = l2.graph, l2.graph.num_edges
    cover, peak = traced_peak(natural_covering, l2, l1)
    assert cover.verified and peak <= 11 * ne
    gir, peak = traced_peak(multigraph.girth, g)
    assert gir == 1 and peak <= 2 * ne
    loops, peak = traced_peak(g.geometric_loop_count)
    assert loops > 0 and peak <= 2 * ne
    path = tmp_path / "level2.edges"
    _, peak = traced_peak(cli.write_edgelist, str(path), g)
    assert peak <= 5 * ne
    assert path.read_text() == format_edgelist(g)


def _derived_error(table, pairing) -> str:
    """The message of the four-array constructor on the arrays derived from
    table and pairing, or "" when it accepts them."""
    nv, d = table.shape
    try:
        SerreGraph(nv, np.repeat(np.arange(nv), d), table.reshape(-1),
                   (table * d + np.asarray(pairing)).reshape(-1), np.tile(np.arange(d), nv))
    except InvalidParameterError as err:
        return str(err)
    return ""


@pytest.mark.parametrize("chunk", [7, 1 << 15])
def test_corrupted_table_entry_raises_the_four_array_message(monkeypatch, chunk):
    # each corruption of the (5,13) cartan level-1 table, 182 x 6, fails
    # from_table with the message the four derived arrays fail with, at the
    # same first edge; chunks of 7 ids put that edge past chunk boundaries
    monkeypatch.setattr(multigraph, "_VALIDATE_CHUNK", chunk)
    lvl = build_level(TowerConfig(5, 13), 1)
    pairing = lvl.generators.inverse_pairing
    nv = lvl.graph.num_vertices
    # an edge (v, i) whose reverse, at w > v, has the larger id
    v, i = next((v, i) for v in range(100, nv) for i in range(6) if lvl.table[v, i] > v)
    w = int(lvl.table[v, i])
    corruptions = [(v, i, nv), (v, i, -1), (v, i, 2**40), (v, i, (w + 1) % nv), (v, i, v)]
    messages = []
    for x, j, value in corruptions:
        table = lvl.table.astype(np.int64)
        table[x, j] = value
        want = _derived_error(table, pairing)
        assert want.startswith("edge ") or want.startswith("involution "), want
        with pytest.raises(InvalidParameterError) as err:
            SerreGraph.from_table(table, pairing)
        assert str(err.value) == want
        messages.append(want)
    e = v * 6 + i
    assert messages[:3] == [f"edge {e} has endpoint out of range"] * 3
    # moved to another vertex or to itself, (v, i) is no longer the reverse
    # of its reverse
    assert messages[3:] == [f"involution not involutive at edge {e}"] * 2
    # a label paired with itself: an edge that is its own reverse is a fixed
    # point, as in the four arrays
    table = np.array([[1, 0], [0, 1]])
    want = _derived_error(table, (0, 1))
    assert want.startswith("involution fixed point at edge 1 (0 -> 0): ")
    with pytest.raises(InvalidParameterError) as err:
        SerreGraph.from_table(table, (0, 1))
    assert str(err.value) == want
    # a pairing that is no involution of the labels fails as its arrays do
    assert _derived_error(lvl.table, pairing) == ""
    for bad in [(1, 2, 0, 3, 4, 5), (0, 1, 2, 3, 4, 6)]:
        want = _derived_error(lvl.table, bad)
        assert want.startswith("involution "), want
        with pytest.raises(InvalidParameterError) as err:
            SerreGraph.from_table(lvl.table, bad)
        assert str(err.value) == want
