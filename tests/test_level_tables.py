"""The vectorized level builder and array covering check against the
original tuple-state builder and the link-by-link covering check, pinned
edge-list bytes, and the up-front memory refusals of levels, the eigensolve
and the probe's step tables."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import covering_verdict
from expander_forge import multigraph, spectra, tower
from expander_forge.cli import format_edgelist
from expander_forge.errors import InvalidMorphismError, InvalidParameterError, VerificationError
from expander_forge.multigraph import CoveringCheck, GraphMorphism, SerreGraph, is_covering
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
    twist = twist_sequence(cfg, seed) if seed is not None else None
    return cfg, twist, [build_level(cfg, n, twist) for n in range(1, top + 1)]


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
        assert cov.verified
        assert link_is_covering(cov.morphism) == is_covering(cov.morphism) == CoveringCheck(True)


def test_tables_filled_in_point_chunks(monkeypatch):
    # 11 divides no P^1 size used here, so every permutation is filled over
    # several chunks ending in a partial one
    cfg = TowerConfig(5, 13, levels=3, twist_seed=42)
    twist = twist_sequence(cfg, 42)
    want = [intersection_probe(cfg, 6, 3), intersection_probe(cfg, 6, 3, twist)]
    monkeypatch.setattr(tower, "_POINT_CHUNK", 11)
    assert [intersection_probe(cfg, 6, 3), intersection_probe(cfg, 6, 3, twist)] == want
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
    f = natural_covering(l2, l1).morphism
    vmap = f.vertex_map
    v, i = 417, 0
    w = l2.table[v, i]
    # x over another lower vertex than v, so both switched edges stop
    # commuting with the terminus; all four switched edges start at or after
    # v, so the first failing edge is (v, i)
    x = next(x for x in range(v + 1, len(vmap))
             if vmap[x] != vmap[v] and l2.table[x, i] > v and l2.table[x, i] != w)
    assert w > v
    corrupted = _two_switch(l2, v, x, i)
    e = l2.edge_id(v, i)
    reason = f"edge {e} does not commute with origin/terminus"
    with pytest.raises(InvalidMorphismError, match=f"^{reason}$"):
        link_is_covering(GraphMorphism(corrupted.graph, l1.graph, vmap, f.edge_map))
    with pytest.raises(VerificationError,
                       match=f"^covering 2 -> 1 failed at vertex {v}: {reason}$"):
        natural_covering(corrupted, l1)


def test_covering_check_names_missing_codes_and_missed_vertices():
    _, _, (l1, l2) = _levels(13, 5, "cartan", 2, None)
    vmap = natural_covering(l2, l1).morphism.vertex_map
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
    f = natural_covering(l2, l1).morphism
    vm, em = f.vertex_map, f.edge_map

    def changed(values, index, value):
        values = values.copy()
        values[index] = value
        return values

    assert covering_verdict(is_covering, f) == covering_verdict(link_is_covering, f) == (
        True, -1, "")
    # of an edge and its inverse, the lower id is checked first
    e = min(6000, int(l2.graph.inv[6000]))
    x = next(x for x in range(700, len(vm))
             if vm[x] != vm[600] and len({600, x, l2.table[600, 2], l2.table[x, 2]}) == 4)
    switched = _two_switch(l2, 600, x, 2)
    corrupted = [
        GraphMorphism(l2.graph, l1.graph, vm, changed(em, e, em[e + 1])),
        GraphMorphism(l2.graph, l1.graph, vm, changed(em, e, l1.graph.num_edges)),
        GraphMorphism(l2.graph, l1.graph, changed(vm, 600, -1), em),
        GraphMorphism(switched.graph, l1.graph, vm, em),
    ]
    verdicts = [covering_verdict(is_covering, g) for g in corrupted]
    assert verdicts == [covering_verdict(link_is_covering, g) for g in corrupted]
    assert verdicts[0][0] == verdicts[3][0] == "error"
    assert verdicts[0][1].startswith(f"edge {e} does not commute")
    assert verdicts[1:3] == [("error", "edge map image out of range"),
                             ("error", "vertex map image out of range")]


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
    twist = twist_sequence(cfg, seed) if seed is not None else None
    text = format_edgelist(build_level(cfg, n, twist).graph)
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
    solve = spectra.solve_bytes(30758, 30758 * 6)
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
    tracemalloc.start()
    try:
        spectra.ramanujan_check(g, q1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spectra.solve_bytes(g.num_vertices, g.num_edges)


def test_swap_halves_peak_within_solve_bytes():
    # the (5,13) cartan level 2 solved on its swap halves, as build_tower does
    lvl = build_level(TowerConfig(5, 13, levels=2), 2)
    swap, fibers = tower.swap_and_fibers(lvl)
    tracemalloc.start()
    try:
        report = spectra.ramanujan_check(lvl.graph, 5, swap=swap, locality=fibers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.method == "iterative"
    assert peak <= spectra.solve_bytes(lvl.graph.num_vertices, lvl.graph.num_edges)


def test_probe_refuses_step_tables_beyond_physical_memory(monkeypatch):
    # Memory between the level-3 and level-4 estimates of the probe's step
    # tables: level 3 runs unchanged, level 4 is refused before any work.
    cfg = TowerConfig(5, 13, levels=4, twist_seed=42)
    need3, need4 = tower._probe_bytes(cfg, 3), tower._probe_bytes(cfg, 4)
    assert 0 < need3 < need4
    twist = twist_sequence(cfg, 42)
    want = [intersection_probe(cfg, 6, 3), intersection_probe(cfg, 6, 3, twist)]

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the memory check")

    monkeypatch.setattr(tower, "_physical_memory", lambda: (need3 + need4) // 2)
    assert [intersection_probe(cfg, 6, 3), intersection_probe(cfg, 6, 3, twist)] == want
    monkeypatch.setattr(tower, "_transitions", no_work)
    for tw in (None, twist):
        with pytest.raises(InvalidParameterError, match=f"estimated {need4} bytes"):
            intersection_probe(cfg, 6, 4, tw)


def test_solve_bytes_dense_path():
    assert spectra.solve_bytes(182, 1092) == 8 * 182 * 182
