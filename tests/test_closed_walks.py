"""The closed-walk search at the base vertex against the original word
enumerator and the all-source girth, its per-hit confirmation, and the
pinned bytes of the word-length-8 probe."""

import hashlib
from unittest import mock

import numpy as np
import pytest

from expander_forge import multigraph, tower
from expander_forge.cli import EXIT_OK, main
from expander_forge.errors import InvalidParameterError, VerificationError
from expander_forge.multigraph import SerreGraph, girth
from expander_forge.quat import Quaternion
from expander_forge.tower import (
    TowerConfig,
    build_level,
    build_tower,
    intersection_probe,
    probe_with_reseed,
    twist_sequence,
)
from oracles import bfs_girth, cayley_girth_by_relator, word_enumeration_probe

# (q1, q2, top level N, longest word, twist seeds): every level 1..N and
# every word length 1..L is compared
PROBE_MATRIX = [
    (5, 13, 3, 6, (None, 7, 42)),
    (13, 5, 3, 4, (None,)),
    (5, 17, 2, 5, (3,)),
    (5, 29, 1, 5, (None,)),
]


@pytest.mark.parametrize("q1,q2,top,longest,seeds", PROBE_MATRIX)
def test_probe_matches_word_enumeration(q1, q2, top, longest, seeds):
    for seed in seeds:
        cfg = TowerConfig(q1, q2, levels=top, twist_seed=seed)
        twist = twist_sequence(cfg) if seed is not None else None
        for n in range(1, top + 1):
            for length in range(1, longest + 1):
                got = intersection_probe(cfg, length, n)
                want = word_enumeration_probe(cfg, length, n, twist)
                assert got.survivors == want.survivors, (seed, n, length)
                assert got.words_tested == want.words_tested
                assert got == want


def _walk_girth(level):
    return tower._walk_girth(lambda f: level.table[f], 0, level.generators.inverse_pairing)


@pytest.mark.parametrize("q1,q2,n,relator_len", [
    (5, 13, 1, 0),
    (5, 17, 1, 0),
    (13, 5, 1, 4),
    (17, 5, 1, 4),
    (13, 5, 2, 0),
])
def test_cayley_walk_girth_matches_all_source_girth(q1, q2, n, relator_len):
    # the all-source girth in batches of one source, of seven, and of the
    # default size; the Python BFS oracle runs on level 1 only, since it
    # takes about 15 s on (13,5) level 2
    level = build_level(TowerConfig(q1, q2, levels=n, variant="cayley"), n)
    g = level.graph
    walk = _walk_girth(level)
    for cells in (g.num_vertices, 7 * g.num_vertices, multigraph._GIRTH_CELLS):
        with mock.patch.object(multigraph, "_GIRTH_CELLS", cells):
            assert walk == girth(g), cells
    if n == 1:
        assert walk == bfs_girth(g)
    if relator_len:
        assert walk == cayley_girth_by_relator(q1, q2, n, max_len=relator_len)


@pytest.mark.slow
def test_build_tower_cayley_girth_13_5():
    result = build_tower(TowerConfig(13, 5, levels=2, variant="cayley"))
    girths = [s.girth for s in result.summaries]
    assert girths == [girth(lvl.graph) for lvl in result.levels] == [4, 6]
    assert girths[0] == cayley_girth_by_relator(13, 5, 1, max_len=4)


def test_walk_girth_loops_and_parallel_pairs():
    # A loop at the base closes at length 1 and a parallel pair at length 2,
    # the convention of multigraph.girth.
    pairing = np.array([1, 0, 3, 2])
    loop = np.array([[0, 0, 1, 1], [1, 1, 0, 0]])
    parallel = np.array([[1, 1, 1, 1], [0, 0, 0, 0]])
    for table, want in ((loop, 1), (parallel, 2)):
        nv, d = table.shape
        g = SerreGraph(nv, np.repeat(np.arange(nv), d), table.ravel(),
                       (table * d + pairing).ravel(), np.tile(np.arange(d), nv))
        assert tower._walk_girth(lambda f, t=table: t[f], 0, pairing) == girth(g) == want


def test_probe_confirms_each_hit(monkeypatch):
    # A survivor whose exact quaternion is not diagonal at some level must
    # fail loudly instead of being reported.
    cfg = TowerConfig(5, 13, levels=2)
    assert intersection_probe(cfg, 2, 2).survivors
    monkeypatch.setattr(tower, "evaluate_word", lambda *a, **k: Quaternion(1, 0, 2, 0))
    with pytest.raises(VerificationError, match="not diagonal at level 1"):
        intersection_probe(cfg, 2, 2)


def test_probe_rejects_depth_below_one():
    # seed 17 is degenerate at (5,13): the depth is refused before any seed
    # is drawn, and a twist sequence has no depth below one either
    cfg = TowerConfig(5, 13, levels=2)
    for depth in (0, -1):
        with pytest.raises(InvalidParameterError, match="up_to_level"):
            intersection_probe(cfg, 2, up_to_level=depth)
        with pytest.raises(InvalidParameterError, match="up_to_level"):
            probe_with_reseed(cfg, 2, up_to_level=depth)
        for seed in (42, 17):
            twisted = TowerConfig(5, 13, levels=2, twist_seed=seed)
            with pytest.raises(InvalidParameterError, match="up_to_level"):
                intersection_probe(twisted, 2, up_to_level=depth)
            with pytest.raises(InvalidParameterError, match="up_to_level"):
                probe_with_reseed(twisted, 2, up_to_level=depth)
            with pytest.raises(InvalidParameterError, match="levels >= 1"):
                twist_sequence(twisted, depth)


@pytest.mark.parametrize("extra,digest", [
    ([], "e19fcd86ff6e72f7595816587178c81fe141f3500bfed3999fb8cb9d229cf094"),
    (["--twist-seed", "42"],
     "2582865465f4df6e312a3629ec2b20fde9ec4f1c4862012914f7466988a74e2e"),
    # degenerate at level 1, so the probe reads seed 18 and says so
    (["--twist-seed", "17"],
     "208341829ba3934e1c793247d7eabc9c45d43d4ffc49f918da3abaa5b484e16e"),
])
def test_probe_word_length_8_bytes_pinned(extra, digest, capsys):
    rc = main(["probe", "--q1", "5", "--q2", "13", "--level", "3",
               "--max-word-len", "8"] + extra)
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "# 585936 reduced words tested" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
