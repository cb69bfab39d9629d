"""The block-wise edge-list writer and reader against the original string
writer and per-line reader kept in oracles.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_multigraphs
from expander_forge import cli
from expander_forge.cli import format_edgelist, parse_edgelist
from expander_forge.errors import InvalidParameterError
from expander_forge.multigraph import SerreGraph
from expander_forge.tower import TowerConfig, build_level
from oracles import line_edge_rows, string_format_edgelist

META = dict(q1=0, q2=0, n=0, variant="fixture", mode="NA")
INT64 = st.integers(-(2**63), 2**63 - 1)


def _with_meta(g: SerreGraph) -> SerreGraph:
    g.meta.update(META, V=g.num_vertices)
    return g


def _rows(g: SerreGraph) -> np.ndarray:
    return np.stack([g.origin, g.terminus, g.label, g.inv], axis=1)


def _assert_matches_oracles(g: SerreGraph):
    """Writer bytes, reader arrays and the round trip equal the oracles'."""
    text = format_edgelist(g)
    assert text == string_format_edgelist(g)
    back = parse_edgelist(text)
    assert back.num_vertices == g.num_vertices and back.meta == g.meta
    assert np.array_equal(_rows(back), line_edge_rows(text))
    assert format_edgelist(back) == text


@pytest.mark.properties
@settings(max_examples=150)
@given(random_multigraphs(), st.data())
def test_writer_and_reader_match_oracles_random(g, data):
    labels = data.draw(st.lists(INT64, min_size=g.num_edges, max_size=g.num_edges))
    _assert_matches_oracles(_with_meta(g))
    _assert_matches_oracles(_with_meta(SerreGraph(g.num_vertices, g.origin, g.terminus,
                                                  g.inv, labels)))


@pytest.mark.properties
@settings(max_examples=100)
@given(random_multigraphs(), st.data())
def test_reader_matches_oracle_on_respaced_text(g, data):
    # runs of spaces and tabs, blank lines and any of the three line ends
    lines = format_edgelist(_with_meta(g)).splitlines()
    blanks = st.text(" \t", max_size=3)
    eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    out = [lines[0]]
    for line in lines[1:]:
        tokens = [data.draw(blanks) + tok for tok in line.split()]
        out.append(" ".join(tokens) + data.draw(blanks))
        if data.draw(st.booleans()):
            out.append(data.draw(blanks))
    text = eol.join(out) + data.draw(st.sampled_from(["", eol]))
    assert np.array_equal(_rows(parse_edgelist(text)), line_edge_rows(text))


def test_digit_boundaries():
    # ids on both sides of every power of ten up to 10**6, labels of 1 to 19
    # digits and either sign up to the int64 extremes; 600 loops at vertex 0
    # carry the inverse ids past 1000
    edges = [(10**k, 10 ** (k + 1) - 1) for k in range(6)] + [(0, 0)] * 600
    labels = [-1, 2**63 - 1, -(2**63), 0, 9, 10, 99, 100, 999, 1000,
              10**18 - 1, 10**18, -9, -10]
    geom_labels = [labels[i % len(labels)] for i in range(len(edges))]
    g = _with_meta(SerreGraph.from_geometric_edges(10**6, edges, geom_labels))
    _assert_matches_oracles(g)
    tokens = set(format_edgelist(g).split()[9:])  # after the header
    assert {str(v) for v in labels} <= tokens
    assert {str(v) for k in range(7) for v in (10**k - 1, 10**k)} - {"1000000"} <= tokens


def test_blocks_do_not_change_bytes_or_the_named_line(monkeypatch):
    g = build_level(TowerConfig(5, 13), 1).graph
    text = format_edgelist(g)
    lines = text.splitlines(keepends=True)
    bad = lines[:4] + ["0 1 2 x\n"] + lines[4:9] + ["0 1 2\n"] + lines[9:]
    with pytest.raises(InvalidParameterError) as whole:
        parse_edgelist("".join(bad))
    assert str(whole.value) == "malformed edge line: '0 1 2 x'"

    # 7 rows a chunk and blocks of one or two lines, ending mid-file
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 13)
    blocks = []
    parse_block = cli._parse_block

    def recording(b):
        blocks.append(b.tobytes())
        return parse_block(b)

    monkeypatch.setattr(cli, "_parse_block", recording)
    assert format_edgelist(g) == text
    back = parse_edgelist(text)
    assert np.array_equal(_rows(back), _rows(g))
    assert len(blocks) > 300 and b"".join(blocks) == text[text.index("\n"):].encode()
    for eol in ("\r\n", "\r"):
        assert np.array_equal(_rows(parse_edgelist(text.replace("\n", eol))), _rows(g))
    blocks.clear()
    with pytest.raises(InvalidParameterError) as chunked:
        parse_edgelist("".join(bad))
    assert str(chunked.value) == str(whole.value)
    assert blocks[-1].endswith(b"0 1 2 x\n") and blocks[-1].count(b"\n") <= 2
    assert len(blocks) == 2


def test_shuffled_graph_writes_the_text_of_its_sorted_twin(monkeypatch):
    # A built level's edges are in file order, so they are written without a
    # sort.  The same edges under shuffled ids, or with each vertex's labels
    # reversed, are sorted into the same text.
    g = build_level(TowerConfig(5, 13), 1).graph
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys[0])) or lexsort(keys))
    text = format_edgelist(g)
    assert sorts == [] and text == string_format_edgelist(g)
    ids = np.arange(g.num_edges)
    for new in (np.random.default_rng(3).permutation(g.num_edges), ids // 6 * 6 + 5 - ids % 6):
        # edge e gets id new[e]
        def moved(a):
            out = np.empty_like(a)
            out[new] = a
            return out

        twin = SerreGraph(g.num_vertices, moved(g.origin), moved(g.terminus),
                          moved(new[g.inv]), moved(g.label), meta=g.meta)
        sorts.clear()
        assert format_edgelist(twin) == text
        assert sorts == [g.num_edges]
        assert cli.graph_to_json(twin) == cli.graph_to_json(g)
