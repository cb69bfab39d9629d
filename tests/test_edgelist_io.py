"""The block-wise edge-list writer and reader, and the JSON and DOT writers
on the same digit kernel, against the original string writers and per-line
reader kept in oracles.py; failed streamed writes; and the memory the
writes, the read and the graph checks hold."""

import errno
import itertools
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (from_geometric_edges, format_dot, parse_edgelist, random_multigraphs,
                      traced_peak)
from expander_forge import cli, multigraph
from expander_forge.cli import _header_line, dump_report, format_edgelist
from expander_forge.errors import InvalidParameterError
from expander_forge.multigraph import SerreGraph
from expander_forge.tower import TowerConfig, build_level
from oracles import graph_to_json, line_edge_rows, string_format_dot, string_format_edgelist

META = dict(q1=0, q2=0, n=0, variant="fixture", mode="NA")
INT64 = st.integers(-(2**63), 2**63 - 1)


def _with_meta(g: SerreGraph) -> SerreGraph:
    g.meta.update(META, V=g.num_vertices)
    return g


def _rows(g: SerreGraph) -> np.ndarray:
    return np.stack([g.origin, g.terminus, g.label, g.inv], axis=1)


def _json_text(g: SerreGraph) -> str:
    """The JSON graph text that export writes for g."""
    return "".join(cli._graph_pieces(g, "json"))


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
    g = _with_meta(from_geometric_edges(10**6, edges, geom_labels))
    _assert_matches_oracles(g)
    tokens = set(format_edgelist(g).split()[9:])  # after the header
    assert {str(v) for v in labels} <= tokens
    assert {str(v) for k in range(7) for v in (10**k - 1, 10**k)} - {"1000000"} <= tokens


def _block_recorder(monkeypatch):
    """Record every block _parse_block is given, in call order, as (offset
    in the file's bytes, bytes)."""
    blocks = []
    parse_block = cli._parse_block

    def recording(b):
        offset = b.ctypes.data - np.frombuffer(b.base, np.uint8).ctypes.data
        blocks.append((offset, b.tobytes()))
        return parse_block(b)

    monkeypatch.setattr(cli, "_parse_block", recording)
    return blocks


def _tiled(blocks, start) -> bool:
    """Whether the (offset, bytes) blocks follow each other from start with
    no gap or overlap."""
    return [at for at, _ in blocks] == list(
        itertools.accumulate([len(b) for _, b in blocks[:-1]], initial=start))


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
    blocks = _block_recorder(monkeypatch)
    assert format_edgelist(g) == text
    back = parse_edgelist(text)
    assert np.array_equal(_rows(back), _rows(g))
    # the blocks tile the text after the header, each parsed once, in order
    assert len(blocks) > 300 and _tiled(blocks, text.index("\n"))
    assert b"".join(b for _, b in blocks) == text[text.index("\n"):].encode()
    for eol in ("\r\n", "\r"):
        assert np.array_equal(_rows(parse_edgelist(text.replace("\n", eol))), _rows(g))
    blocks.clear()
    with pytest.raises(InvalidParameterError) as chunked:
        parse_edgelist("".join(bad))
    # The error names the first malformed line.  Every block before the one
    # holding it was parsed, in order, and no block after it was started.
    assert str(chunked.value) == str(whole.value)
    assert _tiled(blocks, text.index("\n"))
    failing = next(i for i, (_, b) in enumerate(blocks) if b"0 1 2 x\n" in b)
    assert blocks[failing][1].count(b"\n") <= 2
    assert len(blocks) == failing + 1


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
        assert _json_text(twin) == _json_text(g)


# int64 values with the extremes, 0, -1 and 19-digit magnitudes drawn often
EXTREMES = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, 0, -1, 10**18, -(10**18),
                                      10**19 - 10**18 - 1]), INT64)


@pytest.mark.properties
@settings(max_examples=60)
@given(random_multigraphs(), st.data())
def test_writers_match_oracles_at_every_chunk_size(g, data):
    labels = data.draw(st.lists(EXTREMES, min_size=g.num_edges, max_size=g.num_edges))
    g = _with_meta(SerreGraph(g.num_vertices, g.origin, g.terminus, g.inv, labels))
    rows = data.draw(st.lists(st.lists(EXTREMES, min_size=4, max_size=4), min_size=1,
                              max_size=9))
    cols = list(np.array(rows, dtype=np.int64).T)
    for chunk in (1, 7, cli._CHUNK_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CHUNK_ROWS", chunk)
            assert format_edgelist(g) == string_format_edgelist(g)
            assert _json_text(g) == dump_report(graph_to_json(g))
            assert format_dot(g) == string_format_dot(g)
    flat = np.stack(cols, axis=1).ravel().tolist()
    lines = ("%d %d %d %d\n" * len(rows)) % tuple(flat)
    assert cli._rows_text(cli._EDGE_LINES, 0, cols) == cli._rows_text(cli._EDGE_LINES, 1, cols)
    assert cli._rows_text(cli._EDGE_LINES, 0, cols) == lines
    # the rows as json.dumps indents them two levels down; a chunk after
    # the first starts with the row separator
    nested = json.dumps({"edges": rows}, indent=2)[len('{\n  "edges": ['):-len("\n  ]\n}")]
    assert cli._rows_text(cli._JSON_ROWS, 0, cols) == nested
    assert cli._rows_text(cli._JSON_ROWS, 1, cols) == "," + nested


def _extreme_graph(geometric_edges: int, seed: int) -> SerreGraph:
    """A random graph of 100 vertices with the given count of geometric
    edges, each a row in the DOT text, its labels drawn from the int64
    extremes, small values and -1, and its edges out of file order."""
    rng = np.random.default_rng(seed)
    ends = rng.integers(0, 100, (geometric_edges, 2))
    labels = rng.choice([-(2**63), -(2**31) - 1, -10, -1, -1, 0, 9, 10, 2**31, 2**63 - 1],
                        geometric_edges)
    return _with_meta(from_geometric_edges(100, ends.tolist(), labels.tolist()))


@pytest.mark.parametrize("rows", [cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1])
def test_kernels_match_oracles_at_a_chunk_edge(rows):
    # One full chunk, and one row past it.  A graph of `rows` geometric
    # edges has 2 * rows edge lines and `rows` DOT edge rows; `rows`
    # vertices make as many DOT vertex rows.
    g = _extreme_graph(rows, rows)
    assert format_edgelist(g) == string_format_edgelist(g)
    assert _json_text(g) == dump_report(graph_to_json(g))
    assert format_dot(g) == string_format_dot(g)
    vertices = SerreGraph(rows, [], [], [], [])
    assert format_dot(vertices) == string_format_dot(vertices)
    # and the edge-line and JSON row kernels on `rows` rows of int64 values
    cols = list(np.random.default_rng(rows).choice(
        [-(2**63), -(2**63) + 1, -1, 0, 1, 9, 10, 99, 10**18, 2**63 - 1], (4, rows)))
    flat = np.stack(cols, axis=1).ravel().tolist()
    assert cli._rows_text(cli._EDGE_LINES, 1, cols) == ("%d %d %d %d\n" * rows) % tuple(flat)
    nested = json.dumps({"edges": np.stack(cols, axis=1).tolist()}, indent=2)
    assert cli._rows_text(cli._JSON_ROWS, 0, cols) == nested[len('{\n  "edges": ['):
                                                              -len("\n  ]\n}")]


def test_kernels_match_oracles_on_a_graph_of_no_edges():
    g = _with_meta(SerreGraph(5, [], [], [], []))
    text = format_edgelist(g)
    assert text == string_format_edgelist(g) == _header_line(g.meta) + "\n"
    assert _json_text(g) == dump_report(graph_to_json(g))
    assert format_dot(g) == string_format_dot(g)
    for eol in ("\n", "\r\n"):
        back = parse_edgelist(text.replace("\n", eol) + eol + " \t" + eol)
        assert back.num_vertices == 5 and back.num_edges == 0 and back.meta == g.meta


def test_crlf_file_reads_as_its_lf_twin(monkeypatch):
    # CRLF line ends on a list of two full blocks and more, with the blocks
    # cut on every kind of line end
    g = _extreme_graph(cli._CHUNK_ROWS + 1, 7)
    text = format_edgelist(g)
    crlf = text.replace("\n", "\r\n")
    assert len(crlf) > 2 * cli._BLOCK_BYTES
    assert np.array_equal(_rows(parse_edgelist(crlf)), line_edge_rows(crlf))
    assert np.array_equal(_rows(parse_edgelist(crlf)), _rows(parse_edgelist(text)))
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 1000)
    back = parse_edgelist(crlf)
    assert np.array_equal(_rows(back), line_edge_rows(text))
    assert format_edgelist(back) == text


# Each malformed line, and whether the per-line oracle refuses it too: it
# reads tokens by int(), which takes a '+', '_' or non-ASCII digit.
MALFORMED = [
    ("0 1 2 x", True), ("0 1 2", True), ("0 1 2 3 4", True), ("0 1 2 -", True),
    ("0 1 2 3-", True), ("0 1 2 --3", True), ("0 1 2 - 3", True), ("0 1, 2 3", True),
    ("9223372036854775808 0 0 0", True), ("0 -9223372036854775809 0 0", True),
    ("0 0 0 10000000000000000000", True), ("0 0 0 00000" + "1" + "0" * 19, True),
    ("0 1 2 +3", False), ("0 1 2 1_0", False), ("0 1 2 \u0663", False), ("0\x0b1 2 3", False),
]


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("line,oracle", MALFORMED)
def test_malformed_line_messages_are_unchanged(line, oracle, eol):
    # The malformed line follows valid lines holding the int64 extremes and
    # leading zeros, and precedes one more malformed line.
    good = ["-9223372036854775808 9223372036854775807 0 1",
            "0000000000000000000000000000009 -0 00 1", "1 0 0 0"]
    text = eol.join([_header_line(dict(META, V=2))] + good + [line, "0 x 0 0", ""])
    message = f"malformed edge line: {line!r}"
    with pytest.raises(InvalidParameterError) as err:
        parse_edgelist(text)
    assert str(err.value) == message
    if oracle:
        with pytest.raises(InvalidParameterError) as err:
            line_edge_rows(text)
        assert str(err.value) == message


def test_json_export_matches_oracle_on_built_levels(monkeypatch):
    # (5,13) cartan level 2 has 184,548 rows: six chunks, joined by the
    # row separator, each formatted on the calling thread with no other
    # thread started
    log = _thread_log(monkeypatch, "_rows_text")
    before = threading.active_count()
    for variant, n, chunks in (("cartan", 1, 1), ("cayley", 1, 1), ("cartan", 2, 6)):
        g = build_level(TowerConfig(5, 13, variant=variant, levels=n), n).graph
        log.clear()
        assert _json_text(g) == dump_report(graph_to_json(g))
        assert len(log) == chunks
    assert {entry[1:] for entry in log} == {(threading.main_thread(), before)}


def test_json_export_matches_oracle_on_unsorted_edgeless_and_unusual_meta(monkeypatch):
    # Edges out of file order take the sort branch.  An edgeless graph, with
    # or without meta, is json.dumps's own text.  Meta of non-ASCII text,
    # quotes and nested values is escaped by json.dumps.
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys[0])) or lexsort(keys))
    unsorted = from_geometric_edges(4, [(3, 0), (2, 1), (1, 1), (0, 3), (0, 2)],
                                    labels=[4, -1, 2**63 - 1, 0, -(2**63)])
    meta = {"name": "Ramanujan–Petersson ✓ \U0001f600", "quote": '"a"\n\\',
            "nested": {"list": [1, 2.5, None, True, {"empty": [], "obj": {}}], "": "[]"}}
    graphs = [unsorted, SerreGraph(3, [], [], [], []),
              SerreGraph(0, [], [], [], [], meta=dict(META, V=0)),
              SerreGraph(2, [0, 1], [1, 0], [1, 0], [0, 0], meta=meta),
              SerreGraph(1, [], [], [], [], meta=meta)]
    for g in graphs:
        text = _json_text(g)
        assert text == dump_report(graph_to_json(g))
        assert json.loads(text)["meta"] == g.meta
    assert sorts == [10, 10]  # the export's and the oracle's


def _thread_log(monkeypatch, name):
    """Wrap cli.<name> to log (item, thread, thread count) per call; the
    item is the call's last argument."""
    log = []
    fn = getattr(cli, name)

    def logged(*args):
        log.append((args[-1], threading.current_thread(), threading.active_count()))
        return fn(*args)

    monkeypatch.setattr(cli, name, logged)
    return log


@pytest.mark.parametrize("block", [1, 13, 64])
@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_two_thread_parse_matches_oracle(monkeypatch, block, eol):
    # Blank and blank-looking lines after every line put one at many block
    # cuts; a CRLF cut after its CR starts the next block with the LF.  The
    # blocks are parsed one at a time, in file order.  (The name is kept
    # from when they were parsed two at a time, on two threads.)
    g = build_level(TowerConfig(5, 13), 1).graph
    lines = format_edgelist(g).splitlines()
    text = eol.join(x for i, line in enumerate(lines)
                    for x in (line, ["", " \t", "", " "][i % 4])) + eol
    monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
    blocks = _block_recorder(monkeypatch)
    back = parse_edgelist(text)
    assert np.array_equal(_rows(back), line_edge_rows(text))
    assert np.array_equal(_rows(back), _rows(g))
    assert len(blocks) > 1 and _tiled(blocks, len(lines[0]))


def _bad_text(g, bad_rows, eol="\n"):
    """g's edge list with the edge lines at bad_rows ending in x, its lines
    ended by eol."""
    lines = format_edgelist(g).splitlines()
    for r in bad_rows:
        lines[1 + r] += " x"
    return eol.join(lines) + eol


@pytest.mark.parametrize("bad_rows,crlf", [((0, 1), False), ((0, 1), True), ((1, 2), False),
                                           ((2, 3), False), ((2, 3), True)])
def test_the_earlier_of_two_malformed_blocks_is_named(monkeypatch, bad_rows, crlf):
    # One edge line a block, so edge line k is block k, and the first bad
    # block is the last one parsed: no later block starts.  In a CRLF file
    # the header's line end is a block of its own, before edge line 0.
    g = build_level(TowerConfig(5, 13), 1).graph
    text = _bad_text(g, bad_rows, "\r\n" if crlf else "\n")
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 1)
    blocks = _block_recorder(monkeypatch)
    with pytest.raises(InvalidParameterError) as err:
        parse_edgelist(text)
    first = text.splitlines()[1 + bad_rows[0]]
    assert str(err.value) == f"malformed edge line: {first!r}"
    assert len(blocks) == bad_rows[0] + 1 + crlf
    assert _tiled(blocks, text.index("\r" if crlf else "\n"))
    assert first.encode() in blocks[-1][1]


def test_a_single_chunk_or_block_starts_no_thread(monkeypatch):
    g = build_level(TowerConfig(5, 13), 1).graph
    text = format_edgelist(g)
    before = threading.active_count()
    chunks = _thread_log(monkeypatch, "_rows_text")
    blocks = _thread_log(monkeypatch, "_parse_block")
    assert format_edgelist(g) == text
    back = parse_edgelist(text)
    assert np.array_equal(_rows(back), _rows(g))
    assert len(chunks) == len(blocks) == 1
    assert [log[0][1:] for log in (chunks, blocks)] == [(threading.main_thread(), before)] * 2
    assert threading.active_count() == before
    # Many chunks and blocks start no thread either: the 1,092 edge lines
    # and JSON rows are 11 chunks each, the DOT text's 182 vertices and 546
    # edges 2 and 6, and the list is read in 2 blocks.  Every call runs on
    # the calling thread, with no other thread alive.
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 100)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", len(text) // 2)
    dot_edges = _thread_log(monkeypatch, "_dot_edges")
    chunks.clear()
    blocks.clear()
    assert format_edgelist(g) == text
    assert _json_text(g) == dump_report(graph_to_json(g))
    assert format_dot(g) == string_format_dot(g)
    assert np.array_equal(_rows(parse_edgelist(text)), _rows(g))
    assert [len(log) for log in (chunks, dot_edges, blocks)] == [11 + 11 + 2, 6, 2]
    calls = chunks + dot_edges + blocks
    assert {entry[1:] for entry in calls} == {(threading.main_thread(), before)}
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# streamed writes that fail


class _FailingFile:
    """A file whose second write raises OSError (ENOSPC)."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, piece):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(piece)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def _fail_second_chunk(monkeypatch):
    # 7 rows a chunk; every chunk after the first raises
    rows_text = cli._rows_text

    def failing(template, i, cols):
        if i > 0:
            raise RuntimeError("chunk after the first")
        return rows_text(template, i, cols)

    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(cli, "_rows_text", failing)
    return RuntimeError


def _fail_second_write(monkeypatch):
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _FailingFile(fdopen(fd, mode)))
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    return OSError


@pytest.mark.parametrize("old", [b"old bytes\n", None])
@pytest.mark.parametrize("failure", [_fail_second_chunk, _fail_second_write])
def test_failed_streamed_write_leaves_the_target_and_no_thread(monkeypatch, tmp_path, old,
                                                               failure):
    # The error leaves the writer with the target as it was, no temporary
    # file, and no thread started, while the traceback still holds the
    # writer's frames and the pieces' unfinished generator.
    g = build_level(TowerConfig(5, 13), 1).graph
    target = tmp_path / "level1.edges"
    if old is not None:
        target.write_bytes(old)
    error = failure(monkeypatch)
    before = threading.active_count()
    with pytest.raises(error) as raised:
        cli.write_edgelist(str(target), g)
    assert threading.active_count() == before
    assert raised.value.__traceback__ is not None
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else [target.name])
    if old is not None:
        assert target.read_bytes() == old


# ---------------------------------------------------------------------------
# memory: the (5,17) cartan level 2, 530,604 directed edges, 10.9 MB of text


@pytest.fixture(scope="module")
def level_5_17(tmp_path_factory):
    g = build_level(TowerConfig(5, 17, levels=2), 2).graph
    path = tmp_path_factory.mktemp("level2") / "level2.edges"
    cli.write_edgelist(str(path), g)
    return g, path


def _held(a) -> int:
    """The bytes of the array a or of the array it is a view of."""
    return (a if a.base is None else a.base).nbytes


def test_atomic_write_holds_a_slice_not_the_text(level_5_17, tmp_path):
    _, path = level_5_17
    text = path.read_text()
    assert len(text) > 8 * cli._WRITE_SLICE
    out = tmp_path / "copy.edges"
    _, peak = traced_peak(cli.atomic_write, str(out), text)
    # one slice and its encoded copy
    assert peak <= 2 * cli._WRITE_SLICE + (1 << 16)
    assert out.read_bytes() == path.read_bytes()


def test_streamed_write_peak_does_not_grow_with_the_list(level_5_17, tmp_path):
    # 184,548 and 530,604 edges, several chunks each; the JSON text streams
    # the same way
    small = build_level(TowerConfig(5, 13, levels=2), 2).graph
    big, path = level_5_17
    peaks = []
    for g in (small, big):
        out = tmp_path / "streamed.edges"
        _, peak = traced_peak(cli.write_edgelist, str(out), g)
        assert out.read_text() == format_edgelist(g)
        peaks.append(peak)
    assert out.read_bytes() == path.read_bytes()
    assert peaks[1] <= peaks[0] + (1 << 20) and peaks[1] < path.stat().st_size
    out, peaks = tmp_path / "streamed.json", []
    for g in (small, big):
        _, peak = traced_peak(cli._atomic_stream, str(out), cli._graph_pieces(g, "json"))
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + (1 << 20) and peaks[1] < out.stat().st_size


def test_text_kernels_hold_a_small_multiple_of_their_text(level_5_17):
    # One full chunk of the level's ids: 18 bytes of edge lines a row, 58
    # of JSON rows and 28 of DOT edge rows; and one block read of about
    # 131 kB.  Each peak is the kernel's scratch and its text.
    g, path = level_5_17
    rows = cli._CHUNK_ROWS
    cols = next(cli._file_order_rows(g))
    assert len(cols[0]) == rows and {c.dtype for c in cols} == {np.dtype(np.int32)}
    _, peak = traced_peak(cli._rows_text, cli._EDGE_LINES, 1, cols)
    assert peak <= 60 * rows
    text, peak = traced_peak(cli._rows_text, cli._JSON_ROWS, 1, cols)
    assert peak <= 2 * len(text) + 16 * rows
    forward = np.flatnonzero(np.arange(g.num_edges) < g.inv)[:rows]
    _, peak = traced_peak(cli._dot_edges, [g.origin[forward], g.terminus[forward],
                                           g.label[forward]])
    assert peak <= 75 * rows
    # the whole list, one chunk in flight
    _, peak = traced_peak(cli.write_edgelist, str(path), g)
    assert peak <= 4.5 * 2**20
    raw = path.read_bytes()
    block = next(cli._blocks(raw, raw.index(b"\n")))
    _, peak = traced_peak(cli._parse_block, block)
    assert peak <= 10 * len(block)


def test_load_holds_the_file_the_graph_and_a_fixed_scratch(level_5_17):
    # the scratch: one block parsed at a time, about 9 bytes per byte
    _, path = level_5_17
    g, peak = traced_peak(cli.load_graph, str(path))
    arrays = sum(_held(a) for a in (g.origin, g.terminus, g.label, g.inv))
    assert peak <= path.stat().st_size + arrays + 64 * cli._BLOCK_BYTES


def test_graph_checks_on_int32_columns_hold_no_edge_length_array(level_5_17):
    g, _ = level_5_17
    cols = [a.copy() for a in (g.origin, g.terminus, g.inv, g.label)]
    assert {a.dtype for a in cols} == {np.dtype(np.int32)}
    checked, peak = traced_peak(SerreGraph, g.num_vertices, *cols)
    assert peak < 4 * g.num_edges and peak <= 32 * multigraph._VALIDATE_CHUNK
    assert all(a is b for a, b in zip((checked.origin, checked.terminus, checked.inv,
                                       checked.label), cols))


def test_loaded_level_has_the_built_arrays(level_5_17):
    built, path = level_5_17
    loaded = cli.load_graph(str(path))
    for name in ("origin", "terminus", "label", "inv"):
        a, b = getattr(built, name), getattr(loaded, name)
        assert b.dtype == a.dtype == np.int32 and np.array_equal(b, a), name


@pytest.mark.parametrize("body,message", [
    (f"0 {2**32 + 1} 0 1\n1 0 0 0\n", "edge 0 has endpoint out of range"),
    (f"0 1 0 1\n{-(2**32) + 1} 0 0 0\n", "involution does not reverse edge 0"),
    (f"0 1 0 {2**32 + 1}\n1 0 0 0\n", "edge 0 has inverse id out of range"),
    (f"0 1 0 1\n1 0 0 {2**32}\n", "involution not involutive at edge 0"),
])
def test_ids_past_int32_are_widened_not_wrapped(tmp_path, body, message):
    # each id wrapped to int32 would make the graph valid
    path = tmp_path / "g.edges"
    path.write_text(f"# expander-forge v1 V=2\n{body}")
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        cli.load_graph(str(path))


def test_labels_past_int32_keep_their_values(monkeypatch, tmp_path):
    # One line a block: the first blocks' labels fit int32, and a later one
    # widens the label column halfway through the file.
    labels = [0, 2**31 - 1, -(2**31), 2**31, -(2**31) - 1, 2**63 - 1, -(2**63), 7]
    text = "# expander-forge v1 q1=0 q2=0 n=0 variant=fixture mode=NA V=2\n" + "".join(
        f"{e % 2} {1 - e % 2} {x} {e ^ 1}\n" for e, x in enumerate(labels))
    path = tmp_path / "g.edges"
    path.write_text(text)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 1)
    g = cli.load_graph(str(path))
    assert g.label.dtype == np.int64 and g.label.tolist() == labels
    assert g.origin.dtype == g.terminus.dtype == g.inv.dtype == np.int32
    assert np.array_equal(_rows(g), line_edge_rows(text))
    assert format_edgelist(g) == string_format_edgelist(g)
