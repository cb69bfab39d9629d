"""Command-line surface: build, spectrum, tower, probe, export.

File formats
------------
Edge list (one directed edge per line, ids implicit from line order)::

    # expander-forge v1 q1=5 q2=13 n=1 variant=cartan mode=PGL V=182
    src dst gen_idx inv_edge_id

Lines are ordered by (src, gen_idx); ids are 0-based; re-reading a file
reproduces the graph exactly, involution included.  Blank lines before the
header are skipped; a header value ``-?[0-9]+`` is an integer, any other a
string, and a key given twice is refused; a header is written only from
metadata that reads back as itself, with V the graph's vertex count.  Each
edge line holds four tokens ``-?[0-9]+``, values in int64, separated by
spaces or tabs; LF, CRLF and CR end lines, and lines of only spaces and tabs
are skipped.  Any other byte (a ``+``, ``_``, a non-ASCII digit) makes its
line malformed.  Writing and reading run as numpy byte kernels over bounded
pieces: chunks of _CHUNK_ROWS (2**15) rows written, blocks of about
_BLOCK_BYTES (2**17) bytes read, cut at a line end, one at a time in file
order on the calling thread.  The JSON graph text's edge rows, between the
head and tail json.dumps writes, and DOT's lines run on the same digit
kernel.  It writes a chunk's digits straight into one buffer of its text, a
column and a place at a time, with int32 offsets, so a chunk's scratch is a
small multiple of its text: a traced peak of at most 60 bytes a row for edge
lines (18 of text) and 75 for DOT edge rows (28) on 6-digit ids, the text
and its str copy included.  A block read holds at most 10 bytes per byte.  `build`, `tower --export-dir` and
`export` to an edge list, JSON or DOT stream the chunks to the file, or
stdout, as they are made, so no text of the whole graph exists; any other
text is written in slices of _WRITE_SLICE characters.  The blocks read
fill four int32 columns, and a column widens to int64 only when a value
outside int32 arrives, so no value is wrapped.  A malformed file's error
names its first malformed line, and no later block starts.  A failed write
leaves the target as it was, or absent.
JSON reports carry ``"schema": 1``; integers round-trip exactly and floats
are serialized with full repr precision (solver-derived floats are quantized
to 12 significant digits first so reruns and different BLAS thread counts
stay byte-identical).
Exit codes: 0 success, 2 usage/validation, 3 I/O, 4 internal verification
failure, a solve that did not converge included; an output path that cannot
be written exits 3 before any work, and a JSON file to parse, or a loaded
graph's spectrum or DOT export, that cannot fit in physical memory exits 2
before any work.
Timing lines go to stderr, never into reports.
"""

import argparse
import errno
import json
import math
import os
import re
import sys
import tempfile
import time

import numpy as np

from .errors import InvalidParameterError, VerificationError
from .modarith import PrimePower
from .multigraph import SerreGraph, girth, index_dtype
from .quat import split
from .spectra import RESIDUAL_RTOL, SpectralReport, ramanujan_check, solve_bytes
from .tower import TowerConfig, _refuse, build_level, build_tower, probe_with_reseed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

SCHEMA_VERSION = 1
HEADER_PREFIX = "# expander-forge v1"
_META_FIELDS = ("q1", "q2", "n", "variant", "mode", "V")
_CHUNK_ROWS = 1 << 15
_BLOCK_BYTES = 1 << 17
_WRITE_SLICE = 1 << 20  # characters of a str handed to the file at a time
_INT32 = np.iinfo(np.int32)
# Peak bytes by tracemalloc of parsing a JSON file on built levels of 1,092
# to 530,604 edges: 5.0 to 5.8 times its size as written, 15.8 unspaced.
_JSON_LOAD_FACTOR = 20

_INT64_MAX = np.uint64(2**63 - 1)
# Lines of spaces and tabs, then the header line.
_HEADER_LINE = re.compile(rb"(?:[ \t]*[\r\n])*([^\r\n]*)")
_LINE_END = re.compile(rb"[\r\n]")
_NON_SPACE = re.compile(rb"\S")
# A header value: an integer's ASCII digits, or any other token.
_INTEGER = re.compile(r"-?[0-9]+")
_TOKEN = re.compile(r"[^\s=\ud800-\udfff]*")


def _quant(x: float) -> float:
    """Quantize solver-derived floats to 12 significant digits."""
    return float(f"{x:.12g}")


# ---------------------------------------------------------------------------
# file formats


def _header_line(meta: dict) -> str:
    """The header of meta's fields; each value must read back as itself: an
    int, or a str of no whitespace, '=' or surrogate that is not an
    integer's digits."""
    for k in _META_FIELDS:
        if k not in meta:
            raise InvalidParameterError(f"graph metadata missing field {k!r}")
        v = meta[k]
        if not (type(v) is int or type(v) is str and _TOKEN.fullmatch(v)
                and not _INTEGER.fullmatch(v)):
            raise InvalidParameterError(f"graph metadata {k}={v!r} does not read back "
                                        "from an edge-list header")
    fields = " ".join(f"{k}={meta[k]}" for k in _META_FIELDS)
    return f"{HEADER_PREFIX} {fields}"


def _in_file_order(o, lab) -> bool:
    """Whether the edges are in file order, (origin, label) with ties in
    edge-id order, checked _CHUNK_ROWS edges at a time."""
    for start in range(0, len(o), _CHUNK_ROWS):
        oc, lc = o[start:start + _CHUNK_ROWS + 1], lab[start:start + _CHUNK_ROWS + 1]
        if not np.all((oc[1:] > oc[:-1]) | ((oc[1:] == oc[:-1]) & (lc[1:] >= lc[:-1]))):
            return False
    return True


def _file_order_rows(g: SerreGraph):
    """The edges in file order as chunks of (origin, terminus, label, new
    inverse id) arrays: g.edges of each slice of ids when the edges are in
    that order, as on a table-backed graph and every file read back, else of
    each slice of the ids sorted into it."""
    if g.table is not None or _in_file_order(g.origin, g.label):
        for start in range(0, g.num_edges, _CHUNK_ROWS):
            yield g.edges(slice(start, start + _CHUNK_ROWS))
        return
    perm = np.lexsort((g.label, g.origin))
    pos = np.empty_like(perm)
    pos[perm] = np.arange(len(perm))
    for start in range(0, len(perm), _CHUNK_ROWS):
        origin, terminus, label, inv = g.edges(perm[start:start + _CHUNK_ROWS])
        yield origin, terminus, label, pos[inv]


def _magnitudes(vals):
    """|vals| exactly, the least int included, as uint32 when all fit."""
    mag = np.abs(vals).view(f"u{vals.itemsize}")
    if mag.itemsize > 4 and mag.max(initial=0) < 2**32:
        mag = mag.astype(np.uint32)  # same digits, cheaper division
    return mag


def _widths(vals):
    """The decimal width of each of the signed integers vals, its minus sign
    included, as uint8."""
    mag = _magnitudes(vals)
    width = (vals < 0).view(np.uint8)
    width += 1
    for k in range(1, len(str(mag.max(initial=0)))):
        width += mag >= 10**k
    return width


def _put_decimal(buf, end, vals, width):
    """Write the signed integers vals in decimal into the uint8 array buf,
    value i in the width[i] bytes before offset end[i].

    The places are written highest first, one pass a place over all values.
    Each value's offset starts at its first digit and steps right once its
    digits reach the place, so a short value's leading zeros land on its
    first digit, which a lower place writes again."""
    neg = vals < 0
    mag = _magnitudes(vals)
    digits = width - neg
    quotient, char = np.empty_like(mag), np.empty(len(mag), np.uint8)
    longer = np.empty(len(mag), bool)
    at = np.subtract(end, digits, dtype=np.intp)
    shortest = int(digits.min(initial=0))
    for k in reversed(range(int(digits.max(initial=0)))):
        place = mag.dtype.type(10**k)
        np.floor_divide(mag, place, out=quotient)
        np.add(quotient, ord("0"), out=char, casting="unsafe")
        buf[at] = char
        mag -= np.multiply(quotient, place, out=quotient)
        if k >= shortest:
            at += np.greater(digits, k, out=longer)  # the values with a digit at k
        else:
            at += 1
    if neg.any():
        buf[(end - width)[neg]] = ord("-")


def _put(buf, at, text: bytes):
    """Write text into the uint8 array buf at every offset in at; buf is
    filled with spaces, so the spaces of text are skipped."""
    at = at.astype(np.intp)
    for j, byte in enumerate(text):
        if byte != ord(" "):
            buf[j:][at] = byte


# Row templates (prefix, the literal after each value, separator): a row is
# the prefix, then each value in decimal followed by its literal.
_EDGE_LINES = ("", (" ", " ", " ", "\n"), "")
_JSON_ROWS = ("\n    [\n      ", (",\n      ",) * 3 + ("\n    ]",), ",")
_DOT_VERTICES = ("  ", (";\n",), "")


def _rows_text(template, i, cols) -> str:
    """The rows of chunk i, the columns cols, in template, joined by its
    separator, which also leads every chunk but the first: the literal
    after each row's last value holds the next row's separator and prefix,
    cut off after the last row.

    The row ends are summed from the widths, in int32, and each row is
    then written from its end back, one column at a time, into one buffer
    of spaces."""
    prefix, after, sep = template
    lead = ((sep if i else "") + prefix).encode()
    texts = [text.encode() for text in after[:-1] + (after[-1] + sep + prefix,)]
    widths = [_widths(col) for col in cols]
    end = np.full(len(cols[0]), sum(map(len, texts)), dtype=np.int32)
    end[0] += len(lead)
    for width in widths:
        end += width
    np.cumsum(end, out=end)
    buf = np.full(int(end[-1]), ord(" "), dtype=np.uint8)
    buf[:len(lead)] = np.frombuffer(lead, np.uint8)
    for col, width, text in reversed(list(zip(cols, widths, texts))):
        end -= len(text)
        _put(buf, end, text)
        _put_decimal(buf, end, col, width)
        end -= width
    return str(buf[:len(buf) - len(sep + prefix)], "ascii")


def _graph_pieces(g: SerreGraph, fmt: str):
    """The edge list (fmt "edgelist") or JSON graph text (fmt "json") of g as
    str pieces: a head, the edges in file order as rows, one piece per chunk,
    and a tail; json.dumps writes the JSON's ends."""
    if fmt == "json":
        text = dump_report({"format": "expander-forge-graph", "schema": SCHEMA_VERSION,
                            "meta": dict(g.meta), "num_vertices": g.num_vertices, "edges": []})
        head, template = text.removesuffix("]\n}\n"), _JSON_ROWS
        tail = "\n  ]\n}\n" if g.num_edges else "]\n}\n"
    else:
        if g.meta.get("V", g.num_vertices) != g.num_vertices:
            raise InvalidParameterError(f"graph metadata V={g.meta['V']!r} is not the "
                                        f"graph's {g.num_vertices} vertices")
        head, template, tail = _header_line(g.meta) + "\n", _EDGE_LINES, ""
    yield head
    for i, cols in enumerate(_file_order_rows(g)):
        yield _rows_text(template, i, cols)
    yield tail


def format_edgelist(g: SerreGraph) -> str:
    return "".join(_graph_pieces(g, "edgelist"))


def _vertex_count(value, where: str) -> int:
    if type(value) is not int or value < 0:
        raise InvalidParameterError(f"{where} = {value!r} is not a vertex count")
    return value


def _parse_block(b: np.ndarray) -> np.ndarray:
    """The edge lines in bytes b, whole lines, as an (E, 4) int64 array.

    Positions below are into b padded with a newline on each side, so the
    lines are the spans between consecutive line ends and every token has a
    byte outside it on either side.  A token's magnitude is summed from its
    highest place down, one place a pass over all tokens; a position before
    the token reads the zero of a non-digit byte.  The first line that breaks
    the grammar, or holds a value outside int64, is named in the error.

    Positions are held in int32 for a block under 2 GiB, and each byte mask
    is dropped once read."""
    pad = np.full(len(b) + 2, ord("\n"), dtype=np.uint8)
    pad[1:-1] = b
    pos = index_dtype(len(pad))
    minus = pad == ord("-")
    is_eol = pad == ord("\n")
    is_eol |= pad == ord("\r")
    eol = np.flatnonzero(is_eol).astype(pos)
    ok = pad == ord(" ")
    ok |= pad == ord("\t")
    ok |= is_eol
    del is_eol
    value = pad  # each byte's digit value, 0 at any other byte
    value -= np.uint8(ord("0"))
    digit = value < 10
    value *= digit
    ok |= digit
    ok |= minus
    first = int(ok.argmin())  # the first byte of no token, space, tab or line end
    bad_pos = [np.flatnonzero(~ok[first:first + 1]) + first]
    del ok
    m = np.flatnonzero(minus)
    lone = ~digit[m + 1]
    tok = digit
    tok |= minus
    lone |= tok[m - 1]
    bad_pos.append(m[lone])  # a minus not leading a digit string
    edges = np.flatnonzero(tok[1:] != tok[:-1])  # each token's byte before it, its last byte
    neg = minus[1:][edges[0::2]]
    del tok, minus
    before, last = edges[0::2].astype(pos), edges[1::2].astype(pos)
    del edges
    longest = int((last - before).max(initial=0))
    mag = np.zeros(len(before), dtype=np.uint64)
    at, d = np.empty(len(before), np.intp), np.empty(len(before), np.uint8)
    for place in reversed(range(min(longest, 19))):  # 19 places cannot wrap a uint64
        np.subtract(last, place, out=at)
        np.take(value, np.maximum(at, before, out=at), out=d, mode="clip")
        mag *= np.uint64(10)
        mag += d
    del at, d
    bad_pos.append(before[mag > _INT64_MAX + neg] + 1)
    if longest > 19:
        # a nonzero digit at place 19 or beyond means a value of 10**19 or more
        nonzero = np.cumsum(value > 0, dtype=pos)
        wide = np.flatnonzero(last - before > 19)
        high = nonzero[last[wide] - 19] - nonzero[before[wide]]
        bad_pos.append(before[wide[high > 0]] + 1)
    counts = np.diff(np.searchsorted(before, eol))
    bad_lines = [np.flatnonzero((counts != 0) & (counts != 4))]
    bad_lines += [np.searchsorted(eol, p[:1]) - 1 for p in bad_pos]
    bad_lines = np.concatenate(bad_lines)
    if len(bad_lines):
        line = bad_lines.min()
        text = b[eol[line]:eol[line + 1] - 1].tobytes().decode("utf-8")
        raise InvalidParameterError(f"malformed edge line: {text!r}")
    np.negative(mag, out=mag, where=neg)
    return mag.view(np.int64).reshape(-1, 4)


def _blocks(raw: bytes, start: int):
    """Views of raw from start on, each ending at the first line end
    _BLOCK_BYTES or more past its start (or at the end of raw)."""
    while start < len(raw):
        cut = _LINE_END.search(raw, start + _BLOCK_BYTES)
        stop = cut.end() if cut else len(raw)
        yield np.frombuffer(raw, np.uint8, stop - start, start)
        start = stop


def _fits_int32(a) -> bool:
    return a.min(initial=0) >= _INT32.min and a.max(initial=0) <= _INT32.max


def _edge_columns(raw: bytes, start: int):
    """The edge lines of raw from start on as four columns.  Each block's
    rows are copied, in file order, into columns sized by the line ends from
    start on, one before every line, and trimmed to the rows.  A column is
    int32 until a block brings it a value outside int32; it is then widened
    to int64, so no value is ever wrapped."""
    lines = raw.count(b"\n", start)
    if raw.find(b"\r", start) >= 0:
        lines += raw.count(b"\r", start) - raw.count(b"\r\n", start)
    cols = [np.empty(lines, dtype=np.int32) for _ in range(4)]
    rows = 0
    for block in map(_parse_block, _blocks(raw, start)):
        if not _fits_int32(block):
            cols = [col if _fits_int32(values) else col.astype(np.int64, copy=False)
                    for col, values in zip(cols, block.T)]
        for col, values in zip(cols, block.T):
            col[rows:rows + len(block)] = values
        rows += len(block)
    return [col[:rows] for col in cols]


def _edge_list(raw: bytes):
    """The header fields and the four edge columns of an edge list's UTF-8
    bytes."""
    head = _HEADER_LINE.match(raw)
    header = head.group(1).decode()
    if not header.startswith(HEADER_PREFIX):
        raise InvalidParameterError("not an expander-forge v1 edge list (missing header)")
    meta = {}
    for tok in header[len(HEADER_PREFIX):].split():
        k, _, v = tok.partition("=")
        if k in meta:
            raise InvalidParameterError(f"header repeats {k}=")
        try:
            meta[k] = int(v) if _INTEGER.fullmatch(v) else v
        except ValueError:  # more digits than int() converts
            raise InvalidParameterError(f"header value {k}= has {len(v)} digits") from None
    return meta, _edge_columns(raw, head.end())


def _edge_list_graph(meta: dict, cols) -> SerreGraph:
    if "V" not in meta:
        raise InvalidParameterError("header missing V=")
    nv = _vertex_count(meta["V"], "header V")
    origin, terminus, label, inv = cols
    return SerreGraph(nv, origin, terminus, inv, label, meta=meta)


def graph_from_json(obj: dict) -> SerreGraph:
    if not isinstance(obj, dict) or obj.get("format") != "expander-forge-graph":
        raise InvalidParameterError("not an expander-forge graph JSON object")
    if "num_vertices" not in obj:
        raise InvalidParameterError('graph JSON missing "num_vertices"')
    nv = _vertex_count(obj["num_vertices"], '"num_vertices"')
    edges = obj.get("edges")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 4 and all(type(x) is int for x in e)
        for e in edges
    ):
        raise InvalidParameterError('graph JSON "edges" must be a list of 4-integer rows')
    if not isinstance(obj.get("meta", {}), dict):
        raise InvalidParameterError('graph JSON "meta" must be an object')
    origin, terminus, label, inv = zip(*edges) if edges else [()] * 4
    return SerreGraph(nv, origin, terminus, inv, label, meta=obj.get("meta", {}))


def _dot_edges(cols) -> str:
    """'  o -- t;' per (o, t, label) row, or '  o -- t [label="label"];'
    when label >= 0, each on its own line."""
    origin, terminus, label = cols
    labelled = label >= 0
    label = label[labelled]
    w_origin, w_terminus, w_label = _widths(origin), _widths(terminus), _widths(label)
    end = np.full(len(origin), 8, dtype=np.int32)  # ' -- ' and ';\n  '
    end[0] += 2  # the lead '  '
    end += w_origin
    end += w_terminus
    end[labelled] += w_label + 11  # ' [label="' and '"];\n  ' for ';\n  '
    np.cumsum(end, out=end)
    buf = np.full(int(end[-1]), ord(" "), dtype=np.uint8)
    tail = end[labelled] - 6
    _put(buf, tail, b'"];\n  ')
    _put_decimal(buf, tail, label, w_label)
    tail -= w_label + 9
    _put(buf, tail, b' [label="')
    end[labelled] = tail
    del tail
    bare = ~labelled
    end[bare] -= 4
    _put(buf, end[bare], b";\n  ")
    _put_decimal(buf, end, terminus, w_terminus)
    end -= w_terminus + 4
    _put(buf, end, b" -- ")
    _put_decimal(buf, end, origin, w_origin)
    return str(buf[:-2], "ascii")


def _dot_pieces(g: SerreGraph):
    """The DOT text of g as str pieces, loops and parallel edges kept as
    separate statements: a head, every vertex, then every edge e with
    e < inv(e), in id order, one piece per chunk of ids that holds one, and
    a tail."""
    yield "graph expander_forge {\n"
    vertices = np.arange(g.num_vertices)
    for i, start in enumerate(range(0, g.num_vertices, _CHUNK_ROWS)):
        yield _rows_text(_DOT_VERTICES, i, [vertices[start:start + _CHUNK_ROWS]])
    for start in range(0, g.num_edges, _CHUNK_ROWS):
        origin, terminus, label, inv = g.edges(slice(start, start + _CHUNK_ROWS))
        forward = np.arange(start, start + len(inv), dtype=inv.dtype) < inv
        if forward.any():
            yield _dot_edges((origin[forward], terminus[forward], label[forward]))
    yield "}\n"


def load_graph(path: str) -> SerreGraph:
    """The graph in an edge-list or JSON file, read as bytes; the bytes are
    decoded only to check them when they are not all ASCII."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidParameterError(f"{path} is not UTF-8 text: {exc}") from None
    first = _NON_SPACE.search(raw)
    if first is None:
        raise InvalidParameterError(f"{path} is empty")
    if first.group() == b"{":
        _refuse(f"parsing the {len(raw)} bytes of JSON in {path} needs",
                _JSON_LOAD_FACTOR * len(raw))
        try:
            obj = json.loads(raw)
        except RecursionError:
            raise InvalidParameterError(f"{path}: JSON nested too deep") from None
        except json.JSONDecodeError:
            raise
        except ValueError:  # an integer of more digits than int() converts
            raise InvalidParameterError(f"{path}: JSON integer too long") from None
        return graph_from_json(obj)
    meta, cols = _edge_list(raw)
    del raw, first  # the graph's checks can reuse the file's memory
    return _edge_list_graph(meta, cols)


def _refuse_unwritable(path: str):
    """Raise OSError, before any work, when atomic_write could not put a
    file at path: its directory is missing, is not a directory or is not
    writable, or path is a directory."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
        raise OSError(code, os.strerror(code), directory)
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.access(directory, os.W_OK | os.X_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), directory)


def _atomic_stream(path: str, pieces):
    """Write the str pieces to a temporary file beside path and rename it to
    path when all are written.  On any error the temporary file is removed
    and path keeps its old bytes, or stays absent."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-forge-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _slices(text: str):
    """text in slices of _WRITE_SLICE characters, so that writing it makes
    no encoded copy of the whole."""
    for start in range(0, len(text), _WRITE_SLICE):
        yield text[start:start + _WRITE_SLICE]


def atomic_write(path: str, data: str):
    """The str data written to path by _atomic_stream, a slice at a time."""
    _atomic_stream(path, _slices(data))


def write_edgelist(path: str, g: SerreGraph):
    """The edge list of g written to path as it is formatted, a chunk at a
    time: no text of the whole list is made."""
    _atomic_stream(path, _graph_pieces(g, "edgelist"))


# ---------------------------------------------------------------------------
# report assembly


def spectral_dict(sr: SpectralReport) -> dict:
    # The report states the verified tolerance, not the achieved residual,
    # whose last digits follow the solver, so its bytes stay fixed (acceptance
    # criterion 9); the exact residual goes to stderr with the timings.
    residual_tol = None
    if sr.method == "iterative":
        residual_tol = RESIDUAL_RTOL * (sr.q + 1)
    return {
        "lambda_top": _quant(sr.lambda_top),
        "lambda_top_multiplicity": sr.lambda_top_multiplicity,
        "lambda_bottom": _quant(sr.lambda_bottom),
        "max_abs_nontrivial": _quant(sr.max_abs_nontrivial),
        "ramanujan_bound": sr.ramanujan_bound,
        "ramanujan": sr.ramanujan,
        "bipartite": sr.bipartite,
        "method": sr.method,
        "residual_tolerance": residual_tol,
        "residuals_within_tolerance": True,
    }


def _girth_json(value):
    return None if math.isinf(value) else int(value)


def probe_dict(probe) -> dict:
    return {
        "max_word_len": probe.max_word_len,
        "levels": probe.up_to_level,
        "twisted": probe.twisted,
        "words_tested": probe.words_tested,
        "survivor_count": len(probe.survivors),
        "survivors": [
            {"word": list(h.word), "quaternion": list(h.quaternion.coefficients())}
            for h in probe.survivors
        ],
        "contains_length_one": probe.has_length_one_survivor(),
    }


def tower_report(result) -> dict:
    cfg = result.config
    levels = []
    for s in result.summaries:
        entry = {
            "n": s.n,
            "vertices": s.vertices,
            "directed_edges": s.directed_edges,
            "girth": _girth_json(s.girth),
            "loop_count": s.loop_count,
            "bipartite": s.spectral.bipartite,
            "loop_witness": None if s.witness is None else
                {"vertex": s.witness.vertex, "generator": s.witness.generator},
            "girth_floor": s.girth_floor,
            "spectrum": spectral_dict(s.spectral),
        }
        levels.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "tool": "expander-forge",
        "config": {
            "q1": cfg.q1,
            "q2": cfg.q2,
            "levels": cfg.levels,
            "variant": cfg.variant,
            "mode": cfg.mode,
            "twist_seed": cfg.twist_seed,
            "twist_seed_used": None if result.probe.twist is None else result.probe.twist.seed,
        },
        "levels": levels,
        "coverings": [
            {"source": c.source_n, "target": c.target_n, "verified": c.verified}
            for c in result.coverings
        ],
        "probe": probe_dict(result.probe),
        "reseeds": list(result.reseeds),
    }


def dump_report(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _solve_counts(sr: SpectralReport) -> str:
    if sr.method != "iterative":
        return ""
    return f", {sr.lanczos_steps} Lanczos steps, {sr.matvecs} matvecs"


def _t(label: str, started: float):
    print(f"[time] {label}: {time.perf_counter() - started:.2f}s", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    cfg = TowerConfig(args.q1, args.q2, levels=args.level, variant=args.variant,
                      twist_seed=args.twist_seed)
    _refuse_unwritable(args.out)
    t0 = time.perf_counter()
    lvl = build_level(cfg, args.level)
    _t(f"build level {args.level}", t0)
    write_edgelist(args.out, lvl.graph)
    print(f"vertices={lvl.graph.num_vertices} directed_edges={lvl.graph.num_edges}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.report:
        _refuse_unwritable(args.report)
    g = load_graph(args.infile)
    if not g.num_edges:
        raise InvalidParameterError("graph has no edges")
    nv = g.num_vertices
    need = solve_bytes(nv, g.num_edges, g.geometric_loop_count() > 0)
    _refuse(f"the spectrum of {nv} vertices needs",
            max(need, 8 * nv * nv) if args.method == "dense" else need)
    t0 = time.perf_counter()
    sr = ramanujan_check(g, method=args.method)
    _t("spectrum", t0)
    print(f"[residual] max {sr.max_residual:.3e}{_solve_counts(sr)}", file=sys.stderr)
    report = {
        "schema": SCHEMA_VERSION,
        "tool": "expander-forge",
        "source": dict(g.meta),
        "vertices": g.num_vertices,
        "directed_edges": g.num_edges,
        "degree": sr.q + 1,
        "girth": _girth_json(girth(g)),
        "spectrum": spectral_dict(sr),
    }
    if args.report:
        atomic_write(args.report, dump_report(report))
    print(f"ramanujan: {'true' if sr.ramanujan else 'false'}, "
          f"bound {sr.ramanujan_bound!r}, max|nontrivial| {sr.max_abs_nontrivial!r}")
    return EXIT_OK


def cmd_tower(args) -> int:
    cfg = TowerConfig(args.q1, args.q2, levels=args.levels, variant=args.variant,
                      twist_seed=args.twist_seed)
    _refuse_unwritable(args.report)
    exports = []
    if args.export_dir:
        os.makedirs(args.export_dir, exist_ok=True)
        exports = [os.path.join(args.export_dir, f"level{n}.edges")
                   for n in range(1, cfg.levels + 1)]
    for path in exports:
        _refuse_unwritable(path)
    t0 = time.perf_counter()
    result = build_tower(cfg, probe_max_word_len=args.probe_len)
    _t("tower", t0)
    for s in result.summaries:
        print(f"[residual] level {s.n}: max {s.spectral.max_residual:.3e}"
              f"{_solve_counts(s.spectral)}", file=sys.stderr)
    report = tower_report(result)
    atomic_write(args.report, dump_report(report))
    for s in result.summaries:
        print(f"level {s.n}: vertices={s.vertices} girth={_girth_json(s.girth)} "
              f"ramanujan={'true' if s.spectral.ramanujan else 'false'}")
    for c in result.coverings:
        print(f"covering {c.source_n} -> {c.target_n}: verified")
    print(f"probe: {len(result.probe.survivors)} survivor(s) up to length "
          f"{result.probe.max_word_len}")
    for path, lvl in zip(exports, result.levels):
        write_edgelist(path, lvl.graph)
    return EXIT_OK


def cmd_probe(args) -> int:
    cfg = TowerConfig(args.q1, args.q2, levels=args.level, variant="cartan",
                      twist_seed=args.twist_seed)
    probe, reseeds = probe_with_reseed(cfg, args.max_word_len)
    pp_top = PrimePower(args.q2, args.level)
    for seed in reseeds:
        print(f"# reseeded: twist seed {seed} was degenerate")
    print(f"# {probe.words_tested} reduced words tested, "
          f"{len(probe.survivors)} survive {probe.up_to_level} level(s)")
    for hit in probe.survivors:
        word = ".".join(str(a) for a in hit.word)
        coeffs = hit.quaternion.coefficients()
        m = split(hit.quaternion, pp_top)
        print(f"word [{word}] quaternion {coeffs} matrix {m.entries()} mod {pp_top.modulus}")
    return EXIT_OK


def cmd_export(args) -> int:
    if args.out:
        _refuse_unwritable(args.out)
    g = load_graph(args.infile)
    if args.format == "dot":
        # per vertex its int64 id, and the one chunk in flight: each row a
        # line and 40 bytes for a vertex, 80 for an edge (at most 34 and 74
        # traced), which also cover the chunk of ids an edge row is found in
        digits = len(str(g.num_vertices))
        line = 19 + 2 * digits + len(str(max(int(g.label.max(initial=0)), 0)))  # an edge's
        _refuse(f"the DOT text of {g.num_vertices} vertices and {g.num_edges // 2} edges needs",
                8 * g.num_vertices + (44 + digits) * min(g.num_vertices, _CHUNK_ROWS)
                + (80 + line) * min(g.num_edges // 2, _CHUNK_ROWS))
        pieces = _dot_pieces(g)
    else:
        pieces = _graph_pieces(g, args.format)
    if args.out:
        _atomic_stream(args.out, pieces)
    else:
        sys.stdout.writelines(pieces)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expander-forge",
        description="Towers of (q+1)-regular Ramanujan graphs with machine-checked claims",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build one tower level and write its edge list")
    b.add_argument("--q1", type=int, required=True)
    b.add_argument("--q2", type=int, required=True)
    b.add_argument("--level", type=int, required=True)
    b.add_argument("--variant", choices=["cartan", "borel", "cayley"], default="cartan")
    b.add_argument("--twist-seed", type=int, default=None)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("spectrum", help="eigenvalues and Ramanujan verdict for a graph file")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--method", choices=["auto", "dense", "iterative"], default="auto")
    s.add_argument("--report", default=None)
    s.set_defaults(func=cmd_spectrum)

    t = sub.add_parser("tower", help="full pipeline: levels, coverings, spectra, probe")
    t.add_argument("--q1", type=int, required=True)
    t.add_argument("--q2", type=int, required=True)
    t.add_argument("--levels", type=int, required=True)
    t.add_argument("--variant", choices=["cartan", "borel", "cayley"], default="cartan")
    t.add_argument("--twist-seed", type=int, default=None)
    t.add_argument("--probe-len", type=int, default=4)
    t.add_argument("--report", required=True)
    t.add_argument("--export-dir", default=None)
    t.set_defaults(func=cmd_tower)

    p = sub.add_parser("probe", help="enumerate words surviving every level's stabilizer")
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--max-word-len", type=int, required=True)
    p.add_argument("--twist-seed", type=int, default=None)
    p.set_defaults(func=cmd_probe)

    e = sub.add_parser("export", help="convert a graph file between formats")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--format", choices=["edgelist", "dot", "json"], required=True)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidParameterError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
