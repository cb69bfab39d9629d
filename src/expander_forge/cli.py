"""Command-line surface: build, spectrum, tower, probe, export.

File formats
------------
Edge list (one directed edge per line, ids implicit from line order)::

    # expander-forge v1 q1=5 q2=13 n=1 variant=cartan mode=PGL V=182
    src dst gen_idx inv_edge_id

Lines are ordered by (src, gen_idx); ids are 0-based; re-reading a file
reproduces the graph exactly, involution included.  Blank lines before the
header are skipped.  Each edge line holds four tokens ``-?[0-9]+``, values in
int64, separated by spaces or tabs; LF, CRLF and CR end lines, and lines of
only spaces and tabs are skipped.  Any other byte (a ``+``, ``_``, a
non-ASCII digit) makes its line malformed.  Writing and reading run as numpy
byte kernels over bounded blocks: _CHUNK_ROWS rows written, or about
_BLOCK_BYTES bytes read, cut at a line end.  JSON reports carry
``"schema": 1``; integers round-trip exactly and floats are serialized with
full repr precision (solver-derived floats are quantized to 12 significant
digits first so reruns and different BLAS thread counts stay byte-identical).
Exit codes: 0 success, 2 usage/validation, 3 I/O, 4 internal verification
failure.  Timing lines go to stderr, never into reports.
"""

import argparse
import json
import math
import os
import re
import sys
import tempfile
import time

import numpy as np

from .errors import (
    ConvergenceError,
    GraphConstructionError,
    InvalidParameterError,
    VerificationError,
    WordLengthError,
)
from .modarith import PrimePower
from .multigraph import SerreGraph, girth
from .quat import split
from .spectra import RESIDUAL_RTOL, SpectralReport, ramanujan_check
from .tower import (
    TowerConfig,
    build_level,
    build_tower,
    probe_with_reseed,
    twist_sequence,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

SCHEMA_VERSION = 1
HEADER_PREFIX = "# expander-forge v1"
_META_FIELDS = ("q1", "q2", "n", "variant", "mode", "V")
_CHUNK_ROWS = 1 << 16
_BLOCK_BYTES = 1 << 20

# 10**k for the places k < 19, where a uint64 sum of digits cannot wrap
_PLACE = 10 ** np.arange(19, dtype=np.uint64)
_INT64_MAX = np.uint64(2**63 - 1)
# Lines of spaces and tabs, then the header line.
_HEADER_LINE = re.compile(rb"(?:[ \t]*[\r\n])*([^\r\n]*)")
_LINE_END = re.compile(rb"[\r\n]")
_NON_SPACE = re.compile(rb"\S")


def _quant(x: float) -> float:
    """Quantize solver-derived floats to 12 significant digits."""
    return float(f"{x:.12g}")


# ---------------------------------------------------------------------------
# file formats


def _header_line(meta: dict) -> str:
    for f in _META_FIELDS:
        if f not in meta:
            raise InvalidParameterError(f"graph metadata missing field {f!r}")
    fields = " ".join(f"{k}={meta[k]}" for k in _META_FIELDS)
    return f"{HEADER_PREFIX} {fields}"


def _file_order_rows(g: SerreGraph):
    """The edges in file order, (origin, label) with ties in edge-id order,
    as chunks of (origin, terminus, label, new inverse id) arrays.  Edges
    already in that order, as on every built level, are sliced unsorted."""
    o, lab = g.origin, g.label
    if np.all((o[1:] > o[:-1]) | ((o[1:] == o[:-1]) & (lab[1:] >= lab[:-1]))):
        for start in range(0, g.num_edges, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            yield o[rows], g.terminus[rows], lab[rows], g.inv[rows]
        return
    perm = np.lexsort((lab, o))
    pos = np.empty_like(perm)
    pos[perm] = np.arange(len(perm))
    for start in range(0, len(perm), _CHUNK_ROWS):
        p = perm[start:start + _CHUNK_ROWS]
        yield o[p], g.terminus[p], lab[p], pos[g.inv[p]]


def _format_rows(cols) -> str:
    """One chunk of edge lines: each row's four values in decimal, a space
    after the first three and a newline after the last.  Digit counts give
    every token's end by one cumulative sum; the digits are then scattered
    into one byte buffer, lowest place first."""
    vals = np.stack(cols, axis=1).astype(np.int64, copy=False).ravel()
    neg = vals < 0
    mag = vals.view(np.uint64)
    mag = np.where(neg, -mag, mag)  # |v| exactly, -2**63 included
    width = np.searchsorted(_PLACE[1:], mag, side="right") + 1 + neg
    end = np.cumsum(width + 1) - 1  # the separator after each token
    buf = np.full(end[-1] + 1, ord(" "), dtype=np.uint8)
    buf[end[3::4]] = ord("\n")
    buf[(end - width)[neg]] = ord("-")
    if mag.max() < 2**32:
        mag = mag.astype(np.uint32)  # same digits, cheaper division
    pos = end - 1
    while len(mag):
        rest = mag // 10
        buf[pos] = (mag - rest * 10).astype(np.uint8) + ord("0")
        more = rest > 0
        mag, pos = rest[more], pos[more] - 1
    return buf.tobytes().decode("ascii")


def format_edgelist(g: SerreGraph) -> str:
    parts = [_header_line(g.meta) + "\n"]
    parts += [_format_rows(cols) for cols in _file_order_rows(g)]
    return "".join(parts)


def _vertex_count(value, where: str) -> int:
    if type(value) is not int or value < 0:
        raise InvalidParameterError(f"{where} = {value!r} is not a vertex count")
    return value


def _parse_block(b: np.ndarray) -> np.ndarray:
    """The edge lines in bytes b, whole lines, as an (E, 4) int64 array.

    Positions below are into b padded with a newline on each side, so the
    lines are the spans between consecutive line ends and every token has a
    byte outside it on either side.  A token's magnitude is summed from its
    last byte back, one place a pass over all tokens; a position before the
    token reads the zero of a non-digit byte.  The first line that breaks
    the grammar, or holds a value outside int64, is named in the error."""
    pad = np.full(len(b) + 2, ord("\n"), dtype=np.uint8)
    pad[1:-1] = b
    value = pad - np.uint8(ord("0"))
    digit = value < 10
    value *= digit
    minus = pad == ord("-")
    tok = digit | minus
    is_eol = (pad == ord("\n")) | (pad == ord("\r"))
    bad = ~(tok | is_eol | (pad == ord(" ")) | (pad == ord("\t")))
    edges = np.flatnonzero(tok[1:] != tok[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    lens = ends - starts
    longest = int(lens.max(initial=0))
    last, before = ends - 1, starts - 1
    mag = np.zeros(len(starts), dtype=np.uint64)
    for place in range(min(longest, 19)):
        mag += np.take(value, np.maximum(last - place, before)) * _PLACE[place]
    neg = minus[starts]
    m = np.flatnonzero(minus)
    bad_pos = [
        np.flatnonzero(bad),
        m[tok[m - 1] | ~digit[m + 1]],  # a minus not leading a digit string
        starts[mag > _INT64_MAX + neg],
    ]
    if longest > 19:
        # a nonzero digit at place 19 or beyond means a value of 10**19 or more
        nonzero = np.cumsum(value > 0)
        wide = np.flatnonzero(lens > 19)
        high = nonzero[ends[wide] - 20] - nonzero[starts[wide] - 1]
        bad_pos.append(starts[wide[high > 0]])
    eol = np.flatnonzero(is_eol)
    counts = np.diff(np.searchsorted(starts, eol))
    bad_lines = [np.flatnonzero((counts != 0) & (counts != 4))]
    bad_lines += [np.searchsorted(eol, p[:1]) - 1 for p in bad_pos]
    bad_lines = np.concatenate(bad_lines)
    if len(bad_lines):
        line = bad_lines.min()
        text = b[eol[line]:eol[line + 1] - 1].tobytes().decode("utf-8")
        raise InvalidParameterError(f"malformed edge line: {text!r}")
    return np.where(neg, -mag, mag).view(np.int64).reshape(-1, 4)


def _edge_columns(raw: bytes, start: int):
    """The edge lines of raw from start on as four int64 columns, parsed in
    blocks that each end at the first line end _BLOCK_BYTES or more past
    their start (or at the end of raw)."""
    blocks = [np.empty((0, 4), dtype=np.int64)]
    while start < len(raw):
        cut = _LINE_END.search(raw, start + _BLOCK_BYTES)
        stop = cut.end() if cut else len(raw)
        blocks.append(_parse_block(np.frombuffer(raw, np.uint8, stop - start, start)))
        start = stop
    return [np.concatenate([blk[:, j] for blk in blocks]) for j in range(4)]


def parse_edgelist(text: str) -> SerreGraph:
    return _parse_edgelist_bytes(text.encode())


def _parse_edgelist_bytes(raw: bytes) -> SerreGraph:
    """parse_edgelist on the UTF-8 bytes of the text."""
    head = _HEADER_LINE.match(raw)
    header = head.group(1).decode()
    if not header.startswith(HEADER_PREFIX):
        raise InvalidParameterError("not an expander-forge v1 edge list (missing header)")
    meta = {}
    for tok in header[len(HEADER_PREFIX):].split():
        k, _, v = tok.partition("=")
        meta[k] = int(v) if v.lstrip("-").isdigit() else v
    origin, terminus, label, inv = _edge_columns(raw, head.end())
    if "V" not in meta:
        raise InvalidParameterError("header missing V=")
    nv = _vertex_count(meta["V"], "header V")
    return SerreGraph(nv, origin, terminus, inv, label, meta=meta)


def graph_to_json(g: SerreGraph) -> dict:
    edges = []
    for cols in _file_order_rows(g):
        edges += np.stack(cols, axis=1).tolist()
    return {
        "format": "expander-forge-graph",
        "schema": SCHEMA_VERSION,
        "meta": dict(g.meta),
        "num_vertices": g.num_vertices,
        "edges": edges,
    }


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
    return SerreGraph(
        nv,
        [e[0] for e in edges],
        [e[1] for e in edges],
        [e[3] for e in edges],
        [e[2] for e in edges],
        meta=obj.get("meta", {}),
    )


def format_dot(g: SerreGraph) -> str:
    """DOT output with loops and parallel edges kept as separate statements."""
    lines = ["graph expander_forge {"]
    for v in range(g.num_vertices):
        lines.append(f"  {v};")
    origin, terminus = g.origin.tolist(), g.terminus.tolist()
    label, inv = g.label.tolist(), g.inv.tolist()
    for e in range(g.num_edges):
        if e <= inv[e]:
            lab = f' [label="{label[e]}"]' if label[e] >= 0 else ""
            lines.append(f"  {origin[e]} -- {terminus[e]}{lab};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
        return graph_from_json(json.loads(raw))
    return _parse_edgelist_bytes(raw)


def atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-forge-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
            {"word": list(h.word.letters), "quaternion": list(h.quaternion.coefficients())}
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
            "bipartite": s.bipartite,
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
            "mode": result.mode,
            "twist_seed": cfg.twist_seed,
            "twist_seed_used": None if result.twist is None else result.twist.seed,
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
    twist = None
    if args.twist_seed is not None:
        twist = twist_sequence(cfg, args.twist_seed, levels=args.level)
    t0 = time.perf_counter()
    lvl = build_level(cfg, args.level, twist)
    _t(f"build level {args.level}", t0)
    atomic_write(args.out, format_edgelist(lvl.graph))
    print(f"vertices={lvl.graph.num_vertices} directed_edges={lvl.graph.num_edges}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g = load_graph(args.infile)
    degrees = set(g.degrees())
    if len(degrees) != 1:
        raise InvalidParameterError(f"graph is not regular (degrees {sorted(degrees)})")
    q = degrees.pop() - 1
    t0 = time.perf_counter()
    sr = ramanujan_check(g, q, method=args.method)
    _t("spectrum", t0)
    print(f"[residual] max {sr.max_residual:.3e}{_solve_counts(sr)}", file=sys.stderr)
    report = {
        "schema": SCHEMA_VERSION,
        "tool": "expander-forge",
        "source": dict(g.meta),
        "vertices": g.num_vertices,
        "directed_edges": g.num_edges,
        "degree": q + 1,
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
    if args.export_dir:
        os.makedirs(args.export_dir, exist_ok=True)
        for lvl in result.levels:
            path = os.path.join(args.export_dir, f"level{lvl.n}.edges")
            atomic_write(path, format_edgelist(lvl.graph))
    return EXIT_OK


def cmd_probe(args) -> int:
    cfg = TowerConfig(args.q1, args.q2, levels=args.level, variant="cartan",
                      twist_seed=args.twist_seed)
    probe, twist, reseeds = probe_with_reseed(cfg, args.max_word_len)
    pp_top = PrimePower(args.q2, args.level)
    for seed in reseeds:
        print(f"# reseeded: twist seed {seed} was degenerate")
    print(f"# {probe.words_tested} reduced words tested, "
          f"{len(probe.survivors)} survive {probe.up_to_level} level(s)")
    for hit in probe.survivors:
        word = ".".join(str(a) for a in hit.word.letters)
        coeffs = hit.quaternion.coefficients()
        m = split(hit.quaternion, pp_top)
        print(f"word [{word}] quaternion {coeffs} matrix {m.entries()} mod {pp_top.modulus}")
    return EXIT_OK


def cmd_export(args) -> int:
    g = load_graph(args.infile)
    if args.format == "edgelist":
        data = format_edgelist(g)
    elif args.format == "json":
        data = dump_report(graph_to_json(g))
    else:
        data = format_dot(g)
    if args.out:
        atomic_write(args.out, data)
    else:
        sys.stdout.write(data)
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
    except (InvalidParameterError, WordLengthError, GraphConstructionError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (VerificationError, ConvergenceError) as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
