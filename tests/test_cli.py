import hashlib
import inspect
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cycle_graph, from_geometric_edges, parse_edgelist, traced_peak
from expander_forge import cli, errors, spectra, tower
from expander_forge.cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    dump_report,
    format_edgelist,
    graph_from_json,
    load_graph,
    main,
)
from expander_forge.tower import TowerConfig, build_level
from oracles import graph_to_json, string_format_dot


@pytest.fixture(scope="module")
def level1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "lvl1.edges"
    rc = main(["build", "--q1", "5", "--q2", "13", "--level", "1",
               "--variant", "cartan", "--out", str(path)])
    assert rc == EXIT_OK
    return path


def test_build_writes_edge_list(level1_file, capsys):
    text = level1_file.read_text()
    lines = text.splitlines()
    assert lines[0] == "# expander-forge v1 q1=5 q2=13 n=1 variant=cartan mode=PGL V=182"
    assert len(lines) == 1 + 1092
    first = lines[1].split()
    assert len(first) == 4


def test_build_edge_list_round_trips(level1_file):
    g = parse_edgelist(level1_file.read_text())
    lvl = build_level(TowerConfig(5, 13), 1)
    assert g.num_vertices == 182
    assert np.array_equal(g.origin, lvl.graph.origin)
    assert np.array_equal(g.terminus, lvl.graph.terminus)
    assert np.array_equal(g.inv, lvl.graph.inv)
    assert np.array_equal(g.label, lvl.graph.label)
    assert format_edgelist(g) == level1_file.read_text()


def test_spectrum_report_gives_cayley_girth(tmp_path, capsys):
    # the all-source girth of a built cayley level, through the CLI
    graph, report_path = tmp_path / "cayley.edges", tmp_path / "report.json"
    assert main(["build", "--q1", "5", "--q2", "13", "--level", "1", "--variant", "cayley",
                 "--out", str(graph)]) == EXIT_OK
    assert main(["spectrum", "--in", str(graph), "--report", str(report_path)]) == EXIT_OK
    assert json.loads(report_path.read_text())["girth"] == 8


def test_build_rejects_bad_primes(tmp_path, capsys):
    rc = main(["build", "--q1", "4", "--q2", "13", "--level", "1",
               "--out", str(tmp_path / "x.edges")])
    assert rc == EXIT_USAGE
    assert "q1 must be a prime" in capsys.readouterr().err


def test_build_io_failure(tmp_path):
    rc = main(["build", "--q1", "5", "--q2", "13", "--level", "1",
               "--out", str(tmp_path / "no" / "such" / "dir" / "x.edges")])
    assert rc == EXIT_IO


@pytest.mark.parametrize("case", ["tower-report", "tower-export", "build-out",
                                  "spectrum-report", "tower-report-is-dir", "export-out",
                                  "export-out-is-dir"])
def test_unwritable_output_is_refused_before_any_work(case, level1_file, tmp_path, capsys,
                                                      monkeypatch):
    # Exit 3 with one i/o error line, before any timed work starts, before
    # any graph file is read and with no report written.
    def no_load(path):
        raise AssertionError(f"{path} was read before the output was checked")

    monkeypatch.setattr(cli, "load_graph", no_load)
    report, missing = tmp_path / "r.json", str(tmp_path / "no" / "r.json")
    blocker = tmp_path / "file"
    blocker.write_text("")
    tower = ["tower", "--q1", "5", "--q2", "13", "--levels", "2"]
    argv = {
        "tower-report": tower + ["--report", missing],
        "tower-export": tower + ["--report", str(report), "--export-dir", str(blocker)],
        "build-out": ["build", "--q1", "5", "--q2", "13", "--level", "2", "--out", missing],
        "spectrum-report": ["spectrum", "--in", str(level1_file), "--report", missing],
        "tower-report-is-dir": tower + ["--report", str(tmp_path)],
        "export-out": ["export", "--in", str(level1_file), "--format", "dot", "--out", missing],
        "export-out-is-dir": ["export", "--in", str(level1_file), "--format", "edgelist",
                              "--out", str(tmp_path)],
    }[case]
    assert main(argv) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error:"), lines
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert blocker.read_text() == ""


def test_spectrum_report(level1_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["spectrum", "--in", str(level1_file), "--report", str(report_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "ramanujan: true" in out
    assert "4.47213595499958" in out
    report = json.loads(report_path.read_text())
    assert report["schema"] == 1
    assert report["vertices"] == 182
    assert report["girth"] == 1
    assert report["spectrum"]["ramanujan"] is True
    assert report["spectrum"]["ramanujan_bound"] == 2 * math.sqrt(5)
    assert report["spectrum"]["lambda_top"] == 6.0


def test_spectrum_empty_file(tmp_path):
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    assert main(["spectrum", "--in", str(empty)]) == EXIT_USAGE


def test_load_graph_reads_bytes(tmp_path, capsys):
    # Empty, blank and non-UTF-8 files exit 2; an edge list with CRLF line
    # ends after blank lines, and JSON after blanks, load as their text.
    g = build_level(TowerConfig(5, 13), 1).graph
    text = format_edgelist(g)
    rows = [(b"", "is empty"), (b" \r\n\t\n", "is empty"),
            (text.encode()[:-40] + b"\xff\n", "is not UTF-8 text")]
    for i, (raw, message) in enumerate(rows):
        bad = tmp_path / f"bad{i}"
        bad.write_bytes(raw)
        assert main(["export", "--in", str(bad), "--format", "json"]) == EXIT_USAGE
        assert message in capsys.readouterr().err
    edges, js = tmp_path / "g.edges", tmp_path / "g.json"
    edges.write_text(text)
    assert main(["export", "--in", str(edges), "--format", "json", "--out", str(js)]) == EXIT_OK
    js.write_text("\n\t " + json.dumps(json.loads(js.read_text())))
    edges.write_bytes(b"\r\n \n" + text.replace("\n", "\r\n").encode())
    for path in (edges, js):
        assert format_edgelist(load_graph(str(path))) == text


def test_spectrum_missing_file(tmp_path):
    assert main(["spectrum", "--in", str(tmp_path / "nope.edges")]) == EXIT_IO


def test_export_round_trip(level1_file, tmp_path, capsys, monkeypatch):
    json_path = tmp_path / "lvl1.json"
    back_path = tmp_path / "back.edges"
    assert main(["export", "--in", str(level1_file), "--format", "json",
                 "--out", str(json_path)]) == EXIT_OK
    assert main(["export", "--in", str(json_path), "--format", "edgelist",
                 "--out", str(back_path)]) == EXIT_OK
    assert back_path.read_bytes() == level1_file.read_bytes()
    # streamed to stdout in chunks of 7 rows
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    capsys.readouterr()
    assert main(["export", "--in", str(json_path), "--format", "edgelist"]) == EXIT_OK
    assert capsys.readouterr().out == level1_file.read_text()


def test_export_dot_renders_loops(level1_file, tmp_path, capsys):
    assert main(["export", "--in", str(level1_file), "--format", "dot"]) == EXIT_OK
    dot = capsys.readouterr().out
    assert dot.startswith("graph expander_forge {")
    assert "0 -- 0" in dot  # the loop at the base vertex
    # every geometric edge appears exactly once
    assert dot.count(" -- ") == 1092 // 2


class _LoggedFile:
    """A file that logs the length of each str piece written to it."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, pieces):
        for piece in pieces:
            self.writes.append(len(piece))
            self.fh.write(piece)


def test_export_dot_streams_its_pieces(tmp_path, monkeypatch):
    # The DOT export writes each piece as it is made, never the joined text:
    # the head, the vertex chunk, the forward edges of each of the six
    # chunks of ids and the tail of (5,13) cartan level 2, one chunk in
    # flight.
    path, out = tmp_path / "g.edges", tmp_path / "g.dot"
    cli.write_edgelist(str(path), build_level(TowerConfig(5, 13, levels=2), 2).graph)
    g = load_graph(str(path))
    writes = []
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _LoggedFile(fdopen(fd, mode), writes))
    assert main(["export", "--in", str(path), "--format", "dot", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == string_format_dot(g)
    assert len(writes) == 9 and max(writes) < out.stat().st_size // 2


def test_export_borel_dot(tmp_path, capsys):
    path = tmp_path / "borel.edges"
    main(["build", "--q1", "5", "--q2", "13", "--level", "1",
          "--variant", "borel", "--out", str(path)])
    capsys.readouterr()
    assert main(["export", "--in", str(path), "--format", "dot"]) == EXIT_OK
    dot = capsys.readouterr().out
    assert dot.count(";") >= 14


def test_graph_json_schema(level1_file, tmp_path):
    g = load_graph(str(level1_file))
    path = tmp_path / "g.json"
    assert main(["export", "--in", str(level1_file), "--format", "json",
                 "--out", str(path)]) == EXIT_OK
    obj = json.loads(path.read_text())
    assert obj["schema"] == 1
    assert obj["format"] == "expander-forge-graph"
    g2 = graph_from_json(obj)
    assert np.array_equal(g2.origin, g.origin) and np.array_equal(g2.inv, g.inv)


def test_probe_output(capsys):
    rc = main(["probe", "--q1", "5", "--q2", "13", "--level", "2", "--max-word-len", "2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "4 survive 2 level(s)" in out
    assert "word [5] quaternion (1, 2, 0, 0)" in out
    assert "matrix (141, 0, 0, 30) mod 169" in out


def test_probe_twisted(capsys):
    rc = main(["probe", "--q1", "5", "--q2", "13", "--level", "2",
               "--max-word-len", "2", "--twist-seed", "42"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "0 survive" in out


def test_probe_command_draws_the_twist_once(monkeypatch, capsys):
    # seed 17 is degenerate at (5,13), so the one draw also skips a seed
    from expander_forge import tower

    draws = []
    draw = tower.twist_sequence
    monkeypatch.setattr(tower, "twist_sequence", lambda *args: draws.append(args) or draw(*args))
    for seed in ("42", "17"):
        draws.clear()
        assert main(["probe", "--q1", "5", "--q2", "13", "--level", "3", "--max-word-len", "4",
                     "--twist-seed", seed]) == EXIT_OK
        assert len(draws) == 1
    assert capsys.readouterr().out.count("# reseeded: twist seed 17 was degenerate") == 1
    probe, reseeds = tower.probe_with_reseed(TowerConfig(5, 13, levels=3, twist_seed=17))
    assert probe.twisted and reseeds == (17,)
    assert probe.twist.seed == 18 and len(probe.twist.matrices) == 3


def test_tower_single_level_report(tmp_path, capsys):
    report_path = tmp_path / "tower.json"
    rc = main(["tower", "--q1", "5", "--q2", "13", "--levels", "1",
               "--report", str(report_path)])
    assert rc == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["schema"] == 1
    assert report["config"]["mode"] == "PGL"
    assert len(report["levels"]) == 1
    assert report["coverings"] == []
    level = report["levels"][0]
    assert level["vertices"] == 182
    assert level["girth"] == 1
    assert level["loop_witness"] == {"vertex": 0, "generator": 5}
    assert level["spectrum"]["ramanujan"] is True
    assert report["probe"]["contains_length_one"] is True


def test_tower_rejects_zero_levels(tmp_path):
    rc = main(["tower", "--q1", "5", "--q2", "13", "--levels", "0",
               "--report", str(tmp_path / "r.json")])
    assert rc == EXIT_USAGE


def test_tower_export_dir(tmp_path, capsys):
    report_path = tmp_path / "tower.json"
    export_dir = tmp_path / "graphs"
    rc = main(["tower", "--q1", "13", "--q2", "5", "--levels", "2",
               "--report", str(report_path), "--export-dir", str(export_dir)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "covering 2 -> 1: verified" in out
    for n, v in ((1, 30), (2, 750)):
        g = load_graph(str(export_dir / f"level{n}.edges"))
        assert g.num_vertices == v


def test_tower_prints_its_levels_in_level_order(tmp_path, capsys):
    # the levels are checked top level first; what is printed is not
    rc = main(["tower", "--q1", "13", "--q2", "5", "--levels", "3",
               "--report", str(tmp_path / "tower.json")])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert re.findall(r"^\[residual\] level (\d+):", captured.err, re.M) == ["1", "2", "3"]
    assert re.findall(r"^level (\d+):", captured.out, re.M) == ["1", "2", "3"]
    report = json.loads((tmp_path / "tower.json").read_text())
    assert [level["n"] for level in report["levels"]] == [1, 2, 3]


def test_build_and_tower_export_the_same_twisted_level(tmp_path, capsys):
    # one seed twists both commands: build's level 2 is byte for byte the
    # level 2 that tower exports (seed 42 is not reseeded)
    args = ["--q1", "5", "--q2", "13", "--twist-seed", "42"]
    built = tmp_path / "built.edges"
    assert main(["build", *args, "--level", "2", "--out", str(built)]) == EXIT_OK
    export_dir = tmp_path / "tower"
    assert main(["tower", *args, "--levels", "2", "--report", str(tmp_path / "tower.json"),
                 "--export-dir", str(export_dir)]) == EXIT_OK
    report = json.loads((tmp_path / "tower.json").read_text())
    assert report["config"]["twist_seed_used"] == 42 and report["reseeds"] == []
    text = built.read_bytes()
    assert text == (export_dir / "level2.edges").read_bytes()
    plain = tmp_path / "plain.edges"
    assert main(["build", *args[:4], "--level", "2", "--out", str(plain)]) == EXIT_OK
    assert text != plain.read_bytes()


def test_degenerate_seed_gives_every_command_the_same_level(tmp_path, capsys):
    # (5,13) seed 17 is degenerate at level 1, so build, tower at any depth
    # and probe at any depth all read seed 18's twist
    args = ["--q1", "5", "--q2", "13", "--twist-seed", "17"]
    built, kept = tmp_path / "built.edges", tmp_path / "kept.edges"
    assert main(["build", *args, "--level", "1", "--out", str(built)]) == EXIT_OK
    assert main(["build", *args[:4], "--twist-seed", "18", "--level", "1",
                 "--out", str(kept)]) == EXIT_OK
    text = built.read_bytes()
    assert text == kept.read_bytes()
    for levels in ("1", "2"):
        report_path, export_dir = tmp_path / f"tower{levels}.json", tmp_path / f"tower{levels}"
        assert main(["tower", *args, "--levels", levels, "--report", str(report_path),
                     "--export-dir", str(export_dir)]) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["config"]["twist_seed"] == 17
        assert report["config"]["twist_seed_used"] == 18 and report["reseeds"] == [17]
        assert (export_dir / "level1.edges").read_bytes() == text
    for level in ("1", "2"):
        capsys.readouterr()
        assert main(["probe", *args, "--level", level, "--max-word-len", "2"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("# reseeded: twist seed 17 was degenerate\n")


# sha256 of each output, recorded when these commands were first pinned;
# an output's bytes change only with a change named in CHANGES.md.  The
# probe's stdout is pinned in test_closed_walks.py.
PINNED_OUTPUTS = {
    "cartan1.edges": "e2ef737100fd813142b245b65c26ffca5aaae4ff402fe57b8ee282a5a3007164",
    "borel2.edges": "c6c13ed5d80bade3fb347164b6982a565cb4d46035751cf5f12cca930dec6084",
    "cayley1.edges": "0749d4096e265863ae1f69de147686dd51f6f0d1b2260f3868e9ed90cdacb048",
    "cartan1.json": "b84847230729444a8875f8aa3d7fa4b3d402f5c25bee02dea1eea13efe74e976",
    "cartan1.dot": "664046f3afd05965f9e14c0049b0a52b7d62acfa20e96cc9f89c7391e96ff874",
    "tower-cayley-5-17.json": "b1213aaba1a5dbcdc1cb7c54145704e1db8586025efefc0d7cdd1b77d59c473a",
    "cayley-5-17-1.edges": "52a32c0ee855104ab16c9bd0efbe7973e598f2c2157b347b9744bd4cbfa84a17",
    "spectrum-cartan1.json": "5e2f6b1915b5b79bfdbe4948ae32d32664699512e451a9f87b15eee4a20e6486",
    "spectrum-cayley-5-17-1.json":
        "c0daede6e223f86eefe17679aa661a632ca6d5f7af107717211956b2ebc38c85",
    # seed 17 is degenerate at level 1: twist_seed_used 18, reseeds [17]
    "tower-5-13-2-seed17.json": "9612631b6d926e04387708df2e663d5b110deec33c269c45e31c33dd90ad55de",
    # 184,548 edges: six chunks of rows
    "cartan2.edges": "de0e7599fa10b582948990653d17f7397723904347c1e75559893e374e71d3dc",
    "cartan2.json": "21403b69ab56372d797c4a468d50be0ced54b1d49f23a7fa2f8de6461a31a72f",
}


def test_output_bytes_are_pinned(tmp_path):
    got = {}

    def run(path, argv):
        assert main(argv) == EXIT_OK, path.name
        got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()

    for variant, n in (("cartan", 1), ("borel", 2), ("cayley", 1), ("cartan", 2)):
        path = tmp_path / f"{variant}{n}.edges"
        run(path, ["build", "--q1", "5", "--q2", "13", "--level", str(n), "--variant", variant,
                   "--out", str(path)])
    for name in ("cartan1.json", "cartan1.dot", "cartan2.json"):
        path = tmp_path / name
        stem, fmt = name.split(".")
        run(path, ["export", "--in", str(tmp_path / f"{stem}.edges"), "--format", fmt,
                   "--out", str(path)])
    path = tmp_path / "tower-cayley-5-17.json"
    run(path, ["tower", "--q1", "5", "--q2", "17", "--levels", "1", "--variant", "cayley",
               "--report", str(path)])
    path = tmp_path / "cayley-5-17-1.edges"
    run(path, ["build", "--q1", "5", "--q2", "17", "--level", "1", "--variant", "cayley",
               "--out", str(path)])
    # the dense verdict of the cartan list, and the iterative, bipartite one
    # of the cayley list (4,896 vertices)
    for name in ("cartan1", "cayley-5-17-1"):
        path = tmp_path / f"spectrum-{name}.json"
        run(path, ["spectrum", "--in", str(tmp_path / f"{name}.edges"), "--report", str(path)])
    path = tmp_path / "tower-5-13-2-seed17.json"
    run(path, ["tower", "--q1", "5", "--q2", "13", "--levels", "2", "--twist-seed", "17",
               "--report", str(path)])
    assert got == PINNED_OUTPUTS


def test_usage_error_exit_code():
    assert main(["build", "--q1", "5"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_spectrum_prism_fixture_not_ramanujan(tmp_path, capsys):
    # a hand-made 3-regular fixture travels through the same file format
    from conftest import prism_graph

    g = prism_graph(20)
    g.meta.update(q1=2, q2=0, n=0, variant="fixture", mode="NA", V=g.num_vertices)
    path = tmp_path / "prism.edges"
    path.write_text(format_edgelist(g))
    assert main(["spectrum", "--in", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ramanujan: false" in out


def test_malformed_edge_list(tmp_path, capsys):
    header = "# expander-forge v1 q1=5 q2=13 n=1 variant=cartan mode=PGL"
    graph = {"format": "expander-forge-graph", "schema": 1, "meta": {},
             "num_vertices": 2, "edges": [[0, 1, 0, 1], [1, 0, 0, 0]]}
    rows = [
        "# wrong header\n0 1 0 1\n",
        f"{header} V=2\n0 1 0\n",
        f"{header} V=x\n0 1 0 1\n1 0 0 0\n",
        f"{header} V=-2\n0 1 0 1\n1 0 0 0\n",
        f"{header}\n0 1 0 1\n1 0 0 0\n",
        f"{header} V=2\n0 0 a 1\n1 0 0 0\n",
        f"{header} V=2\n0 {2**40} 0 1\n1 0 0 0\n",
        f"{header} V=2\n0 1 0 -1\n1 0 0 0\n",
        f"{header} V=2\n0 1 0 1 0\n1 0 0 0\n",
        f"{header} V=2\n0 1 0\n1 1 0 0 0\n",
        f"{header} V=2\n0 {2**63} 0 1\n1 0 0 0\n",
        f"{header} V=2\n0 1 {2**63} 1\n1 0 0 0\n",
        f"{header} V=2\n0 1 {-(2**63) - 1} 1\n1 0 0 0\n",
        f"{header} V=2\n0 1 {10**19} 1\n1 0 0 0\n",
        f"{header} V=2\n0 1 +5 1\n1 0 0 0\n",
        f"{header} V=2\n0 1 1_0 1\n1 0 0 0\n",
        f"{header} V=2\n0 1 \u0663 1\n1 0 0 0\n".encode(),
        f"{header} V=2\n0 1 - 1\n1 0 0 0\n",
        f"{header} V=\u00b2\n0 1 0 1\n1 0 0 0\n",  # a digit to isdigit(), not to int()
        f"{header} V=\u0663\n0 1 0 1\n1 0 0 0\n",  # an Arabic-Indic 3
        f"{header} V=2\n0 1 1-2 1\n1 0 0 0\n",
        f"{header} V=2 V=3\n0 1 0 1\n1 0 0 0\n",  # a key given twice
        f"{header} q1=5 V=2\n0 1 0 1\n1 0 0 0\n",
        dict(graph, edges=[[0, 1, 0, 2**40], [1, 0, 0, 0]]),
        dict(graph, edges=[[0, 1, 0, 1], [-1, 0, 0, 0]]),
        {k: v for k, v in graph.items() if k != "edges"},
        {k: v for k, v in graph.items() if k != "num_vertices"},
        dict(graph, num_vertices="2"),
        dict(graph, edges={"0": [0, 1, 0, 1]}),
        dict(graph, edges=[[0, 1, 0], [1, 0, 0, 0]]),
        dict(graph, edges=[[0, 1, 0, "1"], [1, 0, 0, 0]]),
        dict(graph, meta=[1, 2]),
        f"{header} V=2\n0 1 0 1\n1 0 0 \xff\xfe\n".encode("latin-1"),
        b'{"format": "expander-forge-graph", "meta": {"x": "\xff"}}',
        b'{"a":' + b"[" * 200_000 + b"]" * 200_000 + b"}",
        # integers of more digits than int() converts
        f"{header} V={'9' * 5000}\n0 1 0 1\n1 0 0 0\n",
        json.dumps(dict(graph, num_vertices=0)).replace('"num_vertices": 0',
                                                        f'"num_vertices": {"9" * 5000}').encode(),
    ]
    for i, row in enumerate(rows):
        bad = tmp_path / f"bad{i}"
        if isinstance(row, bytes):
            bad.write_bytes(row)
        else:
            bad.write_text(row if isinstance(row, str) else json.dumps(row))
        for argv in (["spectrum", "--in", str(bad)],
                     ["export", "--in", str(bad), "--format", "json"]):
            assert main(argv) == EXIT_USAGE, row
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, row
            assert not captured.out, row


GOOD_META = {"q1": 5, "q2": 13, "n": 1, "variant": "cartan", "mode": "PGL", "V": 2}


@pytest.mark.parametrize("field,value,message", [
    ("V", 7, "V=7 is not the graph's 2 vertices"),
    ("V", "2", "V='2' is not the graph's 2 vertices"),
    ("variant", "cartan\nx", "variant='cartan\\nx' does not read back"),
    ("variant", "a b", "does not read back"),
    ("variant", "a\u00a0b", "does not read back"),  # a no-break space
    ("mode", "x=y", "does not read back"),
    ("mode", "12", "mode='12' does not read back"),  # would read back as an int
    ("n", True, "n=True does not read back"),
    ("n", 1.5, "does not read back"),
    ("n", None, "does not read back"),
    ("variant", "\ud800", "does not read back"),  # no UTF-8 encoding
])
@pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["absent", "present"])
def test_export_refuses_a_header_that_does_not_read_back(tmp_path, capsys, field, value,
                                                         message, old):
    # The edge list's header is the only record of V and the metadata, so
    # a value it would not give back as itself is refused before any line,
    # and the target keeps its bytes or stays absent.
    src = tmp_path / "g.json"
    graph = {"format": "expander-forge-graph", "schema": 1,
             "meta": dict(GOOD_META, **{field: value}),
             "num_vertices": 2, "edges": [[0, 1, 0, 1], [1, 0, 0, 0]]}
    src.write_text(json.dumps(graph))
    out = tmp_path / "g.edges"
    if old is not None:
        out.write_bytes(old)
    assert main(["export", "--in", str(src), "--format", "edgelist", "--out", str(out)]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: graph metadata ") and message in err, err
    assert (out.read_bytes() if out.exists() else None) == old
    assert not list(tmp_path.glob(".tmp-forge-*"))
    assert main(["export", "--in", str(src), "--format", "edgelist"]) == EXIT_USAGE
    assert not capsys.readouterr().out
    # the good metadata writes a file that reads back to the same graph
    src.write_text(json.dumps(dict(graph, meta=GOOD_META)))
    assert main(["export", "--in", str(src), "--format", "edgelist", "--out", str(out)]) \
        == EXIT_OK
    assert load_graph(str(out)).meta == GOOD_META


def test_deep_json_is_refused_by_path(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_bytes(b'{"a":' + b"[" * 200_000 + b"]" * 200_000 + b"}")
    assert main(["export", "--in", str(deep), "--format", "json"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deep\n"


def test_header_integers_are_ascii_digits(tmp_path, capsys):
    # a header value is an integer when it is -?[0-9]+ in ASCII, and a string
    # otherwise, as variant= and mode= are
    path = tmp_path / "g.edges"
    path.write_text("# expander-forge v1 q1=\u00b2 q2=-13 n=1 variant=cartan mode=PGL V=2\n"
                    "0 1 0 1\n1 0 0 0\n")
    assert main(["export", "--in", str(path), "--format", "json"]) == EXIT_OK
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta == {"q1": "\u00b2", "q2": -13, "n": 1, "variant": "cartan", "mode": "PGL",
                    "V": 2}


def test_malformed_edge_line_message(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("# expander-forge v1 V=2\n0 1 0 1\n1 0 +5 0\n1 0 0\n")
    assert main(["export", "--in", str(bad), "--format", "json"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: malformed edge line: '1 0 +5 0'\n" and not captured.out


@pytest.mark.parametrize("body,label", [
    ("0\t1 0\t1\n1 0 0 0\n", 0),
    ("0 1 0 1\r\n1 0 0 0\r\n", 0),
    ("0 1 0 1\n \t \n1 0 0 0\n", 0),
    ("0 1 0 1\n1 0 0 0", 0),
    (f"0 1 {2**63 - 1} 1\n1 0 {2**63 - 1} 0\n", 2**63 - 1),
])
def test_edge_list_layouts_accepted(tmp_path, capsys, body, label):
    path = tmp_path / "ok.edges"
    path.write_bytes(f"# expander-forge v1 V=2\n{body}".encode())
    assert main(["export", "--in", str(path), "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["edges"] == [[0, 1, label, 1], [1, 0, label, 0]]


@pytest.mark.parametrize("name,edges,message", [
    ("path", [(0, 1), (1, 2)], "graph is not regular (degrees [1, 2])"),
    ("two-k4", [(a + o, b + o) for o in (0, 4) for a in range(4) for b in range(a + 1, 4)],
     "graph is not connected"),
    ("V=3", [], "graph has no edges"),
    ("V=0", [], "graph has no edges"),
    ("matching", [(0, 1)], "graph has degree 1; the verdict needs degree >= 2"),
])
def test_spectrum_refuses_graph_outside_the_claim(tmp_path, name, edges, message):
    # The files are well formed, so export accepts them; spectrum refuses
    # them with one error line.  An edgeless file's name gives its V.
    nv = max(max(e) for e in edges) + 1 if edges else int(name.removeprefix("V="))
    g = from_geometric_edges(nv, edges)
    g.meta.update(q1=0, q2=0, n=0, variant="fixture", mode="NA", V=g.num_vertices)
    path = tmp_path / f"{name}.edges"
    path.write_text(format_edgelist(g))
    assert main(["export", "--in", str(path), "--format", "json"]) == EXIT_OK
    proc = subprocess.run(
        [sys.executable, "-m", "expander_forge", "spectrum", "--in", str(path)],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr == f"error: {message}\n" and not proc.stdout


def test_build_refuses_level_beyond_physical_memory(tmp_path):
    # (5,13) cayley level 3 has about 1.05e10 vertices.  The child's address
    # space is capped, so a missing check fails on allocation instead of
    # exhausting the machine's memory.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    out = tmp_path / "l3.edges"
    proc = subprocess.run(
        [sys.executable, "-m", "expander_forge", "build", "--q1", "5", "--q2", "13",
         "--level", "3", "--variant", "cayley", "--out", str(out)],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
        timeout=120, preexec_fn=cap,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "physical memory" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["spectrum"], ["export", "--format", "dot"], ["spectrum", "--method", "dense"],
], ids=["spectrum", "export_dot", "spectrum_dense"])
def test_loaded_graph_beyond_physical_memory_is_refused(command, tmp_path):
    # A header of 10**12 vertices over one edge pair, and for the dense solve
    # a cycle of 40,000 vertices, whose 12.8 GB matrix exceeds the machine's
    # memory.  The child's address space is capped, so a missing check fails
    # on allocation instead of exhausting the machine's memory.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    path = tmp_path / "graph.edges"
    if command[-1] == "dense":
        g = cycle_graph(40_000)
        g.meta.update(q1=1, q2=0, n=0, variant="cycle", mode="NA", V=g.num_vertices)
        path.write_text(format_edgelist(g))
    else:
        path.write_text("# expander-forge v1 q1=5 q2=13 n=1 variant=cartan mode=PGL "
                        "V=1000000000000\n0 1 0 1\n1 0 0 0\n")
    out = tmp_path / "out"
    flag = "--report" if command[0] == "spectrum" else "--out"
    proc = subprocess.run(
        [sys.executable, "-m", "expander_forge", *command, "--in", str(path), flag, str(out)],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
        timeout=120, preexec_fn=cap,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "physical memory" in proc.stderr and not proc.stdout
    assert not out.exists()


@pytest.mark.parametrize("variant,n", [("cartan", 1), ("cayley", 1), ("cartan", 2)])
def test_dot_estimate_covers_the_traced_peak(variant, n, tmp_path, monkeypatch, capsys):
    # The estimate export --format dot refuses by, read from its message, is
    # at least the traced peak of the streamed DOT export of the loaded
    # graph.  (5,13) cartan level 1 has 546 forward edges, a part of one
    # chunk, and level 2 has 30,758 vertices and 92,274 forward edges, one
    # and three chunks.
    path, out = tmp_path / "g.edges", tmp_path / "g.dot"
    cli.write_edgelist(str(path), build_level(TowerConfig(5, 13, variant=variant, levels=n),
                                              n).graph)
    g = load_graph(str(path))
    _, peak = traced_peak(cli._atomic_stream, str(out), cli._dot_pieces(g))
    assert out.read_text() == string_format_dot(g)
    monkeypatch.setattr(tower, "_physical_memory", lambda: 0)
    assert main(["export", "--in", str(path), "--format", "dot"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: the DOT text of {g.num_vertices} vertices and "
                          f"{g.num_edges // 2} edges needs an estimated ")
    assert peak <= int(err.split("an estimated ")[1].split()[0])


@pytest.mark.parametrize("variant", ["cartan", "cayley"])
def test_json_estimates_cover_the_traced_peaks(tmp_path, variant):
    # The JSON export of a loaded graph holds the chunks formatted at once,
    # not its text: one bound, two chunks at 256 bytes a row, covers 1,092
    # and 184,548 edges ((5,13) cartan levels 1 and 2; cayley level 1 has
    # 13,104).  The parse of a level-1 JSON file is within its estimate per
    # byte, written as export writes it and without whitespace.
    edges, path = tmp_path / "g.edges", tmp_path / "g.json"
    for n in (1, 2) if variant == "cartan" else (1,):
        cli.write_edgelist(str(edges), build_level(TowerConfig(5, 13, variant=variant,
                                                               levels=n), n).graph)
        g = load_graph(str(edges))
        _, peak = traced_peak(cli._atomic_stream, str(path), cli._graph_pieces(g, "json"))
        assert peak <= 2 * cli._CHUNK_ROWS * 256
        text = path.read_text()
        assert text == dump_report(graph_to_json(g))
        if n == 1:
            level1, level1_text = g, text
    for data in (level1_text, json.dumps(json.loads(level1_text), separators=(",", ":"))):
        path.write_text(data)
        loaded, peak = traced_peak(load_graph, str(path))
        assert peak <= cli._JSON_LOAD_FACTOR * path.stat().st_size
        assert format_edgelist(loaded) == format_edgelist(level1)


def test_json_beyond_physical_memory_is_refused(level1_file, tmp_path, monkeypatch, capsys):
    # A JSON file is refused for its size before it is parsed: below the
    # estimate, exit 2 with no output and before json.loads; at it, the
    # command runs.
    def no_work(*args, **kwargs):
        raise AssertionError("JSON work started before the memory check")

    out, js = tmp_path / "out", tmp_path / "g.json"
    # the JSON text is streamed, so its export is not refused for memory
    monkeypatch.setattr(tower, "_physical_memory", lambda: 0)
    assert main(["export", "--in", str(level1_file), "--format", "json",
                 "--out", str(js)]) == EXIT_OK
    need = cli._JSON_LOAD_FACTOR * js.stat().st_size
    monkeypatch.setattr(tower, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(json, "loads", no_work)
    for argv in (["export", "--in", str(js), "--format", "edgelist", "--out", str(out)],
                 ["spectrum", "--in", str(js), "--report", str(out)]):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: parsing the {js.stat().st_size} bytes of JSON "
                                       f"in {js} needs an estimated {need} bytes")
        assert captured.err.count("\n") == 1
        assert "physical memory" in captured.err and not captured.out
        assert not out.exists()
    monkeypatch.undo()
    monkeypatch.setattr(tower, "_physical_memory", lambda: need)
    assert main(["export", "--in", str(js), "--format", "edgelist", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == level1_file.read_bytes()


def test_probe_refuses_level_beyond_physical_memory():
    # The step tables of (5,13) level 9 need about 1.5 TiB.  The child's
    # address space is capped, so a missing check fails on allocation.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "expander_forge", "probe", "--q1", "5", "--q2", "13",
         "--level", "9", "--max-word-len", "2"],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
        timeout=120, preexec_fn=cap,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "physical memory" in proc.stderr and not proc.stdout


@pytest.mark.parametrize("argv,message", [
    (["probe", "--level", "1", "--max-word-len", "10000"],
     "max_word_len 10000 exceeds cap 8 (over 5**10000 reduced words)"),
    (["probe", "--level", "1", "--max-word-len", "1000000000"],
     "max_word_len 1000000000 exceeds cap 8 (over 5**1000000000 reduced words)"),
    (["tower", "--levels", "1", "--probe-len", "10000"],
     "max_word_len 10000 exceeds cap 8 (over 5**10000 reduced words)"),
    (["build", "--level", "3000"], "modulus 13**3000 does not fit in int64"),
    (["tower", "--levels", "3000"], "modulus 13**3000 does not fit in int64"),
    (["probe", "--level", "3000", "--max-word-len", "2"], "modulus 13**3000 does not fit in int64"),
    (["build", "--level", "1000000000"], "modulus 13**1000000000 does not fit in int64"),
], ids=["probe_len", "probe_len_1e9", "tower_probe_len", "build_level", "tower_levels",
        "probe_level", "build_level_1e9"])
def test_oversized_level_or_word_length_exits_2(argv, message, tmp_path):
    # Each count is refused before it is computed: 5**(10**9) words or a
    # level of 13**5999 vertices would otherwise be computed and printed.
    # The child's address space and time are capped, so a missing check
    # fails on allocation or by timeout.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    out = tmp_path / "out"
    flag = {"build": ["--out", str(out)], "tower": ["--report", str(out)]}.get(argv[0], [])
    proc = subprocess.run(
        [sys.executable, "-m", "expander_forge", argv[0], "--q1", "5", "--q2", "13",
         *argv[1:], *flag],
        cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
        timeout=30, preexec_fn=cap,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr == f"error: {message}\n" and not proc.stdout
    assert not out.exists()


def test_spectrum_that_does_not_converge_exits_4(tmp_path, monkeypatch, capsys):
    # (5,17) cayley level 1 has 4,896 vertices, above DENSE_THRESHOLD, so the
    # iterative solve runs and stops at its step cap
    graph, report = tmp_path / "cayley.edges", tmp_path / "report.json"
    assert main(["build", "--q1", "5", "--q2", "17", "--level", "1", "--variant", "cayley",
                 "--out", str(graph)]) == EXIT_OK
    assert load_graph(str(graph)).num_vertices > spectra.DENSE_THRESHOLD
    capsys.readouterr()
    monkeypatch.setattr(spectra, "LANCZOS_MAX_STEPS", 5)
    assert main(["spectrum", "--in", str(graph), "--report", str(report)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal verification failure: ") and err.count("\n") == 1
    assert "in 5 steps" in err and not report.exists()
    # each estimate in the format of the bound beside it, not a numpy repr
    assert re.search(r"estimates \[\d\.\d{3}e[-+]\d{2}, \d\.\d{3}e[-+]\d{2}\] exceed", err)
    assert "np.float64(" not in err


_ERROR_CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                  if c.__module__ == errors.__name__]


@pytest.mark.parametrize("error", _ERROR_CLASSES, ids=[c.__name__ for c in _ERROR_CLASSES])
def test_every_library_error_has_an_exit_code(monkeypatch, capsys, error):
    # no exception class of the library leaves main as a traceback
    def fail(*args):
        raise error("the probe failed")

    monkeypatch.setattr(cli, "probe_with_reseed", fail)
    rc = main(["probe", "--q1", "5", "--q2", "13", "--level", "1", "--max-word-len", "2"])
    prefix = {EXIT_USAGE: "error", EXIT_INTERNAL: "internal verification failure"}[rc]
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}: the probe failed\n" and not captured.out
