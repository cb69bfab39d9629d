import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expander_forge.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    format_edgelist,
    graph_from_json,
    graph_to_json,
    load_graph,
    main,
    parse_edgelist,
)
from expander_forge.multigraph import SerreGraph
from expander_forge.tower import TowerConfig, build_level


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


def test_build_rejects_bad_primes(tmp_path, capsys):
    rc = main(["build", "--q1", "4", "--q2", "13", "--level", "1",
               "--out", str(tmp_path / "x.edges")])
    assert rc == EXIT_USAGE
    assert "q1 must be a prime" in capsys.readouterr().err


def test_build_io_failure(tmp_path):
    rc = main(["build", "--q1", "5", "--q2", "13", "--level", "1",
               "--out", str(tmp_path / "no" / "such" / "dir" / "x.edges")])
    assert rc == EXIT_IO


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
    edges.write_bytes(b"\r\n \n" + text.replace("\n", "\r\n").encode())
    js.write_text("\n\t " + json.dumps(graph_to_json(g)))
    for path in (edges, js):
        assert format_edgelist(load_graph(str(path))) == text


def test_spectrum_missing_file(tmp_path):
    assert main(["spectrum", "--in", str(tmp_path / "nope.edges")]) == EXIT_IO


def test_export_round_trip(level1_file, tmp_path):
    json_path = tmp_path / "lvl1.json"
    back_path = tmp_path / "back.edges"
    assert main(["export", "--in", str(level1_file), "--format", "json",
                 "--out", str(json_path)]) == EXIT_OK
    assert main(["export", "--in", str(json_path), "--format", "edgelist",
                 "--out", str(back_path)]) == EXIT_OK
    assert back_path.read_bytes() == level1_file.read_bytes()


def test_export_dot_renders_loops(level1_file, tmp_path, capsys):
    assert main(["export", "--in", str(level1_file), "--format", "dot"]) == EXIT_OK
    dot = capsys.readouterr().out
    assert dot.startswith("graph expander_forge {")
    assert "0 -- 0" in dot  # the loop at the base vertex
    # every geometric edge appears exactly once
    assert dot.count(" -- ") == 1092 // 2


def test_export_borel_dot(tmp_path, capsys):
    path = tmp_path / "borel.edges"
    main(["build", "--q1", "5", "--q2", "13", "--level", "1",
          "--variant", "borel", "--out", str(path)])
    capsys.readouterr()
    assert main(["export", "--in", str(path), "--format", "dot"]) == EXIT_OK
    dot = capsys.readouterr().out
    assert dot.count(";") >= 14


def test_graph_json_schema(level1_file):
    g = load_graph(str(level1_file))
    obj = graph_to_json(g)
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


def test_malformed_edge_list(tmp_path):
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
        f"{header} V=2\n0 1 1-2 1\n1 0 0 0\n",
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
    ]
    for i, row in enumerate(rows):
        bad = tmp_path / f"bad{i}"
        if isinstance(row, bytes):
            bad.write_bytes(row)
        else:
            bad.write_text(row if isinstance(row, str) else json.dumps(row))
        assert main(["spectrum", "--in", str(bad)]) == EXIT_USAGE, row
        assert main(["export", "--in", str(bad), "--format", "json"]) == EXIT_USAGE, row


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
])
def test_spectrum_refuses_graph_outside_the_claim(tmp_path, name, edges, message):
    # Both files are well formed, so export accepts them; spectrum refuses
    # them with one error line.
    g = SerreGraph.from_geometric_edges(max(max(e) for e in edges) + 1, edges)
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
