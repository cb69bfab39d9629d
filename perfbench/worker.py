"""One benchmark iteration of expander-forge in a fresh interpreter.

Started by run.py as ``python3 worker.py SPEC_JSON``.  The spec names the
source tree, a work directory and the steps to run: CLI invocations
(``cli.main(argv)``, stdout captured to a file) or the library build
pipeline.  The worker times the imports (setup), then the steps (wall and
CPU), and writes ``_result.json`` into the work directory.  With
``"trace": true`` it first wraps the public layer functions and also returns
the spans, per-layer self times and counts.
"""

import functools
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout

# (defining module, function) -> layer.  Every module attribute bound to
# one of these function objects is replaced by the traced wrapper, so calls
# made through `from .x import f` bindings are seen too.
TRACED = {
    ("tower", "build_level"): "build",
    ("tower", "natural_covering"): "cover",
    ("multigraph", "is_covering"): "cover",
    ("multigraph", "girth"): "girth",
    ("spectra", "ramanujan_check"): "spectrum",
    ("tower", "probe_with_reseed"): "probe",
    ("tower", "intersection_probe"): "probe",
    ("cli", "format_edgelist"): "export",
    ("cli", "atomic_write"): "export",
    ("cli", "load_graph"): "load",
}
LAYERS = ("build", "cover", "girth", "spectrum", "probe", "export", "load")
COUNTS = ("build.vertices", "cover.edges", "girth.value", "spectrum.vertices",
          "probe.words", "probe.survivors", "export.bytes", "load.bytes")


class Tracer:
    """Spans (name, layer, parent, start, end) and counts at layer calls."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)

    def install(self, package):
        modules = [getattr(package, m) for m in ("cli", "tower", "multigraph", "spectra")]
        for (modname, fname), layer in TRACED.items():
            fn = getattr(getattr(package, modname), fname)
            traced = self._wrap(fname, layer, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)

    def _wrap(self, name, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer,
                    "parent": self.stack[-1] if self.stack else None}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result):
        c = self.counts
        if name == "build_level":
            c["build.vertices"] += result.graph.num_vertices
        elif name == "natural_covering":
            c["cover.edges"] += args[0].graph.num_edges
        elif name == "girth":
            if math.isfinite(result):
                c["girth.value"] = max(c["girth.value"], int(result))
        elif name == "ramanujan_check":
            c["spectrum.vertices"] += args[0].num_vertices
        elif name == "intersection_probe":
            c["probe.words"] += result.words_tested
        elif name == "probe_with_reseed":
            c["probe.survivors"] += len(result[0].survivors)
        elif name == "atomic_write":
            c["export.bytes"] += len(args[1].encode())
        elif name == "load_graph":
            c["load.bytes"] += os.path.getsize(args[0])

    def summary(self, t0, wall):
        """Per-layer self times and counts; the spans relative to t0."""
        self_time = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                self_time[s["parent"]] -= s["end"] - s["start"]
        layers = {f"{layer}.s": 0.0 for layer in LAYERS}
        for s, t in zip(self.spans, self_time):
            layers[f"{s['layer']}.s"] += t
        out = dict(layers)
        out.update(self.counts)
        out["build.vertices_per_s"] = _rate(self.counts["build.vertices"], layers["build.s"])
        out["probe.words_per_s"] = _rate(self.counts["probe.words"], layers["probe.s"])
        out["other.s"] = wall - sum(layers.values())
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        return out, spans


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def build_pipeline(package, step, workdir):
    """Library calls of the build workload: levels 1..N, the covering maps,
    girth and the loop witness of the top level, then its edge list written
    and read back."""
    tower, cli, multigraph = package.tower, package.cli, package.multigraph
    cfg = tower.TowerConfig(step["q1"], step["q2"], levels=step["level"], variant="cartan")
    levels = [tower.build_level(cfg, n) for n in range(1, cfg.levels + 1)]
    covers = [tower.natural_covering(levels[i + 1], levels[i]) for i in range(cfg.levels - 1)]
    top = levels[-1]
    gir = multigraph.girth(top.graph)
    witness = tower.loop_witness(top)
    path = os.path.join(workdir, step["out"])
    cli.atomic_write(path, cli.format_edgelist(top.graph))
    loaded = cli.load_graph(path)
    return {
        "vertices": [lvl.graph.num_vertices for lvl in levels],
        "coverings_verified": [c.verified for c in covers],
        "girth": gir,
        "loop_witness": [witness.vertex, witness.generator],
        "loaded": [loaded.num_vertices, loaded.num_edges],
    }


def run_steps(package, steps, workdir):
    """Run the steps in order; return exit codes and deferred file writes."""
    codes, files = [], {}
    for step in steps:
        if step["kind"] == "cli":
            buf = io.StringIO()
            with redirect_stdout(buf):
                codes.append(package.cli.main(step["argv"]))
            files[step["stdout"]] = buf.getvalue()
        else:
            facts = build_pipeline(package, step, workdir)
            files[step["facts"]] = json.dumps(facts, indent=2) + "\n"
            codes.append(0)
    return codes, files


def blas_info(module):
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t = time.perf_counter()
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (imported by the package anyway)
    import expander_forge
    import expander_forge.cli  # noqa: F401
    setup_s = time.perf_counter() - t

    workdir = spec["workdir"]
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(expander_forge)
    result = {"setup_s": setup_s, "codes": [], "error": None}
    files = {}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        result["codes"], files = run_steps(expander_forge, spec["steps"], workdir)
    except Exception:
        result["error"] = traceback.format_exc()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result["wall_s"] = wall
    result["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    result["peak_rss_mb"] = ru1.ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"], result["spans"] = tracer.summary(t0, wall)
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_info(numpy),
        "scipy_blas": blas_info(scipy),
        "blas_env": {k: os.environ.get(k) for k in spec["blas_env_keys"]},
    }
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(workdir, "_result.json"), "w") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None and not any(result["codes"]) else 1


if __name__ == "__main__":
    sys.exit(main())
