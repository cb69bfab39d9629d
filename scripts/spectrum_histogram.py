#!/usr/bin/env python3
"""Dense spectrum histogram of one tower level, with the fraction of
eigenvalues inside the interval [-2*sqrt(q1), 2*sqrt(q1)].

Example:
    python scripts/spectrum_histogram.py --q1 5 --q2 13 --level 1 --bins 24
"""

import argparse
import math
from dataclasses import dataclass

import numpy as np

from expander_forge import InvalidParameterError, TowerConfig, adjacency, build_level
from expander_forge.spectra import DENSE_THRESHOLD, RAMANUJAN_TOL


@dataclass(frozen=True)
class HistogramReport:
    counts: tuple
    bin_edges: tuple
    fraction_inside: float
    interval: tuple


def full_spectrum_histogram(a, q: int, bins: int = 32) -> HistogramReport:
    """Full spectrum of the sparse adjacency matrix a binned over
    [-(q+1), q+1], with the fraction of eigenvalues inside the interval
    [-2*sqrt(q), 2*sqrt(q)]."""
    n = a.shape[0]
    if n > DENSE_THRESHOLD:
        raise InvalidParameterError(
            f"histogram needs a dense solve; {n} > {DENSE_THRESHOLD} vertices"
        )
    vals = np.linalg.eigvalsh(a.toarray())
    bound = 2.0 * math.sqrt(q)
    inside = np.abs(vals) <= bound + RAMANUJAN_TOL
    # Eigenvalues lie in [-(q+1), q+1] exactly; clip off floating-point noise
    # so boundary values stay in the outer bins.
    clipped = np.clip(vals, -(q + 1.0), q + 1.0)
    counts, edges = np.histogram(clipped, bins=bins, range=(-(q + 1.0), q + 1.0))
    return HistogramReport(
        counts=tuple(int(c) for c in counts),
        bin_edges=tuple(float(e) for e in edges),
        fraction_inside=float(np.mean(inside)),
        interval=(-bound, bound),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q1", type=int, default=5)
    ap.add_argument("--q2", type=int, default=13)
    ap.add_argument("--level", type=int, default=1)
    ap.add_argument("--variant", choices=["cartan", "borel", "cayley"], default="cartan")
    ap.add_argument("--bins", type=int, default=24)
    args = ap.parse_args()

    cfg = TowerConfig(args.q1, args.q2, levels=args.level, variant=args.variant)
    lvl = build_level(cfg, args.level)
    hist = full_spectrum_histogram(adjacency(lvl.graph), args.q1, bins=args.bins)

    peak = max(hist.counts) or 1
    lo, hi = hist.interval
    print(f"{cfg.variant} level {args.level} ({args.q1},{args.q2}): "
          f"{lvl.graph.num_vertices} vertices")
    for count, left, right in zip(hist.counts, hist.bin_edges, hist.bin_edges[1:]):
        bar = "#" * round(40 * count / peak)
        mark = " *" if left >= lo and right <= hi else ""
        print(f"[{left:+8.3f}, {right:+8.3f}) {count:>6} {bar}{mark}")
    print(f"fraction inside [-2*sqrt(q1), 2*sqrt(q1)]: {hist.fraction_inside:.6f} "
          f"(interval [{lo:.6f}, {hi:.6f}], * = bin inside)")


if __name__ == "__main__":
    main()
