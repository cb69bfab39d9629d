#!/usr/bin/env python3
"""Build a tower and print a per-level verification table.

Example:
    python scripts/run_tower_experiment.py --q1 5 --q2 13 --levels 2
    python scripts/run_tower_experiment.py --q1 5 --q2 13 --levels 2 --twist-seed 42
"""

import argparse
import time

from expander_forge import TowerConfig, build_tower


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q1", type=int, default=5)
    ap.add_argument("--q2", type=int, default=13)
    ap.add_argument("--levels", type=int, default=2)
    ap.add_argument("--variant", choices=["cartan", "borel", "cayley"], default="cartan")
    ap.add_argument("--twist-seed", type=int, default=None)
    ap.add_argument("--probe-len", type=int, default=4)
    args = ap.parse_args()

    cfg = TowerConfig(args.q1, args.q2, levels=args.levels, variant=args.variant,
                      twist_seed=args.twist_seed)
    t0 = time.perf_counter()
    result = build_tower(cfg, probe_max_word_len=args.probe_len)
    elapsed = time.perf_counter() - t0

    print(f"tower ({cfg.q1},{cfg.q2}) {cfg.variant} mode={cfg.mode} "
          f"levels={cfg.levels} twist={cfg.twist_seed}  [{elapsed:.1f}s]")
    print(f"{'n':>3} {'V':>9} {'girth':>5} {'loops':>5} {'lam_top':>9} "
          f"{'max|nt|':>12} {'bound':>9} {'ram':>5} {'method':>9}")
    for s in result.summaries:
        sp = s.spectral
        print(f"{s.n:>3} {s.vertices:>9} {s.girth:>5} {s.loop_count:>5} "
              f"{sp.lambda_top:>9.5f} {sp.max_abs_nontrivial:>12.9f} "
              f"{sp.ramanujan_bound:>9.6f} {str(sp.ramanujan):>5} {sp.method:>9}")
    for c in result.coverings:
        print(f"covering {c.source_n} -> {c.target_n}: verified={c.verified}")
    words = result.probe.survivor_letters()
    print(f"probe (len <= {result.probe.max_word_len}, "
          f"{'twisted' if result.probe.twisted else 'untwisted'}): "
          f"{len(words)} survivor(s) {words if words else ''}")
    if result.reseeds:
        print(f"degenerate twist seeds skipped: {list(result.reseeds)}")


if __name__ == "__main__":
    main()
