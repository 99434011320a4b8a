#!/usr/bin/env python3
"""Steadiness self-check: each workload twice with the same seed.

Run from the repository root:

    python3 pipebench/test/steadiness.py [--seed 1] [--workloads kernels-1w,...]

Per workload it makes two untraced runs and two traced runs, each as long as
BENCHMARK.json's run_seconds, and checks:
  - every run reports "correct": true;
  - the exact counts are equal across the two runs: code_words, sim_steps
    and error_rate (untraced), every burstab.* count and bdd.nodes_setup
    (traced);
  - every other end-to-end metric of the two untraced runs lies within the
    metric's bound of each other (relative to the first), by BENCHMARK.json.
Exits 1 when any check fails.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
from compare import ROOT, load_benchmark, run  # noqa: E402

EXACT_E2E = ("code_words", "sim_steps", "error_rate")
EXACT_LAYER = ("burstab.states", "burstab.transitions",
               "burstab.constrained_rules", "burstab.frozen_misses",
               "bdd.nodes_setup")


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads")
    args = ap.parse_args()

    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    failures = []

    def check(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for w in workloads:
        print(w)
        plain = [run(ROOT, w, args.seed, 0) for _ in range(2)]
        traced = [run(ROOT, w, args.seed, 1) for _ in range(2)]
        for i, r in enumerate(plain + traced):
            check(r["correct"], f"run {i + 1} correct")
        for name in EXACT_E2E:
            a, b = (value(r, name) for r in plain)
            check(a == b, f"{name} exact: {a} vs {b}")
        for name in EXACT_LAYER:
            a, b = (value(r, name) for r in traced)
            check(a == b, f"{name} exact: {a} vs {b}")
        for m in bench["end_to_end"]:
            if m["name"] in EXACT_E2E:
                continue
            a, b = (value(r, m["name"]) for r in plain)
            off = abs(b - a) / a
            check(off <= m["bound"], f"{m['name']} {a:.5g} vs {b:.5g} "
                  f"({off:.1%} apart, bound {m['bound']:.0%})")
    print("steadiness: " + ("FAILED: " + "; ".join(failures) if failures
                            else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
