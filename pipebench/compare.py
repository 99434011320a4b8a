#!/usr/bin/env python3
"""Compares a parent checkout with a change, workload by workload.

    python3 pipebench/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
        [--seeds 1,2] [--workloads kernels-1w,...] [--record runs.json]

Both directories are checkouts holding pipebench/ (the same benchmark code
on both sides). For every seed and workload it makes --pairs pairs of runs,
alternating which side runs first, each run as long as BENCHMARK.json's
run_seconds (the length the bounds were sized at), and prints one row per
workload and end-to-end metric:

  gain        at least 10 pairs ran, the change won at least 9 in 10 of
              them (ties count for neither) and the medians differ by more
              than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run;
  same        none of the above.

Give a second seed that the change was not written against (--seeds 1,2):
a claim must hold on both. Any run that reports "correct": false marks its
workload INCORRECT.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, ".."))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(checkout, workload, seed, trace=0):
    """One run in `checkout`, run_seconds long; returns its JSON result."""
    cmd = [sys.executable, os.path.join("pipebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(load_benchmark()["run_seconds"]),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"pipebench: run failed in {checkout}:\n{out.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def cell(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower else c > p))
    better = cm < pm if lower else cm > pm
    if (len(parent) >= 10 and wins >= 0.9 * len(parent) and better
            and abs(cm - pm) > pq3 - pq1):
        return "gain", wins
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    if worse_by > metric["bound"]:
        return "worse", wins
    all_better = all((c < p if lower else c > p)
                     for p in parent for c in change)
    if (pq3 - pq1) / pm > metric["bound"] and not all_better:
        return "unresolved", wins
    return "same", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--workloads")
    ap.add_argument("--record", help="write every run's result here")
    args = ap.parse_args()

    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    record = []

    print(f"{'seed':>4} {'workload':<11} {'metric':<15} "
          f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'wins':>7} verdict")
    for seed in (int(s) for s in args.seeds.split(",")):
        for w in workloads:
            runs = {"parent": [], "change": []}
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change",
                                                                  "parent")
                for side in order:
                    r = run(getattr(args, side), w, seed)
                    runs[side].append(r)
                    record.append({"seed": seed, "workload": w, "pair": k,
                                   "side": side, "result": r})
            if not all(r["correct"] for side in runs.values() for r in side):
                print(f"{seed:>4} {w:<11} INCORRECT: a run reported "
                      f"correct=false")
                continue
            for m in metrics:
                p = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
                c = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
                v, wins = verdict(m, p, c)
                print(f"{seed:>4} {w:<11} {m['name']:<15} {cell(p):>34} "
                      f"{cell(c):>34} {wins:>3}/{args.pairs:<3} {v}")
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
