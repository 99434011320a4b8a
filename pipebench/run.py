#!/usr/bin/env python3
"""Builds pipebench and recordd from source, then makes one benchmark run.

Run from the repository root:

    python3 pipebench/run.py --workload W --seed N --seconds S --trace 0|1

The build goes to .bench_build/pipebench (Release). The last line on stdout
is the run's JSON result; build output and the run's summary go to stderr.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kernels-1w", "chains-1w", "socket-4w")
# Time a run may take beyond --seconds: set-ups, the correctness reference
# and, when traced, the cold retarget rounds (about 10 s on the reference
# host).
RUN_MARGIN_S = 120


def build(build_dir, env):
    """Configures (once) and builds pipebench and example_recordd."""
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "pipebench", "example_recordd"],
                   check=True, stdout=sys.stderr, env=env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(os.getcwd(), ".bench_build", "pipebench")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compiler and program temporaries stay inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"pipebench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "pipebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", os.path.join(HERE, "pins.json"),
           "--recordd", os.path.join(build_dir, "record", "example_recordd"),
           "--out", build_dir]
    try:
        return subprocess.run(cmd, env=env,
                              timeout=args.seconds + RUN_MARGIN_S).returncode
    except subprocess.TimeoutExpired:
        print("pipebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
