#!/usr/bin/env python3
"""Build and run the end-to-end Canopus benchmark.

    python3 perfbench/run.py --workload <ingest|explore|serve|overload|all> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The benchmark is a package of its own
(perfbench/Cargo.toml) with path dependencies on the workspace crates; it
is built in release mode into $CARGO_TARGET_DIR (default .bench_build).
The last line of standard output is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. With
--workload all, each workload runs in its own process and the last line
maps workload names to their results.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["ingest", "explore", "serve", "overload"]
# A run measures --seconds plus set-up and checks; anything slower is hung.
RUN_TIMEOUT_S = 170


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr so the result stays the last stdout line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def run_one(binary, workload, args):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None, 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        print(f"error: {workload} printed no result", file=sys.stderr)
        return None, done.returncode or 1
    return lines, done.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target_dir):
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "canopus-perfbench")

    if args.workload != "all":
        lines, code = run_one(binary, args.workload, args)
        if lines is None:
            return code
        print("\n".join(lines))
        return code

    results, worst = {}, 0
    for w in WORKLOADS:
        lines, code = run_one(binary, w, args)
        worst = worst or code
        if lines is None:
            continue
        print("\n".join(lines[:-1]))
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
