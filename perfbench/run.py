#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source with dune (build directory
.bench_build/dune, dune cache off, so nothing is written outside the
checkout), runs one workload and passes its report through. The last
line of standard output is the benchmark's JSON result; this script
checks that it names exactly the metrics BENCHMARK.json lists for the
mode. Traced runs (--trace 1) also write the spans of their last traced
repetition to .bench_build/trace-<workload>-seed<N>.jsonl.

Exits non-zero, without a result, when the sources are missing, the
build fails, or the benchmark fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ["dune-project", "lib", "BENCHMARK.json"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("missing %s at %s: run from a full checkout" % (needed, ROOT))
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [
        "dune", "build", "--root", ".", "--profile", "release",
        "--build-dir", os.path.join(BUILD_DIR, "dune"),
        "./perfbench/perfbench.exe",
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")
    return os.path.join(BUILD_DIR, "dune", "default", "perfbench",
                        "perfbench.exe")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="p2p-ladder, gateway-mix or lossy-reliable")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail("benchmark exited with code %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(r.stdout)
        fail("the benchmark's last line is not JSON")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        sys.stderr.write(r.stdout)
        fail("the metrics printed differ from BENCHMARK.json")
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
