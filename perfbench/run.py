#!/usr/bin/env python3
"""Build and run the simulator's host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds the simulator
library and the perfbench binary from source into .bench_build/perfbench
(Release), then runs one workload. The last line of standard output is the
JSON result; the lines before it are the run record. When the seed has a
recorded timeline digest in perfbench/digests.json, the run fails unless its
simulated outputs hash to that digest.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("sweep_points", "reduce_8gpu", "allreduce_sharded", "simd_replay")


def build(targets=("perfbench",)):
    """Configure (once) and build; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f)) for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def clean_env():
    """The caller's environment without simulator, sweep, paper-binary or
    daemon knobs (perfbench clears them again and sets its own)."""
    prefixes = ("VGPU_", "SYNCBENCH_", "GSB_", "SIMD_")
    return {k: v for k, v in os.environ.items() if not k.startswith(prefixes)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    digest = recorded_digest(args.workload, args.seed)
    if digest:
        cmd += ["--expect-digest", digest]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=clean_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
