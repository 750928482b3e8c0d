#!/usr/bin/env python3
"""Steadiness (A/A) report: run each workload k times and print, for every
end-to-end metric, the median, the quartiles and the spread (IQR / median)
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/aa.py [--runs 10] [--first-seed 1] [--workloads a,b]
                            [--seconds S] [--json out.json]

Run it from the root of a checkout. Run i uses seed first_seed + i, so the
spread includes seed-to-seed variation as well as host noise. Quartiles are
Python's statistics.quantiles(values, n=4). A spread is "ok" below a third of
the bound; setup_s has no spread requirement, only its median is compared
between two reports (pass two --json files with --compare).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {p.returncode}):\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def report(spec, samples):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload, runs in samples.items():
        print(f"== {workload} ({len(runs)} runs)")
        print(f"   {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name in bounds:
            s = summarize([r[name] for r in runs])
            good = name == "setup_s" or s["spread"] < bounds[name] / 3
            ok &= good
            print(f"   {name:<14}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
                  f"{s['spread']:>9.4f}{bounds[name]:>7.2f}{'' if good else '  WIDE'}")
    return ok


def compare(spec, a, b):
    """Second median against the first, per workload and metric."""
    ok = True
    for m in spec["end_to_end"]:
        for workload in a:
            if workload not in b:
                continue
            m1 = statistics.median(r[m["name"]] for r in a[workload])
            m2 = statistics.median(r[m["name"]] for r in b[workload])
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            good = worse <= m["bound"]
            ok &= good
            print(f"{workload:<18}{m['name']:<14}{m1:>14.6g}{m2:>14.6g}{worse:>9.4f}"
                  f"{'' if good else '  WORSE'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--json", default="")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as f1, open(args.compare[1]) as f2:
            return 0 if compare(spec, json.load(f1), json.load(f2)) else 1
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    samples = {}
    for w in names:
        samples[w] = []
        for i in range(args.runs):
            samples[w].append(run_once(w, args.first_seed + i, seconds))
            print(f"{w} seed {args.first_seed + i}: "
                  + " ".join(f"{k}={v:.5g}" for k, v in samples[w][-1].items()), flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(samples, f, indent=1)
    return 0 if report(spec, samples) else 1


if __name__ == "__main__":
    sys.exit(main())
