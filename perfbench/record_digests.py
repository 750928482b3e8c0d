#!/usr/bin/env python3
"""Record the timeline digests that perfbench/run.py checks runs against.

    python3 perfbench/record_digests.py

Run from the root of a checkout. For every workload and seed it runs one
untimed pass (`perfbench --mode digest`), which also checks every output,
and writes perfbench/digests.json. Refresh it only for a change that is meant
to move simulated results; a speed-only change must leave it as it is.
"""
import json
import os
import subprocess
import sys

import run

SEEDS = list(range(1, 31)) + [9001]  # 9001: the held-out seed


def main():
    run.build()
    digests = {}
    for w in run.WORKLOADS:
        digests[w] = {}
        for seed in SEEDS:
            p = subprocess.run([run.BINARY, "--workload", w, "--seed", str(seed), "--mode",
                                "digest"], cwd=run.ROOT, capture_output=True, text=True,
                               env=run.clean_env(), timeout=180)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: {p.stdout}{p.stderr}")
            digests[w][str(seed)] = p.stdout.split()[1]
            print(w, seed, digests[w][str(seed)], flush=True)
    with open(os.path.join(run.HERE, "digests.json"), "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
