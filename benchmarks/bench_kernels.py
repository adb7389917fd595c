"""Benchmark the compiled tree-expansion kernels against the pure-numpy
fallback.

The fallback is selected with FRACPERC_PURE=1; this script runs both in
subprocesses so each gets a clean import, and reports the throughput of
expanding a surviving forest of `reps` trees (d=2, p=0.7, to level 9) plus
the time to grow up to 200 extinction-variant trees.  When the compiled
backend is not built, both runs use the fallback.

The default of 500 trees keeps level 9 (about 5.3 M cubes) under the
forest's 20 M cube budget; 2000 trees exceed it and stop with BudgetError.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [reps]   (default 500)
"""

import json
import os
import subprocess
import sys

_WORKER = r"""
import json, os, sys, time
import numpy as np
from fracperc import _kernels
from fracperc.percolation import GaltonWatsonLaw, sample_forest, sample_tree

d, p, n, reps = 2, 0.7, 9, int(sys.argv[1])
law = GaltonWatsonLaw.create(d, p)

t0 = time.perf_counter()
forest = sample_forest(law, "surviving", list(range(reps)), n)
t1 = time.perf_counter()
total_cubes = int(forest[n][1].shape[0])

t2 = time.perf_counter()
for seed in range(min(reps, 200)):
    sample_tree(law, "extinction", seed, n)
t3 = time.perf_counter()

print(json.dumps({
    "impl": _kernels.IMPL,
    "forest_seconds": t1 - t0,
    "forest_cubes": total_cubes,
    "cubes_per_second": total_cubes / (t1 - t0),
    "extinction_trees_seconds": t3 - t2,
}))
"""


def run(pure, reps):
    env = dict(os.environ)
    env["FRACPERC_PURE"] = "1" if pure else "0"
    out = subprocess.run(
        [sys.executable, "-c", _WORKER, str(reps)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    fast = run(pure=False, reps=reps)
    slow = run(pure=True, reps=reps)
    print(f"{'impl':<10}{'forest s':>12}{'cubes/s':>16}{'extinction s':>14}")
    for r in (fast, slow):
        print(
            f"{r['impl']:<10}{r['forest_seconds']:>12.3f}"
            f"{r['cubes_per_second']:>16.0f}{r['extinction_trees_seconds']:>14.3f}"
        )
    if fast["impl"] != slow["impl"]:
        speedup = slow["forest_seconds"] / fast["forest_seconds"]
        print(f"speedup ({fast['impl']} over {slow['impl']}): {speedup:.2f}x")
    else:
        print("compiled kernels unavailable; both runs used the fallback")


if __name__ == "__main__":
    main()
