"""Benchmark the tree-expansion kernels.

Reports the throughput of expanding a surviving forest of `reps` trees
(d=2, p=0.7, to level 9) plus the time to grow up to 200 extinction-variant
trees.

The default of 500 trees keeps level 9 (about 5.3 M cubes) under the
forest's 20 M cube budget; 2000 trees exceed it and stop with BudgetError.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [reps]   (default 500)
"""

import sys
import time

from fracperc.percolation import GaltonWatsonLaw, sample_forest, sample_tree


def main():
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    d, p, n = 2, 0.7, 9
    law = GaltonWatsonLaw.create(d, p)

    t0 = time.perf_counter()
    forest = sample_forest(law, "surviving", list(range(reps)), n)
    forest_s = time.perf_counter() - t0
    cubes = int(forest[n][1].shape[0])

    t0 = time.perf_counter()
    for seed in range(min(reps, 200)):
        sample_tree(law, "extinction", seed, n)
    extinction_s = time.perf_counter() - t0

    print(f"{'forest s':>10}{'cubes':>12}{'cubes/s':>14}{'extinction s':>14}")
    print(f"{forest_s:>10.3f}{cubes:>12}{cubes / forest_s:>14.0f}{extinction_s:>14.3f}")


if __name__ == "__main__":
    main()
