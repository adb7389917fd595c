"""Benchmark the tree-expansion kernels and the product-cube traversal.

Reports the throughput of expanding a surviving forest of `reps` trees
(d=2, p=0.7, to level 9) plus the time to grow up to 200 extinction-variant
trees.

The default of 500 trees keeps level 9 (about 5.3 M cubes) under the
forest's 20 M cube budget; 2000 trees exceed it and stop with BudgetError.

It then times the one product-cube traversal (`intersect._traverse`) that
masses and detection share, in tuples tested by its keep predicate per
second (the least of five rounds) and the fraction of them that the
predicate drops:
  mass:      200 replicates of three d=1, p=0.8 extinction trees to level 6,
             pruned against the plane x - 2y + z = 0 (the mass-plane
             benchmark's inputs);
  detection: 3-term progressions in the coupled slices of the line at
             p=0.63, level 9, of seeds 0-99 (those with at least 3 cubes),
             under the detector's widened slab prune.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [reps]   (default 500)
"""

import sys
import time

import numpy as np

from fracperc.intersect import (
    DEFAULT_CUBE_BUDGET,
    ProductMeasureSpec,
    _Batch,
    _grown_batch,
    _stack,
    _target_keep,
    _traverse,
)
from fracperc.patterns import (
    ConfigDescriptor,
    _ancestor_levels,
    _detection_keep,
    configuration_plane,
)
from fracperc.percolation import (
    GaltonWatsonLaw,
    coupled_slice,
    sample_forest,
    sample_tree,
)
from fracperc.rng import derive, root_key


def traversal(batches, keep, n, distinct=None, rounds=5):
    """(tuples tested, seconds, fraction dropped) of traversing every batch;
    the seconds are the least of `rounds` repeats."""
    secs = []
    for _ in range(rounds):
        tested = kept = 0

        def counting(idx, lev):
            nonlocal tested, kept
            ok = keep(idx, lev)
            tested += ok.shape[0]
            kept += int(ok.sum())
            return ok

        t0 = time.perf_counter()
        for batch in batches:
            for _ in _traverse(batch, counting, n, DEFAULT_CUBE_BUDGET, distinct):
                pass
        secs.append(time.perf_counter() - t0)
    return tested, min(secs), 1.0 - kept / tested


def mass_traversal():
    law = GaltonWatsonLaw.create(1, 0.8)
    n, m = 6, 3
    desc = ConfigDescriptor("homothetic", 1, {"sites": [[0], [1], [2]]})
    keys = root_key(np.arange(200, dtype=np.uint64))
    seeds = np.stack([derive(keys, j + 1) for j in range(m)], axis=1)
    root = sample_tree(law, "extinction", 0, 0)
    spec = ProductMeasureSpec(mode="independent", trees=[root] * m, m=m)
    batch = _grown_batch(spec, keys, seeds, n)
    return traversal([batch], _target_keep(configuration_plane(desc)), n)


def detection_traversal():
    n = 9
    desc = ConfigDescriptor("homothetic", 1, {"sites": [[0], [1], [2]]})
    keep = _detection_keep(desc, configuration_plane(desc), 2.0 ** -n)
    batches = []
    for seed in range(100):
        cubes = coupled_slice(1, seed, 0.63, n).levels[n]
        if cubes.shape[0] < desc.m:
            continue  # detect_configuration answers without a traversal
        levels = _ancestor_levels(cubes, n)
        batches.append(_Batch(desc.m, 1, 1, [_stack([lev]) for lev in levels]))
    return traversal(batches, keep, n, distinct=n)


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

    print()
    print(f"{'traversal':>10}{'tuples':>12}{'s':>10}{'tuples/s':>14}{'pruned':>10}")
    for name, run in (("mass", mass_traversal), ("detection", detection_traversal)):
        tested, secs, dropped = run()
        print(f"{name:>10}{tested:>12}{secs:>10.3f}{tested / secs:>14.0f}{dropped:>10.3f}")


if __name__ == "__main__":
    main()
