"""Benchmark the tree-expansion kernel and the product-cube traversal.

Reports the throughput of expanding a surviving forest of `reps` trees
(d=2, p=0.7, to level 9) plus the time to grow up to 200 extinction-variant
trees one at a time.  The forest grows in groups of consecutive trees
(forest_groups) and its level-9 cubes are counted group by group, so only
one group is held at a time; the default of 500 trees holds about 5.3 M
cubes at level 9.

Next, grouped growth against one tree at a time, in seconds (the least of
three rounds): 400 surviving d=2 trees (p=0.8) to level 8, the trees of
`sample --preset paper d=2`, grown by forest_groups, and the same trees by
sample_tree one by one.

It then times the one product-cube traversal (`intersect._traverse`) that
masses and detection share, in tuples tested by its keep predicate per
second (the least of five rounds), the level-n tuples among them (those
the last expansion builds) and the fraction of them that the predicate
drops, in the groups each caller uses (BATCH_TUPLES tuples for the masses,
four times as many for detection):
  mass:      200 replicates of three d=1, p=0.8 extinction trees to level 6,
             pruned against the plane x - 2y + z = 0 (the mass-plane
             benchmark's inputs);
  detection: 3-term progressions in the coupled slices of the line at
             p=0.63, level 9, of seeds 0-99 (those with at least 3 cubes),
             under the detector's widened slab prune, as one batch of
             those slices, the way a sweep detects them: the whole search
             (`patterns._witness_search`), whose last level is built in
             blocks of level-8 tuples and verified block by block with the
             sweep's diameter floor, so its seconds include the fits and
             each replicate stops at its first witness.

Last, it times detection verification, in candidate rows fitted per second
(the least of five rounds), on every level-n candidate of a batch (the
search under enumerate_all), in blocks of the verifier's cap (CHUNK_FLOATS
floats):
  plane:     the least-squares fit of the progression candidates above;
  newton:    Gauss-Newton roots of |x - y| = 0.5 on the candidate pairs of
             the coupled slices of the plane at p=0.5, level 4, of seeds
             0-99 (the sweep-distance benchmark's inputs); one equation,
             so each Gauss-Newton step is the closed-form -g P / (g . g).

Then it times witness enumeration, in witness parameter rows per second (the
least of three rounds): `parameter_dimensions` of the 3-term progression
pattern on the level-8 cubes of the first 50 replicates of
`pattern-dim --preset paper --seed 1` (d=1, p=0.8, surviving trees), as one
forest, the call the command makes: every replicate's witnesses are
enumerated in one batch and box-counted group by group.

Then it times greedy removal, in cubes removed per second (the least of
three rounds): `_greedy_removals` of a fifth of the level-8 cubes of each of
the first 40 replicates of `stress --preset paper --seed 1 p=0.9
strategy=greedy` (3-term progressions on the line, surviving trees), the
one batched enumeration of all 40 that the command makes.  No perfbench
workload runs greedy removal.

Last, it times the coarea kernel, in product cubes measured per second (the
least of three rounds): the variety |x - y| = 0.5 on the level-3 product
cubes of `intersect --seed 1000` in the mass-variety benchmark's
configuration (d=2, m=2, p=0.7, extinction trees, 16 replicates, 4096 QMC
points a cube), group by group through the run's store of measured cubes,
as the command measures them: `variety_level_measure` sees each distinct
cube of the run once.  The distinct column counts those cubes, and the near
column those of them with a sample near the variety (a finite smallest J_q):
only their near samples enter the moments.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [reps]   (default 500)
"""

import math
import sys
import time

import numpy as np

from fracperc import geometry
from fracperc.intersect import (
    BATCH_TUPLES,
    ProductLaw,
    _grown_batch,
    _measure_once,
    _product_idx,
    _target_keep,
    _traverse,
)
from fracperc.patterns import (
    SWEEP_COUNTERS,
    ConfigDescriptor,
    _detection_keep,
    _fit_rows,
    _forest_ancestors,
    _greedy_removals,
    _split_by_tree,
    _witness_search,
    configuration_plane,
    configuration_polynomial,
    parameter_dimensions,
    sweep_min_diameter,
)
from fracperc.percolation import (
    GaltonWatsonLaw,
    coupled_law,
    forest_groups,
    sample_forest,
    sample_tree,
)
from fracperc.polynomials import _coarea_level, variety_level_measure
from fracperc.rng import replicate_seeds, root_key


def traversal(search, keep, n, rounds=5):
    """(tuples tested, level-n tuples tested, seconds, fraction dropped) of
    search(keep) with a keep predicate that counts what it tests; the
    seconds are the least of `rounds` repeats."""
    secs = []
    for _ in range(rounds):
        tested = np.zeros(n + 1, dtype=np.int64)
        kept = 0

        def counting(idx, lev):
            nonlocal kept
            ok = keep(idx, lev)
            tested[lev] += ok.shape[0]
            kept += int(ok.sum())
            return ok

        t0 = time.perf_counter()
        search(counting)
        secs.append(time.perf_counter() - t0)
    total = int(tested.sum())
    return total, int(tested[n]), min(secs), 1.0 - kept / total


def mass_traversal():
    law = GaltonWatsonLaw.create(1, 0.8)
    n, m = 6, 3
    desc = ConfigDescriptor("homothetic", 1, {"sites": [[0], [1], [2]]})
    keys = root_key(np.arange(200, dtype=np.uint64))
    batch = _grown_batch(ProductLaw(law, "extinction", "independent", m), keys, n)

    def search(keep):
        for _ in _traverse(batch, keep, n, BATCH_TUPLES):
            pass

    return traversal(search, _target_keep(configuration_plane(desc)), n)


def slice_levels(desc, p, n, seeds=range(100)):
    """Ancestor levels of the coupled slices at p of `seeds` with at least m
    level-n cubes (detect_configuration answers the others without a
    traversal), as one forest."""
    seeds = np.array(seeds, dtype=np.uint64)
    tree, cubes = sample_forest(coupled_law(desc.d, p), "coupled", seeds, n)[n]
    return _forest_ancestors(tree, cubes, n, desc.m)[1]


PROGRESSION = (ConfigDescriptor("homothetic", 1, {"sites": [[0], [1], [2]]}), 0.63, 9)
DISTANCE = (ConfigDescriptor("distance", 2, {"lam": 0.5}), 0.5, 4)


def search_counts(levels):
    """Fresh SWEEP_COUNTERS arrays for the trees of a forest of levels."""
    return {name: np.zeros(levels[0][0].shape[0], dtype=np.int64) for name in SWEEP_COUNTERS}


def detection_traversal():
    desc, p, n = PROGRESSION
    levels = slice_levels(desc, p, n)
    tol, target = 2.0 ** -n, desc._detection_target
    floor = sweep_min_diameter(desc, n)

    def fit(state):
        centers = (levels[n][1][state].astype(float) + 0.5) * 2.0 ** -n
        return _fit_rows(desc, target, centers, tol, floor)

    def search(keep):
        for _ in _witness_search(levels, desc.m, keep, fit, n, search_counts(levels)):
            pass

    return traversal(search, _detection_keep(desc, target, tol), n)


def verification(desc, p, n, rounds=5):
    """(rows fitted, seconds): every level-n candidate of the batch of
    slices, fitted in blocks of the verifier's cap; least of `rounds`."""
    levels = slice_levels(desc, p, n)
    tol = math.sqrt(desc.d) * 2.0 ** -n
    target = desc._detection_target
    states = []

    def collect(state):
        states.append(state)
        rows = state.shape[0]
        return np.zeros(rows, dtype=bool), np.zeros((rows, 0)), np.zeros(rows, dtype=np.int64)

    keep = _detection_keep(desc, target, tol)
    for _ in _witness_search(levels, desc.m, keep, collect, n, search_counts(levels), True):
        pass
    centers = (levels[n][1][np.concatenate(states)].astype(float) + 0.5) * 2.0 ** -n
    cap = max(1, geometry.CHUNK_FLOATS // desc.ambient)
    secs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for a in range(0, centers.shape[0], cap):
            _fit_rows(desc, target, centers[a : a + cap], tol, 0.0)
        secs.append(time.perf_counter() - t0)
    return centers.shape[0], min(secs)


def grouped_growth(rounds=3):
    """(cubes, groups, grouped s, one-by-one s) of growing the 400 trees of
    `sample --preset paper --seed 1 d=2`; least of `rounds`."""
    law, n = GaltonWatsonLaw.create(2, 0.8), 8
    seeds = replicate_seeds(1, 400)
    grouped, alone = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        groups = cubes = 0
        for levels in forest_groups(law, "surviving", seeds, n):
            groups += 1
            cubes += levels[n][0].shape[0]
        grouped.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for seed in seeds:
            sample_tree(law, "surviving", seed, n)
        alone.append(time.perf_counter() - t0)
    return cubes, groups, min(grouped), min(alone)


def witness_enumeration(rounds=3):
    """(witness rows, seconds) of parameter_dimensions on the pattern-dim
    paper inputs; least of `rounds`."""
    law, n, reps = GaltonWatsonLaw.create(1, 0.8), 8, 50
    sites = np.array([[0.0], [1.0], [2.0]])
    seeds = replicate_seeds(1, reps)
    tree, cubes = sample_forest(law, "surviving", seeds, n)[n]
    secs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        estimates = parameter_dimensions(tree, cubes, reps, law, sites, n)
        secs.append(time.perf_counter() - t0)
    return sum(est.witnesses for est in estimates), min(secs)


def greedy_removal(rounds=3):
    """(cubes removed, seconds) of the greedy removals of the stress inputs;
    least of `rounds`."""
    desc, law, n, reps = PROGRESSION[0], GaltonWatsonLaw.create(1, 0.9), 8, 40
    seeds = replicate_seeds(1, reps)
    sets = _split_by_tree(*sample_forest(law, "surviving", seeds, n)[n], reps)
    removals = [math.ceil(0.2 * cubes.shape[0]) for cubes in sets]
    secs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        left = _greedy_removals(sets, desc, n, removals, None)
        secs.append(time.perf_counter() - t0)
    return sum(a.shape[0] - b.shape[0] for a, b in zip(sets, left)), min(secs)


def coarea_measure(rounds=3):
    """(product cubes, distinct cubes, distinct cubes with a near sample,
    seconds) of measuring the level-3 product cubes of the mass-variety
    inputs once per run; least of `rounds`."""
    desc, n = ConfigDescriptor("distance", 2, {"lam": 0.5}), 3
    target = configuration_polynomial(desc)
    keys = root_key(np.array(replicate_seeds(1000, 16), dtype=np.uint64))
    law = ProductLaw(GaltonWatsonLaw.create(2, 0.7), "extinction", "independent", desc.m)
    batch = _grown_batch(law, keys, n)
    calls = [
        _product_idx(state, [batch.factor[n][1]] * desc.m)
        for lev, state, _ in _traverse(batch, _target_keep(target), n, BATCH_TUPLES)
        if lev == n and state.shape[0]
    ]
    secs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        held = None
        for idx in calls:
            _, _, held = _measure_once(
                held, idx, lambda cubes: variety_level_measure(target, cubes, n, 4096)
            )
        secs.append(time.perf_counter() - t0)
    rows = sum(idx.shape[0] for idx in calls)
    near = np.isfinite(_coarea_level(target, held[0], n, 4096)[2]).sum()
    return rows, held[0].shape[0], near, min(secs)


def main():
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    d, p, n = 2, 0.7, 9
    law = GaltonWatsonLaw.create(d, p)

    t0 = time.perf_counter()
    cubes = 0
    for levels in forest_groups(law, "surviving", list(range(reps)), n):
        cubes += levels[n][0].shape[0]
    forest_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for seed in range(min(reps, 200)):
        sample_tree(law, "extinction", seed, n)
    extinction_s = time.perf_counter() - t0

    print(f"{'forest s':>10}{'cubes':>12}{'cubes/s':>14}{'extinction s':>14}")
    print(f"{forest_s:>10.3f}{cubes:>12}{cubes / forest_s:>14.0f}{extinction_s:>14.3f}")

    print()
    print(f"{'growth':>10}{'cubes':>12}{'groups':>10}{'grouped s':>12}{'alone s':>10}")
    cubes, groups, grouped, alone = grouped_growth()
    print(f"{'d=2 p=0.8':>10}{cubes:>12}{groups:>10}{grouped:>12.3f}{alone:>10.3f}")

    print()
    print(f"{'traversal':>10}{'tuples':>12}{'level n':>10}{'s':>10}{'tuples/s':>14}{'pruned':>10}")
    for name, run in (("mass", mass_traversal), ("detection", detection_traversal)):
        tested, last, secs, dropped = run()
        print(
            f"{name:>10}{tested:>12}{last:>10}{secs:>10.3f}{tested / secs:>14.0f}{dropped:>10.3f}"
        )

    print()
    print(f"{'verify':>10}{'rows':>12}{'s':>10}{'rows/s':>14}")
    for name, case in (("plane", PROGRESSION), ("newton", DISTANCE)):
        rows, secs = verification(*case)
        print(f"{name:>10}{rows:>12}{secs:>10.3f}{rows / secs:>14.0f}")

    print()
    print(f"{'enumerate':>10}{'rows':>12}{'s':>10}{'rows/s':>14}")
    rows, secs = witness_enumeration()
    print(f"{'witnesses':>10}{rows:>12}{secs:>10.3f}{rows / secs:>14.0f}")

    print()
    print(f"{'greedy':>10}{'removed':>12}{'s':>10}{'removed/s':>14}")
    removed, secs = greedy_removal()
    print(f"{'stress':>10}{removed:>12}{secs:>10.3f}{removed / secs:>14.0f}")

    print()
    print(f"{'measure':>10}{'cubes':>12}{'distinct':>10}{'near':>8}{'s':>10}{'cubes/s':>14}")
    rows, distinct, near, secs = coarea_measure()
    print(f"{'coarea':>10}{rows:>12}{distinct:>10}{near:>8}{secs:>10.3f}{rows / secs:>14.0f}")


if __name__ == "__main__":
    main()
