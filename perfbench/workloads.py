"""The four benchmark workloads: their `fracperc` command lines and the checks
each run's CSV outputs must pass.

Every check compares against a computation made apart from the program
(`oracles`), never against stored output.  fracperc itself is used only to
regrow the inputs (the percolation trees) a run was given.
"""

import csv
import math
import os
from collections import defaultdict

import numpy as np

import oracles

# Relative slack between the program's plane masses and the exact count:
# both sum up to ~1e5 floats in different orders.
MASS_RTOL = 1e-9
# Standard errors allowed between a mean and its closed form.
Z = 4.0
# Replicates per process whose masses or presence are re-derived by brute
# force (the first ones in the CSV).
BRUTE_REPLICATES = 8


def master_seed(seed, k):
    """fracperc master seed of the k-th child of a benchmark run."""
    return 1000 * int(seed) + int(k)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    command = ""
    config = {}

    def args(self, seed, k):
        return [self.command, "--seed", str(master_seed(seed, k))] + [
            f"{key}={value}" for key, value in self.config.items()
        ]

    def check_child(self, out_dir, fp, pooled):
        """Errors (strings) found in one child's outputs.  `fp` is the
        fracperc package, used to regrow inputs; `pooled` collects what the
        run-level check needs."""
        raise NotImplementedError

    def check_run(self, pooled):
        """Errors in statistics pooled over the run's distinct replicates
        (a traced run repeats the same inputs)."""
        return []


# ---------------------------------------------------------------------------
# Mass workloads

def _mass_series(out_dir):
    """{replicate seed: {level: (Y, kernel, se)}} from results.csv."""
    series = defaultdict(dict)
    for row in read_rows(os.path.join(out_dir, "results.csv")):
        series[int(row["seed"])][int(row["n"])] = (
            float(row["Y"]), row["kernel"], float(row["se"])
        )
    return series


def _levels_complete(series, n, replicates):
    errors = []
    if len(series) != replicates:
        errors.append(f"{len(series)} replicates in results.csv, expected {replicates}")
    for seed, ys in series.items():
        if sorted(ys) != list(range(n + 1)):
            errors.append(f"replicate {seed}: levels {sorted(ys)}")
    return errors


def _mean_within(values, target, extra_se, label):
    """|mean - target| <= Z * s.e., the s.e. combining the replicate spread
    with `extra_se`."""
    values = np.asarray(values, dtype=float)
    se = math.sqrt(values.var(ddof=1) / values.size + extra_se ** 2)
    mean = float(values.mean())
    if abs(mean - target) > Z * se + 1e-12:
        return [f"{label}: mean {mean:.6g} vs {target:.6g} (s.e. {se:.3g})"]
    return []


class MassPlane(Workload):
    """Three-term progressions in the line: the plane x - 2y + z = 0 of R^3,
    a hyperplane, so the exact section kernel measures every cube."""

    name = "mass-plane"
    command = "intersect"
    config = {
        "d": 1, "m": 3, "variant": "extinction", "p": 0.8, "n": 6,
        "replicates": 200, "family": "homothetic", "sites": "0,1,2",
        "target_kind": "family",
    }

    def check_child(self, out_dir, fp, pooled):
        cfg = self.config
        n, p = cfg["n"], cfg["p"]
        series = _mass_series(out_dir)
        errors = _levels_complete(series, n, cfg["replicates"])
        law = fp.GaltonWatsonLaw.create(cfg["d"], p)
        for seed, ys in series.items():
            if any(k != "exact" or se != 0.0 for _, k, se in ys.values()):
                errors.append(f"replicate {seed}: not the exact kernel")
            if abs(ys[0][0] - oracles.SQRT6_HALF) > 1e-12:
                errors.append(f"replicate {seed}: Y_0 = {ys[0][0]!r}")
            pooled.setdefault("Y", {})[seed] = [ys[j][0] for j in range(n + 1)]
        for seed, ys in list(series.items())[:BRUTE_REPLICATES]:
            key = fp.rng.root_key(seed)
            trees = [
                fp.sample_tree(law, cfg["variant"], int(fp.rng.derive(key, j + 1)), n)
                for j in range(cfg["m"])
            ]
            for j in range(n + 1):
                want = oracles.progression_plane_mass(
                    [t.levels[j] for t in trees], p, j
                )
                got = ys[j][0]
                if abs(got - want) > MASS_RTOL * max(1.0, abs(want)):
                    errors.append(f"replicate {seed} level {j}: Y {got!r}, brute force {want!r}")
        return errors

    def check_run(self, pooled):
        # Extinction variant: every level-j product cube survives with
        # probability p^(3j), so E[Y_j] is the plane's area at every level.
        ys = np.array(list(pooled["Y"].values()))
        errors = []
        for j in range(ys.shape[1]):
            errors += _mean_within(ys[:, j], oracles.SQRT6_HALF, 0.0, f"mean Y_{j}")
        return errors


class MassVariety(Workload):
    """Pairs at distance lam in the plane: a 3-dimensional variety of R^4,
    measured by the coarea QMC kernel with interval pruning."""

    name = "mass-variety"
    command = "intersect"
    config = {
        "d": 2, "m": 2, "variant": "extinction", "p": 0.7, "n": 3,
        "replicates": 16, "family": "distance", "lam": 0.5,
        "target_kind": "family",
    }

    def check_child(self, out_dir, fp, pooled):
        cfg = self.config
        n = cfg["n"]
        exact = oracles.pair_distance_variety_measure(cfg["lam"])
        series = _mass_series(out_dir)
        errors = _levels_complete(series, n, cfg["replicates"])
        for seed, ys in series.items():
            if any(k != "coarea-qmc" for _, k, _ in ys.values()):
                errors.append(f"replicate {seed}: not the coarea kernel")
            y0, _, se0 = ys[0]
            if abs(y0 - exact) > Z * se0:
                errors.append(f"replicate {seed}: Y_0 = {y0!r}, closed form {exact!r} (se {se0:.3g})")
            pooled.setdefault("Y", {})[seed] = (ys[n][0], ys[n][2])
        return errors

    def check_run(self, pooled):
        # Quadrature errors of the replicates are correlated (they share the
        # measure cache), so the mean's quadrature error is taken as the mean
        # per-replicate s.e., not that over sqrt(R).
        exact = oracles.pair_distance_variety_measure(self.config["lam"])
        y, se = np.array(list(pooled["Y"].values())).T
        return _mean_within(y, exact, float(se.mean()), f"mean Y_{self.config['n']}")


# ---------------------------------------------------------------------------
# Sweep workloads

class Sweep(Workload):
    command = "sweep"

    def presence(self, cubes, n):
        """(strict, lenient) brute-force presence on one slice."""
        raise NotImplementedError

    def check_child(self, out_dir, fp, pooled):
        cfg = self.config
        n, reps = cfg["n"], cfg["replicates"]
        grid = sorted(float(v) for v in cfg["p_grid"].split(","))
        detail = read_rows(os.path.join(out_dir, "detail.csv"))
        results = read_rows(os.path.join(out_dir, "results.csv"))
        errors = []
        if len(detail) != reps or len(results) != len(grid):
            return [f"{len(detail)} detail rows, {len(results)} result rows"]
        profiles = []
        for row in detail:
            cols = [c for c in row if c.startswith("present_p")]
            profiles.append([int(row[c]) for c in cols])
            if any(a > b for a, b in zip(profiles[-1], profiles[-1][1:])):
                errors.append(f"replicate {row['replicate']}: profile {profiles[-1]} not monotone")
        hits = np.sum(profiles, axis=0)
        for i, row in enumerate(results):
            if float(row["p"]) != grid[i] or float(row["frequency"]) != hits[i] / reps:
                errors.append(f"results.csv row {i} disagrees with detail.csv")
        if hits[0] / reps > 0.2 or hits[-1] / reps < 0.8:
            errors.append(f"frequencies {hits[0] / reps:.3f} at p={grid[0]}, "
                          f"{hits[-1] / reps:.3f} at p={grid[-1]}")
        for row, prof in list(zip(detail, profiles))[:BRUTE_REPLICATES]:
            seed = int(row["seed"])
            for p, got in zip(grid, prof):
                cubes = fp.coupled_slice(cfg["d"], seed, p, n).levels[n]
                strict, lenient = self.presence(cubes, n)
                pooled["boundary"] = pooled.get("boundary", 0) + (strict != lenient)
                if got and not lenient or not got and strict:
                    errors.append(f"replicate {row['replicate']} p={p}: present={got}, "
                                  f"brute force strict={strict} lenient={lenient}")
        return errors


class SweepDistance(Sweep):
    """Pairs at distance lam in the plane, across p_c = 2^(1/2 - 2)."""

    name = "sweep-distance"
    config = {
        "d": 2, "family": "distance", "lam": 0.5, "n": 4, "replicates": 100,
        "p_grid": "0.2,0.25,0.3,0.35,0.4,0.5,0.6,0.7",
    }

    def presence(self, cubes, n):
        tol = math.sqrt(self.config["d"]) * 2.0 ** -n
        return oracles.pair_presence(cubes, n, self.config["lam"], tol)


class SweepProgression(Sweep):
    """Three-term progressions in the line, across p_c = 2^(-2/3)."""

    name = "sweep-progression"
    config = {
        "d": 1, "family": "homothetic", "sites": "0,1,2", "n": 9,
        "replicates": 200, "p_grid": "0.5,0.55,0.6,0.63,0.67,0.72,0.8",
    }

    def presence(self, cubes, n):
        # The sweep's diameter floor is eight cube diagonals; the copy of
        # (0, 1, 2) has diameter i3 - i1 cube sides.
        return oracles.progression_presence(cubes, min_span=8)


WORKLOADS = {w.name: w for w in (MassPlane(), MassVariety(), SweepDistance(), SweepProgression())}
