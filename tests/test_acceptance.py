"""End-to-end acceptance battery.

Thirteen pinned quantitative checks covering calibration, growth, coupling,
geometry oracles, intersection masses, martingale structure, second-moment
regimes, threshold sweeps, dimension estimators, pattern-set dimension,
positive association, detector soundness/completeness, and byte-identical
reproducibility.  All seeds and tolerances are frozen; these tests are
deterministic.
"""

import filecmp
import glob
import itertools
import math
import os

import numpy as np
import pytest
from scipy.stats import chisquare, spearmanr

import fracperc as fp
from fracperc.cli import main
from fracperc.geometry import orthonormalize
from fracperc.harness import COMMANDS
from fracperc.patterns import sweep_min_diameter


def _line(direction, through):
    basis = orthonormalize(np.array([direction], dtype=float))
    off = np.asarray(through, dtype=float)
    return fp.AffinePlane(basis=basis, offset=off - basis.T @ (basis @ off))


def test_01_offspring_calibration():
    """Survival-conditioned offspring law: exact values and empirical fit."""
    assert fp.extinction_probability(1, 0.7) == pytest.approx(9 / 49, abs=1e-10)
    assert fp.offspring_distribution(1, 0.7) == pytest.approx((0.6, 0.4), abs=1e-10)
    law = fp.GaltonWatsonLaw.create(1, 0.7)
    forest = fp.sample_forest(law, "surviving", list(range(100_000)), 1)
    rep, _ = forest[1]
    counts = np.bincount(np.bincount(rep, minlength=100_000), minlength=3)[1:3]
    assert counts.sum() == 100_000
    stat, pval = chisquare(counts, f_exp=np.array([0.6, 0.4]) * 100_000)
    assert pval > 0.01


def test_02_growth_and_mass_normalization():
    """Mean branching growth and unit-mean level masses, d=2, p=0.5."""
    law = fp.GaltonWatsonLaw.create(2, 0.5)
    R = 10_000
    forest = fp.sample_forest(law, "surviving", list(range(R)), 6)
    for n in range(1, 7):
        rep, _ = forest[n]
        counts = np.bincount(rep, minlength=R).astype(float)
        se = counts.std(ddof=1) / math.sqrt(R)
        assert abs(counts.mean() - 2.0**n) <= 3 * se, f"N_{n}"
        mass = counts * 2.0 ** (-law.s * n)
        mse = mass.std(ddof=1) / math.sqrt(R)
        assert abs(mass.mean() - 1.0) <= 3 * mse, f"mass at {n}"


def test_03_coupled_ensemble_nesting():
    """Coupled realizations are nested across p for every seed and level."""
    ps = [0.3, 0.45, 0.6, 0.9]
    for seed in range(1000):
        trees = [fp.coupled_slice(2, seed, p, 8) for p in ps]
        for a, b in zip(trees, trees[1:]):
            for n in range(1, 9):
                small, large = a.levels[n], b.levels[n]
                if small.shape[0] == 0:
                    continue
                packed_small = (small[:, 0].astype(np.int64) << 32) | small[:, 1]
                packed_large = (large[:, 0].astype(np.int64) << 32) | large[:, 1]
                assert np.isin(packed_small, packed_large).all(), (seed, n)


def test_04_geometry_oracles():
    """Exact section kernels agree with rejection sampling and closed forms."""
    # Closed forms.
    n = np.ones(3) / math.sqrt(3)
    basis = orthonormalize(np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]))
    hexagon = fp.AffinePlane(basis=basis, offset=n * (1.5 / math.sqrt(3)))
    cube3 = fp.DyadicCube(level=0, index=np.zeros(3, dtype=np.int64))
    assert fp.plane_cube_measure(hexagon, cube3) == pytest.approx(
        3 * math.sqrt(3) / 4, abs=1e-9
    )
    sphere = fp.PolynomialMap(
        ambient=3,
        components=(
            {
                (2, 0, 0): 1.0,
                (0, 2, 0): 1.0,
                (0, 0, 2): 1.0,
                (1, 0, 0): -1.0,
                (0, 1, 0): -1.0,
                (0, 0, 1): -1.0,
                (0, 0, 0): 0.75 - 0.16,
            },
        ),
    )
    est = fp.variety_cube_measure(sphere, cube3)
    assert est == pytest.approx(4 * math.pi * 0.16, rel=0.02)
    # 100 random line/hyperplane instances against rejection sampling.
    for i in range(100):
        rng = np.random.default_rng(10_000 + i)
        M = int(rng.integers(2, 5))
        k = 1 if i % 2 == 0 else M - 1
        B = orthonormalize(rng.standard_normal((k, M)))
        off_pt = rng.uniform(0.2, 0.8, size=M)
        plane = fp.AffinePlane(basis=B, offset=off_pt - B.T @ (B @ off_pt))
        cube = fp.DyadicCube(level=0, index=np.zeros(M, dtype=np.int64))
        est = fp.plane_cube_measure(plane, cube)
        oracle_rng = np.random.default_rng(20_000 + i)
        if k == 1:
            N = 400_000
            T = math.sqrt(M) + 1.0
            ts = oracle_rng.uniform(-T, T, N)
            pts = plane.offset[None, :] + ts[:, None] * plane.basis[0][None, :]
            vals = np.all((pts >= 0) & (pts < 1), axis=1).astype(float) * (2 * T)
        else:
            N = 1_000_000
            delta = 0.01
            v = oracle_rng.standard_normal(M)
            nvec = v - plane.basis.T @ (plane.basis @ v)
            nvec /= np.linalg.norm(nvec)
            x = oracle_rng.uniform(0, 1, (N, M))
            vals = (
                np.abs((x - plane.offset[None, :]) @ nvec) < delta
            ).astype(float) / (2 * delta)
        oracle = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(N)
        assert abs(est - oracle) <= 3 * se, (i, k, M, est, oracle)


def test_05_intersection_brute_force():
    """Level-1 mass of an axis line: Monte Carlo matches enumeration, and
    pruning never changes a mass value."""
    law = fp.GaltonWatsonLaw.create(2, 0.5)
    target = _line([1, 0], [0.0, 0.25])
    R = 100_000
    vals = np.empty(R)
    for seed in range(R):
        tree = fp.sample_tree(law, "extinction", seed, 1)
        spec = fp.ProductMeasureSpec(
            mode="independent", trees=[tree], m=1, diag_level=0
        )
        vals[seed] = fp.intersection_mass(spec, target, 1).values[-1]
    # Exhaustive enumeration: Y_1 counts surviving bottom cells, Binomial(2, p).
    se1 = vals.std(ddof=1) / math.sqrt(R)
    sq = vals**2
    se2 = sq.std(ddof=1) / math.sqrt(R)
    assert abs(vals.mean() - 1.0) <= 3 * se1
    assert abs(sq.mean() - 1.5) <= 3 * se2
    # Pruned traversal equals full enumeration exactly for n <= 3.
    slanted = _line([2, 1], [0.0, 0.37])
    for seed in range(10):
        tree = fp.sample_tree(law, "extinction", seed, 3)
        spec = fp.ProductMeasureSpec(
            mode="independent", trees=[tree], m=1, diag_level=0
        )
        for tgt in (target, slanted):
            a = fp.intersection_mass(spec, tgt, 3, pruned=True)
            b = fp.intersection_mass(spec, tgt, 3, pruned=False)
            assert a.values == pytest.approx(b.values, abs=1e-12)


def test_06_martingale_resampling():
    """Conditional means of re-expanded masses match the current level for a
    slanted line, an axis plane, and a circle."""
    law1 = fp.GaltonWatsonLaw.create(1, 0.8)
    spec_pair = fp.ProductMeasureSpec(
        mode="independent",
        trees=[
            fp.sample_tree(law1, "extinction", 21, 4),
            fp.sample_tree(law1, "extinction", 22, 4),
        ],
        m=2,
        diag_level=0,
    )
    c = 1 / math.sqrt(2)
    anti_diag = fp.AffinePlane(
        basis=np.array([[c, -c]]), offset=np.array([0.55, 0.55])
    )
    law2 = fp.GaltonWatsonLaw.create(2, 0.6)
    spec_single = fp.ProductMeasureSpec(
        mode="independent",
        trees=[fp.sample_tree(law2, "extinction", 12, 4)],
        m=1,
        diag_level=0,
    )
    axis = _line([1, 0], [0.0, 0.35])
    circle = fp.PolynomialMap(
        ambient=2,
        components=(
            {(2, 0): 1.0, (1, 0): -1.0, (0, 2): 1.0, (0, 1): -1.0, (0, 0): 0.34},
        ),
    )
    cases = [
        (spec_pair, anti_diag),
        (spec_single, axis),
        (spec_single, circle),
    ]
    for spec, tgt in cases:
        for n in (0, 1, 2):
            y, mean, se = fp.martingale_resample_check(spec, tgt, n, 1000)
            assert se > 0, (tgt, n)
            assert abs(mean - y) <= 4 * se, (tgt, n, y, mean, se)


def test_07_second_moment_two_regimes():
    """Normalized second moments stay bounded above threshold and grow below
    it (pattern plane for a three-term progression, d=1)."""
    desc = fp.ConfigDescriptor(
        family="homothetic", d=1, params={"sites": [[0], [1], [2]]}
    )
    vt = fp.configuration_plane(desc)

    def ratios(p):
        law = fp.GaltonWatsonLaw.create(1, p)
        out = []
        for n in range(1, 9):
            spec = fp.ProductMeasureSpec(
                mode="independent",
                trees=[fp.sample_tree(law, "extinction", 0, n) for _ in range(3)],
                m=3,
                diag_level=0,
            )
            rep = fp.second_moment_estimate(spec, vt, n, 300, base_seed=500 + n)
            out.append(rep.ratio)
        return out

    # Supercritical: s(1, 0.95) = 0.926 > 2/3.  Bounded, no significant trend.
    sup = ratios(0.95)
    assert max(sup) < 2.0
    rho_sup, pval_sup = spearmanr(range(8), sup)
    assert pval_sup >= 0.01
    # Subcritical: s(1, 0.55) = 0.14 < 2/3.  Significant monotone growth.
    sub = ratios(0.55)
    rho_sub, pval_sub = spearmanr(range(8), sub)
    assert rho_sub > 0 and pval_sub < 0.01
    assert max(sub) > 10 * max(sup)


def test_08_threshold_sweeps():
    """Presence frequencies split across the dimension threshold, coupled
    sweeps are realization-monotone, and the pair-distance family shows the
    same contrast."""
    desc = fp.ConfigDescriptor(
        family="homothetic", d=1, params={"sites": [[0], [1], [2]]}
    )
    rows = fp.threshold_sweep(
        desc, [0.55, 0.75], n=9, replicates=500, coupled=True, base_seed=2024
    )
    by_p = {row.p: row.frequency for row in rows}
    assert by_p[0.55] <= 0.2
    assert by_p[0.75] >= 0.8
    # Realization-wise monotonicity, re-detected independently at each p.
    md = sweep_min_diameter(desc, 9)
    for r in range(100):
        prev = False
        for p in (0.55, 0.65, 0.75):
            tree = fp.coupled_slice(1, 3000 + r, p, 9)
            present = fp.detect_configuration(
                tree.levels[9], desc, 9, min_diameter=md
            ).present
            assert not (prev and not present), (r, p)
            prev = prev or present
    # Pair-distance family in d=2 across its threshold p = 2^(-3/2) = 0.354.
    dist = fp.ConfigDescriptor(family="distance", d=2, params={"lam": 0.5})
    rows = fp.threshold_sweep(
        dist, [0.25, 0.55], n=7, replicates=300, coupled=True, base_seed=2024
    )
    by_p = {row.p: row.frequency for row in rows}
    assert by_p[0.25] <= 0.2
    assert by_p[0.55] >= 0.8


def test_09_dimension_estimates():
    """Box-counting recovers d + log2(p) and the restricted-percolation probe
    locates the transition of a line segment."""
    for d, p in ((1, 0.8), (2, 0.6)):
        law = fp.GaltonWatsonLaw.create(d, p)
        slopes = [
            fp.box_dimension_estimate(
                fp.sample_tree(law, "surviving", 9000 + r, 10), 4, 10
            )
            for r in range(200)
        ]
        assert abs(float(np.mean(slopes)) - law.s) <= 0.1
    n = 7
    k = np.arange(2**n)
    segment = np.stack([k, np.full_like(k, 2 ** (n - 1))], axis=1)
    res = fp.percolation_dimension_test(
        segment,
        n,
        2,
        [0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7],
        200,
        base_seed=77,
    )
    assert abs(res.p_star - 0.5) <= 0.1


def test_10_pattern_set_dimension():
    """Witness-count slope for the pair pattern matches 2s = 1.696, d=1,
    p=0.9, averaged over 100 trees."""
    law = fp.GaltonWatsonLaw.create(1, 0.9)
    slopes = []
    for r in range(100):
        tree = fp.sample_tree(law, "surviving", 4000 + r, 9)
        est = fp.pattern_parameter_dimension(tree, [[0], [1]], 9)
        assert est.predicted == pytest.approx(2 * (1 + math.log2(0.9)))
        slopes.append(est.slope)
    mean_slope = float(np.mean(slopes))
    assert abs(mean_slope - 1.6958) <= 0.25


def test_11_positive_association():
    """No flagged violations of the correlation lower bound across the
    monotone event battery, 10^4 replicates each."""
    law = fp.GaltonWatsonLaw.create(1, 0.7)

    def left(cubes, n):
        return cubes.shape[0] > 0 and bool((cubes[:, 0] < 2 ** (n - 1)).any())

    def right(cubes, n):
        return cubes.shape[0] > 0 and bool((cubes[:, 0] >= 2 ** (n - 1)).any())

    def big(cubes, n):
        return cubes.shape[0] >= 2 ** (n - 1)

    def survives(cubes, n):
        return cubes.shape[0] > 0

    battery = [(left, right), (survives, big), (left, big)]
    for e1, e2 in battery:
        res = fp.harris_check(e1, e2, law, 4, 10_000, base_seed=99)
        assert not res.violated
        assert res.margin >= -4 * res.sigma


def _oracle_detect(cubes, desc, n, tolerance):
    """Exhaustive reference detector: every ordered distinct cube tuple,
    verified by an independent least-squares / root-polish check."""
    side = 2.0**-n
    cubes = np.asarray(cubes)
    centers = (cubes.astype(float) + 0.5) * side
    m = desc.m
    if cubes.shape[0] < m:
        return False
    for tup in itertools.permutations(range(cubes.shape[0]), m):
        pts = centers[list(tup)]
        if desc.family == "homothetic":
            # Least-squares similarity fit in closed form (no pruning, no
            # budget — completeness reference for the branch-and-bound).
            sites = np.asarray(desc.params["sites"], dtype=float)[:, 0]
            c = pts[:, 0]
            lam = float(
                np.sum((sites - sites.mean()) * (c - c.mean()))
                / np.sum((sites - sites.mean()) ** 2)
            )
            b = c.mean() - lam * sites.mean()
            if lam > 0 and np.max(np.abs(c - (lam * sites + b))) <= tolerance:
                return True
        else:
            poly = fp.configuration_polynomial(desc)
            flat = pts.ravel()
            x, conv = fp.newton_refine(poly, flat)
            if conv and np.max(np.abs(x - flat)) <= tolerance + 1e-12:
                return True
    return False


def test_12_detector_soundness_and_completeness():
    """Witnesses re-verify, branch-and-bound equals exhaustive enumeration on
    a golden instance set, and monotonicity/scale-invariance hold on 10^3
    randomized cases."""
    rng = np.random.default_rng(1234)
    ap = fp.ConfigDescriptor(family="homothetic", d=1, params={"sites": [[0], [1], [2]]})
    dist = fp.ConfigDescriptor(family="distance", d=2, params={"lam": 0.5})
    # Golden set: every small d=1 instance plus random d=2 pair instances.
    for n in (2, 3, 4):
        for bits in range(1, 2 ** (2**n), max(1, 2 ** (2**n - 9))):
            cells = [i for i in range(2**n) if bits >> i & 1]
            cubes = np.array(cells)[:, None]
            got = fp.detect_configuration(cubes, ap, n)
            want = _oracle_detect(cubes, ap, n, got.tolerance)
            assert got.present == want, (n, cells)
            if got.present:
                # Soundness: the returned witness re-verifies.
                lam = got.witness["params"]["scale"]
                b = got.witness["params"]["offset"][0]
                side = 2.0**-n
                for site, cube in zip((0, 1, 2), got.witness["cubes"]):
                    center = (cube[0] + 0.5) * side
                    assert abs(lam * site + b - center) <= got.tolerance + 1e-12
    for case in range(60):
        n = int(rng.integers(2, 4))
        size = int(rng.integers(2, 7))
        cells = rng.choice(4**n, size=size, replace=False)
        cubes = np.stack([cells >> n, cells & (2**n - 1)], axis=1)
        got = fp.detect_configuration(cubes, dist, n)
        want = _oracle_detect(cubes, dist, n, got.tolerance)
        assert got.present == want, (case, cubes.tolist())
    # 10^3 randomized invariant checks.
    for case in range(1000):
        n = int(rng.integers(2, 5))
        size = int(rng.integers(3, min(2**n, 10) + 1))
        cells = np.sort(rng.choice(2**n, size=size, replace=False))
        cubes = cells[:, None]
        present = fp.detect_configuration(cubes, ap, n).present
        # Monotone under adding cubes.
        if present:
            extra = np.setdiff1d(np.arange(2**n), cells)
            if extra.size:
                grown = np.sort(
                    np.concatenate([cells, rng.choice(extra, size=1)])
                )[:, None]
                assert fp.detect_configuration(grown, ap, n).present
        # Scale invariance: same indices one level deeper (halving the
        # configuration and the default tolerance together).
        assert fp.detect_configuration(cubes, ap, n + 1).present == present


def test_13_cli_reproducibility(tmp_path):
    """Every command's smoke preset is byte-identical across repeat runs and
    across thread counts."""
    for cmd in COMMANDS:
        outs = []
        for tag, threads in (("a", "1"), ("b", "1"), ("t8", "8")):
            out = tmp_path / f"{cmd}-{tag}"
            rc = main(
                [
                    cmd,
                    "--preset",
                    "smoke",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                    "--threads",
                    threads,
                ]
            )
            assert rc == 0, cmd
            outs.append(out)
        csvs = sorted(
            os.path.basename(p) for p in glob.glob(str(outs[0] / "*.csv"))
        )
        assert csvs, cmd
        for other in outs[1:]:
            for name in csvs:
                assert (outs[0] / name).read_bytes() == (
                    other / name
                ).read_bytes(), (cmd, name)
