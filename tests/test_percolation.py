"""Unit tests for the branching construction: offspring laws, sampling,
coupling and replay determinism."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import comb

import fracperc as fp
from fracperc.errors import BudgetError, ConfigError
from fracperc.rng import root_key


def test_extinction_probability_exact_value():
    # (1 - p + p t)^2 = t at p = 0.7 has smallest root 9/49.
    assert fp.extinction_probability(1, 0.7) == pytest.approx(9 / 49, abs=1e-12)


@pytest.mark.parametrize("d,p", [(1, 0.6), (1, 0.9), (2, 0.3), (2, 0.55), (3, 0.2)])
def test_extinction_probability_is_generating_function_root(d, p):
    q = fp.extinction_probability(d, p)
    f = lambda t: (1 - p + p * t) ** (2**d) - t
    assert abs(f(q)) < 1e-12
    if p > 2.0**-d:
        # Smallest root lies strictly below 1 in the supercritical regime.
        assert q < 1 - 1e-9
        root = brentq(f, 0.0, 1 - 1e-9)
        assert q == pytest.approx(root, abs=1e-10)


def test_extinction_probability_matches_brentq():
    for d in (1, 2, 3):
        n = 1 << d
        for p in 2.0**-d + (1 - 2.0**-d) * np.arange(1, 101) / 100:
            p = float(p)
            f = lambda t: (1 - p + p * t) ** n - t
            want = brentq(f, 0.0, 1.0 - 1e-13, xtol=1e-15, rtol=8.9e-16)
            assert fp.extinction_probability(d, p) == pytest.approx(want, abs=1e-14)


def test_import_loads_neither_scipy_nor_sympy():
    code = (
        "import sys, fracperc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'sympy')))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "[]"


def test_qmc_kernels_load_no_scipy():
    # The coarea kernel and the plane QMC kernel (k = 2 in R^4) both draw
    # Sobol points; neither may pull scipy in for them.
    code = (
        "import sys, numpy as np, fracperc as fp\n"
        "from fracperc.geometry import _sobol_points, orthonormalize\n"
        "idx = np.array([[0, 0, 1, 1], [1, 0, 0, 1]])\n"
        "poly = fp.configuration_polynomial(\n"
        "    fp.ConfigDescriptor(family='distance', d=2, params={'lam': 0.5}))\n"
        "fp.variety_level_measure(poly, idx, 1, 4096)\n"
        "basis = orthonormalize([[1, 2, 0, 1], [0, 1, 1, -1]])\n"
        "plane = fp.AffinePlane(basis=basis, offset=np.full(4, 0.5))\n"
        "fp.plane_level_measure(plane, idx, 1, 4096)\n"
        "print(_sobol_points.cache_info().currsize,\n"
        "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "2 []"


def test_extinction_probability_subcritical_is_one():
    assert fp.extinction_probability(1, 0.5) == pytest.approx(1.0)
    assert fp.extinction_probability(2, 0.2) == pytest.approx(1.0)


@pytest.mark.parametrize("d,p", [(1, 0.7), (2, 0.6), (2, 0.9)])
def test_offspring_distribution_binomial_formula(d, p):
    # Conditioned offspring law: p_k proportional to C(2^d, k) p^k (1-q)^(k-1)
    # (1 - p(1-q))^(2^d - k) for k = 1..2^d.
    q = fp.extinction_probability(d, p)
    N = 2**d
    expected = np.array(
        [
            comb(N, k) * p**k * (1 - q) ** (k - 1) * (1 - p * (1 - q)) ** (N - k)
            for k in range(1, N + 1)
        ]
    )
    got = np.asarray(fp.offspring_distribution(d, p))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_offspring_distribution_pinned():
    assert fp.offspring_distribution(1, 0.7) == pytest.approx((0.6, 0.4), abs=1e-10)


def test_law_fields():
    law = fp.GaltonWatsonLaw.create(2, 0.6)
    assert law.d == 2 and law.p == 0.6
    assert law.s == pytest.approx(2 + math.log2(0.6))
    sub = fp.GaltonWatsonLaw.create(1, 0.4)
    assert sub.offspring is None  # no survival conditioning below 2^-d


def test_surviving_variant_requires_supercritical():
    law = fp.GaltonWatsonLaw.create(1, 0.4)
    with pytest.raises(ConfigError):
        fp.sample_tree(law, "surviving", 0, 3)


@pytest.mark.parametrize("variant", ["extinction", "surviving"])
def test_replay_determinism(variant):
    law = fp.GaltonWatsonLaw.create(2, 0.7)
    a = fp.sample_tree(law, variant, 1234, 5)
    b = fp.sample_tree(law, variant, 1234, 5)
    for n in range(6):
        assert np.array_equal(a.levels[n], b.levels[n])
    c = fp.sample_tree(law, variant, 1235, 5)
    assert any(not np.array_equal(a.levels[n], c.levels[n]) for n in range(6))


@pytest.mark.parametrize("variant", ["extinction", "surviving"])
def test_levels_are_nested(variant):
    law = fp.GaltonWatsonLaw.create(2, 0.65)
    tree = fp.sample_tree(law, variant, 7, 6)
    for n in range(1, 7):
        child = tree.levels[n]
        parent = {tuple(r) for r in tree.levels[n - 1]}
        for row in child >> 1:
            assert tuple(row) in parent


def test_surviving_never_dies():
    law = fp.GaltonWatsonLaw.create(1, 0.55)
    for seed in range(50):
        tree = fp.sample_tree(law, "surviving", seed, 8)
        assert all(tree.levels[n].shape[0] >= 1 for n in range(9))


def test_extinction_mean_growth():
    # E[N_n] = (2^d p)^n for the unconditioned process.
    law = fp.GaltonWatsonLaw.create(1, 0.8)
    forest = fp.sample_forest(law, "extinction", list(range(4000)), 3)
    rep, _ = forest[3]
    counts = np.bincount(rep, minlength=4000)
    se = counts.std(ddof=1) / math.sqrt(4000)
    assert abs(counts.mean() - 1.6**3) < 4 * se


def test_sample_forest_matches_individual_trees():
    # Every variant the forest grows, in d = 1, 2, 3: each tree's rows are
    # contiguous and equal, in order, to that tree grown alone.
    seeds = [3, 11, 42, 7]
    for variant in ("extinction", "surviving", "coupled"):
        for d in (1, 2, 3):
            law = fp.GaltonWatsonLaw.create(d, 0.6)
            forest = fp.sample_forest(law, variant, seeds, 4)
            for n in range(5):
                rep, idx = forest[n]
                assert np.all(np.diff(rep) >= 0), (variant, d, n)
                for i, seed in enumerate(seeds):
                    tree = fp.sample_tree(law, variant, seed, 4)
                    assert np.array_equal(idx[rep == i], tree.levels[n]), (variant, d, n, i)


def test_coupled_slices_nest():
    for seed in range(30):
        lo = fp.coupled_slice(2, seed, 0.5, 5)
        hi = fp.coupled_slice(2, seed, 0.8, 5)
        for n in range(6):
            sup = {tuple(r) for r in hi.levels[n]}
            assert all(tuple(r) in sup for r in lo.levels[n])


def test_resample_level_deterministic_and_nested():
    law = fp.GaltonWatsonLaw.create(2, 0.7)
    tree = fp.sample_tree(law, "extinction", 5, 4)
    a = fp.resample_level(tree, 2, 1)
    b = fp.resample_level(tree, 2, 1)
    assert np.array_equal(a, b)
    c = fp.resample_level(tree, 2, 2)
    # A different resample index redraws the level (almost surely different).
    assert not np.array_equal(a, c) or a.shape != c.shape
    parents = {tuple(r) for r in tree.levels[2]}
    for row in a >> 1:
        assert tuple(row) in parents


def test_natural_measure_total_mass():
    law = fp.GaltonWatsonLaw.create(2, 0.6)
    tree = fp.sample_tree(law, "extinction", 9, 3)
    nm = fp.natural_measure(tree, 3)
    expected = tree.levels[3].shape[0] * 0.6**-3 * 2.0 ** (-2 * 3)
    assert nm.total_mass == pytest.approx(expected)


def test_budget_and_config_errors():
    law = fp.GaltonWatsonLaw.create(2, 0.9)
    with pytest.raises(BudgetError):
        fp.sample_tree(law, "surviving", 1, 20, max_cubes=10)
    with pytest.raises(ConfigError):
        fp.sample_tree(law, "bogus", 1, 2)
    for d in (0, 7):
        with pytest.raises(ConfigError):
            fp.GaltonWatsonLaw.create(d, 0.9)
    assert fp.GaltonWatsonLaw.create(6, 0.9).d == 6


def test_root_key_distinct():
    ks = {int(root_key(s)) for s in range(1000)}
    assert len(ks) == 1000
