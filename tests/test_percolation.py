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
from fracperc.percolation import natural_mass
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
    expected = tree.levels[3].shape[0] * 0.6**-3 * 2.0 ** (-2 * 3)
    assert natural_mass(law, tree.count(3), 3) == pytest.approx(expected)


def test_budget_and_config_errors(monkeypatch):
    law = fp.GaltonWatsonLaw.create(2, 0.9)
    monkeypatch.setattr(fp.percolation, "MAX_CUBES", 10)
    with pytest.raises(BudgetError):
        fp.sample_tree(law, "surviving", 1, 20)
    with pytest.raises(ConfigError):
        fp.sample_tree(law, "bogus", 1, 2)
    for d in (0, 7):
        with pytest.raises(ConfigError):
            fp.GaltonWatsonLaw.create(d, 0.9)
    assert fp.GaltonWatsonLaw.create(6, 0.9).d == 6


def test_budget_refuses_live_children_before_their_indices(monkeypatch):
    # Surviving d = 2 trees at p = 0.9 hold 120 763 cubes at level 9 from
    # seed 1.  The refusal counts live children before their indices exist:
    # building the (N, 2^d, d) indices of every child first peaks near
    # 11 MiB on this input, above the 8 MiB bound.
    import tracemalloc

    law = fp.GaltonWatsonLaw.create(2, 0.9)
    monkeypatch.setattr(fp.percolation, "MAX_CUBES", 100_000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"^level would hold 120763 cubes \(budget 100000\)$"):
            fp.sample_tree(law, "surviving", 1, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    monkeypatch.setattr(fp.percolation, "MAX_CUBES", 120_763)
    assert fp.sample_tree(law, "surviving", 1, 9).count(9) == 120_763
    monkeypatch.setattr(fp.percolation, "MAX_CUBES", 120_762)
    with pytest.raises(BudgetError, match="hold 120763 cubes"):
        fp.sample_tree(law, "surviving", 1, 9)


def test_expand_matches_per_cube_rule():
    # The expansion rule, one cube at a time.  A child lives iff its
    # key-uniform is <= p (extinction, coupled), or iff it is among the k
    # children of its cube with the smallest key-uniforms, ties to the lower
    # offset, k drawn from the offspring cdf by the cube's count key
    # (surviving).  Live children come parent-major, in offset order, with
    # index 2 * parent + offset (axis 0 the most significant offset bit).
    from fracperc.percolation import _expand
    from fracperc.rng import COUNT_SALT, child_keys, derive, key_uniform

    def reference(law, variant, idx, keys):
        d, n = law.d, 1 << law.d
        cdf = np.cumsum(law.offspring).tolist() if variant == "surviving" else None
        out_idx, out_keys, out_par = [], [], []
        for row, (cube, key) in enumerate(zip(idx.tolist(), keys.tolist())):
            ck = child_keys(np.uint64(key), d).tolist()
            u = [float(key_uniform(np.uint64(c))) for c in ck]
            if variant == "surviving":
                u_cnt = float(key_uniform(derive(np.uint64(key), COUNT_SALT)))
                k = min(sum(c <= u_cnt for c in cdf) + 1, n)
                live = set(sorted(range(n), key=lambda j: (u[j], j))[:k])
            else:
                live = {j for j in range(n) if u[j] <= law.p}
            for j in sorted(live):
                out_idx.append([2 * c + ((j >> (d - 1 - i)) & 1) for i, c in enumerate(cube)])
                out_keys.append(ck[j])
                out_par.append(row)
        return (
            np.array(out_idx, dtype=np.int64).reshape(-1, d),
            np.array(out_keys, dtype=np.uint64),
            np.array(out_par, dtype=np.int64),
        )

    rng = np.random.default_rng(3)
    for variant in ("extinction", "coupled", "surviving"):
        for d in (1, 2, 3):
            for p in (0.7, 1.0):
                law = fp.GaltonWatsonLaw.create(d, p)
                for rows in (0, 40):
                    idx = rng.integers(0, 1 << 8, size=(rows, d))
                    keys = root_key(rng.integers(0, 1 << 62, size=rows))
                    got = _expand(law, variant, idx, keys)
                    want = reference(law, variant, idx, keys)
                    if p == 1.0:
                        assert want[0].shape[0] == rows << d
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and np.array_equal(g, w), (variant, d, p, rows)


def test_root_key_distinct():
    ks = {int(root_key(s)) for s in range(1000)}
    assert len(ks) == 1000


def test_forest_groups_match_one_group(monkeypatch):
    # With the group bound small, a forest grows in many groups; its levels
    # and keys equal, bit for bit, those of the same forest grown as one
    # group, and each tree's keys those of sample_tree.  So does a forest
    # whose levels are filtered.
    from fracperc import percolation

    seeds = [3, 11, 42, 7, 19, 23, 5, 8]

    def grown(law, variant, keep=None):
        groups = list(percolation.forest_groups(law, variant, seeds, 4, keep=keep))
        return len(groups), [
            [np.concatenate(a) for a in zip(*lev)] for lev in zip(*groups)
        ]

    def upper_half(lev, idx):
        return idx[:, 0] >= (1 << lev) // 2

    for variant in ("extinction", "surviving", "coupled"):
        for d in (1, 2, 3):
            law = fp.GaltonWatsonLaw.create(d, 0.7)
            for keep in (None, upper_half):
                monkeypatch.setattr(percolation, "FOREST_CUBES", 1 << 40)
                one, whole = grown(law, variant, keep)
                monkeypatch.setattr(percolation, "FOREST_CUBES", 8)
                many, parts = grown(law, variant, keep)
                assert one == 1 and many > 1, (variant, d)
                for a, b in zip(whole, parts):
                    for x, y in zip(a, b):
                        assert x.dtype == y.dtype and np.array_equal(x, y), (variant, d)
                if keep is not None:
                    continue
                for i, seed in enumerate(seeds):
                    tree = fp.sample_tree(law, variant, seed, 4)
                    for n, (rep, idx, keys) in enumerate(parts):
                        assert np.array_equal(tree.levels[n], idx[rep == i])
                        assert np.array_equal(tree._keys[n], keys[rep == i])


def test_forest_order_matches_lexsort():
    # Row keys sort, look up and deduplicate rows in lexicographic order
    # whether they pack into int64 (indices of 2^6 in d = 2) or fall back to
    # void views (indices of 2^40), and with negative columns.
    from fracperc.percolation import _row_keys

    rng = np.random.default_rng(5)
    for high, low, kind in ((1 << 6, 0, "i"), (1 << 40, 0, "V"), (1 << 6, -(1 << 6), "i")):
        tree = np.sort(rng.integers(0, 50, size=3000))
        idx = rng.integers(low, high, size=(3000, 2))
        idx[1::2] = idx[::2]  # ties in the leading coordinate
        idx[1::2, 1] += 1
        rows = np.column_stack([tree, idx])
        rows[2::7] = rows[::7][: rows[2::7].shape[0]]  # duplicate rows
        rows = rows[rng.permutation(rows.shape[0])]
        queries = np.concatenate([rows[:500], rows[:500] + [0, 0, high]])
        keys, qkeys = _row_keys(rows, queries)
        assert keys.dtype.kind == qkeys.dtype.kind == kind, high
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(order, np.lexsort(rows.T[::-1]))
        # unique rows, and the row of each query among them
        want, want_inv = np.unique(rows, axis=0, return_inverse=True)
        ukeys, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        assert np.array_equal(rows[first], want) and np.array_equal(inv, want_inv)
        at = {tuple(r): i for i, r in enumerate(want.tolist())}
        pos = np.searchsorted(ukeys, qkeys)
        found = ukeys[np.minimum(pos, ukeys.shape[0] - 1)] == qkeys
        assert found.tolist() == [tuple(q) in at for q in queries.tolist()]
        assert pos[found].tolist() == [at[tuple(q)] for q in queries[found].tolist()]
    # widths of 3 + 30 + 30 bits pack; one more bit, in either operand of a
    # lookup, makes every key a void view; a constant column takes no bits
    rows = np.array([[0, 0, 0], [7, (1 << 30) - 1, (1 << 30) - 1]])
    assert [k.dtype.kind for k in _row_keys(rows)] == ["i"]
    assert [k.dtype.kind for k in _row_keys(rows, np.array([[5, 0, 1 << 30]]))] == ["V", "V"]
    flat = np.array([[9, 0, 0], [9, (1 << 31) - 1, (1 << 32) - 1]]) - (1 << 40)
    assert _row_keys(flat)[0].tolist() == [0, (1 << 63) - 1]


def test_deep_forest_keys_fall_back_and_match_dict_reference():
    # Surviving d = 2 trees at p just above 1/4 stay small while their level
    # indices outgrow 63 bits of (tree, index) key past level 32.  Their
    # levels, child tables and ancestor levels equal dict-based references.
    from fracperc.intersect import _child_table
    from fracperc.patterns import _forest_ancestors
    from fracperc.percolation import _row_keys

    law = fp.GaltonWatsonLaw.create(2, 0.26)
    n = 34
    levels = fp.sample_forest(law, "surviving", [11, 12, 13], n)
    assert _row_keys(np.column_stack(levels[n]))[0].dtype.kind == "V"
    for i, seed in enumerate([11, 12, 13]):
        tree = fp.sample_tree(law, "surviving", seed, n)
        for lev in (0, 20, n):
            assert np.array_equal(levels[lev][1][levels[lev][0] == i], tree.levels[lev])
    for lev in range(n + 1):
        rows = np.column_stack(levels[lev]).tolist()
        assert rows == sorted(rows)
    for lev in (0, 31, 32, n - 1):
        parent = {
            (t, *row): i
            for i, (t, row) in enumerate(zip(*[a.tolist() for a in levels[lev]]))
        }
        ctree, cidx = levels[lev + 1]
        prow = [
            parent[(t, *(c >> 1 for c in row))]
            for t, row in zip(ctree.tolist(), cidx.tolist())
        ]
        order, starts, counts = _child_table(levels[lev], levels[lev + 1])
        assert counts.tolist() == [prow.count(i) for i in range(len(parent))]
        for i in range(len(parent)):
            got = order[starts[i]: starts[i] + counts[i]].tolist()
            assert got == [j for j, r in enumerate(prow) if r == i]
    tree, cubes = levels[n]
    kept, ancestors = _forest_ancestors(tree, cubes, n, m=2)
    assert kept.tolist() == [t for t in range(3) if (tree == t).sum() >= 2]
    number = {t: k for k, t in enumerate(kept.tolist())}
    for j, (atree, aidx) in enumerate(ancestors):
        want = sorted({
            (number[t], *(c >> (n - j) for c in row))
            for t, row in zip(tree.tolist(), cubes.tolist()) if t in number
        })
        assert np.column_stack([atree, aidx]).tolist() == [list(r) for r in want]
