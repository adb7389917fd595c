"""Unit tests for intersection masses of product measures with planes and
varieties: exact base cases, pruning, level kernels, modes, budgets and
diagnostics."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import fracperc as fp
import fracperc.geometry as geometry
from fracperc.errors import BudgetError, ConfigError
from fracperc.geometry import orthonormalize, plane_level_keep, plane_level_measure
import fracperc.intersect as intersect
from fracperc.intersect import (
    _child_table,
    _expand_factor,
    _frontier,
    _grown_batch,
    _poly_keep,
    _product_idx,
    _prune_state,
    _spec_batch,
    _target_keep,
    intersection_mass,
    replicate_masses,
)
from fracperc.polynomials import variety_level_measure
from fracperc.rng import derive, root_key


def line(direction, through):
    basis = orthonormalize(np.array([direction], dtype=float))
    off = np.asarray(through, dtype=float)
    return fp.AffinePlane(basis=basis, offset=off - basis.T @ (basis @ off))


def tree_d(d, p, seed, n, variant="extinction"):
    return fp.sample_tree(fp.GaltonWatsonLaw.create(d, p), variant, seed, n)


def spec_indep(trees):
    m = len(trees)
    return fp.ProductMeasureSpec(mode="independent", trees=trees, m=m, diag_level=0)


def test_level_zero_mass_is_section_measure():
    # Before any percolation the measure is Lebesgue on the cube, so the
    # level-0 mass is the plain section length.
    t = tree_d(2, 0.7, 1, 0)
    ms = fp.intersection_mass(spec_indep([t]), line([1, 1], [0, 0]), 0)
    assert ms.values[0] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_full_retention_keeps_mass_constant():
    t = tree_d(2, 1.0, 3, 4)
    target = line([1, 0], [0.0, 0.3])
    ms = fp.intersection_mass(spec_indep([t]), target, 4)
    assert list(ms.levels) == [0, 1, 2, 3, 4]
    for v in ms.values:
        assert v == pytest.approx(1.0, abs=1e-12)


def test_pruned_equals_unpruned():
    target = line([2, 1], [0.0, 0.37])
    for seed in range(5):
        t = tree_d(2, 0.6, seed, 3)
        a = fp.intersection_mass(spec_indep([t]), target, 3, pruned=True)
        b = fp.intersection_mass(spec_indep([t]), target, 3, pruned=False)
        assert a.values == pytest.approx(b.values, abs=1e-12)
        # Pruning only skips zero-mass cubes, so visited counts may differ
        # while every reported mass agrees exactly.


def test_density_scaling_mean_one():
    # E[Y_n] = 1 for an axis line in d = 2 under the unconditioned process:
    # quick 2000-replicate check at 5 sigma.
    target = line([1, 0], [0.0, 0.25])
    vals = []
    for seed in range(2000):
        t = tree_d(2, 0.5, seed, 1)
        vals.append(fp.intersection_mass(spec_indep([t]), target, 1).values[-1])
    vals = np.array(vals)
    z = abs(vals.mean() - 1.0) / (vals.std(ddof=1) / math.sqrt(len(vals)))
    assert z < 5


def test_repeated_calls_identical():
    # Exact and quasi-Monte Carlo kernels alike: a second call on the same
    # inputs repeats every value and standard error bit for bit.
    t = tree_d(2, 0.7, 8, 3)
    circle = fp.PolynomialMap(
        ambient=2,
        components=({(2, 0): 1.0, (1, 0): -1.0, (0, 2): 1.0, (0, 1): -1.0, (0, 0): 0.34},),
    )
    for target in (line([3, 1], [0.0, 0.41]), circle):
        a = fp.intersection_mass(spec_indep([t]), target, 3, mc_samples=512)
        b = fp.intersection_mass(spec_indep([t]), target, 3, mc_samples=512)
        assert a.values == b.values and a.ses == b.ses and a.counts == b.counts


def _all_cubes(level, m):
    return np.array(list(itertools.product(range(1 << level), repeat=m)), dtype=np.int64)


def _pair_distance(lam):
    # |x - y|^2 - lam^2 for x = (x0, x1), y = (x2, x3): a 3-dimensional
    # variety of R^4.
    comp = {
        (2, 0, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (1, 0, 1, 0): -2.0,
        (0, 2, 0, 0): 1.0, (0, 0, 0, 2): 1.0, (0, 1, 0, 1): -2.0,
        (0, 0, 0, 0): -lam * lam,
    }
    return fp.PolynomialMap(ambient=4, components=(comp,))


_KERNEL_CASES = {
    # name: (target, ambient, level)
    "line": (line([1, 2, -1], [0.3, 0.4, 0.5]), 3, 3),
    "hyperplane": (
        fp.AffinePlane.from_spanning([[1, -1, 0], [1, 1, -2]], [0.2, 0.3, 0.6]), 3, 3
    ),
    "full": (fp.AffinePlane(basis=np.eye(2), offset=np.zeros(2)), 2, 2),
    "plane-qmc": (
        fp.AffinePlane.from_spanning([[1, 1, 0, 1], [0, 1, -1, 2]], [0.5] * 4), 4, 1
    ),
    "coarea": (_pair_distance(0.5), 4, 1),
}


@pytest.mark.parametrize("kernel", sorted(_KERNEL_CASES))
def test_level_kernels_match_one_row_calls(kernel, monkeypatch):
    # A chunk holds 3 QMC cubes (the 16 cubes span six chunks) or 384
    # hyperplane cubes (the 512 span two): every cube's value must equal its
    # one-row call, whichever chunk it fell in.  The coarea rows also come
    # repeated and reversed.
    n_samples = 256
    monkeypatch.setattr(geometry, "CHUNK_FLOATS", 3 * n_samples * 4)
    target, m, level = _KERNEL_CASES[kernel]
    idx = _all_cubes(level, m)
    if kernel == "coarea":
        idx = np.concatenate([idx[::-1], idx[5:9], idx, idx[:1]])
    if isinstance(target, fp.AffinePlane):
        vals, ses = plane_level_measure(target, idx, level, n_samples)
    else:
        vals, ses = variety_level_measure(target, idx, level, n_samples)
    assert vals.shape == ses.shape == (idx.shape[0],)
    assert np.any(vals > 0)
    for row, v, s in zip(idx, vals, ses):
        cube = fp.DyadicCube(level=level, index=tuple(row))
        if isinstance(target, fp.AffinePlane):
            one = fp.plane_cube_measure(target, cube, n_samples, with_se=True)
        else:
            res = fp.variety_cube_measure(target, cube, n_samples=n_samples, with_detail=True)
            one = (res.estimate, res.se)
        assert (v, s) == one, (row, v, s, one)


@pytest.mark.parametrize("kernel", sorted(_KERNEL_CASES))
def test_sampling_kernels_refuse_no_samples(kernel):
    # The QMC plane and coarea kernels average over their samples, so none
    # is a config error; the exact kernels read no samples.
    target, m, level = _KERNEL_CASES[kernel]
    idx = _all_cubes(level, m)
    if kernel in ("plane-qmc", "coarea"):
        for n_samples in (0, -1):
            with pytest.raises(ConfigError):
                if kernel == "coarea":
                    variety_level_measure(target, idx, level, n_samples)
                else:
                    plane_level_measure(target, idx, level, n_samples)
    else:
        vals, _ = plane_level_measure(target, idx, level, 0)
        assert np.array_equal(vals, plane_level_measure(target, idx, level, 256)[0])


def test_product_of_two_factors():
    # Two independent d=1 factors against the anti-diagonal x + y = 1:
    # level-0 mass is the full diagonal length sqrt(2).
    ta, tb = tree_d(1, 0.8, 1, 2), tree_d(1, 0.8, 2, 2)
    target = line([1, -1], [0.5, 0.5])
    ms = fp.intersection_mass(spec_indep([ta, tb]), target, 2)
    assert ms.values[0] == pytest.approx(math.sqrt(2), abs=1e-12)
    assert all(v >= 0 for v in ms.values)


def test_power_mode_excludes_diagonal():
    # The diagonal line x = y only meets off-diagonal product cubes in corner
    # points, so the diagonal-free power measure gives it zero mass.
    t = tree_d(1, 0.9, 4, 3)
    spec = fp.ProductMeasureSpec(mode="power", trees=[t], m=2, diag_level=1)
    ms = fp.intersection_mass(spec, line([1, 1], [0, 0]), 3)
    assert math.isnan(ms.values[0])  # below the decomposition level
    for v in ms.values[1:]:
        assert v == pytest.approx(0.0, abs=1e-12)
    # An off-diagonal line does pick up mass.
    ms2 = fp.intersection_mass(spec, line([1, -1], [0.5, 0.5]), 3)
    assert any(v > 0 for v in ms2.values[1:])


def test_power_mode_matches_distinct_pair_enumeration():
    # Brute force at level 1 in d = 1: distinct index pairs only.
    t = tree_d(1, 0.9, 11, 1)
    spec = fp.ProductMeasureSpec(mode="power", trees=[t], m=2, diag_level=1)
    target = line([1, -1], [0.5, 0.5])
    ms = fp.intersection_mass(spec, target, 1)
    side = 0.5
    idx = t.levels[1][:, 0]
    total = 0.0
    for i in idx:
        for j in idx:
            if i == j:
                continue
            lo = np.array([i * side, j * side])
            seg = fp.plane_cube_measure(
                target, fp.DyadicCube(level=1, index=np.array([i, j]))
            )
            total += seg
    expected = (0.9**-2) * total
    assert ms.values[-1] == pytest.approx(expected, abs=1e-12)


def test_spec_validation():
    t = tree_d(1, 0.8, 0, 1)
    t2 = tree_d(2, 0.8, 0, 1)
    # each check that needs no tree refuses the law and the spec alike
    for mode, tree, m, diag_level, match in (
        ("bogus", t, 1, 0, "unknown mode"),
        ("power", t, 2, 0, "decomposition level >= 1"),
        # power mode needs m distinct cubes at diag_level: 2^(d diag_level) >= m
        ("power", t, 3, 1, "no tuple of distinct cubes"),
        ("power", t2, 5, 1, "no tuple of distinct cubes"),
    ):
        with pytest.raises(ConfigError, match=match):
            fp.ProductLaw(tree.law, tree.variant, mode, m, diag_level)
        with pytest.raises(ConfigError, match=match):
            fp.ProductMeasureSpec(mode=mode, trees=[tree], m=m, diag_level=diag_level)
    with pytest.raises(ConfigError):
        fp.ProductMeasureSpec(mode="independent", trees=[t], m=2, diag_level=0)
    for tree, m, diag_level in ((t, 2, 1), (t, 4, 2), (t2, 4, 1)):
        fp.ProductLaw(tree.law, tree.variant, "power", m, diag_level)
        fp.ProductMeasureSpec(mode="power", trees=[tree], m=m, diag_level=diag_level)
    # factor trees of mixed variants are measured, but not replicated
    mixed = spec_indep([t, tree_d(1, 0.8, 1, 1, variant="surviving")])
    target = line([1, -1], [0.5, 0.5])
    intersection_mass(mixed, target, 1)
    with pytest.raises(ConfigError, match="replicated factors must share one variant"):
        fp.second_moment_estimate(mixed, target, 1, 4)


def test_laws_compare_by_value_and_specs_by_identity():
    law = fp.GaltonWatsonLaw.create(1, 0.8)
    same = fp.GaltonWatsonLaw.create(1, 0.8)
    assert law == same and hash(law) == hash(same)
    assert law != fp.GaltonWatsonLaw.create(1, 0.7)
    assert law != fp.GaltonWatsonLaw.create(2, 0.8)
    product = fp.ProductLaw(law, "surviving", "independent", 2)
    twin = fp.ProductLaw(same, "surviving", "independent", 2)
    assert product == twin and hash(product) == hash(twin)
    assert product != fp.ProductLaw(law, "extinction", "independent", 2)
    assert product != fp.ProductLaw(law, "surviving", "independent", 3)
    # equal laws are one dict key
    table = {law: "law", product: "product"}
    assert table[same] == "law" and table[twin] == "product"
    assert len({law, same, product, twin}) == 2
    # specs hold trees: equal laws and different trees are not equal
    trees = [fp.sample_tree(law, "surviving", s, 2) for s in (1, 2)]
    spec = spec_indep(trees)
    other = spec_indep(trees[::-1])
    assert spec.law == other.law and spec != other
    assert spec == spec and spec != product and product != spec
    assert spec_indep(trees) != spec
    assert len({spec: 0, other: 1}) == 2


def test_martingale_resample_small():
    t = tree_d(2, 0.7, 2, 3)
    y, mean, se = fp.martingale_resample_check(
        spec_indep([t]), line([1, 0], [0.0, 0.3]), 1, 200
    )
    if se == 0:
        assert mean == pytest.approx(y, abs=1e-12)
    else:
        assert abs(mean - y) <= 6 * se


def _frozen_plus_resample(tree, n, r):
    """A tree holding tree's levels 0..n and its resample r of level n+1."""
    levels = list(tree.levels[: n + 1]) + [fp.resample_level(tree, n, r)]
    return fp.PercolationTree(tree.law, tree.variant, tree.seed, levels=levels)


def _resample_reference(spec, target, n, replicates):
    """martingale_resample_check from public calls: one intersection_mass
    per resample, on trees of frozen levels plus that resample."""
    y_n = intersection_mass(spec, target, n).values[n]
    samples = []
    for r in range(replicates):
        aux = spec.aux_tree
        spec_r = fp.ProductMeasureSpec(
            mode=spec.mode,
            trees=[_frozen_plus_resample(t, n, r) for t in spec.trees],
            m=spec.m,
            diag_level=spec.diag_level,
            aux_tree=None if aux is None else _frozen_plus_resample(aux, n, r),
        )
        samples.append(intersection_mass(spec_r, target, n + 1).values[n + 1])
    samples = np.array(samples)
    return (
        y_n,
        float(samples.mean()),
        float(samples.std(ddof=1) / math.sqrt(replicates)),
    )


_RESAMPLE_CASES = {
    # name: (mode, d, m, p, target, n, diag_level)
    "independent-line": ("independent", 1, 2, 0.8, line([1, -1], [0.55, 0.55]), 2, 0),
    "independent-circle": (
        "independent", 2, 1, 0.7,
        fp.PolynomialMap(ambient=2, components=(
            {(2, 0): 1.0, (1, 0): -1.0, (0, 2): 1.0, (0, 1): -1.0, (0, 0): 0.34},
        )),
        1, 0,
    ),
    "power-line": ("power", 1, 2, 0.8, line([1, -0.37], [0.55, 0.45]), 2, 1),
    "weighted-line": ("weighted", 1, 2, 0.8, line([1, -0.37], [0.55, 0.45]), 2, 0),
}


@pytest.mark.parametrize("case", sorted(_RESAMPLE_CASES))
def test_batched_resamples_match_one_at_a_time(case):
    mode, d, m, p, target, n, diag_level = _RESAMPLE_CASES[case]
    spec = _replicate_specs(
        mode, d, m, p, "extinction", [root_key(41)], n, diag_level
    )[0]
    got = fp.martingale_resample_check(spec, target, n, 100)
    want = _resample_reference(spec, target, n, 100)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert got[2] > 0


def test_resamples_split_into_groups_under_the_row_cap(monkeypatch):
    mode, d, m, p, target, n, diag_level = _RESAMPLE_CASES["weighted-line"]
    spec = _replicate_specs(
        mode, d, m, p, "extinction", [root_key(41)], n, diag_level
    )[0]
    want = _resample_reference(spec, target, n, 100)
    frozen = sum(
        t.levels[lev].shape[0]
        for t in list(spec.trees) + [spec.aux_tree] for lev in range(n + 1)
    )
    # room for two or three resamples per group
    monkeypatch.setattr(intersect, "MAX_CUBES", 8 * frozen)
    groups = []
    batches_of = intersect._resample_batches

    def counted(*args):
        for batch in batches_of(*args):
            groups.append(batch.reps)
            yield batch

    monkeypatch.setattr(intersect, "_resample_batches", counted)
    got = fp.martingale_resample_check(spec, target, n, 100)
    assert len(groups) > 10 and max(groups) > 1 and sum(groups) == 100
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_second_moment_degenerate_at_full_retention():
    t = tree_d(2, 1.0, 5, 2)
    rep = fp.second_moment_estimate(
        spec_indep([t]), line([1, 0], [0.0, 0.3]), 2, 50, base_seed=3
    )
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)
    assert rep.positive_frequency == 1.0
    assert rep.pz_lower_bound == pytest.approx(1.0, abs=1e-12)


def test_second_moment_survival_bound_consistent():
    t = tree_d(2, 0.7, 5, 3)
    rep = fp.second_moment_estimate(
        spec_indep([t]), line([1, 0], [0.0, 0.3]), 3, 300, base_seed=9
    )
    assert rep.pz_lower_bound == pytest.approx(rep.mean**2 / rep.mean_sq)
    # The Paley-Zygmund bound must not exceed the observed positive frequency
    # by more than sampling noise.
    assert rep.pz_lower_bound <= rep.positive_frequency + 0.1


def test_holder_modulus_tables():
    t = tree_d(2, 0.8, 7, 3)
    spec = spec_indep([t])
    targets = {f"t{i}": line([1, 0], [0.0, 0.2 + 0.1 * i]) for i in range(4)}
    out = fp.holder_modulus(spec, targets, 3, [0.25, 0.5])
    assert set(out) == {"sup_ratio", "growth", "series"}
    assert set(out["sup_ratio"]) == {0.25, 0.5}
    assert set(out["series"]) == set(targets)
    for gamma, ratios in out["sup_ratio"].items():
        assert ratios >= 0
    for gamma, seq in out["growth"].items():
        assert len(seq) == 4  # levels 0..3


def test_holder_series_match_standalone_masses():
    # Each grid target's series is the mass of that target alone: no target
    # reuses the per-cube measures of another.
    t = tree_d(2, 0.8, 7, 3)
    spec = spec_indep([t])
    targets = {
        "a": line([1, 1], [0.0, 0.05]),
        "b": line([1, 2], [0.0, 0.1]),
        "c": line([2, 1], [0.0, 0.2]),
    }
    out = fp.holder_modulus(spec, targets, 3, [0.5])
    for tid, target in targets.items():
        alone = fp.intersection_mass(spec, target, 3, param_id=tid)
        assert out["series"][tid].values == alone.values, tid
        assert out["series"][tid].counts == alone.counts, tid


def test_expansion_holds_few_vectors_beside_output():
    # 400000 triples whose middle factor cube has 1-3 children: besides the
    # (K, 3) output, the expansion may hold at most three int64 vectors of
    # the output's length at once.
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 4, size=1000)
    starts = np.zeros(1001, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    order = rng.permutation(int(starts[-1]))
    state = rng.integers(0, 1000, size=(400_000, 3))
    tracemalloc.start()
    try:
        out = _expand_factor(state, 1, order, starts, counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 3 * 8 * out.shape[0]
    # the same rows as expanding tuple by tuple
    want = [
        (a, order[starts[b] + k], e)
        for a, b, e in state[:500].tolist()
        for k in range(counts[b])
    ]
    assert out[: len(want)].tolist() == [list(r) for r in want]


def _full_square_pairs():
    """The one-replicate batch of two full-retention trees in d = 4 to level
    2: level-1 tuples grow 16-fold per factor, to 65536 at level 2."""
    law = fp.GaltonWatsonLaw.create(4, 1.0)
    spec = spec_indep([fp.sample_tree(law, "extinction", s, 2) for s in (1, 2)])
    return _spec_batch(spec, 2)


def test_traversal_budget_checked_before_expansion(monkeypatch):
    # The second factor's expansion (65536 tuples) is refused.
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", 5000)
    batch = _full_square_pairs()
    refused_bytes = 65536 * 2 * 8
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            for _ in _frontier(batch, None, 2):
                pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < refused_bytes / 2


def test_refused_level_expands_no_factor(monkeypatch):
    # The budget caps the tuples one replicate's steps build at a level, and
    # each step adds its expansion peak before any factor expands.  Every
    # factor cube has 16 children, so a level-1 tuple expands to 256 tuples
    # and a level-2 step takes BATCH_TUPLES // 256 of them: level 1's two
    # factors expand, then level 2's steps up to the one whose count would
    # pass the budget, which expands no factor.
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", 5000)
    calls = []

    def counted(state, col, *table):
        calls.append((state.shape[0], col))
        return _expand_factor(state, col, *table)

    monkeypatch.setattr(intersect, "_expand_factor", counted)
    batch = _full_square_pairs()
    children = _child_table(batch.factor[1], batch.factor[2])[2]
    assert set(children.tolist()) == {16}
    rows = intersect.BATCH_TUPLES // 256
    fitting = 5000 // (rows * 256)
    count = (fitting + 1) * rows * 256
    with pytest.raises(BudgetError, match=rf"would build {count} tuples at level 2 \(budget 5000\)"):
        for _ in _frontier(batch, None, 2):
            pass
    assert calls == [(1, 0), (16, 1)] + [(rows, 0), (rows * 16, 1)] * fitting
    # at a budget of the level's 65536 tuples the traversal runs
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", 65536)
    levels = [lev for lev, _, _ in _frontier(batch, None, 2)]
    assert levels.count(2) == 65536 // (rows * 256)


def test_pruning_holds_one_chunk_of_indices(monkeypatch):
    # 200000 pairs of level-6 squares: the level's (K, 4) int64 index array
    # alone is 6.4 MB, and the interval bounds derived from it twice that.
    monkeypatch.setattr(geometry, "CHUNK_FLOATS", 1 << 12)
    rng = np.random.default_rng(5)
    cubes = rng.integers(0, 64, size=(3000, 2))
    state = rng.integers(0, 3000, size=(200_000, 2))
    poly = fp.configuration_polynomial(
        fp.ConfigDescriptor(family="distance", d=2, params={"lam": 0.5})
    )

    def keep_fn(rows, idx):
        return _poly_keep((poly,), idx, 6)

    want = state[keep_fn(None, _product_idx(state, [cubes, cubes]))]
    tracemalloc.start()
    try:
        kept = _prune_state(state, [cubes, cubes], keep_fn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(kept, want)
    # beyond the kept rows and the keep mask, a bounded multiple of a chunk
    chunk_bytes = 8 * geometry.CHUNK_FLOATS
    assert peak <= kept.nbytes + state.shape[0] + 32 * chunk_bytes


def test_mass_series_deterministic():
    t = tree_d(2, 0.6, 12, 3)
    target = line([1, 2], [0.0, 0.11])
    a = fp.intersection_mass(spec_indep([t]), target, 3)
    b = fp.intersection_mass(spec_indep([t]), target, 3)
    assert a.values == b.values and a.counts == b.counts


# ---------------------------------------------------------------------------
# Replicate batches

def _plane_through(vectors, point):
    return fp.AffinePlane.from_spanning(vectors, point)


_BATCH_CASES = {
    # name: (mode, d, m, p, variant, target, n, diag_level)
    "independent-hyperplane": (
        "independent", 1, 3, 0.8, "surviving",
        _plane_through([[1, 1, 1], [1, 0, -1]], [0.0, 0.0, 0.0]), 5, 0,
    ),
    "independent-line": (
        "independent", 1, 3, 0.8, "extinction", line([1, 2, 3], [0.1, 0.3, 0.2]), 5, 0,
    ),
    "independent-plane-qmc": (
        "independent", 2, 2, 0.7, "extinction",
        _plane_through([[1, 1, 0, 1], [0, 1, -1, 2]], [0.5] * 4), 3, 0,
    ),
    "independent-coarea": (
        "independent", 2, 2, 0.7, "extinction", _pair_distance(0.5), 2, 0,
    ),
    "power-hyperplane": (
        "power", 1, 3, 0.9, "extinction",
        _plane_through([[1, 1, 1], [1, 0, -1]], [0.0, 0.0, 0.0]), 4, 2,
    ),
    "weighted-line": (
        "weighted", 1, 2, 0.8, "extinction", line([1, -1], [0.5, 0.5]), 4, 0,
    ),
}


def _replicate_specs(mode, d, m, p, variant, keys, n, diag_level):
    """The one-replicate specs that replicate_masses draws, grown tree by tree."""
    law = fp.GaltonWatsonLaw.create(d, p)
    specs = []
    for key in keys:
        t = 1 if mode == "power" else m
        trees = [fp.sample_tree(law, variant, int(derive(key, j + 1)), n) for j in range(t)]
        aux = None
        if mode == "weighted":
            aux_law = fp.GaltonWatsonLaw.create(m * d, p)
            aux = fp.sample_tree(aux_law, variant, int(derive(key, t + 1)), n)
        specs.append(fp.ProductMeasureSpec(
            mode=mode, trees=trees, m=m, diag_level=diag_level, aux_tree=aux
        ))
    return specs


def _bits(series, field):
    return np.array([getattr(s, field) for s in series], dtype=float).tobytes()


def _row_order_values(spec, target, n, mc_samples):
    """Y_0..Y_n of one replicate, each level's cube measures added one by one
    in traversal order."""
    totals = [0.0] * (n + 1)
    batch = _spec_batch(spec, n)
    diag = spec.diag_level if spec.mode == "power" and spec.m >= 2 else None
    for lev, state, _ in _frontier(batch, _target_keep(target), n, diag):
        idx = _product_idx(state, [batch.factor[lev][1]] * spec.m)
        if isinstance(target, fp.AffinePlane):
            vals, _ = plane_level_measure(target, idx, lev, mc_samples)
        else:
            vals, _ = variety_level_measure(target, idx, lev, mc_samples)
        for v in vals.tolist():
            totals[lev] += v
    return [
        float("nan") if spec.mode == "power" and lev < spec.diag_level
        else spec.density_factor(lev) * total
        for lev, total in enumerate(totals)
    ]


@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
def test_replicate_batch_matches_one_at_a_time(case, monkeypatch):
    # Chunks of at most 96 floats (32 pruning rows of three columns, 12
    # hyperplane cubes, one QMC cube) put chunk boundaries inside and across
    # replicates; every replicate's series must still equal its own
    # one-replicate call bit for bit (NaN below the power mode's
    # decomposition level included).
    # A cap of 40 tuples also splits every level into steps of a few
    # tuples, inside and across replicates.
    monkeypatch.setattr(geometry, "CHUNK_FLOATS", 96)
    mode, d, m, p, variant, target, n, diag_level = _BATCH_CASES[case]
    keys = root_key(np.arange(100, 109, dtype=np.uint64))
    specs = _replicate_specs(mode, d, m, p, variant, keys, n, diag_level)
    alone = [intersection_mass(s, target, n, mc_samples=64) for s in specs]
    serial = [_row_order_values(s, target, n, 64) for s in specs]
    assert np.array(serial).tobytes() == _bits(alone, "values")
    for cap in (intersect.BATCH_TUPLES, 40):
        monkeypatch.setattr(intersect, "BATCH_TUPLES", cap)
        batch = replicate_masses(specs[0], keys, target, n, mc_samples=64)
        for field in ("values", "ses", "counts"):
            assert _bits(batch, field) == _bits(alone, field), (cap, field)
        assert [s.seed for s in batch] == [s.seed for s in alone]
        assert {s.kernel for s in batch} == {alone[0].kernel}
    assert sum(sum(s.counts) for s in batch) > len(keys)


def test_variety_cubes_are_measured_once_per_run(monkeypatch):
    # A cap of 40 tuples splits the traversal into many steps, which share
    # product cubes at a level: each (level, cube) must reach the
    # kernel once per run, and every replicate's series must still equal its
    # own one-replicate call bit for bit.
    mode, d, m, p, variant, target, n, _ = _BATCH_CASES["independent-coarea"]
    keys = root_key(np.arange(100, 112, dtype=np.uint64))
    (spec,) = _replicate_specs(mode, d, m, p, variant, keys[:1], n, 0)
    alone = [replicate_masses(spec, keys[r : r + 1], target, n, mc_samples=64)[0]
             for r in range(keys.shape[0])]
    calls = []

    def recording(poly, idx, level, n_samples):
        calls.append((level, idx.copy()))
        return variety_level_measure(poly, idx, level, n_samples)

    monkeypatch.setattr(intersect, "BATCH_TUPLES", 40)
    monkeypatch.setattr(intersect, "variety_level_measure", recording)
    batch = replicate_masses(spec, keys, target, n, mc_samples=64)
    for field in ("values", "ses", "counts"):
        assert _bits(batch, field) == _bits(alone, field), field
    assert len(calls) > n + 1
    for lev in range(n + 1):
        handed = np.concatenate([idx for level, idx in calls if level == lev])
        assert np.unique(handed, axis=0).shape[0] == handed.shape[0], lev
    # steps share cubes: measured once per step, they would be more
    whole = _grown_batch(spec, keys, n)
    per_step = sum(
        np.unique(_product_idx(state, [whole.factor[lev][1]] * m), axis=0).shape[0]
        for lev, state, _ in _frontier(whole, _target_keep(target), n)
    )
    assert per_step > sum(idx.shape[0] for _, idx in calls)


def _smallest_budget(monkeypatch, spec, target, n):
    """The least traversal budget under which spec's mass is computed."""
    lo, hi = 1, 1 << 20
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(intersect, "TUPLE_BUDGET", mid)
        try:
            intersection_mass(spec, target, n)
            hi = mid
        except BudgetError:
            lo = mid + 1
    return lo


def test_batch_over_budget_is_split_not_refused(monkeypatch):
    # The budget caps each replicate's tuples, not the batch's: with one
    # step per level, a batch whose replicates fit the budget one by one
    # but hold more together is not refused.
    monkeypatch.setattr(intersect, "BATCH_TUPLES", 1 << 40)
    mode, d, m, p, variant, target, n, _ = _BATCH_CASES["independent-hyperplane"]
    keys = root_key(np.arange(200, 208, dtype=np.uint64))
    specs = _replicate_specs(mode, d, m, p, variant, keys, n, 0)
    alone = [intersection_mass(s, target, n) for s in specs]
    smallest = [_smallest_budget(monkeypatch, s, target, n) for s in specs]
    budget = max(smallest)
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", budget)
    # every replicate fits, the whole batch's last level does not ...
    whole = _grown_batch(specs[0], keys, n)
    steps = [state for lev, state, _ in _frontier(whole, _target_keep(target), n)]
    assert len(steps) == n + 1
    assert sum(smallest) > budget
    # ... and the masses are those of the replicates alone
    batch = replicate_masses(specs[0], keys, target, n)
    for field in ("values", "ses", "counts"):
        assert _bits(batch, field) == _bits(alone, field), field
    # a replicate that alone exceeds the budget is still refused
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", budget - 1)
    with pytest.raises(BudgetError):
        replicate_masses(specs[0], keys, target, n)



def _progression_batch(keys):
    """The replicates of the independent-hyperplane case drawn from keys,
    their keep predicate and level n."""
    mode, d, m, p, variant, target, n, _ = _BATCH_CASES["independent-hyperplane"]
    law = intersect.ProductLaw(fp.GaltonWatsonLaw.create(d, p), variant, mode, m)
    return law, target, _grown_batch(law, keys, n), n


def _last_level_rows(batch, keep, n, decided, mark=False):
    """Each replicate's level-n rows of the traversal with `decided`, in
    order, and the replicates of each level-n step; with mark, every
    replicate of a step is marked decided after it."""
    rows, yields = {}, []
    for lev, state, rep in _frontier(batch, keep, n, None, decided):
        if lev == n:
            yields.append(set(rep.tolist()))
            for r in yields[-1]:
                rows.setdefault(r, []).extend(state[rep == r].tolist())
            if mark:
                decided[rep] = True
    return rows, yields


def test_last_level_rounds_match_the_one_expansion(monkeypatch):
    # With `decided` each replicate's level-(n-1) tuples go in blocks of 1,
    # 2, 4, ...  Never set, each replicate's level-n rows are those of the
    # traversal without it, in order, over several steps; a replicate
    # marked decided after its first step is in no later step, and its
    # rows are a prefix of the others.
    monkeypatch.setattr(intersect, "BATCH_TUPLES", 40)
    keys = root_key(np.arange(300, 312, dtype=np.uint64))
    _, target, batch, n = _progression_batch(keys)
    keep = _target_keep(target)
    whole, once = _last_level_rows(batch, keep, n, None)
    # without it, the level-n steps come in replicate order
    assert len(whole) > 1 and len(once) > len(whole)
    assert all(max(a) <= min(b) for a, b in zip(once, once[1:]))
    rounds, yields = _last_level_rows(batch, keep, n, np.zeros(len(keys), dtype=bool))
    assert rounds == whole
    assert max(sum(r in y for y in yields) for r in whole) > 2
    decided = np.zeros(len(keys), dtype=bool)
    first, yields = _last_level_rows(batch, keep, n, decided, mark=True)
    for k, y in enumerate(yields):
        assert not y & set().union(*yields[:k])
    assert decided[list(whole)].all() and set(first) == set(whole)
    assert all(got == whole[r][: len(got)] for r, got in first.items())
    assert sum(map(len, first.values())) < sum(map(len, whole.values()))


@pytest.mark.parametrize("caller", ["masses", "enumerate-all"])
def test_last_level_budget_refuses_before_any_of_the_group(caller, monkeypatch):
    # One step builds the whole last level of two replicates, one of which
    # alone would build more than TUPLE_BUDGET tuples there: the step is
    # refused, naming that replicate's count (the largest sum of the
    # partial products of its rows' child counts), before any of it is
    # built; at that count as the budget the run completes.
    from fracperc.patterns import _detect_forest, _forest_ancestors

    monkeypatch.setattr(intersect, "BATCH_TUPLES", 1 << 40)
    if caller == "masses":
        keys = root_key(np.arange(300, 302, dtype=np.uint64))
        law, target, batch, n = _progression_batch(keys)
        keep, distinct = _target_keep(target), None

        def run():
            replicate_masses(law, keys, target, n)
    else:
        desc, n = fp.ConfigDescriptor("homothetic", 2, {"sites": [[0, 0], [1, 0], [0, 1]]}), 3
        grid = np.array([(i, j) for i in range(8) for j in range(8)])
        cubes = np.concatenate([[(0, 0), (2, 0), (0, 2), (7, 7)], grid])
        tree = np.repeat([0, 1], [4, grid.shape[0]])
        batch = intersect._Batch(3, 1, 2, _forest_ancestors(tree, cubes, n)[1])
        tol = math.sqrt(2) * 2.0 ** -n
        keep, distinct = fp.patterns._detection_keep(desc, desc._detection_target, tol), n

        def run():
            _detect_forest(tree, cubes, 2, desc, n, enumerate_all=True)
    (state, rep), = [(s, r) for lev, s, r in _frontier(batch, keep, n - 1, distinct) if lev == n - 1]
    assert np.unique(rep).shape[0] == 2
    children = _child_table(batch.factor[n - 1], batch.factor[n])[2]
    sizes = np.cumprod(children[state], axis=1)
    peak = max(sizes[rep == r].sum(axis=0).max() for r in (0, 1))
    last_rows = batch.factor[n][0].shape[0]
    built = []

    def recording(state, col, order, *table):
        if order.shape[0] == last_rows:
            built.append(col)
        return _expand_factor(state, col, order, *table)

    monkeypatch.setattr(intersect, "_expand_factor", recording)
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", peak - 1)
    with pytest.raises(BudgetError, match=rf"would build {peak} tuples at level {n} \(budget {peak - 1}\)"):
        run()
    assert built == []
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", peak)
    run()
    assert built


def test_forest_over_budget_is_grown_in_halves(monkeypatch):
    law = fp.GaltonWatsonLaw.create(2, 0.9)
    seeds = np.arange(10, 16, dtype=np.uint64)
    whole = fp.sample_forest(law, "surviving", seeds, 4)
    largest = max(np.bincount(tree).max() for tree, _ in whole)
    # a forest over MAX_CUBES whose every tree fits grows in groups
    monkeypatch.setattr(fp.percolation, "MAX_CUBES", largest)
    halves = fp.sample_forest(law, "surviving", seeds, 4)
    for (ta, ia), (tb, ib) in zip(whole, halves):
        assert np.array_equal(ta, tb) and np.array_equal(ia, ib)
    monkeypatch.setattr(fp.percolation, "MAX_CUBES", largest - 1)
    with pytest.raises(BudgetError):
        fp.sample_forest(law, "surviving", seeds, 4)


def test_second_moment_is_one_batch():
    # The estimate is that of the replicates' one-replicate masses.
    mode, d, m, p, variant, target, n, _ = _BATCH_CASES["independent-hyperplane"]
    root = root_key(9)
    keys = [derive(root, 2 * r + 1) for r in range(12)]
    specs = _replicate_specs(mode, d, m, p, variant, keys, n, 0)
    rep = fp.second_moment_estimate(specs[0], target, n, 12, base_seed=9)
    ys = np.array([intersection_mass(s, target, n).values[n] for s in specs])
    assert rep.mean == float(ys.mean())
    assert rep.mean_sq == float((ys ** 2).mean())
    assert rep.positive_frequency == float((ys > 0).mean())


# ---------------------------------------------------------------------------
# Slab pruning

def test_slab_pruning_drops_exactly_the_hyperplane_contacts():
    # x - 2y + z = 0 meets the level cube (i, j, k) in a positive area when
    # |i - 2j + k| <= 1 and only in an edge or corner when it is 2.  The test
    # keeps the first and drops the rest, on every cube of levels 1-5, and
    # keeps every cube the kernel measures as positive.
    plane = _plane_through([[1, 1, 1], [1, 0, -1]], [0.0, 0.0, 0.0])
    for level in range(1, 6):
        idx = _all_cubes(level, 3)
        keep = plane_level_keep(plane, idx, level)
        vals, _ = plane_level_measure(plane, idx, level)
        s = np.abs(idx[:, 0] - 2 * idx[:, 1] + idx[:, 2])
        assert np.array_equal(keep, s <= 1), level
        assert np.all(keep[vals > 0])


@pytest.mark.parametrize("kernel", ["line", "hyperplane", "full", "plane-qmc"])
def test_slab_pruning_keeps_every_measured_cube(kernel):
    target, m, level = _KERNEL_CASES[kernel]
    for lev in range(level + 1):
        idx = _all_cubes(lev, m)
        keep = plane_level_keep(target, idx, lev)
        vals, _ = plane_level_measure(target, idx, lev, 256)
        assert np.all(keep[vals > 0]), (kernel, lev)


def test_slab_pruning_keeps_masses_bit_for_bit():
    # Dropped cubes add exactly 0.0: pruned and unpruned masses are equal bit
    # for bit, while fewer product cubes are visited.
    plane = _plane_through([[1, 1, 1], [1, 0, -1]], [0.0, 0.0, 0.0])
    law = fp.GaltonWatsonLaw.create(1, 0.8)
    fewer = 0
    for seed in range(6):
        trees = [fp.sample_tree(law, "extinction", 10 * seed + j, 5) for j in range(3)]
        spec = spec_indep(trees)
        a = intersection_mass(spec, plane, 5)
        b = intersection_mass(spec, plane, 5, pruned=False)
        assert np.array(a.values).tobytes() == np.array(b.values).tobytes()
        fewer += sum(b.counts) - sum(a.counts)
    assert fewer > 0
