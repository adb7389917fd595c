"""Intersection masses of product percolation measures with planes/varieties,
dependency graphs, second-moment estimates and empirical Hölder moduli.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ConfigError, DegenerateInputError
from .geometry import AffinePlane, _row_chunks, plane_level_measure
from .polynomials import PolynomialMap, variety_level_measure
from .percolation import resample_level, sample_tree
from .rng import derive, root_key

DEFAULT_CUBE_BUDGET = 5_000_000
DEFAULT_MC_PER_CUBE = 1 << 12

MODES = ("independent", "power", "weighted")


@dataclass(frozen=True)
class ProductMeasureSpec:
    """Product of m natural percolation measures on [0,1)^(m d).

    modes:
      independent — m independent trees (one per factor);
      power       — one tree used for every factor, restricted at level
                    diag_level to product cubes with pairwise-distinct
                    factors (a diagonal-free decomposition);
      weighted    — independent factors times one extra independent tree
                    living directly on [0,1)^(m d) (density p^-mn * pt^-n).
    """

    mode: str
    trees: tuple           # factor trees: m entries (1 entry reused if power)
    m: int
    diag_level: int = 0    # power mode: level of the diagonal-free decomposition
    aux_tree: object = None  # weighted mode: tree on the product space

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        trees = tuple(self.trees)
        object.__setattr__(self, "trees", trees)
        if self.mode == "power":
            if len(trees) != 1:
                raise ConfigError("power mode takes exactly one tree")
            if self.m >= 2 and self.diag_level < 1:
                raise ConfigError(
                    "power mode requires a diagonal-free decomposition level >= 1"
                )
        else:
            if len(trees) != self.m:
                raise ConfigError("need one tree per factor")
        d0, p0 = trees[0].law.d, trees[0].law.p
        for t in trees:
            if t.law.d != d0 or t.law.p != p0:
                raise ConfigError("all factors must share d and p")
        if self.mode == "weighted":
            if self.aux_tree is None:
                raise ConfigError("weighted mode needs an auxiliary tree")
            if self.aux_tree.law.d != self.m * d0:
                raise ConfigError("auxiliary tree must live on the product space")
        elif self.aux_tree is not None:
            raise ConfigError("auxiliary tree only valid in weighted mode")

    @property
    def d(self):
        return self.trees[0].law.d

    @property
    def p(self):
        return self.trees[0].law.p

    @property
    def ambient(self):
        return self.m * self.d

    @property
    def depth(self):
        dep = min(t.depth for t in self.trees)
        if self.aux_tree is not None:
            dep = min(dep, self.aux_tree.depth)
        return dep

    def factor_levels(self):
        """Per-factor list of level index arrays (shared object in power mode)."""
        if self.mode == "power":
            return [self.trees[0].levels] * self.m
        return [t.levels for t in self.trees]

    def density_factor(self, j):
        """Normalization p^-mj (times pt^-j in weighted mode)."""
        f = float(self.p) ** (-self.m * j)
        if self.mode == "weighted":
            f *= float(self.aux_tree.law.p) ** (-j)
        return f


@dataclass
class MassSeries:
    param_id: str
    seed: int
    levels: list
    values: list          # Y_j
    counts: list          # product cubes retained at level j
    ses: list             # quadrature s.e. of Y_j (0 for exact kernels)
    kernel: str
    mode: str
    diag_level: int = 0

    def value(self, j):
        return self.values[j]


# ---------------------------------------------------------------------------
# Pruned product-cube traversal

def _lex_rows(sorted_idx, queries):
    """Row positions of query index tuples inside a lexsorted int64 array."""
    d = sorted_idx.shape[1]
    void = np.dtype((np.void, 8 * d))
    a = np.ascontiguousarray(sorted_idx.astype(">i8")).view(void).ravel()
    q = np.ascontiguousarray(queries.astype(">i8")).view(void).ravel()
    return np.searchsorted(a, q)


def _lex_member(sorted_idx, queries):
    """Boolean: is each query tuple present in the lexsorted array."""
    if sorted_idx.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=bool)
    pos = np.clip(_lex_rows(sorted_idx, queries), 0, sorted_idx.shape[0] - 1)
    return np.all(sorted_idx[pos] == queries, axis=1)


def _child_table(parent_idx, child_idx):
    """CSR map: parent row -> rows of its children in the child level array."""
    prow = _lex_rows(parent_idx, child_idx >> 1)
    order = np.argsort(prow, kind="stable").astype(np.int64)
    counts = np.bincount(prow, minlength=parent_idx.shape[0]).astype(np.int64)
    starts = np.zeros(parent_idx.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return order, starts, counts


def _expand_factor(state, col, order, starts, counts, budget):
    """Replace column `col` (factor rows) by every child row, expanding state.

    Raises BudgetError when the expansion would hold more than `budget` rows,
    before anything of that size is allocated."""
    c = counts[state[:, col]]
    total = int(c.sum())
    if total > budget:
        raise BudgetError(f"traversal would hold {total} tuples (budget {budget})")
    # where each tuple's children start in `order`, less its first output
    # row: output row i then takes child row off[tuple] + i
    off = starts[state[:, col]] - (np.cumsum(c) - c)
    out = np.repeat(state, c, axis=0)
    child = np.repeat(off, c)
    del c, off
    child += np.arange(total)
    out[:, col] = order[child]
    return out


def _product_idx(state, level_arrays):
    """Product-cube indices (K, m*d) of the tuples in `state`: rows into the
    per-factor level arrays."""
    return np.concatenate(
        [arr[state[:, j]] for j, arr in enumerate(level_arrays)], axis=1
    )


def _prune_state(state, level_arrays, keep_fn):
    """The rows of `state` whose product cubes keep_fn (idx (C, m*d) -> bool
    (C,)) keeps, in order.  Indices are built and tested a chunk of rows at a
    time, at most CHUNK_FLOATS entries each, so that neither the level's index
    array nor the floats a test derives from it are held whole."""
    md = sum(arr.shape[1] for arr in level_arrays)
    keep = np.empty(state.shape[0], dtype=bool)
    for rows in _row_chunks(state.shape[0], md):
        keep[rows] = keep_fn(_product_idx(state[rows], level_arrays))
    return state[keep]


def _plane_keep(plane, idx_md, level, slack=0.0):
    side = 2.0 ** -level
    centers = (idx_md.astype(float) + 0.5) * side
    halfdiag = 0.5 * math.sqrt(idx_md.shape[1]) * side
    return plane.point_distance(centers) <= halfdiag + slack + 1e-12 * side


def _poly_keep(poly, idx_md, level, slack=0.0):
    side = 2.0 ** -level
    lo = idx_md.astype(float) * side - slack
    hi = lo + side + 2.0 * slack
    return poly.may_vanish(lo, hi)


def target_keep(target, idx_md, level, slack=0.0):
    """Safe pruning test: True whenever the target can meet the cube closure."""
    if isinstance(target, AffinePlane):
        return _plane_keep(target, idx_md, level, slack)
    return _poly_keep(target, idx_md, level, slack)


def product_support_traversal(
    spec,
    target,
    n,
    budget=DEFAULT_CUBE_BUDGET,
    pruned=True,
    factor_levels=None,
    aux_levels=None,
):
    """Yield (level, idx array (K, m*d)) of surviving product cubes meeting
    the target, for levels 0..n.  Power mode restricts to pairwise-distinct
    factor tuples from spec.diag_level on.
    """
    m, d = spec.m, spec.d
    if factor_levels is None:
        factor_levels = spec.factor_levels()
    if aux_levels is None and spec.aux_tree is not None:
        aux_levels = spec.aux_tree.levels
    if any(len(fl) <= n for fl in factor_levels):
        raise ConfigError("trees not materialized to the requested level")

    def keep_fn(idx_md, lev):
        keep = np.ones(idx_md.shape[0], dtype=bool)
        if spec.mode == "power" and lev >= spec.diag_level and m >= 2:
            fi = idx_md.reshape(-1, m, d)
            for a in range(m):
                for b in range(a + 1, m):
                    keep &= np.any(fi[:, a] != fi[:, b], axis=1)
        if spec.mode == "weighted":
            keep &= _lex_member(aux_levels[lev], idx_md)
        if pruned:
            keep &= target_keep(target, idx_md, lev)
        return keep

    state = np.zeros((1, m), dtype=np.int64)  # rows into factor level arrays
    for lev in range(n + 1):
        arrays = [factor_levels[j][lev] for j in range(m)]
        state = _prune_state(state, arrays, lambda idx: keep_fn(idx, lev))
        idx_md = _product_idx(state, arrays)
        yield lev, idx_md
        if lev == n:
            return
        if state.shape[0] == 0:
            for l2 in range(lev + 1, n + 1):
                yield l2, np.zeros((0, m * d), dtype=np.int64)
            return
        tables = []
        seen = {}
        for j in range(m):
            key = id(factor_levels[j])
            if key not in seen:
                seen[key] = _child_table(
                    factor_levels[j][lev], factor_levels[j][lev + 1]
                )
            tables.append(seen[key])
        for j in range(m):
            state = _expand_factor(state, j, *tables[j], budget)


# ---------------------------------------------------------------------------
# Level masses

def _level_mass(target, level, idx_md, mc_samples):
    """(sum of target measures, quadrature s.e.) over the level cubes idx_md.

    One kernel call per level; the sum runs in row order, so the total is
    the same as adding the cubes one by one."""
    if isinstance(target, AffinePlane):
        vals, ses = plane_level_measure(target, idx_md, level, mc_samples)
    else:
        vals, ses = variety_level_measure(target, idx_md, level, mc_samples)
    if vals.size == 0:
        return 0.0, 0.0
    total = np.add.accumulate(vals)[-1]
    var = np.add.accumulate(ses * ses)[-1]
    return float(total), math.sqrt(var)


def _kernel_name(spec, target):
    if isinstance(target, AffinePlane):
        k, mm = target.dim, spec.ambient
        return "exact" if k in (1, mm - 1, mm) else "qmc"
    return "coarea-qmc"


def intersection_mass(
    spec,
    target,
    n,
    mc_samples=DEFAULT_MC_PER_CUBE,
    budget=DEFAULT_CUBE_BUDGET,
    pruned=True,
    param_id="target",
    factor_levels=None,
    aux_levels=None,
):
    """MassSeries Y_0..Y_n: Y_j = density(j) * sum of target measures over the
    surviving level-j product cubes meeting the target.

    In power mode, values below spec.diag_level include the diagonal and are
    reported as NaN; mass is well-defined from the decomposition level on.
    """
    if isinstance(target, AffinePlane):
        if target.ambient != spec.ambient:
            raise ConfigError("target ambient must equal m*d")
        if target.dim < 1:
            raise DegenerateInputError("target dimension must be >= 1")
    else:
        if target.ambient != spec.ambient:
            raise ConfigError("target ambient must equal m*d")
        if target.ambient - target.codomain < 1:
            raise DegenerateInputError("variety dimension must be >= 1")
    values, counts, ses = [], [], []
    for lev, idx_md in product_support_traversal(
        spec, target, n, budget=budget, pruned=pruned,
        factor_levels=factor_levels, aux_levels=aux_levels,
    ):
        counts.append(int(idx_md.shape[0]))
        if spec.mode == "power" and lev < spec.diag_level and spec.m >= 2:
            values.append(float("nan"))
            ses.append(float("nan"))
            continue
        tot, se = _level_mass(target, lev, idx_md, mc_samples)
        f = spec.density_factor(lev)
        values.append(f * tot)
        ses.append(f * se)
    return MassSeries(
        param_id=param_id,
        seed=spec.trees[0].seed,
        levels=list(range(n + 1)),
        values=values,
        counts=counts,
        ses=ses,
        kernel=_kernel_name(spec, target),
        mode=spec.mode,
        diag_level=spec.diag_level,
    )


# ---------------------------------------------------------------------------
# Martingale resampling

def martingale_resample_check(
    spec, target, n, replicates, mc_samples=DEFAULT_MC_PER_CUBE
):
    """Freeze levels <= n, re-expand level n+1 `replicates` times.

    Returns (Y_n, mean of resampled Y_{n+1}, s.e. of that mean).  For a
    martingale measure the mean matches Y_n within a few s.e.
    """
    if replicates < 100:
        raise ConfigError("need at least 100 resamples for a meaningful s.e.")
    base = intersection_mass(spec, target, n, mc_samples=mc_samples)
    y_n = base.values[n]
    samples = np.empty(replicates)
    for r in range(replicates):
        flv = []
        done = {}
        for t in spec.trees:
            if id(t) not in done:
                done[id(t)] = list(t.levels[: n + 1]) + [resample_level(t, n, r)]
            flv.append(done[id(t)])
        if spec.mode == "power":
            flv = [flv[0]] * spec.m
        aux = None
        if spec.aux_tree is not None:
            aux = list(spec.aux_tree.levels[: n + 1]) + [
                resample_level(spec.aux_tree, n, r)
            ]
        series = intersection_mass(
            spec, target, n + 1, mc_samples=mc_samples,
            factor_levels=flv, aux_levels=aux,
        )
        samples[r] = series.values[n + 1]
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(replicates))
    return y_n, mean, se


# ---------------------------------------------------------------------------
# Dependency graph

@dataclass
class DependencyReport:
    n: int
    num_vertices: int
    max_degree: int
    degree_histogram: dict
    bucket_sizes: dict  # factor-cube index tuple -> number of incidences


def dependency_graph(spec, target, n, budget=DEFAULT_CUBE_BUDGET):
    """Vertices: surviving level-n product cubes meeting the target.  Edge
    between two cubes when any of their coordinate projections coincide
    (same factor cube in any pair of slots) — the pairs whose masses are not
    conditionally independent.
    """
    m, d = spec.m, spec.d
    last = None
    for lev, idx_md in product_support_traversal(spec, target, n, budget=budget):
        last = idx_md
    verts = last
    k = verts.shape[0]
    buckets = {}
    for v in range(k):
        fi = verts[v].reshape(m, d)
        for j in range(m):
            buckets.setdefault(tuple(fi[j].tolist()), []).append(v)
    degrees = np.zeros(k, dtype=np.int64)
    for v in range(k):
        fi = verts[v].reshape(m, d)
        nbrs = set()
        for j in range(m):
            nbrs.update(buckets[tuple(fi[j].tolist())])
        nbrs.discard(v)
        degrees[v] = len(nbrs)
    hist = {}
    for deg in degrees.tolist():
        hist[deg] = hist.get(deg, 0) + 1
    return DependencyReport(
        n=n,
        num_vertices=k,
        max_degree=int(degrees.max()) if k else 0,
        degree_histogram=hist,
        bucket_sizes={key: len(v) for key, v in buckets.items()},
    )


# ---------------------------------------------------------------------------
# Second moment / Paley-Zygmund

@dataclass
class SecondMomentReport:
    n: int
    replicates: int
    mean: float
    mean_sq: float
    ratio: float            # E[Y^2] / E[Y]^2
    pz_lower_bound: float   # E[Y]^2 / E[Y^2] <= P(Y > 0)
    positive_frequency: float


def _replicate_spec(spec, base_seed, r, n):
    """Fresh trees drawn like spec's, with replicate-specific seeds."""
    seeds = derive(root_key(int(base_seed)), 2 * r + 1)
    trees = []
    for j, t in enumerate(spec.trees):
        s = int(derive(np.uint64(seeds), j + 1))
        trees.append(sample_tree(t.law, t.variant, s, n))
    aux = None
    if spec.aux_tree is not None:
        s = int(derive(np.uint64(seeds), len(spec.trees) + 1))
        aux = sample_tree(spec.aux_tree.law, spec.aux_tree.variant, s, n)
    return ProductMeasureSpec(
        mode=spec.mode, trees=tuple(trees), m=spec.m,
        diag_level=spec.diag_level, aux_tree=aux,
    )


def second_moment_estimate(
    spec, target, n, replicates, base_seed=0, mc_samples=DEFAULT_MC_PER_CUBE,
):
    """Monte Carlo E[Y_n], E[Y_n^2] over independent replicates, with the
    Paley-Zygmund survival lower bound P(Y_n > 0) >= E[Y_n]^2 / E[Y_n^2]."""
    ys = np.empty(replicates)
    for r in range(replicates):
        rs = _replicate_spec(spec, base_seed, r, n)
        series = intersection_mass(rs, target, n, mc_samples=mc_samples)
        ys[r] = series.values[n]
    mean = float(ys.mean())
    mean_sq = float((ys ** 2).mean())
    ratio = mean_sq / mean ** 2 if mean > 0 else float("inf")
    pz = mean ** 2 / mean_sq if mean_sq > 0 else 0.0
    return SecondMomentReport(
        n=n,
        replicates=replicates,
        mean=mean,
        mean_sq=mean_sq,
        ratio=ratio,
        pz_lower_bound=pz,
        positive_frequency=float((ys > 0).mean()),
    )


# ---------------------------------------------------------------------------
# Hölder modulus

def holder_modulus(
    spec, targets, metric, n, gamma_list, mc_samples=DEFAULT_MC_PER_CUBE,
):
    """Empirical Hölder table for the map t -> Y_n^t on one realization.

    targets: dict id -> target; metric: callable (target, target) -> distance.
    Returns {"sup_ratio": {gamma: sup |Y^t - Y^u| / d(t,u)^gamma},
             "growth":    {gamma: [sup_t 2^(-gamma j) Y_j^t for each level j]},
             "series":    {id: MassSeries}}.
    Raw tables only — no fitted exponent is declared.
    """
    ids = list(targets)
    if len(ids) < 2:
        raise ConfigError("need at least two targets for a modulus")
    series = {
        tid: intersection_mass(
            spec, targets[tid], n, mc_samples=mc_samples, param_id=tid
        )
        for tid in ids
    }
    sup_ratio = {}
    for gamma in gamma_list:
        best = 0.0
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                dist = metric(targets[ids[i]], targets[ids[j]])
                if dist <= 0.0:
                    raise ConfigError("grid targets must be pairwise distinct")
                diff = abs(series[ids[i]].values[n] - series[ids[j]].values[n])
                best = max(best, diff / dist ** gamma)
        sup_ratio[gamma] = best
    growth = {
        gamma: [
            max(2.0 ** (-gamma * j) * series[tid].values[j] for tid in ids)
            for j in range(n + 1)
        ]
        for gamma in gamma_list
    }
    return {"sup_ratio": sup_ratio, "growth": growth, "series": series}
