"""Intersection masses of product percolation measures with planes/varieties,
second-moment estimates and empirical Hölder moduli.
"""

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import BudgetError, ConfigError, DegenerateInputError
from .geometry import AffinePlane, _row_chunks, plane_level_keep, plane_level_measure
from .polynomials import variety_level_measure
from .percolation import (
    MAX_CUBES, GaltonWatsonLaw, _row_keys, resample_level, sample_forest,
)
from .rng import derive, root_key

# Most tuples the traversal's steps may build for one replicate at a level
# (each step's expansion peak is counted before any of it is built).
TUPLE_BUDGET = 5_000_000
DEFAULT_MC_PER_CUBE = 1 << 12

MODES = ("independent", "power", "weighted")


@dataclass(frozen=True)
class ProductLaw:
    """Law of the product of m natural percolation measures on [0,1)^(m d):
    the factor law and variant, and the mode in which the factors are drawn:
      independent — m independent trees (one per factor);
      power       — one tree used for every factor, restricted at level
                    diag_level to product cubes with pairwise-distinct
                    factors (a diagonal-free decomposition);
      weighted    — independent factors times one extra independent tree on
                    [0,1)^(m d), of law aux_law (density p^-mn * pt^-n)."""

    law: GaltonWatsonLaw   # of each factor
    variant: str
    mode: str
    m: int
    diag_level: int = 0    # power mode: level of the diagonal-free decomposition

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == "power" and self.m >= 2:
            if self.diag_level < 1:
                raise ConfigError(
                    "power mode requires a diagonal-free decomposition level >= 1"
                )
            cubes = 2 ** (self.d * self.diag_level)
            if cubes < self.m:
                raise ConfigError(
                    f"power mode at diag_level {self.diag_level} has {cubes} cubes "
                    f"for {self.m} factors: no tuple of distinct cubes exists"
                )

    @property
    def d(self):
        return self.law.d

    @property
    def p(self):
        return self.law.p

    @property
    def ambient(self):
        return self.m * self.d

    @cached_property
    def aux_law(self):
        """Weighted mode: the law of the tree on the product space, (m d, p)."""
        if self.mode != "weighted":
            return None
        return GaltonWatsonLaw.create(self.ambient, self.p)

    def density_factor(self, j):
        """Normalization p^-mj (times pt^-j in weighted mode)."""
        f = float(self.p) ** (-self.m * j)
        if self.mode == "weighted":
            f *= float(self.aux_law.p) ** (-j)
        return f


class ProductMeasureSpec(ProductLaw):
    """A ProductLaw plus its trees: one realization of the product.  The
    factor law, variant and auxiliary law are those of its trees; trees of
    mixed variants can be measured but not replicated.  Specs compare by
    identity, as their trees do."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, mode, trees, m, diag_level, aux_tree=None):
        trees = tuple(trees)
        # set past the frozen __setattr__; aux_law shadows ProductLaw's
        self.__dict__.update(
            law=trees[0].law, mode=mode, m=m, diag_level=diag_level, trees=trees,
            aux_tree=aux_tree, aux_law=None if aux_tree is None else aux_tree.law,
        )
        self.__post_init__()
        if mode == "power":
            if len(trees) != 1:
                raise ConfigError("power mode takes exactly one tree")
        elif len(trees) != m:
            raise ConfigError("need one tree per factor")
        if any(t.law.d != self.law.d or t.law.p != self.law.p for t in trees):
            raise ConfigError("all factors must share d and p")
        if mode == "weighted":
            if aux_tree is None:
                raise ConfigError("weighted mode needs an auxiliary tree")
            if aux_tree.law.d != self.ambient:
                raise ConfigError("auxiliary tree must live on the product space")
        elif aux_tree is not None:
            raise ConfigError("auxiliary tree only valid in weighted mode")

    @property
    def variant(self):
        trees = self.trees + (self.aux_tree,)
        variant, *mixed = {t.variant for t in trees if t is not None}
        if mixed:
            raise ConfigError("replicated factors must share one variant")
        return variant


@dataclass
class MassSeries:
    param_id: str
    seed: int
    levels: list
    values: list          # Y_j
    counts: list          # product cubes retained at level j
    ses: list             # quadrature s.e. of Y_j (0 for exact kernels)
    kernel: str


# ---------------------------------------------------------------------------
# Product-cube rows: lookup, expansion and pruning

def _lex_member(sorted_rows, queries):
    """Boolean: is each query row present among the lexsorted rows."""
    if sorted_rows.shape[0] == 0:
        return np.zeros(queries.shape[0], dtype=bool)
    keys, query = _row_keys(sorted_rows, queries)
    pos = np.minimum(np.searchsorted(keys, query), keys.shape[0] - 1)
    return keys[pos] == query


def _child_table(parent, child):
    """CSR map: parent row -> rows of its children in the child level, of
    forest levels (tree, idx) sorted by (tree, idx)."""
    tree, idx = child
    keys, query = _row_keys(np.column_stack(parent), np.column_stack([tree, idx >> 1]))
    prow = np.searchsorted(keys, query)
    order = np.argsort(prow, kind="stable").astype(np.int64)
    counts = np.bincount(prow, minlength=keys.shape[0]).astype(np.int64)
    starts = np.zeros(keys.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return order, starts, counts


def _expand_factor(state, col, order, starts, counts):
    """Replace column `col` (factor rows) by every child row, expanding state."""
    c = counts[state[:, col]]
    total = int(c.sum())
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
    """The rows of `state` that keep_fn(rows, idx) keeps, in order: rows is a
    slice of state, idx (C, m*d) the product-cube indices of those rows, and
    keep_fn returns bool (C,).  Indices are built and tested a chunk of rows
    at a time, at most CHUNK_FLOATS entries each, so that neither the level's
    index array nor the floats a test derives from it are held whole."""
    md = sum(arr.shape[1] for arr in level_arrays)
    keep = np.empty(state.shape[0], dtype=bool)
    for rows in _row_chunks(state.shape[0], md):
        keep[rows] = keep_fn(rows, _product_idx(state[rows], level_arrays))
    return state[keep]


def _poly_keep(polys, idx_md, level, tolerance=0.0):
    """Safe pruning test: False only for level cubes idx_md (K, M) whose box,
    widened by `tolerance`, none of `polys` may vanish in (interval bounds)."""
    side = 2.0 ** -level
    lo = idx_md.astype(float) * side
    hi = lo + side + tolerance
    lo = lo - tolerance
    return np.logical_or.reduce([poly.may_vanish(lo, hi) for poly in polys])


def _target_keep(target):
    """The traversal's keep predicate (idx, level) -> bool for a mass target:
    True whenever the target can carry measure in a cube."""
    if isinstance(target, AffinePlane):
        return lambda idx, lev: plane_level_keep(target, idx, lev)
    return lambda idx, lev: _poly_keep((target,), idx, lev)


def _pairwise_distinct(state):
    """Mask of the rows of `state` whose entries are pairwise distinct."""
    ok = np.ones(state.shape[0], dtype=bool)
    for a in range(state.shape[1]):
        for b in range(a + 1, state.shape[1]):
            ok &= state[:, a] != state[:, b]
    return ok


# ---------------------------------------------------------------------------
# Replicate batches

@dataclass(frozen=True)
class _Batch:
    """R replicates of a product of m factors, their trees held as forests.

    factor[lev] = (tree, idx) is level lev of every factor tree, sorted by
    (tree, idx).  Replicate r's factor j is tree r*t + j when t = m; with
    t = 1 one tree serves every factor.  aux[lev], when given, holds
    replicate r's product-space tree as tree r.  A lone set of trees is a
    batch of one replicate, whose forests are its trees."""

    m: int
    t: int
    reps: int
    factor: list
    aux: list = None


def _stack(arrays):
    """Forest level holding the given tree level arrays as trees 0, 1, ..."""
    if len(arrays) == 1:
        return np.zeros(arrays[0].shape[0], dtype=np.int64), arrays[0]
    sizes = [a.shape[0] for a in arrays]
    return np.repeat(np.arange(len(arrays), dtype=np.int64), sizes), np.concatenate(arrays)


def _levels_batch(spec, replicates):
    """The batch of replicates[r]: the level lists of replicate r's trees, in
    spec.trees order, then of its product-space tree."""
    t = len(spec.trees)
    levels = range(len(replicates[0][0]))
    factor = [
        _stack([lv[lev] for rep in replicates for lv in rep[:t]]) for lev in levels
    ]
    aux = None
    if spec.aux_tree is not None:
        aux = [_stack([rep[t][lev] for rep in replicates]) for lev in levels]
    return _Batch(spec.m, t, len(replicates), factor, aux)


def _spec_batch(spec, n):
    """The one-replicate batch of spec's trees, levels 0..n."""
    trees = spec.trees + ((spec.aux_tree,) if spec.aux_tree is not None else ())
    if min(t.depth for t in trees) < n:
        raise ConfigError("trees not materialized to the requested level")
    return _levels_batch(spec, [[t.levels[: n + 1] for t in trees]])


def _grown_batch(law, keys, n):
    """The batch of replicates of a ProductLaw drawn from keys: replicate r's
    factor tree j has seed derive(keys[r], j + 1), for its T factor trees (one
    in power mode, else m), and its product-space tree derive(keys[r], T + 1).
    One forest holds every factor tree."""
    t = 1 if law.mode == "power" else law.m
    seeds = np.stack([derive(keys, j + 1) for j in range(t)], axis=1)
    factor = sample_forest(law.law, law.variant, seeds.ravel(), n)
    aux = None
    if law.aux_law is not None:
        aux = sample_forest(law.aux_law, law.variant, derive(keys, t + 1), n)
    return _Batch(law.m, t, keys.shape[0], factor, aux)


# ---------------------------------------------------------------------------
# Pruned product-cube traversal

# Most tuples one step of the traversal may hold while it expands (at least
# one row is taken): each queue is filled by one step, so a traversal to
# level n holds about n times as many, whatever the number of replicates.
BATCH_TUPLES = 1 << 12


class _Queue:
    """Tuples of one level waiting to be expanded, from row `at` on: state
    (K, m), their replicates rep (K,), and held (H, K+1), the running sums
    over rows of sizes (H, K), the tuples a row holds as its factors expand
    one by one (only the last when it is the largest).  Rows come in
    replicate order within each round (K,), nondecreasing, when given; a
    step takes rows of one round."""

    def __init__(self, state, rep, sizes, rounds=None):
        self.state, self.rep, self.rounds, self.at = state, rep, rounds, 0
        self.span = slice(rep.min(initial=0), rep.max(initial=-1) + 1)  # rows' replicates
        self.held = np.zeros((sizes.shape[0], rep.shape[0] + 1), dtype=np.int64)
        np.cumsum(sizes, axis=1, out=self.held[:, 1:])

    def keep(self, live):
        """The queue of the rows left whose replicate `live` marks."""
        rows = self.at + np.flatnonzero(live[self.rep[self.at :]])
        sizes = self.held[:, rows + 1] - self.held[:, rows]
        rounds = None if self.rounds is None else self.rounds[rows]
        return _Queue(self.state[rows], self.rep[rows], sizes, rounds)

    def take(self, limit):
        """(state, reps, peaks) of the next step: the most rows from `at`, in
        one round, whose expansion holds at most `limit` tuples (at least
        one), their replicates and the most tuples each one's rows hold."""
        a, end, held = self.at, self.rep.shape[0], self.held
        if self.rounds is not None:
            end = int(self.rounds.searchsorted(self.rounds[a], side="right"))
        k = end - a
        for h in held:
            k = min(k, int(h[a + 1 : end + 1].searchsorted(h[a] + limit, side="right")))
        b = self.at = a + max(k, 1)
        rep = self.rep[a:b]
        if rep[0] == rep[-1]:
            return self.state[a:b], rep[:1], (held[:, b] - held[:, a]).max(keepdims=True)
        # the rows where each replicate starts, and the step's end
        cuts = np.concatenate([[a], a + 1 + np.flatnonzero(rep[1:] != rep[:-1]), [b]])
        h = held[:, cuts]
        return self.state[a:b], self.rep[cuts[:-1]], (h[:, 1:] - h[:, :-1]).max(axis=0)


def _frontier(batch, keep, n, distinct=None, decided=None):
    """Yield (level, state (K, m), rep (K,)) for levels 0..n, in steps with
    tuples: tuples of surviving factor cubes, as rows into the factor forest
    level, whose product cube keep(idx (C, m*d), level) -> bool (C,) keeps
    (all when keep is None) and the replicate's aux tree holds; from level
    `distinct` on (never when None) their factor rows are pairwise distinct.
    rep is each tuple's replicate.

    Each level below n has a queue, filled only when it is empty.  Each step
    takes rows in order from the deepest non-empty queue, as many as keep
    their expansion's peak at or below BATCH_TUPLES, then expands, prunes
    and yields them, and they fill the next queue.  So each replicate's
    tuples at a level come, over one or more steps, in the order of its own
    traversal, and without `decided` all level-n tuples in replicate order.
    Before a step expands, the peak of each replicate's rows in it is added
    to the replicate's count at the next level: a count over TUPLE_BUDGET
    raises BudgetError, and nothing of the step is built.

    decided, a (reps,) bool array that the consumer may set between yields,
    has each undecided replicate's level-(n-1) tuples go in blocks of 1, 2,
    4, ..., at most one block of each replicate a step, and drops a decided
    replicate's rows from every queue."""
    m, t, limit = batch.m, batch.t, BATCH_TUPLES

    @cache
    def table(lev):
        return _child_table(batch.factor[lev], batch.factor[lev + 1])

    @cache
    def aux_rows(lev):
        return np.column_stack(batch.aux[lev])

    def prune(state, lev):
        """The tuples of `state` that level lev keeps, and their replicates."""
        tree, idx = batch.factor[lev]
        if batch.aux is not None:
            rep = tree[state[:, 0]] // t

        def test(rows, x):
            ok = np.ones(x.shape[0], dtype=bool) if keep is None else keep(x, lev)
            if batch.aux is not None:
                ok &= _lex_member(aux_rows(lev), np.column_stack([rep[rows], x]))
            return ok

        if keep is not None or batch.aux is not None:
            state = _prune_state(state, [idx] * m, test)
        if distinct is not None and lev >= distinct:
            state = state[_pairwise_distinct(state)]
        return state, tree[state[:, 0]] // t

    seen = np.zeros(batch.reps, dtype=np.int64)  # level-(n-1) rows queued

    def fill(state, rep, lev):
        sizes = np.cumprod(table(lev)[2][state.T], axis=0)
        if (sizes <= sizes[-1]).all():
            sizes = sizes[-1:]  # the last is each row's largest
        if decided is None or lev < n - 1:
            return _Queue(state, rep, sizes)
        # row i of a replicate, counting its earlier queues', is in block
        # floor(log2(i + 1)); its first block in this queue goes in round 0
        first = np.searchsorted(rep, rep)
        rounds = np.frexp(seen[rep] + np.arange(rep.shape[0]) - first + 1)[1]
        rounds -= rounds[first]
        seen[:] += np.bincount(rep, minlength=seen.shape[0])
        order = np.argsort(rounds, kind="stable")
        return _Queue(state[order], rep[order], sizes[:, order], rounds[order])

    # rows into the factor forest level; level 0 holds each tree's root, in
    # tree order
    roots = np.arange(batch.reps * t, dtype=np.int64).reshape(batch.reps, t)
    state, rep = prune(np.repeat(roots, m // t, axis=1), 0)
    queues, live = [None] * n, np.ones(batch.reps, dtype=bool)
    built = np.zeros((n + 1, batch.reps), dtype=np.int64)
    lev = -1  # the level expanded last
    while True:
        if state.shape[0]:
            if lev + 1 < n:
                queues[lev + 1] = fill(state, rep, lev + 1)
            yield lev + 1, state, rep
        del state, rep
        if decided is not None and lev + 1 == n:
            fresh = decided & live
            if fresh.any():
                live &= ~fresh
                queues = [
                    q.keep(live) if q and fresh[q.span].any() else q for q in queues
                ]
        busy = [j for j, q in enumerate(queues) if q is not None and q.at < q.rep.shape[0]]
        if not busy:
            return
        lev = busy[-1]
        state, reps, peaks = queues[lev].take(limit)
        count = built[lev + 1, reps] + peaks
        if count.max() > TUPLE_BUDGET:
            raise BudgetError(
                f"a replicate's traversal would build {count.max()} tuples at "
                f"level {lev + 1} (budget {TUPLE_BUDGET})"
            )
        built[lev + 1, reps] = count
        for j in range(m):
            state = _expand_factor(state, j, *table(lev))
        state, rep = prune(state, lev + 1)


# ---------------------------------------------------------------------------
# Level masses

def _measure_once(held, idx, level, measure):
    """(values, ses) of the level cubes idx (K, M), measuring by
    measure(cubes (C, M)) -> (values, ses) only the cubes `held` lacks.
    held lists runs (keys, values, ses) of the cubes measured so far, each
    sorted by key (_row_keys with the level's corner cubes, the same in
    every call) and at most half as long as the one before: the cubes
    measured here join as a run, merged with the shorter runs before it."""
    corners = np.outer([0, (1 << level) - 1], np.ones(idx.shape[1], dtype=np.int64))
    key = _row_keys(idx, corners)[0]
    values, ses = np.empty(key.shape[0]), np.empty(key.shape[0])
    todo = np.arange(key.shape[0])
    for keys, v, s in held:
        pos = np.minimum(np.searchsorted(keys, key[todo]), keys.shape[0] - 1)
        hit = keys[pos] == key[todo]
        values[todo[hit]], ses[todo[hit]] = v[pos[hit]], s[pos[hit]]
        todo = todo[~hit]
    if todo.shape[0]:
        keys, first, back = np.unique(key[todo], return_index=True, return_inverse=True)
        v, s = measure(idx[todo[first]])
        values[todo], ses[todo] = v[back], s[back]
        while held and held[-1][0].shape[0] <= 2 * keys.shape[0]:
            run = held.pop()
            order = np.argsort(np.concatenate([run[0], keys]), kind="stable")
            keys, v, s = (np.concatenate(pair)[order] for pair in zip(run, (keys, v, s)))
        held.append((keys, v, s))
    return values, ses


def _batch_masses(law, batch, target, n, mc_samples, pruned):
    """(values, ses, counts), (R, n+1) arrays, of the batch's replicates in
    the mode of the ProductLaw `law`: one kernel call per step of the
    traversal, added per replicate in row order.  A variety's kernel
    measures each product cube once per run: a level's cubes met in an
    earlier step are looked up, not measured again."""
    # each sum starts from -0.0, as -0.0 + x == x for every x; one without
    # rows is 0.0
    totals, variances = np.full((2, n + 1, batch.reps), -0.0)
    counts = np.zeros((n + 1, batch.reps), dtype=np.int64)
    # power mode's decomposition level, from which factors are distinct
    diag = law.diag_level if law.mode == "power" and law.m >= 2 else None
    keep = _target_keep(target) if pruned else None
    held = [[] for _ in range(n + 1)]  # the variety cubes measured, by level
    for lev, state, rep in _frontier(batch, keep, n, diag):
        counts[lev] += np.bincount(rep, minlength=batch.reps)
        if diag is not None and lev < diag:
            continue
        idx_md = _product_idx(state, [batch.factor[lev][1]] * law.m)
        if isinstance(target, AffinePlane):
            vals, se = plane_level_measure(target, idx_md, lev, mc_samples)
        else:
            vals, se = _measure_once(
                held[lev], idx_md, lev,
                lambda cubes: variety_level_measure(target, cubes, lev, mc_samples),
            )
        # np.add.at is unbuffered and goes in index order
        np.add.at(totals[lev], rep, vals)
        np.add.at(variances[lev], rep, se * se)
    totals[counts == 0] = variances[counts == 0] = 0.0
    f = np.array([law.density_factor(lev) for lev in range(n + 1)])
    values, ses = f * totals.T, f * np.sqrt(variances.T)
    # below the power mode's decomposition level the mass includes the
    # diagonal and is not reported
    values[:, : diag or 0] = ses[:, : diag or 0] = np.nan
    return values, ses, counts.T


def _kernel_name(law, target):
    if isinstance(target, AffinePlane):
        k, mm = target.dim, law.ambient
        return "exact" if k in (1, mm - 1, mm) else "qmc"
    return "coarea-qmc"


def _check_target(law, target):
    if target.ambient != law.ambient:
        raise ConfigError("target ambient must equal m*d")
    if isinstance(target, AffinePlane):
        if target.dim < 1:
            raise DegenerateInputError("target dimension must be >= 1")
    elif target.ambient - target.codomain < 1:
        raise DegenerateInputError("variety dimension must be >= 1")


def _series(law, batch, target, n, mc_samples, pruned, param_id, seeds):
    """One MassSeries per replicate of the batch; seeds[r] is its seed."""
    values, ses, counts = _batch_masses(law, batch, target, n, mc_samples, pruned)
    kernel = _kernel_name(law, target)
    return [
        MassSeries(
            param_id=param_id,
            seed=int(seed),
            levels=list(range(n + 1)),
            values=v.tolist(),
            counts=c.tolist(),
            ses=s.tolist(),
            kernel=kernel,
        )
        for seed, v, s, c in zip(seeds, values, ses, counts)
    ]


def intersection_mass(
    spec,
    target,
    n,
    mc_samples=DEFAULT_MC_PER_CUBE,
    pruned=True,
    param_id="target",
):
    """MassSeries Y_0..Y_n: Y_j = density(j) * sum of target measures over the
    surviving level-j product cubes meeting the target.

    In power mode, values below spec.diag_level include the diagonal and are
    reported as NaN; mass is well-defined from the decomposition level on.
    """
    _check_target(spec, target)
    batch = _spec_batch(spec, n)
    return _series(
        spec, batch, target, n, mc_samples, pruned, param_id, [spec.trees[0].seed],
    )[0]


def replicate_masses(
    law,
    keys,
    target,
    n,
    mc_samples=DEFAULT_MC_PER_CUBE,
    param_id="target",
):
    """MassSeries of len(keys) independent replicates of the ProductLaw `law`.

    Replicate r's factor tree j has seed derive(keys[r], j + 1), and in
    weighted mode its product-space tree derive(keys[r], T + 1), for its T
    factor trees (one in power mode, else m).  All replicates are grown as
    one forest and traversed together (_frontier), in steps of at most
    BATCH_TUPLES tuples, with one kernel call per step.  Each series is
    equal, bit for bit, to intersection_mass on that replicate's trees
    alone.  A replicate whose steps would build over intersect.TUPLE_BUDGET
    tuples at a level (counted before each step is built), or a tree over
    percolation.MAX_CUBES cubes, raises BudgetError; a batch that only
    exceeds them together is not refused.
    """
    _check_target(law, target)
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    batch = _grown_batch(law, keys, n)
    return _series(
        law, batch, target, n, mc_samples, True, param_id, derive(keys, 1)
    )


# ---------------------------------------------------------------------------
# Martingale resampling

def _resample_batches(spec, n, replicates):
    """Batches of resamples 0..replicates-1, in order, each of as many as fit
    in MAX_CUBES stacked level rows (at least one): resample r holds
    levels 0..n of spec's trees plus their resample_level(tree, n, r)."""
    trees = spec.trees + ((spec.aux_tree,) if spec.aux_tree is not None else ())
    frozen = sum(t.levels[lev].shape[0] for t in trees for lev in range(n + 1))
    group, rows = [], 0
    for r in range(replicates):
        rep = [t.levels[: n + 1] + [resample_level(t, n, r)] for t in trees]
        size = frozen + sum(lv[n + 1].shape[0] for lv in rep)
        if group and rows + size > MAX_CUBES:
            yield _levels_batch(spec, group)
            group, rows = [], 0
        group.append(rep)
        rows += size
    yield _levels_batch(spec, group)


def martingale_resample_check(spec, target, n, replicates):
    """Freeze levels <= n, re-expand level n+1 `replicates` times.

    Returns (Y_n, mean of resampled Y_{n+1}, s.e. of that mean).  For a
    martingale measure the mean matches Y_n within a few s.e.  Resamples are
    the replicates of batches, and each Y_{n+1} equals, bit for bit,
    intersection_mass on the frozen levels plus that resample.
    """
    if replicates < 100:
        raise ConfigError("need at least 100 resamples for a meaningful s.e.")
    y_n = intersection_mass(spec, target, n).values[n]
    samples = np.concatenate([
        _batch_masses(spec, b, target, n + 1, DEFAULT_MC_PER_CUBE, True)[0][:, n + 1]
        for b in _resample_batches(spec, n, replicates)
    ])
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(replicates))
    return y_n, mean, se


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
    # product cubes retained at each level, summed over the replicates
    product_cubes: list = field(default_factory=list)


def _product_cubes(series):
    """The product cubes retained at each level, summed over MassSeries."""
    return np.sum([s.counts for s in series], axis=0, dtype=np.int64).tolist()


def second_moment_estimate(
    law, target, n, replicates, base_seed=0, mc_samples=DEFAULT_MC_PER_CUBE,
):
    """Monte Carlo E[Y_n], E[Y_n^2] over independent replicates of the
    ProductLaw `law`, with the Paley-Zygmund survival lower bound
    P(Y_n > 0) >= E[Y_n]^2 / E[Y_n^2].

    Replicate r's trees are drawn from the key
    derive(root_key(base_seed), 2r + 1); all replicates form one batch."""
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    root = root_key(int(base_seed))
    keys = [derive(root, 2 * r + 1) for r in range(replicates)]
    series = replicate_masses(law, keys, target, n, mc_samples=mc_samples)
    ys = np.array([s.values[n] for s in series])
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
        product_cubes=_product_cubes(series),
    )


# ---------------------------------------------------------------------------
# Hölder modulus

def holder_modulus(spec, targets, n, gamma_list, mc_samples=DEFAULT_MC_PER_CUBE):
    """Empirical Hölder table for the map t -> Y_n^t on one realization.

    targets: dict id -> AffinePlane, at distances d(t, u) =
    t.metric_distance(u).
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
                dist = targets[ids[i]].metric_distance(targets[ids[j]])
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
