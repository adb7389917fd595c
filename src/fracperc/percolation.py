"""Fractal percolation trees on the dyadic grid of [0,1]^d.

Three variants:

* ``extinction`` -- every child of a retained cube is kept independently with
  probability p (plain Bernoulli percolation on the 2^d-ary tree).
* ``surviving`` -- the process conditioned on non-extinction: each surviving
  cube draws an offspring count k from the conditional law (p_1,...,p_{2^d})
  and a uniformly random k-subset of its children survives.
* ``coupled`` -- the extinction variant read off a single field of per-cube
  uniforms U_Q, retained iff U_Q <= p; slices are monotone in p for a fixed
  seed, which yields the coupled ensemble (A_p)_p.

All randomness is counter-based (see :mod:`fracperc.rng`), so trees replay
exactly from (seed, variant, law) and distinct replicates never share state.
"""

from dataclasses import dataclass, field
from itertools import accumulate
from math import comb, log2

import numpy as np

from .errors import BudgetError, ConfigError
from .rng import COUNT_SALT, RESAMPLE_SALT, child_keys, derive, key_uniform, root_key

# Most cubes one tree may hold at a level: checked on the live children of a
# level before their indices are built.
MAX_CUBES = 20_000_000
# Largest accepted ambient dimension.  Expansion draws the keys, uniforms and
# (surviving variant) ranks of all 2**d children of every cube, (N, 2**d)
# arrays, and builds indices for the live children only, so its memory per
# parent cube grows like 2**d (d 2**d when every child lives); 6 caps that at
# 64 children.
MAX_DIM = 6


def extinction_probability(d, p):
    """Smallest fixed point in [0,1] of f(t) = (1-p+pt)^(2^d).

    Returns 1.0 for p <= 2^-d (subcritical/critical: a.s. extinction).
    Absolute error <= 1e-12.
    """
    if d < 1:
        raise ConfigError("ambient dimension must be >= 1")
    if not (0.0 < p <= 1.0):
        raise ConfigError("retention probability must be in (0, 1]")
    n = 1 << d
    if p <= 1.0 / n:
        return 1.0

    def g(t):
        return (1.0 - p + p * t) ** n - t

    # g(0) = (1-p)^n >= 0, g decreasing through the root, g(1) = 0 with
    # g'(1) = 2^d p - 1 > 0, so g < 0 just below 1.
    hi = 1.0 - 1e-13
    if g(hi) >= 0.0:  # root indistinguishable from 1 at this resolution
        return 1.0 if p < 1.0 else 0.0
    lo = 0.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    # Newton polish (monotone-safe near the simple root)
    for _ in range(3):
        fq = (1.0 - p + p * q) ** n
        dq = n * p * (1.0 - p + p * q) ** (n - 1) - 1.0
        if dq != 0.0:
            q -= (fq - q) / dq
    return min(max(q, 0.0), 1.0)


def offspring_distribution(d, p):
    """Conditional offspring law (p_1, ..., p_{2^d}) of the surviving process.

    p_k = C(2^d, k) p^k (1-q)^(k-1) (1 - p(1-q))^(2^d - k).
    """
    n = 1 << d
    if p <= 1.0 / n:
        raise ConfigError("surviving law undefined for p <= 2^-d")
    q = extinction_probability(d, p)
    k = np.arange(1, n + 1)
    binom = np.array([comb(n, int(i)) for i in k], dtype=float)
    pk = binom * p ** k * (1.0 - q) ** (k - 1) * (1.0 - p * (1.0 - q)) ** (n - k)
    return pk


@dataclass(frozen=True)
class GaltonWatsonLaw:
    """Branching law of fractal percolation in [0,1]^d with retention p."""

    d: int
    p: float
    q: float
    offspring: np.ndarray | None  # None when p <= 2^-d
    s: float

    @classmethod
    def create(cls, d, p):
        if not (1 <= d <= MAX_DIM):
            raise ConfigError(f"d must be in 1..{MAX_DIM}")
        if not (0.0 < p <= 1.0):
            raise ConfigError("p must be in (0, 1]")
        q = extinction_probability(d, p)
        off = offspring_distribution(d, p) if p > 2.0 ** -d else None
        return cls(d=d, p=p, q=q, offspring=off, s=d + log2(p))

    @property
    def supercritical(self):
        return self.p > 2.0 ** -self.d

    # q, offspring and s are functions of (d, p), so laws compare and hash by (d, p)
    def __eq__(self, other):
        if not isinstance(other, GaltonWatsonLaw):
            return NotImplemented
        return (self.d, self.p) == (other.d, other.p)

    def __hash__(self):
        return hash((self.d, self.p))


@dataclass(frozen=True)
class DyadicCube:
    """Half-open cube prod_i [index_i 2^-n, (index_i+1) 2^-n) in [0,1]^M."""

    level: int
    index: tuple

    def __post_init__(self):
        if self.level < 0 or any(
            not (0 <= i < (1 << self.level)) for i in self.index
        ):
            raise ConfigError("cube index out of range for its level")

    @property
    def side(self):
        return 2.0 ** -self.level

    @property
    def lower(self):
        return np.array(self.index, dtype=float) * self.side


@dataclass
class PercolationTree:
    """Per-level surviving cube sets with replayable per-cube randomness.

    levels[n] is an (N_n, d) int64 array, lexicographically sorted; _keys[n]
    carries the per-cube hash keys used to extend or re-randomize the tree.
    Immutable after construction.
    """

    law: GaltonWatsonLaw
    variant: str
    seed: int
    levels: list = field(default_factory=list)
    _keys: list = field(default_factory=list)

    @property
    def depth(self):
        return len(self.levels) - 1

    def count(self, n):
        return self.levels[n].shape[0]


# ---------------------------------------------------------------------------
# Tree expansion: one level of every cube at once.

def _child_offsets(d):
    """(2**d, d) array of child offsets in {0,1}^d, in binary counting order
    with axis 0 as the most significant bit (matches lexicographic order)."""
    rng = np.arange(1 << d, dtype=np.int64)
    return (rng[:, None] >> np.arange(d - 1, -1, -1, dtype=np.int64)) & 1


def _expand(law, variant, idx, keys):
    """The live children of one level: idx (N, d) int64 cube indices, keys
    (N,) uint64.  Returns (child_idx, child_keys, parent_rows) in
    parent-major, offset-minor order (callers sort lexicographically).

    The variant decides only which of the (N, 2**d) children live.  In the
    extinction and coupled variants a child lives iff its key-uniform is
    <= p.  In the surviving variant each cube draws an offspring count k
    from the conditional law, and its k children with the smallest
    key-uniforms live; by exchangeability they are a uniform k-subset.
    BudgetError if more than MAX_CUBES children live, raised before their
    indices are built.
    """
    d = law.d
    ck = child_keys(keys, d)                      # (N, 2**d)
    u = key_uniform(ck)
    if variant == "surviving":
        u_cnt = key_uniform(derive(keys, COUNT_SALT))
        k = np.searchsorted(np.cumsum(law.offspring), u_cnt, side="right") + 1
        k = np.minimum(k, 1 << d)  # guard against fp shortfall in cdf[-1]
        rank = np.argsort(np.argsort(u, axis=1, kind="stable"), axis=1, kind="stable")
        keep = rank < k[:, None]
    else:
        keep = u <= law.p
    # row-major flat positions: parent-major, offset-minor
    live = np.flatnonzero(keep)
    if live.size > MAX_CUBES:
        raise BudgetError(f"level would hold {live.size} cubes (budget {MAX_CUBES})")
    parents = live >> d
    cidx = idx[parents] * 2 + _child_offsets(d)[live & ((1 << d) - 1)]
    return cidx, ck.ravel()[live], parents


# Most cubes a group of several trees may grow into at one level.  A group
# that could grow more is first halved at a tree boundary and each half grows
# on alone, so the arrays an expansion holds stay near those of the largest
# single tree, however many trees grow.
FOREST_CUBES = 1 << 14


def _replicate_cut(rep):
    """The first row of the middle replicate among those with rows (rep
    nondecreasing, with at least two distinct values); halving by replicates,
    not rows, keeps the depth of the splits within log2 of their number."""
    starts = np.flatnonzero(rep[1:] != rep[:-1]) + 1
    return int(starts[starts.shape[0] // 2])


def _row_keys(*blocks):
    """One 1-D key array per block of integer rows (N, k): keys sort, within
    and across blocks, in the lexicographic order of their rows, and are
    equal exactly when the rows are.  Each column is offset by its least
    value over every block and takes the bits of its largest offset value (a
    constant column takes none); the keys are packed int64 when those widths
    sum to at most 63, and big-endian void views of the offset rows otherwise."""
    cols = np.concatenate(blocks).T.copy()  # (k, rows of every block), row-major
    if cols.shape[1]:
        cols -= cols.min(axis=1, keepdims=True)
    widths = [int(w).bit_length() for w in cols.max(axis=1, initial=0).tolist()]
    if sum(widths) > 63:
        void = np.dtype((np.void, 8 * cols.shape[0]))
        keys = np.ascontiguousarray(cols.T, dtype=">i8").view(void).ravel()
    else:
        # each column is shifted past the bits of the columns after it
        keys = np.array([1 << sum(widths[j + 1:]) if w else 0 for j, w in enumerate(widths)]) @ cols
    ends = list(accumulate(b.shape[0] for b in blocks))
    return [keys[end - b.shape[0]: end] for b, end in zip(blocks, ends)]


def _step(law, variant, level):
    """The next level (tree, idx, keys) of a forest level, sorted by (tree,
    idx) as the level is; BudgetError if it would hold over MAX_CUBES."""
    tree, idx, keys = level
    cidx, ckeys, par = _expand(law, variant, idx, keys)
    ctree = tree[par]
    (key,) = _row_keys(np.column_stack([ctree, cidx]))
    # the stable sort merges the sorted runs that children come in
    order = np.argsort(key, kind="stable")
    return ctree[order], cidx[order], ckeys[order]


def forest_groups(law, variant, seeds, n_max, keep=None):
    """Grow one tree per seed to level n_max, yielding the forest group by
    group, in seed order: levels 0..n_max of (tree, idx, keys), sorted by
    (tree, idx), tree the index into seeds.  keep(lev, idx) -> bool, when
    given, filters each level lev >= 1 as it is grown.

    A group of several trees that could grow a level of more than
    min(FOREST_CUBES, MAX_CUBES) cubes (2^d per cube) is first halved at a
    tree boundary.  So only a lone tree's level over percolation.MAX_CUBES
    raises BudgetError, and, as every tree grows from its own keys, the grouping
    never changes a tree."""
    if variant not in ("extinction", "surviving", "coupled"):
        raise ConfigError(f"unknown variant {variant!r}")
    if variant == "surviving" and not law.supercritical:
        raise ConfigError("surviving variant requires p > 2^-d")
    seeds = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
    tree = np.arange(seeds.shape[0], dtype=np.int64)
    roots = (tree, np.zeros((tree.shape[0], law.d), dtype=np.int64), root_key(seeds))
    limit = min(FOREST_CUBES, MAX_CUBES)
    stack = [[roots]]  # groups to grow; split halves are copies, freeing the whole
    while stack:
        levels = stack.pop()
        tree = levels[-1][0]
        if len(levels) > n_max:
            yield levels
        elif tree.shape[0] << law.d > limit and tree[0] != tree[-1]:
            cut = tree[_replicate_cut(tree)]
            at = [np.searchsorted(lev[0], cut) for lev in levels]
            stack.append([tuple(a[i:].copy() for a in lev) for lev, i in zip(levels, at)])
            stack.append([tuple(a[:i].copy() for a in lev) for lev, i in zip(levels, at)])
        else:
            child = _step(law, variant, levels[-1])
            if keep is not None:
                held = keep(len(levels), child[1])
                child = tuple(a[held] for a in child)
            stack.append(levels + [child])


def sample_forest(law, variant, seeds, n_max):
    """Sample len(seeds) independent trees in one batched structure.

    Returns (rep, idx) per level: rep[n] is an (N,) int64 array of replicate
    ids and idx[n] the matching (N, d) cube indices.  Bit-identical to
    sampling each tree separately with its own seed.  The trees grow in
    groups (forest_groups), so only a tree whose level alone exceeds
    percolation.MAX_CUBES cubes raises BudgetError.
    """
    groups = [
        [lev[:2] for lev in levels]
        for levels in forest_groups(law, variant, seeds, n_max)
    ]
    return [tuple(np.concatenate(a) for a in zip(*lev)) for lev in zip(*groups)]


def sample_tree(law, variant, seed, n_max):
    """Sample a percolation tree down to level n_max: the one-seed call of
    forest_groups."""
    seeds = [int(seed) & ((1 << 64) - 1)]
    (levels,) = forest_groups(law, variant, seeds, n_max)
    return PercolationTree(
        law=law, variant=variant, seed=int(seed),
        levels=[idx for _, idx, _ in levels], _keys=[keys for _, _, keys in levels],
    )


def coupled_law(d, p):
    """The law of the coupled ensemble's slice at p, for p in [0, 1]."""
    if not (0.0 <= p <= 1.0):
        raise ConfigError("p must be in [0, 1]")
    if p == 0.0:
        return GaltonWatsonLaw(d=d, p=0.0, q=1.0, offspring=None, s=float("-inf"))
    return GaltonWatsonLaw.create(d, p)


def coupled_slice(d, seed, p, n_max):
    """Extinction-variant realization A_p of the coupled ensemble.

    For a fixed seed the level sets are monotone nondecreasing in p.
    """
    return sample_tree(coupled_law(d, p), "coupled", seed, n_max)


def resample_level(tree, n, resample_index):
    """Fresh copy of level n+1 keeping levels <= n frozen.

    Randomness comes from a stream derived from (cube key, resample_index),
    so distinct indices give independent re-expansions and the same index
    replays exactly.
    """
    if n >= len(tree.levels):
        raise ConfigError("level not materialized")
    idx = tree.levels[n]
    keys = derive(tree._keys[n], RESAMPLE_SALT + int(resample_index) + 1)
    level = (np.zeros(idx.shape[0], dtype=np.int64), idx, keys)
    return _step(tree.law, tree.variant, level)[1]


def natural_mass(law, count, n):
    """||nu_n|| = N_n p^-n 2^-dn = N_n 2^-sn of `count` level-n cubes (an
    int or an array of counts)."""
    return count * (law.p * 2.0 ** law.d) ** -n

