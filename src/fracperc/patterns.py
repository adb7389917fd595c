"""Geometric configuration catalog, finite-resolution detectors, threshold
sweeps, parameter-set dimension and stress tests.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ConfigError, DegenerateInputError
from . import geometry
from .geometry import AffinePlane
from .polynomials import PolynomialMap, newton_refine_rows
from .percolation import (
    GaltonWatsonLaw, _row_keys, coupled_law, forest_groups, sample_forest,
)
from .intersect import _Batch, _frontier, _lex_member, _poly_keep
from .rng import derive, replicate_seeds, root_key

FAMILIES = (
    "homothetic",
    "translate",
    "distance",
    "angle",
    "volume",
    "isometric",
    "triangle",
    "polygon",
)
SCALE_INVARIANT = frozenset({"homothetic", "angle", "triangle", "polygon"})
PLANE_FAMILIES = frozenset({"homothetic", "translate"})


@dataclass(frozen=True)
class ConfigDescriptor:
    """One geometric configuration family instance.

    params by family:
      homothetic/translate: sites — (m, d) array of the pattern points;
      distance: lam — the target distance (m = 2);
      angle: lam — cosine of the target angle (m = 3);
      volume: vol — the target simplex volume (m = d + 1);
      isometric: sites — (3, 2) reference triangle, d = 2;
      triangle: ratios — (a, b) with |x3-x1| = a|x2-x1|, |x3-x2| = b|x2-x1|;
      polygon: sites — (m, 2) reference polygon, d = 2, no 3 anchors collinear.
    """

    family: str
    d: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        p = dict(self.params)
        if self.family in ("homothetic", "translate", "isometric", "polygon"):
            sites = np.asarray(p["sites"], dtype=float)
            if sites.ndim == 1:
                sites = sites[:, None]
            p["sites"] = sites
            if sites.shape[1] != self.d:
                raise ConfigError("site dimension must match d")
            if len({tuple(s) for s in sites.tolist()}) < sites.shape[0]:
                raise DegenerateInputError("repeated configuration points")
        if self.family in ("isometric", "polygon") and self.d != 2:
            raise ConfigError(f"{self.family} family requires d = 2")
        if self.family == "polygon" and p["sites"].shape[0] < 3:
            raise ConfigError("polygon needs at least 3 points")
        if self.family == "isometric" and p["sites"].shape[0] != 3:
            raise ConfigError("isometric family takes exactly 3 points")
        if self.family == "triangle" and np.shape(p["ratios"]) != (2,):
            raise ConfigError(f"ratios must be two numbers, got {p['ratios']!r}")
        object.__setattr__(self, "params", p)

    @property
    def m(self):
        f = self.family
        if f in ("homothetic", "translate", "isometric", "polygon"):
            return int(self.params["sites"].shape[0])
        if f == "distance":
            return 2
        if f in ("angle", "triangle"):
            return 3
        if f == "volume":
            return self.d + 1
        raise ConfigError(f)

    @property
    def ambient(self):
        return self.m * self.d

    @functools.cached_property
    def _detection_target(self):
        """The plane or polynomial systems detection tests, built once."""
        if self.family in PLANE_FAMILIES:
            return configuration_plane(self)
        return _detection_polys(self)

    @functools.cached_property
    def _site_diameter(self):
        """The largest distance between two sites, computed once."""
        sites = self.params["sites"]
        return max(
            float(np.linalg.norm(sites[i] - sites[j]))
            for i in range(self.m) for j in range(i + 1, self.m)
        )

    def to_text(self):
        parts = [f"family={self.family}", f"d={self.d}"]
        for k, v in self.params.items():
            arr = np.asarray(v, dtype=float)
            parts.append(f"{k}={';'.join(repr(float(x)) for x in arr.ravel())}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Threshold tables

def threshold_table(d, m=None):
    """Critical dimensions s_c per family (presence thresholds and the
    stronger thresholds under which presence survives positive-measure
    subsets), plus the corresponding critical p = 2^(s_c - d)."""
    rows = {}

    def add(family, s_abs, s_rel, arity):
        rows[family] = {
            "s_critical": s_abs,
            "s_critical_relative": s_rel,
            "p_critical": 2.0 ** (s_abs - d),
            "p_critical_relative": 2.0 ** (s_rel - d),
            "m": arity,
        }

    if m is not None:
        add("homothetic", d - (d + 1) / m, d - 1.0 / (m - 1), m)
        add("translate", d - d / m, float("nan"), m)
    add("distance", 0.5, 1.0, 2)
    add("volume", 1.0 / (d + 1), 1.0 / d, d + 1)
    if d == 2:
        add("isometric", 1.0, 1.5, 3)
        add("angle", 1.0 / 3.0, 0.5, 3)
        add("triangle", 2.0 / 3.0, 1.0, 3)
        if m is not None and m >= 3:
            add("polygon", 2.0 - 4.0 / m, 2.0 - 2.0 / (m - 1), m)
    return rows


# ---------------------------------------------------------------------------
# Polynomial / plane encodings

def _sq_dist_terms(md, i, j, d, scale=1.0):
    """Multi-index dict of scale * |x_i - x_j|^2 (factors i, j of arity blocks)."""
    out = {}

    def bump(alpha, c):
        out[alpha] = out.get(alpha, 0.0) + c

    for k in range(d):
        a, b = i * d + k, j * d + k
        e = [0] * md
        e[a] = 2
        bump(tuple(e), scale)
        e = [0] * md
        e[b] = 2
        bump(tuple(e), scale)
        e = [0] * md
        e[a] = 1
        e[b] = 1
        bump(tuple(e), -2.0 * scale)
    return out


def _merge(*dicts):
    out = {}
    for dd in dicts:
        for k, v in dd.items():
            out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if v != 0.0}


def _product(p, q):
    """Multi-index dict of the product of two multi-index dicts."""
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            e = tuple(x + y for x, y in zip(a, b))
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def _lex_descending(comp):
    """The terms in descending lexicographic order of their multi-indices."""
    return {alpha: comp[alpha] for alpha in sorted(comp, reverse=True)}


def _dot_terms(md, d, u, v):
    """Multi-index dict of (x_u0 - x_u1) . (x_v0 - x_v1), where u and v are
    pairs of factor indices."""
    out = {}
    for k in range(d):
        for i, si in ((u[0], 1.0), (u[1], -1.0)):
            for j, sj in ((v[0], 1.0), (v[1], -1.0)):
                e = [0] * md
                e[i * d + k] += 1
                e[j * d + k] += 1
                out[tuple(e)] = out.get(tuple(e), 0.0) + si * sj
    return _merge(out)


def _angle_terms(md, d, lam):
    """(u.v)^2 - lam^2 |u|^2 |v|^2 with u = x_0 - x_1, v = x_2 - x_1."""
    uv = _dot_terms(md, d, (0, 1), (2, 1))
    uu = _dot_terms(md, d, (0, 1), (0, 1))
    vv = _dot_terms(md, d, (2, 1), (2, 1))
    scaled = {k: -lam * lam * c for k, c in _product(uu, vv).items()}
    return _lex_descending(_merge(_product(uv, uv), scaled))


def _volume_terms(md, d, vol):
    """det [x_0 ... x_d; 1 ... 1] - d! vol, the determinant expanded by
    Leibniz: the permutation sigma contributes sgn(sigma) prod_r x_sigma(r)^r."""
    m = d + 1
    comp = {(0,) * md: -math.factorial(d) * vol}
    for perm in itertools.permutations(range(m)):
        inversions = sum(
            perm[a] > perm[b] for a in range(m) for b in range(a + 1, m)
        )
        e = [0] * md
        for r in range(d):
            e[perm[r] * d + r] = 1
        comp[tuple(e)] = -1.0 if inversions % 2 else 1.0
    return _lex_descending(comp)


def configuration_polynomial(desc):
    """Polynomial map whose zero set (with the family's side conditions)
    encodes the configuration.  Plane families are not polynomial-expressible
    here; use configuration_plane for those."""
    if desc.family in PLANE_FAMILIES:
        raise ConfigError(
            f"{desc.family} is a plane family; use configuration_plane"
        )
    d, m = desc.d, desc.m
    md = m * d
    if desc.family == "distance":
        lam = float(desc.params["lam"])
        comp = _merge(_sq_dist_terms(md, 0, 1, d), {(0,) * md: -lam * lam})
        return PolynomialMap(ambient=md, components=(comp,))
    if desc.family == "isometric":
        y = desc.params["sites"]
        comps = []
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            target = float(np.sum((y[j] - y[i]) ** 2))
            comps.append(
                _merge(_sq_dist_terms(md, i, j, d), {(0,) * md: -target})
            )
        return PolynomialMap(ambient=md, components=tuple(comps))
    if desc.family == "triangle":
        a, b = desc.params["ratios"]
        comps = (
            _merge(_sq_dist_terms(md, 0, 2, d), _sq_dist_terms(md, 0, 1, d, -float(a) ** 2)),
            _merge(_sq_dist_terms(md, 1, 2, d), _sq_dist_terms(md, 0, 1, d, -float(b) ** 2)),
        )
        return PolynomialMap(ambient=md, components=comps)
    if desc.family == "polygon":
        sites = desc.params["sites"]
        base = float(np.sum((sites[1] - sites[0]) ** 2))
        if base <= 0:
            raise DegenerateInputError("anchor points coincide")
        comps = []
        for i in range(2, m):
            for j in (0, 1):
                ratio_sq = float(np.sum((sites[i] - sites[j]) ** 2)) / base
                comps.append(
                    _merge(
                        _sq_dist_terms(md, j, i, d),
                        _sq_dist_terms(md, 0, 1, d, -ratio_sq),
                    )
                )
        return PolynomialMap(ambient=md, components=tuple(comps))
    if desc.family == "angle":
        comp = _angle_terms(md, d, float(desc.params["lam"]))
        return PolynomialMap(ambient=md, components=(comp,))
    if desc.family == "volume":
        comp = _volume_terms(md, d, float(desc.params["vol"]))
        return PolynomialMap(ambient=md, components=(comp,))
    raise ConfigError(desc.family)


def configuration_plane(desc):
    """The affine plane of parameter space embeddings for a point pattern:
    homothetic copies {(b + a s_1, ..., b + a s_m)} (linear span, dim d+1) or
    translates {(s_1 + b, ..., s_m + b)} (affine, dim d)."""
    if desc.family not in PLANE_FAMILIES:
        raise ConfigError(f"{desc.family} is not a plane family")
    d, m = desc.d, desc.m
    sites = desc.params["sites"]
    diag = [np.tile(np.eye(d)[k], m) for k in range(d)]
    if desc.family == "homothetic":
        return AffinePlane.from_spanning(diag + [sites.ravel()])
    return AffinePlane.from_spanning(diag, offset=sites.ravel())


# ---------------------------------------------------------------------------
# Detection

@dataclass
class DetectionResult:
    present: bool
    witness: dict | None
    tolerance: float
    n: int
    tuples_checked: int = 0
    # checked rows, up to and including the witness, on which a Newton
    # polish did not converge (polynomial families only)
    newton_unconverged: int = 0


def _forest_ancestors(tree, cubes, n, m=1):
    """The trees among `tree` (N,) that hold at least m of the level-n cubes
    (N, d), in order, and the forest levels 0..n, (tree, idx) sorted by
    (tree, idx), of the ancestors of their cubes, with those trees numbered
    0, 1, ...; each level is built from its children."""
    big = np.bincount(tree) >= m
    kept, rows = np.flatnonzero(big), big[tree]
    rows = np.column_stack([np.searchsorted(kept, tree[rows]), cubes[rows]])
    levels = []
    for _ in range(n + 1):
        (key,) = _row_keys(rows)
        levels.append(rows[np.unique(key, return_index=True)[1]])
        rows = levels[-1].copy()
        rows[:, 1:] >>= 1
    return kept, [
        (np.ascontiguousarray(lev[:, 0]), np.ascontiguousarray(lev[:, 1:]))
        for lev in levels[::-1]
    ]


def _ancestor_levels(cubes, n):
    """Level index arrays 0..n reconstructed from an arbitrary level-n set:
    the one-tree forest of its ancestors."""
    cubes = np.asarray(cubes, dtype=np.int64)
    if cubes.ndim == 1:
        cubes = cubes[:, None]
    tree = np.zeros(cubes.shape[0], dtype=np.int64)
    return [idx for _, idx in _forest_ancestors(tree, cubes, n)[1]]


def _plane_fit_rows(desc, centers, tolerance, min_diameter=0.0):
    """Least-squares homothety/translation fits of rows of centers (B, m, d)
    to the sites.

    Returns (ok (B,), params (B, P) rows [scale, offset...], or [offset...]
    for translates): each point's residual must stay within tolerance, the
    scale must be positive for the homothetic family, and the realized
    copy's diameter must reach min_diameter (0 disables the floor).  Every
    row is fitted with the reductions a single (m, d) fit would use."""
    sites = desc.params["sites"]
    c = centers
    if desc.family == "homothetic":
        sbar = sites.mean(axis=0)
        cbar = c.mean(axis=1)
        denom = float(np.sum((sites - sbar) ** 2))
        prod = (sites - sbar) * (c - cbar[:, None, :])
        lam = np.sum(prod.reshape(c.shape[0], desc.m * desc.d), axis=1) / denom
        b = cbar - lam[:, None] * sbar
        resid = c - (b[:, None, :] + lam[:, None, None] * sites)
        ok = (
            (lam > 0)
            & (lam * desc._site_diameter >= min_diameter)
            & (np.max(np.linalg.norm(resid, axis=2), axis=1) <= tolerance)
        )
        return ok, np.column_stack([lam, b])
    b = (c - sites).mean(axis=1)
    resid = c - (sites + b[:, None, :])
    ok = np.max(np.linalg.norm(resid, axis=2), axis=1) <= tolerance
    return ok, b


def _polynomial_fit_rows(polys, centers, tolerance):
    """Roots of (one of) the polynomial systems inside the tolerance box
    around each row of centers (B, M), found by Gauss-Newton polish; a row
    tries the next system only when the previous one gave it no root.

    Returns (ok (B,), points (B, M), unconverged (B,)): the roots of the ok
    rows, and the Newton runs on each row that did not converge."""
    rows = centers.shape[0]
    ok = np.zeros(rows, dtype=bool)
    unconverged = np.zeros(rows, dtype=np.int64)
    points = np.empty_like(centers)
    for poly in polys:
        todo = np.flatnonzero(~ok)
        if todo.size == 0:
            break
        x, conv = newton_refine_rows(poly, centers[todo])
        unconverged[todo] += ~conv
        near = conv & (np.max(np.abs(x - centers[todo]), axis=1) <= tolerance + 1e-12)
        ok[todo[near]] = True
        points[todo[near]] = x[near]
    return ok, points, unconverged


def _detection_polys(desc):
    """Polynomial system(s) for detection: the volume family accepts either
    orientation of the simplex, so both determinant signs are admissible."""
    p = configuration_polynomial(desc)
    if desc.family == "volume":
        vol = float(desc.params["vol"])
        comp = dict(p.components[0])
        zero = (0,) * p.ambient
        mirrored = dict(comp)
        mirrored[zero] = mirrored.get(zero, 0.0) + 2 * math.factorial(desc.d) * vol
        return (p, PolynomialMap(ambient=p.ambient, components=(mirrored,)))
    return (p,)


def _detection_keep(desc, target, tolerance):
    """Safe prune (idx, level) -> bool: keep a product cube iff the
    configuration could be realized with every point within `tolerance` of
    its factor cube, i.e. within sqrt(m) * tolerance of the product cube for
    a plane, or in the cube widened by `tolerance` for polynomials.  None (no
    prune) for a plane that fills the product space, which meets every cube."""
    if desc.family in PLANE_FAMILIES:
        if target.dim == desc.ambient:
            return None
        radius = math.sqrt(desc.m) * tolerance
        return lambda idx, lev: geometry.plane_level_keep(target, idx, lev, radius)
    return lambda idx, lev: _poly_keep(target, idx, lev, tolerance)


def _detection_tolerance(desc, n, tolerance):
    """The detector's tolerance (default sqrt(d) * 2^-n), refused below the
    cube-centre resolution floor; arity > 4 beyond level 8 is refused as out
    of budget, and a homothetic pattern of fewer than two sites, which has
    no scale, as a config error."""
    if desc.family == "homothetic" and desc.m < 2:
        raise ConfigError(
            f"homothetic detection needs at least 2 sites, got {desc.m}"
        )
    if tolerance is None:
        tolerance = math.sqrt(desc.d) * 2.0 ** -n
    if tolerance < math.sqrt(desc.d) * 2.0 ** -n * (1 - 1e-9):
        raise ConfigError("tolerance below the cube-center resolution floor")
    if desc.m > 4 and n > 8:
        raise BudgetError("arity > 4 beyond level 8 is out of budget")
    return tolerance


def _fit_rows(desc, target, centers, tolerance, min_diameter):
    """(ok (B,), params (B, P), unconverged (B,)) of candidate rows of centers
    (B, m, d): the plane fit, or the polished root of the polynomials."""
    if desc.family in PLANE_FAMILIES:
        ok, params = _plane_fit_rows(desc, centers, tolerance, min_diameter)
        return ok, params, np.zeros(centers.shape[0], dtype=np.int64)
    return _polynomial_fit_rows(
        target, centers.reshape(centers.shape[0], -1), tolerance
    )


SWEEP_COUNTERS = (
    "detected", "candidate_tuples", "tuples_checked", "newton_unconverged",
)


def _witness_search(levels, m, keep, fit, n, counts, enumerate_all):
    """Branch-and-bound for witnesses in each tree of a forest of ancestor
    levels 0..n, every tree a replicate serving all m factors.

    The search is the masses' traversal (_frontier) of the product of each
    tree's cube hierarchy, pruned by keep(idx, level) (none when keep is
    None), with factor cubes pairwise distinct at level n.  Each level-n
    step's candidates are verified at once: fit(state (C, m)) -> (ok,
    params, unconverged) on at most CHUNK_FLOATS // (m d) rows a call.  A
    tree is decided at its first witness (never under enumerate_all), and
    its candidates come in its own order from blocks of 1, 2, 4, ...
    level-(n-1) tuples, so its first witness and tuples_checked are those
    of checking its candidates one by one.

    Adds each step's counts to counts, SWEEP_COUNTERS mapped to per-tree
    arrays as DetectionResult has them (candidate_tuples: the candidates
    built), then yields hits (tree (H,), state (H, m), params (H, P)) in
    candidate order: the first witness of each tree the step decides, or
    under enumerate_all every witness of the trees it has moved past, all
    of a tree's in one yield (the last tree's after the last step)."""
    reps = levels[0][0].shape[0]
    cap = max(1, geometry.CHUNK_FLOATS // (m * levels[n][1].shape[1]))
    decided = None if enumerate_all else np.zeros(reps, dtype=bool)

    def verify(state, owner):
        """The hits of a step's candidates state (C, m) of trees owner (C,),
        after adding their counts and marking the trees they decide."""
        fits = [fit(state[a : a + cap]) for a in range(0, state.shape[0], cap)]
        ok, params, fails = (np.concatenate(out) for out in zip(*fits))
        hit = np.flatnonzero(ok)
        # the candidates checked: a decided tree's up to its first witness
        last = np.full(reps, state.shape[0])
        if not enumerate_all:
            decision, first = np.unique(owner[hit], return_index=True)
            hit = hit[first]
            decided[decision] = True
            last[decision] = hit
        checked = np.arange(state.shape[0]) <= last[owner]
        counts["candidate_tuples"] += np.bincount(owner, minlength=reps)
        counts["tuples_checked"] += np.bincount(owner[checked], minlength=reps)
        np.add.at(counts["newton_unconverged"], owner[checked], fails[checked])
        counts["detected"][owner[hit]] = 1
        return owner[hit], state[hit], params[hit]

    pending = []  # enumerate_all: the hits of the last tree so far
    for lev, state, owner in _frontier(_Batch(m, 1, reps, levels), keep, n, n, decided):
        if lev < n:
            continue
        hits = verify(state, owner)
        if enumerate_all:
            # level-n rows come in tree order: the trees before the last are done
            hits = [np.concatenate(h) for h in zip(*pending, hits)]
            done = np.searchsorted(hits[0], owner[-1])
            pending = [[h[done:] for h in hits]]
            hits = [h[:done] for h in hits]
        # hold no candidate during the next step
        del state, owner
        yield hits
    yield from pending


def _detect_groups(counts, tree, cubes, desc, n, tolerance=None,
                   min_diameter=0.0, enumerate_all=False):
    """Detection in each tree of a forest's level n: the cubes (N, d), or
    (N,) for d = 1, held by trees `tree` (N,), or all by tree `tree` if it
    is an int, with _detection_tolerance.  Trees with fewer than m cubes
    hold no candidate; the others are searched together (_witness_search).
    Yields its hits as (tree (H,), cubes (H, m, d), params (H, P)), after
    filling their entries of counts: SWEEP_COUNTERS mapped to (trees,)
    arrays, as DetectionResult has them."""
    tolerance = _detection_tolerance(desc, n, tolerance)
    cubes = np.asarray(cubes, dtype=np.int64)
    if cubes.ndim == 1:
        cubes = cubes[:, None]
    tree = np.broadcast_to(np.asarray(tree, dtype=np.int64), cubes.shape[:1])
    kept, levels = _forest_ancestors(tree, cubes, n, desc.m)
    target = desc._detection_target
    cubes = levels[n][1]
    side = 2.0 ** -n

    def fit(state):
        centers = (cubes[state].astype(float) + 0.5) * side  # (B, m, d)
        return _fit_rows(desc, target, centers, tolerance, min_diameter)

    found = {name: np.zeros(kept.shape[0], dtype=np.int64) for name in SWEEP_COUNTERS}
    keep = _detection_keep(desc, target, tolerance)
    for owner, state, params in _witness_search(
        levels, desc.m, keep, fit, n, found, enumerate_all
    ):
        for name in SWEEP_COUNTERS:
            counts[name][kept] = found[name]
        yield kept[owner], cubes[state], params


def _detect_forest(tree, cubes, trees, desc, n, tolerance=None,
                   min_diameter=0.0, enumerate_all=False):
    """(hits, counts) of _detect_groups in trees 0..trees-1, all its hits concatenated."""
    counts = {name: np.zeros(trees, dtype=np.int64) for name in SWEEP_COUNTERS}
    width = desc.ambient
    if desc.family in PLANE_FAMILIES:
        width = desc.d + (desc.family == "homothetic")
    none = np.zeros(0, np.int64), np.zeros((0, desc.m, desc.d), np.int64), np.zeros((0, width))
    hits = zip(none, *_detect_groups(
        counts, tree, cubes, desc, n, tolerance, min_diameter, enumerate_all
    ))
    return tuple(np.concatenate(h) for h in hits), counts


def detect_configuration(
    cubes,
    desc,
    n,
    tolerance=None,
    enumerate_all=False,
    min_diameter=0.0,
):
    """Is the configuration realizable from the level-n cube set?

    Present iff there exist pairwise-distinct surviving cubes Q_1..Q_m and
    parameter values such that every configuration point lies within
    `tolerance` (default sqrt(d) * 2^-n) of the corresponding cube center.
    Branch-and-bound over the product of the cube hierarchy with safe pruning
    (slab / interval arithmetic); candidates at level n are verified
    by a least-squares fit (plane families) or a polished polynomial root.
    The traversal builds the last level from blocks of 1, 2, 4, ...
    level-(n-1) tuples, each verified as soon as it is built, and none
    after the one holding the first witness; the witness and
    `tuples_checked` (its position + 1) are those of checking every
    candidate one by one.  This is the one-tree call of the detection that
    sweeps run on whole forests.

    min_diameter sets a resolvability floor on the realized copy's diameter
    for the scale-bearing homothetic family (sub-resolution copies arise from
    any cube cluster and say nothing about the limit set).
    """
    tolerance = _detection_tolerance(desc, n, tolerance)
    (_, wit, params), counts = _detect_forest(
        0, cubes, 1, desc, n, tolerance, min_diameter, enumerate_all
    )
    witnesses = []
    for cells, row in zip(wit.tolist(), params.tolist()):
        if desc.family == "homothetic":
            fitted = {"scale": row[0], "offset": row[1:]}
        elif desc.family == "translate":
            fitted = {"offset": row}
        else:
            fitted = {"points": row}
        witnesses.append({"cubes": [tuple(c) for c in cells], "params": fitted})
    witness = (witnesses if enumerate_all else witnesses[0]) if witnesses else None
    checked, unconverged = (int(counts[name][0]) for name in SWEEP_COUNTERS[2:])
    return DetectionResult(bool(witnesses), witness, tolerance, n, checked, unconverged)


# ---------------------------------------------------------------------------
# Sweeps and statistics

# The two-sided 95 % standard normal quantile of Wilson intervals.
WILSON_Z = 1.959963984540054


def wilson_interval(successes, trials):
    """95 % Wilson score interval of a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    z = WILSON_Z
    ph = successes / trials
    den = 1 + z * z / trials
    center = (ph + z * z / (2 * trials)) / den
    half = z * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials)) / den
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class SweepRow:
    p: float
    frequency: float
    ci_lo: float
    ci_hi: float
    replicates: int
    counters: dict = None  # SWEEP_COUNTERS totals of the search behind the row


def sweep_min_diameter(desc, n):
    """Default resolvability floor used by sweeps: eight cube diagonals.
    Calibrated so that sub-resolution homothetic copies (which any cube
    cluster produces regardless of the regime) do not mask the threshold."""
    if desc.family == "homothetic":
        return 8.0 * math.sqrt(desc.d) * 2.0 ** -n
    return 0.0


def _sorted_grid(p_grid):
    """p_grid as sorted floats; a p given twice is refused."""
    grid = sorted(float(p) for p in p_grid)
    for a, b in zip(grid, grid[1:]):
        if a == b:
            raise ConfigError(f"p_grid holds p = {a!r} more than once")
    return grid


def presence_profiles(
    desc, p_grid, n, seeds, coupled=True, tolerance=None,
    variant="surviving", min_diameter=None,
):
    """Presence of the configuration in each replicate at each p.

    Replicate r's realization at p is coupled_slice(d, seeds[r], p, n) in
    coupled mode, else sample_tree(law at p, variant, seeds[r], n).  At each
    p of the sorted grid, the realizations of all replicates still to be
    searched are grown as one forest and detected as one batch
    (_witness_search), each replicate until its first witness.  Each
    presence equals that of detect_configuration on the replicate's
    realization alone.  A replicate whose traversal would build over
    intersect.TUPLE_BUDGET tuples at a level raises BudgetError.

    Coupled mode percolates one uniform field per replicate and slices it
    at every p, so each profile is monotone nondecreasing in p by
    construction: a replicate present at some p is present at every larger
    p (supersets preserve detections) and is not searched again.

    Returns (present (R, P) bool, counters): counters maps each name of
    SWEEP_COUNTERS to P ints, one per p: the replicates a search found
    present, the level-n candidate tuples built (every candidate of a
    replicate without a witness), the tuples checked (up to each
    replicate's first witness) and the Newton runs on them that did not
    converge.
    """
    if min_diameter is None:
        min_diameter = sweep_min_diameter(desc, n)
    tolerance = _detection_tolerance(desc, n, tolerance)
    p_grid = _sorted_grid(p_grid)
    if not p_grid:
        raise ConfigError("p_grid must hold at least one p")
    seeds = np.array([int(s) & ((1 << 64) - 1) for s in seeds], dtype=np.uint64)
    present = np.zeros((seeds.shape[0], len(p_grid)), dtype=bool)
    counters = {name: [] for name in SWEEP_COUNTERS}
    for i, p in enumerate(p_grid):
        if coupled:
            if i:
                present[:, i] = present[:, i - 1]
            todo = np.flatnonzero(~present[:, i])
            law, kind = coupled_law(desc.d, p), "coupled"
        else:
            todo = np.arange(seeds.shape[0])
            law, kind = GaltonWatsonLaw.create(d=desc.d, p=p), variant
        tree, cubes = sample_forest(law, kind, seeds[todo], n)[n]
        _, counts = _detect_forest(
            tree, cubes, todo.shape[0], desc, n, tolerance, min_diameter
        )
        present[todo[counts["detected"] > 0], i] = True
        for name in SWEEP_COUNTERS:
            counters[name].append(int(counts[name].sum()))
    return present, counters


def threshold_sweep(desc, p_grid, n, replicates, coupled=True, base_seed=0):
    """Presence frequency of the configuration per retention probability:
    presence_profiles with its default detection, of surviving trees when
    uncoupled.

    Coupled mode guarantees per-replicate monotonicity in p (one uniform
    field per replicate, sliced at every p).  The replicates' seeds are
    replicate_seeds(base_seed, replicates); all replicates form one batch.
    """
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    p_grid = sorted(float(p) for p in p_grid)
    seeds = replicate_seeds(base_seed, replicates)
    present, _ = presence_profiles(desc, p_grid, n, seeds, coupled=coupled)
    rows = []
    for p, h in zip(p_grid, present.sum(axis=0).tolist()):
        lo, hi = wilson_interval(h, replicates)
        rows.append(SweepRow(p, h / replicates, lo, hi, replicates))
    return rows


# ---------------------------------------------------------------------------
# Pattern parameter set dimension

def pattern_witnesses(cubes, sites, n, d):
    """All (scale, offset) parameters of homothetic copies of the site
    pattern realized by distinct surviving cube tuples at level n: rows
    (H, d + 1) of [scale, offset...], in the detector's check order."""
    desc = ConfigDescriptor(family="homothetic", d=d, params={"sites": sites})
    hits, _ = _detect_forest(0, cubes, 1, desc, n, enumerate_all=True)
    return hits[2]


@dataclass
class DimensionEstimate:
    slope: float
    predicted: float
    counts: list
    j_range: tuple
    # witness parameter rows and the candidate tuples they were fitted from
    witnesses: int = 0
    candidate_tuples: int = 0


def _fit_levels(j_lo, j_hi):
    """The levels j_lo..j_hi of a slope fit: at least 3, from level 0 on."""
    if j_lo < 0 or j_hi - j_lo < 2:
        raise ConfigError(
            f"a slope fit needs at least 3 levels from 0 on, got {j_lo}..{j_hi}"
        )
    return list(range(j_lo, j_hi + 1))


def _distinct(keys):
    """The number of distinct keys (np.unique would import numpy.ma)."""
    keys = np.sort(keys)
    return int(keys.shape[0] > 0) + int(np.count_nonzero(keys[1:] != keys[:-1]))


def box_count_slope(points, j_lo, j_hi):
    """Least-squares slope of log2(number of occupied 2^-j boxes) vs j."""
    js = _fit_levels(j_lo, j_hi)
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(pts.shape[0], -1)
    counts = []
    for j in js:
        (key,) = _row_keys(np.floor(pts * (1 << j)).astype(np.int64))
        counts.append(_distinct(key))
    logs = np.log2(np.maximum(counts, 1))
    slope = float(np.polyfit(js, logs, 1)[0])
    return slope, counts


def _tree_slices(tree, rows):
    """(t, the rows held by tree t, in their order) for each tree t present,
    in tree order: one stable sort, then a slice a tree."""
    order = np.argsort(tree, kind="stable")
    tree, rows = tree[order], rows[order]
    bounds = np.flatnonzero(np.diff(tree, prepend=-1, append=-1)).tolist()
    return zip(tree[bounds[:-1]].tolist(), (rows[a:b] for a, b in zip(bounds, bounds[1:])))


def _split_by_tree(tree, rows, trees):
    """The rows held by each of the trees 0..trees-1, in their order."""
    held, empty = dict(_tree_slices(tree, rows)), rows[:0]
    return [held.get(t, empty) for t in range(trees)]


def parameter_dimensions(tree, cubes, replicates, law, sites, n, j_lo=4, j_hi=None):
    """pattern_parameter_dimension of each of the replicates 0..R-1, whose
    level-n cubes (N, d) are held by trees `tree` (N,), or by the one tree
    `tree` when it is an int: the witnesses of every replicate are
    enumerated in one batch, and each tree's, which come in one yield, are
    box-counted and dropped.  A replicate without a witness has a slope of
    NaN and box counts of 0."""
    sites = np.asarray(sites, dtype=float)
    if sites.ndim == 1:
        sites = sites[:, None]
    if j_hi is None:
        j_hi = n - 1
    _fit_levels(j_lo, j_hi)
    desc = ConfigDescriptor(family="homothetic", d=law.d, params={"sites": sites})
    counts = {name: np.zeros(replicates, dtype=np.int64) for name in SWEEP_COUNTERS}
    boxes = {}
    groups = _detect_groups(counts, tree, cubes, desc, n, enumerate_all=True)
    for owner, _, wit in groups:
        for r, rows in _tree_slices(owner, wit):
            boxes[r] = *box_count_slope(rows, j_lo, j_hi), rows.shape[0]
    predicted = desc.m * (law.s - law.d) + law.d + 1
    out = []
    for r, total in enumerate(counts["candidate_tuples"].tolist()):
        slope, box, found = boxes.get(r, (math.nan, [0] * (j_hi - j_lo + 1), 0))
        out.append(DimensionEstimate(slope, predicted, box, (j_lo, j_hi), found, total))
    return out


def pattern_parameter_dimension(tree, sites, n, j_lo=4):
    """Box-count dimension, over levels j_lo..n-1, of the set of (scale,
    offset) parameters whose homothetic copy of the site pattern is realized
    at level n, against the predicted value m (s - d) + d + 1; NaN when no
    copy is realized."""
    (est,) = parameter_dimensions(0, tree.levels[n], 1, tree.law, sites, n, j_lo)
    return est


# ---------------------------------------------------------------------------
# Percolation dimension test

@dataclass
class PercDimResult:
    curve: list          # SweepRow per p
    p_star: float
    dim_estimate: float  # d - s(d, p_star) = -log2(p_star)
    hits: list = field(default_factory=list)  # replicates hitting the set, per p


def percolation_dimension_test(cubes, n, d, p_grid, replicates, base_seed=0):
    """Frequency, per p, that an independent percolation hits the given
    level-n cube set; the steepest transition p* estimates dim = -log2(p*).
    At each p the replicates grow as one forest restricted to the ancestors
    of the set."""
    cubes = np.asarray(cubes, dtype=np.int64)
    if cubes.ndim == 1:
        cubes = cubes[:, None]
    if cubes.shape[0] == 0:
        raise ConfigError("empty target set")
    p_grid = _sorted_grid(p_grid)
    if len(p_grid) < 2:
        raise ConfigError("a steepest transition needs a p_grid of at least two p")
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    ancestors = _ancestor_levels(cubes, n)
    rows, hits = [], []
    for pi, p in enumerate(p_grid):
        seeds = [
            int(derive(root_key(base_seed), (pi + 1) * 1_000_003 + r))
            for r in range(replicates)
        ]
        hit = 0
        for levels in forest_groups(
            coupled_law(d, p), "extinction", seeds, n,
            keep=lambda lev, idx: _lex_member(ancestors[lev], idx),
        ):
            hit += _distinct(levels[n][0])
        lo, hi = wilson_interval(hit, replicates)
        rows.append(SweepRow(p, hit / replicates, lo, hi, replicates))
        hits.append(hit)
    # steepest transition
    best, p_star = -1.0, p_grid[0]
    for a, b in zip(rows, rows[1:]):
        slope = (b.frequency - a.frequency) / (b.p - a.p)
        if slope > best:
            best = slope
            p_star = 0.5 * (a.p + b.p)
    return PercDimResult(rows, p_star, -math.log2(p_star), hits)


# ---------------------------------------------------------------------------
# Subset stress test

# Greedy stress tallies each step over the first MAX_WITNESSES witnesses.
MAX_WITNESSES = 200_000


def _greedy_removals(sets, desc, n, removals, tolerance):
    """The level-n cubes (N_t, d) of each tree t's set left after removals[t]
    greedy steps, each removing the cube in the most of the first
    MAX_WITNESSES witnesses of the cubes left (a tie goes to the one seen
    first); the steps stop once no witness is left.  Every tree's witnesses
    are enumerated once, in one batch: removing a cube drops the ancestor
    rows that hold it without reordering the rest, and the slab prune, the
    distinct-cube test and the fit judge each tuple alone, so the witnesses
    of the cubes left are the first enumeration's rows without a removed
    cube, in check order, and a removal drops those rows.  Each set must be
    lexsorted, as forest levels are."""
    tree = np.repeat(np.arange(len(sets)), [cubes.shape[0] for cubes in sets])
    counts = {name: np.zeros(len(sets), dtype=np.int64) for name in SWEEP_COUNTERS}
    sets = list(sets)
    for owner, wit, _ in _detect_groups(
        counts, tree, np.concatenate(sets), desc, n, tolerance, enumerate_all=True
    ):
        for t, rows in _tree_slices(owner, wit):
            # each set is lexsorted, as forest levels are, so its cube keys
            # are sorted and a witness cube's row in it is a searchsorted
            key, cube_key = _row_keys(rows.reshape(-1, desc.d), sets[t])
            wit_rows = np.searchsorted(cube_key, key).reshape(rows.shape[:2])
            keep = np.ones(sets[t].shape[0], dtype=bool)
            for _ in range(removals[t]):
                seen = wit_rows[:MAX_WITNESSES].ravel()
                if seen.shape[0] == 0:
                    break
                tally = np.bincount(seen)
                # the first-seen of the cubes with the highest tally
                worst = seen[np.argmax(tally[seen] == tally.max())]
                keep[worst] = False
                wit_rows = wit_rows[np.all(wit_rows != worst, axis=1)]
            sets[t] = sets[t][keep]
    return sets


def _greedy_removal(cubes, desc, n, removals, tolerance):
    """The one-tree call of _greedy_removals."""
    return _greedy_removals([cubes], desc, n, [removals], tolerance)[0]


def subset_stress_test(
    law, variant, desc, fraction, strategy, n, replicates, base_seed=0, tolerance=None,
):
    """Presence frequency after deleting a fraction of the surviving cubes.

    strategy "random" removes uniformly; "greedy" repeatedly removes the cube
    participating in the most of the first MAX_WITNESSES currently-detected
    witnesses (an adversarial heuristic, not an optimal hitting set).  The
    replicates' trees, of the given law and variant, are grown as one forest;
    greedy enumerates the witnesses of every replicate in one batch, and after
    the removals, the remaining cubes of every replicate are detected as one
    batch.  The row's counters are the totals
    of SWEEP_COUNTERS over it.
    """
    if not 0.0 <= fraction < 1.0:
        raise ConfigError("fraction must be in [0, 1)")
    if strategy not in ("random", "greedy"):
        raise ConfigError("strategy must be random or greedy")
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    seeds = replicate_seeds(base_seed, replicates)
    owner, cubes = sample_forest(law, variant, seeds, n)[n]
    remaining = _split_by_tree(owner, cubes, replicates)
    removals = [math.ceil(fraction * rows.shape[0]) for rows in remaining]
    if strategy == "random":
        remaining = [
            rows[np.sort(np.random.default_rng(seed).permutation(rows.shape[0])[k:])]
            for seed, rows, k in zip(seeds, remaining, removals)
        ]
    else:
        remaining = _greedy_removals(remaining, desc, n, removals, tolerance)
    owner = np.repeat(np.arange(replicates), [rows.shape[0] for rows in remaining])
    _, counts = _detect_forest(owner, np.concatenate(remaining), replicates, desc, n, tolerance)
    counters = {name: int(counts[name].sum()) for name in SWEEP_COUNTERS}
    hits = counters["detected"]
    lo, hi = wilson_interval(hits, replicates)
    return SweepRow(float(fraction), hits / replicates, lo, hi, replicates, counters)


# ---------------------------------------------------------------------------
# Harris inequality check

@dataclass
class HarrisResult:
    p1: float
    p2: float
    p12: float
    bound: float          # (1-q) p1 p2
    margin: float         # p12 - bound
    sigma: float
    violated: bool
    counts: tuple = ()    # replicates with event 1, event 2 and both


# Random nested pairs on which harris_check probes each event.
MONOTONE_TRIALS = 100


def _monotone_probe(event, d, n, rng):
    """Spot-check monotonicity on MONOTONE_TRIALS random nested pairs:
    event(subset) must imply event(superset)."""
    full = np.array(
        list(itertools.product(range(1 << min(n, 3)), repeat=d)), dtype=np.int64
    )
    nn = min(n, 3)
    for _ in range(MONOTONE_TRIALS):
        size_a = rng.integers(0, full.shape[0] + 1)
        pick = rng.permutation(full.shape[0])
        a = full[np.sort(pick[:size_a])]
        extra = rng.integers(0, full.shape[0] - size_a + 1) if size_a < full.shape[0] else 0
        b = full[np.sort(pick[: size_a + extra])]
        if event(a, nn) and not event(b, nn):
            return False
    return True


def harris_check(event1, event2, law, n, replicates, base_seed=0, variant="extinction"):
    """Positive association of two monotone events under percolation:
    P(C1 and C2) >= (1-q) P(C1) P(C2).

    Events are callables (level_n_cubes, n) -> bool, verified monotone on
    random nested pairs first.  Flags a violation only beyond 4 joint sigma.
    """
    (res,) = _harris_checks([(event1, event2)], law, n, replicates, base_seed, variant)
    return res


def _harris_checks(pairs, law, n, replicates, base_seed, variant):
    """harris_check of each (event1, event2) of `pairs` on the same
    replicates, grown once.  Each pair's events are probed with a fresh rng,
    as one harris_check call would probe them."""
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    for event1, event2 in pairs:
        rng = np.random.default_rng(base_seed ^ 0x5DEECE66D)
        for ev, name in ((event1, "event1"), (event2, "event2")):
            if not _monotone_probe(ev, law.d, n, rng):
                raise ConfigError(f"{name} is not monotone on sampled nested pairs")
    seeds = replicate_seeds(base_seed, replicates)
    counts = np.zeros((len(pairs), 3), dtype=np.int64)
    for levels in forest_groups(law, variant, seeds, n):
        roots = levels[0][0]
        tree, cubes, _ = levels[n]
        for level_n in _split_by_tree(tree - roots[0], cubes, roots.shape[0]):
            for k, (event1, event2) in enumerate(pairs):
                e1 = bool(event1(level_n, n))
                e2 = bool(event2(level_n, n))
                counts[k] += (e1, e2, e1 and e2)
    q = 0.0 if variant == "surviving" else law.q  # coupled grows extinction
    out = []
    for c in counts.tolist():
        p1, p2, p12 = (x / replicates for x in c)
        bound = (1 - q) * p1 * p2
        var = (
            p12 * (1 - p12)
            + ((1 - q) * p2) ** 2 * p1 * (1 - p1)
            + ((1 - q) * p1) ** 2 * p2 * (1 - p2)
        ) / replicates
        sigma = math.sqrt(var)
        margin = p12 - bound
        out.append(HarrisResult(
            p1=p1, p2=p2, p12=p12, bound=bound, margin=margin, sigma=sigma,
            violated=bool(margin < -4 * sigma), counts=tuple(c),
        ))
    return out


# ---------------------------------------------------------------------------
# Box dimension

def box_dimension_estimate(tree, n_lo, n_hi):
    """Least-squares slope of log2 N_j against j over [n_lo, n_hi]."""
    return count_slope([tree.count(j) for j in range(tree.depth + 1)], n_lo, n_hi)


def count_slope(counts, n_lo, n_hi):
    """box_dimension_estimate of a tree whose level j holds counts[j] cubes."""
    js = _fit_levels(n_lo, n_hi)
    counts = [counts[j] for j in js]
    if any(c == 0 for c in counts):
        raise ConfigError("empty level in the requested range")
    logs = np.log2(counts)
    return float(np.polyfit(js, logs, 1)[0])
