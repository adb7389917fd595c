"""Geometric configuration catalog, finite-resolution detectors, threshold
sweeps, realized-value sets, parameter-set dimension and stress tests.
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
    GaltonWatsonLaw,
    coupled_slice,
    expand_extinction,
    sample_tree,
)
from .intersect import (
    _Batch, _lex_member, _pairwise_distinct, _poly_keep, _stack, _traverse,
)
from .rng import derive, root_key

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

DEFAULT_CUBE_BUDGET = 5_000_000


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
    def scale_invariant(self):
        return self.family in SCALE_INVARIANT

    @property
    def ambient(self):
        return self.m * self.d

    @functools.cached_property
    def _detection_target(self):
        """The plane or polynomial systems detection tests, built once."""
        if self.family in PLANE_FAMILIES:
            return configuration_plane(self)
        return _detection_polys(self)

    def to_text(self):
        parts = [f"family={self.family}", f"d={self.d}"]
        for k, v in self.params.items():
            arr = np.asarray(v, dtype=float)
            parts.append(f"{k}={';'.join(repr(float(x)) for x in arr.ravel())}")
        return " ".join(parts)

    @classmethod
    def from_text(cls, text):
        kv = {}
        for tok in text.split():
            k, _, v = tok.partition("=")
            kv[k] = v
        family = kv.pop("family")
        d = int(kv.pop("d"))
        params = {}
        for k, v in kv.items():
            vals = [float(x) for x in v.replace(";", ",").split(",")]
            if k == "sites":
                params[k] = np.array(vals).reshape(-1, d)
            elif k == "ratios":
                params[k] = tuple(vals)
            else:
                params[k] = vals[0] if len(vals) == 1 else vals
        return cls(family=family, d=d, params=params)


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


def _unique_rows(rows):
    """np.unique(rows, axis=0): the distinct rows, lexicographically sorted."""
    if rows.shape[0] == 0:
        return rows
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(rows.shape[0], dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    return rows[new]


def _ancestor_levels(cubes, n):
    """Level index arrays 0..n reconstructed from an arbitrary level-n set,
    each level from its children."""
    cubes = np.asarray(cubes, dtype=np.int64)
    if cubes.ndim == 1:
        cubes = cubes[:, None]
    levels = [_unique_rows(cubes)]
    for _ in range(n):
        levels.append(_unique_rows(levels[-1] >> 1))
    return levels[::-1]


def _plane_fit_rows(desc, centers, tolerance, min_diameter=0.0):
    """Least-squares homothety/translation fits of rows of centers (B, m, d)
    to the sites.

    Returns (ok (B,), params(i)): each point's residual must stay within
    tolerance, the scale must be positive for the homothetic family, and the
    realized copy's diameter must reach min_diameter (0 disables the floor).
    Every row is fitted with the reductions a single (m, d) fit would use."""
    sites = desc.params["sites"]
    c = centers
    if desc.family == "homothetic":
        sbar = sites.mean(axis=0)
        cbar = c.mean(axis=1)
        denom = float(np.sum((sites - sbar) ** 2))
        prod = (sites - sbar) * (c - cbar[:, None, :])
        lam = np.sum(prod.reshape(c.shape[0], -1), axis=1) / denom
        b = cbar - lam[:, None] * sbar
        resid = c - (b[:, None, :] + lam[:, None, None] * sites)
        diam = max(
            float(np.linalg.norm(sites[i] - sites[j]))
            for i in range(desc.m) for j in range(i + 1, desc.m)
        )
        ok = (
            (lam > 0)
            & (lam * diam >= min_diameter)
            & (np.max(np.linalg.norm(resid, axis=2), axis=1) <= tolerance)
        )
        return ok, lambda i: {"scale": float(lam[i]), "offset": b[i].tolist()}
    b = (c - sites).mean(axis=1)
    resid = c - (sites + b[:, None, :])
    ok = np.max(np.linalg.norm(resid, axis=2), axis=1) <= tolerance
    return ok, lambda i: {"offset": b[i].tolist()}


def _polynomial_fit_rows(polys, centers, tolerance):
    """Roots of (one of) the polynomial systems inside the tolerance box
    around each row of centers (B, M), found by Gauss-Newton polish; a row
    tries the next system only when the previous one gave it no root.

    Returns (ok (B,), params(i), unconverged (B,)), the last counting the
    Newton runs on each row that did not converge."""
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
    return ok, lambda i: {"points": points[i].tolist()}, unconverged


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
    a plane, or in the cube widened by `tolerance` for polynomials."""
    if desc.family in PLANE_FAMILIES:
        radius = math.sqrt(desc.m) * tolerance
        return lambda idx, lev: geometry.plane_level_keep(target, idx, lev, radius)
    return lambda idx, lev: _poly_keep(target, idx, lev, tolerance)


def _candidate_tuples(cubes, desc, n, tolerance, target, budget):
    """Branch-and-bound over the product of the cube hierarchy: the masses'
    traversal of one tree, the cubes' ancestors, serving every factor.

    Returns the level arrays 0..n and the level-n tuples (B, m) of rows of
    pairwise-distinct cubes that survive the safe prune, in traversal order."""
    levels = _ancestor_levels(cubes, n)
    batch = _Batch(desc.m, 1, 1, [_stack([lev]) for lev in levels])
    keep = _detection_keep(desc, target, tolerance)
    for _, state, _ in _traverse(batch, keep, n, budget, distinct=n):
        pass
    return levels, state


def detect_configuration(
    cubes,
    desc,
    n,
    tolerance=None,
    budget=DEFAULT_CUBE_BUDGET,
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
    Candidates are verified in blocks of doubling size, so the search stops
    soon after the first witness; the witness and `tuples_checked` (its
    position + 1) are those of checking the candidates one by one.

    min_diameter sets a resolvability floor on the realized copy's diameter
    for the scale-bearing homothetic family (sub-resolution copies arise from
    any cube cluster and say nothing about the limit set).
    """
    d, m = desc.d, desc.m
    if tolerance is None:
        tolerance = math.sqrt(d) * 2.0 ** -n
    if tolerance < math.sqrt(d) * 2.0 ** -n * (1 - 1e-9):
        raise ConfigError("tolerance below the cube-center resolution floor")
    if m > 4 and n > 8:
        raise BudgetError("arity > 4 beyond level 8 is out of budget")
    cubes = np.asarray(cubes, dtype=np.int64)
    if cubes.ndim == 1:
        cubes = cubes[:, None]
    if cubes.shape[0] < m:
        return DetectionResult(False, None, tolerance, n)
    target = desc._detection_target
    levels, state = _candidate_tuples(cubes, desc, n, tolerance, target, budget)

    side = 2.0 ** -n
    cap = max(1, geometry.CHUNK_FLOATS // desc.ambient)
    size = cap if enumerate_all else 1
    witnesses = []
    unconverged = 0
    start = 0
    while start < state.shape[0]:
        block = state[start : start + size]
        centers = (levels[n][block].astype(float) + 0.5) * side  # (B, m, d)
        if desc.family in PLANE_FAMILIES:
            ok, params = _plane_fit_rows(desc, centers, tolerance, min_diameter)
            fails = np.zeros(block.shape[0], dtype=np.int64)
        else:
            ok, params, fails = _polynomial_fit_rows(
                target, centers.reshape(block.shape[0], -1), tolerance
            )

        def witness(i):
            cubes_i = [tuple(int(v) for v in levels[n][r]) for r in block[i]]
            return {"cubes": cubes_i, "params": params(i)}

        hits = np.flatnonzero(ok)
        if hits.size and not enumerate_all:
            i = int(hits[0])
            unconverged += int(fails[: i + 1].sum())
            return DetectionResult(
                True, witness(i), tolerance, n, start + i + 1, unconverged
            )
        unconverged += int(fails.sum())
        witnesses.extend(witness(i) for i in hits)
        start += block.shape[0]
        size = min(2 * size, cap)
    if enumerate_all:
        return DetectionResult(
            bool(witnesses), witnesses or None, tolerance, n, start, unconverged
        )
    return DetectionResult(False, None, tolerance, n, start, unconverged)


# ---------------------------------------------------------------------------
# Realized value sets

def _merge_intervals(intervals):
    if not intervals:
        return []
    intervals = sorted(intervals)
    out = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(a, b) for a, b in out]


def realized_value_set(cubes, functional, n, d, max_tuples=2_000_000, seed=0):
    """Union of closed intervals of functional values realized by surviving
    cube tuples, each value dilated by a local Lipschitz slack covering the
    cube around each center.

    functional: "distance" (pairs), "angle" (cosine at the middle point,
    triples) or "volume" (simplex volume, d+1 points).  Triple-and-up
    enumerations beyond max_tuples are uniformly subsampled.
    """
    cubes = np.asarray(cubes, dtype=np.int64)
    if cubes.ndim == 1:
        cubes = cubes[:, None]
    side = 2.0 ** -n
    centers = (cubes.astype(float) + 0.5) * side
    ptol = 0.5 * math.sqrt(d) * side  # max center-to-point distance in a cube
    nn = centers.shape[0]
    if nn == 0:
        return []
    if functional == "distance":
        intervals = []
        bin_w = side / 4.0
        hist = set()
        chunk = max(1, int(2e7) // max(nn, 1))
        for start in range(0, nn, chunk):
            block = centers[start : start + chunk]
            dist = np.sqrt(
                ((block[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
            ).ravel()
            dist = dist[dist > 0]
            hist.update(np.unique(np.round(dist / bin_w).astype(np.int64)).tolist())
        slack = 2.0 * ptol + bin_w  # Lipschitz constant 1 per endpoint
        for b in sorted(hist):
            v = b * bin_w
            intervals.append((max(v - slack, 0.0), v + slack))
        return _merge_intervals(intervals)

    arity = 3 if functional == "angle" else d + 1
    rng = np.random.default_rng(seed)
    total = nn ** arity
    if total > max_tuples:
        tuples = rng.integers(0, nn, size=(max_tuples, arity))
    else:
        tuples = np.array(
            list(itertools.product(range(nn), repeat=arity)), dtype=np.int64
        )
    tuples = tuples[_pairwise_distinct(tuples)]
    pts = centers[tuples]  # (K, arity, d)
    if functional == "angle":
        u = pts[:, 0] - pts[:, 1]
        v = pts[:, 2] - pts[:, 1]
        nu = np.linalg.norm(u, axis=1)
        nv = np.linalg.norm(v, axis=1)
        good = (nu > 4 * ptol) & (nv > 4 * ptol)
        vals = (u * v).sum(1)[good] / (nu * nv)[good]
        # d(cos)/d(point) <= 2 / min-leg-length
        slacks = 2.0 * ptol * 2.0 / np.minimum(nu, nv)[good] * 3.0
    elif functional == "volume":
        mat = np.concatenate([pts, np.ones(pts.shape[:2] + (1,))], axis=2)
        vals = np.abs(np.linalg.det(np.swapaxes(mat, 1, 2))) / math.factorial(d)
        diam = pts.max(axis=(1, 2)) - pts.min(axis=(1, 2)) + 1e-9
        slacks = arity * ptol * (diam ** (d - 1)) / math.factorial(d - 1)
    else:
        raise ConfigError(f"unknown functional {functional!r}")
    intervals = [
        (float(v - s), float(v + s)) for v, s in zip(vals, np.broadcast_to(slacks, vals.shape))
    ]
    return _merge_intervals(intervals)


def intervals_cover(intervals, lo, hi):
    """True when [lo, hi] is fully covered by the interval union."""
    for a, b in intervals:
        if a <= lo <= b:
            if b >= hi:
                return True
            lo = b
    return False


# ---------------------------------------------------------------------------
# Sweeps and statistics

def wilson_interval(successes, trials, z=1.959963984540054):
    if trials == 0:
        return 0.0, 1.0
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


def sweep_min_diameter(desc, n):
    """Default resolvability floor used by sweeps: eight cube diagonals.
    Calibrated so that sub-resolution homothetic copies (which any cube
    cluster produces regardless of the regime) do not mask the threshold."""
    if desc.family == "homothetic":
        return 8.0 * math.sqrt(desc.d) * 2.0 ** -n
    return 0.0


def presence_profile(
    desc, p_grid, n, seed, coupled=True, tolerance=None,
    variant="surviving", budget=DEFAULT_CUBE_BUDGET, min_diameter=None,
):
    """Presence indicator per p for a single replicate.

    Coupled mode percolates one uniform field and slices it at each p, so the
    profile is monotone nondecreasing in p by construction (a detection at
    some p short-circuits every larger p: supersets preserve detections).
    """
    if min_diameter is None:
        min_diameter = sweep_min_diameter(desc, n)
    p_grid = sorted(float(p) for p in p_grid)
    out = []
    present_above = False
    for p in p_grid:
        if coupled and present_above:
            out.append(True)
            continue
        if coupled:
            tree = coupled_slice(desc.d, seed, p, n)
        else:
            law = GaltonWatsonLaw.create(d=desc.d, p=p)
            tree = sample_tree(law, variant, seed, n)
        res = detect_configuration(
            tree.levels[n], desc, n, tolerance=tolerance, budget=budget,
            min_diameter=min_diameter,
        )
        out.append(bool(res.present))
        present_above = present_above or res.present
    return out


def threshold_sweep(
    desc, p_grid, n, replicates, coupled=True, base_seed=0,
    tolerance=None, variant="surviving", budget=DEFAULT_CUBE_BUDGET,
    min_diameter=None,
):
    """Presence frequency of the configuration per retention probability.

    Coupled mode guarantees per-replicate monotonicity in p (one uniform
    field per replicate, sliced at every p).
    """
    p_grid = sorted(float(p) for p in p_grid)
    hits = [0] * len(p_grid)
    for r in range(replicates):
        seed = int(derive(root_key(base_seed), r + 1))
        prof = presence_profile(
            desc, p_grid, n, seed, coupled=coupled, tolerance=tolerance,
            variant=variant, budget=budget, min_diameter=min_diameter,
        )
        for i, ok in enumerate(prof):
            hits[i] += ok
    rows = []
    for p, h in zip(p_grid, hits):
        lo, hi = wilson_interval(h, replicates)
        rows.append(SweepRow(p, h / replicates, lo, hi, replicates))
    return rows


# ---------------------------------------------------------------------------
# Pattern parameter set dimension

def pattern_witnesses(cubes, sites, n, d, tolerance=None, budget=DEFAULT_CUBE_BUDGET):
    """All (scale, offset) parameters of homothetic copies of the site
    pattern realized by distinct surviving cube tuples at level n."""
    m = sites.shape[0]
    desc = ConfigDescriptor(family="homothetic", d=d, params={"sites": sites})
    if tolerance is None:
        tolerance = math.sqrt(d) * 2.0 ** -n
    cubes = np.asarray(cubes, dtype=np.int64)
    if cubes.ndim == 1:
        cubes = cubes[:, None]
    side = 2.0 ** -n
    if m == 2 and d == 1:
        # vectorized fast path over ordered pairs
        c = (cubes[:, 0].astype(float) + 0.5) * side
        s0, s1 = float(sites[0, 0]), float(sites[1, 0])
        ci = c[:, None]
        ck = c[None, :]
        a = (ck - ci) / (s1 - s0)
        b = ci - a * s0
        ok = a > 0
        return np.stack([a[ok], b[ok]], axis=1)
    res = detect_configuration(
        cubes, desc, n, tolerance=tolerance, budget=budget, enumerate_all=True
    )
    if not res.present:
        return np.zeros((0, d + 1))
    out = []
    for wit in res.witness:
        out.append([wit["params"]["scale"]] + list(wit["params"]["offset"]))
    return np.array(out)


@dataclass
class DimensionEstimate:
    slope: float
    predicted: float
    counts: list
    j_range: tuple


def box_count_slope(points, j_lo, j_hi, lower=None, upper=None):
    """Least-squares slope of log2(number of occupied 2^-j boxes) vs j."""
    pts = np.asarray(points, dtype=float)
    counts = []
    js = list(range(j_lo, j_hi + 1))
    for j in js:
        cells = np.unique(np.floor(pts * (1 << j)).astype(np.int64), axis=0)
        counts.append(cells.shape[0])
    logs = np.log2(np.maximum(counts, 1))
    slope = float(np.polyfit(js, logs, 1)[0])
    return slope, counts


def pattern_parameter_dimension(
    tree, sites, n, j_lo=4, j_hi=None, tolerance=None, budget=DEFAULT_CUBE_BUDGET
):
    """Box-count dimension of the set of (scale, offset) parameters whose
    homothetic copy of the site pattern is realized at level n, against the
    predicted value m (s - d) + d + 1."""
    sites = np.asarray(sites, dtype=float)
    if sites.ndim == 1:
        sites = sites[:, None]
    d = tree.law.d
    m = sites.shape[0]
    if j_hi is None:
        j_hi = n - 1
    wit = pattern_witnesses(tree.levels[n], sites, n, d, tolerance, budget)
    predicted = m * (tree.law.s - d) + d + 1
    if wit.shape[0] == 0:
        return DimensionEstimate(0.0, predicted, [0] * (j_hi - j_lo + 1), (j_lo, j_hi))
    slope, counts = box_count_slope(wit, j_lo, j_hi)
    return DimensionEstimate(slope, predicted, counts, (j_lo, j_hi))


# ---------------------------------------------------------------------------
# Percolation dimension test

def _percolate_within(ancestors, d, p, seed, n):
    """Extinction percolation restricted to the ancestor hierarchy of a cube
    set; returns the surviving level-n cubes inside the set."""
    idx = np.zeros((1, d), dtype=np.int64)
    keys = np.array([root_key(seed)], dtype=np.uint64)
    for lev in range(n):
        cidx, ckeys, _ = expand_extinction(idx, keys, d, p)
        keep = _lex_member(ancestors[lev + 1], cidx)
        idx, keys = cidx[keep], ckeys[keep]
        if idx.shape[0] == 0:
            return idx
    return idx


@dataclass
class PercDimResult:
    curve: list          # SweepRow per p
    p_star: float
    dim_estimate: float  # d - s(d, p_star) = -log2(p_star)


def percolation_dimension_test(cubes, n, d, p_grid, replicates, base_seed=0):
    """Frequency, per p, that an independent percolation hits the given
    level-n cube set; the steepest transition p* estimates dim = -log2(p*)."""
    cubes = np.asarray(cubes, dtype=np.int64)
    if cubes.ndim == 1:
        cubes = cubes[:, None]
    if cubes.shape[0] == 0:
        raise ConfigError("empty target set")
    ancestors = _ancestor_levels(cubes, n)
    rows = []
    p_grid = sorted(float(p) for p in p_grid)
    for pi, p in enumerate(p_grid):
        hit = 0
        for r in range(replicates):
            seed = int(derive(root_key(base_seed), (pi + 1) * 1_000_003 + r))
            surv = _percolate_within(ancestors, d, p, seed, n)
            if surv.shape[0] > 0:
                hit += 1
        lo, hi = wilson_interval(hit, replicates)
        rows.append(SweepRow(p, hit / replicates, lo, hi, replicates))
    # steepest transition
    best, p_star = -1.0, p_grid[0]
    for a, b in zip(rows, rows[1:]):
        dp = b.p - a.p
        slope = (b.frequency - a.frequency) / dp if dp > 0 else 0.0
        if slope > best:
            best = slope
            p_star = 0.5 * (a.p + b.p)
    return PercDimResult(curve=rows, p_star=p_star, dim_estimate=-math.log2(p_star))


# ---------------------------------------------------------------------------
# Subset stress test

def subset_stress_test(
    tree, desc, fraction, strategy, n, replicates, base_seed=0,
    tolerance=None, budget=DEFAULT_CUBE_BUDGET, max_witnesses=200_000,
):
    """Presence frequency after deleting a fraction of the surviving cubes.

    strategy "random" removes uniformly; "greedy" repeatedly removes the cube
    participating in the most currently-detected witnesses (an adversarial
    heuristic, not an optimal hitting set).  Trees are re-drawn per replicate
    from the law and variant of the given tree.
    """
    if not 0.0 <= fraction < 1.0:
        raise ConfigError("fraction must be in [0, 1)")
    if strategy not in ("random", "greedy"):
        raise ConfigError("strategy must be random or greedy")
    hits = 0
    for r in range(replicates):
        seed = int(derive(root_key(base_seed), r + 1))
        t = sample_tree(tree.law, tree.variant, seed, n)
        cubes = t.levels[n]
        budget_removals = math.ceil(fraction * cubes.shape[0])
        if strategy == "random":
            rng = np.random.default_rng(seed)
            keep = rng.permutation(cubes.shape[0])[budget_removals:]
            remaining = cubes[np.sort(keep)]
        else:
            remaining = cubes
            for _ in range(budget_removals):
                res = detect_configuration(
                    remaining, desc, n, tolerance=tolerance, budget=budget,
                    enumerate_all=True,
                )
                if not res.present:
                    break
                tally = {}
                for wit in res.witness[:max_witnesses]:
                    for cube in wit["cubes"]:
                        tally[cube] = tally.get(cube, 0) + 1
                worst = max(tally, key=tally.get)
                mask = ~np.all(remaining == np.array(worst), axis=1)
                remaining = remaining[mask]
        res = detect_configuration(
            remaining, desc, n, tolerance=tolerance, budget=budget
        )
        hits += bool(res.present)
    lo, hi = wilson_interval(hits, replicates)
    return SweepRow(float(fraction), hits / replicates, lo, hi, replicates)


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


def _monotone_probe(event, d, n, rng, trials=100):
    """Spot-check monotonicity: event(subset) must imply event(superset)."""
    full = np.array(
        list(itertools.product(range(1 << min(n, 3)), repeat=d)), dtype=np.int64
    )
    nn = min(n, 3)
    for _ in range(trials):
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
    rng = np.random.default_rng(base_seed ^ 0x5DEECE66D)
    for ev, name in ((event1, "event1"), (event2, "event2")):
        if not _monotone_probe(ev, law.d, n, rng):
            raise ConfigError(f"{name} is not monotone on sampled nested pairs")
    c1 = c2 = c12 = 0
    for r in range(replicates):
        seed = int(derive(root_key(base_seed), r + 1))
        t = sample_tree(law, variant, seed, n)
        e1 = bool(event1(t.levels[n], n))
        e2 = bool(event2(t.levels[n], n))
        c1 += e1
        c2 += e2
        c12 += e1 and e2
    p1, p2, p12 = c1 / replicates, c2 / replicates, c12 / replicates
    q = law.q if variant == "extinction" else 0.0
    bound = (1 - q) * p1 * p2
    var = (
        p12 * (1 - p12)
        + ((1 - q) * p2) ** 2 * p1 * (1 - p1)
        + ((1 - q) * p1) ** 2 * p2 * (1 - p2)
    ) / replicates
    sigma = math.sqrt(var)
    margin = p12 - bound
    return HarrisResult(
        p1=p1, p2=p2, p12=p12, bound=bound, margin=margin, sigma=sigma,
        violated=bool(margin < -4 * sigma),
    )


# ---------------------------------------------------------------------------
# Box dimension

def box_dimension_estimate(tree, n_lo, n_hi):
    """Least-squares slope of log2 N_j against j over [n_lo, n_hi]."""
    if n_hi - n_lo < 2:
        raise ConfigError("need at least 3 levels")
    js = list(range(n_lo, n_hi + 1))
    counts = [tree.count(j) for j in js]
    if any(c == 0 for c in counts):
        raise ConfigError("empty level in the requested range")
    logs = np.log2(counts)
    return float(np.polyfit(js, logs, 1)[0])
