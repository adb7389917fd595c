"""Affine planes, principal angles, plane-cube measures, transversality.

Measures use half-open cube semantics throughout so that level-n cubes tile
[0,1)^M exactly and per-cube measures are additive.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError

ORTHO_TOL = 1e-10
RANK_TOL = 1e-8
# singular value threshold above which two basis directions are considered
# a shared (zero-angle) direction
_COS_ONE = 1.0 - 1e-9

DEFAULT_MC_SAMPLES = 1 << 16


def orthonormalize(vectors):
    """Orthonormal row basis of the span of the given row vectors."""
    a = np.atleast_2d(np.asarray(vectors, dtype=float))
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    rank = int((sv > RANK_TOL * max(1.0, sv[0] if sv.size else 1.0)).sum())
    return vt[:rank]


@dataclass(frozen=True)
class AffinePlane:
    """k-dimensional affine subspace of R^M: offset + row-span of basis."""

    basis: np.ndarray   # (k, M), orthonormal rows
    offset: np.ndarray  # (M,)

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        o = np.asarray(self.offset, dtype=float)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "offset", o)
        if b.shape[0] > 0:
            g = b @ b.T
            if not np.allclose(g, np.eye(b.shape[0]), atol=ORTHO_TOL):
                raise DegenerateInputError("basis is not orthonormal")
        if b.shape[1] != o.shape[0]:
            raise DegenerateInputError("basis/offset ambient mismatch")

    @classmethod
    def from_spanning(cls, vectors, offset=None):
        b = orthonormalize(vectors)
        if offset is None:
            offset = np.zeros(b.shape[1])
        return cls(basis=b, offset=np.asarray(offset, dtype=float))

    @property
    def ambient(self):
        return self.basis.shape[1]

    @functools.cached_property
    def normals(self):
        """Orthonormal rows spanning the orthogonal complement of the
        directions; computed once per plane, read-only."""
        nv = orthonormalize_complement(self.basis)
        nv.setflags(write=False)
        return nv

    @functools.cached_property
    def _slabs(self):
        """Per unit normal: the constants of `plane_level_keep`."""
        k, m = self.dim, self.ambient
        slabs = []
        for u in self.normals:
            v = float(u @ self.offset)
            axes = np.flatnonzero(np.abs(u) > 1e-12)
            if k == m - 1 and m >= 3 and axes.size >= 2:
                # the hyperplane kernel's own normal, axes and tolerance,
                # narrowed by a quarter of it
                u, widen, slack = u[axes], -0.25, 0.0
            else:
                axes, widen, slack = np.arange(m), 1.0, 1e-12
            # the tolerance at side 1; at side s it is this / s, as in the
            # kernel
            tol = _support_tol(u, v, 1.0)
            lo_end, hi_end = float(u[u < 0].sum()), float(u[u > 0].sum())
            slabs.append((u, axes, v, lo_end, hi_end, tol, widen, slack))
        return slabs

    @property
    def dim(self):
        return self.basis.shape[0]

    def point_distance(self, x):
        """Euclidean distance from point(s) x to the plane. x: (..., M)."""
        y = np.asarray(x, dtype=float) - self.offset
        if self.dim == 0:
            return np.linalg.norm(y, axis=-1)
        resid = y - (y @ self.basis.T) @ self.basis
        return np.linalg.norm(resid, axis=-1)

    def project(self, x):
        y = np.asarray(x, dtype=float) - self.offset
        return self.offset + (y @ self.basis.T) @ self.basis

    def metric_distance(self, other):
        """Operator-norm distance between the affine projections onto the
        planes: ||pi_V - pi_W|| + distance between the projected offsets."""
        pv = self.basis.T @ self.basis
        pw = other.basis.T @ other.basis
        dir_part = np.linalg.norm(pv - pw, ord=2)
        off_part = np.linalg.norm(
            self.project(np.zeros(self.ambient)) - other.project(np.zeros(self.ambient))
        )
        return dir_part + off_part


def principal_angle_spectrum(v, w):
    """All principal angles between the direction spans of v and w."""
    if v.dim == 0 or w.dim == 0:
        return np.array([])
    sv = np.linalg.svd(v.basis @ w.basis.T, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


def principal_angle(v, w):
    """Transversality angle between (the directions of) two affine planes.

    0 when dim(V cap W) exceeds the generic value max(0, dimV+dimW-M);
    otherwise the j-th smallest principal angle with j = dim(V cap W) + 1.
    By convention the angle with a 0-dimensional plane is 1, and pi/2 is
    returned when the j-th angle does not exist (e.g. W is the full space).
    """
    if v.ambient != w.ambient:
        raise ConfigError("ambient dimension mismatch")
    if v.dim == 0 or w.dim == 0:
        return 1.0
    angles = np.sort(principal_angle_spectrum(v, w))
    shared = int((np.cos(angles) > _COS_ONE).sum())  # dim of direction overlap
    generic = max(0, v.dim + w.dim - v.ambient)
    if shared > generic:
        return 0.0
    if shared >= angles.size:
        return np.pi / 2
    return float(angles[shared])


# ---------------------------------------------------------------------------
# Plane-cube measures, one dyadic level at a time

# Largest number of per-cube floats (QMC sample coordinates, hyperplane
# corner terms) a level kernel holds at once.  Cubes are measured in chunks of
# whole cubes below this cap, so peak memory does not grow with the number of
# cubes in a level.
CHUNK_FLOATS = 1 << 18


# Joe & Kuo (2008) direction-number seeds of the first 64 Sobol coordinates,
# one line each: the primitive polynomial, then m_1, ..., m_s with s its
# degree.  The first coordinate has no seeds; its direction integers are all
# 1.
_SOBOL_SEEDS = """
1
3 1
7 1 3
11 1 3 1
13 1 1 1
19 1 1 3 3
25 1 3 5 13
37 1 1 5 5 17
41 1 1 5 5 5
47 1 1 7 11 19
55 1 1 5 1 1
59 1 1 1 3 11
61 1 3 5 5 31
67 1 3 3 9 7 49
91 1 1 1 15 21 21
97 1 3 1 13 27 49
103 1 1 1 15 7 5
109 1 3 1 15 13 25
115 1 1 5 5 19 61
131 1 3 7 11 23 15 103
137 1 3 7 13 13 15 69
143 1 1 3 13 7 35 63
145 1 3 5 9 1 25 53
157 1 3 1 13 9 35 107
167 1 3 1 5 27 61 31
171 1 1 5 11 19 41 61
185 1 3 5 3 3 13 69
191 1 1 7 13 1 19 1
193 1 3 7 5 13 19 59
203 1 1 3 9 25 29 41
211 1 3 5 13 23 1 55
213 1 3 7 3 13 59 17
229 1 3 1 3 5 53 69
239 1 1 5 5 23 33 13
241 1 1 7 7 1 61 123
247 1 1 7 9 13 61 49
253 1 3 3 5 3 55 33
285 1 3 1 15 31 13 49 245
299 1 3 5 15 31 59 63 97
301 1 3 1 11 11 11 77 249
333 1 3 1 11 27 43 71 9
351 1 1 7 15 21 11 81 45
355 1 3 7 3 25 31 65 79
357 1 3 1 1 19 11 3 205
361 1 1 5 9 19 21 29 157
369 1 3 7 11 1 33 89 185
391 1 3 3 3 15 9 79 71
397 1 3 7 11 15 39 119 27
425 1 1 3 1 11 31 97 225
451 1 1 1 3 23 43 57 177
463 1 3 7 7 17 17 37 71
487 1 3 1 5 27 63 123 213
501 1 1 3 5 11 43 53 133
529 1 3 5 5 29 17 47 173 479
539 1 3 3 11 3 1 109 9 69
545 1 1 1 5 17 39 23 5 343
557 1 3 1 5 25 15 31 103 499
563 1 1 1 11 11 17 63 105 183
601 1 1 5 11 9 29 97 231 363
607 1 1 5 15 19 45 41 7 383
617 1 3 7 7 31 19 83 137 221
623 1 1 1 3 23 15 111 223 83
631 1 1 5 13 31 15 55 25 161
637 1 1 3 13 25 47 39 87 257
""".strip().splitlines()
_SOBOL_MAX_DIM = len(_SOBOL_SEEDS)
_SOBOL_BITS = 30


def _sobol_directions(dim):
    """Direction integers (bits, dim), row b for bit b of the Gray code,
    expanded from the seeds by the Bratley–Fox recurrence."""
    v = np.ones((dim, _SOBOL_BITS), dtype=np.int64)
    for d in range(1, dim):
        poly, *m = map(int, _SOBOL_SEEDS[d].split())
        s = len(m)
        v[d, :s] = m
        for j in range(s, _SOBOL_BITS):
            new = v[d, j - s]
            for k in range(1, s + 1):
                if (poly >> (s - k)) & 1:
                    new ^= v[d, j - k] << k
            v[d, j] = new
    return (v << np.arange(_SOBOL_BITS - 1, -1, -1)).T


@functools.lru_cache(maxsize=None)
def _sobol_points(dim, n):
    """The first n points of the unscrambled Sobol sequence in [0,1)^dim.

    Joe & Kuo (2008) direction numbers, points in Gray-code order at 30
    bits: bit for bit `scipy.stats.qmc.Sobol(d=dim, scramble=False).random(n)`.
    Defined for 1 <= dim <= 64 and n <= 2**30; other sizes raise ConfigError
    before anything is allocated.  Memoised and read-only: every cube maps
    the same set affinely into itself, so a cube's estimate does not depend
    on the cubes measured with it."""
    if not 1 <= dim <= _SOBOL_MAX_DIM:
        raise ConfigError(f"Sobol points need 1 <= dim <= {_SOBOL_MAX_DIM}, got {dim}")
    if not 0 <= n <= 1 << _SOBOL_BITS:
        raise ConfigError(f"Sobol points need 0 <= n <= 2**{_SOBOL_BITS}, got {n}")
    i = np.arange(1, n, dtype=np.int64)
    low_bit = np.frexp(i & -i)[1] - 1
    x = np.zeros((n, dim), dtype=np.int64)
    np.bitwise_xor.accumulate(_sobol_directions(dim)[low_bit], axis=0, out=x[1:])
    pts = x * 2.0**-_SOBOL_BITS
    pts.setflags(write=False)
    return pts


def _row_chunks(n_cubes, per_cube):
    """Row slices of whole cubes holding at most CHUNK_FLOATS floats each, at
    `per_cube` floats a cube (at least one cube per slice)."""
    step = max(1, CHUNK_FLOATS // per_cube)
    return [slice(a, min(a + step, n_cubes)) for a in range(0, n_cubes, step)]


def _level_lower(idx, level):
    """Lower corners (K, M) of the half-open level cubes with indices idx."""
    return np.asarray(idx).astype(float) * 2.0 ** -level


def _line_level_length(plane, lo, side):
    """Exact H^1 of a line intersected with each half-open box lo + [0, side)^M,
    clipping the parameter against every slab at once."""
    b = plane.basis[0]
    o = plane.offset
    cut = np.abs(b) >= 1e-14
    t0 = (lo[:, cut] - o[cut]) / b[cut]
    t1 = (lo[:, cut] + side - o[cut]) / b[cut]
    tmin = np.minimum(t0, t1).max(axis=1)
    tmax = np.maximum(t0, t1).min(axis=1)
    par = lo[:, ~cut]
    meets = np.all((par <= o[~cut]) & (o[~cut] < par + side), axis=1)
    return np.where(meets, np.maximum(0.0, tmax - tmin), 0.0)


def _box_level(u, axes, offset_val, lo, side):
    """Level c of the hyperplane {u.x = v} in each box lo + side*[0,1]^M:
    with x = lo + side*y it is {u[axes].y[axes] = c}.  Components off `axes`
    are taken as 0; the others are summed axis by axis, so a box's level does
    not depend on the boxes computed with it."""
    dot = lo[:, axes[0]] * u[0]
    for a in range(1, len(axes)):
        dot = dot + lo[:, axes[a]] * u[a]
    return (offset_val - dot) / side


def _support_tol(u, offset_val, side):
    """Rounding allowance of `_box_level`, in box units: a level within it of
    either end of u.y's range over the unit box [sum(u < 0), sum(u > 0)] is
    taken for a supporting plane, which meets the box in at most a face of
    dimension M - r (r = nonzero components of u)."""
    eps = np.finfo(float).eps
    return 16.0 * eps * (abs(offset_val) + float(np.abs(u).sum())) / side


def _hyperplane_level_section(normal, offset_val, lo, side):
    """H^(M-1) of {n.x = v} within each half-open box lo + [0, side)^M.

    The normal is fixed, so the reflected unit normal and its 2^r corner
    sums are computed once; only the level set c differs between boxes.
    """
    n = np.asarray(normal, dtype=float)
    m = n.shape[0]
    act = np.flatnonzero(np.abs(n) > 1e-12)
    r = act.size
    if r == 0:
        return np.zeros(lo.shape[0])
    # axes with zero normal component contribute a factor side each
    par_factor = side ** (m - r)
    u = n[act]
    c = _box_level(u, act, offset_val, lo, side)
    if r == 1:
        # axis-parallel hyperplane: a full (M-1)-face if the slice position
        # falls inside the half-open extent of that axis
        t = c / u[0]
        return np.where((0.0 <= t) & (t < 1.0), par_factor, 0.0)
    # A supporting plane meets the box in at most an edge (r >= 2): its area
    # is exactly 0, where the corner sums below would cancel only to rounding
    # noise.
    tol = _support_tol(u, offset_val, side)
    crosses = (c > float(u[u < 0].sum()) + tol) & (c < float(u[u > 0].sum()) - tol)
    # normalize and reflect so components are positive
    scale = np.linalg.norm(u)
    u = u / scale
    c = c / scale
    neg = u < 0
    c = c - float(u[neg].sum())
    u = np.abs(u)
    # H^(r-1) of {u.y = c} in [0,1]^r by inclusion-exclusion over corners,
    # summed in corner order
    bits = np.array(list(itertools.product((0, 1), repeat=r)), dtype=float)
    corner = np.array([float(u @ b) for b in bits])
    sign = (-1.0) ** bits.sum(axis=1)
    total = np.zeros(c.shape[0])
    for rows in _row_chunks(c.shape[0], corner.size):
        t = c[rows, None] - corner
        terms = np.where(t > 0.0, sign * t ** (r - 1), 0.0)
        total[rows] = np.add.accumulate(terms, axis=1)[:, -1]
    area_unit = total / (math.factorial(r - 1) * float(np.prod(u)))
    # a true area is never negative
    area = np.maximum(par_factor * side ** (r - 1) * area_unit, 0.0)
    return np.where(crosses, area, 0.0)


# The QMC kernel projects and embeds points with explicit axis-by-axis sums
# rather than matrix products: a BLAS product may sum in an order that depends
# on how many rows it is given, and a cube's samples must not depend on which
# other cubes share its chunk.

def _project(x, plane):
    """Plane coordinates (..., k) of points x (..., M), summed axis by axis."""
    y = x - plane.offset
    t = y[..., 0, None] * plane.basis[:, 0]
    for i in range(1, plane.ambient):
        t = t + y[..., i, None] * plane.basis[:, i]
    return t


def _embed(t, plane):
    """Points (..., M) of the plane at coordinates t (..., k)."""
    x = t[..., 0, None] * plane.basis[0]
    for a in range(1, plane.dim):
        x = x + t[..., a, None] * plane.basis[a]
    return plane.offset + x


def _plane_level_qmc(plane, lo, side, n_samples):
    """Low-discrepancy estimates of H^k(V cap box) for 1 < k < M-1.

    Samples a Sobol grid on each parameter box covering the cube's shadow on
    V and rejects against the half-open cube.  Returns (estimates, ses)."""
    k, m = plane.dim, plane.ambient
    unit = np.array(list(itertools.product((0.0, 1.0), repeat=m)), dtype=float)
    pts = _sobol_points(k, n_samples)
    vol = np.zeros(lo.shape[0])
    frac = np.zeros(lo.shape[0])
    for rows in _row_chunks(lo.shape[0], n_samples * m):
        box = lo[rows, None, :]
        t = _project(box + side * unit, plane)          # (C, 2^M, k)
        t_lo = t.min(axis=1, keepdims=True)
        t_hi = t.max(axis=1, keepdims=True)
        vol[rows] = np.prod(t_hi - t_lo, axis=2)[:, 0]
        x = _embed(t_lo + pts * (t_hi - t_lo), plane)   # (C, N, M)
        inside = np.all((x >= box) & (x < box + side), axis=2)
        frac[rows] = inside.mean(axis=1)
    # a degenerate shadow (vol <= 0) has measure 0
    frac = np.where(vol > 0.0, frac, 0.0)
    vol = np.maximum(vol, 0.0)
    est = vol * frac
    se = vol * np.sqrt(np.maximum(frac * (1 - frac), 0.0) / n_samples)
    return est, se


def plane_level_measure(plane, idx, level, n_samples=DEFAULT_MC_SAMPLES):
    """H^k measures of a plane within the half-open level cubes idx (K, M).

    Returns (values, ses), one entry per row.  Exact for k = 1 (parametric
    clipping), k = M-1 (vertex decomposition of the halfspace-box volume
    derivative) and k = M; quasi-Monte Carlo rejection sampling otherwise,
    with a standard-error estimate.  Each row is measured on its own, so a
    cube's value does not depend on the rows it is measured with.
    """
    m = plane.ambient
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[1] != m:
        raise ConfigError("plane/cube ambient mismatch")
    k = plane.dim
    if k == 0:
        raise ConfigError("0-dimensional targets are not supported")
    if k > m:
        raise DegenerateInputError("plane dimension exceeds ambient")
    side = 2.0 ** -level
    zeros = np.zeros(idx.shape[0])
    if k == m:
        return np.full(idx.shape[0], float(side ** m)), zeros
    lo = _level_lower(idx, level)
    if k == 1:
        return _line_level_length(plane, lo, side), zeros
    if k == m - 1:
        normal = plane.normals[0]
        return _hyperplane_level_section(
            normal, float(normal @ plane.offset), lo, side
        ), zeros
    return _plane_level_qmc(plane, lo, side, n_samples)


def plane_level_keep(plane, idx, level, radius=0.0):
    """Safe pruning test: False only for level cubes idx (K, M) farther than
    `radius` from the plane V, and, with radius 0, only for cubes in which V,
    and every sub-cube, has measure 0 to the level kernels.

    V lies in {u.x = u.o} for each unit normal u of its orthogonal
    complement.  In box units (x = lo + side*y) that is {u.y = c}, and u.y
    spans [sum(u < 0), sum(u > 0)] over the unit box.  A cube is kept when
    every c lies in its range widened by the supporting-plane tolerance
    `_support_tol` plus 1e-12, and by radius / side.

    With radius 0, the hyperplane kernel (k = M - 1 >= 2) measures a cube
    that its plane meets only in an edge or a corner (a normal with r >= 2
    nonzero components) as exactly 0.  For such a normal the range is then
    narrowed by a quarter of that tolerance instead.  This drops the edge
    and corner contacts, yet keeps every cube the kernel can measure as
    positive and every cube holding such a sub-cube: a sub-cube at the
    contact has the same level, up to rounding well inside the other three
    quarters.

    For codimension >= 2 the cube's centre must also lie within half a
    diagonal plus `radius` of V, which the slabs alone do not imply there.
    Every row is tested on its own, with sums taken axis by axis.
    """
    side = 2.0 ** -level
    lo = _level_lower(idx, level)
    keep = np.ones(lo.shape[0], dtype=bool)
    slabs = plane._slabs
    dist2 = 0.0
    for u, axes, v, lo_end, hi_end, tol, widen, slack in slabs:
        c = _box_level(u, axes, v, lo, side)
        # a positive radius widens every slab and never narrows one
        if radius > 0:
            widen, slack = 1.0, 1e-12
        margin = widen * tol / side + slack + radius / side
        keep &= (c > lo_end - margin) & (c < hi_end + margin)
        if len(slabs) >= 2:
            dist2 = dist2 + (0.5 * (lo_end + hi_end) - c) ** 2
    if len(slabs) >= 2:
        keep &= dist2 <= (0.5 * math.sqrt(plane.ambient) + 1e-12 + radius / side) ** 2
    return keep


def plane_cube_measure(plane, cube, n_samples=DEFAULT_MC_SAMPLES, with_se=False):
    """H^k measure of plane (cap) half-open dyadic cube: a one-row call of
    `plane_level_measure`."""
    vals, ses = plane_level_measure(
        plane, np.array([cube.index], dtype=np.int64), cube.level, n_samples
    )
    val, se = float(vals[0]), float(ses[0])
    return (val, se) if with_se else val


def orthonormalize_complement(basis):
    """Orthonormal basis of the orthogonal complement of the row span."""
    b = np.atleast_2d(basis)
    k, m = b.shape
    u, sv, vt = np.linalg.svd(b, full_matrices=True)
    return vt[k:]


# ---------------------------------------------------------------------------
# Coordinate planes H^I, H^{I,j,i} and transversality reports

def coordinate_plane(m, d, zero_factors, zero_coord=None):
    """H^I (and H^{I,j,i} when zero_coord=(j,i)) as an AffinePlane in R^(md).

    H^I = {x : x_j = 0 for j in I}; H^{I,j,i} additionally has x_j^i = 0.
    Factors and coordinates are 0-based here.
    """
    killed = set()
    for j in zero_factors:
        for i in range(d):
            killed.add(j * d + i)
    if zero_coord is not None:
        j, i = zero_coord
        killed.add(j * d + i)
    keep = [a for a in range(m * d) if a not in killed]
    basis = np.eye(m * d)[keep]
    return AffinePlane(basis=basis, offset=np.zeros(m * d))


@dataclass
class TransversalityEntry:
    zero_factors: tuple
    zero_coord: tuple | None  # (j, i) or None
    angle: float
    passed: bool


@dataclass
class TransversalityReport:
    threshold: float
    entries: list
    min_angle: float
    passed: bool


def transversality_check(planes, m, d, threshold):
    """Angles of each plane against every H^I and H^{I,j,i}.

    planes: a single AffinePlane or an iterable (e.g. sampled tangents).
    Pass iff every measured angle is >= threshold.  I ranges over proper
    subsets of the m factors; I = empty set contributes only the coordinate
    hyperplanes H^{0,j,i}.
    """
    if isinstance(planes, AffinePlane):
        planes = [planes]
    entries = []
    factor_ids = range(m)
    for plane in planes:
        if plane.ambient != m * d:
            raise ConfigError("plane ambient must be m*d")
        for r in range(m):
            for subset in itertools.combinations(factor_ids, r):
                if subset:
                    h = coordinate_plane(m, d, subset)
                    ang = principal_angle(plane, h)
                    entries.append(
                        TransversalityEntry(subset, None, ang, ang >= threshold)
                    )
                for j in factor_ids:
                    if j in subset:
                        continue
                    for i in range(d):
                        h = coordinate_plane(m, d, subset, zero_coord=(j, i))
                        ang = principal_angle(plane, h)
                        entries.append(
                            TransversalityEntry(subset, (j, i), ang, ang >= threshold)
                        )
    min_angle = min(e.angle for e in entries) if entries else np.pi / 2
    return TransversalityReport(
        threshold=threshold,
        entries=entries,
        min_angle=float(min_angle),
        passed=all(e.passed for e in entries),
    )


# ---------------------------------------------------------------------------
# Text format: "k offset; basis rows"

def plane_to_text(plane):
    off = " ".join(repr(float(v)) for v in plane.offset)
    rows = "; ".join(
        " ".join(repr(float(v)) for v in row) for row in plane.basis
    )
    return f"{plane.dim} {off}; {rows}"


def plane_from_text(text):
    head, *rows = text.split(";")
    toks = head.split()
    k = int(toks[0])
    offset = np.array([float(t) for t in toks[1:]])
    basis = np.array([[float(t) for t in row.split()] for row in rows if row.strip()])
    if len(basis) != k:
        raise ConfigError("basis row count does not match declared dimension")
    return AffinePlane(basis=basis, offset=offset)
