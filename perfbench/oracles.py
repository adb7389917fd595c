"""Closed forms and brute-force references the benchmark checks runs against.

Nothing here calls into `fracperc`: every value is computed from the cube
indices alone, in exact integer arithmetic where the geometry allows it.
"""

import math

import numpy as np

SQRT6_HALF = math.sqrt(6.0) / 2.0


def progression_section_area(i1, i2, i3, level):
    """Area of the plane x - 2y + z = 0 inside the level-`level` cube with
    integer index (i1, i2, i3).

    Projecting onto the (x, z) plane scales area by |n| / |n_y| = sqrt(6)/2.
    Over a cube of side h the projected set is {(u, w) in [0,1)^2 :
    2 i2 <= i1 + i3 + u + w < 2 i2 + 2} (in units of h), whose area is
    G(k + 2) - G(k) with k = 2 i2 - i1 - i3 and G(s) the area of u + w < s.
    For integer k that is 1 when k = 0, 1/2 when |k| = 1 and 0 otherwise.
    """
    k = np.abs(np.asarray(i1) - 2 * np.asarray(i2) + np.asarray(i3))
    frac = np.where(k == 0, 1.0, np.where(k == 1, 0.5, 0.0))
    return SQRT6_HALF * 4.0 ** -level * frac


def progression_plane_mass(levels_1d, p, n):
    """Brute-force Y_n of the three-term-progression plane for three d=1
    factor cube sets: p^-3n times the section area summed over every
    level-n product cube, with no pruning.

    The sum is counted exactly: the number of triples with i1 + i3 = s is a
    convolution of the factor indicator vectors, and the section area of
    (i1, i2, i3) depends only on i1 + i3 - 2 i2.
    """
    a1, a2, a3 = (np.bincount(np.asarray(c, dtype=np.int64).ravel(),
                              minlength=1 << n) for c in levels_1d)
    sums = np.convolve(a1, a3)          # sums[s] = #{(i1, i3): i1 + i3 = s}
    mid = np.flatnonzero(a2)
    full = sums[2 * mid].sum()

    def at(s):
        ok = (s >= 0) & (s < sums.shape[0])
        return np.where(ok, sums[np.clip(s, 0, sums.shape[0] - 1)], 0)

    half = (at(2 * mid - 1) + at(2 * mid + 1)).sum()
    weight = int(full) + 0.5 * int(half)
    return p ** (-3 * n) * SQRT6_HALF * 4.0 ** -n * weight


def pair_distance_variety_measure(lam):
    """H^3 of {(x, y) in [0,1]^2 x [0,1]^2 : |x - y| = lam}, lam <= 1.

    By the coarea formula with |grad |x - y|| = sqrt(2) it is sqrt(2) times
    the derivative in lam of vol{|x - y| <= lam}, which integrates
    (1 - |v_1|)(1 - |v_2|) over the circle |v| = lam.
    """
    return math.sqrt(2.0) * lam * (2.0 * math.pi - 8.0 * lam + 2.0 * lam * lam)


def pair_root_displacement(ca, cb, lam):
    """Largest coordinate move from the centers (ca, cb) to the nearest root
    of |x - y|^2 = lam^2.

    The nearest root moves each point by |D - lam| / 2 along the pair's
    direction u, so the largest coordinate move is |D - lam| / 2 * max|u_k|.
    ca, cb: (..., d) arrays of distinct points.
    """
    diff = np.asarray(ca, dtype=float) - np.asarray(cb, dtype=float)
    dist = np.linalg.norm(diff, axis=-1)
    return np.abs(dist - lam) / 2.0 * np.max(np.abs(diff), axis=-1) / dist


def pair_presence(cubes, n, lam, tolerance, margin=1e-9):
    """Brute-force presence of the pair distance lam among the distinct
    level-n cubes of a d-dimensional cube set.

    Returns (strict, lenient): present with every displacement judged
    `margin` inside or outside the tolerance.  They differ only when the
    deciding pair sits on the tolerance boundary, where rounding decides.
    """
    cubes = np.asarray(cubes, dtype=np.int64)
    if cubes.shape[0] < 2:
        return False, False
    centers = (cubes.astype(float) + 0.5) * 2.0 ** -n
    a, b = np.triu_indices(cubes.shape[0], k=1)
    disp = pair_root_displacement(centers[a], centers[b], lam)
    return (bool(np.any(disp <= tolerance - margin)),
            bool(np.any(disp <= tolerance + margin)))


def progression_presence(indices, min_span):
    """Brute-force presence of a homothetic copy of (0, 1, 2) among distinct
    level-n cubes of the line, as the least-squares fit judges it.

    The fit to centers c1, c2, c3 has scale (c3 - c1) / 2 and largest
    residual |c1 - 2 c2 + c3| / 3, so with tolerance one cube side the copy
    is present when |i1 - 2 i2 + i3| <= 3, the scale is positive (i3 > i1)
    and i3 - i1 >= min_span (the diameter floor in cube sides; 0 for none).

    When |i1 - 2 i2 + i3| = 3 the centroid is c2 -+ one side, so every
    quantity of the fit is a short dyadic rational and floating point gets
    the tie exactly.  On the floor tie i3 - i1 = min_span it does not, so
    (strict, lenient) are returned as for pair_presence: presence with
    i3 - i1 > min_span, and with i3 - i1 >= min_span.
    """
    idx = np.unique(np.asarray(indices, dtype=np.int64).ravel())
    if idx.shape[0] < 3:
        return False, False
    i1, i3 = (g.ravel() for g in np.meshgrid(idx, idx, indexing="ij"))

    def found(span_lo):
        sel = i3 - i1 >= span_lo
        a, b = i1[sel], i3[sel]
        for k in range(-3, 4):
            twice = a + b - k
            even = twice % 2 == 0
            i2 = twice[even] // 2
            hit = np.isin(i2, idx) & (i2 != a[even]) & (i2 != b[even])
            if hit.any():
                return True
        return False

    return found(min_span + 1 if min_span > 0 else 1), found(max(min_span, 1))
