"""Unit tests for polynomial maps: evaluation, interval enclosures, variety
surface-measure estimates and Newton refinement."""

import math
import warnings

import numpy as np
import pytest

import fracperc as fp
import fracperc.geometry as geometry
import fracperc.polynomials as polynomials
from fracperc.errors import SingularityError
from fracperc.geometry import _sobol_points
from fracperc.patterns import _detection_polys
from fracperc.polynomials import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    SINGULAR_TOL,
    _coarea_jacobian_factor,
    _coarea_level,
    _taylor_values,
    polynomial_from_text,
    polynomial_to_text,
    variety_cube_measure,
    variety_level_measure,
)


def circle_poly(cx=0.5, cy=0.5, r=0.4):
    # (x - cx)^2 + (y - cy)^2 - r^2 expanded into monomials.
    comp = {
        (2, 0): 1.0,
        (0, 2): 1.0,
        (1, 0): -2 * cx,
        (0, 1): -2 * cy,
        (0, 0): cx * cx + cy * cy - r * r,
    }
    return fp.PolynomialMap(ambient=2, components=(comp,))


def sphere_poly(c=0.5, r=0.4):
    comp = {
        (2, 0, 0): 1.0,
        (0, 2, 0): 1.0,
        (0, 0, 2): 1.0,
        (1, 0, 0): -2 * c,
        (0, 1, 0): -2 * c,
        (0, 0, 1): -2 * c,
        (0, 0, 0): 3 * c * c - r * r,
    }
    return fp.PolynomialMap(ambient=3, components=(comp,))


def test_evaluation_and_jacobian():
    poly = circle_poly()
    x = np.array([0.9, 0.5])
    assert poly(x)[0] == pytest.approx(0.0, abs=1e-12)
    jac = poly.jacobian(x)
    assert jac.shape == (1, 2)
    assert jac[0] == pytest.approx([2 * (0.9 - 0.5), 0.0], abs=1e-12)


def test_interval_encloses_values():
    poly = circle_poly()
    rng = np.random.default_rng(4)
    for _ in range(50):
        lo = rng.uniform(0, 0.8, 2)
        hi = lo + rng.uniform(0.01, 0.2, 2)
        ilo, ihi = poly.interval(lo, hi)
        for _ in range(20):
            x = rng.uniform(lo, hi)
            v = poly(x)[0]
            assert ilo[0] - 1e-12 <= v <= ihi[0] + 1e-12


def test_interval_inclusion_monotone():
    poly = circle_poly()
    lo, hi = np.array([0.2, 0.3]), np.array([0.5, 0.6])
    big = poly.interval(lo - 0.05, hi + 0.05)
    small = poly.interval(lo, hi)
    assert big[0][0] <= small[0][0] + 1e-12
    assert big[1][0] >= small[1][0] - 1e-12


def test_may_vanish():
    poly = circle_poly()
    # Box crossing the circle.
    assert poly.may_vanish(np.array([0.85, 0.45]), np.array([0.95, 0.55]))
    # Small box well inside the circle: provably negative by the enclosure.
    assert not poly.may_vanish(np.array([0.475, 0.475]), np.array([0.525, 0.525]))


def test_circle_length():
    cube = fp.DyadicCube(level=0, index=np.zeros(2, dtype=np.int64))
    est = variety_cube_measure(circle_poly(), cube)
    assert est == pytest.approx(2 * math.pi * 0.4, rel=0.02)


def test_sphere_area():
    cube = fp.DyadicCube(level=0, index=np.zeros(3, dtype=np.int64))
    est = variety_cube_measure(sphere_poly(), cube)
    assert est == pytest.approx(4 * math.pi * 0.16, rel=0.02)


def test_codimension_two_circle_in_space():
    # Intersection of the cylinder x^2 + y^2 = r^2 (recentred) with the plane
    # z = 0.5: a circle of length 2 pi r embedded in R^3.
    r = 0.35
    cyl = {
        (2, 0, 0): 1.0,
        (0, 2, 0): 1.0,
        (1, 0, 0): -1.0,
        (0, 1, 0): -1.0,
        (0, 0, 0): 0.5 - r * r,
    }
    plane = {(0, 0, 1): 1.0, (0, 0, 0): -0.5}
    poly = fp.PolynomialMap(ambient=3, components=(cyl, plane))
    cube = fp.DyadicCube(level=0, index=np.zeros(3, dtype=np.int64))
    est = variety_cube_measure(poly, cube)
    assert est == pytest.approx(2 * math.pi * r, rel=0.03)


def test_measure_additive_over_children():
    poly = circle_poly()
    parent = fp.DyadicCube(level=0, index=np.zeros(2, dtype=np.int64))
    total = variety_cube_measure(poly, parent)
    parts = sum(
        variety_cube_measure(poly, fp.DyadicCube(level=1, index=np.array([i, j])))
        for i in (0, 1)
        for j in (0, 1)
    )
    # Children use a finer smoothing width, so agreement is approximate.
    assert parts == pytest.approx(total, rel=0.03)


def test_with_detail_reports_diagnostics():
    cube = fp.DyadicCube(level=0, index=np.zeros(2, dtype=np.int64))
    res = variety_cube_measure(circle_poly(), cube, with_detail=True)
    assert res.estimate > 0 and res.se > 0
    assert res.epsilon == pytest.approx(1 / 32)
    assert res.min_jacobian > 0.1


def test_singular_point_raises():
    # (x-.5)^2 + (y-.5)^2 vanishes only at its critical point, where the
    # Jacobian degenerates.
    comp = {
        (2, 0): 1.0,
        (0, 2): 1.0,
        (1, 0): -1.0,
        (0, 1): -1.0,
        (0, 0): 0.5,
    }
    poly = fp.PolynomialMap(ambient=2, components=(comp,))
    cube = fp.DyadicCube(level=0, index=np.zeros(2, dtype=np.int64))
    with pytest.raises(SingularityError):
        variety_cube_measure(poly, cube)


def test_newton_refine_lands_on_variety():
    poly = circle_poly()
    x0 = np.array([0.93, 0.55])
    x, conv = fp.newton_refine(poly, x0)
    assert conv
    assert abs(poly(x)[0]) < 1e-10
    assert np.linalg.norm(x - x0) < 0.1


def test_newton_refine_fails_without_roots():
    comp = {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0}  # x^2 + y^2 + 1 > 0
    poly = fp.PolynomialMap(ambient=2, components=(comp,))
    _, conv = fp.newton_refine(poly, np.array([0.5, 0.5]))
    assert not conv


def test_text_round_trip():
    poly = fp.PolynomialMap(
        ambient=3,
        components=(
            {(2, 0, 0): 1.5, (0, 1, 1): -2.0, (0, 0, 0): 0.25},
            {(0, 0, 1): 1.0},
        ),
    )
    back = polynomial_from_text(polynomial_to_text(poly))
    assert back.ambient == poly.ambient
    assert back.components == poly.components


def _dict_loop_call(poly, x):
    # Reference: per-term evaluation over the component dicts.
    out = np.zeros(x.shape[:-1] + (poly.codomain,))
    for ci, comp in enumerate(poly.components):
        acc = out[..., ci]
        for alpha, c in comp.items():
            term = np.full(x.shape[:-1], c)
            for i, a in enumerate(alpha):
                if a:
                    term = term * x[..., i] ** a
            acc += term
    return out


def _dict_loop_jacobian(poly, x):
    out = np.zeros(x.shape[:-1] + (poly.codomain, poly.ambient))
    for ci, comp in enumerate(poly.components):
        for alpha, c in comp.items():
            for i, a in enumerate(alpha):
                if not a:
                    continue
                term = np.full(x.shape[:-1], c * a)
                for k, ak in enumerate(alpha):
                    e = ak - 1 if k == i else ak
                    if e:
                        term = term * x[..., k] ** e
                out[..., ci, i] += term
    return out


def _dict_loop_interval(poly, lo, hi):
    from fracperc.polynomials import _power_interval

    out_lo = np.zeros(lo.shape[:-1] + (poly.codomain,))
    out_hi = np.zeros(lo.shape[:-1] + (poly.codomain,))
    for ci, comp in enumerate(poly.components):
        for alpha, c in comp.items():
            t_lo = np.full(lo.shape[:-1], 1.0)
            t_hi = np.full(lo.shape[:-1], 1.0)
            for i, a in enumerate(alpha):
                if not a:
                    continue
                p_lo, p_hi = _power_interval(lo[..., i], hi[..., i], a)
                cands = np.stack([t_lo * p_lo, t_lo * p_hi, t_hi * p_lo, t_hi * p_hi])
                t_lo, t_hi = cands.min(axis=0), cands.max(axis=0)
            if c >= 0:
                out_lo[..., ci] += c * t_lo
                out_hi[..., ci] += c * t_hi
            else:
                out_lo[..., ci] += c * t_hi
                out_hi[..., ci] += c * t_lo
    return out_lo, out_hi


def test_compiled_map_matches_dict_loops_bit_for_bit():
    rng = np.random.default_rng(21)
    for case in range(40):
        m = int(rng.integers(1, 6))
        comps = []
        for _ in range(int(rng.integers(1, 4))):
            comp = {}
            for _ in range(int(rng.integers(1, 9))):
                alpha = tuple(int(a) for a in rng.integers(0, 5, size=m) * (rng.random(m) < 0.6))
                comp[alpha] = float(rng.normal())
            comps.append(comp)
        poly = fp.PolynomialMap(ambient=m, components=tuple(comps))
        x = rng.uniform(-1.5, 1.5, size=(7, 3, m))
        x[0, 0] = 0.0  # zero coordinates and signed zeros
        x[0, 1] = -0.0
        assert np.array_equal(poly(x), _dict_loop_call(poly, x), equal_nan=True), case
        assert np.array_equal(poly.jacobian(x), _dict_loop_jacobian(poly, x), equal_nan=True), case
        # Boxes inside, across and touching 0, and degenerate boxes.
        lo = rng.uniform(-1.0, 1.0, size=(50, m))
        hi = lo + rng.choice([0.0, 0.25, 1.5], size=(50, m))
        lo[:5], hi[:5] = 0.0, np.abs(hi[:5])
        lo[5:10], hi[5:10] = -np.abs(lo[5:10]), 0.0
        got, want = poly.interval(lo, hi), _dict_loop_interval(poly, lo, hi)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), case


def test_reused_term_buffer_matches_allocating_loop_bytes():
    # Every path of the in-place monomial: a leading power with and without a
    # coefficient, a leading linear factor times -2, 0.5 or 1, later factors
    # of exponent 1 to 3, and constant terms; compared byte for byte (signed
    # zeros included) with `term = term * x[..., i] ** a` per term.
    poly = fp.PolynomialMap(
        ambient=3,
        components=(
            {(3, 0, 1): 0.5, (1, 2, 0): -2.0, (0, 1, 3): 1.0, (2, 0, 0): 1.0,
             (0, 0, 0): 0.5},
            {(1, 1, 1): -2.0, (0, 3, 0): 0.5, (0, 0, 1): 0.5, (0, 0, 0): -2.0},
        ),
    )
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.5, 1.5, size=(6, 5, 3))
    x[0, 0] = 0.0
    x[0, 1] = -0.0
    for pts in (x, x[:, ::2], x[2], x[3, 1]):
        assert poly(pts).tobytes() == _dict_loop_call(poly, pts).tobytes()
        assert poly.jacobian(pts).tobytes() == _dict_loop_jacobian(poly, pts).tobytes()


def test_newton_rows_count_the_unconverged_row():
    # On the plane z = 0 the map is x^2 + y^2 + 1, which has no real root,
    # and d/dz vanishes there, so Newton cannot leave it; the other rows
    # reach the cone x^2 + y^2 + 1 = z^2.
    comp = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 0): 1.0, (0, 0, 2): -1.0}
    poly = fp.PolynomialMap(ambient=3, components=(comp,))
    x0 = np.array([
        [0.3, 0.2, 1.4],
        [0.5, 0.5, 0.0],
        [0.1, -0.4, -1.2],
        [0.9, 0.7, 2.0],
    ])
    x, conv = fp.newton_refine_rows(poly, x0)
    assert conv.tolist() == [True, False, True, True]
    assert x[1, 2] == 0.0
    assert np.max(np.abs(poly(x[conv]))) < 1e-12
    for row, start in enumerate(x0):
        one, one_conv = fp.newton_refine(poly, start)
        assert one_conv == conv[row]
        assert np.array_equal(one, x[row])
    # Rows do not depend on the rows they are refined with.
    x_rev, conv_rev = fp.newton_refine_rows(poly, x0[::-1])
    assert np.array_equal(x_rev[::-1], x) and np.array_equal(conv_rev[::-1], conv)


def _pinv_refine_rows(poly, x0):
    """newton_refine_rows with every step -pinv(J) P, as taken for systems
    of several equations: the reference for the one-equation closed form."""
    x = np.array(x0, dtype=float)
    converged = np.zeros(x.shape[0], dtype=bool)
    final = np.zeros(x.shape[0], dtype=bool)
    active = np.arange(x.shape[0])
    for _ in range(NEWTON_MAX_ITER):
        if active.size == 0:
            break
        xa = x[active]
        f = poly(xa)
        done = np.max(np.abs(f), axis=1) < NEWTON_TOL
        converged[active[done]] = True
        active, xa, f = active[~done], xa[~done], f[~done]
        if active.size == 0:
            break
        step = -(np.linalg.pinv(poly.jacobian(xa), rtol=None) @ f[..., None])[..., 0]
        finite = np.all(np.isfinite(step), axis=1)
        active, xa, step = active[finite], xa[finite], step[finite]
        x[active] = xa + step
        stalled = np.linalg.norm(step, axis=1) < 1e-15
        final[active[stalled]] = True
        active = active[~stalled]
    final[active] = True
    rows = np.flatnonzero(final)
    converged[rows] = np.max(np.abs(poly(x[rows])), axis=1) < NEWTON_TOL
    return x, converged


def _one_equation_systems():
    systems = {
        f"distance-d{d}": fp.configuration_polynomial(
            fp.ConfigDescriptor("distance", d, {"lam": 0.5})
        )
        for d in (1, 2, 3)
    }
    systems["angle-d2"] = fp.configuration_polynomial(
        fp.ConfigDescriptor("angle", 2, {"lam": 0.3})
    )
    volume = _detection_polys(fp.ConfigDescriptor("volume", 2, {"vol": 0.1}))
    systems["volume-d2"], systems["volume-d2-mirrored"] = volume
    return systems


@pytest.mark.parametrize("name", sorted(_one_equation_systems()))
def test_one_equation_step_matches_pinv(name):
    # A 1 x M Jacobian row g has the pseudo-inverse g^T / (g . g), so the
    # closed-form step must reach the pinv step's verdicts, and its roots to
    # 1e-9 where the root is regular.  Rows running into the angle
    # polynomial's singular set (u = 0 or v = 0, where P and its gradient
    # vanish) converge linearly, and there one ulp moved in the start moves
    # the pinv root itself by up to 1e-8.
    poly = _one_equation_systems()[name]
    assert poly.codomain == 1
    x0 = np.random.default_rng(5).uniform(0.0, 1.0, size=(2000, poly.ambient))
    x, conv = fp.newton_refine_rows(poly, x0)
    want, want_conv = _pinv_refine_rows(poly, x0)
    assert np.array_equal(conv, want_conv)
    assert conv.any()
    regular = np.linalg.norm(poly.jacobian(want)[:, 0], axis=1) >= 1e-3
    assert np.max(np.abs(x - want)[regular]) < 1e-9
    assert np.max(np.abs(x - want)) < 1e-6
    # each row is refined as it would be alone, bit for bit
    for row in range(0, x0.shape[0], 97):
        one, one_conv = fp.newton_refine_rows(poly, x0[row : row + 1])
        assert one.tobytes() == x[row].tobytes() and one_conv[0] == conv[row]


def test_one_equation_step_stalls_or_fails_in_place():
    # Distance at x = y: P = -lam^2 and the gradient vanishes, so the step
    # is zero, with no division by zero, and the row stalls, failing the
    # final test where it started.  A NaN start or an overflowing P gives a
    # non-finite step, which fails its row where it stands; the other rows
    # converge as they would alone.
    poly = _one_equation_systems()["distance-d2"]
    x0 = np.array([
        [0.3, 0.6, 0.3, 0.6],
        [0.1, 0.2, 0.5, 0.6],
        [np.nan, 0.2, 0.5, 0.6],
        [1e200, 0.0, 0.0, 0.0],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finite_x, finite_conv = fp.newton_refine_rows(poly, x0[:3])
    with np.errstate(over="ignore", invalid="ignore"):
        x, conv = fp.newton_refine_rows(poly, x0)
    assert conv.tolist() == [False, True, False, False]
    assert np.array_equal(x[[0, 2, 3]], x0[[0, 2, 3]], equal_nan=True)
    assert x[:3].tobytes() == finite_x.tobytes() and conv[:3].tolist() == finite_conv.tolist()
    want, want_conv = _pinv_refine_rows(poly, x0[:2])
    assert want_conv.tolist() == [False, True]
    assert np.array_equal(want[0], x0[0]) and np.max(np.abs(want[1] - x[1])) < 1e-9
    assert fp.newton_refine(poly, x0[1])[0].tobytes() == x[1].tobytes()


def _cylinder_slice(r=0.35):
    # The circle of test_codimension_two_circle_in_space: codimension two.
    cyl = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (1, 0, 0): -1.0, (0, 1, 0): -1.0,
           (0, 0, 0): 0.5 - r * r}
    return fp.PolynomialMap(ambient=3, components=(cyl, {(0, 0, 1): 1.0, (0, 0, 0): -0.5}))


_COAREA_MAPS = {
    "distance-d1": fp.configuration_polynomial(fp.ConfigDescriptor("distance", 1, {"lam": 0.5})),
    "distance-d2": fp.configuration_polynomial(fp.ConfigDescriptor("distance", 2, {"lam": 0.5})),
    "volume-d2": fp.configuration_polynomial(fp.ConfigDescriptor("volume", 2, {"vol": 0.1})),
    "cubic": fp.PolynomialMap(ambient=3, components=(
        {(3, 0, 0): 1.0, (0, 1, 0): -0.5, (0, 0, 2): 0.7, (1, 1, 1): -1.3, (0, 0, 0): -0.1},
    )),
    "circle-in-space": _cylinder_slice(),
}


# The kernel sums a cube's moments over its near samples in another order
# than the dense mean and std, so the two agree to this relative tolerance,
# fixed from the dtype; one flip of the near test moves a value by at least
# 1 / n_samples of it, far above that.
MOMENT_RTOL = 64 * np.finfo(float).eps


def _reference_level_measure(poly, idx, level, n_samples):
    """The coarea estimator cube by cube, its near test |P| < eps taken on
    poly(lo + side * sobol) point by point, its moments the dense mean and
    std over every sample."""
    side = 2.0 ** -level
    eps = side / 32.0
    scaled = side * _sobol_points(poly.ambient, n_samples)
    vol = side ** poly.ambient
    out = []
    for row in idx:
        x = row.astype(float) * side + scaled
        near = np.all(np.abs(poly(x)) < eps, axis=-1)
        contrib = np.zeros(n_samples)
        contrib[near] = _coarea_jacobian_factor(poly.jacobian(x[near])) / (2 * eps) ** poly.codomain
        sd = contrib.std(ddof=1) if n_samples > 1 else 0.0
        out.append((vol * contrib.mean(), vol * (sd / math.sqrt(n_samples))))
    return np.array(out).T


def _assert_moments_close(got, want, msg=None):
    """Same zero pattern, and every nonzero within MOMENT_RTOL relative."""
    for g, w in zip(got, want):
        assert np.array_equal(g == 0, w == 0), msg
        assert np.all(np.abs(g - w) <= MOMENT_RTOL * np.abs(w)), (msg, np.max(np.abs(g - w) / np.abs(w)))


@pytest.mark.parametrize("name", sorted(_COAREA_MAPS))
def test_coarea_taylor_product_matches_pointwise_evaluation(name, monkeypatch):
    # The kernel evaluates P over a cube's samples as the product of its
    # Taylor coefficients at the corner with the samples' monomials, and sums
    # its moments over the near samples only.  Its values and s.e. must match
    # the pointwise near test's dense moments, with the same zeros and within
    # MOMENT_RTOL, with chunks of one cube (a lone row) and of three, and with
    # repeated rows; the product itself must match poly(lo + s) to rounding.
    poly = _COAREA_MAPS[name]
    m, n_samples = poly.ambient, 512
    rng = np.random.default_rng(7)
    for level in range(4):
        idx = rng.integers(0, 1 << level, size=(400, m))
        side = 2.0 ** -level
        idx = idx[poly.may_vanish(idx * side, (idx + 1) * side)][:24]
        idx = np.concatenate([idx, idx[::3], idx[:1]])
        want = _reference_level_measure(poly, idx, level, n_samples)
        assert np.any(want[0] > 0), level
        for per_chunk in (1, 3, None):
            if per_chunk is not None:
                monkeypatch.setattr(geometry, "CHUNK_FLOATS", per_chunk * m * n_samples)
            got = variety_level_measure(poly, idx, level, n_samples)
            _assert_moments_close(got, want, (level, per_chunk))
            monkeypatch.undo()
        lo = idx.astype(float) * side
        scaled = side * _sobol_points(m, n_samples)
        got = _taylor_values(poly.taylor(lo), poly.monomials(scaled))
        direct = np.moveaxis(poly(lo[:, None, :] + scaled), -1, 1)
        assert np.max(np.abs(got - direct)) < 1e-12, level


def test_sparse_moments_edge_cases():
    # On the level-0 square, eps = 1/32.  0.01 (x - 0.5) + 0.005 y^2 has
    # |P| <= 0.01 and a J that varies with y, so every sample is near and the
    # spread is the dense one; 0.01 (x - 0.5) has the constant J = 0.01, a
    # spread of exactly zero, which both sums know only to the rounding of
    # the mean.  x + 2 stays above eps: no sample is near.
    square = np.zeros((1, 2), dtype=np.int64)
    every = fp.PolynomialMap(ambient=2, components=({(1, 0): 0.01, (0, 0): -0.005, (0, 2): 0.005},))
    flat = fp.PolynomialMap(ambient=2, components=({(1, 0): 0.01, (0, 0): -0.005},))
    for n_samples in (1, 2, 7, 512, 4096):
        est, se, min_jac = _coarea_level(every, square, 0, n_samples)
        want = _reference_level_measure(every, square, 0, n_samples)
        _assert_moments_close((est, se), want, n_samples)
        assert min_jac[0] >= 0.01
        est, se, min_jac = _coarea_level(flat, square, 0, n_samples)
        assert est[0] == pytest.approx(0.01 / (2 / 32), rel=MOMENT_RTOL)
        assert se[0] <= MOMENT_RTOL * est[0] and min_jac[0] == 0.01
    # one sample: the s.e. is 0, as the kernel has always given it
    assert _coarea_level(every, square, 0, 1)[1][0] == 0.0
    far = fp.PolynomialMap(ambient=2, components=({(1, 0): 1.0, (0, 0): 2.0},))
    got = _coarea_level(far, np.zeros((3, 2), dtype=np.int64), 0, 512)
    assert [a.tolist() for a in got] == [[0.0] * 3, [0.0] * 3, [math.inf] * 3]
    # J_q for one equation is the gradient norm in closed form, within 4 eps
    # of sqrt(det) of the 1 x 1 Gram matrix; two equations keep det
    rng = np.random.default_rng(11)
    jac = rng.normal(size=(2000, 1, 4)) * rng.uniform(0.01, 100, size=(2000, 1, 1))
    closed = _coarea_jacobian_factor(jac)
    via_det = np.sqrt(np.linalg.det(jac @ np.swapaxes(jac, -1, -2)))
    assert np.all(np.abs(closed - via_det) <= 4 * np.finfo(float).eps * via_det)
    assert np.array_equal(closed, np.sqrt(np.sum(jac[:, 0] ** 2, axis=1)))
    poly = _COAREA_MAPS["circle-in-space"]
    jac = poly.jacobian(rng.uniform(0, 1, size=(500, 3)))
    gram = jac @ np.swapaxes(jac, -1, -2)
    assert np.array_equal(
        _coarea_jacobian_factor(jac), np.sqrt(np.maximum(np.linalg.det(gram), 0.0))
    )


def test_singular_chunk_stops_the_level(monkeypatch):
    # (x - .5)^2 + (y - .5)^2 vanishes, with its gradient, at the corner
    # (.5, .5): the first Sobol point of level-1 cube (1, 1).  With one cube
    # a chunk, that cube's chunk is the second; no later chunk is evaluated,
    # and the message names the J_q that a one-chunk call names.
    poly = fp.PolynomialMap(ambient=2, components=(
        {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -1.0, (0, 1): -1.0, (0, 0): 0.5},
    ))
    idx = np.array([[0, 0], [1, 1], [0, 1], [1, 0]])
    n_samples = 256
    assert np.isfinite(_coarea_level(poly, idx[:1], 1, n_samples)[2][0])
    with pytest.raises(SingularityError) as whole:
        variety_level_measure(poly, idx, 1, n_samples)
    calls = []

    def counting(coef, steps):
        calls.append(coef.shape[0])
        return _taylor_values(coef, steps)

    monkeypatch.setattr(polynomials, "_taylor_values", counting)
    monkeypatch.setattr(geometry, "CHUNK_FLOATS", 2 * n_samples)
    with pytest.raises(SingularityError) as chunked:
        variety_level_measure(poly, idx, 1, n_samples)
    assert calls == [1, 1]
    assert str(chunked.value) == str(whole.value)
    assert f"{SINGULAR_TOL:g}" in str(whole.value)
