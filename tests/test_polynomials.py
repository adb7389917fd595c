"""Unit tests for polynomial maps: evaluation, interval enclosures, variety
surface-measure estimates and Newton refinement."""

import math

import numpy as np
import pytest

import fracperc as fp
import fracperc.geometry as geometry
from fracperc.errors import SingularityError
from fracperc.geometry import _sobol_points
from fracperc.polynomials import (
    _coarea_jacobian_factor,
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


def _reference_level_measure(poly, idx, level, n_samples):
    """The coarea estimator cube by cube, its near test |P| < eps taken on
    poly(lo + side * sobol) point by point."""
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
        out.append((vol * contrib.mean(), vol * (contrib.std(ddof=1) / math.sqrt(n_samples))))
    return np.array(out).T


@pytest.mark.parametrize("name", sorted(_COAREA_MAPS))
def test_coarea_taylor_product_matches_pointwise_evaluation(name, monkeypatch):
    # The kernel evaluates P over a cube's samples as the product of its
    # Taylor coefficients at the corner with the samples' monomials.  Its
    # values and s.e. must equal those of the pointwise near test exactly,
    # with chunks of one cube (a lone row) and of three, and with repeated
    # rows; the product itself must match poly(lo + s) to rounding.
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
            vals, ses = variety_level_measure(poly, idx, level, n_samples)
            assert np.array_equal(vals, want[0]) and np.array_equal(ses, want[1]), (level, per_chunk)
            monkeypatch.undo()
        lo = idx.astype(float) * side
        scaled = side * _sobol_points(m, n_samples)
        got = _taylor_values(poly.taylor(lo), poly.monomials(scaled))
        direct = np.moveaxis(poly(lo[:, None, :] + scaled), -1, 1)
        assert np.max(np.abs(got - direct)) < 1e-12, level
