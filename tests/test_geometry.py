"""Unit tests for affine-plane geometry: principal angles, plane-cube
section measures, transversality reports, and text serialization."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import qmc

import fracperc as fp
from fracperc.errors import ConfigError
from fracperc.geometry import (
    _sobol_points,
    coordinate_plane,
    orthonormalize,
    plane_from_text,
    plane_to_text,
    principal_angle,
    transversality_check,
)


def _plane(basis, offset):
    basis = np.asarray(basis, dtype=float)
    offset = np.asarray(offset, dtype=float)
    return fp.AffinePlane(basis=basis, offset=offset)


def _span(*rows):
    basis = orthonormalize(np.asarray(rows, dtype=float))
    return fp.AffinePlane(basis=basis, offset=np.zeros(basis.shape[1]))


def test_principal_angle_same_subspace_is_zero():
    v = _span([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert principal_angle(v, v) == pytest.approx(0.0, abs=1e-12)


def test_principal_angle_orthogonal_lines():
    assert principal_angle(_span([1, 0]), _span([0, 1])) == pytest.approx(math.pi / 2)


def test_principal_angle_diagonal_line():
    assert principal_angle(_span([1, 0]), _span([1, 1])) == pytest.approx(math.pi / 4)


def test_principal_angle_skips_shared_directions():
    # A plane and a line inside it share one direction more than the generic
    # dimension count allows in R^3, so the reported angle is the next one.
    plane = _span([1, 0, 0], [0, 1, 0])
    line = _span([1, 0, 0])
    # dim V + dim W - M = 0, shared dim 1 > 0: skip to the 2nd angle = pi/2? no
    # line lies inside the plane; the first non-shared angle does not exist,
    # so the convention reports the angle past the forced intersection.
    ang = principal_angle(plane, line)
    assert 0.0 <= ang <= math.pi / 2


def test_principal_angle_with_trivial_subspace():
    empty = fp.AffinePlane(basis=np.zeros((0, 3)), offset=np.zeros(3))
    assert principal_angle(_span([1, 0, 0]), empty) == pytest.approx(1.0)


def test_plane_point_distance_and_project():
    pl = _plane([[1.0, 0.0]], [0.0, 0.25])  # horizontal line y = 0.25
    assert pl.point_distance(np.array([0.7, 0.25])) == pytest.approx(0.0, abs=1e-12)
    assert pl.point_distance(np.array([0.7, 0.65])) == pytest.approx(0.4)
    proj = pl.project(np.array([0.7, 0.65]))
    assert proj == pytest.approx(np.array([0.7, 0.25]))


def test_metric_distance_properties():
    a = _plane([[1.0, 0.0]], [0.0, 0.25])
    b = _plane([[1.0, 0.0]], [0.0, 0.75])
    c = _span([1, 1])
    assert a.metric_distance(a) == pytest.approx(0.0, abs=1e-12)
    d_ab = a.metric_distance(b)
    assert d_ab == pytest.approx(b.metric_distance(a))
    assert d_ab == pytest.approx(0.5)
    assert a.metric_distance(c) > 0


def test_line_measure_diagonal_of_square():
    pl = _span([1, 1])
    cube = fp.DyadicCube(level=0, index=np.zeros(2, dtype=np.int64))
    assert fp.plane_cube_measure(pl, cube) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_line_measure_additive_over_children():
    basis = orthonormalize(np.array([[2.0, 1.0]]))
    off = np.array([0.0, 0.17])
    pl = fp.AffinePlane(basis=basis, offset=off - basis.T @ (basis @ off))
    parent = fp.DyadicCube(level=0, index=np.zeros(2, dtype=np.int64))
    total = fp.plane_cube_measure(pl, parent)
    parts = sum(
        fp.plane_cube_measure(pl, fp.DyadicCube(level=1, index=np.array([i, j])))
        for i in (0, 1)
        for j in (0, 1)
    )
    assert parts == pytest.approx(total, abs=1e-12)
    assert total > 1.0  # the line does cross this square


def test_hyperplane_measure_corner_section():
    # x + y + z = 1.5 cuts the unit cube in a regular hexagon of area
    # 3 sqrt(3) / 4.
    n = np.ones(3) / math.sqrt(3)
    basis = orthonormalize(
        np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
    )
    pl = fp.AffinePlane(basis=basis, offset=n * (1.5 / math.sqrt(3)))
    cube = fp.DyadicCube(level=0, index=np.zeros(3, dtype=np.int64))
    assert fp.plane_cube_measure(pl, cube) == pytest.approx(
        3 * math.sqrt(3) / 4, abs=1e-9
    )


def test_hyperplane_corner_contacts_never_negative():
    # x - 2y + z = 0 meets the level cube (i, j, k) only in a corner when
    # i - 2j + k = +-2, and misses it when |i - 2j + k| > 2.  The corner sums
    # would cancel there to rounding noise of either sign; the area must read
    # exactly 0, and crossing cubes must keep a positive area.
    ap = fp.ConfigDescriptor(family="homothetic", d=1, params={"sites": [[0], [1], [2]]})
    plane = fp.configuration_plane(ap)
    for level in (1, 2, 3, 4, 5):
        idx = np.array(list(itertools.product(range(1 << level), repeat=3)))
        vals, _ = fp.plane_level_measure(plane, idx, level)
        s = np.abs(idx[:, 0] - 2 * idx[:, 1] + idx[:, 2])
        assert np.all(vals[s >= 2] == 0.0)
        assert np.all(vals[s <= 1] > 0.0)
    # Corner contacts whose noise came out negative before the clamp.
    idx = np.array([[0, 4, 6], [1, 5, 7], [3, 4, 3], [4, 3, 0]])
    vals, _ = fp.plane_level_measure(plane, idx, 3)
    assert vals.tolist() == [0.0] * 4


def test_axis_hyperplane_measure():
    pl = fp.AffinePlane(
        basis=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        offset=np.array([0.0, 0.0, 0.25]),
    )
    cube = fp.DyadicCube(level=0, index=np.zeros(3, dtype=np.int64))
    assert fp.plane_cube_measure(pl, cube) == pytest.approx(1.0, abs=1e-12)
    # Outside the half-open cube: zero mass.
    outside = fp.AffinePlane(
        basis=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        offset=np.array([0.0, 0.0, 1.0]),
    )
    assert fp.plane_cube_measure(outside, cube) == pytest.approx(0.0, abs=1e-12)


def test_intermediate_codimension_uses_sampling_and_reports_se():
    # 2-plane in R^4: neither a line nor a hyperplane, so quasi-Monte Carlo.
    rng = np.random.default_rng(3)
    basis = orthonormalize(rng.standard_normal((2, 4)))
    off_pt = np.full(4, 0.5)
    pl = fp.AffinePlane(basis=basis, offset=off_pt - basis.T @ (basis @ off_pt))
    cube = fp.DyadicCube(level=0, index=np.zeros(4, dtype=np.int64))
    est, se = fp.plane_cube_measure(pl, cube, with_se=True)
    assert est > 0.5 and se >= 0.0
    # Deterministic: same call gives the same value.
    assert fp.plane_cube_measure(pl, cube) == est


def test_coordinate_plane_contains_expected_points():
    # With m = 2 factors in d = 2, zeroing factor 0 fixes its coordinates.
    pl = coordinate_plane(2, 2, (0,))
    x = np.array([0.0, 0.0, 0.3, 0.9])
    assert pl.point_distance(x) == pytest.approx(0.0, abs=1e-12)
    y = np.array([0.2, 0.0, 0.3, 0.9])
    assert pl.point_distance(y) > 0.1


def test_transversality_check_on_pattern_plane():
    desc = fp.ConfigDescriptor(family="homothetic", d=1, params={"sites": [[0], [1], [2]]})
    vt = fp.configuration_plane(desc)
    report = transversality_check([vt], m=3, d=1, threshold=0.2)
    assert report.passed
    assert report.min_angle > 0.2
    assert all(e.angle >= report.min_angle - 1e-12 for e in report.entries)
    strict = transversality_check([vt], m=3, d=1, threshold=report.min_angle + 0.01)
    assert not strict.passed


def test_plane_text_round_trip():
    rng = np.random.default_rng(11)
    basis = orthonormalize(rng.standard_normal((2, 5)))
    off_pt = rng.uniform(size=5)
    pl = fp.AffinePlane(basis=basis, offset=off_pt - basis.T @ (basis @ off_pt))
    back = plane_from_text(plane_to_text(pl))
    assert np.array_equal(back.basis, pl.basis)
    assert np.array_equal(back.offset, pl.offset)


@pytest.mark.filterwarnings("ignore:The balance properties")
def test_sobol_points_match_scipy_bit_for_bit():
    for dim in range(1, 65):
        for n in [1, 2, 3, 255, 4096] + ([1 << 18] if dim <= 4 else []):
            pts = _sobol_points(dim, n)
            want = qmc.Sobol(d=dim, scramble=False).random(n)
            assert pts.shape == want.shape == (n, dim)
            assert np.array_equal(pts.view(np.int64), want.view(np.int64)), (dim, n)
            assert not pts.flags.writeable


@pytest.mark.parametrize("dim,n", [(65, 16), (0, 16), (1, (1 << 30) + 1)])
def test_sobol_points_refuse_before_allocating(dim, n):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError):
            _sobol_points(dim, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
