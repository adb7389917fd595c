"""The benchmark's oracles against closed forms and against fracperc itself,
so that a wrong oracle can neither pass nor fail a benchmark run."""

import itertools
import math

import numpy as np
import pytest

import fracperc as fp
import oracles

AP = fp.ConfigDescriptor(family="homothetic", d=1, params={"sites": [[0], [1], [2]]})
DIST = fp.ConfigDescriptor(family="distance", d=2, params={"lam": 0.5})
PROGRESSION_PLANE = fp.configuration_plane(AP)


def test_section_area_of_unit_cube():
    assert oracles.progression_section_area(0, 0, 0, 0) == pytest.approx(
        math.sqrt(6.0) / 2.0, abs=1e-15
    )
    assert fp.plane_cube_measure(
        PROGRESSION_PLANE, fp.DyadicCube(0, (0, 0, 0))
    ) == pytest.approx(math.sqrt(6.0) / 2.0, abs=1e-12)


def test_section_area_matches_exact_kernel_on_every_small_cube():
    for level in (1, 2, 3):
        for idx in itertools.product(range(1 << level), repeat=3):
            want = fp.plane_cube_measure(PROGRESSION_PLANE, fp.DyadicCube(level, idx))
            assert oracles.progression_section_area(*idx, level) == pytest.approx(
                want, abs=1e-12
            ), (level, idx)


def test_plane_mass_counts_every_triple():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        sets = [rng.choice(1 << n, size=rng.integers(1, (1 << n) + 1), replace=False)
                for _ in range(3)]
        direct = sum(
            oracles.progression_section_area(a, b, c, n)
            for a, b, c in itertools.product(*sets)
        )
        got = oracles.progression_plane_mass([s[:, None] for s in sets], 0.5, n)
        assert got == pytest.approx(0.5 ** (-3 * n) * direct, rel=1e-12)


def test_variety_closed_form_by_quadrature_and_kernel():
    lam = 0.5
    theta = np.linspace(0.0, 2.0 * math.pi, 200_001)
    circle = lam * (1 - lam * np.abs(np.cos(theta))) * (1 - lam * np.abs(np.sin(theta)))
    quad = math.sqrt(2.0) * np.trapezoid(circle, theta)
    assert oracles.pair_distance_variety_measure(lam) == pytest.approx(quad, rel=1e-9)
    assert oracles.pair_distance_variety_measure(lam) == pytest.approx(1.968, abs=5e-4)
    poly = fp.configuration_polynomial(DIST)
    res = fp.variety_cube_measure(poly, fp.DyadicCube(0, (0, 0, 0, 0)), with_detail=True)
    assert abs(res.estimate - oracles.pair_distance_variety_measure(lam)) <= 4 * res.se


def test_nearest_root_matches_newton_refine():
    rng = np.random.default_rng(11)
    poly = fp.configuration_polynomial(DIST)
    for _ in range(300):
        a, b = rng.random(2), rng.random(2)
        flat = np.concatenate([a, b])
        x, converged = fp.newton_refine(poly, flat)
        assert converged
        moved = float(np.max(np.abs(x - flat)))
        assert oracles.pair_root_displacement(a, b, 0.5) == pytest.approx(moved, abs=1e-9)


def test_pair_presence_matches_detector():
    rng = np.random.default_rng(1234)
    for case in range(200):
        n = int(rng.integers(2, 5))
        cells = rng.choice(4 ** n, size=int(rng.integers(2, 9)), replace=False)
        cubes = np.stack([cells >> n, cells & ((1 << n) - 1)], axis=1)
        got = fp.detect_configuration(cubes, DIST, n)
        strict, lenient = oracles.pair_presence(cubes, n, 0.5, got.tolerance)
        assert strict <= got.present <= lenient, (case, cubes.tolist())


@pytest.mark.parametrize("n,min_span", [(2, 0), (3, 0), (4, 0), (4, 8), (5, 8)])
def test_triple_presence_matches_detector_exhaustively(n, min_span):
    step = max(1, 2 ** (2 ** n - 11))
    for bits in range(1, 2 ** (2 ** n), step):
        cells = [i for i in range(2 ** n) if bits >> i & 1]
        cubes = np.array(cells)[:, None]
        got = fp.detect_configuration(cubes, AP, n, min_diameter=min_span * 2.0 ** -n)
        strict, lenient = oracles.progression_presence(cells, min_span)
        assert strict <= got.present <= lenient, (n, cells)
