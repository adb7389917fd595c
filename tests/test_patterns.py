"""Unit tests for geometric configuration machinery: descriptors, dimension
thresholds, detection, sweeps, stress tests, and association checks."""

import itertools
import math

import numpy as np
import pytest

import fracperc as fp
from fracperc.errors import BudgetError, ConfigError
from fracperc.patterns import (
    _ancestor_levels,
    intervals_cover,
    pattern_witnesses,
    presence_profile,
    sweep_min_diameter,
    wilson_interval,
)


def desc_homothetic(d=1, sites=((0,), (1,), (2,))):
    return fp.ConfigDescriptor(
        family="homothetic", d=d, params={"sites": [list(s) for s in sites]}
    )


def test_threshold_table_values():
    # d = 2, m = 3 where arity applies.
    t = fp.threshold_table(2, 3)
    cases = {
        "homothetic": (2 - 3 / 3, 2 - 1 / 2),
        "translate": (2 - 2 / 3, float("nan")),
        "distance": (0.5, 1.0),
        "volume": (1 / 3, 1 / 2),
        "isometric": (1.0, 3 / 2),
        "angle": (1 / 3, 1 / 2),
        "triangle": (2 / 3, 1.0),
        "polygon": (2 - 4 / 3, 1.0),
    }
    for fam, (absolute, relative) in cases.items():
        assert t[fam]["s_critical"] == pytest.approx(absolute), fam
        if math.isnan(relative):
            assert math.isnan(t[fam]["s_critical_relative"]), fam
        else:
            assert t[fam]["s_critical_relative"] == pytest.approx(relative), fam
        # p_critical inverts s = d + log2 p.
        assert t[fam]["p_critical"] == pytest.approx(
            2.0 ** (t[fam]["s_critical"] - 2)
        ), fam
    t5 = fp.threshold_table(2, 5)
    assert t5["polygon"]["s_critical"] == pytest.approx(2 - 4 / 5)
    assert t5["polygon"]["s_critical_relative"] == pytest.approx(2 - 2 / 4)
    assert t5["homothetic"]["s_critical"] == pytest.approx(2 - 3 / 5)


def test_homothetic_plane_contains_placements():
    desc = desc_homothetic()
    vt = fp.configuration_plane(desc)
    assert vt.basis.shape == (2, 3)  # scale + translation directions in R^3
    for lam, b in ((0.1, 0.2), (0.25, 0.125), (0.05, 0.8)):
        pt = np.array([b, b + lam, b + 2 * lam])
        assert vt.point_distance(pt) < 1e-12
    assert vt.point_distance(np.array([0.1, 0.2, 0.35])) > 1e-3


def test_translate_plane_dimension():
    desc = fp.ConfigDescriptor(
        family="translate", d=2, params={"sites": [[0, 0], [1, 1]]}
    )
    vt = fp.configuration_plane(desc)
    assert vt.basis.shape == (2, 4)  # translations only
    pt = np.array([0.3, 0.4, 0.3 + 1, 0.4 + 1])
    assert vt.point_distance(pt) < 1e-12


@pytest.mark.parametrize(
    "family,d,params,point",
    [
        ("distance", 2, {"lam": 0.5}, [0.1, 0.1, 0.1, 0.6]),
        ("distance", 1, {"lam": 0.25}, [0.3, 0.55]),
        ("angle", 2, {"lam": 0.0}, [0.1, 0.1, 0.3, 0.1, 0.3, 0.4]),
        (
            "volume",
            2,
            {"vol": 0.125},
            [0.0, 0.0, 0.5, 0.0, 0.0, 0.5],
        ),
        (
            "isometric",
            2,
            {"sites": [[0.0, 0.0], [0.2, 0.0], [0.5, 0.0]]},
            # A rotated congruent copy of the collinear sites.
            [0.1, 0.1, 0.1, 0.3, 0.1, 0.6],
        ),
        ("triangle", 2, {"ratios": [1.0, 1.0]}, None),
        ("polygon", 2, {"m": 4}, None),
    ],
)
def test_configuration_polynomials_vanish_on_exact_instances(family, d, params, point):
    if family == "polygon":
        params = {"sites": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    desc = fp.ConfigDescriptor(family=family, d=d, params=params)
    poly = fp.configuration_polynomial(desc)
    if family == "triangle":
        # Equilateral triangle: all side ratios one.
        h = math.sqrt(3) / 2 * 0.4
        point = [0.3, 0.2, 0.7, 0.2, 0.5, 0.2 + h]
    if family == "polygon":
        # A smaller axis-aligned square is a scaled copy of the sites.
        point = [0.2, 0.2, 0.6, 0.2, 0.6, 0.6, 0.2, 0.6]
    x = np.array(point, dtype=float)
    assert poly.ambient == len(point)
    assert np.max(np.abs(poly(x))) < 1e-10
    # Moving a single coordinate leaves the variety.
    y = x.copy()
    y[1] += 0.04
    assert np.max(np.abs(poly(y))) > 1e-6


def test_angle_and_volume_polynomials_match_numpy():
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        lam = float(rng.uniform(-1, 1))
        angle = fp.configuration_polynomial(
            fp.ConfigDescriptor(family="angle", d=d, params={"lam": lam})
        )
        volume = fp.configuration_polynomial(
            fp.ConfigDescriptor(family="volume", d=d, params={"vol": 0.1})
        )
        for _ in range(50):
            x = rng.uniform(-1, 1, size=(3, d))
            u, v = x[0] - x[1], x[2] - x[1]
            want = (u @ v) ** 2 - lam**2 * (u @ u) * (v @ v)
            assert angle(x.ravel())[0] == pytest.approx(want, abs=1e-12)
            y = rng.uniform(-1, 1, size=(d + 1, d))
            det = np.linalg.det(np.vstack([y.T, np.ones(d + 1)]))
            want = det - math.factorial(d) * 0.1
            assert volume(y.ravel())[0] == pytest.approx(want, abs=1e-12)


def test_volume_polynomial_accepts_both_orientations():
    desc = fp.ConfigDescriptor(family="volume", d=2, params={"vol": 0.125})
    poly = fp.configuration_polynomial(desc)
    pos = np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.5])
    neg = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 0.0])
    vals = [abs(poly(pos)[0]), abs(poly(neg)[0])]
    # The polynomial itself is signed; detection tries both orientations.
    assert min(vals) < 1e-12
    res_pos = fp.detect_configuration(np.array([[0, 0], [3, 0], [0, 3]]), desc, 2)
    res_neg = fp.detect_configuration(np.array([[0, 0], [0, 3], [3, 0]]), desc, 2)
    assert res_pos.present and res_neg.present


def test_detection_golden_arithmetic_progression():
    # Level-2 cells {0, 1, 2} in d = 1 hold a three-term progression with
    # scale 1/4 anchored at 1/8.
    res = fp.detect_configuration(np.array([[0], [1], [2]]), desc_homothetic(), 2)
    assert res.present
    assert res.witness["params"]["scale"] == pytest.approx(0.25)
    assert res.witness["params"]["offset"][0] == pytest.approx(0.125)


def test_detection_requires_enough_distinct_cubes():
    res = fp.detect_configuration(np.array([[0], [5]]), desc_homothetic(), 3)
    assert not res.present
    res2 = fp.detect_configuration(np.empty((0, 1), dtype=np.int64), desc_homothetic(), 3)
    assert not res2.present


def test_detection_absent_case():
    # {0, 1, 7} at level 3: no three-term progression within tolerance.
    res = fp.detect_configuration(np.array([[0], [1], [7]]), desc_homothetic(), 3)
    assert not res.present


def test_detection_monotone_in_cube_set():
    desc = desc_homothetic()
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        full = np.arange(2**n)[:, None]
        size = int(rng.integers(3, 2**n + 1))
        subset = np.sort(rng.choice(2**n, size=size, replace=False))[:, None]
        sub = fp.detect_configuration(subset, desc, n).present
        if sub:
            assert fp.detect_configuration(full, desc, n).present


def test_detection_scale_invariance():
    # Scale-invariant families: the same integer index set read one level
    # deeper is the configuration shrunk by half, so presence is preserved
    # when the tolerance shrinks with it.
    desc = desc_homothetic()
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        size = int(rng.integers(3, 2**n + 1))
        cubes = np.sort(rng.choice(2**n, size=size, replace=False))[:, None]
        a = fp.detect_configuration(cubes, desc, n).present
        b = fp.detect_configuration(cubes, desc, n + 1).present
        assert a == b


def test_min_diameter_floor():
    # An adjacent triple at level 4 realizes the progression only at scale
    # 1/16; a diameter floor of 1/4 rules it out.
    cubes = np.array([[4], [5], [6]])
    assert fp.detect_configuration(cubes, desc_homothetic(), 4).present
    res = fp.detect_configuration(cubes, desc_homothetic(), 4, min_diameter=0.25)
    assert not res.present
    # A full-width progression survives the same floor.
    wide = np.array([[0], [7], [14]])
    assert fp.detect_configuration(wide, desc_homothetic(), 4, min_diameter=0.25).present


def test_sweep_min_diameter_values():
    assert sweep_min_diameter(desc_homothetic(), 9) == pytest.approx(8 * 2.0**-9)
    d2 = fp.ConfigDescriptor(family="distance", d=2, params={"lam": 0.5})
    assert sweep_min_diameter(d2, 9) == 0.0


def test_tolerance_floor_and_budget():
    with pytest.raises(ConfigError):
        fp.detect_configuration(np.array([[0], [1], [2]]), desc_homothetic(), 4, tolerance=2.0**-6)
    big = fp.ConfigDescriptor(
        family="homothetic", d=1, params={"sites": [[0], [1], [2], [3], [4]]}
    )
    with pytest.raises(BudgetError):
        fp.detect_configuration(np.arange(2**9)[:, None], big, 9)


def test_enumerate_all_returns_every_witness():
    cubes = np.array([[0], [1], [2], [3]])
    res = fp.detect_configuration(cubes, desc_homothetic(), 2, enumerate_all=True)
    assert res.present
    assert len(res.witness) >= 2  # {0,1,2}, {1,2,3}, {0,1.5?..} etc.
    for wit in res.witness:
        assert len(set(wit["cubes"])) == 3


_PLANE_PRUNE_CASES = {
    # name: (descriptor, n, cubes drawn); the codimension of the plane
    "homothetic-d1": (desc_homothetic(), 5, 14),  # 1
    "homothetic-d2": (desc_homothetic(d=2, sites=((0, 0), (1, 0), (0, 1))), 3, 11),  # 3
    "translate-d2": (
        fp.ConfigDescriptor("translate", 2, {"sites": [[0, 0], [0.25, 0.5]]}), 3, 14,
    ),  # 2
}


@pytest.mark.parametrize("case", sorted(_PLANE_PRUNE_CASES))
def test_plane_pruning_keeps_every_witness(case):
    # The slab prune may only drop tuples that no fit accepts: the witness
    # set equals that of fitting every ordered tuple of distinct cubes.
    from fracperc.patterns import _plane_fit_rows

    desc, n, size = _PLANE_PRUNE_CASES[case]
    d, m = desc.d, desc.m
    tol = math.sqrt(d) * 2.0 ** -n
    rng = np.random.default_rng(17)
    rows = np.array(list(itertools.permutations(range(size), m)), dtype=np.int64)
    for _ in range(4):
        cells = rng.choice(1 << (n * d), size=size, replace=False)
        cubes = np.stack([(cells >> (n * k)) & ((1 << n) - 1) for k in range(d)], axis=1)
        res = fp.detect_configuration(cubes, desc, n, enumerate_all=True)
        got = sorted(tuple(w["cubes"]) for w in res.witness or [])
        centers = (cubes[rows].astype(float) + 0.5) * 2.0 ** -n
        ok, _ = _plane_fit_rows(desc, centers, tol)
        want = sorted(
            tuple(tuple(int(v) for v in cubes[r]) for r in row) for row in rows[ok]
        )
        assert got and got == want
        assert res.tuples_checked < rows.shape[0]


@pytest.mark.parametrize("case", sorted(_PLANE_PRUNE_CASES))
def test_widened_slabs_keep_a_subset_of_the_ball(case):
    # With a radius, plane_level_keep keeps only cubes whose centre lies
    # within half a diagonal plus the radius of the plane (the detector's
    # former centre-distance test), and drops some of those.
    desc = _PLANE_PRUNE_CASES[case][0]
    plane = fp.configuration_plane(desc)
    dim = desc.ambient
    rng = np.random.default_rng(3)
    dropped = 0
    for level, t in itertools.product(range(1, 6), (0.05, 0.4, 1.3)):
        idx = rng.integers(0, 1 << level, size=(2000, dim))
        side = 2.0 ** -level
        radius = t * side
        keep = fp.plane_level_keep(plane, idx, level, radius)
        centers = (idx.astype(float) + 0.5) * side
        ball = plane.point_distance(centers) <= 0.5 * math.sqrt(dim) * side + radius + 1e-12
        assert not np.any(keep & ~ball), (level, t)
        dropped += int(ball.sum() - keep.sum())
    assert dropped > 0


def test_descriptor_round_trip():
    descs = [
        desc_homothetic(),
        fp.ConfigDescriptor(family="distance", d=2, params={"lam": 0.5}),
        fp.ConfigDescriptor(family="volume", d=2, params={"vol": 0.125}),
        fp.ConfigDescriptor(family="triangle", d=2, params={"ratios": [1.0, 2.0]}),
        fp.ConfigDescriptor(
            family="polygon", d=2, params={"sites": [[0, 0], [1, 0], [1, 1], [0, 1]]}
        ),
        fp.ConfigDescriptor(
            family="isometric", d=2, params={"sites": [[0, 0], [0.2, 0], [0.5, 0]]}
        ),
    ]
    for d in descs:
        back = fp.ConfigDescriptor.from_text(d.to_text())
        assert back.family == d.family and back.d == d.d
        assert back.m == d.m
        assert ("," not in d.to_text()) or d.to_text().count(",") == 0


def test_descriptor_validation():
    with pytest.raises(ConfigError):
        fp.ConfigDescriptor(family="nope", d=1, params={})
    with pytest.raises(ConfigError):
        # The isometric family is only defined in the plane.
        fp.ConfigDescriptor(
            family="isometric", d=1, params={"sites": [[0], [1], [2]]}
        )
    with pytest.raises(ConfigError):
        fp.ConfigDescriptor(family="polygon", d=2, params={"sites": [[0, 0], [1, 1]]})
    with pytest.raises(Exception):
        fp.ConfigDescriptor(
            family="homothetic", d=1, params={"sites": [[0], [0], [1]]}
        )


def test_scale_invariant_flag():
    flags = {
        "homothetic": True,
        "angle": True,
        "triangle": True,
        "polygon": True,
        "translate": False,
        "distance": False,
        "volume": False,
        "isometric": False,
    }
    for fam, expect in flags.items():
        if fam == "homothetic":
            d = desc_homothetic()
        elif fam == "translate":
            d = fp.ConfigDescriptor(family=fam, d=1, params={"sites": [[0], [1]]})
        elif fam == "distance":
            d = fp.ConfigDescriptor(family=fam, d=2, params={"lam": 0.5})
        elif fam == "angle":
            d = fp.ConfigDescriptor(family=fam, d=2, params={"lam": 0.5})
        elif fam == "volume":
            d = fp.ConfigDescriptor(family=fam, d=2, params={"vol": 0.1})
        elif fam == "isometric":
            d = fp.ConfigDescriptor(
                family=fam, d=2, params={"sites": [[0, 0], [0.2, 0], [0.5, 0]]}
            )
        elif fam == "triangle":
            d = fp.ConfigDescriptor(family=fam, d=2, params={"ratios": [1.0, 1.0]})
        else:
            d = fp.ConfigDescriptor(
                family=fam, d=2, params={"sites": [[0, 0], [1, 0], [1, 1], [0, 1]]}
            )
        assert d.scale_invariant == expect, fam


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    # Matches the closed form at z = 1.96.
    z = 1.959963984540054
    phat, n = 0.3, 200
    centre = (phat + z * z / (2 * n)) / (1 + z * z / n)
    half = (
        z
        * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
        / (1 + z * z / n)
    )
    lo, hi = wilson_interval(60, 200)
    assert lo == pytest.approx(centre - half, abs=1e-12)
    assert hi == pytest.approx(centre + half, abs=1e-12)


def test_intervals_cover():
    assert intervals_cover([(0.0, 0.4), (0.35, 1.0)], 0.1, 0.9)
    assert not intervals_cover([(0.0, 0.4), (0.5, 1.0)], 0.1, 0.9)


def test_realized_distance_values_of_full_grid():
    # With every level-4 cell of the square alive, realized pair distances
    # cover the whole accessible range.
    n, d = 4, 2
    grid = np.array(list(itertools.product(range(2**n), repeat=d)))
    intervals = fp.realized_value_set(grid, "distance", n, d)
    assert intervals_cover(intervals, 0.1, 1.0)


def test_pattern_witnesses_are_realizable_parameters():
    law = fp.GaltonWatsonLaw.create(1, 0.9)
    tree = fp.sample_tree(law, "surviving", 3, 6)
    sites = np.array([[0.0], [1.0]])
    wits = np.asarray(pattern_witnesses(tree.levels[6], sites, 6, 1))
    cells = set(tree.levels[6][:, 0].tolist())
    side = 2.0**-6
    assert wits.shape[0] > 0 and wits.shape[1] == 2
    for lam, b in wits:
        assert lam > 0
        # Both pattern points land in surviving cells.
        for site in (0.0, 1.0):
            cell = int((b + lam * site) // side)
            assert cell in cells


def test_box_dimension_exact_for_full_tree():
    law = fp.GaltonWatsonLaw.create(1, 1.0)
    tree = fp.sample_tree(law, "extinction", 0, 8)
    est = fp.box_dimension_estimate(tree, 2, 8)
    assert est == pytest.approx(1.0, abs=1e-12)


def test_percolation_dimension_monotone_curve():
    n = 5
    k = np.arange(2**n)
    cubes = np.stack([k, np.full_like(k, 2 ** (n - 1))], axis=1)
    res = fp.percolation_dimension_test(cubes, n, 2, [0.3, 0.5, 0.7], 100, base_seed=1)
    freqs = [row.frequency for row in res.curve]
    assert freqs == sorted(freqs)
    assert 0.2 <= res.p_star <= 0.8


def test_harris_check_rejects_non_monotone_event():
    law = fp.GaltonWatsonLaw.create(1, 0.7)
    def odd_count(cubes, n):
        return cubes.shape[0] % 2 == 1
    def survive(cubes, n):
        return cubes.shape[0] > 0
    with pytest.raises(ConfigError):
        fp.harris_check(odd_count, survive, law, 3, 100)


def test_harris_check_positive_association():
    law = fp.GaltonWatsonLaw.create(1, 0.7)
    def left(cubes, n):
        return cubes.shape[0] > 0 and bool((cubes[:, 0] < 2 ** (n - 1)).any())
    def right(cubes, n):
        return cubes.shape[0] > 0 and bool((cubes[:, 0] >= 2 ** (n - 1)).any())
    res = fp.harris_check(left, right, law, 4, 2000, base_seed=5)
    assert not res.violated
    assert res.p12 >= res.bound - 4 * res.sigma


def test_presence_profile_monotone_when_coupled():
    desc = desc_homothetic()
    for seed in range(20):
        prof = presence_profile(desc, [0.5, 0.65, 0.8], 6, seed)
        for a, b in zip(prof, prof[1:]):
            assert b >= a


def test_threshold_sweep_deterministic():
    desc = desc_homothetic()
    a = fp.threshold_sweep(desc, [0.6, 0.8], 6, 30, base_seed=7)
    b = fp.threshold_sweep(desc, [0.6, 0.8], 6, 30, base_seed=7)
    assert [(r.p, r.frequency) for r in a] == [(r.p, r.frequency) for r in b]
    for row in a:
        assert 0.0 <= row.ci_lo <= row.frequency <= row.ci_hi <= 1.0
        assert row.replicates == 30


def test_subset_stress_reduces_presence():
    desc = desc_homothetic()
    law = fp.GaltonWatsonLaw.create(1, 0.9)
    tree = fp.sample_tree(law, "surviving", 2, 6)
    out = fp.subset_stress_test(tree, desc, 0.4, "random", 6, 10, base_seed=3)
    assert out.p == pytest.approx(0.4)
    assert out.replicates == 10
    assert 0.0 <= out.ci_lo <= out.frequency <= out.ci_hi + 1e-12 <= 1.0 + 1e-12
    greedy = fp.subset_stress_test(tree, desc, 0.4, "greedy", 6, 3, base_seed=3)
    # The adversarial strategy can only do at least as much damage.
    assert greedy.frequency <= out.frequency + 1e-12


def _serial_plane_fit(desc, flat, tolerance, min_diameter):
    # Reference: one (m, d) least-squares fit per candidate.
    sites = desc.params["sites"]
    c = flat.reshape(desc.m, desc.d)
    if desc.family == "homothetic":
        sbar = sites.mean(axis=0)
        cbar = c.mean(axis=0)
        denom = float(np.sum((sites - sbar) ** 2))
        lam = float(np.sum((sites - sbar) * (c - cbar)) / denom)
        b = cbar - lam * sbar
        resid = c - (b + lam * sites)
        diam = max(
            float(np.linalg.norm(sites[i] - sites[j]))
            for i in range(desc.m) for j in range(i + 1, desc.m)
        )
        ok = (
            lam > 0
            and lam * diam >= min_diameter
            and float(np.max(np.linalg.norm(resid, axis=1))) <= tolerance
        )
        return {"scale": lam, "offset": b.tolist()}, ok, 0
    b = (c - sites).mean(axis=0)
    resid = c - (sites + b)
    ok = float(np.max(np.linalg.norm(resid, axis=1))) <= tolerance
    return {"offset": b.tolist()}, ok, 0


def _serial_polynomial_fit(polys, flat, tolerance):
    failed = 0
    for poly in polys:
        x, conv = fp.newton_refine(poly, flat)
        if not conv:
            failed += 1
            continue
        if np.max(np.abs(x - flat)) <= tolerance + 1e-12:
            return {"points": x.tolist()}, True, failed
    return None, False, failed


def _serial_detection(cubes, desc, n, enumerate_all, min_diameter):
    """(present, witness cubes and params, tuples_checked, newton_unconverged)
    from checking the candidate tuples one at a time, in order."""
    from fracperc.patterns import _candidate_tuples, _detection_polys

    tol = math.sqrt(desc.d) * 2.0 ** -n
    plane = desc.family in ("homothetic", "translate")
    target = fp.configuration_plane(desc) if plane else _detection_polys(desc)
    levels, state = _candidate_tuples(cubes, desc, n, tol, target, 5_000_000)
    found, unconverged = [], 0
    for checked, row in enumerate(state, start=1):
        flat = ((levels[n][row].astype(float) + 0.5) * 2.0 ** -n).ravel()
        if plane:
            params, ok, failed = _serial_plane_fit(desc, flat, tol, min_diameter)
        else:
            params, ok, failed = _serial_polynomial_fit(target, flat, tol)
        unconverged += failed
        if ok:
            found.append(([tuple(int(v) for v in levels[n][r]) for r in row], params))
            if not enumerate_all:
                return True, found[0], checked, unconverged
    if enumerate_all:
        return bool(found), found or None, state.shape[0], unconverged
    return False, None, state.shape[0], unconverged


@pytest.mark.parametrize("enumerate_all", [False, True])
def test_batched_verification_matches_serial_reference(enumerate_all):
    rng = np.random.default_rng(99)
    descs = [
        fp.ConfigDescriptor("distance", 2, {"lam": 0.9}),
        fp.ConfigDescriptor("angle", 2, {"lam": -0.99}),
        fp.ConfigDescriptor("volume", 2, {"vol": 0.3}),
        fp.ConfigDescriptor("volume", 1, {"vol": 0.6}),
        fp.ConfigDescriptor("triangle", 2, {"ratios": (2.0, 2.5)}),
        desc_homothetic(),
        desc_homothetic(sites=((0,), (1,), (3,), (4,))),
        desc_homothetic(d=2, sites=((0, 0), (1, 0), (0, 1))),
        # 8 coordinates: numpy sums them pairwise, not one by one
        desc_homothetic(d=2, sites=((0, 0), (1, 0), (1, 1), (0, 1))),
        fp.ConfigDescriptor("translate", 2, {"sites": [[0, 0], [0.25, 0.5]]}),
        fp.ConfigDescriptor("translate", 1, {"sites": [[0], [0.25], [0.375]]}),
    ]
    present = 0
    for case in range(100):
        desc = descs[case % len(descs)]
        n = int(rng.integers(2, 5) if desc.d == 2 else rng.integers(3, 7))
        size = int(rng.integers(desc.m, desc.m + 5))
        cells = rng.choice(1 << (n * desc.d), size=size, replace=False)
        cubes = np.stack([(cells >> (n * k)) & ((1 << n) - 1) for k in range(desc.d)], axis=1)
        floor = float(rng.choice([0.0, 3 * 2.0 ** -n])) if desc.family == "homothetic" else 0.0
        res = fp.detect_configuration(
            cubes, desc, n, enumerate_all=enumerate_all, min_diameter=floor
        )
        want = _serial_detection(cubes, desc, n, enumerate_all, floor)
        got_wit = res.witness
        if got_wit is not None:
            wits = got_wit if enumerate_all else [got_wit]
            got_wit = [(w["cubes"], w["params"]) for w in wits]
            got_wit = got_wit if enumerate_all else got_wit[0]
        got = (res.present, got_wit, res.tuples_checked, res.newton_unconverged)
        assert got == want, (case, desc.family, cubes.tolist())
        present += res.present
    assert 20 < present < 80


def test_polynomial_fit_rows_counts_unconverged_newton_runs():
    from fracperc.patterns import _polynomial_fit_rows

    # x^2 + y^2 + 1 - z^2: rows on z = 0 cannot leave the plane, where the
    # map has no root; such a row tries both systems and fails both.
    comp = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 0): 1.0, (0, 0, 2): -1.0}
    cone = fp.PolynomialMap(ambient=3, components=(comp,))
    centers = np.array([[0.3, 0.2, 1.4], [0.5, 0.5, 0.0], [0.1, -0.4, -1.2]])
    ok, params, unconverged = _polynomial_fit_rows((cone, cone), centers, 0.5)
    assert ok.tolist() == [True, False, True]
    assert unconverged.tolist() == [0, 2, 0]
    x, _ = fp.newton_refine(cone, centers[2])
    assert params(2) == {"points": x.tolist()}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ancestor_levels_match_row_unique(d):
    # Each level is built from the one below it; it must equal the
    # row-wise np.unique of the level-n set shifted up, on shuffled input
    # with repeated rows, on a 1-D index array and on an empty set.
    rng = np.random.default_rng(d)
    n = 6
    cubes = rng.integers(0, 1 << n, size=(500, d))
    cubes = np.concatenate([cubes, cubes[:200]])
    rng.shuffle(cubes)
    inputs = [cubes, np.unique(cubes, axis=0), np.zeros((0, d), dtype=np.int64)]
    if d == 1:
        inputs.append(cubes[:, 0])
    for c in inputs:
        rows = c.reshape(len(c), d)
        want = [np.unique(rows >> (n - j), axis=0) for j in range(n + 1)]
        got = _ancestor_levels(c, n)
        assert len(got) == n + 1
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and g.shape == w.shape
            assert np.array_equal(g, w)
