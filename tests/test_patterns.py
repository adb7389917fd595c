"""Unit tests for geometric configuration machinery: descriptors, dimension
thresholds, detection, sweeps, stress tests, and association checks."""

import itertools
import math

import numpy as np
import pytest

import fracperc as fp
from fracperc.errors import BudgetError, ConfigError
from fracperc.intersect import _stack
from fracperc.patterns import (
    SCALE_INVARIANT,
    SWEEP_COUNTERS,
    _ancestor_levels,
    _detection_keep,
    _witness_search,
    parameter_dimensions,
    pattern_witnesses,
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
        text = d.to_text()
        assert text.startswith(f"family={d.family} d={d.d}")
        assert "," not in text


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
    # SCALE_INVARIANT is the set the harness reads.
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
        assert (d.family in SCALE_INVARIANT) == expect, fam


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



def _sorted_bits(rows):
    """The rows' float64 bit patterns as int64, in lexicographic order."""
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.int64)
    return bits[np.lexsort(bits.T[::-1])]


def test_pattern_witnesses_match_ordered_pair_enumeration():
    # For two sites on the line, the detector enumerates exactly the rows of
    # the closed form over ordered pairs of cubes with a > 0:
    # a = (c_k - c_i) / (s_1 - s_0), b = c_i - a s_0, bit for bit.
    law = fp.GaltonWatsonLaw.create(1, 0.9)
    sites = np.array([[0.0], [1.0]])
    s0, s1 = 0.0, 1.0
    n = 9
    for seed in range(4000, 4005):
        cubes = fp.sample_tree(law, "surviving", seed, n).levels[n]
        c = (cubes[:, 0].astype(float) + 0.5) * 2.0**-n
        a = (c[None, :] - c[:, None]) / (s1 - s0)
        b = c[:, None] - a * s0
        ok = a > 0
        want = np.stack([a[ok], b[ok]], axis=1)
        got = pattern_witnesses(cubes, sites, n, 1)
        assert got.shape == want.shape and want.shape[0] > 0
        assert np.array_equal(_sorted_bits(got), _sorted_bits(want))

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


def _left_half(cubes, n):
    return cubes.shape[0] > 0 and bool((cubes[:, 0] < 2 ** (n - 1)).any())


def _right_half(cubes, n):
    return cubes.shape[0] > 0 and bool((cubes[:, 0] >= 2 ** (n - 1)).any())


def test_harris_check_positive_association():
    law = fp.GaltonWatsonLaw.create(1, 0.7)
    res = fp.harris_check(_left_half, _right_half, law, 4, 2000, base_seed=5)
    assert not res.violated
    assert res.p12 >= res.bound - 4 * res.sigma


def test_harris_check_coupled_is_the_extinction_check():
    # The coupled variant grows the extinction process from the same keys:
    # the same trees, and so the same (1 - q) bound.
    law = fp.GaltonWatsonLaw.create(1, 0.7)
    args = (_left_half, _right_half, law, 4, 400)
    coupled = fp.harris_check(*args, base_seed=3, variant="coupled")
    assert coupled == fp.harris_check(*args, base_seed=3, variant="extinction")
    assert coupled.bound == (1 - law.q) * coupled.p1 * coupled.p2 < coupled.p1 * coupled.p2


def test_presence_profile_monotone_when_coupled():
    desc = desc_homothetic()
    for seed in range(20):
        prof = fp.presence_profiles(desc, [0.5, 0.65, 0.8], 6, [seed])[0][0].tolist()
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
    out = fp.subset_stress_test(law, "surviving", desc, 0.4, "random", 6, 10, base_seed=3)
    assert out.p == pytest.approx(0.4)
    assert out.replicates == 10
    assert 0.0 <= out.ci_lo <= out.frequency <= out.ci_hi + 1e-12 <= 1.0 + 1e-12
    greedy = fp.subset_stress_test(law, "surviving", desc, 0.4, "greedy", 6, 3, base_seed=3)
    # The adversarial strategy can only do at least as much damage.
    assert greedy.frequency <= out.frequency + 1e-12



def _dict_tally_removals(cubes, desc, n, removals, max_witnesses):
    """Reference greedy loop: per step, tally every cube of the first
    max_witnesses witness dicts and remove the max of the tally dict.
    Returns the removed cubes in order and whether each step had a tie."""
    remaining, removed, ties = cubes, [], []
    for _ in range(removals):
        res = fp.detect_configuration(remaining, desc, n, enumerate_all=True)
        if not res.present:
            break
        tally = {}
        for wit in res.witness[:max_witnesses]:
            for cube in wit["cubes"]:
                tally[cube] = tally.get(cube, 0) + 1
        worst = max(tally, key=tally.get)
        ties.append(list(tally.values()).count(tally[worst]) > 1)
        removed.append(worst)
        remaining = remaining[~np.all(remaining == np.array(worst), axis=1)]
    return removed, ties


def test_greedy_removal_matches_dict_tally(monkeypatch):
    # The array tally removes the same cubes in the same order as the dict
    # tally, a tie going to the cube seen first in witness order.
    from fracperc import patterns
    from fracperc.patterns import _greedy_removal

    desc = desc_homothetic()
    law = fp.GaltonWatsonLaw.create(1, 0.9)
    n = 6
    tied = 0
    for seed, max_witnesses in ((1, 200_000), (2, 200_000), (3, 200_000), (4, 7)):
        monkeypatch.setattr(patterns, "MAX_WITNESSES", max_witnesses)
        cubes = fp.sample_tree(law, "surviving", seed, n).levels[n]
        removals = math.ceil(0.4 * cubes.shape[0])
        removed, ties = _dict_tally_removals(cubes, desc, n, removals, max_witnesses)
        tied += sum(ties)
        assert removed
        remaining = cubes
        for k in range(1, len(removed) + 1):
            remaining = _greedy_removal(remaining, desc, n, 1, None)
            want = cubes[[tuple(c) not in removed[:k] for c in cubes.tolist()]]
            assert np.array_equal(remaining, want), (seed, k)
        # all steps in one call, stopping early if no witness is left
        assert np.array_equal(_greedy_removal(cubes, desc, n, removals, None), remaining)
    assert tied > 0


def test_greedy_removal_matches_dict_tally_in_the_plane():
    # Removals that mask the rows of one witness enumeration remove the same
    # cubes, in the same order, as re-detecting after every removal, for
    # polynomial families and a plane family in d = 2.
    from fracperc.patterns import MAX_WITNESSES, _greedy_removal

    cases = (
        (fp.ConfigDescriptor(family="distance", d=2, params={"lam": 0.5}), 0.7, 4, (1, 2, 3, 4)),
        (fp.ConfigDescriptor(family="angle", d=2, params={"lam": 0.5}), 0.7, 3, (1, 2)),
        (desc_homothetic(2, ((0, 0), (1, 0), (0, 1))), 0.8, 3, (1, 2, 3, 4)),
    )
    tied = 0
    for desc, p, n, seeds in cases:
        law = fp.GaltonWatsonLaw.create(2, p)
        for seed in seeds:
            cubes = fp.sample_tree(law, "surviving", seed, n).levels[n]
            removals = math.ceil(0.3 * cubes.shape[0])
            removed, ties = _dict_tally_removals(cubes, desc, n, removals, MAX_WITNESSES)
            tied += sum(ties)
            assert removed, (desc.family, seed)
            # the first step, half of the steps, and all of them in one call
            # (stopping early if no witness is left)
            for k in sorted({1, len(removed) // 2, removals}):
                want = cubes[[tuple(c) not in removed[:k] for c in cubes.tolist()]]
                got = _greedy_removal(cubes, desc, n, k, None)
                assert np.array_equal(got, want), (desc.family, seed, k)
    assert tied > 0

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


def _one_tree_candidates(cubes, desc, n, tolerance, target):
    """The level arrays 0..n of the cubes' ancestors and their level-n
    candidate tuples (B, m), in traversal order: every candidate of one
    tree, from the search under enumerate_all, which decides no tree."""
    levels = _ancestor_levels(cubes, n)
    forest = [_stack([lev]) for lev in levels]
    built = []

    def collect(state):
        built.append(state)
        rows = state.shape[0]
        return np.zeros(rows, dtype=bool), np.zeros((rows, 0)), np.zeros(rows, dtype=np.int64)

    counts = {name: np.zeros(1, dtype=np.int64) for name in SWEEP_COUNTERS}
    keep = _detection_keep(desc, target, tolerance)
    for _ in _witness_search(forest, desc.m, keep, collect, n, counts, enumerate_all=True):
        pass
    state = np.concatenate(built) if built else np.zeros((0, desc.m), dtype=np.int64)
    assert counts["candidate_tuples"][0] == state.shape[0]
    return levels, state


def _serial_detection(cubes, desc, n, enumerate_all, min_diameter):
    """(present, witness cubes and params, tuples_checked, newton_unconverged)
    from checking the candidate tuples one at a time, in order."""
    from fracperc.patterns import _detection_polys

    tol = math.sqrt(desc.d) * 2.0 ** -n
    plane = desc.family in ("homothetic", "translate")
    target = fp.configuration_plane(desc) if plane else _detection_polys(desc)
    levels, state = _one_tree_candidates(cubes, desc, n, tol, target)
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
    assert params[2].tolist() == x.tolist()


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


_SWEEP_CASES = {
    # name: (descriptor, n, p grid, replicates, diameter floor)
    "homothetic-d1": (desc_homothetic(), 6, [0.55, 0.7, 0.85], 12, 8 * 2.0**-6),
    "homothetic-d2": (
        desc_homothetic(d=2, sites=((0, 0), (1, 0), (0, 1))), 3, [0.4, 0.55, 0.7], 6, 0.0,
    ),
    "translate-d2": (
        fp.ConfigDescriptor("translate", 2, {"sites": [[0, 0], [0.25, 0.5]]}),
        4, [0.3, 0.5, 0.7], 8, 0.0,
    ),
    "distance-d2": (fp.ConfigDescriptor("distance", 2, {"lam": 0.5}), 4, [0.25, 0.35, 0.5], 10, 0.0),
    "angle-d2": (fp.ConfigDescriptor("angle", 2, {"lam": 0.3}), 3, [0.35, 0.5, 0.6], 5, 0.0),
    "volume-d2": (fp.ConfigDescriptor("volume", 2, {"vol": 0.3}), 3, [0.35, 0.5, 0.55], 5, 0.0),
    # no triangle has these side ratios: most Newton runs do not converge
    "triangle-d2": (
        fp.ConfigDescriptor("triangle", 2, {"ratios": (1.0, 3.0)}), 3, [0.3, 0.45], 4, 0.0,
    ),
}


def _one_at_a_time(desc, grid, n, seeds, coupled, search):
    """Presence (R, P) and the per-p sums of the sweep counters from
    search(cubes) -> (present, candidates, checked, unconverged) on the
    realization of each (replicate, p), a coupled replicate not being
    searched again once present."""
    present = np.zeros((len(seeds), len(grid)), dtype=bool)
    sums = {name: [0] * len(grid) for name in fp.patterns.SWEEP_COUNTERS}
    for r, seed in enumerate(seeds):
        for i, p in enumerate(grid):
            if coupled and i and present[r, i - 1]:
                present[r, i] = True
                continue
            if coupled:
                cubes = fp.coupled_slice(desc.d, seed, p, n).levels[n]
            else:
                law = fp.GaltonWatsonLaw.create(desc.d, p)
                cubes = fp.sample_tree(law, "extinction", seed, n).levels[n]
            found, candidates, checked, unconverged = search(cubes)
            present[r, i] = found
            sums["detected"][i] += found
            sums["candidate_tuples"][i] += candidates
            sums["tuples_checked"][i] += checked
            sums["newton_unconverged"][i] += unconverged
    return present, sums


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "uncoupled"])
@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_batched_profiles_match_one_replicate_detections(case, coupled, monkeypatch):
    # Every (replicate, p) presence of the batch, and its per-p detections,
    # tuples checked and unconverged Newton runs, equal those of checking
    # the replicate's candidates one by one.  The candidates it builds are
    # those of one presence_profiles call per replicate, at most every
    # candidate and at least the ones checked.  The batch fits as many rows
    # as one detect_configuration per replicate, each from its own doubling
    # blocks: no row is fitted twice or after its replicate is decided.
    # Small groups and chunks put group and block boundaries inside and
    # across replicates.
    from fracperc import geometry, intersect, patterns

    desc, n, grid, reps, floor = _SWEEP_CASES[case]
    seeds = [int(fp.rng.derive(fp.rng.root_key(11), r + 1)) for r in range(reps)]
    tol = math.sqrt(desc.d) * 2.0 ** -n

    def by_candidate(cubes):
        if cubes.shape[0] < desc.m:
            return False, 0, 0, 0
        found, _, checked, unconverged = _serial_detection(cubes, desc, n, False, floor)
        _, state = _one_tree_candidates(cubes, desc, n, tol, desc._detection_target)
        return found, state.shape[0], checked, unconverged

    def one_tree(cubes):
        res = fp.detect_configuration(cubes, desc, n, min_diameter=floor)
        return res.present, 0, res.tuples_checked, res.newton_unconverged

    want, sums = _one_at_a_time(desc, grid, n, seeds, coupled, by_candidate)
    fit_rows = patterns._fit_rows

    def counting(fitted, key):
        def fit(desc, target, centers, *args):
            fitted[key] += centers.shape[0]
            return fit_rows(desc, target, centers, *args)
        return fit

    for limit, chunk in ((intersect.BATCH_TUPLES, geometry.CHUNK_FLOATS), (40, 96)):
        monkeypatch.setattr(intersect, "BATCH_TUPLES", limit)
        monkeypatch.setattr(geometry, "CHUNK_FLOATS", chunk)
        fitted = {"serial": 0, "batch": 0}
        monkeypatch.setattr(patterns, "_fit_rows", counting(fitted, "serial"))
        _one_at_a_time(desc, grid, n, seeds, coupled, one_tree)
        monkeypatch.setattr(patterns, "_fit_rows", counting(fitted, "batch"))
        got, counters = fp.presence_profiles(
            desc, grid, n, seeds, coupled=coupled, variant="extinction",
            min_diameter=floor,
        )
        assert got.tolist() == want.tolist(), (limit, chunk)
        built = counters.pop("candidate_tuples")
        exact = {k: v for k, v in sums.items() if k != "candidate_tuples"}
        assert counters == exact, (limit, chunk)
        assert fitted["batch"] == fitted["serial"], (limit, chunk)
        alone = [
            fp.presence_profiles(
                desc, grid, n, [s], coupled=coupled, variant="extinction",
                min_diameter=floor,
            )[1]["candidate_tuples"]
            for s in seeds
        ]
        assert built == np.sum(alone, axis=0).tolist(), (limit, chunk)
        bounds = zip(counters["tuples_checked"], built, sums["candidate_tuples"])
        assert all(lo <= b <= hi for lo, b, hi in bounds), (limit, chunk)
    assert want.any() and not want.all()
    assert sums["tuples_checked"] != sums["candidate_tuples"]
    if case == "triangle-d2":
        assert 0 < sum(sums["newton_unconverged"]) < sum(sums["tuples_checked"])
    monkeypatch.setattr(patterns, "_fit_rows", fit_rows)
    if coupled:
        profiles = [
            fp.presence_profiles(desc, grid, n, [s], min_diameter=floor)[0][0].tolist()
            for s in seeds
        ]
        assert profiles == want.tolist()


def test_batched_sweep_splits_groups_and_refuses_lone_replicates(monkeypatch):
    # With one step per level, a batch whose replicates fit the budget one
    # by one but not together is not refused, as the budget caps each
    # replicate's tuples; a budget that one replicate alone exceeds raises
    # BudgetError.
    from fracperc import intersect

    monkeypatch.setattr(intersect, "BATCH_TUPLES", 1 << 40)
    desc, n, grid, reps, _ = _SWEEP_CASES["distance-d2"]
    seeds = [int(fp.rng.derive(fp.rng.root_key(11), r + 1)) for r in range(reps)]

    def fits(budget):
        monkeypatch.setattr(intersect, "TUPLE_BUDGET", budget)
        for seed, p in itertools.product(seeds, grid):
            law = fp.GaltonWatsonLaw.create(2, p)
            cubes = fp.sample_tree(law, "extinction", seed, n).levels[n]
            try:
                fp.detect_configuration(cubes, desc, n)
            except BudgetError:
                return False
        return True

    want = fp.presence_profiles(desc, grid, n, seeds, coupled=False, variant="extinction")
    budget = 16
    while not fits(budget):
        budget *= 2
    got = fp.presence_profiles(desc, grid, n, seeds, coupled=False, variant="extinction")
    assert got[0].tolist() == want[0].tolist() and got[1] == want[1]
    # together, the replicates at the largest p would build more tuples at
    # the last level than the budget: more than every candidate (counted
    # without a budget)
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", 1 << 40)
    law = fp.GaltonWatsonLaw.create(2, grid[-1])
    tol = math.sqrt(desc.d) * 2.0 ** -n
    exhaustive = 0
    for seed in seeds:
        cubes = fp.sample_tree(law, "extinction", seed, n).levels[n]
        if cubes.shape[0] >= desc.m:
            _, state = _one_tree_candidates(cubes, desc, n, tol, desc._detection_target)
            exhaustive += state.shape[0]
    assert exhaustive > budget
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", budget // 2)
    with pytest.raises(BudgetError):
        fp.presence_profiles(desc, grid, n, seeds, coupled=False, variant="extinction")


def test_detection_steps_hold_at_most_the_batch_cap(monkeypatch):
    # At a cap of 40, no step of a multi-replicate detection holds over 40
    # tuples while its factors expand, its queues together never hold over
    # n * 40 tuples, some last-level steps hold tuples of several trees,
    # and the sweep's presence and counters are those of the default cap.
    import weakref

    from fracperc import intersect
    from fracperc.patterns import _forest_ancestors
    from fracperc.percolation import coupled_law

    desc, n = fp.ConfigDescriptor("distance", 2, {"lam": 0.5}), 4
    seeds = np.array([fp.rng.derive(fp.rng.root_key(11), r + 1) for r in range(40)])
    want = fp.presence_profiles(desc, [0.35], n, seeds)
    monkeypatch.setattr(intersect, "BATCH_TUPLES", 40)
    tree, cubes = fp.sample_forest(coupled_law(2, 0.35), "coupled", seeds, n)[n]
    _, levels = _forest_ancestors(tree, cubes, n, desc.m)
    expand, queue = intersect._expand_factor, intersect._Queue
    queues, held, last = weakref.WeakSet(), [], []

    class Recording(queue):
        def __init__(self, *args):
            super().__init__(*args)
            queues.add(self)

    def recording(state, col, order, *table):
        out = expand(state, col, order, *table)
        held.append((out.shape[0], sum(q.state.shape[0] for q in queues)))
        if order.shape[0] == levels[n][0].shape[0]:
            # the expanded column holds level-n rows
            last.append(np.unique(levels[n][0][out[:, col]]).shape[0])
        return out

    monkeypatch.setattr(intersect, "_Queue", Recording)
    monkeypatch.setattr(intersect, "_expand_factor", recording)
    got = fp.presence_profiles(desc, [0.35], n, seeds)
    assert got[0].tolist() == want[0].tolist()
    assert {k: v for k, v in got[1].items() if k != "candidate_tuples"} == {
        k: v for k, v in want[1].items() if k != "candidate_tuples"
    }
    assert len(last) > desc.m and max(last) > 1
    assert max(size for size, _ in held) <= 40
    assert 40 < max(total for _, total in held) <= n * 40


def test_enumeration_yields_each_trees_witnesses_at_once(monkeypatch):
    # Under enumerate_all every tree's witnesses come in one yield, after
    # the traversal has moved past the tree, in the order and with the
    # counters of the default cap, though a cap of 40 spreads a tree's
    # candidates over many steps.
    from fracperc import intersect
    from fracperc.patterns import _detect_groups

    desc = desc_homothetic(d=1, sites=((0,), (1,), (2,)))
    n, replicates = 6, 12
    (tree, cubes), law, _ = _pattern_dim_forest(replicates, n)

    def enumerate_all():
        counts = {name: np.zeros(replicates, dtype=np.int64) for name in SWEEP_COUNTERS}
        yields = [
            [np.asarray(a).copy() for a in hits]
            for hits in _detect_groups(counts, tree, cubes, desc, n, enumerate_all=True)
        ]
        return yields, counts

    want, want_counts = enumerate_all()
    monkeypatch.setattr(intersect, "BATCH_TUPLES", 40)
    got, counts = enumerate_all()
    assert len(got) > len(want)
    trees = [set(owner.tolist()) for owner, _, _ in got]
    assert all(not a & b for i, a in enumerate(trees) for b in trees[i + 1 :])
    assert sum(len(t) for t in trees) > 1
    for a, b in zip(want_counts.values(), counts.values()):
        assert a.tolist() == b.tolist()
    for k in range(3):
        assert np.concatenate([y[k] for y in got]).tolist() == (
            np.concatenate([y[k] for y in want]).tolist()
        )


@pytest.mark.parametrize("floor", [0.0, 0.4], ids=["first-block", "later-block"])
def test_detection_stops_expanding_at_the_first_witness(floor, monkeypatch):
    # The last level is built from blocks of 1, 2, 4, ... level-(n-1)
    # tuples: a one-tree detection expands no block after the one holding
    # its witness, so it builds fewer candidates than the exhaustive
    # enumeration, and its witness and tuples_checked are those of checking
    # every candidate one by one.  With no diameter floor the witness lies
    # in the first block (the first tuple, of one cube thrice, has three
    # children forming a copy); the floor pushes it to a later one.
    from fracperc import intersect, patterns

    desc, n = desc_homothetic(d=2, sites=((0, 0), (1, 0), (0, 1))), 3
    cubes = np.array([(i, j) for i in range(8) for j in range(8)])
    expand, fit_rows = intersect._expand_factor, patterns._fit_rows
    blocks, fitted = [], []

    def recording(state, col, order, *table):
        # the last level's expansions: one order entry per level-n cube
        if col == 0 and order.shape[0] == cubes.shape[0]:
            blocks.append(state.shape[0])
        return expand(state, col, order, *table)

    def fitting(desc, target, centers, *args):
        fitted.append(centers.shape[0])
        return fit_rows(desc, target, centers, *args)

    monkeypatch.setattr(intersect, "_expand_factor", recording)
    monkeypatch.setattr(patterns, "_fit_rows", fitting)
    res = fp.detect_configuration(cubes, desc, n, min_diameter=floor)
    monkeypatch.setattr(intersect, "_expand_factor", expand)
    monkeypatch.setattr(patterns, "_fit_rows", fit_rows)
    _, counts = patterns._detect_forest(0, cubes, 1, desc, n, min_diameter=floor)
    found, witness, checked, unconverged = _serial_detection(cubes, desc, n, False, floor)
    _, every = _one_tree_candidates(
        cubes, desc, n, math.sqrt(desc.d) * 2.0 ** -n, desc._detection_target
    )
    assert found and res.present
    assert (res.witness["cubes"], res.witness["params"]) == witness
    assert (res.tuples_checked, res.newton_unconverged) == (checked, unconverged)
    # the blocks expanded: 1, 2, 4, ... rows, the last one the witness's,
    # each block's candidates fitted in one call
    assert blocks == [1 << k for k in range(len(blocks))]
    assert (len(blocks) == 1) == (floor == 0.0)
    assert len(fitted) <= len(blocks) and sum(fitted[:-1]) < checked <= sum(fitted)
    assert counts["tuples_checked"][0] == checked
    assert checked <= counts["candidate_tuples"][0] < every.shape[0]


def test_last_level_budget_refuses_before_the_first_block(monkeypatch):
    # The budget caps the tuples each level's steps build, so a tree whose
    # whole last expansion is over it (64 tuples for each of 3124 level-2
    # tuples) is not refused when its first block holds a witness: the
    # largest count is level 2's, 64 level-1 tuples whose three factor
    # cubes have 4 children each.  One tuple under it, the step building
    # level 2 is refused before any of it, and so before the first block.
    from fracperc import intersect
    from fracperc.intersect import _Batch, _child_table, _frontier

    desc, n = desc_homothetic(d=2, sites=((0, 0), (1, 0), (0, 1))), 3
    cubes = np.array([(i, j) for i in range(8) for j in range(8)])
    levels = [_stack([lev]) for lev in _ancestor_levels(cubes, n)]
    keep = _detection_keep(desc, desc._detection_target, math.sqrt(2) * 2.0 ** -n)
    states = {}
    for lev, state, _ in _frontier(_Batch(3, 1, 1, levels), keep, n - 1):
        states[lev] = np.concatenate([states.get(lev, state[:0]), state])
    counts = [_child_table(levels[lev], levels[lev + 1])[2] for lev in range(n)]
    sizes = [np.prod(counts[lev][states[lev]], axis=1) for lev in range(n)]
    assert all((c == 4).all() for c in counts) and sizes[1].shape[0] == 64
    count = int(sizes[1].sum())
    assert count == 64 * 64 < int(sizes[2].sum())
    expand, built = intersect._expand_factor, []

    def recording(state, col, order, *table):
        built.append((order.shape[0], col))
        return expand(state, col, order, *table)

    monkeypatch.setattr(intersect, "_expand_factor", recording)
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", count - 1)
    with pytest.raises(BudgetError, match=rf"would build {count} tuples at level 2 \(budget {count - 1}\)"):
        fp.detect_configuration(cubes, desc, n)
    level = [levels[lev][0].shape[0] for lev in range(n + 1)]
    assert built == [(level[1], col) for col in range(desc.m)]
    built.clear()
    monkeypatch.setattr(intersect, "TUPLE_BUDGET", count)
    assert fp.detect_configuration(cubes, desc, n).present
    # the last level's first block alone: one level-2 tuple
    assert [col for rows, col in built if rows == level[n]] == list(range(desc.m))


def test_box_count_slope_matches_row_unique():
    from fracperc.patterns import box_count_slope

    rng = np.random.default_rng(4)
    for cols in (1, 2, 3):
        pts = rng.uniform(0, 1, size=(3000, cols)) ** 2
        slope, counts = box_count_slope(pts, 2, 7)
        want = [np.unique(np.floor(pts * (1 << j)).astype(np.int64), axis=0).shape[0]
                for j in range(2, 8)]
        assert counts == want
        assert slope == float(np.polyfit(range(2, 8), np.log2(want), 1)[0])


def test_box_counts_do_not_import_numpy_ma():
    # np.unique imports numpy.ma (12 ms and over 1 MB a process); the box
    # counts and percolation hits count distinct keys without it.
    import os
    import subprocess
    import sys

    code = (
        "import sys, numpy as np\n"
        "from fracperc.patterns import box_count_slope, percolation_dimension_test\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "pts = np.random.default_rng(4).uniform(0, 1, size=(300, 2))\n"
        "box_count_slope(pts, 2, 7)\n"
        "percolation_dimension_test([[0, 0], [3, 1]], 2, 2, [0.5, 0.9], 4)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_split_by_tree_matches_a_split_per_tree():
    from fracperc.patterns import _split_by_tree

    rng = np.random.default_rng(6)
    tree = rng.integers(0, 9, size=200) * 2  # odd trees hold nothing
    rows = rng.integers(0, 100, size=(200, 3))
    got = _split_by_tree(tree, rows, 20)
    assert len(got) == 20
    for t, held in enumerate(got):
        assert held.shape == (np.count_nonzero(tree == t), 3)
        assert held.tolist() == rows[tree == t].tolist()
    assert [a.shape for a in _split_by_tree(tree[:0], rows[:0], 3)] == [(0, 3)] * 3


def test_parameter_dimensions_give_nan_without_a_witness():
    # A replicate without a witness has no slope: NaN, not a dimension of 0.
    n, replicates, sites = 6, 12, [[0.0], [1.0], [2.0]]
    (tree, cubes), law, _ = _pattern_dim_forest(replicates, n)
    got = parameter_dimensions(tree, cubes, replicates, law, sites, n, 3)
    none = [est for est in got if est.witnesses == 0]
    assert none and len(none) < replicates
    for est in none:
        assert math.isnan(est.slope) and est.counts == [0] * 3
    assert all(math.isfinite(est.slope) for est in got if est.witnesses)


def test_slope_fits_need_three_levels_from_zero():
    from fracperc.patterns import box_count_slope, count_slope

    pts = np.random.default_rng(5).uniform(0, 1, size=(100, 2))
    for lo, hi in ((9, 4), (3, 4), (-1, 4)):
        with pytest.raises(ConfigError):
            box_count_slope(pts, lo, hi)
        with pytest.raises(ConfigError):
            count_slope([1, 2, 4, 8, 16], lo, hi)


@pytest.mark.parametrize("family", ["homothetic", "translate"])
def test_plane_fit_of_no_rows_is_empty(family):
    from fracperc.patterns import _plane_fit_rows

    desc = fp.ConfigDescriptor(family, 2, {"sites": [[0, 0], [1, 0], [0, 1]]})
    ok, params = _plane_fit_rows(desc, np.zeros((0, 3, 2)), 0.1)
    assert ok.shape == (0,) and ok.dtype == bool
    assert params.shape == (0, 3 if family == "homothetic" else 2)


def test_full_dimensional_plane_needs_no_prune():
    # Two sites on the line: the homothetic plane fills R^2 and meets every
    # product cube; three sites span a plane of R^3 that prunes.
    from fracperc.patterns import _detection_keep

    pair = desc_homothetic(sites=((0,), (1,)))
    assert _detection_keep(pair, pair._detection_target, 0.01) is None
    triple = desc_homothetic()
    assert _detection_keep(triple, triple._detection_target, 0.01) is not None


def test_percolation_dimension_hits_match_unrestricted_trees():
    # Percolation restricted to the set's ancestors hits the set exactly
    # when the unrestricted tree of the same seed holds one of its cubes.
    n, d, replicates, base = 5, 2, 40, 3
    k = np.arange(2**n)
    segment = np.stack([k, (k * 7) % 2**n], axis=1)
    target = {tuple(c) for c in segment.tolist()}
    p_grid = [0.35, 0.5, 0.7]
    res = fp.percolation_dimension_test(segment, n, d, p_grid, replicates, base_seed=base)
    for pi, p in enumerate(p_grid):
        law = fp.GaltonWatsonLaw.create(d, p)
        want = 0
        for r in range(replicates):
            seed = int(fp.rng.derive(fp.rng.root_key(base), (pi + 1) * 1_000_003 + r))
            cubes = fp.sample_tree(law, "extinction", seed, n).levels[n]
            want += any(tuple(c) in target for c in cubes.tolist())
        assert res.hits[pi] == want, p
        assert res.curve[pi].frequency == want / replicates
    assert 0 < res.hits[0] < res.hits[-1]


@pytest.mark.parametrize("desc, p, variant, strategy", [
    (desc_homothetic(), 0.8, "surviving", "random"),
    (fp.ConfigDescriptor("distance", 2, {"lam": 0.3}), 0.4, "extinction", "random"),
    (desc_homothetic(), 0.8, "surviving", "greedy"),
    (fp.ConfigDescriptor("distance", 2, {"lam": 0.3}), 0.4, "extinction", "greedy"),
], ids=["homothetic", "distance", "greedy-homothetic", "greedy-distance"])
def test_random_stress_matches_one_tree_detection(desc, p, variant, strategy, monkeypatch):
    # The batched presence check after random or greedy removals equals
    # detect_configuration on each replicate's remaining cubes; greedy
    # removals, which enumerate every replicate's witnesses in one batch,
    # equal the one-tree _greedy_removal of each replicate.  Small groups and
    # chunks put group boundaries inside the replicate set.
    from fracperc import geometry, intersect
    from fracperc.patterns import _greedy_removal

    n, fraction, replicates, base = 5, 0.3, 12, 4
    law = fp.GaltonWatsonLaw.create(desc.d, p)
    present = checked = unconverged = 0
    for r in range(replicates):
        seed = int(fp.rng.derive(fp.rng.root_key(base), r + 1))
        cubes = fp.sample_tree(law, variant, seed, n).levels[n]
        removals = math.ceil(fraction * cubes.shape[0])
        if strategy == "random":
            keep = np.random.default_rng(seed).permutation(cubes.shape[0])[removals:]
            left = cubes[np.sort(keep)]
        else:
            left = _greedy_removal(cubes, desc, n, removals, None)
        res = fp.detect_configuration(left, desc, n)
        present += res.present
        checked += res.tuples_checked
        unconverged += res.newton_unconverged
    assert 0 < present < replicates
    for limit, chunk in ((intersect.BATCH_TUPLES, geometry.CHUNK_FLOATS), (40, 96)):
        monkeypatch.setattr(intersect, "BATCH_TUPLES", limit)
        monkeypatch.setattr(geometry, "CHUNK_FLOATS", chunk)
        row = fp.subset_stress_test(
            law, variant, desc, fraction, strategy, n, replicates, base_seed=base,
        )
        assert row.frequency == present / replicates, (limit, chunk)
        assert row.counters["detected"] == present
        assert row.counters["tuples_checked"] == checked
        assert row.counters["newton_unconverged"] == unconverged


def _pattern_dim_forest(replicates, n):
    """The level-n cubes of the pattern-dim paper trees (d = 1, p = 0.8,
    surviving) of seed 1's first replicates, as (tree, cubes), and the law."""
    law = fp.GaltonWatsonLaw.create(1, 0.8)
    seeds = fp.rng.replicate_seeds(1, replicates)
    return fp.sample_forest(law, "surviving", seeds, n)[n], law, seeds


def test_parameter_dimensions_match_one_tree_estimates(monkeypatch):
    # Box counts taken group by group equal those of each replicate's own
    # enumeration, whether a group holds several replicates or small groups
    # and chunks put group boundaries between every two of them.
    from fracperc import geometry, intersect

    n, replicates, sites = 6, 12, [[0.0], [1.0], [2.0]]
    (tree, cubes), law, seeds = _pattern_dim_forest(replicates, n)
    want = [
        fp.pattern_parameter_dimension(fp.sample_tree(law, "surviving", s, n), sites, n, 3)
        for s in seeds
    ]
    assert 0 < sum(est.witnesses > 0 for est in want) < replicates
    for limit, chunk in ((intersect.BATCH_TUPLES, geometry.CHUNK_FLOATS), (40, 96)):
        monkeypatch.setattr(intersect, "BATCH_TUPLES", limit)
        monkeypatch.setattr(geometry, "CHUNK_FLOATS", chunk)
        got = parameter_dimensions(tree, cubes, replicates, law, sites, n, 3)
        for a, b in zip(got, want):
            assert (a.slope, a.counts, a.witnesses, a.candidate_tuples) == (
                b.slope, b.counts, b.witnesses, b.candidate_tuples
            ), (limit, chunk)


def test_parameter_dimensions_hold_one_group_of_witnesses():
    # Witnesses are box-counted and dropped group by group, so doubling the
    # replicates barely raises the traced peak of parameter_dimensions.
    import tracemalloc

    peaks = []
    for replicates in (100, 200):
        (tree, cubes), law, _ = _pattern_dim_forest(replicates, 8)
        tracemalloc.start()
        parameter_dimensions(tree, cubes, replicates, law, [[0.0], [1.0], [2.0]], 8)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks
