"""Experiment orchestration: flat key=value configs, seeded deterministic
runs and CSV/JSON/SVG emission.
"""

import math
import os
import time

import numpy as np

from .errors import BudgetError, ConfigError
from .geometry import AffinePlane, plane_from_text
from .polynomials import polynomial_from_text
from .percolation import (
    MAX_CUBES,
    GaltonWatsonLaw,
    forest_groups,
    natural_mass,
    sample_forest,
    sample_tree,
)
from .intersect import (
    ProductLaw,
    ProductMeasureSpec,
    _product_cubes,
    holder_modulus,
    replicate_masses,
    second_moment_estimate,
)
from .patterns import (
    PLANE_FAMILIES,
    SCALE_INVARIANT,
    ConfigDescriptor,
    configuration_plane,
    configuration_polynomial,
    count_slope,
    _fit_levels,
    _harris_checks,
    parameter_dimensions,
    percolation_dimension_test,
    presence_profiles,
    subset_stress_test,
    wilson_interval,
)
from .rng import derive, replicate_seeds, root_key
from . import io as fio

MASS_COLUMNS = ("seed", "param_id", "n", "Y", "kernel", "se")
FREQ_COLUMNS = (
    "family", "params", "p", "n", "replicates", "frequency", "ci_lo", "ci_hi"
)

# The default of every config key.
_DEFAULTS = {
    "d": "1", "p": "0.8", "variant": "surviving", "n": "6",
    "replicates": "50", "seed": "0",
    "coupled": "1", "tolerance_c": "", "mode": "independent", "m": "",
    "family": "homothetic", "sites": "0,1,2", "lam": "0.5", "vol": "0.25",
    "ratios": "1.0,1.0", "p_grid": "0.4,0.55,0.7,0.85",
    "target_kind": "family", "target_spec": "",
    "grid_size": "4", "grid_delta": "0.05", "gammas": "0.5,1.0",
    "j_lo": "3", "j_hi": "", "fraction": "0.2", "strategy": "random",
    "shape": "line", "mc_samples": "4096", "diag_level": "1",
}


def _keys(names, **defaults):
    """The config of a command that reads the given keys: each key with its
    default, or with the command's own default where one is given."""
    return {k: defaults.get(k, _DEFAULTS[k]) for k in names.split()}


_SAMPLE_KEYS = "d p variant n replicates seed"
_FAMILY_KEYS = "family sites lam vol"
_PRODUCT_KEYS = "mode m diag_level mc_samples"
_MASS_KEYS = f"{_SAMPLE_KEYS} {_PRODUCT_KEYS} target_kind target_spec {_FAMILY_KEYS}"

# The keys each command reads, with their defaults; any other key is refused.
_COMMAND_CONFIG = {
    "sample": _keys(_SAMPLE_KEYS),
    "sweep": _keys(
        f"d variant n replicates seed coupled tolerance_c p_grid {_FAMILY_KEYS} ratios"
    ),
    "intersect": _keys(_MASS_KEYS),
    "holder": _keys(
        f"d p variant n seed {_PRODUCT_KEYS} family sites gammas grid_size grid_delta"
    ),
    "second-moment": _keys(_MASS_KEYS),
    "dimension": _keys(_SAMPLE_KEYS),
    "pattern-dim": _keys(f"{_SAMPLE_KEYS} sites j_lo j_hi"),
    "perc-dim-test": _keys(
        "d n replicates seed shape p_grid",
        d="2", p_grid="0.3,0.4,0.45,0.5,0.55,0.6,0.7",
    ),
    "harris": _keys("d p n replicates seed"),
    "stress": _keys(
        f"{_SAMPLE_KEYS} {_FAMILY_KEYS} ratios fraction strategy tolerance_c"
    ),
}
COMMANDS = tuple(_COMMAND_CONFIG)

# Smoke presets are sized to finish within seconds.
_PRESETS = {
    "smoke": {
        "n": "5", "replicates": "20", "p_grid": "0.45,0.6,0.75,0.9",
        "grid_size": "3", "j_lo": "2",
    },
    "paper": {
        "n": "8", "replicates": "400",
        "p_grid": "0.35,0.45,0.55,0.63,0.7,0.8,0.9",
        "grid_size": "6", "j_lo": "4",
    },
}


def parse_config_file(path):
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {line!r} (expected key=value)")
            k, _, v = line.partition("=")
            out[k.strip()] = v.strip()
    return out


class ExperimentConfig:
    """Resolved flat key=value configuration for one command."""

    def __init__(self, command, overrides=None, config_path=None, preset=None):
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        self.command = command
        raw = dict(_COMMAND_CONFIG[command])
        if preset:
            if preset not in _PRESETS:
                raise ConfigError(f"unknown preset {preset!r}")
            raw.update((k, v) for k, v in _PRESETS[preset].items() if k in raw)
        given = parse_config_file(config_path) if config_path else {}
        given.update((k, str(v)) for k, v in (overrides or {}).items() if v is not None)
        unread = sorted(set(given) - set(raw))
        if unread:
            raise ConfigError(
                f"{command} does not read config key(s) {', '.join(unread)}"
            )
        raw.update(given)
        self.raw = raw
        self.preset = preset

    def i(self, key):
        try:
            return int(self.raw[key])
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {self.raw[key]!r}")

    def f(self, key):
        try:
            return float(self.raw[key])
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {self.raw[key]!r}")

    def s(self, key):
        return self.raw[key]

    def flag(self, key):
        value = self.raw[key]
        if value in ("1", "true", "yes"):
            return True
        if value in ("0", "false", "no"):
            return False
        raise ConfigError(f"{key} must be 1, true, yes, 0, false or no, got {value!r}")

    def floats(self, key):
        try:
            return [float(t) for t in self.raw[key].split(",") if t.strip()]
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated numbers")

    def sites(self):
        """The sites as an (m, d) array."""
        vals, d = self.floats("sites"), self.i("d")
        if d < 1 or len(vals) % d:
            raise ConfigError(f"sites must hold a multiple of d = {d} numbers")
        return np.array(vals).reshape(-1, d)

    @property
    def tolerance(self):
        if not self.raw["tolerance_c"]:
            return None
        return self.f("tolerance_c") * math.sqrt(self.i("d")) * 2.0 ** -self.i("n")

    def law(self):
        return GaltonWatsonLaw.create(self.i("d"), self.f("p"))

    def descriptor(self):
        fam = self.s("family")
        d = self.i("d")
        if fam in ("homothetic", "translate", "isometric", "polygon"):
            params = {"sites": self.sites()}
        elif fam == "distance":
            params = {"lam": self.f("lam")}
        elif fam == "angle":
            params = {"lam": self.f("lam")}
        elif fam == "volume":
            params = {"vol": self.f("vol")}
        elif fam == "triangle":
            params = {"ratios": tuple(self.floats("ratios"))}
        else:
            raise ConfigError(f"unknown family {fam!r}")
        return ConfigDescriptor(family=fam, d=d, params=params)

    def target(self):
        kind = self.s("target_kind")
        if kind == "plane":
            return plane_from_text(self.s("target_spec"))
        if kind == "poly":
            return polynomial_from_text(self.s("target_spec"))
        if kind == "family":
            fam = self.s("family")
            if fam in PLANE_FAMILIES:
                return configuration_plane(self.descriptor())
            if fam in SCALE_INVARIANT:
                # a polynomial in the sites' differences with no constant
                # term: it and its differential vanish on the diagonal
                raise ConfigError(
                    f"family {fam} has no intersection mass: its "
                    "polynomial and its differential vanish wherever the "
                    "sites coincide, and every level keeps cubes holding "
                    "such points; sweep and stress detect this family"
                )
            return configuration_polynomial(self.descriptor())
        raise ConfigError(f"unknown target_kind {kind!r}")


def _product_law(cfg, target):
    """The law of the product of m factor trees, m = target.ambient // d; a
    given m that disagrees is refused."""
    mode = cfg.s("mode")
    d = cfg.i("d")
    m = target.ambient // d
    if cfg.raw["m"] and cfg.i("m") != m:
        raise ConfigError(
            f"m = {cfg.i('m')} disagrees with the target: its ambient dimension "
            f"{target.ambient} over d = {d} gives m = {m}"
        )
    diag_level = cfg.i("diag_level") if mode == "power" else 0
    return ProductLaw(cfg.law(), cfg.s("variant"), mode, m, diag_level)


# ---------------------------------------------------------------------------
# Command implementations.  Each returns a JSON-serializable result dict and
# writes its CSV/SVG files under out_dir.  Deterministic counters of what the
# algorithm did go under the dict's "counters" key; `run` writes them apart
# from the results and the timing.

def _tree_counts(cfg, seeds):
    """(R, n+1) cubes per level of the tree of each seed, grown group by group."""
    out = []
    for levels in forest_groups(cfg.law(), cfg.s("variant"), seeds, cfg.i("n")):
        roots = levels[0][0]
        out.append([
            np.bincount(tree - roots[0], minlength=len(roots)) for tree, _, _ in levels
        ])
    return np.concatenate([np.stack(group, axis=1) for group in out])


def _run_sample(cfg, out_dir):
    n, reps = cfg.i("n"), cfg.i("replicates")
    law = cfg.law()

    seeds = replicate_seeds(cfg.i("seed"), reps)
    counts = _tree_counts(cfg, seeds)
    masses = np.stack([natural_mass(law, counts[:, j], j) for j in range(n + 1)], axis=1)
    with fio.CsvWriter(os.path.join(out_dir, "results.csv"), MASS_COLUMNS) as csv:
        for seed, count, mass in zip(seeds, counts.tolist(), masses.tolist()):
            for j in range(n + 1):
                csv.row(seed, "count", j, float(count[j]), "exact", 0.0)
                csv.row(seed, "natural_mass", j, mass[j], "exact", 0.0)
    mean_counts = [float(np.mean(c)) for c in counts.T]
    mean_mass = [float(np.mean(m)) for m in masses.T]
    js = list(range(1, n + 1))
    # a slope needs two levels j >= 1; below that it is NaN (null in summary.json)
    slope = math.nan
    if n >= 2:
        slope = float(
            np.polyfit(js, np.log2([max(c, 1e-300) for c in mean_counts[1:]]), 1)[0]
        )
    fio.svg_line_plot(
        os.path.join(out_dir, "growth.svg"),
        [("log2 mean count", js, [math.log2(max(c, 1e-300)) for c in mean_counts[1:]])],
        title="level-set growth", xlabel="level", ylabel="log2 N",
    )
    return {
        "mean_counts": mean_counts,
        "mean_natural_mass": mean_mass,
        "log2_slope": slope,
        "expected_dimension": law.s,
        "counters": {"cubes": counts.sum(axis=0).tolist()},
    }


def _run_sweep(cfg, out_dir):
    desc = cfg.descriptor()
    p_grid = sorted(cfg.floats("p_grid"))
    n, reps = cfg.i("n"), cfg.i("replicates")
    coupled = cfg.flag("coupled")

    seeds = replicate_seeds(cfg.i("seed"), reps)
    present, counters = presence_profiles(
        desc, p_grid, n, seeds, coupled=coupled, tolerance=cfg.tolerance,
        variant=cfg.s("variant"),
    )
    with fio.CsvWriter(
        os.path.join(out_dir, "detail.csv"),
        ["replicate", "seed"] + [f"present_p{p!r}" for p in p_grid],
    ) as csv:
        for r, (seed, prof) in enumerate(zip(seeds, present.tolist())):
            csv.row(*([r, seed] + [int(v) for v in prof]))
    freqs = []
    with fio.CsvWriter(os.path.join(out_dir, "results.csv"), FREQ_COLUMNS) as csv:
        for p, hits in zip(p_grid, present.sum(axis=0).tolist()):
            lo, hi = wilson_interval(hits, reps)
            freqs.append(hits / reps)
            csv.row(desc.family, desc.to_text(), p, n, reps, hits / reps, lo, hi)
    fio.svg_line_plot(
        os.path.join(out_dir, "frequency.svg"),
        [("presence frequency", p_grid, freqs)],
        title=f"{desc.family} presence vs p", xlabel="p", ylabel="frequency",
    )
    return {
        "p_grid": p_grid,
        "frequencies": freqs,
        "per_replicate_monotone": bool(np.all(present[:, 1:] >= present[:, :-1])),
        "coupled": coupled,
        "counters": counters,
    }


def _run_intersect(cfg, out_dir):
    target = cfg.target()
    n, reps = cfg.i("n"), cfg.i("replicates")
    seeds = replicate_seeds(cfg.i("seed"), reps)
    results = list(zip(seeds, replicate_masses(
        _product_law(cfg, target), root_key(np.array(seeds, dtype=np.uint64)),
        target, n, mc_samples=cfg.i("mc_samples"), param_id=cfg.s("target_kind"),
    )))
    with fio.CsvWriter(os.path.join(out_dir, "results.csv"), MASS_COLUMNS) as csv:
        for seed, series in results:
            for j in series.levels:
                csv.row(seed, series.param_id, j, series.values[j],
                        series.kernel, series.ses[j])
    # power mode has no mass below its decomposition level: NaN in every
    # replicate, and in the mean (null in summary.json)
    ys = np.array([series.values for _, series in results]).T
    mean_y = [float(np.nanmean(y)) if np.isfinite(y).any() else math.nan for y in ys]
    fio.svg_line_plot(
        os.path.join(out_dir, "mass.svg"),
        [("mean Y", list(range(n + 1)), mean_y)],
        title="intersection mass vs level", xlabel="level", ylabel="Y",
    )
    return {
        "mean_Y": mean_y,
        "final_mean_Y": mean_y[-1],
        "counters": {"product_cubes": _product_cubes(s for _, s in results)},
    }


def _run_holder(cfg, out_dir):
    n = cfg.i("n")
    gammas = cfg.floats("gammas")
    if not gammas:
        raise ConfigError("gammas must hold at least one exponent")
    grid_size = cfg.i("grid_size")
    delta = cfg.f("grid_delta")
    if cfg.s("family") not in PLANE_FAMILIES:
        raise ConfigError("holder command expects a plane family")
    base = configuration_plane(cfg.descriptor())
    targets = {}
    for k in range(grid_size):
        off = base.offset.copy().astype(float)
        off[-1] += k * delta
        targets[f"shift{k}"] = AffinePlane(basis=base.basis, offset=off)
    seed = replicate_seeds(cfg.i("seed"), 1)[0]
    # the replicate's factor trees, then its product-space tree in weighted
    # mode, seeded as replicate_masses seeds them
    law, key = _product_law(cfg, base), root_key(seed)
    laws = [law.law] * (1 if law.mode == "power" else law.m) + [law.aux_law]
    trees = [
        sample_tree(lw, law.variant, int(derive(key, j + 1)), n) if lw else None
        for j, lw in enumerate(laws)
    ]
    spec = ProductMeasureSpec(law.mode, trees[:-1], law.m, law.diag_level, trees[-1])
    table = holder_modulus(spec, targets, n, gammas, mc_samples=cfg.i("mc_samples"))
    with fio.CsvWriter(os.path.join(out_dir, "results.csv"), MASS_COLUMNS) as csv:
        for tid, series in sorted(table["series"].items()):
            for j in series.levels:
                csv.row(seed, tid, j, series.values[j], series.kernel, series.ses[j])
    return {
        "sup_ratio": {repr(g): table["sup_ratio"][g] for g in gammas},
        "growth": {repr(g): table["growth"][g] for g in gammas},
        "counters": {"product_cubes": _product_cubes(table["series"].values())},
    }


def _run_second_moment(cfg, out_dir):
    target = cfg.target()
    n, reps = cfg.i("n"), cfg.i("replicates")
    seed = cfg.i("seed")
    rep = second_moment_estimate(
        _product_law(cfg, target), target, n, reps, base_seed=seed,
        mc_samples=cfg.i("mc_samples"),
    )
    with fio.CsvWriter(os.path.join(out_dir, "results.csv"), MASS_COLUMNS) as csv:
        csv.row(seed, "mean_Y", n, rep.mean, "aggregate", 0.0)
        csv.row(seed, "mean_Y2", n, rep.mean_sq, "aggregate", 0.0)
    return {
        "mean": rep.mean,
        "mean_sq": rep.mean_sq,
        "ratio": rep.ratio,
        "pz_lower_bound": rep.pz_lower_bound,
        "positive_frequency": rep.positive_frequency,
        "counters": {"product_cubes": rep.product_cubes},
    }


def _run_dimension(cfg, out_dir):
    n, reps = cfg.i("n"), cfg.i("replicates")
    law = cfg.law()

    seeds = replicate_seeds(cfg.i("seed"), reps)
    counts = _tree_counts(cfg, seeds)
    n_lo = max(1, n - 6)
    _fit_levels(n_lo, n)  # a bad range is refused even with no survivor
    # a replicate extinct by level n is an outcome of the law with no level
    # n to count: it is left out of the rows and the mean, and counted
    alive = counts[:, n] > 0
    slopes = [count_slope(c, n_lo, n) for c in counts[alive].tolist()]
    with fio.CsvWriter(os.path.join(out_dir, "results.csv"), MASS_COLUMNS) as csv:
        for seed, slope in zip([s for s, a in zip(seeds, alive) if a], slopes):
            csv.row(seed, "box_dim_slope", n, slope, "fit", 0.0)
    # with no survivor the mean and its s.e. are NaN (null in summary.json)
    se = math.nan if not slopes else 0.0
    if len(slopes) > 1:
        se = float(np.std(slopes, ddof=1) / math.sqrt(len(slopes)))
    return {
        "mean_slope": float(np.mean(slopes)) if slopes else math.nan,
        "se": se,
        "extinct": int(reps - alive.sum()),
        "expected": law.s,
        "counters": {"cubes": counts.sum(axis=0).tolist()},
    }


def _run_pattern_dim(cfg, out_dir):
    n, reps = cfg.i("n"), cfg.i("replicates")
    law = cfg.law()
    sites = cfg.sites()
    j_lo = cfg.i("j_lo")
    j_hi = cfg.i("j_hi") if cfg.raw["j_hi"] else n - 1

    seeds = replicate_seeds(cfg.i("seed"), reps)
    tree, cubes = sample_forest(law, cfg.s("variant"), seeds, n)[n]
    estimates = parameter_dimensions(tree, cubes, reps, law, sites, n, j_lo, j_hi)
    with fio.CsvWriter(os.path.join(out_dir, "results.csv"), MASS_COLUMNS) as csv:
        for seed, est in zip(seeds, estimates):
            csv.row(seed, "pattern_dim_slope", n, est.slope, "fit", 0.0)
    slopes = [est.slope for est in estimates]
    return {
        "mean_slope": float(np.mean(slopes)),
        "se": float(np.std(slopes, ddof=1) / math.sqrt(len(slopes))) if reps > 1 else 0.0,
        "predicted": estimates[0].predicted,
        "counters": {
            "witnesses": sum(est.witnesses for est in estimates),
            "candidate_tuples": sum(est.candidate_tuples for est in estimates),
        },
    }


def _shape_cubes(shape, d, n):
    """The level-n cubes (N, d) of a target shape, in lexicographic order;
    a shape of more than MAX_CUBES cubes is refused before it is built."""
    bits = {"line": n, "full": n * d, "point": 0}  # log2 of the cube count
    if shape not in bits:
        raise ConfigError(f"unknown shape {shape!r}")
    if shape == "line" and d < 2:
        raise ConfigError("line shape needs d >= 2")
    if bits[shape] > math.log2(MAX_CUBES):
        raise BudgetError(
            f"shape {shape} holds 2^{bits[shape]} cubes at level {n}, "
            f"over {MAX_CUBES}"
        )
    if shape == "full":
        return np.indices((1 << n,) * d, dtype=np.int64).reshape(d, -1).T.copy()
    out = np.zeros((1 << bits[shape], d), dtype=np.int64)
    out[:, 0] = np.arange(1 << bits[shape])
    return out


def _run_perc_dim_test(cfg, out_dir):
    d, n, reps = cfg.i("d"), cfg.i("n"), cfg.i("replicates")
    cubes = _shape_cubes(cfg.s("shape"), d, n)
    res = percolation_dimension_test(
        cubes, n, d, cfg.floats("p_grid"), reps, base_seed=cfg.i("seed")
    )
    with fio.CsvWriter(os.path.join(out_dir, "results.csv"), FREQ_COLUMNS) as csv:
        for row in res.curve:
            csv.row("percolation-hit", cfg.s("shape"), row.p, n, reps,
                    row.frequency, row.ci_lo, row.ci_hi)
    fio.svg_line_plot(
        os.path.join(out_dir, "survival.svg"),
        [("hit frequency", [r.p for r in res.curve],
          [r.frequency for r in res.curve])],
        title="percolation hit frequency", xlabel="p", ylabel="frequency",
    )
    return {
        "p_star": res.p_star,
        "dim_estimate": res.dim_estimate,
        "curve": [(r.p, r.frequency) for r in res.curve],
        "counters": {"hits": res.hits},
    }


def _harris_battery():
    def survives(c, nn):
        return c.shape[0] > 0

    def left(c, nn):
        return bool(np.any(c[:, 0] < (1 << max(nn - 1, 0))))

    def right(c, nn):
        return bool(np.any(c[:, 0] >= (1 << max(nn - 1, 0))))

    def at_least_two(c, nn):
        return c.shape[0] >= 2

    return [
        ("left-hit/right-hit", left, right),
        ("survive/survive", survives, survives),
        ("survive/at-least-two", survives, at_least_two),
    ]


def _run_harris(cfg, out_dir):
    n, reps = cfg.i("n"), cfg.i("replicates")
    law = cfg.law()
    battery = _harris_battery()
    results = _harris_checks(
        [(e1, e2) for _, e1, e2 in battery], law, n, reps, cfg.i("seed"), "extinction"
    )
    rows = [(name, res) for (name, _, _), res in zip(battery, results)]
    with fio.CsvWriter(
        os.path.join(out_dir, "results.csv"),
        ("pair", "p1", "p2", "p12", "bound", "margin", "sigma", "violated"),
    ) as csv:
        for name, res in rows:
            csv.row(name, res.p1, res.p2, res.p12, res.bound, res.margin,
                    res.sigma, int(res.violated))
    return {
        **{name: {"margin": res.margin, "violated": res.violated} for name, res in rows},
        "counters": {
            name: dict(zip(("event1", "event2", "both"), res.counts)) for name, res in rows
        },
    }


def _run_stress(cfg, out_dir):
    desc = cfg.descriptor()
    n, reps = cfg.i("n"), cfg.i("replicates")
    row = subset_stress_test(
        cfg.law(), cfg.s("variant"), desc, cfg.f("fraction"), cfg.s("strategy"),
        n, reps, base_seed=cfg.i("seed"), tolerance=cfg.tolerance,
    )
    with fio.CsvWriter(os.path.join(out_dir, "results.csv"), FREQ_COLUMNS) as csv:
        csv.row(desc.family, desc.to_text(), cfg.f("p"), n, reps,
                row.frequency, row.ci_lo, row.ci_hi)
    return {
        "fraction": cfg.f("fraction"),
        "strategy": cfg.s("strategy"),
        "frequency": row.frequency,
        "ci": [row.ci_lo, row.ci_hi],
        "counters": row.counters,
    }


_RUNNERS = {
    "sample": _run_sample,
    "sweep": _run_sweep,
    "intersect": _run_intersect,
    "holder": _run_holder,
    "second-moment": _run_second_moment,
    "dimension": _run_dimension,
    "pattern-dim": _run_pattern_dim,
    "perc-dim-test": _run_perc_dim_test,
    "harris": _run_harris,
    "stress": _run_stress,
}


def run(cfg, out_dir):
    """Execute one configured experiment; returns the JSON summary dict."""
    # holder grows one replicate and has no replicates key
    if cfg.i("n") < 0 or ("replicates" in cfg.raw and cfg.i("replicates") < 1):
        raise ConfigError("n must be >= 0 and replicates >= 1")
    fio.ensure_dir(out_dir)
    t0 = time.monotonic()
    summary = {
        "command": cfg.command,
        "config": dict(sorted(cfg.raw.items())),
        "preset": cfg.preset,
        "complete": False,
    }
    try:
        results = _RUNNERS[cfg.command](cfg, out_dir)
        if "counters" in results:
            summary["counters"] = results.pop("counters")
        summary["results"] = results
        summary["complete"] = True
    finally:
        summary["wall_time_s"] = round(time.monotonic() - t0, 3)
        fio.write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def aggregate(csv_paths, out_path=None):
    """Pool frequency CSVs with identical schema; Wilson intervals recomputed
    from pooled counts."""
    if not csv_paths:
        raise ConfigError("no inputs")
    header0 = None
    pooled = {}
    for path in csv_paths:
        header, rows = fio.read_csv(path)
        if header0 is None:
            header0 = header
            if "frequency" not in header:
                raise ConfigError("aggregate expects frequency-table CSVs")
        elif header != header0:
            raise ConfigError("schema mismatch between inputs")
        for row in rows:
            key = (row["family"], row["params"], row["p"], row["n"])
            reps = int(row["replicates"])
            hits = round(float(row["frequency"]) * reps)
            cur = pooled.setdefault(key, [0, 0])
            cur[0] += hits
            cur[1] += reps
    out_rows = []
    for key in sorted(pooled):
        hits, reps = pooled[key]
        lo, hi = wilson_interval(hits, reps)
        out_rows.append(
            dict(zip(FREQ_COLUMNS,
                     [key[0], key[1], float(key[2]), int(key[3]), reps,
                      hits / reps, lo, hi]))
        )
    if out_path:
        with fio.CsvWriter(out_path, FREQ_COLUMNS) as csv:
            for row in out_rows:
                csv.row(**row)
    return out_rows
