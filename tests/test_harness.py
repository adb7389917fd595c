"""Unit tests for the experiment harness: config parsing, runners, output
files, aggregation, and CLI exit codes."""

import ast
import itertools
import json
import os
import shlex
import warnings

import numpy as np
import pytest

import fracperc as fp
from fracperc.cli import main
from fracperc.errors import ConfigError
from fracperc.harness import (
    COMMANDS,
    ExperimentConfig,
    _shape_cubes,
    aggregate,
    parse_config_file,
    run,
)
from fracperc.io import read_csv, svg_line_plot, write_json
from fracperc.patterns import SWEEP_COUNTERS


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# comment line\n"
        "n = 6\n"
        "p=0.7\n"
        "p_grid = 0.4, 0.6 , 0.8\n"
        "\n"
        "coupled = true\n"
    )
    cfg = parse_config_file(str(path))
    assert cfg["n"] == "6"
    assert cfg["p"] == "0.7"
    assert cfg["coupled"] == "true"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig("sample", overrides={"no_such_key": "1"})


def test_unknown_command_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig("frobnicate")


def test_preset_overrides_defaults():
    smoke = ExperimentConfig("sweep", preset="smoke")
    paper = ExperimentConfig("sweep", preset="paper")
    assert smoke.i("n") < paper.i("n")
    assert smoke.i("replicates") < paper.i("replicates")
    # Explicit overrides beat the preset.
    custom = ExperimentConfig("sweep", overrides={"n": "7"}, preset="smoke")
    assert custom.i("n") == 7


def test_run_writes_summary_and_csv(tmp_path):
    cfg = ExperimentConfig("sample", overrides={"seed": "3"}, preset="smoke")
    out = tmp_path / "run"
    run(cfg, str(out))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["complete"] is True
    assert summary["command"] == "sample"
    assert summary["config"]["seed"] == "3"
    header, rows = read_csv(str(out / "results.csv"))
    assert len(rows) > 0


def test_csv_floats_round_trip(tmp_path):
    cfg = ExperimentConfig("intersect", overrides={"seed": "11"}, preset="smoke")
    out = tmp_path / "run"
    run(cfg, str(out))
    header, rows = read_csv(str(out / "results.csv"))
    assert "Y" in header
    for row in rows:
        text = row["Y"]
        val = float(text)
        # repr round-trip: re-formatting reproduces the exact field text.
        assert repr(val) == text or text == "nan"


def test_svg_plot_written(tmp_path):
    cfg = ExperimentConfig("sweep", overrides={"seed": "2"}, preset="smoke")
    out = tmp_path / "run"
    run(cfg, str(out))
    svgs = [f for f in os.listdir(out) if f.endswith(".svg")]
    assert svgs
    body = (out / svgs[0]).read_text()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


def test_cli_exit_codes(tmp_path, capsys):
    ok = main(
        ["sample", "--preset", "smoke", "--seed", "1", "--out", str(tmp_path / "a")]
    )
    assert ok == 0
    bad_cfg = main(
        [
            "sample",
            "--preset",
            "smoke",
            "--out",
            str(tmp_path / "b"),
            "definitely_not_a_key=1",
        ]
    )
    assert bad_cfg == 2
    # Five-point pattern at depth 9 exceeds the detection budget contract.
    budget = main(
        [
            "sweep",
            "--out",
            str(tmp_path / "c"),
            "n=9",
            "replicates=2",
            "sites=0,1,2,3,4",
            "p_grid=0.9",
        ]
    )
    assert budget == 3
    # malformed values are config errors, not tracebacks
    malformed = [
        ["pattern-dim", "j_hi=abc"],
        ["sweep", "tolerance_c=abc"],
        ["sweep", "d=2", "sites=0,1,2"],
        ["stress", "d=2", "sites=0,1,2"],
        ["pattern-dim", "d=2", "sites=0,1,2"],
        ["intersect", "target_kind=plane", "target_spec=1_x;1"],
        ["intersect", "target_kind=poly", "target_spec=0 1 1 x"],
        ["intersect", "mode=bogus"],
        ["pattern-dim", "j_lo=9"],
        ["sweep", "p_grid="],
        ["perc-dim-test", "p_grid="],
        ["perc-dim-test", "p_grid=0.5"],
        ["intersect", "family=distance", "d=2", "m=2", "mc_samples=0"],
        ["sweep", "coupled=bogus"],
        ["holder", "gammas="],
        ["intersect", "family=triangle", "d=2"],
        ["second-moment", "family=triangle", "d=2"],
        ["holder", "family=distance", "d=2"],
        ["intersect", "m=7"],
        ["intersect", "family=angle", "lam=0.5", "d=2", "m=3", "n=2", "replicates=3"],
    ]
    errors = []
    for k, (command, *overrides) in enumerate(malformed):
        argv = [command, "--preset", "smoke", "--out", str(tmp_path / f"m{k}")]
        capsys.readouterr()
        assert main(argv + overrides) == 2, (command, overrides)
        errors.append(capsys.readouterr().err)
    # m is derived from the target: three sites on the line give m = 3
    assert "m = 7 disagrees with the target" in errors[-2]
    # the angle polynomial is singular wherever sites coincide, and the mass
    # commands refuse it before growing a tree
    assert "family angle has no intersection mass" in errors[-1]
    # the family is refused before its parameters are read
    for err in errors[-5:-3]:
        assert "family triangle has no intersection mass" in err
    assert "holder command expects a plane family" in errors[-3]
    # a key the command does not read exits 2, naming the command and the key,
    # inline or in a config file
    config = tmp_path / "perc.cfg"
    config.write_text("p=0.3\n")
    misplaced = [
        ("p", ["sweep", "p=0.3"]),
        ("variant", ["harris", "variant=surviving"]),
        ("replicates", ["holder", "replicates=5"]),
        ("variant", ["perc-dim-test", "variant=surviving"]),
        ("threads", ["sample", "threads=2"]),
        ("p", ["perc-dim-test", "--config", str(config)]),
    ]
    for k, (key, (command, *rest)) in enumerate(misplaced):
        argv = [command, "--preset", "smoke", "--out", str(tmp_path / f"x{k}")]
        capsys.readouterr()
        assert main(argv + rest) == 2, (command, rest)
        err = capsys.readouterr().err
        assert f"{command} does not read config key(s) {key}" in err, err


def test_readme_example_block_runs(tmp_path, monkeypatch):
    # The README's example block of fracperc command lines runs as written,
    # in order, each line exiting 0.
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        blocks = fh.read().split("```sh\n")[1:]
    examples = [
        lines for lines in (block.split("```")[0].splitlines() for block in blocks)
        if lines and all(line.startswith("fracperc ") for line in lines)
    ]
    assert len(examples) == 1
    monkeypatch.chdir(tmp_path)
    for line in examples[0]:
        assert main(shlex.split(line)[1:]) == 0, line


def test_power_mode_without_distinct_cubes_exits_2(tmp_path, capsys):
    # d = 1, m = 3 at diag_level 1: two cubes for three factors, so no tuple
    # of distinct cubes exists and every Y_j would read 0.
    argv = ["intersect", "--preset", "paper", "--seed", "1", "mode=power"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 2
    assert "no tuple of distinct cubes" in capsys.readouterr().err
    # Four cubes at diag_level 2 hold such tuples.
    small = ["diag_level=2", "n=3", "replicates=2"]
    assert main(argv + small + ["--out", str(tmp_path / "b")]) == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_no_replicates_or_negative_depth_is_a_config_error(command, tmp_path):
    for k, bad in enumerate(["replicates=0", "n=-1"]):
        argv = [command, "--preset", "smoke", "--out", str(tmp_path / str(k)), bad]
        assert main(argv) == 2, bad


@pytest.mark.parametrize("command", ["sweep", "perc-dim-test"])
def test_duplicate_p_in_grid_exits_2(command, tmp_path, capsys):
    # a p given twice would be searched twice and written as two rows (and
    # twice in the sweep's detail.csv header)
    out = tmp_path / "out"
    argv = [command, "--preset", "smoke", "--seed", "1", "--out", str(out)]
    assert main(argv + ["p_grid=0.5,0.7,0.5"]) == 2
    assert "p_grid holds p = 0.5 more than once" in capsys.readouterr().err
    assert not (out / "results.csv").exists()
    assert main(argv + ["p_grid=0.5,0.7"]) == 0


def _no_replicate_calls():
    law = fp.GaltonWatsonLaw.create(1, 0.8)
    tree = fp.sample_tree(law, "surviving", 1, 3)
    desc = fp.ConfigDescriptor(family="homothetic", d=1, params={"sites": [[0], [1], [2]]})
    product = fp.ProductLaw(law, "surviving", "independent", 1)
    line = fp.AffinePlane(basis=np.eye(1), offset=np.zeros(1))
    alive = lambda cubes, n: cubes.shape[0] > 0
    return {
        "threshold_sweep": lambda r: fp.threshold_sweep(desc, [0.8], 3, r),
        "percolation_dimension_test": lambda r: fp.percolation_dimension_test(
            tree.levels[3], 3, 1, [0.5, 0.9], r
        ),
        "subset_stress_test": lambda r: fp.subset_stress_test(
            law, "surviving", desc, 0.2, "random", 3, r
        ),
        "harris_check": lambda r: fp.harris_check(alive, alive, law, 3, r),
        "second_moment_estimate": lambda r: fp.second_moment_estimate(product, line, 3, r),
    }


@pytest.mark.parametrize("call", sorted(_no_replicate_calls()))
def test_library_calls_refuse_no_replicates(call):
    # the library entry points refuse replicates < 1 themselves, as
    # harness.run does, instead of failing inside the batch
    fn = _no_replicate_calls()[call]
    fn(1)
    for bad in (0, -1):
        with pytest.raises(ConfigError, match="replicates must be >= 1"):
            fn(bad)


_ONE_CALL_EXPORTS = (
    # one-call references and types that tests and benchmarks use as
    # oracles or inputs; no library module needs to call them
    "DyadicCube", "coupled_slice", "plane_cube_measure", "plane_to_text",
    "newton_refine", "polynomial_to_text", "variety_cube_measure",
    "martingale_resample_check", "box_dimension_estimate", "detect_configuration",
    "harris_check", "pattern_parameter_dimension", "threshold_sweep",
    "threshold_table",
)


def test_every_export_is_reached_or_declared():
    # A name exported from fracperc is either used by another library module
    # or declared above as a one-call reference; anything else is surface
    # that no command reaches.
    src = os.path.dirname(fp.__file__)
    exported, used = set(), set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if name == "__init__.py":
                if isinstance(node, ast.ImportFrom):
                    exported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    assert set(_ONE_CALL_EXPORTS) <= exported
    assert sorted(exported - used - set(_ONE_CALL_EXPORTS)) == []


def _optional_parameters(path):
    """(qualified name, called name, [(position or None, parameter)]) of each
    module-level function, method and dataclass constructor in the file
    that has optional parameters; a position counts the arguments a call
    passes (after self or cls), None marks a keyword-only parameter."""
    with open(path) as fh:
        body = ast.parse(fh.read()).body
    out = []
    for node in body:
        defs = [(None, node)]
        if isinstance(node, ast.ClassDef):
            defs = [(node.name, item) for item in node.body]
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                opt = [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]
                out.append((node.name, node.name, opt))
        for cls, fn in defs:
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            pos = args.posonlyargs + args.args
            skip = cls is not None and "staticmethod" not in map(ast.unparse, fn.decorator_list)
            first = len(pos) - len(args.defaults)
            opt = [(i - skip, pos[i].arg) for i in range(first, len(pos))]
            opt += [
                (None, a.arg) for a, v in zip(args.kwonlyargs, args.kw_defaults) if v is not None
            ]
            called = cls if fn.name == "__init__" else fn.name
            out.append((f"{cls}.{fn.name}" if cls else fn.name, called, opt))
    return [entry for entry in out if entry[2]]


def _calls(path):
    """(called name, arguments passed by position, keywords) of each call in
    the file by name or attribute.  Positions after a *args are not known,
    and **kwargs names no keyword, so neither sets a parameter."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", None) or node.func.attr
            plain = itertools.takewhile(lambda a: not isinstance(a, ast.Starred), node.args)
            out.append((name, len(list(plain)), {k.arg for k in node.keywords}))
    return out


def test_every_optional_parameter_is_set_by_a_call():
    # An optional parameter of a library function is set by some call in the
    # library, its tests or its benchmarks; one that no call sets changes
    # nothing and belongs in a module constant.  Calls are matched by name.
    # An argument passed only through *args or **kwargs is not seen: write
    # it out.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src", "fracperc")
    calls = {}
    for tree in ("src", "tests", "perfbench", "benchmarks"):
        for folder, _, files in os.walk(os.path.join(root, tree)):
            for name in sorted(files):
                if name.endswith(".py"):
                    for call in _calls(os.path.join(folder, name)):
                        calls.setdefault(call[0], []).append(call[1:])
    unset = []
    for module in sorted(os.listdir(src)):
        if not module.endswith(".py"):
            continue
        for qualname, called, optional in _optional_parameters(os.path.join(src, module)):
            for pos, param in optional:
                if not any(
                    param in keywords or (pos is not None and count > pos)
                    for count, keywords in calls.get(called, [])
                ):
                    unset.append(f"{module}:{qualname}({param})")
    assert unset == []


def test_cli_threads_flag_reproducible(tmp_path):
    outs = []
    for tag, threads in (("t1", "1"), ("t8", "8")):
        out = tmp_path / tag
        rc = main(
            [
                "sweep",
                "--preset",
                "smoke",
                "--seed",
                "7",
                "--threads",
                threads,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    for name in ("results.csv", "detail.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_counters_repeat_across_reruns_and_threads(tmp_path):
    # summary.json carries the counters of sweep and perc-dim-test (per p),
    # sample, dimension, intersect, second-moment and holder (per level),
    # pattern-dim and stress (summed over replicates) and harris (per pair)
    # apart from the results and the timing; they repeat exactly across
    # reruns and --threads.
    counters = {}
    commands = (
        "sweep", "pattern-dim", "sample", "dimension", "perc-dim-test", "stress",
        "intersect", "second-moment", "holder", "harris",
    )
    for command in commands:
        summaries = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / command / tag
            argv = [command, "--preset", "smoke", "--seed", "7", "--threads", threads]
            assert main(argv + ["--out", str(out)]) == 0
            summaries.append(json.loads((out / "summary.json").read_text()))
        counters[command] = summaries[0]["counters"]
        assert "counters" not in summaries[0]["results"]
        for other in summaries[1:]:
            assert other["counters"] == counters[command]
    sweep = counters["sweep"]
    assert sorted(sweep) == sorted(SWEEP_COUNTERS)
    for values in sweep.values():
        assert len(values) == 4 and all(isinstance(v, int) and v >= 0 for v in values)
    # a coupled replicate is searched until its first detection, so the
    # detections at each p are the growth of the presence count
    _, rows = read_csv(str(tmp_path / "sweep" / "a" / "results.csv"))
    present = [round(float(row["frequency"]) * 20) for row in rows]
    assert sweep["detected"] == [b - a for a, b in zip([0] + present, present)]
    pairs = zip(sweep["tuples_checked"], sweep["candidate_tuples"])
    assert all(checked <= total for checked, total in pairs)
    # every pattern-dim candidate is fitted; the witnesses are those it keeps
    pattern = counters["pattern-dim"]
    assert sorted(pattern) == ["candidate_tuples", "witnesses"]
    assert all(isinstance(v, int) for v in pattern.values())
    assert 0 < pattern["witnesses"] <= pattern["candidate_tuples"]
    # cubes per level of the 20 trees: one root each, n = 5
    for command in ("sample", "dimension"):
        cubes = counters[command]["cubes"]
        assert len(cubes) == 6 and cubes[0] == 20
        assert all(isinstance(v, int) and v > 0 for v in cubes)
    assert counters["sample"] == counters["dimension"]
    # the replicates hitting the set at each p, and those present after the
    # removals, are the frequencies' numerators
    for command, key in (("perc-dim-test", "hits"), ("stress", "detected")):
        _, rows = read_csv(str(tmp_path / command / "a" / "results.csv"))
        hits = [round(float(row["frequency"]) * 20) for row in rows]
        assert counters[command][key] == (hits if command == "perc-dim-test" else hits[0])
    stress = counters["stress"]
    assert sorted(stress) == sorted(SWEEP_COUNTERS)
    assert stress["tuples_checked"] <= stress["candidate_tuples"]
    # product cubes retained per level, summed over replicates (or targets)
    for command in ("intersect", "second-moment", "holder"):
        cubes = counters[command]["product_cubes"]
        assert sorted(counters[command]) == ["product_cubes"]
        assert len(cubes) == 6 and all(isinstance(v, int) and v >= 0 for v in cubes)
        assert cubes[0] > 0
    # the replicates with each event, and with both, are the CSV's
    # probabilities' numerators
    _, rows = read_csv(str(tmp_path / "harris" / "a" / "results.csv"))
    assert sorted(counters["harris"]) == sorted(row["pair"] for row in rows)
    for row in rows:
        pair = counters["harris"][row["pair"]]
        assert sorted(pair) == ["both", "event1", "event2"]
        for key, column in (("event1", "p1"), ("event2", "p2"), ("both", "p12")):
            assert isinstance(pair[key], int)
            assert pair[key] / 20 == float(row[column])


def test_aggregate_identity_and_pooling(tmp_path):
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        cfg = ExperimentConfig("sweep", overrides={"seed": seed}, preset="smoke")
        run(cfg, str(out))
        runs.append(str(out / "results.csv"))
    single = aggregate([runs[0]])
    _, rows = read_csv(runs[0])
    by_key = {(r["p"], r["n"]): r for r in rows}
    for agg_row in single:
        src = by_key[(repr(float(agg_row["p"])), str(agg_row["n"]))]
        assert float(agg_row["frequency"]) == pytest.approx(float(src["frequency"]))
        assert int(agg_row["replicates"]) == int(src["replicates"])
    pooled = aggregate(runs)
    _, rows2 = read_csv(runs[1])
    by_key2 = {(r["p"], r["n"]): r for r in rows2}
    for agg_row in pooled:
        key = (repr(float(agg_row["p"])), str(agg_row["n"]))
        r1, r2 = by_key[key], by_key2[key]
        mean = (float(r1["frequency"]) + float(r2["frequency"])) / 2
        assert float(agg_row["frequency"]) == pytest.approx(mean)
        assert int(agg_row["replicates"]) == int(r1["replicates"]) + int(
            r2["replicates"]
        )


def test_aggregate_interval_shrinks(tmp_path):
    # Pooling K identical runs shrinks the Wilson interval roughly as 1/sqrt(K).
    import csv

    from fracperc.patterns import wilson_interval

    paths = []
    for k in range(4):
        path = tmp_path / f"r{k}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["family", "params", "p", "n", "replicates", "frequency", "ci_lo", "ci_hi"]
            )
            lo, hi = wilson_interval(30, 100)
            w.writerow(["homothetic", "sites=0;1;2", "0.7", "6", "100", "0.3", repr(lo), repr(hi)])
        paths.append(str(path))
    one = aggregate(paths[:1])[0]
    four = aggregate(paths)[0]
    w1 = float(one["ci_hi"]) - float(one["ci_lo"])
    w4 = float(four["ci_hi"]) - float(four["ci_lo"])
    assert w4 == pytest.approx(w1 / 2, rel=0.1)


def test_aggregate_schema_mismatch(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("family,params,p,n,replicates,frequency,ci_lo,ci_hi\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        aggregate([str(good), str(bad)])


def test_every_command_has_smoke_preset(tmp_path):
    for cmd in COMMANDS:
        cfg = ExperimentConfig(cmd, preset="smoke")
        if cmd == "holder":
            # holder grows one replicate
            assert "replicates" not in cfg.raw
        else:
            assert cfg.i("replicates") >= 1 or cmd == "sample"


class _ReadRecorder(dict):
    """A config dict that records the keys read from it."""

    def __init__(self, raw, read):
        super().__init__(raw)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


_FAMILY_PROBES = [{}, {"family": "distance", "d": "2"}, {"family": "volume", "d": "2"}]
_DETECT_PROBES = _FAMILY_PROBES + [{"family": "triangle", "d": "2"}]
_MASS_PROBES = _FAMILY_PROBES + [
    {"mode": "power", "diag_level": "2"},
    {"mode": "weighted"},
    {"target_kind": "plane", "target_spec": "2 0 0 0.5;1 0 0;0 1 0"},
    {"target_kind": "poly", "target_spec": "0 2 0 1\n0 0 2 1\n0 0 0 -0.5"},
]
# Small configs of each command that between them take every branch that
# reads a key: the modes, the target kinds and the families.
_READ_PROBES = {
    "sample": [{}],
    "dimension": [{}],
    "harris": [{}],
    "perc-dim-test": [{}],
    "pattern-dim": [{"n": "5"}],
    "sweep": _DETECT_PROBES,
    "stress": _DETECT_PROBES,
    "intersect": _MASS_PROBES,
    "second-moment": _MASS_PROBES,
    "holder": [{}, {"mode": "power", "diag_level": "2"}],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_config_key_is_read(command, tmp_path):
    # A command accepts exactly the config keys it reads: a key that no run
    # reads changes nothing, yet summary.json would echo it as if it did.
    accepted = set(ExperimentConfig(command).raw)
    small = {"n": "4", "replicates": "2", "mc_samples": "64"}
    read = set()
    for k, probe in enumerate(_READ_PROBES[command]):
        overrides = {key: v for key, v in small.items() if key in accepted}
        cfg = ExperimentConfig(command, overrides={**overrides, **probe}, preset="smoke")
        cfg.raw = _ReadRecorder(cfg.raw, read)
        run(cfg, str(tmp_path / str(k)))
    assert sorted(read) == sorted(accepted)


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    ["intersect", "--preset", "smoke", "--seed", "3", "mode=power", "diag_level=2"],
    ["second-moment", "--preset", "smoke", "--seed", "3", "p=0.3", "variant=extinction"],
])
def test_summary_is_strict_json(tmp_path, argv):
    # Power-mode levels below the decomposition level have no mass (NaN),
    # and a second moment of an all-zero sample has an infinite ratio: both
    # are written as null, with no warning and no nan in the plot.
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", str(out)]) == 0
    summary = _strict_json((out / "summary.json").read_text())
    results = summary["results"]
    if argv[0] == "intersect":
        assert results["mean_Y"][:2] == [None, None]
        assert all(y is not None for y in results["mean_Y"][2:])
        assert "nan" not in (out / "mass.svg").read_text()
    else:
        assert results["ratio"] is None and results["mean"] == 0.0


@pytest.mark.parametrize("n", [0, 1])
def test_sample_below_two_levels_has_no_slope(tmp_path, n):
    # A growth slope needs two levels j >= 1: with fewer, log2_slope is null
    # and nothing warns, and the CSV and the plot are still written.
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sample", "--preset", "smoke", "--out", str(out), f"n={n}"]) == 0
    summary = _strict_json((out / "summary.json").read_text())
    assert summary["results"]["log2_slope"] is None
    _, rows = read_csv(str(out / "results.csv"))
    assert len(rows) == 2 * (n + 1) * int(summary["config"]["replicates"])
    assert (out / "growth.svg").stat().st_size > 0


@pytest.mark.parametrize("variant", ["extinction", "coupled"])
def test_dimension_leaves_extinct_replicates_out(tmp_path, variant):
    # A replicate extinct by level n is an outcome of the law, not a config
    # error: its row and its slope are left out and summary.json counts it.
    # The survivors' rows are their one-tree slopes, in replicate order; with
    # no survivor the mean and its s.e. are null and nothing warns.
    from fracperc.patterns import count_slope

    argv = ["dimension", "--preset", "smoke", "--seed", "7", f"variant={variant}"]
    out = tmp_path / "some"
    assert main(argv + ["--out", str(out)]) == 0
    cfg = ExperimentConfig("dimension", overrides={"variant": variant}, preset="smoke")
    n, law = cfg.i("n"), cfg.law()
    want = []
    for seed in fp.rng.replicate_seeds(7, cfg.i("replicates")):
        tree = fp.sample_tree(law, variant, seed, n)
        if tree.count(n):
            counts = [tree.count(j) for j in range(n + 1)]
            want.append((seed, count_slope(counts, max(1, n - 6), n)))
    extinct = cfg.i("replicates") - len(want)
    assert 0 < extinct < cfg.i("replicates")
    _, rows = read_csv(str(out / "results.csv"))
    assert [(int(r["seed"]), float(r["Y"])) for r in rows] == want
    results = _strict_json((out / "summary.json").read_text())["results"]
    assert results["extinct"] == extinct
    assert results["mean_slope"] == float(np.mean([s for _, s in want]))
    none = tmp_path / "none"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["p=0.3", "--out", str(none)]) == 0
    results = _strict_json((none / "summary.json").read_text())["results"]
    assert results["extinct"] == cfg.i("replicates")
    assert results["mean_slope"] is None and results["se"] is None
    assert read_csv(str(none / "results.csv"))[1] == []


def test_shape_cubes_full_grid_and_budget(tmp_path):
    # The full grid is every cube in lexicographic order, as itertools
    # enumerates it; shapes over MAX_CUBES are refused (exit 3)
    # before they are built.
    for d in (1, 2, 3):
        for n in range(4):
            want = np.array(list(itertools.product(range(1 << n), repeat=d)), dtype=np.int64)
            got = _shape_cubes("full", d, n)
            assert got.dtype == want.dtype and np.array_equal(got, want), (d, n)
    for k, over in enumerate((["shape=full", "n=13"], ["shape=line", "n=34"])):
        argv = ["perc-dim-test", "--preset", "smoke", "--out", str(tmp_path / str(k)), "d=2"]
        assert main(argv + over) == 3, over


def test_write_json_maps_non_finite_floats_to_null(tmp_path):
    path = tmp_path / "x.json"
    write_json(str(path), {"a": [float("nan"), 1.5], "b": {"c": float("-inf")}})
    assert _strict_json(path.read_text()) == {"a": [None, 1.5], "b": {"c": None}}


def test_write_json_deterministic(tmp_path):
    path = tmp_path / "x.json"
    write_json(str(path), {"b": 1, "a": [1.5, 2.5]})
    first = path.read_bytes()
    write_json(str(path), {"a": [1.5, 2.5], "b": 1})
    assert path.read_bytes() == first
