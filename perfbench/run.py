"""Single-threaded benchmark of fracperc's mass and sweep pipelines.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one fresh `fracperc` process, run through the CLI from
./src with one thread (`--threads 1`, BLAS/OpenMP thread counts 1).  The k-th
process of a run gets master seed 1000 * N + k.  Processes are started until
S seconds have passed, then every output is checked against the oracles in
`workloads.py`.  The last line printed is one JSON object:

    {"correct": bool, "attempted": processes, "failed": processes that
     exited non-zero, "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are the medians over the run's processes of
wall_s, setup_s, cpu_s and peak_rss_mb.  With --trace 1 the run repeats the
first process's inputs untraced, then once traced (spans from `tracer.py`,
import times from `-X importtime`), and reports the per-layer metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

ONE_THREAD = {
    var: "1" for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
MIN_PROCESSES = 3
# Processes are killed, and no new one started, this long after the start,
# so that a run ends within its time limit even when the program hangs.
LIMIT_S = 150.0


def child_env():
    env = dict(os.environ)
    env.update(ONE_THREAD)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, out_dir, deadline, traced=False):
    """Run one fracperc process, killed if it outlives `deadline` (a
    perf_counter time); returns its measurements and trace."""
    os.makedirs(out_dir, exist_ok=True)
    timing_path = os.path.join(out_dir, "timing.json")
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "child.py"), ROOT, timing_path, "1" if traced else "0", "--"]
    cmd += args + ["--out", out_dir, "--threads", "1"]
    with open(os.path.join(out_dir, "stderr.txt"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        signal.alarm(max(1, int(deadline - t0)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "rc": proc.returncode,
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "out_dir": out_dir,
    }
    if proc.returncode == 0:
        with open(timing_path) as fh:
            marks = json.load(fh)
        result["setup_s"] = marks["command_start"] - t0
        result["trace"] = marks["trace"]
    return result


def _timeout(signum, frame):
    raise TimeoutError


def warm_up():
    """Compile fracperc's bytecode and load its files once, untimed."""
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import fracperc.cli"],
        env=child_env(), check=True,
    )


def import_times(stderr_path):
    """(fracperc, scipy) import seconds from `-X importtime` output: the
    cumulative time of the `fracperc` package and the summed self time of
    every scipy module."""
    fracperc_us = scipy_us = 0
    with open(stderr_path) as fh:
        for line in fh:
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue
            name = fields[2].strip()
            if name == "fracperc":
                fracperc_us = cum_us
            elif name == "scipy" or name.startswith("scipy."):
                scipy_us += self_us
    return fracperc_us * 1e-6, scipy_us * 1e-6


def layer_metrics(trace, imports, overhead):
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    perc = ("percolation.sample_tree", "percolation.coupled_slice")
    perc_s = sum(total(s) for s in perc)
    perc_cubes = counts.get("percolation.cubes", 0)
    mass_s = total("intersect.intersection_mass")
    product_cubes = counts.get("intersect.product_cubes", 0)
    measured = counts.get("intersect.product_cubes_measured", 0)
    kernel_calls = calls("geometry.plane_cube_measure") + calls("polynomials.variety_cube_measure")
    return {
        "setup.import_s": (imports[0], "s"),
        "setup.import_scipy_s": (imports[1], "s"),
        "percolation.calls": (sum(calls(s) for s in perc), "count"),
        "percolation.cubes": (perc_cubes, "count"),
        "percolation.s": (perc_s, "s"),
        "percolation.cubes_per_s": (rate(perc_cubes, perc_s), "1/s"),
        "intersect.product_cubes": (product_cubes, "count"),
        "intersect.self_s": (self_s("intersect.intersection_mass"), "s"),
        "intersect.product_cubes_per_s": (rate(product_cubes, mass_s), "1/s"),
        "intersect.measure_reuse": (1.0 - kernel_calls / measured if measured else 0.0, "ratio"),
        "geometry.plane_measure_calls": (calls("geometry.plane_cube_measure"), "count"),
        "geometry.plane_measure_s": (total("geometry.plane_cube_measure"), "s"),
        "polynomials.variety_measure_calls": (calls("polynomials.variety_cube_measure"), "count"),
        "polynomials.variety_measure_s": (total("polynomials.variety_cube_measure"), "s"),
        "polynomials.may_vanish_boxes": (counts.get("polynomials.may_vanish_boxes", 0), "count"),
        "polynomials.may_vanish_s": (total("polynomials.may_vanish"), "s"),
        "polynomials.newton_calls": (calls("polynomials.newton_refine"), "count"),
        "polynomials.newton_s": (total("polynomials.newton_refine"), "s"),
        "polynomials.newton_unconverged": (counts.get("polynomials.newton_unconverged", 0), "count"),
        "patterns.detect_calls": (calls("patterns.detect_configuration"), "count"),
        "patterns.tuples_checked": (counts.get("patterns.tuples_checked", 0), "count"),
        "patterns.detect_self_s": (self_s("patterns.detect_configuration"), "s"),
        "io.write_s": (sum(total(s) for s in ("io.csv_row", "io.write_json", "io.svg_line_plot")), "s"),
        "harness.self_s": (self_s("harness.run"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def check(workload, children):
    """Run every oracle on the outputs of the processes that succeeded."""
    sys.path.insert(0, SRC)
    import fracperc

    errors, pooled = [], {}
    for child in children:
        if child["rc"] == 0:
            errors += workload.check_child(child["out_dir"], fracperc, pooled)
    if pooled:
        errors += workload.check_run(pooled)
    return errors, pooled


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _timeout)

    if not os.path.isfile(os.path.join(SRC, "fracperc", "cli.py")):
        print(f"no fracperc sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[opts.workload]
    run_dir = os.path.join(OUT, workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    warm_up()

    traced = bool(opts.trace)
    window = opts.seconds / 2 if traced else opts.seconds
    children = []
    start = time.perf_counter()
    deadline = start + LIMIT_S

    def more():
        elapsed = time.perf_counter() - start
        return elapsed < LIMIT_S and (len(children) < MIN_PROCESSES or elapsed < window)

    while more():
        k = len(children)
        args = workload.args(opts.seed, 0 if traced else k)
        children.append(run_child(args, os.path.join(run_dir, str(k)), deadline))
    untraced = [c for c in children if c["rc"] == 0]
    if traced:
        traced_child = run_child(
            workload.args(opts.seed, 0), os.path.join(run_dir, "traced"), deadline, traced=True
        )
        children.append(traced_child)

    errors, pooled = check(workload, children)
    for err in errors[:20]:
        print(f"check failed: {err}")
    if pooled.get("boundary"):
        print(f"{pooled['boundary']} brute-force slices hinge on a boundary tie; either answer passed")
    failed = sum(c["rc"] != 0 for c in children)
    for c in children:
        if c["rc"] != 0:
            print(f"process in {c['out_dir']} exited {c['rc']}")

    metrics = {}
    if traced and traced_child["rc"] == 0 and untraced:
        trace = traced_child["trace"]
        for name in trace["absent"]:
            print(f"trace: {name} is absent; its metrics read 0")
        overhead = traced_child["wall_s"] - statistics.median(c["wall_s"] for c in untraced)
        imports = import_times(os.path.join(traced_child["out_dir"], "stderr.txt"))
        for name, (value, unit) in layer_metrics(trace, imports, overhead).items():
            metrics[name] = {"value": value, "unit": unit}
    elif not traced and untraced:
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
            metrics[name] = {"value": statistics.median(c[name] for c in untraced), "unit": unit}
    print(json.dumps({
        "correct": not errors,
        "attempted": len(children),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
