"""Span recorder installed around fracperc's public functions in a traced run.

Each wrapped function becomes a span named `<layer>.<function>`.  Spans keep
a stack so that a span's self time excludes the time of the wrapped calls it
made.  A call made while a span of the same layer is open (coupled_slice
calling sample_tree) is not recorded again, so counts are outermost calls.
Only per-name totals are kept: calls, total and self seconds, plus the
counts that `on_return` hooks add.
"""

import functools
import sys
import time

import numpy as np


class Recorder:
    def __init__(self):
        self.stack = []           # [layer, child seconds] per open span
        self.spans = {}           # name -> [calls, total_s, self_s]
        self.counts = {}          # counter name -> int
        self.absent = []          # names that did not resolve

    def add(self, counter, value):
        self.counts[counter] = self.counts.get(counter, 0) + int(value)

    def wrap(self, name, fn, on_return=None):
        layer = name.split(".", 1)[0]
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
            if on_return is not None:
                on_return(self, args, result)
            return result

        return wrapper

    def report(self):
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


def _tree_cubes(rec, args, tree):
    rec.add("percolation.cubes", sum(int(lev.shape[0]) for lev in tree.levels))


def _mass_counts(rec, args, series):
    rec.add("intersect.product_cubes", sum(series.counts))
    measured = sum(c for c, v in zip(series.counts, series.values) if v == v)
    rec.add("intersect.product_cubes_measured", measured)


def _boxes(rec, args, result):
    rec.add("polynomials.may_vanish_boxes", int(np.prod(np.shape(result))))


def _newton(rec, args, result):
    rec.add("polynomials.newton_unconverged", not result[1])


def _detect(rec, args, result):
    rec.add("patterns.tuples_checked", result.tuples_checked)


# (defining module, attribute path, span name, on_return hook).  Functions
# are replaced in every fracperc module that binds them, so callers that
# imported the name (`from .geometry import plane_cube_measure`) see the
# wrapper; methods are replaced on their class.
TARGETS = (
    ("fracperc.percolation", "sample_tree", "percolation.sample_tree", _tree_cubes),
    ("fracperc.percolation", "coupled_slice", "percolation.coupled_slice", _tree_cubes),
    ("fracperc.geometry", "plane_cube_measure", "geometry.plane_cube_measure", None),
    ("fracperc.geometry", "AffinePlane.point_distance", "geometry.point_distance", None),
    ("fracperc.polynomials", "variety_cube_measure", "polynomials.variety_cube_measure", None),
    ("fracperc.polynomials", "PolynomialMap.may_vanish", "polynomials.may_vanish", _boxes),
    ("fracperc.polynomials", "newton_refine", "polynomials.newton_refine", _newton),
    ("fracperc.intersect", "intersection_mass", "intersect.intersection_mass", _mass_counts),
    ("fracperc.patterns", "detect_configuration", "patterns.detect_configuration", _detect),
    ("fracperc.io", "CsvWriter.row", "io.csv_row", None),
    ("fracperc.io", "write_json", "io.write_json", None),
    ("fracperc.io", "svg_line_plot", "io.svg_line_plot", None),
    ("fracperc.harness", "run", "harness.run", None),
)


def install(recorder, targets=TARGETS):
    """Wrap every target that resolves; record the others as absent."""
    for module_name, path, span, hook in targets:
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = module
        if owner is not None and owner_name:
            owner = getattr(module, owner_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            recorder.absent.append(f"{module_name}.{path}")
            continue
        wrapped = recorder.wrap(span, original, hook)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for name, mod in list(sys.modules.items()):
            if name == "fracperc" or name.startswith("fracperc."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
