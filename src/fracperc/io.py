"""Deterministic CSV/JSON/SVG output helpers.

Floats are rendered with repr so identical results are byte-identical files.
"""

import json
import math
import os

import numpy as np


def fmt(value):
    if isinstance(value, np.floating):
        value = float(value)
    elif isinstance(value, np.integer):
        value = int(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class CsvWriter:
    """Incremental CSV writer with a fixed column schema."""

    def __init__(self, path, columns):
        self.path = path
        self.columns = list(columns)
        self._fh = open(path, "w")
        self._fh.write(",".join(self.columns) + "\n")

    def row(self, *values, **kw):
        if kw:
            values = [kw[c] for c in self.columns]
        if len(values) != len(self.columns):
            raise ValueError("row width does not match schema")
        self._fh.write(",".join(fmt(v) for v in values) + "\n")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _finite(value):
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, payload):
    """Strict JSON: every NaN or infinite float is written as null."""
    with open(path, "w") as fh:
        json.dump(_finite(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            line = line.strip()
            if line:
                rows.append(dict(zip(header, line.split(","))))
    return header, rows


# ---------------------------------------------------------------------------
# Minimal SVG plots (no external plotting dependency)

_W, _H, _PAD = 640, 420, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _finite_points(xs, ys):
    pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    return [x for x, _ in pts], [y for _, y in pts]


def svg_line_plot(path, series, title="", xlabel="", ylabel=""):
    """series: list of (label, xs, ys).  Writes a single self-contained SVG:
    a polyline per series, or a dot for a one-point series.  Points with a
    non-finite coordinate are left out."""
    series = [(label, *_finite_points(xs, ys)) for label, xs, ys in series]
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W/2}" y="{_H-8}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_H/2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_H/2})">{ylabel}</text>',
        f'<rect x="{_PAD}" y="{_PAD}" width="{_W-2*_PAD}" height="{_H-2*_PAD}" '
        f'fill="none" stroke="black"/>',
    ]
    for lab, val in ((f"{x_lo:g}", _PAD), (f"{x_hi:g}", _W - _PAD)):
        parts.append(
            f'<text x="{val}" y="{_H-_PAD+16}" text-anchor="middle" font-size="10">{lab}</text>'
        )
    for lab, val in ((f"{y_lo:g}", _H - _PAD), (f"{y_hi:g}", _PAD)):
        parts.append(
            f'<text x="{_PAD-6}" y="{val+4}" text-anchor="end" font-size="10">{lab}</text>'
        )
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        px = _scale(xs, x_lo, x_hi, _PAD, _W - _PAD)
        py = _scale(ys, y_lo, y_hi, _H - _PAD, _PAD)
        if len(xs) == 1:
            for x, y in zip(px, py):
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        else:
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{_W-_PAD+4}" y="{_PAD+14*i+10}" font-size="10" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
