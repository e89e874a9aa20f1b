"""Deterministic CSV / JSON / SVG emission.

Every CSV cell and SVG coordinate goes through one column formatter: a float
is written as Python ``repr`` of the float (the shortest decimal that round
trips; ``nan``, ``inf``, ``-inf``), ``None`` as an empty cell and anything else
through ``str``.  JSON writes the non-finite floats as those same strings.
Identical resolved configs therefore produce byte-identical artifacts on any
platform.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from itertools import compress
from pathlib import Path

import numpy as np

__all__ = ["write_csv", "write_json", "write_svg_lineplot", "to_jsonable"]


def _column_text(col) -> list[str]:
    """The text of each cell of a column (an ndarray or a list)."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        # tolist gives Python floats, each its own repr
        return list(map(repr, col.tolist()))
    values = col.tolist() if isinstance(col, np.ndarray) else col
    return [
        repr(float(v)) if isinstance(v, (float, np.floating)) else "" if v is None else str(v)
        for v in values
    ]


def write_csv(path: str | Path, columns: Mapping) -> Path:
    """Write ``columns`` (header -> column, in order) as CSV; unequal lengths raise ValueError."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = zip(*map(_column_text, columns.values()), strict=True)
    lines = [",".join(columns), *map(",".join, rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def to_jsonable(obj):
    """Recursively convert dataclass-ish/numpy structures to plain JSON types."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: to_jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return str(obj)


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def write_svg_lineplot(
    path: str | Path,
    x,
    series: dict[str, np.ndarray],
    title: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> Path:
    """Minimal deterministic SVG polyline plot (data-first convenience output)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width, height, pad = 800.0, 500.0, 60.0
    x = np.asarray(x, dtype=float)

    def transform(v, log):
        v = np.asarray(v, dtype=float)
        if log:
            v = np.where(v > 0, v, np.nan)
            return np.log10(v)
        return v

    tx = transform(x, log_x)
    all_y = np.concatenate([transform(v, log_y) for v in series.values()])
    finite_y = all_y[np.isfinite(all_y)]
    finite_x = tx[np.isfinite(tx)]
    if finite_x.size == 0 or finite_y.size == 0:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    else:
        x0, x1 = float(np.min(finite_x)), float(np.max(finite_x))
        y0, y1 = float(np.min(finite_y)), float(np.max(finite_y))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" height="{int(height)}" '
        f'viewBox="0 0 {int(width)} {int(height)}">',
        f'<rect x="0" y="0" width="{int(width)}" height="{int(height)}" fill="white"/>',
        f'<text x="{int(width / 2)}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 20}" font-size="11">{x0!r}</text>',
        f'<text x="{width - pad}" y="{height - pad + 20}" text-anchor="end" font-size="11">{x1!r}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="11">{y0!r}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="11">{y1!r}</text>',
    ]
    # every series shares the x text, and a constant series repeats one y text:
    # each distinct float is formatted once
    x_text = _column_text(sx(tx))
    for i, (name, ys) in enumerate(series.items()):
        ty = transform(ys, log_y)
        ok = np.isfinite(tx) & np.isfinite(ty)
        y_px = sy(ty[ok])
        bits = y_px.view(np.uint64)
        if bits.size and np.all(bits == bits[0]):
            y_text = _column_text(y_px[:1]) * bits.size
        else:
            y_text = _column_text(y_px)
        pts = " ".join(map(",".join, zip(compress(x_text, ok), y_text)))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width - pad - 4}" y="{pad + 16 + 14 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
