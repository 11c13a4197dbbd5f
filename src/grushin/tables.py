"""Tabular sweep results with deterministic CSV and SVG emission.

A SweepTable is a plain header-plus-rows carrier.  Cells are numbers, or
strings for label columns such as a shape tag.  Emission is deterministic:
floats are rendered as %.17e, integers as bare digits, rows end in a single
newline, so identical tables always produce identical bytes.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

from .errors import InvalidProblem

__all__ = ["SweepTable", "emit_csv", "emit_svg", "render_csv", "render_svg"]

#: Size of a rendered plot in pixels.
_WIDTH, _HEIGHT = 800, 560

#: Points a polyline formats per format string; bounds the float temporaries.
_SVG_BLOCK = 4096

_SERIES_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


@dataclass(frozen=True)
class SweepTable:
    """Column headers plus rows of cells; every row matches the header width."""

    headers: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        headers = tuple(str(h) for h in self.headers)
        if not headers:
            raise InvalidProblem("a table needs at least one column")
        object.__setattr__(self, "headers", headers)
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        # an all-float table of the right width is checked in one pass; any
        # other table cell by cell, which also names the offending row
        cells = tuple(chain.from_iterable(rows))
        if (set(map(len, rows)) <= {len(headers)} and set(map(type, cells)) <= {float}
                and all(map(math.isfinite, cells))):
            return
        for i, row in enumerate(rows):
            if len(row) != len(headers):
                raise InvalidProblem(
                    f"row {i} has {len(row)} cells, expected {len(headers)}"
                )
            for cell in row:
                if isinstance(cell, str):
                    continue
                try:
                    value = float(cell)
                except (TypeError, ValueError) as exc:
                    raise InvalidProblem(f"row {i} has a non-numeric cell {cell!r}") from exc
                if not math.isfinite(value):
                    raise InvalidProblem(f"row {i} contains a non-finite value")


def _format_cell(cell) -> str:
    if isinstance(cell, str):
        if any(ch in cell for ch in ',"\r\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell
    if isinstance(cell, numbers.Integral):
        return str(int(cell))
    return "%.17e" % float(cell)


def render_csv(table: SweepTable) -> str:
    """The table as RFC-4180 text: header row first, LF line endings.

    A table whose cells are all exactly float is formatted by one %.17e
    format string, which gives the bytes of _format_cell cell by cell; any
    other table is formatted cell by cell.
    """
    header = ",".join(_format_cell(h) for h in table.headers) + "\n"
    cells = tuple(chain.from_iterable(table.rows))
    if all(type(c) is float for c in cells):
        row_format = ",".join(["%.17e"] * len(table.headers)) + "\n"
        return header + (row_format * len(table.rows)) % cells
    return header + "".join(",".join(map(_format_cell, row)) + "\n" for row in table.rows)


def _write(path, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_bytes(text.encode("utf-8"))


def emit_csv(table: SweepTable, path) -> None:
    """Write the table as CSV to a file path, or to stdout when path is '-'."""
    _write(path, render_csv(table))


def _series(table: SweepTable) -> list[tuple[str, list[tuple[float, float]]]]:
    """Group rows into polyline series.

    Tables whose first three columns are numeric, and where some column-0 key
    has at least two rows, are treated as keyed sweeps: column 0 labels the
    series, column 1 is the abscissa, column 2 the ordinate.  Anything else is
    plotted as a single series from the first two numeric columns; one point
    per key would draw no line.
    """
    if not table.rows:
        raise InvalidProblem("cannot plot an empty table")
    columns = tuple(zip(*table.rows))
    cols = [j for j, column in enumerate(columns)
            if not any(issubclass(kind, str) for kind in set(map(type, column)))]
    if {0, 1, 2} <= set(cols):
        groups: dict[float, list[tuple[float, float]]] = {}
        for row in table.rows:
            groups.setdefault(float(row[0]), []).append((float(row[1]), float(row[2])))
        if len(groups) < len(table.rows):
            return [
                (f"{table.headers[0]}={key:g}", pts) for key, pts in groups.items()
            ]
    if len(cols) < 2:
        raise InvalidProblem("plotting needs at least two numeric columns")
    x, y = cols[0], cols[1]
    pts = list(zip(map(float, columns[x]), map(float, columns[y])))
    return [(f"{table.headers[y]}", pts)]


def _axis_labels(lo: float, hi: float) -> tuple[str, str]:
    """lo and hi at the fewest significant digits, 6 to 17, that tell them apart."""
    for digits in range(6, 18):
        pair = (f"{lo:.{digits}g}", f"{hi:.{digits}g}")
        if pair[0] != pair[1]:
            break
    return pair


def render_svg(table: SweepTable) -> str:
    """A minimal line plot: one polyline per series, axis box, legend."""
    series = _series(table)
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    # a constant axis is widened by 1, or by one ulp where 1 would round away
    if x_hi == x_lo:
        pad = max(1.0, math.ulp(x_lo))
        x_lo, x_hi = x_lo - pad, x_hi + pad
    if y_hi == y_lo:
        pad = max(1.0, math.ulp(y_lo))
        y_lo, y_hi = y_lo - pad, y_hi + pad
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    span_x = _WIDTH - left - right
    span_y = _HEIGHT - top - bottom

    dx, dy = x_hi - x_lo, y_hi - y_lo
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="{left}" y="{top}" width="{span_x}" height="{span_y}" '
        'fill="none" stroke="#000000"/>',
    ]
    for k, (label, pts) in enumerate(series):
        color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
        # one format string over a block of points gives the bytes of a
        # per-point f"{px:.2f},{py:.2f}"
        pts = sorted(pts)
        blocks = []
        for i in range(0, len(pts), _SVG_BLOCK):
            block = pts[i:i + _SVG_BLOCK]
            flat = [0.0] * (2 * len(block))
            flat[0::2] = [left + (x - x_lo) / dx * span_x for x, _ in block]
            flat[1::2] = [top + (y_hi - y) / dy * span_y for _, y in block]
            blocks.append(" ".join(["%.2f,%.2f"] * len(block)) % tuple(flat))
        coords = " ".join(blocks)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - right - 5:.0f}" y="{top + 16 * (k + 1):.0f}" '
            f'text-anchor="end" font-family="monospace" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    x_text, y_text = _axis_labels(x_lo, x_hi), _axis_labels(y_lo, y_hi)
    labels = (
        (left, _HEIGHT - bottom + 18.0, "start", x_text[0]),
        (_WIDTH - right, _HEIGHT - bottom + 18.0, "end", x_text[1]),
        (left - 6.0, _HEIGHT - bottom, "end", y_text[0]),
        (left - 6.0, top + 10.0, "end", y_text[1]),
    )
    for x, y, anchor, text in labels:
        parts.append(
            f'<text x="{x:.0f}" y="{y:.0f}" text-anchor="{anchor}" '
            f'font-family="monospace" font-size="12">{text}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(table: SweepTable, path) -> None:
    """Write the line plot of the table to a file path, or stdout for '-'."""
    _write(path, render_svg(table))
