"""Tabular sweep results with deterministic CSV and SVG emission.

A SweepTable is a plain header-plus-rows carrier.  Cells are numbers, or
strings for label columns such as a shape tag; an all-float table may be one
float64 NumPy block, emitted without a Python object per cell.  Emission is
deterministic: floats are rendered as %.17e, integers as bare digits, rows end
in a single newline, so identical tables always produce identical bytes.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
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
    """Column headers plus rows of cells; every row matches the header width.

    rows is either a tuple of tuples or, for an all-float table, a read-only
    2-D float64 NumPy block with one column per header.  Like the array it
    holds, a block table is not hashable, and == between two of them raises.
    """

    headers: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        headers = tuple(str(h) for h in self.headers)
        if not headers:
            raise InvalidProblem("a table needs at least one column")
        object.__setattr__(self, "headers", headers)
        if _is_block(self.rows):
            import numpy as np

            block = np.array(self.rows)  # a copy, so the table stays immutable
            if block.dtype != np.float64 or block.shape[1:] != (len(headers),):
                raise InvalidProblem(f"a block needs {len(headers)} float64 columns, "
                                     f"not {block.dtype} {block.shape}")
            finite = np.isfinite(block).all(axis=1)
            if not finite.all():
                raise InvalidProblem(f"row {finite.argmin()} contains a non-finite value")
            block.flags.writeable = False
            object.__setattr__(self, "rows", block)
            return
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
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


def _is_block(rows) -> bool:
    """Whether rows, or a column of them, is a NumPy array."""
    return hasattr(rows, "dtype")


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

    A block is formatted by one %.17e format string, which gives the bytes of
    _format_cell cell by cell; rows of cells are formatted cell by cell.
    """
    header = ",".join(_format_cell(h) for h in table.headers) + "\n"
    if _is_block(table.rows):
        row_format = ",".join(["%.17e"] * len(table.headers)) + "\n"
        return header + (row_format * len(table.rows)) % tuple(table.rows.ravel().tolist())
    return header + "".join(",".join(map(_format_cell, row)) + "\n" for row in table.rows)


def _write(path, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_bytes(text.encode("utf-8"))


def emit_csv(table: SweepTable, path) -> None:
    """Write the table as CSV to a file path, or to stdout when path is '-'."""
    _write(path, render_csv(table))


def _series(table: SweepTable) -> list[tuple[str, Sequence[float], Sequence[float]]]:
    """Group rows into polyline series (label, xs, ys), sorted by x, then y.

    Tables whose first three columns are numeric, and where some column-0 key
    has at least two rows, are treated as keyed sweeps: column 0 labels the
    series, column 1 is the abscissa, column 2 the ordinate.  Anything else is
    plotted as a single series from the first two numeric columns; one point
    per key would draw no line.  A block that is no keyed sweep is sorted by
    NumPy into NumPy columns; a keyed one is grouped as its rows would be.
    """
    rows = table.rows
    if not len(rows):
        raise InvalidProblem("cannot plot an empty table")
    if _is_block(rows):
        keyed = rows.shape[1] > 2 and len(set(rows[:, 0].tolist())) < len(rows)
        if rows.shape[1] > 1 and not keyed:
            import numpy as np

            ordered = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
            return [(table.headers[1], ordered[:, 0], ordered[:, 1])]
        rows = rows.tolist()
    columns = tuple(zip(*rows))
    cols = [j for j, column in enumerate(columns)
            if not any(issubclass(kind, str) for kind in set(map(type, column)))]
    if {0, 1, 2} <= set(cols):
        groups: dict[float, list[tuple[float, float]]] = {}
        for row in rows:
            groups.setdefault(float(row[0]), []).append((float(row[1]), float(row[2])))
        if len(groups) < len(rows):
            return [(f"{table.headers[0]}={text}", *zip(*sorted(pts)))
                    for text, pts in zip(_labels(list(groups)), groups.values())]
    if len(cols) < 2:
        raise InvalidProblem("plotting needs at least two numeric columns")
    x, y = cols[0], cols[1]
    xs, ys = zip(*sorted(zip(map(float, columns[x]), map(float, columns[y]))))
    return [(table.headers[y], xs, ys)]


def _labels(values: Sequence[float]) -> list[str]:
    """Distinct values at the fewest significant digits, 6 to 17, that tell them apart."""
    for digits in range(6, 18):
        texts = [f"{v:.{digits}g}" for v in values]
        if len(set(texts)) == len(texts):
            break
    return texts


def _extremes(columns: list[Sequence[float]]) -> tuple[float, float]:
    """min and max over the columns, the first of equal extremes as min() and max() pick."""
    ends = [(c[c.argmin()].item(), c[c.argmax()].item()) if _is_block(c) else (min(c), max(c))
            for c in columns]
    return min(lo for lo, _ in ends), max(hi for _, hi in ends)


def _pixels(xs: Sequence[float], ys: Sequence[float], to_px, to_py) -> list[float]:
    """Pixel coordinates px0, py0, px1, py1, ...; NumPy columns are mapped whole."""
    if not _is_block(xs):
        return [v for x, y in zip(xs, ys) for v in (to_px(x), to_py(y))]
    import numpy as np

    # as with Python floats, a span that overflows gives inf, then nan, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        return np.column_stack((to_px(xs), to_py(ys))).ravel().tolist()


def render_svg(table: SweepTable) -> str:
    """A minimal line plot: one polyline per series, axis box, legend."""
    series = _series(table)
    x_lo, x_hi = _extremes([xs for _, xs, _ in series])
    y_lo, y_hi = _extremes([ys for _, _, ys in series])
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

    def to_px(x):
        return left + (x - x_lo) / dx * span_x

    def to_py(y):
        return top + (y_hi - y) / dy * span_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="{left}" y="{top}" width="{span_x}" height="{span_y}" '
        'fill="none" stroke="#000000"/>',
    ]
    for k, (label, xs, ys) in enumerate(series):
        color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
        # one format string over a block of points gives the bytes of a
        # per-point f"{px:.2f},{py:.2f}"
        blocks = []
        for i in range(0, len(xs), _SVG_BLOCK):
            flat = _pixels(xs[i:i + _SVG_BLOCK], ys[i:i + _SVG_BLOCK], to_px, to_py)
            blocks.append(" ".join(["%.2f,%.2f"] * (len(flat) // 2)) % tuple(flat))
        coords = " ".join(blocks)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - right - 5:.0f}" y="{top + 16 * (k + 1):.0f}" '
            f'text-anchor="end" font-family="monospace" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    x_text, y_text = _labels((x_lo, x_hi)), _labels((y_lo, y_hi))
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
