"""Regression baselines: recompute stored eigenvalues and compare them.

A baseline CSV has the columns of BASELINE_HEADERS.  `kind` selects the
computation (`minimize`, `gs` for the split objective at a given `t`, `disk`,
`rectangle`); `d1`, `d2` and `V` may be left empty (1, 1 and 1.0), the other
inputs the kind uses may not.  The 2-D kinds solve d1 = d2 = 1 only, so
their `d1` and `d2` must be empty or 1.  Numbers must be finite, `d1`, `d2`
and `n` positive integers, `expected` nonzero and `rel_tol` >= 0.
`regression_suite` recomputes every row and reports its relative deviation
from `expected` next to the row's `rel_tol`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import BaselineMissing, UsageError
from .minimizer import ProblemParams, lambda1_product, minimize
from .planar import DiskProblem, solve_disk, solve_rectangle_full

__all__ = ["BASELINE_HEADERS", "DEFAULT_BASELINE", "RegressionReport", "regression_suite"]

DEFAULT_BASELINE = Path("baselines") / "anchors.csv"

BASELINE_HEADERS = (
    "name",
    "kind",
    "d1",
    "d2",
    "s",
    "V",
    "t",
    "rho",
    "n",
    "expected",
    "rel_tol",
)


def _read_baseline(path: str) -> list[dict]:
    file = Path(path)
    if not file.is_file():
        raise BaselineMissing(f"baseline file not found: {path}")
    with file.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise BaselineMissing(f"baseline file is empty: {path}")
        missing = set(BASELINE_HEADERS) - set(reader.fieldnames)
        if missing:
            raise UsageError(f"baseline {path}: missing columns {sorted(missing)}")
        return list(reader)


def _row_value(row: dict, key: str, default: float | None = None) -> float:
    text = (row.get(key) or "").strip()
    if not text:
        if default is None:
            raise UsageError(f"baseline row {row.get('name')!r}: missing {key}")
        return default
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        name = row.get("name")
        raise UsageError(f"baseline row {name!r}: {key} = {text!r} is not a finite number")
    return value


def _row_count(row: dict, key: str, default: int | None = None) -> int:
    value = _row_value(row, key, default)
    if not (value >= 1) or value != int(value):
        name = row.get("name")
        raise UsageError(f"baseline row {name!r}: {key} = {value!r} is not a positive integer")
    return int(value)


def _accepted(row: dict) -> tuple[str, float, float]:
    name = (row.get("name") or "").strip() or "<unnamed>"
    expected, tol = _row_value(row, "expected"), _row_value(row, "rel_tol")
    if expected == 0.0 or tol < 0.0:
        raise UsageError(f"baseline row {name!r}: expected must be nonzero and rel_tol >= 0")
    return name, expected, tol


def _evaluate_baseline_row(row: dict) -> float:
    kind = (row.get("kind") or "").strip()
    n = _row_count(row, "n")
    if kind in ("minimize", "gs"):
        p = ProblemParams(
            d1=_row_count(row, "d1", 1),
            d2=_row_count(row, "d2", 1),
            s=_row_value(row, "s"),
            V=_row_value(row, "V", 1.0),
        )
        if kind == "minimize":
            return minimize(p, n).lambda1
        return lambda1_product(p, _row_value(row, "t"), n)
    if kind in ("disk", "rectangle"):
        for key in ("d1", "d2"):
            if _row_count(row, key, 1) != 1:
                raise UsageError(
                    f"baseline row {row.get('name')!r}: {kind} rows solve d1 = d2 = 1, "
                    f"got {key} = {row[key]!r}"
                )
    if kind == "disk":
        problem = DiskProblem(rho=_row_value(row, "rho"), s=_row_value(row, "s"), n=n)
        return solve_disk(problem).extrapolated
    if kind == "rectangle":
        return solve_rectangle_full(
            _row_value(row, "t"), _row_value(row, "V", 1.0), _row_value(row, "s"), n
        ).extrapolated
    raise UsageError(f"baseline row {row.get('name')!r}: unknown kind {kind!r}")


@dataclass(frozen=True)
class RegressionReport:
    """Recomputed baseline rows with their deviations."""

    rows: tuple[tuple[str, float, float, float, float], ...]

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, _, _, dev, tol in self.rows if dev > tol)

    @property
    def max_rel_dev(self) -> float:
        return max((dev for _, _, _, dev, _ in self.rows), default=0.0)


def regression_suite(baseline_path, map_fn=map) -> RegressionReport:
    """Recompute every baseline row and report relative deviations.

    map_fn lets a caller fan the independent rows out to a worker pool; row
    order follows the file either way.
    """
    entries = _read_baseline(str(baseline_path))
    accepted = [_accepted(entry) for entry in entries]
    actuals = map_fn(_evaluate_baseline_row, entries)
    rows = tuple(
        (name, expected, actual, abs(actual - expected) / abs(expected), tol)
        for (name, expected, tol), actual in zip(accepted, actuals)
    )
    return RegressionReport(rows=rows)
