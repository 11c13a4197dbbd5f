#!/usr/bin/env python3
"""Grid-refinement study for the direct 2-D solver.

Prints the eigenvalue ladder for a rectangle and a disk over a doubling
sequence of per-axis resolutions, together with successive error ratios.
Rectangle errors shrink about 4x per doubling (second order); the masked
disk boundary degrades this to roughly 1.5-2x (first order), which is why
disk results are Richardson-extrapolated with the first-order weight.
"""

from __future__ import annotations

import argparse
import math
import sys

from grushin.planar import DiskProblem, solve_disk, solve_rectangle_full
from grushin.tables import SweepTable, emit_csv

UNIT_AREA_RHO = math.pi ** -0.5


def ladder(kind: str, s: float, sizes: tuple[int, ...]) -> list[tuple]:
    if kind == "rectangle":
        solves = [solve_rectangle_full(1.0, 1.0, s, n) for n in sizes]
    else:
        solves = [solve_disk(DiskProblem(rho=UNIT_AREA_RHO, s=s, n=n)) for n in sizes]
    # reference: extrapolated value at the finest grid
    ref = solves[-1].extrapolated
    rows = []
    prev_err = None
    for n, solve in zip(sizes, solves):
        err = abs(solve.lambda1 - ref)
        ratio = prev_err / err if prev_err is not None and err > 0 else ""
        rows.append((kind, s, n, solve.lambda1, err, ratio))
        prev_err = err
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=str, default="64,128,256,512")
    parser.add_argument("--out", type=str, default=None, help="optional CSV path")
    args = parser.parse_args(argv)
    sizes = tuple(int(x) for x in args.sizes.split(","))

    rows = []
    for kind in ("rectangle", "disk"):
        for s in (0.0, 1.0):
            rows.extend(ladder(kind, s, sizes))
    table = SweepTable(
        headers=("kind", "s", "n", "lambda1", "abs_err", "err_ratio"),
        rows=tuple(rows),
    )
    for row in table.rows:
        ratio = f"{row[5]:.2f}" if row[5] != "" else "-"
        print(
            f"{row[0]:<9} s={row[1]:<4g} n={row[2]:<4d} lambda1={row[3]:.8f} "
            f"err={row[4]:.3e} ratio={ratio}"
        )
    if args.out:
        emit_csv(table, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
