"""Command line front end: one subcommand per library computation.

`_COMMANDS` names the flags of each subcommand (`grushin --help` lists them);
the RunConfig field a flag sets holds its converter and default.  Flags are
never abbreviated, and flags are the only input: no file or environment
variable sets a value.  `--n` defaults to 4096 in 1-D and 512 per axis in
2-D.  `--jobs K` (`sweep-s`, `regress`) spreads independent rows over K
worker processes with byte-identical output.  Exit codes: 0 success, 1 I/O
failure, 2 usage error, invalid problem or DegenerateGrid (too coarse a grid),
3 regression failure or missing baseline, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from .asymptotics import LimitKind, convergence_report, limit_profile
from .baseline import DEFAULT_BASELINE, regression_suite
from .errors import BaselineMissing, BracketFailure, GrushinError, NonConvergence, UsageError
from .minimizer import MinimizeResult, ProblemParams, _split_solution, minimize
from .planar import (DEFAULT_N_2D, DiskProblem, segment_limit_probe, solve_disk,
                     solve_rectangle_full)
from .radial import DEFAULT_N, _lapack
from .tables import SweepTable, emit_csv, emit_svg

__all__ = ["RunConfig", "console_entry", "main", "parse_config"]

DEFAULT_S_LADDER_ZERO = (0.1, 0.01, 0.001)
DEFAULT_S_LADDER_INF = (10.0, 50.0, 150.0)


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _grid(text: str) -> tuple[float, ...]:
    """Comma-separated values, or lo:hi:count for a uniform grid."""
    parts = text.split(":")
    if len(parts) == 1:
        values = tuple(_number(piece) for piece in text.split(",") if piece.strip())
        if values:
            return values
    elif len(parts) == 3:
        lo, hi, count = _number(parts[0]), _number(parts[1]), _count(parts[2])
        if count >= 2 and hi > lo:
            step = (hi - lo) / (count - 1)
            return tuple(lo + k * step for k in range(count))
    raise argparse.ArgumentTypeError(f"expected a list or lo:hi:count, got {text!r}")


def _flag(name: str, convert, default):
    """A RunConfig field set by --name, whose text `convert` turns into the value."""
    return field(default=default, metadata={"flag": name, "convert": convert})


@dataclass(frozen=True)
class RunConfig:
    """Converted flags, which the handler's problem checks; untaken flags keep defaults."""

    command: str
    d1: int = _flag("d1", int, 1)
    d2: int = _flag("d2", int, 1)
    s: float = _flag("s", _number, 1.0)
    V: float = _flag("V", _number, 1.0)
    t: float = _flag("t", _number, 1.0)
    rho: float = _flag("rho", _number, math.pi ** -0.5)
    s_list: tuple[float, ...] = _flag("s-list", _grid, ())
    t_grid: tuple[float, ...] = _flag("t-grid", _grid, _grid("0.25:4:20"))
    limit: LimitKind | None = _flag("limit", LimitKind, None)
    grid_n: int = _flag("n", int, 0)
    output_path: str = _flag("out", str, "-")
    svg_path: str | None = _flag("svg", str, None)
    jobs: int = _flag("jobs", _count, 1)
    baseline_path: str = _flag("baseline", str, str(DEFAULT_BASELINE))


#: flag name -> the RunConfig field it sets
_FLAGS = {f.metadata["flag"]: f for f in fields(RunConfig) if f.metadata}


@contextmanager
def _pool_map(jobs: int):
    """`map`, or the map of a pool of `jobs` worker processes when jobs > 1.

    SciPy's LAPACK extension (radial._lapack, not scipy.linalg) is loaded
    before the pool starts, so that forked workers inherit it instead of each
    loading it.  The pool itself is imported only here, so a serial run never
    loads it.
    """
    if jobs == 1:
        yield map
    else:
        from concurrent.futures import ProcessPoolExecutor

        _lapack()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield pool.map


def _emit(cfg: RunConfig, table: SweepTable) -> None:
    emit_csv(table, cfg.output_path)
    if cfg.svg_path is not None:
        emit_svg(table, cfg.svg_path)


def _params(cfg: RunConfig) -> ProblemParams:
    return ProblemParams(d1=cfg.d1, d2=cfg.d2, s=cfg.s, V=cfg.V)


def _cmd_solve1d(cfg: RunConfig) -> None:
    import numpy as np

    lam, prob, sol = _split_solution(_params(cfg), cfg.t, cfg.grid_n)
    v = sol.v
    del sol  # its unread E'' operands would stay alive through emission
    _emit(cfg, SweepTable(headers=("r", "v"), rows=np.column_stack((prob.grid(), v))))
    print(f"lambda1 = {lam:.12g} (coupling {prob.mu:.6g})", file=sys.stderr)


def _cmd_minimize(cfg: RunConfig) -> None:
    result = minimize(_params(cfg), cfg.grid_n)
    _emit(cfg, SweepTable(headers=MinimizeResult.CSV_HEADERS, rows=(result.csv_row(),)))


def _cmd_sweep(cfg: RunConfig) -> None:
    with _pool_map(cfg.jobs) as map_fn:
        table = convergence_report(_params(cfg), cfg.s_list, cfg.t_grid, cfg.limit,
                                   cfg.grid_n, map_fn=map_fn)
    _emit(cfg, table)


def _cmd_limits(cfg: RunConfig) -> None:
    kind = cfg.limit if cfg.limit is not None else LimitKind.S_TO_INFINITY
    rows = tuple(zip(cfg.t_grid, limit_profile(_params(cfg), kind, cfg.t_grid)))
    _emit(cfg, SweepTable(headers=("t", "G_limit"), rows=rows))


_PLANAR_HEADERS = ("shape", "rho_or_t", "s", "n", "lambda1", "extrapolated")


def _cmd_disk(cfg: RunConfig) -> None:
    p = DiskProblem(rho=cfg.rho, s=cfg.s, n=cfg.grid_n)
    solve = solve_disk(p)
    row = ("disk", p.rho, p.s, p.n, solve.lambda1, solve.extrapolated)
    _emit(cfg, SweepTable(headers=_PLANAR_HEADERS, rows=(row,)))


def _cmd_rectangle(cfg: RunConfig) -> None:
    full = solve_rectangle_full(cfg.t, cfg.V, cfg.s, cfg.grid_n)
    row = ("rectangle", cfg.t, cfg.s, cfg.grid_n, full.lambda1, full.extrapolated)
    _emit(cfg, SweepTable(headers=_PLANAR_HEADERS, rows=(row,)))


def _cmd_probe(cfg: RunConfig) -> None:
    _emit(cfg, segment_limit_probe(cfg.rho, cfg.s_list, cfg.grid_n))


def _cmd_regress(cfg: RunConfig) -> int:
    with _pool_map(cfg.jobs) as map_fn:
        report = regression_suite(cfg.baseline_path, map_fn=map_fn)
    if not report.rows:
        print("warning: baseline has no rows; nothing to check", file=sys.stderr)
        return 0
    for name, expected, actual, dev, tol in report.rows:
        verdict = "OK" if dev <= tol else "FAIL"
        print(f"{name}: expected={expected:.10g} actual={actual:.10g} "
              f"rel_dev={dev:.3e} tol={tol:.3e} [{verdict}]")
    if report.failures:
        print(f"regression failed for: {', '.join(report.failures)}", file=sys.stderr)
        return 3
    print(f"regression passed; max rel dev {report.max_rel_dev:.3e}")
    return 0


#: command -> (handler, help, the flags it takes, whether its default --n is
#: DEFAULT_N_2D rather than DEFAULT_N)
_COMMANDS = {
    "solve1d": (_cmd_solve1d, "radial eigenfunction at a given split",
                "d1 d2 s V t n out svg".split(), False),
    "minimize": (_cmd_minimize, "optimal volume split", "d1 d2 s V n out".split(), False),
    "sweep-s": (_cmd_sweep, "objective versus a limit curve over an exponent ladder",
                "d1 d2 V s-list t-grid limit n out svg jobs".split(), False),
    "limits": (_cmd_limits, "sample a closed-form limit curve",
               "d1 d2 V t-grid limit out svg".split(), False),
    "disk": (_cmd_disk, "direct 2-D disk eigenvalue", "rho s n out".split(), True),
    "rectangle": (_cmd_rectangle, "direct 2-D rectangle eigenvalue",
                  "t V s n out".split(), True),
    "probe": (_cmd_probe, "disk eigenvalues against the longest-segment reference",
              "rho s-list n out svg".split(), True),
    "regress": (_cmd_regress, "recompute a baseline CSV", "baseline jobs".split(), False),
}


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print the usage and exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="grushin",
        description="Eigenvalue computations for the degenerate product operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, _) in _COMMANDS.items():
        # No abbreviations, so that `--s` cannot stand for `--s-list` or `--svg`.
        # Absent flags stay out of the namespace, so RunConfig holds the defaults.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(f"--{flag}", dest=_FLAGS[flag].name, metavar=flag.upper(),
                           type=_FLAGS[flag].metadata["convert"])
    return parser


def parse_config(argv) -> RunConfig:
    """Parse the command line into a RunConfig."""
    values = vars(_build_parser().parse_args(argv))
    _, _, flags, planar = _COMMANDS[values["command"]]
    if "n" in flags and "grid_n" not in values:
        values["grid_n"] = DEFAULT_N_2D if planar else DEFAULT_N
    if "s-list" in flags and "s_list" not in values:
        zero = values.get("limit") is LimitKind.S_TO_ZERO
        values["s_list"] = DEFAULT_S_LADDER_ZERO if zero else DEFAULT_S_LADDER_INF
    return RunConfig(**values)


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[cfg.command][0](cfg) or 0
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except (GrushinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BaselineMissing):
            return 3
        if isinstance(exc, (NonConvergence, BracketFailure)):
            return 4
        return 1 if isinstance(exc, OSError) else 2


def console_entry() -> None:
    sys.exit(main())
