"""The three benchmark workloads: problem draws, operations and their checks.

A workload draws one pass of operations from a seeded generator.  The
warm-up pass is anchored: it solves the problems of the accepted rows of
baselines/anchors.csv (exact exponents, t grid and disk radius) and checks
them at the rows' own tolerances.  Every timed pass draws fresh inputs that
reach the solvers: exponents jittered by up to S_JITTER, disk radii by up to
RHO_JITTER, a jittered t grid, fresh volumes V and a shuffled order, so no
pass repeats the solver inputs of an earlier pass and an in-process memo
cannot fake a gain across passes.  The jitter is small enough that the
solvers' iteration and solve counts stay the same for every draw.  Volumes
move problems along the exact scaling of the operator (x -> a x,
y -> a^(1+s) y, so volume scales as a^Q with Q = d1 + (1+s) d2, first-factor
volume as a^d1 and eigenvalues as a^-2), which lets anchor rows be checked at
any drawn V.

Every operation's result is checked after the pass; a failed check counts as
a failed operation.  Operations call the program through module attributes
(`grushin.minimizer.minimize`, ...) so the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import grushin.asymptotics
import grushin.cli
import grushin.minimizer
import grushin.planar
from grushin.minimizer import ProblemParams

UNIT_AREA_RHO = math.pi ** -0.5
PLANAR_CASES = ("disk_s0", "disk_s1", "disk_s150", "rect_s1", "rect_s150")
CLI_COMMANDS = ("limits", "minimize", "solve1d", "sweep-s", "regress")

#: Largest relative jitter of an exponent s, and of a disk radius, in a timed
#: pass.  Within these the solve counts of `minimize`, the whole-space loops
#: and the disk iteration counts at n=256 do not change.
S_JITTER = 0.02
RHO_JITTER = 0.025
#: Fixed tolerances of the 2-D checks, a few times the deviations seen at
#: n=256 and within what is seen at the n=64 smoke grid: the s=0 disk deviates
#: 5e-4 (n=256) and 5e-3 (n=64) from j01^2/rho^2, the disks at s=1 and s=150
#: sit 10% and 7e-5 above their circumscribed square, and rectangles match the
#: separated 1-D route to 1e-6.
DISK_S0_TOL = 0.01
SQUARE_MARGIN = 0.01
RECTANGLE_TOL = 1e-5


@dataclass(frozen=True)
class Op:
    """One timed call into the program and the check of its result.

    `check(result, results)` sees the results of the whole pass by op name and
    returns a list of problems; an empty list means the result is correct.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]


def draw_volume(rng) -> float:
    return math.exp(rng.uniform(math.log(0.5), math.log(2.0)))


def scale_factor(d1: int, d2: int, s: float, V: float, V_ref: float = 1.0) -> float:
    """Length factor a with (V / V_ref) = a^Q, Q = d1 + (1+s) d2."""
    return (V / V_ref) ** (1.0 / (d1 + (1.0 + s) * d2))


def jitter(rng, value: float, share: float) -> float:
    return value * (1.0 + rng.uniform(-share, share))


def rel_problem(label: str, value: float, expected: float, tol: float) -> list:
    dev = abs(value - expected) / abs(expected)
    if dev <= tol:
        return []
    return [f"{label}: {value!r} vs {expected!r}, rel dev {dev:.3e} > {tol:.3e}"]


def minimum_problems(label: str, p: ProblemParams, t_star: float, lambda1: float,
                     F_second: float, lambda_lb: float, n: int) -> list:
    """A `minimize` result must be the product-domain curve's minimum.

    lambda1 must be the curve's value at t_star, no larger than its values 1%
    to either side, and no smaller than the closed-form lower bound; the
    curvature certificate F_second must be positive.
    """
    curve = grushin.minimizer.lambda1_product
    problems = [] if F_second > 0.0 else [f"{label}: F_second = {F_second!r} <= 0"]
    problems += rel_problem(f"{label}: lambda1 at t_star", lambda1, curve(p, t_star, n), 1e-9)
    for factor in (0.99, 1.01):
        nearby = curve(p, t_star * factor, n)
        if nearby < lambda1:
            problems.append(f"{label}: curve at {factor} t_star is {nearby!r} < {lambda1!r}")
    if lambda_lb > lambda1:
        problems.append(f"{label}: lower bound {lambda_lb!r} > lambda1 {lambda1!r}")
    return problems


class Anchors:
    """Accepted values from baselines/anchors.csv, matched to workload problems.

    A row matches a problem of the same kind, exponent, dimensions and grid
    size whose V and t are the row's carried along the exact scaling; disks
    must have the row's radius.  The expected value is scaled the same way.
    `matched` collects the names of the rows that were checked.
    """

    def __init__(self, path: Path) -> None:
        with open(path, newline="") as handle:
            self.rows = list(csv.DictReader(handle))
        self.matched: set[str] = set()

    def check(self, kind: str, value: float, *, s: float, n: int, d1: int = 1,
              d2: int = 1, V: float = 1.0, t: float | None = None,
              rho: float | None = None) -> list:
        problems = []
        for row in self.rows:
            def num(key, default=None):
                text = row[key].strip()
                return float(text) if text else default

            if (row["kind"] != kind or num("s") != s or int(num("n")) != n
                    or int(num("d1", 1)) != d1 or int(num("d2", 1)) != d2):
                continue
            if rho is not None and abs(rho - num("rho")) > 1e-12 * rho:
                continue
            a = scale_factor(d1, d2, s, V, num("V", 1.0))
            if t is not None and abs(t / a**d1 - num("t")) > 1e-9 * num("t"):
                continue
            self.matched.add(row["name"])
            problems += rel_problem(
                f"anchor {row['name']}", value, num("expected") * a**-2, num("rel_tol")
            )
        return problems


class Split1D:
    """`minimize` over a fixed exponent set plus a large-exponent sweep with envelopes.

    Why: the library's main use.  Hundreds of radial solves (bracket and
    bisection in `minimize`, one per sweep point) and the uncached whole-space
    truncation loops of `lower_envelope` do nearly all the work; `planar` does
    none of it.  `minimize` works in the coupling sigma, which does not depend
    on V, so timed passes jitter the exponents to give it fresh solves.
    """

    name = "split-1d"
    MINIMIZE = ((1, 1, 0.5), (1, 1, 1.0), (1, 1, 2.0), (1, 1, 3.0), (1, 1, 150.0),
                (2, 3, 1.0), (3, 1, 0.5))
    REPORT_S = (10.0, 50.0, 150.0)
    T_BASE = tuple(2.2 + 0.2 * k for k in range(10))

    def __init__(self, anchors: Anchors, tiny: bool) -> None:
        self.anchors = anchors
        # The lower envelope is a bound of the continuous problem; below
        # n ~ 512 the radial discretization error exceeds its margin.
        self.n = 1024 if tiny else 4096
        self.expected_anchors = set() if tiny else {
            "minimize_s0.5", "minimize_s1", "gs_s150_t2.2", "gs_s150_t3", "gs_s150_t4"}

    def warm(self) -> None:
        for d1, d2, _ in self.MINIMIZE:
            grushin.minimizer.ball_constants(d1, d2, self.n)

    def draw(self, rng, in_process: bool, anchored: bool) -> list[Op]:
        n = self.n

        def exponent(s: float) -> float:
            return s if anchored else jitter(rng, s, S_JITTER)

        ops = []
        for d1, d2, s in self.MINIMIZE:
            p = ProblemParams(d1=d1, d2=d2, s=exponent(s), V=draw_volume(rng))
            ops.append(Op(f"minimize_d{d1}{d2}_s{s:g}",
                          lambda p=p: grushin.minimizer.minimize(p, n),
                          lambda r, _, p=p: self._check_minimize(p, r)))
        V = draw_volume(rng)
        s_list = tuple(exponent(s) for s in self.REPORT_S)
        a = scale_factor(1, 1, s_list[-1], V)
        grid = tuple(a * (t if anchored else t + rng.uniform(-0.05, 0.05)) for t in self.T_BASE)
        p_report = ProblemParams(d1=1, d2=1, s=s_list[-1], V=V)
        ops.append(Op("convergence_report",
                      lambda: grushin.asymptotics.convergence_report(p_report, s_list, grid, n=n),
                      lambda r, _: self._check_report(V, s_list, grid, r)))
        for base, s in zip(self.REPORT_S, s_list):
            p = ProblemParams(d1=1, d2=1, s=s, V=V)
            for k, t in enumerate(grid):
                ops.append(Op(f"envelopes_s{base:g}_t{k}",
                              lambda p=p, t=t: (grushin.asymptotics.lower_envelope(p, t, n),
                                                grushin.asymptotics.upper_envelope(p, t, n)),
                              lambda r, results, s=s, t=t: self._check_envelopes(s, t, r, results)))
        rng.shuffle(ops)
        return ops

    def _check_minimize(self, p: ProblemParams, r) -> list:
        return (minimum_problems(f"minimize d{p.d1}{p.d2} s={p.s!r}", p, r.t_star, r.lambda1,
                                 r.F_second, r.lambda_lower_bound, self.n)
                + self.anchors.check("minimize", r.lambda1, s=p.s, n=self.n, d1=p.d1,
                                     d2=p.d2, V=p.V))

    def _check_report(self, V: float, s_list: tuple, grid: tuple, table) -> list:
        expected = [(s, t) for s in s_list for t in grid]
        if [(row[0], row[1]) for row in table.rows] != expected:
            return [f"report rows are not the {len(expected)} requested (s, t) points"]
        problems = []
        for s, t, value, _, _ in table.rows:
            p = ProblemParams(d1=1, d2=1, s=s, V=V)
            problems += rel_problem(f"report G_s at s={s}, t={t}", value,
                                    grushin.minimizer.lambda1_product(p, t, self.n), 1e-12)
            problems += self.anchors.check("gs", value, s=s, n=self.n, V=V, t=t)
        return problems

    def _check_envelopes(self, s: float, t: float, r, results: dict) -> list:
        table = results.get("convergence_report")
        values = [row[2] for row in (table.rows if table else ()) if row[0] == s and row[1] == t]
        if len(values) != 1:
            return [f"no report value at s={s}, t={t}"]
        lower, upper = r
        if lower <= values[0] <= upper:
            return []
        return [f"envelopes violated at s={s}, t={t}: {lower!r} <= {values[0]!r} <= {upper!r}"]


class Planar2D:
    """Direct 2-D solves: disks at s = 0, 1, 150 and t = 1.645 rectangles.

    Why: the 2-D path is nearly all of `regress`.  The s=0 disk is bound by
    the factorization (few power iterations), the s=150 disk by the iteration
    count on its chord-mode cluster, so faster factorization and better
    eigen-iteration show on different rows; rectangles separate the
    grid-aligned path from the masked-disk path.  `radial` runs only in the
    checks.  The anchored pass solves unit-area disks; timed passes draw each
    radius near it, which leaves the mask, the unknown count and the
    iteration counts unchanged, and give rectangles fresh volumes.
    """

    name = "planar-2d"
    RECT_T = 1.645

    def __init__(self, anchors: Anchors, tiny: bool) -> None:
        self.anchors = anchors
        self.n = 64 if tiny else 256
        self.expected_anchors = set() if tiny else {"disk_s150"}

    def warm(self) -> None:
        grushin.minimizer.ball_constants(1, 1)

    def draw(self, rng, in_process: bool, anchored: bool) -> list[Op]:
        n = self.n
        ops = []
        for s in (0.0, 1.0, 150.0):
            rho = UNIT_AREA_RHO if anchored else jitter(rng, UNIT_AREA_RHO, RHO_JITTER)
            problem = grushin.planar.DiskProblem(rho=rho, s=s, n=n)
            ops.append(Op(f"disk_s{s:g}",
                          lambda problem=problem: grushin.planar.solve_disk(problem),
                          lambda r, _, rho=rho, s=s: self._check_disk(rho, s, r)))
        for s in (1.0, 150.0):
            V = draw_volume(rng)
            t = self.RECT_T * scale_factor(1, 1, s, V)
            ops.append(Op(f"rect_s{s:g}",
                          lambda t=t, V=V, s=s: grushin.planar.solve_rectangle_full(t, V, s, n),
                          lambda r, _, t=t, V=V, s=s: self._check_rectangle(t, V, s, r)))
        rng.shuffle(ops)
        return ops

    def _check_disk(self, rho: float, s: float, r) -> list:
        """Against j01^2/rho^2 at s=0, else between the inscribed and circumscribed squares.

        The square values come from the separated 1-D route; the bracket is
        widened by the fixed SQUARE_MARGIN for the discretization error.
        """
        value = r.extrapolated
        problems = self.anchors.check("disk", value, s=s, n=self.n, rho=rho)
        if s == 0.0:
            from scipy.special import jn_zeros

            return problems + rel_problem("disk s=0", value, float(jn_zeros(0, 1)[0]) ** 2 / rho**2,
                                          DISK_S0_TOL)
        inscribed, circumscribed = rho * math.sqrt(2.0), 2.0 * rho
        lower = grushin.planar.decoupled_rectangle_value(circumscribed, circumscribed**2, s)
        upper = grushin.planar.decoupled_rectangle_value(inscribed, inscribed**2, s)
        if not lower * (1.0 - SQUARE_MARGIN) <= value <= upper * (1.0 + SQUARE_MARGIN):
            problems.append(f"disk s={s}: {value!r} outside squares [{lower!r}, {upper!r}] "
                            f"widened by {SQUARE_MARGIN}")
        return problems

    def _check_rectangle(self, t: float, V: float, s: float, r) -> list:
        separated = grushin.planar.decoupled_rectangle_value(t, V, s)
        return (self.anchors.check("rectangle", r.extrapolated, s=s, n=self.n, V=V, t=t)
                + rel_problem(f"rectangle s={s}", r.extrapolated, separated, RECTANGLE_TOL))


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str


def cli_env(root: Path) -> dict:
    """The benchmark's environment for `python -m grushin` child processes."""
    env = dict(os.environ)
    env.pop("GRUSHIN_DEFAULT_N", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli(root: Path, argv: list, in_process: bool) -> CliRun:
    """One CLI command, as a fresh `python -m grushin` process or through cli.main."""
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = grushin.cli.main(argv)
        return CliRun(code, out.getvalue(), err.getvalue())
    proc = subprocess.run([sys.executable, "-m", "grushin", *argv], cwd=root,
                          env=cli_env(root), capture_output=True, text=True, timeout=150)
    return CliRun(proc.returncode, proc.stdout, proc.stderr)


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_limits(r: CliRun) -> list:
    """A `limits` run over a 20-point grid against the in-process limit curve."""
    if r.code != 0:
        return [f"limits exited {r.code}: {r.stderr.strip()[-300:]}"]
    rows = csv_rows(r.stdout)
    problems = [] if len(rows) == 20 else [f"limits printed {len(rows)} rows, expected 20"]
    for row in rows:
        t = float(row["t"])
        problems += rel_problem(f"limit at t={t}", float(row["G_limit"]),
                                grushin.asymptotics.large_s_limit(1, t), 1e-12)
    return problems


class Cli:
    """Sequential `python -m grushin` commands, one fresh process each.

    Why: the entry point users run.  Interpreter start, the scipy import,
    argparse and `tables` formatting cost here and almost nowhere else, and
    `solve1d` does one radial solve with 65k nodes instead of many small
    ones.  The traced run calls `grushin.cli.main(argv)` in-process.  Timed
    passes jitter the `minimize` exponent and the `sweep-s` t grid, so the
    in-process traced run gets fresh solver inputs too.
    """

    name = "cli"

    def __init__(self, anchors: Anchors, tiny: bool, root: Path, scratch: Path) -> None:
        self.anchors = anchors
        self.root = root
        self.scratch = scratch
        self.n = 1024 if tiny else 4096
        self.n_solve1d = 4096 if tiny else 65536
        self.grid_flags = ["--n", str(self.n)] if tiny else []
        self.expected_anchors = set() if tiny else {
            "minimize_s1", "gs_s150_t2.2", "gs_s150_t3", "gs_s150_t4"}

    def warm(self) -> None:
        grushin.minimizer.ball_constants(1, 1, self.n)

    def draw(self, rng, in_process: bool, anchored: bool) -> list[Op]:
        ops = []

        def add(name, argv, check):
            ops.append(Op(name, lambda: run_cli(self.root, argv, in_process),
                          lambda r, _: check(r) if r.code == 0 else
                          [f"{name} exited {r.code}: {r.stderr.strip()[-300:]}"]))

        f = rng.uniform(0.98, 1.02)
        add("limits", ["limits", "--t-grid", f"{0.25 * f!r}:{4.0 * f!r}:20"], check_limits)
        V, s = draw_volume(rng), 1.0 if anchored else jitter(rng, 1.0, S_JITTER)
        add("minimize", ["minimize", "--s", repr(s), "--V", repr(V), *self.grid_flags],
            lambda r, p=ProblemParams(d1=1, d2=1, s=s, V=V): self._check_minimize(p, r))
        V = draw_volume(rng)
        csv_path, svg_path = self.scratch / "solve1d.csv", self.scratch / "solve1d.svg"
        for stale in (csv_path, svg_path):
            stale.unlink(missing_ok=True)
        add("solve1d", ["solve1d", "--s", "1", "--t", "1.645", "--V", repr(V),
                        "--n", str(self.n_solve1d), "--out", str(csv_path), "--svg", str(svg_path)],
            lambda r, V=V: self._check_solve1d(V, csv_path, svg_path, r))
        V = draw_volume(rng)
        a = scale_factor(1, 1, 150.0, V) * (1.0 if anchored else rng.uniform(0.98, 1.02))
        add("sweep-s", ["sweep-s", "--limit", "inf", "--s-list", "10,50,150",
                        "--t-grid", f"{2.2 * a!r}:{4.0 * a!r}:10", "--V", repr(V),
                        "--jobs", "2", *self.grid_flags],
            lambda r, V=V: self._check_sweep(V, r))
        add("regress", ["regress", "--baseline", str(Path(__file__).parent / "anchors_1d.csv")],
            lambda r: [] if "regression passed" in r.stdout else ["regress did not pass"])
        rng.shuffle(ops)
        return ops

    def _check_minimize(self, p: ProblemParams, r: CliRun) -> list:
        rows = csv_rows(r.stdout)
        if len(rows) != 1:
            return [f"minimize printed {len(rows)} rows"]
        row = {key: float(value) for key, value in rows[0].items()}
        return (minimum_problems(f"cli minimize s={p.s!r}", p, row["t_star"], row["lambda1"],
                                 row["F_second"], row["lambda_lb"], self.n)
                + self.anchors.check("minimize", row["lambda1"], s=p.s, n=self.n, V=p.V))

    def _check_solve1d(self, V: float, csv_path: Path, svg_path: Path, r: CliRun) -> list:
        prefix = "lambda1 = "
        lines = [line for line in r.stderr.splitlines() if line.startswith(prefix)]
        if len(lines) != 1:
            return ["solve1d printed no eigenvalue"]
        value = float(lines[0][len(prefix):].split()[0])
        p = ProblemParams(d1=1, d2=1, s=1.0, V=V)
        problems = rel_problem("solve1d lambda1", value,
                               grushin.minimizer.lambda1_product(p, 1.645, self.n_solve1d), 1e-10)
        with open(csv_path) as handle:
            lines_written = sum(1 for _ in handle)
        if lines_written != self.n_solve1d + 2:
            problems.append(f"solve1d wrote {lines_written} CSV lines")
        if not svg_path.read_text().startswith("<svg"):
            problems.append("solve1d wrote no SVG")
        return problems

    def _check_sweep(self, V: float, r: CliRun) -> list:
        rows = csv_rows(r.stdout)
        problems = [] if len(rows) == 30 else [f"sweep printed {len(rows)} rows, expected 30"]
        for row in rows:
            s, t, value = float(row["s"]), float(row["t"]), float(row["G_s"])
            p = ProblemParams(d1=1, d2=1, s=s, V=V)
            problems += rel_problem(f"sweep G_s at s={s}, t={t}", value,
                                    grushin.minimizer.lambda1_product(p, t, self.n), 1e-12)
            problems += self.anchors.check("gs", value, s=s, n=self.n, V=V, t=t)
        return problems


def make(name: str, root: Path, scratch: Path, tiny: bool):
    anchors = Anchors(root / "baselines" / "anchors.csv")
    if name == Split1D.name:
        return Split1D(anchors, tiny)
    if name == Planar2D.name:
        return Planar2D(anchors, tiny)
    return Cli(anchors, tiny, root, scratch)
