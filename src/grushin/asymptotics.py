"""Closed-form limit curves of the split objective and convergence checks.

Write lambda1(t) for the best product domain with first-factor volume t (see
`minimizer.lambda1_product`).  Both endpoint regimes of the exponent s have
closed forms.  As s tends to zero the operator becomes the plain Laplacian
and the curve tends to

    t^(-2/d1) mu1(B1) + t^(2/d2) V^(-2/d2) mu1(B2),

a strictly convex function with a closed-form argmin.  As s tends to
infinity the potential wall confines the first factor to the unit ball
B(0,1), so the curve degenerates to

    mu1(B1) t^(-2/d1)              for t <  tau(d1),
    mu1(B1) tau(d1)^(-2/d1)        for t >= tau(d1),

where tau(d) is the volume of the unit d-ball: growing the first factor
beyond volume tau(d1) buys nothing in the limit.  The whole-space ground
energy of -Laplace + |x|^(2s) ties the two regimes together and furnishes
envelope bounds that hold at every finite s:

    value <= t^(-2/d1) (mu1(B1) + sigma(t) tau(d1)^(-2s/d1)),
    value >= t^(-2/d1) sigma(t)^(1/(1+s)) E1(1, R^d1).

`convergence_report` tabulates the deviation of the finite-s curve from the
selected limit curve over a grid of t, one row per (s, t) pair.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import InvalidProblem
from .minimizer import (
    ProblemParams,
    _log_coupling,
    _log_lower_envelope,
    ball_constants,
    lambda1_product,
)
from .radial import (
    DEFAULT_N,
    _finite,
    _positive,
    ball_volume_constant,
    mu1_ball,
)
from .tables import SweepTable

__all__ = [
    "LimitKind",
    "convergence_report",
    "large_s_limit",
    "limit_profile",
    "lower_envelope",
    "max_deviation_per_s",
    "small_s_argmin",
    "small_s_limit",
    "small_s_min_value",
    "upper_envelope",
]

REPORT_HEADERS = ("s", "t", "G_s", "G_limit", "abs_dev")


class LimitKind(Enum):
    """Which endpoint of the exponent range a limit curve belongs to."""

    S_TO_ZERO = "zero"
    S_TO_INFINITY = "inf"


def small_s_limit(p: ProblemParams, t: float) -> float:
    """Limit curve as s -> 0 at split t; t/V is one power base, finite at the argmin."""
    _positive("t", t)
    c = ball_constants(p.d1, p.d2)
    a, ratio = 2.0 / p.d2, t / p.V
    return _finite(
        "the s -> 0 limit",
        lambda: t ** (-2.0 / p.d1) * c.mu1_b1
        + (ratio ** a if ratio < math.inf else t ** a * p.V ** -a) * c.mu1_b2,
        t=t,
    )


def small_s_argmin(p: ProblemParams) -> float:
    """Closed-form minimizer of the zero-exponent limit curve."""
    c = ball_constants(p.d1, p.d2)
    d = p.d1 + p.d2
    ratio = (p.d2 * c.mu1_b1) / (p.d1 * c.mu1_b2)
    return ratio ** (p.d1 * p.d2 / (2.0 * d)) * p.V ** (p.d1 / d)


def small_s_min_value(p: ProblemParams) -> float:
    """Minimum of the zero-exponent limit curve: small_s_limit at small_s_argmin."""
    return small_s_limit(p, small_s_argmin(p))


def large_s_limit(d1: int, t: float) -> float:
    """Limit curve as the exponent tends to infinity, evaluated at split t.

    Below the unit-ball volume tau(d1) the first factor itself is the
    constraint; beyond it the value saturates at the first Dirichlet
    eigenvalue of B(0,1).
    """
    _positive("t", t)
    tau = ball_volume_constant(d1)
    mu1 = mu1_ball(d1, 1.0)
    return _finite("the s -> infinity limit", lambda: mu1 * min(t, tau) ** (-2.0 / d1), t=t)


def upper_envelope(p: ProblemParams, t: float, n: int = DEFAULT_N) -> float:
    """Test-function upper bound for the finite-exponent curve at split t; inf on overflow.

    Where the split exponent 2s/d1 itself overflows (s from ~9e307), it raises
    InvalidProblem naming s at every t.  n is unused: the bound is closed form.  It stays
    only because bench/workloads.py passes a grid size, and goes when that
    file next changes.
    """
    _positive("t", t)
    c = ball_constants(p.d1, p.d2)
    log_term = (
        _log_coupling(p, math.log(t))
        - (2.0 * p.s / p.d1) * math.log(c.tau_d1)
        - (2.0 / p.d1) * math.log(t)
    )
    try:
        return t ** (-2.0 / p.d1) * c.mu1_b1 + math.exp(log_term)
    except OverflowError:
        return math.inf


def lower_envelope(p: ProblemParams, t: float, n: int = DEFAULT_N) -> float:
    """Whole-space lower bound for the finite-exponent curve at split t.

    Raises InvalidProblem naming t if the bound overflows a float, s if 2s/d1 does.
    """
    _positive("t", t)
    log_value = _log_lower_envelope(p, math.log(t), n)
    return _finite("the lower envelope", lambda: math.exp(log_value), t=t)


def limit_profile(p: ProblemParams, kind: LimitKind, t_grid) -> tuple[float, ...]:
    """The selected limit curve's values on a grid of split volumes."""
    if kind is LimitKind.S_TO_ZERO:
        return tuple(small_s_limit(p, float(t)) for t in t_grid)
    return tuple(large_s_limit(p.d1, float(t)) for t in t_grid)


def _infer_kind(s_list: tuple[float, ...]) -> LimitKind:
    if len(s_list) < 2 or s_list[-1] >= s_list[0]:
        return LimitKind.S_TO_INFINITY
    return LimitKind.S_TO_ZERO


def _report_point(args: tuple) -> float:
    d1, d2, s, V, t, n = args
    return lambda1_product(ProblemParams(d1=d1, d2=d2, s=s, V=V), t, n)


def convergence_report(
    p: ProblemParams,
    s_list,
    t_grid,
    kind: LimitKind | None = None,
    n: int = DEFAULT_N,
    map_fn=map,
) -> SweepTable:
    """Deviation of the finite-exponent curve from a limit curve.

    One row per (s, t) pair with columns (s, t, G_s, G_limit, abs_dev).
    The s ladder must be monotone; its direction selects the limit curve
    when kind is not given (decreasing ladders check the zero-exponent
    curve, increasing ladders the infinite-exponent one).  map_fn lets a
    caller fan the independent grid points out to a worker pool; row order
    follows input order either way.
    """
    s_list = tuple(float(s) for s in s_list)
    t_grid = tuple(float(t) for t in t_grid)
    if not s_list or not t_grid:
        raise InvalidProblem("s_list and t_grid must be non-empty")
    increasing = all(a <= b for a, b in zip(s_list, s_list[1:]))
    decreasing = all(a >= b for a, b in zip(s_list, s_list[1:]))
    if not (increasing or decreasing):
        raise InvalidProblem("s_list must be monotone")
    if kind is None:
        kind = _infer_kind(s_list)

    points = [
        (p.d1, p.d2, s, p.V, t, n) for s in s_list for t in t_grid
    ]
    values = map_fn(_report_point, points)
    refs = limit_profile(p, kind, t_grid) * len(s_list)
    rows = tuple(
        (s, t, value, ref, abs(value - ref))
        for (_, _, s, _, t, _), value, ref in zip(points, values, refs)
    )
    return SweepTable(headers=REPORT_HEADERS, rows=rows)


def max_deviation_per_s(table: SweepTable) -> list[tuple[float, float]]:
    """Collapse a convergence report to (s, sup_t abs_dev), in ladder order."""
    sup: dict[float, float] = {}
    for row in table.rows:
        s, dev = float(row[0]), float(row[4])
        sup[s] = max(sup[s], dev) if s in sup else dev
    return list(sup.items())
