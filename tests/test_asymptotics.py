"""Limit curves, envelopes, and convergence reports.

The zero-exponent closed forms are checked against a golden-section search
on the curve itself (independent oracle), the infinite-exponent curve
against the Bessel constant, and the finite-exponent objective is
sandwiched between its two envelopes on a parameter grid.
"""

import itertools
import math
import re

import pytest

from grushin import asymptotics
from grushin.asymptotics import (
    REPORT_HEADERS,
    LimitKind,
    convergence_report,
    large_s_limit,
    limit_profile,
    lower_envelope,
    max_deviation_per_s,
    small_s_argmin,
    small_s_limit,
    small_s_min_value,
    upper_envelope,
)
from grushin.errors import InvalidProblem
from grushin.minimizer import ProblemParams, ball_constants, lambda1_product
from grushin.radial import ball_volume_constant, mu1_ball
from grushin.tables import SweepTable
from oracles import J01_SQUARED, golden_minimize

PI2_4 = math.pi**2 / 4.0


def _grid(lo: float, hi: float, count: int) -> tuple[float, ...]:
    step = (hi - lo) / (count - 1)
    return tuple(lo + k * step for k in range(count))


# ------------------------------------------------- zero-exponent limit


def test_small_s_argmin_against_golden_section_oracle():
    for d1, d2, vol in [(1, 1, 1.0), (2, 1, 1.0), (1, 2, 3.0)]:
        p = ProblemParams(d1=d1, d2=d2, s=1.0, V=vol)
        oracle = golden_minimize(lambda t: small_s_limit(p, t), 0.05, 20.0)
        assert abs(oracle - small_s_argmin(p)) < 1e-6
        # the curve is flat at its minimum, so the oracle's t pins the value
        assert abs(small_s_min_value(p) - small_s_limit(p, oracle)) < 1e-10


def test_small_s_min_value_matches_the_closed_form():
    # min_t mu_b1 t^(-2/d1) + mu_b2 (t/V)^(2/d2), by calculus
    for d1, d2, vol in itertools.product((1, 2, 3, 8), (1, 2, 3), (1e-3, 1.0, 7.5)):
        p = ProblemParams(d1, d2, 1.0, vol)
        c = ball_constants(d1, d2)
        d = d1 + d2
        ratio = (d1 * c.mu1_b2) / (d2 * c.mu1_b1)
        expected = vol ** (-2.0 / d) * (d / d1) * c.mu1_b1 * ratio ** (d2 / d)
        assert math.isclose(small_s_min_value(p), expected, rel_tol=1e-14)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("vol", [1e-200, 1e200])
def test_small_s_min_value_at_extreme_volumes(d, vol):
    # d1 = d2 = d: the minimum is 2 mu_b1 V^(-1/d) at t = V^(1/2).  Powering
    # t and V apart underflowed V^(-2) to 0 at V = 1e200 (half the value)
    # and overflowed it at V = 1e-200, an error naming t = 1e-100
    expected = 2.0 * ball_constants(d, d).mu1_b1 * vol ** (-1.0 / d)
    assert math.isclose(small_s_min_value(ProblemParams(d, d, 1.0, vol)), expected, rel_tol=1e-14)


def test_small_s_limit_where_t_over_v_overflows():
    # t/V = 1e310 is past the float range, but at d2 = 3 its power is not
    p = ProblemParams(1, 3, 1.0, 1e-300)
    c = ball_constants(1, 3)
    log_ratio = math.log(1e10) - math.log(1e-300)
    expected = 1e-20 * c.mu1_b1 + math.exp(log_ratio * 2.0 / 3.0) * c.mu1_b2
    assert math.isclose(small_s_limit(p, 1e10), expected, rel_tol=1e-12)


def test_small_s_square_case_value():
    # d1=d2=V=1: the curve is pi^2 (1/t^2 + t^2), minimized at t=1 with 2pi^2
    p = ProblemParams(1, 1, 1.0)
    assert abs(small_s_argmin(p) - 1.0) < 1e-7
    assert abs(small_s_min_value(p) - 2.0 * math.pi**2) / (2.0 * math.pi**2) < 1e-7
    assert abs(small_s_limit(p, 1.0) - 2.0 * math.pi**2) / (2.0 * math.pi**2) < 1e-7


# --------------------------------------------- infinite-exponent limit


def test_large_s_limit_branches_and_continuity():
    mu1 = mu1_ball(1, 1.0)
    # below the unit-ball volume the curve follows mu1 * t^(-2)
    assert abs(large_s_limit(1, 1.0) - mu1) < 1e-12
    # past it the curve is flat at mu1 / 4 = pi^2/4
    assert abs(large_s_limit(1, 3.0) - large_s_limit(1, 4.0)) < 1e-15
    assert abs(large_s_limit(1, 3.0) - PI2_4) / PI2_4 < 1e-6
    gap = large_s_limit(1, 2.0 - 1e-12) - large_s_limit(1, 2.0 + 1e-12)
    assert abs(gap) < 1e-9


def test_large_s_limit_planar_value_is_bessel_constant():
    # d1=2 at t = pi (the unit-disk volume): mu1(B(0,1)) = j01^2
    assert abs(large_s_limit(2, math.pi) - J01_SQUARED) / J01_SQUARED < 1e-5


# ------------------------------------------------------------ envelopes


@pytest.mark.parametrize("d1,d2,s", [(1, 1, 0.5), (1, 2, 1.0), (2, 1, 2.0)])
def test_objective_sandwiched_between_envelopes(d1, d2, s):
    p = ProblemParams(d1=d1, d2=d2, s=s)
    for t in (0.5, 1.0, 2.0, 3.0):
        g = lambda1_product(p, t, 1024)
        assert g <= upper_envelope(p, t, 1024) * (1.0 + 1e-9)
        assert g >= lower_envelope(p, t, 1024) * (1.0 - 1e-6)


def test_lower_envelope_tight_at_large_exponent():
    # at s=150 the whole-space bound is essentially attained
    p = ProblemParams(1, 1, 150.0)
    g = lambda1_product(p, 3.0, 2048)
    lo = lower_envelope(p, 3.0, 2048)
    assert 0.0 <= (g - lo) / g < 1e-3


def test_upper_envelope_overflow_returns_inf():
    # either term may overflow: the coupling term at large s and t, and
    # t^(-2/d1), a float ** that raises OverflowError, at tiny t
    assert math.isinf(upper_envelope(ProblemParams(1, 1, 600.0), 4.0, 512))
    assert math.isinf(upper_envelope(ProblemParams(1, 1, 0.5), 1e-200))


def test_envelopes_name_s_where_the_split_exponent_overflows():
    # 2s/d1 = inf made the coupling term inf - inf = nan at t = 1 and 2.
    # Below t = 1 the coupling underflowed to 0 and the envelopes answered;
    # the exponent range now ends where 2s/d1 is a float, at every t
    p = ProblemParams(1, 1, 1e308)
    for envelope in (upper_envelope, lower_envelope):
        for t in (0.5, 1.0, 2.0):
            with pytest.raises(InvalidProblem, match=r"at s=1e\+308"):
                envelope(p, t)


def test_lower_envelope_overflow_names_t():
    # math.exp raises an untyped OverflowError there; the bound names t
    with pytest.raises(InvalidProblem, match=r"lower envelope overflows a float at t=1e\+300"):
        lower_envelope(ProblemParams(1, 1, 0.5), 1e300)


# ---------------------------------------------------- convergence report


def test_report_zero_ladder_monotone():
    p = ProblemParams(1, 1, 1.0)
    table = convergence_report(p, (0.1, 0.01, 0.001), _grid(0.25, 4.0, 10), n=1024)
    assert table.headers == REPORT_HEADERS
    assert len(table.rows) == 30
    devs = max_deviation_per_s(table)
    assert [s for s, _ in devs] == [0.1, 0.01, 0.001]
    assert devs[0][1] > devs[1][1] > devs[2][1]


def test_report_infinity_ladder_monotone_past_tau():
    p = ProblemParams(1, 1, 1.0)
    table = convergence_report(p, (10.0, 50.0, 150.0), _grid(2.2, 4.0, 6), n=1024)
    devs = max_deviation_per_s(table)
    assert devs[0][1] > devs[1][1] > devs[2][1]


def test_honest_plateau_gap_at_s150():
    # converged fact: at s=150, t=3 the objective sits 0.09 below pi^2/4;
    # the plateau is approached like log(s)/s, far slower than the naive
    # 1/s guess
    p = ProblemParams(1, 1, 150.0)
    g = lambda1_product(p, 3.0)
    dev = PI2_4 - g
    assert 0.08 < dev < 0.105


def test_report_reference_column_matches_limit_functions():
    p = ProblemParams(1, 2, 1.0)
    t_grid = (0.5, 1.5)
    table = convergence_report(p, (0.5, 0.25), t_grid, n=512)
    for row in table.rows:
        s, t, value, ref, dev = row
        assert ref == small_s_limit(p, t)
        assert dev == abs(value - ref)
        assert value == lambda1_product(ProblemParams(1, 2, s), t, 512)


def test_report_kind_inference_and_override():
    p = ProblemParams(1, 1, 1.0)
    t_grid = (2.5,)
    descending = convergence_report(p, (1.0, 0.5), t_grid, n=512)
    assert descending.rows[0][3] == small_s_limit(p, 2.5)
    ascending = convergence_report(p, (0.5, 1.0), t_grid, n=512)
    assert ascending.rows[0][3] == large_s_limit(1, 2.5)
    forced = convergence_report(p, (1.0, 0.5), t_grid, kind=LimitKind.S_TO_INFINITY, n=512)
    assert forced.rows[0][3] == large_s_limit(1, 2.5)


def test_report_validation():
    p = ProblemParams(1, 1, 1.0)
    with pytest.raises(InvalidProblem):
        convergence_report(p, (), (1.0,), n=512)
    with pytest.raises(InvalidProblem):
        convergence_report(p, (1.0,), (), n=512)
    with pytest.raises(InvalidProblem):
        convergence_report(p, (0.5, 2.0, 1.0), (1.0,), n=512)


def test_report_checks_every_point_before_the_first_solve(monkeypatch):
    # s = 0 is rejected when its ProblemParams is built, before the s = 1
    # points ahead of it in the ladder are solved
    calls = []
    solve = asymptotics.lambda1_product
    monkeypatch.setattr(asymptotics, "lambda1_product", lambda *a: calls.append(a) or solve(*a))
    with pytest.raises(InvalidProblem, match="s must be finite and > 0"):
        convergence_report(ProblemParams(1, 1, 1.0), (1.0, 0.0), (1.0, 2.0), n=256)
    assert calls == []


def test_report_accepts_parallel_map():
    p = ProblemParams(1, 1, 1.0)
    args = ((0.5, 1.0), (1.0, 2.0), 512)
    serial = convergence_report(p, args[0], args[1], n=args[2])
    fanned = convergence_report(p, args[0], args[1], n=args[2], map_fn=map)
    assert serial.rows == fanned.rows


# --------------------------------------------------------- limit profile


def test_limit_profile_values_match_pointwise_functions():
    p = ProblemParams(1, 1, 1.0)
    t_grid = (0.5, 1.0, 2.0, 3.0)
    zero = limit_profile(p, LimitKind.S_TO_ZERO, t_grid)
    assert zero == tuple(small_s_limit(p, t) for t in t_grid)
    inf_profile = limit_profile(p, LimitKind.S_TO_INFINITY, t_grid)
    assert inf_profile == tuple(large_s_limit(1, t) for t in t_grid)


@pytest.mark.parametrize("kind", list(LimitKind))
@pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf])
def test_limit_profile_rejects_a_non_positive_t(kind, t):
    with pytest.raises(InvalidProblem, match="t must be finite"):
        limit_profile(ProblemParams(1, 1, 1.0), kind, (1.0, t))


@pytest.mark.parametrize("kind, t", [
    (LimitKind.S_TO_ZERO, 1e-300),  # t^(-2/d1) raises OverflowError
    (LimitKind.S_TO_ZERO, 5e199),  # t^(2/d2) raises OverflowError
    (LimitKind.S_TO_INFINITY, 1e-300),
    (LimitKind.S_TO_INFINITY, 1e-154),  # t^(-2) is finite, the product inf
])
def test_limit_profile_names_the_t_that_overflows(kind, t):
    with pytest.raises(InvalidProblem, match=re.escape(f"overflows a float at t={t}")):
        limit_profile(ProblemParams(1, 1, 1.0), kind, (1.0, t))


@pytest.mark.parametrize("d1", [1, 2, 3])
def test_large_s_limit_is_flat_past_the_unit_ball_volume(d1):
    tau = ball_volume_constant(d1)
    p = ProblemParams(d1, 1, 1.0)
    values = limit_profile(p, LimitKind.S_TO_INFINITY, (tau, 1.5 * tau, 10.0 * tau, 1e300))
    assert values == (values[0],) * 4
    below = limit_profile(p, LimitKind.S_TO_INFINITY, (0.5 * tau, 0.9 * tau, tau))
    assert below[0] > below[1] > below[2] == values[0]


def test_max_deviation_per_s_handmade_table():
    table = SweepTable(
        headers=REPORT_HEADERS,
        rows=(
            (2.0, 1.0, 5.0, 4.0, 1.0),
            (2.0, 2.0, 5.0, 4.5, 0.5),
            (1.0, 1.0, 5.0, 4.9, 0.1),
            (1.0, 2.0, 5.0, 4.7, 0.3),
        ),
    )
    assert max_deviation_per_s(table) == [(2.0, 1.0), (1.0, 0.3)]
