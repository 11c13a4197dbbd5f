"""Optimal-split solver checks.

The strongest checks here are exact: the scalar substitution, the
total-volume rescaling law, and the recomputation of the reported
eigenvalue from scratch at the reported split all hold to rounding,
independent of discretization error.
"""

import itertools
import math

import numpy as np
import pytest

import grushin.minimizer as minimizer
import grushin.radial as radial
from grushin.asymptotics import lower_envelope
from grushin.errors import BracketFailure, InvalidProblem, NonConvergence
from grushin.minimizer import (
    MinimizeResult,
    ProblemParams,
    ball1_radius,
    ball_constants,
    coupling_of_split,
    lambda1_product,
    lower_bounds,
    minimize,
    whole_space_energy,
)
from oracles import scaled_energy, scaled_energy_derivative

PI2_4 = math.pi**2 / 4.0
# |a1'| and |a1|, the first zeros of Airy's Ai' and Ai: the whole-space
# energies at s = 1/2 for d1 = 1 (v = Ai(|x| - E), even) and d1 = 3 (r v(r) =
# Ai(r - E), zero at r = 0)
AIRY_A1_PRIME = 1.0187929716474715
AIRY_A1 = 2.3381074104597674
TWO_PI_SQUARED = 2.0 * math.pi**2


# ------------------------------------------------------- exact identities


def test_eigenvalue_recomputable_from_reported_split():
    # evaluating the product eigenvalue from scratch at t_star must
    # reproduce lambda1; this closes the loop sigma* -> t* -> lambda
    for d1, d2, s in [(1, 1, 1.0), (2, 1, 0.5), (1, 2, 2.0)]:
        r = minimize(ProblemParams(d1=d1, d2=d2, s=s), 1024)
        again = lambda1_product(ProblemParams(d1=d1, d2=d2, s=s), r.t_star, 1024)
        assert abs(again - r.lambda1) / r.lambda1 < 1e-8


def test_objective_substitution_identity():
    # lambda1 = K^a F(sigma*) with K the second-factor constant; exact
    p = ProblemParams(d1=1, d2=2, s=1.5)
    r = minimize(p, 1024)
    c = ball_constants(1, 2)
    a = p.d2 / (p.d1 + (1.0 + p.s) * p.d2)
    k = c.mu1_b2 * p.V ** (-2.0 / p.d2)
    assert abs(k**a * scaled_energy(p, r.sigma_star, 1024) - r.lambda1) / r.lambda1 < 1e-12


def test_total_volume_rescaling_law():
    # sigma* is volume-free; t* and lambda1 rescale by exact powers of V
    d1, d2, s = 2, 1, 0.75
    r1 = minimize(ProblemParams(d1, d2, s, 1.0), 1024)
    r3 = minimize(ProblemParams(d1, d2, s, 3.0), 1024)
    denom = d1 + (1.0 + s) * d2
    assert abs(r3.sigma_star - r1.sigma_star) / r1.sigma_star < 1e-9
    assert abs(r3.t_star - 3.0 ** (d1 / denom) * r1.t_star) / r1.t_star < 1e-9
    assert abs(r3.lambda1 - 3.0 ** (-2.0 / denom) * r1.lambda1) / r1.lambda1 < 1e-9


def test_split_coupling_roundtrip():
    p = ProblemParams(1, 1, 1.0)
    for t in (0.5, 1.0, 2.5):
        sigma = coupling_of_split(p, t)
        assert abs(math.exp(minimizer._log_split(p, math.log(sigma))) - t) / t < 1e-12
        assert abs(math.log(sigma) - minimizer._log_coupling(p, math.log(t))) < 1e-12


def test_coupling_overflow_guarded():
    p = ProblemParams(1, 1, 150.0)
    # the log form stays finite where the plain value would overflow
    assert minimizer._log_coupling(p, math.log(10.0)) > 690.0
    with pytest.raises(InvalidProblem):
        coupling_of_split(p, 10.0)


# --------------------------------------------------------------- anchors


def test_known_optimal_values():
    r_half = minimize(ProblemParams(1, 1, 0.5))
    assert abs(r_half.lambda1 - 8.88) / 8.88 < 0.02
    r_one = minimize(ProblemParams(1, 1, 1.0))
    assert abs(r_one.lambda1 - 5.78) / 5.78 < 0.02
    assert abs(r_one.t_star - 1.6450) < 5e-3


def test_volume_bound_closed_form_s1():
    # at d1=d2=V=1, s=1 the volume bound reduces to 2^(1/6)
    r = minimize(ProblemParams(1, 1, 1.0), 1024)
    assert abs(r.vol_lower_bound - 2.0 ** (1.0 / 6.0)) < 1e-12
    assert r.t_star >= r.vol_lower_bound


def test_small_exponent_approaches_square_value():
    r = minimize(ProblemParams(1, 1, 1e-3), 2048)
    assert abs(r.lambda1 - TWO_PI_SQUARED) / TWO_PI_SQUARED < 5e-3
    assert abs(r.t_star - 1.0) < 5e-3


def test_large_exponent_honest_value():
    # the optimal eigenvalue at s=150 sits ~4.2% BELOW the s->infinity
    # plateau pi^2/4: the limit is approached only logarithmically in s,
    # so the plateau is not a 2%-accurate proxy at s=150
    r = minimize(ProblemParams(1, 1, 150.0))
    assert abs(r.lambda1 - 2.362991) < 5e-4
    assert r.lambda1 < PI2_4
    assert (PI2_4 - r.lambda1) / PI2_4 > 0.02


# --------------------------------------------- optimality and convexity


def test_minimality_against_random_splits():
    p = ProblemParams(1, 1, 1.0)
    r = minimize(p, 1024)
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = float(rng.uniform(r.vol_lower_bound / 2.0, 10.0 * r.vol_lower_bound))
        assert r.lambda1 <= lambda1_product(p, t, 1024) + 1e-8


def test_derivative_single_sign_change():
    p = ProblemParams(2, 1, 1.0)
    r = minimize(p, 1024)
    grid = np.geomspace(r.sigma_star / 100.0, r.sigma_star * 100.0, 40)
    signs = [scaled_energy_derivative(p, float(sig), 1024) > 0.0 for sig in grid]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert changes == 1
    assert not signs[0] and signs[-1]


def test_derivative_matches_finite_differences():
    p = ProblemParams(1, 2, 1.0)
    for sigma in (0.5, 5.0, 50.0):
        h = 1e-4 * sigma
        fd = (scaled_energy(p, sigma + h, 1024) - scaled_energy(p, sigma - h, 1024)) / (2.0 * h)
        an = scaled_energy_derivative(p, sigma, 1024)
        assert abs(an - fd) <= 1e-5 * max(abs(fd), 1e-3)


def test_exact_curvature_matches_finite_differences():
    # F_second is exact at sigma*; compare a Richardson combination of
    # central differences of the Hellmann-Feynman F'
    for d1, d2, s in [(1, 1, 0.5), (2, 3, 1.0), (1, 1, 150.0)]:
        p = ProblemParams(d1, d2, s)
        r = minimize(p, 1024)

        def central(h):
            plus = scaled_energy_derivative(p, r.sigma_star * (1.0 + h), 1024)
            minus = scaled_energy_derivative(p, r.sigma_star * (1.0 - h), 1024)
            return (plus - minus) / (2.0 * h * r.sigma_star)

        richardson = (4.0 * central(5e-4) - central(1e-3)) / 3.0
        assert abs(r.F_second - richardson) / richardson < 1e-5


@pytest.mark.parametrize("s", [0.001, 0.5, 1.0, 3.0, 150.0])
def test_minimize_solve_budget(monkeypatch, s):
    # safeguarded Newton: at most 20 radial solves per call, counted with
    # the ball-constant and whole-space caches already warm
    p = ProblemParams(1, 1, s)
    lower_bounds(p)
    solve = minimizer.solve_radial
    couplings = []
    monkeypatch.setattr(minimizer, "solve_radial",
                        lambda prob, start=None: couplings.append(prob.mu) or solve(prob, start))
    minimize(p)
    assert 0 < len(couplings) <= 20


def test_warm_starts_save_inverse_iteration_steps(monkeypatch):
    # each Newton iterate starts from the last one's ground state, and each
    # truncation round from the last round's; started from the cos profile
    # every time, minimize at s = 1 took 54 steps (37 warm) and the s = 0.001
    # rounds 6, 7, 7, 8 (6, 6, 4, 3 warm)
    steps = []
    ground_state = radial._ground_state

    def counting(t_diag, t_off, x):
        out = ground_state(t_diag, t_off, x)
        steps.append(out[2])
        return out

    monkeypatch.setattr(radial, "_ground_state", counting)
    minimizer._whole_space_cached.cache_clear()
    minimize(ProblemParams(1, 1, 1.0), 4096)
    assert sum(steps) <= 42
    steps.clear()
    whole_space_energy(1, 1e-3)
    assert len(steps) == 4
    assert sum(steps[1:]) <= 16


def test_objective_divergence_at_both_ends():
    p = ProblemParams(1, 1, 1.0)
    r = minimize(p, 1024)
    f_star = scaled_energy(p, r.sigma_star, 1024)
    assert scaled_energy(p, r.sigma_star * 1e-6, 1024) > f_star
    assert scaled_energy(p, r.sigma_star * 1e6, 1024) > f_star


def test_curvature_and_residual_certificates():
    from grushin.radial import RadialProblem, gradient_integral, solve_radial

    for d1, d2, s in [(1, 1, 0.5), (2, 3, 1.0)]:
        p = ProblemParams(d1, d2, s)
        r = minimize(p, 1024)
        assert r.F_second > 0.0
        prob = RadialProblem(d1=d1, s=s, mu=r.sigma_star, R=ball1_radius(d1), n=1024)
        grad = gradient_integral(solve_radial(prob), prob)
        assert abs(r.crit_residual) / grad < 1e-4


# ---------------------------------------------------------- lower bounds


def test_bounds_dominate_at_moderate_exponents():
    for d1, d2 in [(1, 1), (2, 1), (1, 2), (2, 3)]:
        for s in (0.5, 1.0, 2.0):
            r = minimize(ProblemParams(d1, d2, s), 1024)
            assert r.t_star >= r.vol_lower_bound * (1.0 - 1e-9)
            assert r.lambda1 >= r.lambda_lower_bound * (1.0 - 1e-9)


def test_volume_bound_sharp_at_small_exponent():
    r = minimize(ProblemParams(1, 1, 1e-3), 2048)
    assert (r.t_star - r.vol_lower_bound) / r.t_star < 0.01


def test_volume_bound_sharp_at_large_exponent():
    # as s grows the bound tends to the d1=1 unit-ball volume 2
    vol_lb, lam_lb = lower_bounds(ProblemParams(1, 1, 1e3), 2048)
    assert abs(vol_lb - 2.0) / 2.0 < 0.01
    assert lam_lb > 0.0


def test_lower_bounds_are_the_envelope_at_the_floor_split():
    # vol_lb is the split at minimize's floor coupling and lambda_lb the lower
    # envelope there; at s = 1e3 and 1e6 that coupling overflows a float (from
    # s ~ 515 at d1 = d2 = 1) while its split does not
    for d1, d2, s, V in itertools.product((1, 2, 3, 8), (1, 2, 3),
                                          (1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 150.0, 1e3, 1e6),
                                          (1e-3, 1.0, 7.5)):
        p = ProblemParams(d1, d2, s, V)
        vol_lb, lam_lb = lower_bounds(p, 512)
        assert math.isclose(lam_lb, lower_envelope(p, vol_lb, 512), rel_tol=1e-14)
        floor = minimizer._log_sigma_floor(p, ball_constants(d1, d2))
        assert math.isclose(minimizer._log_coupling(p, math.log(vol_lb)), floor, rel_tol=1e-14)


def test_minimize_overflow_guard_at_extreme_exponent():
    # the search needs the coupling as a float; past the float range the
    # error names s and points to lower_bounds, which solve no problem at a
    # coupling (a whole-space solve and log-space maps) and answer at that p
    for s in (250.0, 1e3):
        p = ProblemParams(1, 1, s)
        with pytest.raises(InvalidProblem, match=f"s={s}; lower_bounds still"):
            minimize(p, 512)
        vol_lb, lam_lb = lower_bounds(p, 512)
        assert 0.0 < vol_lb < math.inf and 0.0 < lam_lb < math.inf


def test_lower_bounds_past_the_float_range_are_invalid_problems():
    # at V = 5e-324 the eigenvalue bound is ~e^743, and its exp raised a bare
    # OverflowError ("math range error")
    with pytest.raises(InvalidProblem, match=r"eigenvalue bound overflows a float at s=0\.01"):
        lower_bounds(ProblemParams(1, 1, 0.01, 5e-324), 256)


# ----------------------------------------------------------- whole space


def test_whole_space_oscillator_anchors():
    for d1 in (1, 2, 3):
        e = whole_space_energy(d1, 1.0, 2048)
        assert abs(e - float(d1)) / d1 < 1e-4


def test_whole_space_airy_closed_forms(monkeypatch):
    nodes = []
    solve = minimizer.solve_radial
    monkeypatch.setattr(minimizer, "solve_radial",
                        lambda prob, start=None: nodes.append(prob.n) or solve(prob, start))
    assert abs(whole_space_energy(1, 0.5, 4096) - AIRY_A1_PRIME) < 1e-6
    nodes.clear()
    assert abs(whole_space_energy(3, 0.5, 4096) - AIRY_A1) < 1e-7
    # the first radius comes from the trial-ball bound minimized over the
    # ball's radius: two rounds, at radii 16.2 and 24.3, 20,755 nodes
    assert sum(nodes) <= 25_000


class _FirstRound(Exception):
    pass


@pytest.mark.parametrize("d1", [1, 2, 3])
@pytest.mark.parametrize("s", [2.0, 10.0, 50.0, 150.0])
def test_whole_space_first_radius_floor_binds(monkeypatch, d1, s):
    # at large s the turning point lies below 2, so the radius floor of 8
    # sets the first round and the rounds are those of the crude bound
    def first_round(prob, start=None):
        raise _FirstRound(prob)

    monkeypatch.setattr(minimizer, "solve_radial", first_round)
    with pytest.raises(_FirstRound) as round_one:
        whole_space_energy(d1, s, 4096)
    prob = round_one.value.args[0]
    assert (prob.R, prob.n) == (8.0, 4096)


def test_whole_space_slow_flattening_is_real():
    # at s=50 the whole-space energy is still ~15% below pi^2/4; the gap
    # decays like log(s)/s, so no moderate s reaches a 2% band
    e = whole_space_energy(1, 50.0, 2048)
    assert abs(e - 2.1051) < 2e-3
    assert (PI2_4 - e) / PI2_4 > 0.10


def test_whole_space_validation_and_budget(monkeypatch):
    with pytest.raises(InvalidProblem):
        whole_space_energy(1, 0.0)
    # a base grid of no cells is rejected, also through both lower bounds
    p = ProblemParams(1, 1, 1.0)
    for call in (lambda: whole_space_energy(1, 1.0, 0), lambda: lower_bounds(p, 0),
                 lambda: lower_envelope(p, 1.0, 0)):
        with pytest.raises(InvalidProblem):
            call()
    # a grid size that is not an integer is rejected as given, not truncated
    for call in (lambda n: lower_bounds(p, n), lambda n: lower_envelope(p, 1.0, n)):
        for n in (4096.7, 0.5):
            with pytest.raises(InvalidProblem, match=f"n must be a positive integer, got {n}"):
                call(n)
    # the node budget is the truncation loop's one limit: at n_base = 2048
    # it admits the 2048-node first round but not the 3072-node second
    monkeypatch.setattr(minimizer, "_WHOLE_SPACE_NODES", 2500)
    with pytest.raises(NonConvergence, match="grid budget"):
        whole_space_energy(1, 1.0, 2048)


# ------------------------------------------------------- failure handling


def _assert_bracket_failure(monkeypatch, g):
    # one span rule ends the search up (G < 0) and down (G > 0) alike, and
    # every solve counts against the one budget
    solves = []
    monkeypatch.setattr(minimizer, "_critical_terms",
                        lambda *a: solves.append(a) or (g, 1.0, None, None))
    with pytest.raises(BracketFailure, match="no sign change of the split objective derivative"):
        minimize(ProblemParams(1, 1, 1.0), 256)
    assert 0 < len(solves) <= minimizer._MAX_SOLVES


def test_bracket_failure_when_derivative_never_positive(monkeypatch):
    _assert_bracket_failure(monkeypatch, -1.0)


def test_bracket_failure_when_derivative_never_negative(monkeypatch):
    _assert_bracket_failure(monkeypatch, 1.0)


def test_minimize_walks_down_from_a_floor_above_the_root(monkeypatch):
    # the floor is strict in theory; one that rounding put above the root is
    # walked down until G < 0, and the search converges inside that bracket
    p = ProblemParams(1, 1, 1.0)
    sigma_star = minimize(p, 1024).sigma_star
    monkeypatch.setattr(minimizer, "_log_sigma_floor", lambda p, c: math.log(sigma_star) + 3.0)
    solves = []
    terms = minimizer._critical_terms
    monkeypatch.setattr(minimizer, "_critical_terms", lambda *a: solves.append(a) or terms(*a))
    assert abs(minimize(p, 1024).sigma_star / sigma_star - 1.0) < 1e-9
    assert len(solves) <= minimizer._MAX_SOLVES


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d1=0, d2=1, s=1.0),
        dict(d1=1, d2=0, s=1.0),
        dict(d1=1, d2=1, s=0.0),
        dict(d1=1, d2=1, s=math.nan),
        dict(d1=1, d2=1, s=1.0, V=0.0),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(InvalidProblem):
        ProblemParams(**kwargs)


def test_integral_float_counts_solve_as_ints():
    # a float n used to reach np.linspace as a count and raise TypeError
    p = ProblemParams(d1=1.0, d2=2.0, s=1.0)
    assert type(p.d1) is int and type(p.d2) is int
    ref = ProblemParams(d1=1, d2=2, s=1.0)
    assert minimize(p, 1024.0) == minimize(ref, 1024)
    assert lambda1_product(p, 1.6, 4096.0) == lambda1_product(ref, 1.6, 4096)


def test_ball_constants_cached():
    assert ball_constants(1, 2) is ball_constants(1, 2)


def test_csv_row_matches_headers():
    r = minimize(ProblemParams(1, 1, 1.0), 512)
    row = r.csv_row()
    assert len(row) == len(MinimizeResult.CSV_HEADERS)
    assert row[6] == r.lambda1
