"""Radial eigensolver checks.

Oracle self-checks come first; everything later leans on them.  The anchors
are closed-form eigenvalues (interval, disk, 3-ball, harmonic oscillator),
the property section uses hypothesis to sweep the parameter box, and the
final section confirms the production eigensolve against a dense
brute-force decomposition of the identical pencil (LAPACK bisection where n
is too large for it), checks its certified shift, and breaks its LAPACK
factor and solve to see it raise instead of loop.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from grushin import radial
from grushin.asymptotics import large_s_limit
from grushin.errors import InvalidProblem, NonConvergence
from grushin.minimizer import ball1_radius, ball_constants, whole_space_energy
from grushin.radial import (
    DEFAULT_N,
    RadialProblem,
    ball_volume_constant,
    gradient_integral,
    identity_residuals,
    mu1_ball,
    second_derivative_sign,
    solve_radial,
)
from oracles import (
    J01,
    J01_SQUARED,
    assembled_pencil,
    bessel_j0,
    dense_lowest_eigenvalue,
    first_bessel_zero,
    tridiagonal_reference_energy,
)

PI2_4 = math.pi**2 / 4.0


# --------------------------------------------------------------- oracles


def test_bessel_oracle_self_check():
    # the series evaluates J0 and the bisection pins its first root
    assert abs(bessel_j0(0.0) - 1.0) < 1e-15
    assert abs(bessel_j0(J01)) < 1e-14
    assert abs(J01 - 2.404825557695773) < 1e-12


def test_dense_oracle_matches_known_interval_value():
    # -v'' on (0,1), even at 0, zero at 1: smallest eigenvalue pi^2/4
    p = RadialProblem(d1=1, s=1.0, mu=0.0, R=1.0, n=64)
    dense = dense_lowest_eigenvalue(p)
    assert abs(dense - PI2_4) < 1e-3


# --------------------------------------------------------------- anchors


def test_interval_ground_energy():
    e = solve_radial(RadialProblem(d1=1, s=0.7, mu=0.0, R=1.0, n=2048)).energy
    assert abs(e - PI2_4) < 1e-4


def test_ball_constants_match_closed_forms():
    assert abs(mu1_ball(1, 2.0) - PI2_4) / PI2_4 < 1e-15
    assert abs(mu1_ball(2, math.pi) - J01_SQUARED) / J01_SQUARED < 1e-14
    assert abs(mu1_ball(3, 4.0 * math.pi / 3.0) - math.pi**2) / math.pi**2 < 1e-14


@pytest.mark.parametrize("d", range(1, 129))
def test_mu1_ball_zero_matches_scipy_oracle(d):
    # on the unit ball mu1 is the square of the first zero of J_(d/2-1)
    zero = first_bessel_zero(d)
    assert abs(math.sqrt(mu1_ball(d, ball_volume_constant(d))) - zero) / zero <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_discretization_converges_to_exact_ball_value(d):
    # the second-order FD eigenvalue of the unit ball approaches j^2 at 4x
    # per grid doubling
    exact = mu1_ball(d, ball_volume_constant(d))
    errors = [solve_radial(RadialProblem(d1=d, s=1.0, mu=0.0, R=1.0, n=n)).energy - exact
              for n in (256, 512, 1024, 2048)]
    for coarse, fine in zip(errors, errors[1:]):
        assert abs(coarse / fine - 4.0) < 0.01
    assert abs(errors[-1]) / exact < 1e-6


def test_ball_volume_constant():
    assert abs(ball_volume_constant(1) - 2.0) < 1e-14
    assert abs(ball_volume_constant(2) - math.pi) < 1e-14
    assert abs(ball_volume_constant(3) - 4.0 * math.pi / 3.0) < 1e-14


@pytest.mark.parametrize("d1", [1, 3])
def test_oscillator_ground_energy(d1):
    # -Laplace + |x|^2 on R^d has ground energy d; R=40 truncation is exact
    # to far below the tolerance
    e = solve_radial(RadialProblem(d1=d1, s=1.0, mu=1.0, R=40.0, n=16384)).energy
    assert abs(e - float(d1)) < 1e-3


def test_stiff_oscillator_scaling():
    # for s=1 the ground energy scales as sqrt(mu); the R=1 wall sits far
    # beyond the turning point at mu=1e4 so truncation is negligible
    e = solve_radial(RadialProblem(d1=1, s=1.0, mu=1e4, R=1.0, n=4096)).energy
    assert abs(e - 100.0) / 100.0 < 1e-5


def test_vanishing_exponent_acts_as_constant_shift():
    for s, mu, radius, n, rel_tol in (
        # r^(2s) -> 1 as s -> 0 away from the origin, so mu becomes an
        # additive shift; the origin node samples the discontinuity, an O(h)
        # effect
        (1e-12, 7.0, 1.0, 4096, 5e-3 / (PI2_4 + 7.0)),
        # a flat potential above POTENTIAL_CAP is a shift too, never a wall
        (0.0, 1e15, 0.5, 1024, 1e-12),
        # T rounds to mu I here, so the residual is 0 from the first step and
        # never stagnates: only its stop at eps times its rounding level ends
        # the solve
        (0.0, 1e50, 1.0, 64, 1e-15),
        # squared entries of T near 1e200 would overflow the residual norms
        (0.0, 1e200, 1.0, 1024, 1e-15),
    ):
        exact = (0.5 * math.pi / radius) ** 2 + mu
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = solve_radial(RadialProblem(d1=1, s=s, mu=mu, R=radius, n=n)).energy
        assert abs(e - exact) / exact < rel_tol, (s, mu, e)


def test_boundary_slope_interval():
    # normalized ground state sqrt(2) cos(pi r / 2) has slope -sqrt(2) pi/2
    sol = solve_radial(RadialProblem(d1=1, s=1.0, mu=0.0, R=1.0, n=4096))
    assert abs(sol.boundary_slope + math.sqrt(2.0) * math.pi / 2.0) < 1e-5


def test_exact_grid_scaling_law():
    # E(mu, beta R) = beta^-2 E(mu beta^(2s+2), R) holds exactly for the
    # discrete pencil at equal n, up to rounding
    d1, s, mu, r0, beta, n = 2, 0.7, 3.0, 1.3, 1.7, 512
    left = solve_radial(RadialProblem(d1, s, mu, beta * r0, n)).energy
    right = solve_radial(RadialProblem(d1, s, mu * beta ** (2 * s + 2), r0, n)).energy
    assert abs(left - right / beta**2) / left < 1e-9


# ------------------------------------------------------------ properties

_box = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.sampled_from([128, 256]),
)


@settings(max_examples=20, deadline=None)
@given(_box)
def test_solution_invariants(box):
    d1, s, mu, radius, n = box
    p = RadialProblem(d1=d1, s=s, mu=mu, R=radius, n=n)
    sol = solve_radial(p)
    assert sol.energy > 0.0
    assert sol.v[-1] == 0.0
    assert np.all(sol.v >= 0.0)
    # normalization: trapezoid integral of v^2 r^(d1-1) equals one
    r = p.grid()
    w = np.ones(n + 1)
    w[0] = 0.5
    w[-1] = 0.5
    mass = p.h * float(np.sum(w * r ** (d1 - 1) * sol.v**2))
    assert abs(mass - 1.0) < 1e-8
    assert sol.hf_derivative >= 0.0


@settings(max_examples=20, deadline=None)
@given(_box)
def test_energy_monotone_in_coupling(box):
    d1, s, mu, radius, n = box
    step = 1.0 + 0.5 * mu
    lo = solve_radial(RadialProblem(d1, s, mu, radius, n)).energy
    hi = solve_radial(RadialProblem(d1, s, mu + step, radius, n)).energy
    assert hi > lo


def test_energy_monotone_in_radius():
    values = [
        solve_radial(RadialProblem(1, 1.0, 5.0, radius, 1024)).energy
        for radius in (0.8, 1.0, 1.3)
    ]
    assert values[0] > values[1] > values[2]


# ------------------------------------------------- derivative and identities


@pytest.mark.parametrize(
    "d1,s,mu",
    [(1, 0.5, 1.0), (2, 1.0, 10.0), (3, 2.0, 0.5)],
)
def test_hf_derivative_matches_finite_differences(d1, s, mu):
    n = 2048
    sol = solve_radial(RadialProblem(d1, s, mu, 1.0, n))
    h = 1e-3 * mu
    e_plus = solve_radial(RadialProblem(d1, s, mu + h, 1.0, n)).energy
    e_minus = solve_radial(RadialProblem(d1, s, mu - h, 1.0, n)).energy
    fd = (e_plus - e_minus) / (2.0 * h)
    assert abs(sol.hf_derivative - fd) / abs(fd) < 1e-6


@pytest.mark.parametrize("d1", [1, 2, 3])
@pytest.mark.parametrize("s,mu", [(0.5, 20.0), (1.0, 50.0), (150.0, 1e5)])
def test_second_derivative_matches_richardson_differences(d1, s, mu):
    # the exact d2E/dmu2 against a Richardson combination of central
    # differences of the Hellmann-Feynman derivative (error O(h^4));
    # mu = 1e5 at s = 150 is the size of the optimal coupling on R = 1
    n = 1024
    sol = solve_radial(RadialProblem(d1, s, mu, 1.0, n))

    def central(h):
        plus = solve_radial(RadialProblem(d1, s, mu + h, 1.0, n)).hf_derivative
        minus = solve_radial(RadialProblem(d1, s, mu - h, 1.0, n)).hf_derivative
        return (plus - minus) / (2.0 * h)

    h = 1e-2 * mu
    richardson = (4.0 * central(h / 2.0) - central(h)) / 3.0
    assert sol.second_derivative < 0.0
    assert abs(sol.second_derivative - richardson) / abs(richardson) < 1e-6


def test_identity_residuals_refine_second_order():
    for d1, s, mu, radius in [(1, 0.5, 2.0, 1.0), (2, 1.0, 3.0, 1.0), (3, 1.5, 4.0, 1.0)]:
        ladder = []
        for n in (512, 1024, 2048, 4096):
            p = RadialProblem(d1, s, mu, radius, n)
            ladder.append(identity_residuals(solve_radial(p), p))
        for k in range(3):
            seq = [row[k] for row in ladder]
            for coarse, fine in zip(seq, seq[1:]):
                # second-order scheme: each doubling shrinks residuals ~4x
                assert fine < coarse / 1.8 or fine < 1e-12


def test_hf_derivative_matches_richardson_differences_on_a_fine_grid():
    # E' = x'Wx is only as accurate as the eigenvector x; a Richardson
    # combination of central differences of the energy (error O(h^4)) checks
    # it at n = 65536, where the residual floor is ~2e-7 E
    d1, s, mu, radius, n = 1, 1.0, 195.5, 0.5, 65536
    sol = solve_radial(RadialProblem(d1, s, mu, radius, n))

    def central(h):
        plus = solve_radial(RadialProblem(d1, s, mu + h, radius, n)).energy
        minus = solve_radial(RadialProblem(d1, s, mu - h, radius, n)).energy
        return (plus - minus) / (2.0 * h)

    h = 1e-2 * mu
    richardson = (4.0 * central(h / 2.0) - central(h)) / 3.0
    assert abs(sol.hf_derivative - richardson) / richardson < 1e-8


def test_gradient_integral_energy_split():
    # g + mu q = E is one of the residual identities; check it directly
    p = RadialProblem(1, 1.0, 2.0, 1.0, 2048)
    sol = solve_radial(p)
    g = gradient_integral(sol, p)
    assert abs(g + p.mu * sol.hf_derivative - sol.energy) < 1e-5


def test_second_derivative_overflow_is_quiet():
    # at mu = 0 nothing caps r^(2s), which reaches 1e290 on (0, 2) at
    # s = 1000: E' is still a float, E'' overflows, and neither warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_radial(RadialProblem(1, 1000.0, 0.0, 2.0, 256))
    assert math.isfinite(sol.energy) and math.isfinite(sol.hf_derivative)
    assert sol.second_derivative == -math.inf


def test_second_derivative_sign_nonnegative():
    for d1, s, mu in [(1, 0.5, 1.0), (2, 1.0, 5.0), (1, 2.0, 20.0)]:
        val = second_derivative_sign(RadialProblem(d1, s, mu, 1.0, 1024))
        assert val >= 0.0


def test_second_derivative_sign_validation():
    with pytest.raises(InvalidProblem):
        second_derivative_sign(RadialProblem(1, 1.0, 0.0, 1.0, 256))


# ------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d1=0, s=1.0, mu=1.0, R=1.0),
        dict(d1=1, s=-0.5, mu=1.0, R=1.0),
        dict(d1=1, s=1.0, mu=-1.0, R=1.0),
        dict(d1=1, s=1.0, mu=1.0, R=0.0),
        dict(d1=1, s=1.0, mu=1.0, R=1.0, n=8),
        dict(d1=1, s=math.inf, mu=1.0, R=1.0),
        dict(d1=math.nan, s=1.0, mu=1.0, R=1.0),
        dict(d1=1, s=1.0, mu=1.0, R=1.0, n=math.nan),
    ],
)
def test_invalid_problems_rejected(kwargs):
    with pytest.raises(InvalidProblem):
        RadialProblem(**kwargs)


def test_mu1_ball_rejects_bad_volume():
    with pytest.raises(InvalidProblem):
        mu1_ball(2, 0.0)
    with pytest.raises(InvalidProblem):
        mu1_ball(2, math.inf)


@pytest.mark.parametrize(
    "fn,args",
    [
        (mu1_ball, (0, 1.0)),
        (ball_constants, (0, 1)),
        (ball1_radius, (0,)),
        (large_s_limit, (0, 1.0)),
        (whole_space_energy, (0, 1.0)),
        (mu1_ball, (1.5, 1.0)),
        (ball_constants, (1.5, 2.5)),
        (large_s_limit, (1.5, 2.0)),
        (mu1_ball, (math.inf, 1.0)),
        (ball_constants, (1, math.nan)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_ball_constants_reject_bad_dimensions(fn, args):
    # a zero dimension used to divide by zero, a fractional dimension was
    # truncated to the integer below, and nan or inf failed to convert to an
    # integer
    with pytest.raises(InvalidProblem):
        fn(*args)


# ------------------------------------------------------- dense agreement


@pytest.mark.parametrize(
    "d1,s,mu,radius,n",
    [
        (1, 0.5, 3.0, 1.0, 48),
        (2, 2.0, 5.0, 1.0, 64),
        (3, 1.0, 0.0, 1.5, 32),
        # POTENTIAL_CAP rows put ||T|| near 1e14: a stop at eps ||T|| is early
        (1, 300.0, 1e200, 1.3, 64),
        # the start profile is the exact discrete eigenvector (residual 2e-14 E)
        (1, 0.5, 0.0, 0.5, 16),
        (5, 2.0, 100.0, 1.2, 64),
        (8, 1.0, 10.0, 1.0, 64),
        (8, 150.0, 1e96, 1.0, 128),
    ],
)
def test_matches_dense_eigendecomposition(d1, s, mu, radius, n):
    p = RadialProblem(d1, s, mu, radius, n)
    fast = solve_radial(p).energy
    dense = dense_lowest_eigenvalue(p)
    assert abs(fast - dense) / dense < 1e-10


@pytest.mark.parametrize(
    "d1,s,mu,radius,n",
    [
        (1, 300.0, 1e200, 1.3, 4096),
        (8, 150.0, 1e96, 1.0, 4096),
        (1, 1.0, 1.0, 1.0, 65536),
        # the grid the whole-space truncation loop reaches at s = 0.001
        (1, 0.001, 1.0, 216.0, 110592),
        (3, 1.0, 195.5, 0.5, 10**6),
    ],
)
def test_matches_tridiagonal_reference(d1, s, mu, radius, n):
    # grids too large for the dense oracle
    p = RadialProblem(d1, s, mu, radius, n)
    fast = solve_radial(p).energy
    reference = tridiagonal_reference_energy(p)
    assert abs(fast - reference) / reference < 1e-10


def _congruence_operator(p):
    """(t_diag, t_off, start) exactly as solve_radial builds them."""
    lo, a_diag, a_off, d_w, _, _ = assembled_pencil(p)
    sqrt_d = np.sqrt(d_w)
    start = np.cos((0.5 * math.pi / p.R) * p.grid()[lo : p.n]) * sqrt_d
    return a_diag / d_w, a_off / (sqrt_d[:-1] * sqrt_d[1:]), start


@pytest.mark.parametrize(
    "d1,s,mu,radius,n",
    [
        (1, 0.5, 0.0, 0.5, 16),
        (1, 300.0, 1e200, 1.3, 4096),
        (8, 150.0, 1e96, 1.0, 4096),
        # the residual floor is ~8e-5 E here, so a stop at a fixed relative
        # residual such as 1e-6 would never fire
        (1, 1.0, 1.0, 1.0, 10**6),
    ],
)
def test_ground_state_certificate(d1, s, mu, radius, n):
    p = RadialProblem(d1, s, mu, radius, n)
    t_diag, t_off, start = _congruence_operator(p)
    x, shift, _ = radial._ground_state(t_diag, t_off, start)
    tx = t_diag * x
    tx[:-1] += t_off * x[1:]
    tx[1:] += t_off * x[:-1]
    lam = float(x @ tx) / float(x @ x)
    res = float(np.linalg.norm(tx - lam * x)) / float(np.linalg.norm(x))
    # no eigenvalue at or below the shift, by LAPACK's own Sturm count
    below = eigvalsh_tridiagonal(t_diag, t_off, select="v", select_range=(-math.inf, shift))
    assert below.size == 0
    assert 0.0 < shift < lam
    # the shift is within a few residual norms of the Rayleigh quotient,
    # each counted with its rounding level eps || |T||x| + lam |x| ||
    ax = np.abs(x)
    level = (t_diag + lam) * ax
    level[:-1] -= t_off * ax[1:]
    level[1:] -= t_off * ax[:-1]
    rounding = np.finfo(float).eps * float(np.linalg.norm(level)) / float(np.linalg.norm(x))
    assert lam - shift <= 4.0 * (res + rounding)
    if n == 10**6:
        assert res > 1e-6 * lam
    assert shift < tridiagonal_reference_energy(p) <= lam + rounding


def test_factorization_that_always_fails_raises(monkeypatch):
    calls = []

    def failing(d, e, **kwargs):
        calls.append(1)
        return d, e, 1

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrf", failing)
    with pytest.raises(NonConvergence):
        solve_radial(RadialProblem(2, 1.0, 10.0, 1.0, 256))
    assert len(calls) <= radial._MAX_HALVINGS


def test_solve_that_returns_its_input_raises(monkeypatch):
    # the iterate never improves, so its residual never reaches the rounding
    # level and no stagnation may be taken for convergence
    calls = []

    def identity(d, e, b, **kwargs):
        calls.append(1)
        return b, 0

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", identity)
    with pytest.raises(NonConvergence):
        solve_radial(RadialProblem(2, 1.0, 10.0, 1.0, 256))
    assert len(calls) <= radial._MAX_STEPS
