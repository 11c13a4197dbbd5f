"""Optimal volume split for the Grushin eigenvalue on cartesian products.

For the operator  L = Laplace_x1 + |x1|^(2s) Laplace_x2  on a product domain
Omega1 x Omega2 in R^d1 x R^d2 with Dirichlet conditions, separation of
variables reduces the first eigenvalue to a one dimensional problem: if mu is
the first Dirichlet-Laplace eigenvalue of Omega2, then

    lambda1(Omega1 x Omega2) = E1(mu, Omega1),

the ground energy of -Laplace + mu |x|^(2s) on Omega1.  Balls are optimal for
both factors at fixed factor volumes, so the shape optimization at fixed total
volume V collapses to a scalar problem over the first-factor volume t: with
B1 the unit-volume ball in R^d1 and B2 the unit-volume ball in R^d2,

    lambda1(t) = t^(-2/d1) * E1(sigma(t), B1),
    sigma(t)   = mu1(B2) * V^(-2/d2) * t^(2/d1 + 2/d2 + 2s/d1),

where mu1(B2) is the Dirichlet eigenvalue of B2 and the powers of t come from
the scaling of the two factors.  Substituting sigma as the variable turns the
objective into

    F(sigma) = sigma^(-a) * E1(sigma, B1),    a = d2 / (d1 + (1+s) d2),

whose derivative has exactly one sign change: the split is unique.  In
u = log(sigma), F' has the sign of G(u) = sigma E1' - a E1, with slope
dG/du = sigma ((1-a) E1' + sigma E1''), where the primes are derivatives in
the coupling.  Every radial solution gives E1, E1' and the exact E1'' of the
discrete eigenvalue, so this module finds the root of G by safeguarded
Newton iteration, one solve per step, and reports the exact curvature F'' at
the root.  It also bounds both from below: the split volume by the split at
the floor coupling where that search starts, and the eigenvalue by the
whole-space lower envelope there, through the ground energy E1(1, R^d1) of
the whole-space confinement problem obtained by adaptive domain truncation.
Maps between t and sigma run in log space, finite where sigma overflows.
One function builds and solves the problem on B1; the eigenvalue at a split,
the CLI's profile there and each Newton iterate all come from it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass
from functools import lru_cache

from .errors import BracketFailure, InvalidProblem, NonConvergence
from .radial import (
    DEFAULT_N,
    RadialProblem,
    _finite,
    _positive,
    _positive_integer,
    ball_volume_constant,
    gradient_integral,
    mu1_ball,
    solve_radial,
)

__all__ = ["BallConstants", "MinimizeResult", "ProblemParams", "ball1_radius", "ball_constants",
           "coupling_of_split", "lambda1_product", "lower_bounds", "minimize",
           "whole_space_energy"]

#: Geometric factor of each step the search takes before a sign change of
#: F' is bracketed: the shortest step up, and every step down.
_BRACKET_FACTOR = 4.0

#: The search gives up once its coupling leaves [floor / span, floor * span],
#: floor the provable lower bound it starts from, in either direction.
_BRACKET_SPAN = 1e12

#: The Newton iteration stops once its step in log(sigma) is this small.
_LOG_SIGMA_TOL = 1e-11

#: A Newton step this short that does not halve the previous one is rounding
#: noise: at n = 4096 E1' carries ~6e-11 relative noise, which is ~1e-10 in
#: log(sigma) at s = 1 and 3 and ~1e-11 at s = 150.
_NOISE_STEP = 1e-8

#: Largest log(sigma) the search may reach: sigma^2 E1'' is O(E1), so E1''
#: underflows beyond it.
_LOG_SIGMA_MAX = 0.5 * math.log(sys.float_info.max)

#: Radial solves the critical-point search may spend before giving up.
_MAX_SOLVES = 100

#: `whole_space_energy` stops once one 1.5-fold growth of the truncation radius
#: moves the energy by less than this relative amount, and gives up once its grid
#: would need more than this many nodes (by round 38, as n_base 1.5^38 > 4e6).
_WHOLE_SPACE_TOL = 1e-8
_WHOLE_SPACE_NODES = 4_000_000


@dataclass(frozen=True)
class ProblemParams:
    """Parameters of the product-domain optimization.

    Attributes:
        d1: dimension of the degenerate factor (carries the |x|^(2s) weight).
        d2: dimension of the second factor.
        s: Grushin exponent, s > 0.
        V: total volume of the product domain, V > 0.
    """

    d1: int
    d2: int
    s: float
    V: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "d1", _positive_integer("d1", self.d1))
        object.__setattr__(self, "d2", _positive_integer("d2", self.d2))
        _positive("s", self.s)
        _positive("V", self.V)


@dataclass(frozen=True)
class BallConstants:
    """Unit-ball constants entering the scalar reduction.

    tau_d1 is the unit d1-ball's volume; mu1_b1/mu1_b2 are the first
    Dirichlet-Laplace eigenvalues of the unit-volume balls in R^d1 and R^d2.
    """

    tau_d1: float
    mu1_b1: float
    mu1_b2: float


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of the optimal-split computation; serializes to one CSV row."""

    d1: int
    d2: int
    s: float
    V: float
    sigma_star: float
    t_star: float
    lambda1: float
    vol_lower_bound: float
    lambda_lower_bound: float
    F_second: float
    crit_residual: float

    CSV_HEADERS = (
        "d1",
        "d2",
        "s",
        "V",
        "sigma_star",
        "t_star",
        "lambda1",
        "vol_lb",
        "lambda_lb",
        "F_second",
        "crit_residual",
    )

    def csv_row(self) -> tuple:
        """The fields in declaration order, which is CSV_HEADERS' order."""
        return astuple(self)


@lru_cache(maxsize=None)
def _ball_constants_cached(d1: int, d2: int) -> BallConstants:
    return BallConstants(
        tau_d1=ball_volume_constant(d1),
        mu1_b1=mu1_ball(d1, 1.0),
        mu1_b2=mu1_ball(d2, 1.0),
    )


def ball_constants(d1: int, d2: int, n: int = DEFAULT_N) -> BallConstants:
    """Unit-ball constants for the pair of factor dimensions (cached, exact).

    n is unused: the constants are closed forms.  It stays only because
    bench/workloads.py passes a grid size, and goes when that file next changes.
    """
    return _ball_constants_cached(_positive_integer("d1", d1), _positive_integer("d2", d2))


def _split_exponent(p: ProblemParams) -> float:
    """Exponent of t in the coupling substitution sigma(t); InvalidProblem naming s on overflow."""
    return _finite("the split exponent 2/d1 + 2/d2 + 2s/d1",
                   lambda: 2.0 / p.d1 + 2.0 / p.d2 + 2.0 * p.s / p.d1, s=p.s)


def _objective_exponent(p: ProblemParams) -> float:
    """a = d2 / (d1 + (1+s) d2), the scaling power in F(sigma)."""
    return p.d2 / (p.d1 + (1.0 + p.s) * p.d2)


def ball1_radius(d1: int) -> float:
    """Radius of the unit-volume ball in R^d1."""
    return ball_volume_constant(d1) ** (-1.0 / _positive_integer("d1", d1))


def _log_coupling(p: ProblemParams, log_t: float) -> float:
    """log sigma at log t: the one split -> coupling map, in log space."""
    c = ball_constants(p.d1, p.d2)
    return math.log(c.mu1_b2) - (2.0 / p.d2) * math.log(p.V) + _split_exponent(p) * log_t


def _log_split(p: ProblemParams, log_sigma: float) -> float:
    """log t at log sigma: the inverse of _log_coupling, finite where sigma is not."""
    c = ball_constants(p.d1, p.d2)
    return (log_sigma - math.log(c.mu1_b2) + (2.0 / p.d2) * math.log(p.V)) / _split_exponent(p)


def coupling_of_split(p: ProblemParams, t: float) -> float:
    """sigma(t) = mu1(B2) V^(-2/d2) t^(2/d1 + 2/d2 + 2s/d1)."""
    _positive("t", t)
    log_sigma = _log_coupling(p, math.log(t))
    if log_sigma > 690.0:
        raise InvalidProblem(f"coupling overflows for t={t}, s={p.s}")
    return math.exp(log_sigma)


def _ball1_solution(p: ProblemParams, sigma: float, n: int, start=None) -> tuple:
    """(problem, solution) at coupling sigma on the unit-volume ball B1; built nowhere else."""
    prob = RadialProblem(d1=p.d1, s=p.s, mu=sigma, R=ball1_radius(p.d1), n=n)
    return prob, solve_radial(prob, start)


def _split_eigenvalue(p: ProblemParams, t: float, energy: float) -> float:
    """lambda1 = t^(-2/d1) E1 at split t, from the ground energy E1 on the unit-volume ball."""
    return _finite("lambda1", lambda: t ** (-2.0 / p.d1) * energy, t=t)


def _split_solution(p: ProblemParams, t: float, n: int) -> tuple:
    """(lambda1, problem, solution) at split t: the problem on B1 at coupling sigma(t)."""
    prob, sol = _ball1_solution(p, coupling_of_split(p, t), n)
    return _split_eigenvalue(p, t, sol.energy), prob, sol


def lambda1_product(p: ProblemParams, t: float, n: int = DEFAULT_N) -> float:
    """First eigenvalue of the optimal product domain with first-factor volume t.

    Both factors are balls; t is the volume of the degenerate factor and
    V/t the volume of the second factor.
    """
    return _split_solution(p, t, n)[0]


def _critical_terms(p: ProblemParams, log_sigma: float, n: int, warm=None) -> tuple:
    """(G, dG/du, problem, solution) at u = log_sigma, from one radial solve.

    G = sigma E1' - a E1 has the sign of F'(sigma); dG/du = sigma ((1-a) E1'
    + sigma E1'').  warm, the solution of an earlier iterate on the same grid,
    gives the solve its start; its profile is overwritten.  Raises
    InvalidProblem naming s where sigma^2 overflows a float; `lower_bounds`
    solve no problem at a coupling, so they still answer there.
    """
    if log_sigma > _LOG_SIGMA_MAX:
        raise InvalidProblem(
            f"critical coupling overflows the float range at s={p.s}; "
            "lower_bounds still bound the split and the eigenvalue"
        )
    sigma = math.exp(log_sigma)
    a = _objective_exponent(p)
    prob, sol = _ball1_solution(p, sigma, n, None if warm is None else warm.v)
    g = sigma * sol.hf_derivative - a * sol.energy
    slope = sigma * ((1.0 - a) * sol.hf_derivative + sigma * sol.second_derivative)
    return g, slope, prob, sol


def _log_sigma_floor(p: ProblemParams, c: BallConstants) -> float:
    """log of the coupling below which F' is provably negative."""
    return (
        (2.0 * p.s / p.d1) * math.log(c.tau_d1)
        + math.log(p.d2 / (p.d1 + p.s * p.d2))
        + math.log(c.mu1_b1)
    )


def whole_space_energy(d1: int, s: float, n_base: int = DEFAULT_N) -> float:
    """Ground energy E1(1, R^d1) of -Laplace + |x|^(2s) on the whole space.

    Computed by Dirichlet truncation to balls of growing radius (the
    truncated energies decrease monotonically to the limit).  The first
    radius is four times the turning point E^(1/(2s)) of the trial-ball bound
    E <= (1+s) (j^2/s)^(s/(1+s)), j^2 the unit ball's Dirichlet eigenvalue,
    kept within [8, 64].  The grid spacing is held fixed while the radius
    grows by factors of 1.5, so the change between rounds tracks the
    truncation error alone; iteration stops once that change drops below
    _WHOLE_SPACE_TOL.  The first round starts
    inverse iteration from solve_radial's cos profile; each later round
    starts from the previous round's ground state, copied node for node (the
    spacing is 8 / n_base up to the rounding of n) with zeros beyond the old
    radius.
    """
    import numpy as np

    _positive("s", s)
    _positive_integer("n_base", n_base)
    # the ball B(0, a) as a trial domain gives E <= j^2 / a^2 + a^(2s), j^2 =
    # mu1(B(0, 1)); at its best a, E <= (1+s) (j^2/s)^(s/(1+s)), whose
    # turning point E^(1/(2s)) is the growth below, formed in log space
    log_j2 = math.log(mu1_ball(d1, ball_volume_constant(d1)))
    log_turn = math.log1p(s) / (2.0 * s) + (log_j2 - math.log(s)) / (2.0 + 2.0 * s)
    growth = math.exp(min(log_turn, math.log(16.0)))
    radius = max(8.0, min(4.0 * growth, 64.0))
    h0 = 8.0 / n_base
    prev = profile = None
    while (n := int(round(radius / h0))) <= _WHOLE_SPACE_NODES:
        start = None
        if profile is not None:
            # the last round's ground state node for node, zeros beyond its
            # radius; it is dropped before the solve, so one profile is alive
            start = np.zeros(n + 1)
            start[: profile.size] = profile
            profile = None
        sol = solve_radial(RadialProblem(d1=d1, s=s, mu=1.0, R=radius, n=n), start)
        energy = sol.energy
        if prev is not None and abs(prev - energy) < _WHOLE_SPACE_TOL * max(1.0, abs(energy)):
            return energy
        prev, profile = energy, sol.v
        del sol
        radius *= 1.5
    raise NonConvergence(f"whole-space truncation for d1={d1}, s={s} exceeded the grid budget")


@lru_cache(maxsize=None)
def _whole_space_cached(d1: int, s: float, n_base: int) -> float:
    return whole_space_energy(d1, s, n_base)


def _log_lower_envelope(p: ProblemParams, log_t: float, n: int) -> float:
    """log of the whole-space lower bound t^(-2/d1) sigma(t)^(1/(1+s)) E1(1, R^d1) at log t."""
    log_sigma = _log_coupling(p, log_t)
    e_inf = _whole_space_cached(int(p.d1), float(p.s), _positive_integer("n", n))
    return log_sigma / (1.0 + p.s) + math.log(e_inf) - (2.0 / p.d1) * log_t


def lower_bounds(p: ProblemParams, n: int = DEFAULT_N) -> tuple[float, float]:
    """Lower bounds (optimal split volume, optimal eigenvalue).

    The volume bound is the split at the floor coupling where `minimize`
    starts, below which F' is provably negative; the eigenvalue bound is the
    whole-space lower envelope (`asymptotics.lower_envelope`) at that split.
    Raises InvalidProblem naming s and V if either bound overflows a float.
    """
    log_t = _log_split(p, _log_sigma_floor(p, ball_constants(p.d1, p.d2)))
    vol_lb = _finite("the split volume bound", lambda: math.exp(log_t), s=p.s, V=p.V)
    log_lam = _log_lower_envelope(p, log_t, n)
    return vol_lb, _finite("the eigenvalue bound", lambda: math.exp(log_lam), s=p.s, V=p.V)


def minimize(p: ProblemParams, n: int = DEFAULT_N) -> MinimizeResult:
    """Locate the unique optimal volume split and the minimal eigenvalue.

    Finds the single sign change of F' by safeguarded Newton iteration on
    G(u) = sigma E1' - a E1 in u = log(sigma), one radial solve per step,
    starting at the provable lower floor of the critical coupling.  The
    first solve starts inverse iteration from solve_radial's cos profile,
    and each later one, on the same grid, from the ground state of the
    iterate before it.  One bracket [lo, hi] starts there as (-inf, +inf);
    each solve moves lo (G < 0) or hi (G > 0).  While hi is +inf, each step
    is the Newton step in sigma (exact where E1 is affine in sigma), but at
    least the x4
    expansion; while lo is -inf (G > 0 at the floor, by rounding), each is a
    x4 step down.  Inside the bracket, a Newton step in u that leaves it is
    replaced by the midpoint.  The search stops when the Newton step is at
    most 1e-11 in u, or when a step of at most 1e-8 no longer halves the one
    before, which is the rounding noise of G; it reports the last iterate.
    There F'' = sigma^(-a-2) (sigma^2 E1'' - 2 a sigma E1' + a (a+1) E1) is
    exact, from the same solve.

    Raises BracketFailure if the search leaves [floor / 1e12, floor * 1e12]
    without a sign change of F', InvalidProblem if the critical coupling
    leaves the float range (sigma^2 > float max) or lambda1 overflows a
    float, and NonConvergence after 100 radial solves.
    """
    log_floor = _log_sigma_floor(p, ball_constants(p.d1, p.d2))
    max_step = math.log(_BRACKET_FACTOR)
    u, lo, hi = log_floor, -math.inf, math.inf
    last_step = math.inf
    prob = sol = None
    for _ in range(_MAX_SOLVES):
        if abs(u - log_floor) > math.log(_BRACKET_SPAN):
            floor = math.exp(log_floor)
            raise BracketFailure("no sign change of the split objective derivative in "
                                 f"[{floor / _BRACKET_SPAN:.3e}, {floor * _BRACKET_SPAN:.3e}]")
        g, slope, prob, sol = _critical_terms(p, u, n, sol)
        if g < 0.0:
            lo = u
        elif g > 0.0:
            hi = u
        step = -g / slope if slope > 0.0 else math.nan
        if (hi - lo <= _LOG_SIGMA_TOL or abs(step) <= _LOG_SIGMA_TOL
                or _NOISE_STEP >= abs(step) > 0.5 * abs(last_step)):
            break
        last_step = math.inf
        if hi == math.inf:
            # Newton in sigma, exact where E1 is affine in sigma; at least x4
            u += max(math.log1p(step), max_step) if step > 0.0 else max_step
        elif lo == -math.inf:
            # the floor is strict in theory; absorb rounding by walking down
            u -= max_step
        elif lo < u + step < hi:
            u += step
            last_step = step
        else:
            u = 0.5 * (lo + hi)
    else:
        raise NonConvergence(
            f"critical-point search did not settle in {_MAX_SOLVES} radial solves"
        )
    sigma_star = math.exp(u)
    log_t = _log_split(p, math.log(sigma_star))
    t_star = _finite("the optimal split", lambda: math.exp(log_t), sigma=sigma_star)
    lam = _split_eigenvalue(p, t_star, sol.energy)
    a = _objective_exponent(p)
    # sigma^(-a-2) (sigma^2 E1'' - 2 a sigma E1' + a (a+1) E1), without sigma^2
    f_second = math.exp(-a * u) * (
        sol.second_derivative
        + a * ((a + 1.0) * sol.energy / sigma_star - 2.0 * sol.hf_derivative) / sigma_star
    )
    # the last iterate's problem: its coupling is sigma_star
    grad = gradient_integral(sol, prob)
    crit = grad - ((p.d1 + p.s * p.d2) / p.d2) * sigma_star * sol.hf_derivative

    vol_lb, lam_lb = lower_bounds(p, n)
    return MinimizeResult(
        d1=p.d1,
        d2=p.d2,
        s=p.s,
        V=p.V,
        sigma_star=sigma_star,
        t_star=t_star,
        lambda1=lam,
        vol_lower_bound=vol_lb,
        lambda_lower_bound=lam_lb,
        F_second=f_second,
        crit_residual=crit,
    )
