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
the coupling.  Every radial solve returns E1, E1' and the exact E1'' of the
discrete eigenvalue, so this module finds the root of G by safeguarded
Newton iteration, one solve per step, and reports the exact curvature F'' at
the root.  It also computes closed-form lower bounds for the optimal split
volume and for the eigenvalue itself, the latter through the ground energy
E1(1, R^d1) of the whole-space confinement problem obtained by adaptive
domain truncation.
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
    RadialSolution,
    _positive_integer,
    ball_volume_constant,
    gradient_integral,
    mu1_ball,
    solve_radial,
)

#: Geometric expansion factor while hunting for a sign change of F': the
#: shortest step the search takes before the sign change is bracketed.
_BRACKET_FACTOR = 4.0

#: The bracket hunt gives up beyond this multiple of the starting coupling.
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

#: `whole_space_energy` stops once one growth of the truncation radius moves
#: the energy by less than this relative amount, and gives up after this
#: many rounds.
_WHOLE_SPACE_TOL = 1e-8
_WHOLE_SPACE_ROUNDS = 40


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
        _positive_integer("d1", self.d1)
        _positive_integer("d2", self.d2)
        if not (self.s > 0.0) or not math.isfinite(self.s):
            raise InvalidProblem(f"s must be finite and > 0, got {self.s}")
        if not (self.V > 0.0) or not math.isfinite(self.V):
            raise InvalidProblem(f"V must be finite and > 0, got {self.V}")


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
    """Exponent of t in the coupling substitution sigma(t)."""
    return 2.0 / p.d1 + 2.0 / p.d2 + 2.0 * p.s / p.d1


def _objective_exponent(p: ProblemParams) -> float:
    """a = d2 / (d1 + (1+s) d2), the scaling power in F(sigma)."""
    return p.d2 / (p.d1 + (1.0 + p.s) * p.d2)


def ball1_radius(d1: int) -> float:
    """Radius of the unit-volume ball in R^d1."""
    return ball_volume_constant(d1) ** (-1.0 / _positive_integer("d1", d1))


def log_coupling_of_split(p: ProblemParams, t: float) -> float:
    """log sigma(t); stays finite even where sigma overflows a float."""
    if not (t > 0.0) or not math.isfinite(t):
        raise InvalidProblem(f"t must be finite and > 0, got {t}")
    c = ball_constants(p.d1, p.d2)
    return (
        math.log(c.mu1_b2)
        - (2.0 / p.d2) * math.log(p.V)
        + _split_exponent(p) * math.log(t)
    )


def coupling_of_split(p: ProblemParams, t: float) -> float:
    """sigma(t) = mu1(B2) V^(-2/d2) t^(2/d1 + 2/d2 + 2s/d1)."""
    log_sigma = log_coupling_of_split(p, t)
    if log_sigma > 690.0:
        raise InvalidProblem(f"coupling overflows for t={t}, s={p.s}")
    return math.exp(log_sigma)


def split_of_coupling(p: ProblemParams, sigma: float) -> float:
    """Inverse of coupling_of_split."""
    c = ball_constants(p.d1, p.d2)
    log_t = (
        math.log(sigma) - math.log(c.mu1_b2) + (2.0 / p.d2) * math.log(p.V)
    ) / _split_exponent(p)
    return math.exp(log_t)


def _ball1_solution(p: ProblemParams, sigma: float, n: int) -> RadialSolution:
    prob = RadialProblem(d1=p.d1, s=p.s, mu=sigma, R=ball1_radius(p.d1), n=n)
    return solve_radial(prob)


def lambda1_product(p: ProblemParams, t: float, n: int = DEFAULT_N) -> float:
    """First eigenvalue of the optimal product domain with first-factor volume t.

    Both factors are balls; t is the volume of the degenerate factor and
    V/t the volume of the second factor.
    """
    sigma = coupling_of_split(p, t)
    e1 = _ball1_solution(p, sigma, n).energy
    return t ** (-2.0 / p.d1) * e1


def scaled_energy_derivative(p: ProblemParams, sigma: float, n: int = DEFAULT_N) -> float:
    """F'(sigma) = sigma^(-a-1) (sigma dE1/dsigma - a E1), by Hellmann-Feynman."""
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise InvalidProblem(f"sigma must be finite and > 0, got {sigma}")
    a = _objective_exponent(p)
    sol = _ball1_solution(p, sigma, n)
    return math.exp((-a - 1.0) * math.log(sigma)) * (
        sigma * sol.hf_derivative - a * sol.energy
    )


def _critical_terms(p: ProblemParams, log_sigma: float, n: int) -> tuple:
    """(G, dG/du, solution) at u = log_sigma, from one radial solve.

    G = sigma E1' - a E1 has the sign of F'(sigma); dG/du = sigma ((1-a) E1'
    + sigma E1'').
    """
    if log_sigma > _LOG_SIGMA_MAX:
        raise InvalidProblem(
            f"critical coupling overflows the float range at s={p.s}; "
            "the closed-form lower_bounds remain available"
        )
    sigma = math.exp(log_sigma)
    a = _objective_exponent(p)
    sol = _ball1_solution(p, sigma, n)
    g = sigma * sol.hf_derivative - a * sol.energy
    slope = sigma * ((1.0 - a) * sol.hf_derivative + sigma * sol.second_derivative)
    return g, slope, sol


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
    truncated energies decrease monotonically to the limit).  The grid
    spacing is held fixed while the radius grows by factors of 1.5, so the
    change between rounds tracks the truncation error alone; iteration stops
    once that change drops below _WHOLE_SPACE_TOL.
    """
    if not (s > 0.0) or not math.isfinite(s):
        raise InvalidProblem(f"s must be finite and > 0, got {s}")
    # crude upper estimate of the energy gives a turning-point radius guess
    e_guess = mu1_ball(d1, ball_volume_constant(d1)) + 1.0
    growth = math.exp(min(math.log(e_guess) / (2.0 * s), math.log(16.0)))
    radius = max(8.0, min(4.0 * growth, 64.0))
    h0 = 8.0 / n_base
    prev = None
    for _ in range(_WHOLE_SPACE_ROUNDS):
        n = int(round(radius / h0))
        if n > 4_000_000:
            raise NonConvergence(
                f"whole-space truncation for d1={d1}, s={s} exceeded the grid budget"
            )
        energy = solve_radial(RadialProblem(d1=d1, s=s, mu=1.0, R=radius, n=n)).energy
        if prev is not None and abs(prev - energy) < _WHOLE_SPACE_TOL * max(1.0, abs(energy)):
            return energy
        prev = energy
        radius *= 1.5
    raise NonConvergence(
        f"whole-space truncation for d1={d1}, s={s} did not settle in {_WHOLE_SPACE_ROUNDS} rounds"
    )


@lru_cache(maxsize=None)
def _whole_space_cached(d1: int, s: float, n_base: int) -> float:
    return whole_space_energy(d1, s, n_base)


def lower_bounds(p: ProblemParams, n: int = DEFAULT_N) -> tuple[float, float]:
    """Closed-form lower bounds (optimal split volume, optimal eigenvalue).

    The volume bound comes from the critical-coupling inequality; the
    eigenvalue bound additionally uses the whole-space ground energy
    E1(1, R^d1) and the scaling E1(sigma, R^d1) = sigma^(1/(1+s)) E1(1, R^d1).
    All powers are assembled in log space so extreme exponents stay finite.
    """
    c = ball_constants(p.d1, p.d2)
    denom = p.d1 + (1.0 + p.s) * p.d2
    log_core = _log_sigma_floor(p, c) - math.log(c.mu1_b2)
    log_vol = (log_core + (2.0 / p.d2) * math.log(p.V)) * p.d1 * p.d2 / (2.0 * denom)
    vol_lb = math.exp(log_vol)

    e_inf = _whole_space_cached(int(p.d1), float(p.s), int(n))
    log_lam = (
        math.log(c.mu1_b2) / (p.s + 1.0)
        - (2.0 / denom) * math.log(p.V)
        + math.log(e_inf)
        + log_core * p.d1 / ((p.s + 1.0) * denom)
    )
    return vol_lb, math.exp(log_lam)


def minimize(p: ProblemParams, n: int = DEFAULT_N) -> MinimizeResult:
    """Locate the unique optimal volume split and the minimal eigenvalue.

    Finds the single sign change of F' by safeguarded Newton iteration on
    G(u) = sigma E1' - a E1 in u = log(sigma), one radial solve per step,
    starting at the provable lower floor of the critical coupling.  Until a
    point with F' > 0 brackets the root, each step is the Newton step in
    sigma (exact where E1 is affine in sigma), but at least the x4 expansion.
    Inside the bracket [lo, hi], a Newton step in u that leaves it is
    replaced by the midpoint.  The search stops when the Newton step is at
    most 1e-11 in u, or when a step of at most 1e-8 no longer halves the one
    before, which is the rounding noise of G; it reports the last iterate.
    There F'' = sigma^(-a-2) (sigma^2 E1'' - 2 a sigma E1' + a (a+1) E1) is
    exact, from the same solve.

    Raises BracketFailure if F' shows no sign change within a factor 1e12 of
    the floor, InvalidProblem if the critical coupling leaves the float
    range (sigma^2 > float max), and NonConvergence after 100 steps.
    """
    c = ball_constants(p.d1, p.d2)
    log_floor = _log_sigma_floor(p, c)
    max_step = math.log(_BRACKET_FACTOR)
    u = log_floor
    g, slope, sol = _critical_terms(p, u, n)
    walked = 0
    while g >= 0.0:
        # the floor is strict in theory; absorb rounding by walking down
        u -= max_step
        walked += 1
        if walked > 20:
            raise BracketFailure(
                f"derivative is nonnegative down to sigma={math.exp(u):.3e}; no bracket"
            )
        g, slope, sol = _critical_terms(p, u, n)
    lo, hi = u, math.inf
    last_step = math.inf
    for _ in range(_MAX_SOLVES):
        step = -g / slope if slope > 0.0 else math.nan
        if abs(step) <= _LOG_SIGMA_TOL or _NOISE_STEP >= abs(step) > 0.5 * abs(last_step):
            break
        last_step = math.inf
        if hi == math.inf:
            # Newton in sigma, exact where E1 is affine in sigma; at least x4
            u += max(math.log1p(step), max_step) if step > 0.0 else max_step
            if u > log_floor + math.log(_BRACKET_SPAN):
                raise BracketFailure(
                    "no sign change of the split objective derivative in "
                    f"[{math.exp(log_floor) / _BRACKET_SPAN:.3e}, "
                    f"{math.exp(log_floor) * _BRACKET_SPAN:.3e}]"
                )
        elif lo < u + step < hi:
            u += step
            last_step = step
        else:
            u = 0.5 * (lo + hi)
        g, slope, sol = _critical_terms(p, u, n)
        if g < 0.0:
            lo = u
        elif g > 0.0:
            hi = u
        if hi - lo <= _LOG_SIGMA_TOL:
            break
    else:
        raise NonConvergence(
            f"critical-point search did not settle in {_MAX_SOLVES} radial solves"
        )
    sigma_star = math.exp(u)
    t_star = split_of_coupling(p, sigma_star)
    lam = t_star ** (-2.0 / p.d1) * sol.energy
    a = _objective_exponent(p)
    # sigma^(-a-2) (sigma^2 E1'' - 2 a sigma E1' + a (a+1) E1), without sigma^2
    f_second = math.exp(-a * u) * (
        sol.second_derivative
        + a * ((a + 1.0) * sol.energy / sigma_star - 2.0 * sol.hf_derivative) / sigma_star
    )

    prob = RadialProblem(d1=p.d1, s=p.s, mu=sigma_star, R=ball1_radius(p.d1), n=n)
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
