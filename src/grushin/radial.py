"""Radial Schrodinger eigensolver on a ball with a power-law confinement term.

This module computes the smallest eigenvalue E and eigenfunction v of

    -v''(r) - (d1 - 1)/r * v'(r) + mu * r^(2s) * v(r) = E * v(r),   0 < r < R,

with a Dirichlet condition v(R) = 0 and the natural regularity condition at
the origin (no flux through r = 0).  This is the radial form of the Dirichlet
problem for -Laplace + mu*|x|^(2s) on the ball B(0, R) in dimension d1; the
ground state is radial and positive, so the one dimensional problem captures
the first eigenvalue exactly.

Discretization.  Multiplying by the volume weight r^(d1-1) puts the operator
in divergence form -(r^(d1-1) v')' + mu r^(2s+d1-1) v = E r^(d1-1) v, which is
discretized conservatively on the uniform grid r_i = i*h, h = R/n: the flux
coefficients are sampled at half points, r_{i+1/2}^(d1-1), and the mass and
potential terms are lumped with trapezoidal weights.  The result is a
symmetric tridiagonal pencil (A, D) with positive diagonal mass D.  For d1 = 1
the origin node carries half a cell and the scheme reduces to the standard
second order Laplacian with an even-symmetry (Neumann) condition at 0; for
d1 >= 2 the origin node has zero mass weight and is eliminated, which encodes
the zero-flux condition without any special boundary row.  A potential that
rises by more than 1/h^2 between the first two unknowns is a well the grid
does not resolve: DegenerateGrid.  _line_pencil builds this pencil on any
uniform nodes ending at the Dirichlet zero, so with d1 = 1 on a half axis,
where a node on the mirror axis carries half a cell as the origin does, it
is also grushin.planar's: the rectangle's line and both disk axes, whose
y-coefficients are its potential at mu = 1.  So this module alone samples
and caps |x|^(2s), for every geometry.

Eigensolve.  The pencil is reduced by the diagonal congruence D^(-1/2) A
D^(-1/2) to a symmetric positive definite tridiagonal matrix T.  Its lowest
eigenpair is found by shifted inverse iteration on O(n) LDL^T factors (LAPACK
pttrf/pttrs; Parlett, The Symmetric Eigenvalue Problem, ch. 4), started from
the fixed positive profile cos(pi r / 2R) in congruence coordinates, or from
a caller's nonnegative profile on the grid: a sequence of solves
(minimize's Newton iterates, the whole-space truncation rounds) starts each
from the ground state before it.  The start changes only how many steps a
solve takes, since the stop rule and the certificate below do not read it.  Each
step takes the Rayleigh quotient lam of the unit iterate x and the residual
bound rho: the norm of Tx - lam x plus its rounding level eps || |T||x| +
lam |x| ||.  It shifts to sigma = lam - 2 rho, but only if T - sigma I
factors with positive pivots.  Positive pivots are a Sturm count of zero: no
eigenvalue lies at or below sigma.  Otherwise sigma is halved toward the last
shift that factored, which starts at 0 because T is positive definite.  Below
E1 every factor is an M-matrix with a positive inverse, so the iterates stay
positive.  Since lam bounds E1 from above, up to its rounding level, a
factored shift brackets E1 in (sigma, lam]; a solve returns only once the
last factored shift is within 4 rho of lam.  The functions that call NumPy
or SciPy import them, so importing this module, or computing the ball
constants below, loads neither.  A solve loads NumPy and SciPy's compiled
LAPACK extension (_lapack), but not scipy.linalg, whose import costs far
more than a solve at the default n.

The stop rule is stagnation: the iteration ends when the residual stops
contracting (it exceeds half the previous one) or drops below eps times its
rounding level, provided it has reached that level.  (Where a flat potential
dwarfs the kinetic scale by 1/eps, T rounds to a multiple of I and the
residual is 0 from the first step, which never stagnates.)  A fixed
tolerance cannot serve the whole parameter range.  Under POTENTIAL_CAP walls
||T|| reaches 1e14 while the eigenvector vanishes there, so eps ||T|| lies
far above the attainable residual and a stop at it quits early.  On fine
grids the rounding floor itself is large, 8e-5 E at n = 1e6, so a relative
tolerance such as 1e-6 is never met.  Iterating until the residual
stagnates also takes the last step that the eigenvector, and with it dE/dmu
below, gains from a shift this close to E1.

The reported energy is the Rayleigh quotient of the final iterate in physical
variables, accurate to rounding; perturbation in mu is exact at the discrete
level, which makes the Hellmann-Feynman derivative below agree with finite
differences of the energy to the finite-difference truncation error.  Each
solution carries the problem it solves, so its identity checks take it alone.

The derivative of the energy with respect to the coupling mu is

    dE/dmu = integral_0^R r^(2s+d1-1) v(r)^2 dr

for v normalized by integral_0^R r^(d1-1) v^2 dr = 1 (Hellmann-Feynman).
Every solution also gives the exact second derivative of the discrete
eigenvalue, formed when it is first read.  In congruence coordinates the
pencil is T(mu) = T0 + mu W with W = diag(r^(2s)) (zero where POTENTIAL_CAP
clips the potential, which then no longer depends on mu).  For the unit
eigenvector x, second-order perturbation theory gives E' = x'Wx and E'' =
2 x'Wy, where y is orthogonal to x and solves (T - E) y = -(W - E') x.
T - E is singular only along x, and the right-hand side is orthogonal to x,
so one tridiagonal solve followed by projecting out x gives y at O(n) cost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from functools import cached_property, lru_cache

from .errors import DegenerateGrid, InvalidProblem, NonConvergence

__all__ = ["DEFAULT_N", "RadialProblem", "RadialSolution", "ball_volume_constant",
           "gradient_integral", "identity_residuals", "mu1_ball", "second_derivative_sign",
           "solve_radial"]

#: Default number of grid cells for production solves.
DEFAULT_N = 4096

#: The sampled potential mu*r^(2s) is capped at POTENTIAL_CAP times its
#: sample pot[1] one node out from the axis-nearest node (on a ball, its
#: smallest sample off the origin, mu*h^(2s)), or at POTENTIAL_CAP if that is
#: below 1; beyond the cap the node is a numerical Dirichlet wall.  Keeps huge
#: exponents (s ~ 150 with R > 1) finite, and never flattens a large mu.
POTENTIAL_CAP = 1e14

#: Cap for plain power weights r^p, guarding float overflow in quadrature
#: weights; only ever active where the eigenfunction has underflowed to zero.
_POWER_CAP = 1e290

#: Inverse-iteration steps a solve may take, and halvings of one shift that
#: does not factor, before NonConvergence.  Sweeps (d1 <= 8, s <= 1000,
#: mu <= 1e250, n <= 4096) took at most 18 steps (d1 = 4, s = 5e-4, mu = 1e6,
#: R = 1, n = 4096) and 50 halvings (a poor start under POTENTIAL_CAP walls).
_MAX_STEPS = 32
_MAX_HALVINGS = 100

#: A stagnated residual counts as converged up to this multiple of its
#: rounding level; converged solves in that sweep read 0.1-2.2 of it.
_FLOOR_FACTOR = 8.0

#: Every line solve raises DegenerateGrid once h^2 (pot[1] - pot[0]) exceeds
#: this: node 0, nearest the potential's minimum (the d1 = 1 origin, r = h for
#: d1 >= 2, a rectangle's axis or half-step node), is then in an unresolved
#: well.  Regression, reproduction and benchmark inputs read at most 3.8e-6.
_WELL_GAP = 1.0

_EPS = sys.float_info.epsilon


def ball_volume_constant(d: int) -> float:
    """Volume of the unit ball in dimension d: pi^(d/2) / Gamma(1 + d/2).

    InvalidProblem from d = 342 on, where Gamma(1 + d/2) overflows a float.
    """
    return _finite("the unit ball's volume pi^(d/2) / Gamma(1 + d/2)",
                   lambda: math.pi ** (d / 2.0) / math.gamma(1.0 + d / 2.0), d=d)


def _positive_integer(name: str, value) -> int:
    """value as an int; InvalidProblem unless it is a positive integer."""
    if not (value >= 1) or not math.isfinite(value) or int(value) != value:
        raise InvalidProblem(f"{name} must be a positive integer, got {value}")
    return int(value)


def _positive(name: str, value) -> None:
    """InvalidProblem unless value is finite and > 0 (nan is neither)."""
    if not (value > 0.0) or not math.isfinite(value):
        raise InvalidProblem(f"{name} must be finite and > 0, got {value}")


def _nonnegative(name: str, value) -> None:
    """InvalidProblem unless value is finite and >= 0 (nan is neither)."""
    if not (value >= 0.0) or not math.isfinite(value):
        raise InvalidProblem(f"{name} must be finite and >= 0, got {value}")


def _finite(name: str, evaluate, **inputs) -> float:
    """evaluate(); InvalidProblem naming the inputs unless it is a finite float.

    A float ** that overflows raises OverflowError where * and / return inf;
    both count as overflow.
    """
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        at = ", ".join(f"{key}={val}" for key, val in inputs.items())
        raise InvalidProblem(f"{name} overflows a float at {at}")
    return value


def _rpow(r: np.ndarray, p: float) -> np.ndarray:
    """r**p, elementwise, overflow-capped; 0**0 = 1, 0**p = 0 and 1**p = 1 for p in (0, inf]."""
    import numpy as np

    if p == 0.0:
        return np.ones_like(r)
    with np.errstate(divide="ignore", over="ignore"):
        logs = np.log(r, out=np.full_like(r, -np.inf), where=r > 0)
        np.multiply(logs, p, out=logs, where=logs != 0.0)
        out = np.exp(np.minimum(logs, math.log(_POWER_CAP)))
    return out


def _cap_potential(pot: np.ndarray) -> np.ndarray:
    """Clip the potential samples pot in place (see POTENTIAL_CAP); returns the clipped mask.

    The cap scales with pot[1], not with mu: mu reaches 1e200 where r^(2s)
    is tiny, and a cap of 1e14 mu would overflow the solver's norms.
    """
    cap = POTENTIAL_CAP * max(1.0, float(pot[1]))
    clipped = pot >= cap
    pot[clipped] = cap
    return clipped


@dataclass(frozen=True)
class RadialProblem:
    """Radial eigenvalue problem on (0, R) in dimension d1 with coupling mu.

    Attributes:
        d1: ambient dimension of the ball (positive integer).
        s: exponent of the confinement term |x|^(2s), s >= 0.
        mu: nonnegative coupling in front of the confinement term.
        R: ball radius, R > 0.
        n: number of grid cells (n + 1 nodes), n >= 16.
    """

    d1: int
    s: float
    mu: float
    R: float
    n: int = DEFAULT_N

    def __post_init__(self) -> None:
        # store the ints: a float n (64.0) would reach np.linspace as a count
        object.__setattr__(self, "d1", _positive_integer("d1", self.d1))
        _nonnegative("s", self.s)
        _nonnegative("mu", self.mu)
        _positive("R", self.R)
        object.__setattr__(self, "n", _positive_integer("n", self.n))
        if self.n < 16:
            raise InvalidProblem(f"n must be an integer >= 16, got {self.n}")

    @property
    def h(self) -> float:
        return self.R / self.n

    def grid(self) -> np.ndarray:
        """Node coordinates r_i = i*h, i = 0..n."""
        import numpy as np

        return np.linspace(0.0, self.R, self.n + 1)


@dataclass(frozen=True)
class RadialSolution:
    """Lowest eigenpair of a RadialProblem.

    Attributes:
        problem: the RadialProblem solved, whose grid v lives on.
        energy: smallest eigenvalue of the discrete pencil (Rayleigh refined).
        v: eigenfunction sampled on the full grid (n + 1 values, v[n] = 0),
           nonnegative, normalized by the weighted trapezoid rule
           integral r^(d1-1) v^2 dr = 1.  Round-off dust below -1e-10 * max(v)
           is clamped to zero to keep the sign convention exact.
        boundary_slope: one-sided second order estimate of v'(R),
           (3 v_n - 4 v_{n-1} + v_{n-2}) / (2h) with v_n = 0.
        hf_derivative: dE/dmu (Hellmann-Feynman), the exact derivative of
           the discrete eigenvalue.
        second_derivative: d2E/dmu2 of the discrete eigenvalue, by second
           order perturbation theory (see the module docstring); <= 0.
           Formed on first read, one tridiagonal solve, and cached; reading
           it raises NonConvergence if that solve fails.
    """

    problem: RadialProblem
    energy: float
    v: np.ndarray
    boundary_slope: float
    hf_derivative: float
    # (t_diag, t_off, x, wx, e_dot, c) of solve_radial, until E'' is formed
    _curvature: tuple | None = field(repr=False, compare=False)

    @cached_property
    def second_derivative(self) -> float:
        # E'' = 2 x'Wy with (T - E) y = -(W - E') x, y orthogonal to x, for
        # W / c (module docstring); the solve overwrites only its own copies,
        # and the operands are dropped once E'' is formed
        t_diag, t_off, x, wx, e_dot, c = self._curvature
        nx2 = float(x @ x)
        _, _, _, z, info = _lapack().dgtsv(t_off.copy(), t_diag - self.energy, t_off.copy(),
                                         e_dot * x - wx, overwrite_dl=1, overwrite_d=1,
                                         overwrite_du=1, overwrite_b=1)
        if info != 0:
            raise NonConvergence(f"second-derivative solve failed (LAPACK gtsv info={info})")
        object.__setattr__(self, "_curvature", None)
        z = z.ravel()
        z -= (float(x @ z) / nx2) * x
        return c * (c * (2.0 * float(wx @ z) / nx2))


def _line_pencil(x: np.ndarray, d1: int, mu: float, s: float):
    """The line pencil (see _line_ground_state) on the unknown nodes lo..m-1 of x.

    x is a uniform grid whose node m is the Dirichlet zero: a ball's r_i = i*h
    or a planar half axis.  Returns (lo, links, mass, pot, dpot): the first
    unknown (the d1 >= 2 origin has zero mass and is eliminated); the flux
    coefficients x_{i+1/2}^(d1-1) from it up; the lumped mass x_i^(d1-1), 1/2
    on a d1 = 1 node at the origin; and the capped potential mu x^(2s) with
    its mu-derivative, x^(2s) where the cap is inactive and 0 where it clips.
    InvalidProblem if the first unknown's mass underflows to 0 (on the unit
    volume ball at n = 4096, from d1 = 102 on); a subnormal one still solves.
    """
    import numpy as np

    lo = 0 if d1 == 1 else 1
    links = _rpow(0.5 * (x[lo:-1] + x[lo + 1 :]), d1 - 1.0)
    mass = _rpow(x[lo:-1], d1 - 1.0)
    if lo == 0 and x[0] == 0.0:
        mass[0] = 0.5
    elif mass[0] == 0.0:
        raise InvalidProblem(
            f"the volume weight r^(d1-1) underflows to 0 at the first unknown "
            f"r={x[lo]:.6g} (d1={d1}, {x.size - 1} cells)"
        )
    dpot = _rpow(x, 2.0 * s)
    with np.errstate(over="ignore"):  # the cap clips an infinite sample
        pot = mu * dpot
    dpot[_cap_potential(pot)] = 0.0
    return lo, links, mass, pot[lo:-1], dpot[lo:-1]


def _scipy_extension(name: str):
    """SciPy's compiled extension module `name`, found under scipy's spec.

    No __init__ of scipy or its subpackages runs (scipy.linalg's and
    scipy.sparse's cost ~0.2 s each, more than a 1-D or n = 256 disk solve);
    sys.modules shares the module with its package, imported before or after.
    """
    import importlib.util
    import os
    from importlib.machinery import PathFinder

    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and PathFinder.find_spec(name, [
        os.path.join(root, *name.split(".")[1:-1]) for root in scipy.submodule_search_locations])
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lapack():
    """SciPy's compiled LAPACK wrappers, the extension scipy.linalg._flapack."""
    return _scipy_extension("scipy.linalg._flapack")


def _ground_state(t_diag: np.ndarray, t_off: np.ndarray, x: np.ndarray):
    """Lowest eigenvector of T = tridiag(t_off, t_diag, t_off), with its certificate.

    Shifted inverse iteration from the positive vector x (overwritten), as
    the module docstring describes.  Returns (x, shift, solves): x is the unit
    eigenvector, shift (T - shift I has a positive LDL^T factor) a certified
    lower bound on E1 within 4 rho of the Rayleigh quotient lam of x, so E1
    lies in (shift, lam] up to rounding, and solves the LDL^T solves spent.

    Raises NonConvergence if T is not positive definite (no factor at the
    shift 0), if no shift between the last certified one and lam - 2 rho
    factors within _MAX_HALVINGS halvings, or if the residual has not settled
    at its rounding level within _MAX_STEPS steps.
    """
    lapack = _lapack()

    # T / c, c the power of two just above max diag(T), scales every factor,
    # solve and norm exactly, and squares no entry near a flat potential's 1e200
    c = math.ldexp(1.0, math.frexp(float(t_diag.max()))[1])
    t_diag, t_off = t_diag / c, t_off / c
    shift = 0.0  # T is symmetric positive definite
    prev = math.inf
    for solves in range(_MAX_STEPS):
        x /= math.sqrt(float(x @ x))
        tx = t_diag * x
        tx[:-1] += t_off * x[1:]
        tx[1:] += t_off * x[:-1]
        lam = float(x @ tx)
        tx -= lam * x
        res = math.sqrt(float(tx @ tx))
        # rounding level eps || |T||x| + lam |x| ||: x >= 0 and T has a
        # nonnegative diagonal and nonpositive off-diagonals, so the vector
        # inside is 2 diag(T) x - (Tx - lam x)
        tx -= 2.0 * t_diag * x
        floor = _EPS * math.sqrt(float(tx @ tx))
        rho = res + floor
        if not math.isfinite(rho):
            raise NonConvergence("inverse iteration lost the eigenvector to overflow")
        stalled = res > 0.5 * prev or res <= _EPS * floor
        if stalled and res <= _FLOOR_FACTOR * floor and lam - shift <= 4.0 * rho:
            return x, c * shift, solves
        prev = res
        sigma = max(lam - 2.0 * rho, shift)
        for _ in range(_MAX_HALVINGS):
            l_diag, l_off, info = lapack.dpttrf(t_diag - sigma, t_off, overwrite_d=1)
            if info == 0:
                break
            if sigma == shift:
                raise NonConvergence(f"no positive LDL^T factor at certified shift {c * sigma!r}")
            half = 0.5 * (sigma + shift)
            sigma = half if shift < half < sigma else shift
        else:
            raise NonConvergence(
                f"no shift in ({c * shift!r}, {c * (lam - 2.0 * rho)!r}] factors: the ground "
                "state cannot be certified"
            )
        shift = sigma
        x, info = lapack.dpttrs(l_diag, l_off, x, overwrite_b=1)
        if info != 0:
            raise NonConvergence(f"inverse-iteration solve failed (LAPACK pttrs info={info})")
    raise NonConvergence(
        f"inverse iteration did not settle at the rounding level in {_MAX_STEPS} steps"
    )


def _line_operator(links, mass, pot, h: float):
    """T = D^(-1/2) A D^(-1/2) of a line pencil (A, D) (see _line_ground_state).

    Returns (t_diag, t_off, sqrt_d): T = tridiag(t_off, t_diag, t_off) and
    the diagonal of D^(1/2).  InvalidProblem unless h^2 is a normal float and T is finite.
    """
    import numpy as np

    if not sys.float_info.min <= h * h <= sys.float_info.max:
        raise InvalidProblem(f"grid spacing h={h} is out of range: h^2 leaves the normal floats")
    t_diag = links.copy()
    t_diag[1:] += links[:-1]
    t_diag /= h**2
    t_diag += mass * pot
    t_diag /= mass
    sqrt_d = np.sqrt(mass)
    t_off = links[:-1] / -(h**2)
    t_off /= sqrt_d[:-1] * sqrt_d[1:]
    if not (np.all(np.isfinite(t_diag)) and np.all(np.isfinite(t_off))):
        raise InvalidProblem("assembled operator contains non-finite entries")
    return t_diag, t_off, sqrt_d


def _line_ground_state(links, mass, pot, h: float, start):
    """Certified ground state of a line pencil (A, D), with its energy.

    Node m of a grid of spacing h is a Dirichlet zero and nodes 0..m-1 are
    the unknowns.  A = K / h^2 + D diag(pot) with D = diag(mass); K has the
    off-diagonal -links[i] and the diagonal links[i] + links[i-1] (links[i]
    joins nodes i and i+1; nothing enters node 0 from below).  start is a
    positive profile (overwritten).  Runs _ground_state on T = D^(-1/2) A
    D^(-1/2) = tridiag(t_off, t_diag, t_off) from _line_operator and returns
    (energy, shift, solves, x, v, t_diag, t_off), energy the Rayleigh
    quotient of v = D^(-1/2) x, scaled to h sum(mass v^2) = 1, in
    sum-of-squares form: no addend is negative, while x'Tx loses ~eps ||T||.
    Raises DegenerateGrid if h^2 (pot[1] - pot[0]) > _WELL_GAP (every line),
    InvalidProblem if T is not finite, and NonConvergence as _ground_state
    does or if the energy is not positive.
    """
    import numpy as np

    t_diag, t_off, sqrt_d = _line_operator(links, mass, pot, h)
    if h**2 * (pot[1] - pot[0]) > _WELL_GAP:
        raise DegenerateGrid(
            f"node 0's potential lies {pot[1] - pot[0]:.3e} below its neighbour's, "
            f"more than {_WELL_GAP:g}/h^2: the grid does not resolve the potential's well"
        )
    start *= sqrt_d
    x, shift, solves = _ground_state(t_diag, t_off, start)
    v = x / sqrt_d
    diffs = -v  # v[i+1] - v[i], with the Dirichlet zero at node m
    diffs[:-1] += v[1:]
    stiffness = float(np.sum(links * diffs**2)) / h**2
    potential = float(np.sum(mass * pot * v**2))
    norm = float(np.sum(mass * v**2))
    energy = (stiffness + potential) / norm
    if not math.isfinite(energy) or energy <= 0.0:
        raise NonConvergence(f"nonpositive or non-finite energy: {energy}")
    return energy, shift, solves, x, v / math.sqrt(h * norm), t_diag, t_off


def solve_radial(p: RadialProblem, start: np.ndarray | None = None) -> RadialSolution:
    """Solve for the lowest eigenpair of the radial problem.

    start is the profile inverse iteration starts from, on the n + 1 grid
    nodes like RadialSolution.v (a profile from a shorter grid zero-padded):
    nonnegative and not zero on the unknowns, and overwritten there; the
    eliminated d1 >= 2 origin and the Dirichlet node are ignored.  Without it the
    iteration starts from cos(pi r / 2R).  Every return rests on a certified
    shift (see _ground_state).  The solution carries p as its problem, and
    keeps the operator and eigenvector until its second_derivative is read.
    Raises NonConvergence if the ground state cannot be certified or the
    inverse iteration does not settle at the rounding level (_ground_state
    says when); DegenerateGrid if the grid does not resolve the origin's
    well (_WELL_GAP); InvalidProblem for bad inputs, a start of the wrong
    length included.
    """
    import numpy as np

    r = p.grid()
    lo, links, mass, pot, w = _line_pencil(r, p.d1, p.mu, p.s)
    if start is None:
        start = np.cos((0.5 * math.pi / p.R) * r)
    elif start.shape != (p.n + 1,):
        raise InvalidProblem(f"start has shape {start.shape}, not the {p.n + 1} grid nodes")
    energy, _, _, x, v_unknown, t_diag, t_off = _line_ground_state(
        links, mass, pot, p.h, start[lo : p.n])

    # E' = x'Wx (module docstring), formed for W / c, c the power of two just
    # above max W, so no intermediate overflows (r^(2s) reaches 1e290 where
    # the cap is off); so is E'' from the same operands, on first read
    c = math.ldexp(1.0, math.frexp(float(np.max(w)))[1])
    wx = (w / c) * x
    e_dot = float(x @ wx) / float(x @ x)

    v = np.zeros(p.n + 1)
    v[lo : p.n] = v_unknown
    if lo == 1:
        # even extension through the origin: v(r) ~ a + b r^2
        v[0] = (4.0 * v[1] - v[2]) / 3.0
    vmax = float(np.max(v))
    tiny = v < 0.0
    if np.any(tiny):
        if float(np.min(v)) < -1e-10 * vmax:
            raise NonConvergence("ground state came back with a sign change")
        v[tiny] = 0.0

    slope = (-4.0 * v[p.n - 1] + v[p.n - 2]) / (2.0 * p.h)
    return RadialSolution(
        problem=p,
        energy=energy,
        v=v,
        boundary_slope=slope,
        hf_derivative=c * e_dot,
        _curvature=(t_diag, t_off, x, wx, e_dot, c),
    )


def gradient_integral(sol: RadialSolution) -> float:
    """integral (v')^2 r^(d1-1) dr on sol's grid, v' by second order differences, trapezoid rule."""
    import numpy as np

    p = sol.problem
    r = p.grid()
    values = np.gradient(sol.v, p.h, edge_order=2) ** 2
    w = np.ones(values.size)
    w[0] = 0.5
    w[-1] = 0.5
    return float(p.h * np.sum(w * _rpow(r, p.d1 - 1.0) * values))


def identity_residuals(sol: RadialSolution) -> tuple[float, float, float]:
    """Residuals of three exact identities satisfied by the continuum eigenpair.

    With g = integral (v')^2 r^(d1-1) dr, q = dE/dmu, and slope = v'(R), and
    (d1, s, mu, R) those of sol.problem:

        res1 = | g + mu*q - E |                      (energy split)
        res2 = | g - (R^d1 / 2) slope^2 - s*mu*q |   (boundary Pohozaev form)
        res3 = | E - (R^d1 / 2) slope^2 - mu*(1+s)*q |

    All three vanish at rate O(1/n) or better under grid refinement.
    """
    p = sol.problem
    g = gradient_integral(sol)
    q = sol.hf_derivative
    e = sol.energy
    flux = 0.5 * p.R**p.d1 * sol.boundary_slope**2
    res1 = abs(g + p.mu * q - e)
    res2 = abs(g - flux - p.s * p.mu * q)
    res3 = abs(e - flux - p.mu * (1.0 + p.s) * q)
    return res1, res2, res3


def second_derivative_sign(p: RadialProblem) -> float:
    """The certified-nonnegative combination s*dE/dmu + mu*(1+s)*d2E/dmu2.

    Both derivatives are the exact ones of the discrete eigenvalue that
    solve_radial returns.  Requires mu > 0.
    """
    if p.mu <= 0.0:
        raise InvalidProblem("second_derivative_sign requires mu > 0")
    sol = solve_radial(p)
    return p.s * sol.hf_derivative + p.mu * (1.0 + p.s) * sol.second_derivative


#: Qu and Wong (Trans. AMS 351, 1999) bound the first zero of J_nu, nu > 0,
#: by nu + c nu^(1/3) < j_(nu,1) < nu + c nu^(1/3) + c' nu^(-1/3), with
#: c = -a1 / 2^(1/3) and c' = (3/20) a1^2 2^(1/3), a1 the first zero of Ai.
_QW_LOWER = 1.8557570814892386
_QW_UPPER = 1.0331503250716468


@lru_cache(maxsize=None)
def _first_bessel_zero(d: int) -> float:
    """j_(d/2-1,1), the first positive zero of J_(d/2-1): mu1 of the unit ball is its square.

    pi/2 and pi for d = 1 and 3.  Otherwise the zero of the entire function
    f(x) = Gamma(d/2) (2/x)^(d/2-1) J_(d/2-1)(x) = sum_k (-x^2)^k / prod_(i<=k)
    2i(2i + d - 2), by bisection on a bracket that holds no other zero of f:
    Qu and Wong's bounds for d >= 4, and sqrt(5) < j_(0,1) < 1 + sqrt(2)
    (Watson; Chambers) for d = 2.  The series cancels: near the zero its
    terms exceed x f'(x) by ~d/8 digits (16 at d = 128), so it is summed in
    decimal arithmetic with 30 + d/4 digits.
    """
    if d in (1, 3):
        return math.pi / 2.0 if d == 1 else math.pi
    if d == 2:
        lo, hi = math.sqrt(5.0), 1.0 + math.sqrt(2.0)
    else:
        nu = 0.5 * d - 1.0
        lo = nu + _QW_LOWER * nu ** (1.0 / 3.0)
        hi = lo + _QW_UPPER / nu ** (1.0 / 3.0)
    with localcontext() as ctx:
        ctx.prec = 30 + d // 4
        tiny = Decimal(10) ** -ctx.prec

        def f(x: Decimal) -> Decimal:
            q = -x * x
            term = total = Decimal(1)
            k = 0
            while True:
                k += 1
                den = 2 * k * (2 * k + d - 2)
                term = term * q / den
                total += term
                if den > -q and abs(term) < tiny:
                    return total

        lo, hi = Decimal(lo), Decimal(hi)
        if not f(lo) > 0 > f(hi):
            raise NonConvergence(f"the first zero of J_{0.5 * d - 1.0} left its bracket")
        while hi - lo > hi * Decimal("1e-20"):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def mu1_ball(d: int, volume: float) -> float:
    """First Dirichlet eigenvalue of the Laplacian on the d-ball of given volume.

    Exact: j_(d/2-1,1)^2 / R^2, R the radius of the ball.
    """
    _positive("volume", volume)
    d = _positive_integer("d", d)
    radius = (volume / ball_volume_constant(d)) ** (1.0 / d)
    return (_first_bessel_zero(d) / radius) ** 2
