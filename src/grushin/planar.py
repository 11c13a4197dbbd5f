"""Direct 2-D finite-difference solver for the planar Grushin eigenvalue.

Discretizes  -d^2/dx^2 - |x|^(2s) d^2/dy^2  with Dirichlet conditions on a
disk or an axis-aligned rectangle using the 5-point stencil on a uniform
grid.  The y-stencil coefficient is |x|^(2s) at the node's own x-coordinate,
as grushin.radial samples and caps it.  Disk geometry is handled by masking:
a node belongs to the system iff it lies strictly inside the disk, so the
boundary is resolved to first order and results are Richardson-extrapolated
from the full- and half-resolution grids.  Rectangles are grid-aligned and
converge at second order.

Both grids mirror node i onto node n-1-i along each axis (the disk about
x = 0 and y = 0, the rectangle about x = 0 and its midline).  The matrix is
an irreducible M-matrix, so its lowest eigenvector is simple and positive,
hence even under both reflections, and only the even-even quadrant is
solved.  This is exact, not an approximation.  Folded onto a half-axis
(_half_axis, the one place the parity of n enters), the 1-D stencil is
grushin.radial's d1 = 1 line pencil (radial._line_pencil): unit links, and
across the axis the node's own mirror (even n) or half a cell on the axis
node (odd n).  With T its symmetric D^(-1/2) K D^(-1/2), the quadrant matrix
is Tx (x) I + diag(|x|^(2s)) (x) Ty.  A disk's is its rows and columns over
the mask (Tx = Ty), checked for exact symmetry, with diag(|x|^(2s)) the line
pencil's capped potential at mu = 1: POTENTIAL_CAP clips it, also where
|x|^(2s) overflows a double, as on a rectangle's line.  On the rectangle
|x|^(2s) >= 0, so its smallest eigenvalue is that of the line operator
Tx + mu diag(|x|^(2s)), with mu the smallest eigenvalue
(4/hy^2) sin^2(pi/(2(n-1))) of Ty (fast diagonalization, Lynch, Rice &
Thomas 1964): rectangles are never assembled in 2-D.  grushin.radial builds
and solves that line as it does a ball's, at coupling mu on grids n and n//2,
so a rectangle shares its potential cap (which also clips a |x|^(2s) that
overflows), resolution guard, certificate and sum-of-squares energy.

A disk's smallest eigenvalue comes from shift-invert Lanczos on one sparse LU
factorization of S - sigma I per grid (SuperLU: SciPy's extension _superlu,
called as splu calls it, on S's CSR arrays built here, which are its CSC
arrays as S is symmetric), at a shift that the factor's first solve
certifies.  S - sigma I is a symmetric Z-matrix, checked on assembly, so it
is positive definite, and sigma < lambda1, iff it is a nonsingular M-matrix,
that is iff (S - sigma I) x > 0 for some x > 0; the solve w of Lanczos'
constant start is such an x whenever sigma < lambda1, and w is tested
against that condition with a rounding bound (_shifted_factor), then used as
Lanczos' first step.  The factor's L and U are never read.  A residual alone
cannot certify a shift: on the s=150, n=256 unit-area disk sixteen chord
modes lie within 1e-9 of lambda1.  SuperLU factors one column per panel
without relaxed supernodes, as a masked 5-point quadrant forms no large dense
supernodes for its default blocking (Demmel, Eisenstat, Gilbert, Li & Liu,
SIAM J. Matrix Anal. Appl. 20 (1999) 720-755) to pay off.  The shifts come
from a coarse-to-fine cascade over the grids n//2^k >= 64 (k >= 2), n//2 and
n, each just below the eigenvalue of the grid before; the masked eigenvalue is
not monotone in n, so a refused shift backs off (`_smallest_eig`).  Lanczos reorthogonalizes fully,
tests convergence after every LU solve, and restarts thick, keeping the
leading half of the basis (Wu & Simon, SIAM J. Matrix Anal. Appl. 22 (2000)
602-616).  It starts from the constant vector, so repeated solves are
bit-identical, and one inverse-iteration step from its Ritz vector follows.

On either geometry the reported value lambda is the Rayleigh quotient of the
final vector, so lambda1 lies in (sigma, lambda] (DiskSolve).  A disk's pair
must pass ||S v - lambda v|| <= RESIDUAL_RTOL lambda ||v|| on the solved matrix
S, or NonConvergence is raised; a rectangle's carries grushin.radial's
certificate instead, as a fixed tolerance fails on fine grids (eps ||S|| ~
n^2).  The functions that call NumPy or SciPy import them, so importing this
module loads neither, and no solve loads scipy.sparse or scipy.linalg.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidProblem, NonConvergence
from .minimizer import ProblemParams, lambda1_product
from .radial import (DEFAULT_N, _finite, _line_ground_state, _line_operator, _line_pencil,
                     _nonnegative, _positive, _positive_integer, _scipy_extension)
from .tables import SweepTable

__all__ = ["DEFAULT_N_2D", "DiskProblem", "DiskSolve", "decoupled_rectangle_value",
           "segment_limit_probe", "solve_disk", "solve_rectangle_full"]

DEFAULT_N_2D = 512

#: Largest accepted ||S v - lambda v|| / (lambda ||v||) of a reported disk
#: eigenpair of the solved matrix S; rectangles carry the radial certificate.
RESIDUAL_RTOL = 1e-8

#: Lanczos stops once its Ritz pair (theta, y) of the inverse has the
#: residual bound beta |y_last| <= _RITZ_RTOL theta.
_RITZ_RTOL = 1e-10

#: Lanczos basis size; a restart keeps the _LANCZOS_NCV // 2 Ritz vectors of
#: largest theta.  The width is set by the near-degenerate chord-mode cluster
#: of rho=1.3, s=1000 at n=128 factored at the shift 0: 60 vectors take 229
#: LU solves there (307 at n=129), while 40 take 1113-1515 or more than 3000
#: and 30 more than 3000, the count turning on rounding alone (BLAS threads,
#: how S - 0 I is formed, SuperLU's blocking).  On the cascade's shifts the
#: width hardly matters: that disk's n=128 and 129 levels take 115 and 144
#: solves with 60 vectors, 132 and 175 with 40, 210 and 458 with 20; the
#: unit-area disks never restart.
_LANCZOS_NCV = 60

#: LU solves Lanczos may spend before it raises NonConvergence, ~30x the most
#: a disk has been seen to take (307 at rho=1.3, s=1000, n=129, shift 0; at
#: most 301 on a cascade level, rho=2, s=1000, n=256).
_LANCZOS_SOLVES = 10_000

#: A grid is first factored at guess (1 - _SHIFT_MARGIN), guess the next
#: coarser grid's eigenvalue; each shift that its factor's first solve fails
#: to certify (_shifted_factor) multiplies the margin by _SHIFT_GROWTH.
_SHIFT_MARGIN = 1e-3
_SHIFT_GROWTH = 8.0


@dataclass(frozen=True)
class DiskProblem:
    """An origin-centered disk, the exponent, and the grid resolution.

    n counts grid points per axis across [-rho, rho]; the spacing is
    2 rho / (n - 1).
    """

    rho: float
    s: float
    n: int = DEFAULT_N_2D

    def __post_init__(self) -> None:
        _positive("rho", self.rho)
        _nonnegative("s", self.s)
        object.__setattr__(self, "n", _positive_integer("n", self.n))
        if self.n < 64:
            raise InvalidProblem(f"n must be an integer >= 64, got {self.n}")


@dataclass(frozen=True)
class DiskSolve:
    """Smallest eigenvalue on the fine grid plus the Richardson estimate.

    interior_count is the number of unknowns solved on the fine grid (the
    quadrant nodes of a disk, the line nodes of a rectangle), and iterations
    the number of LU (disk) or LDL^T (rectangle) solves spent there.  sigma
    is the fine grid's certified shift (a disk's by an M-matrix test on its
    factor's first solve, a rectangle's by a Sturm count), so the fine grid's
    smallest eigenvalue lies in (sigma, lambda1], lambda1 being a Rayleigh
    quotient (in grushin.radial's form on a line).
    """

    lambda1: float
    interior_count: int
    extrapolated: float
    iterations: int
    sigma: float

    def __post_init__(self) -> None:
        if not (self.lambda1 > 0.0):
            raise InvalidProblem("lambda1 must be positive")
        if not (0.0 <= self.sigma < self.lambda1):
            raise InvalidProblem(
                f"certified shift {self.sigma!r} is outside [0, lambda1 = {self.lambda1!r})"
            )
        if abs(self.extrapolated - self.lambda1) > 0.1 * self.lambda1:
            raise InvalidProblem(
                "extrapolated value strays more than 10% from the grid value; "
                "the mesh is too coarse to trust"
            )


def _half_axis(a: float, n: int) -> np.ndarray:
    """The coordinates >= 0 among n equispaced nodes on [-a, a].

    Node i sits at a (2i - n + 1) / (n - 1), so mirrored nodes are exact
    negatives and the last node is exactly a.  Entry 0 lies on the axis for
    odd n and half a step off it for even n.
    """
    import numpy as np

    return a * (np.arange(1 - n % 2, n, 2) / (n - 1))


def _assemble(mask: np.ndarray, c_row: np.ndarray, h: float, links: np.ndarray,
              mass: np.ndarray):
    """Scaled 5-point matrix over the masked quadrant nodes.

    mask is square with spacing h on both axes, and (links, mass, c_row) is
    the half-axis pencil of its rows and columns at mu = 1
    (radial._line_pencil): c_row[i], the y-coefficient of row i, is its
    capped potential |x_i|^(2s).  The result is the rows and columns over the
    mask of T (x) I + diag(c_row) (x) T, T that pencil's line operator
    (module docstring), as canonical CSR arrays (data, indices, indptr) with
    no stored zeros; node (i, j), i along the x axis, precedes (i, j+1).
    """
    import numpy as np

    # T = T1 / h^2, T1 at unit spacing: the entries scale T1 by 1/h^2 and by
    # c_row / h^2, so no coefficient c / h^2 rounds through a rounded 1 / h^2
    t_diag, t_off = _line_operator(links, mass, np.zeros(mask.shape[0]), 1.0)[:2]
    cx = 1.0 / (h * h)
    t_off = np.append(t_off, 0.0)
    # each node's neighbours in column order; off the grid they land in the padding
    step = mask.shape[0] + 1
    inside = np.pad(mask, (0, 1)).ravel()
    node = np.flatnonzero(inside)
    i, j = np.divmod(node, step)
    neighbours = node[:, None] + [-step, -1, 0, 1, step]
    cy = c_row[i] / (h * h)
    values = np.stack([cx * t_off[i - 1], cy * t_off[j - 1], cx * t_diag[i] + cy * t_diag[j],
                       cy * t_off[j], cx * t_off[i]], axis=1)
    keep = inside[neighbours] & (values != 0.0)
    data, indices = values[keep], (np.cumsum(inside, dtype=np.intc) - 1)[neighbours[keep]]
    return data, indices, np.cumsum(np.append(0, keep.sum(axis=1)), dtype=np.intc)


def _rows(indptr: np.ndarray) -> np.ndarray:  # of each entry, in CSR (column in CSC)
    import numpy as np

    return np.repeat(np.arange(indptr.size - 1, dtype=indptr.dtype), np.diff(indptr))


def _stored_diagonal(arrays: tuple) -> np.ndarray:
    """The stored diagonal of CSR arrays."""
    data, indices, indptr = arrays
    return data[indices == _rows(indptr)]


def _lanczos(solve, first: np.ndarray) -> np.ndarray:
    """Ritz vector of the largest eigenvalue of the inverse that solve applies.

    Thick-restart Lanczos from the constant vector, whose solve first is.
    Two Gram-Schmidt passes run against the whole basis.  The projected matrix
    holds the orthogonalization coefficients, so after a restart its leading
    block is diag(theta) of the kept Ritz vectors, coupled only to the
    residual vector.
    """
    import numpy as np

    m = first.size
    ncv = min(_LANCZOS_NCV, m)
    keep = ncv // 2
    basis = np.empty((ncv, m))
    basis[0] = 1.0 / math.sqrt(m)
    projected = np.zeros((ncv, ncv))
    j = 0
    for step in range(_LANCZOS_SOLVES):
        w = solve(basis[j]) if step else first
        h = np.zeros(j + 1)
        for _ in range(2):
            c = basis[: j + 1] @ w
            w -= c @ basis[: j + 1]
            h += c
        projected[: j + 1, j] = projected[j, : j + 1] = h
        beta = np.linalg.norm(w)
        if not math.isfinite(beta):
            raise NonConvergence("an LU solve returned a non-finite vector")
        theta, y = np.linalg.eigh(projected[: j + 1, : j + 1])
        # theta > 0 since S is positive definite, so beta = 0 also stops here
        if beta * abs(y[-1, -1]) <= _RITZ_RTOL * theta[-1] or j + 1 == m:
            return y[:, -1] @ basis[: j + 1]
        if j + 1 == ncv:
            basis[:keep] = y[:, -keep:].T @ basis
            projected[:] = 0.0
            np.fill_diagonal(projected[:keep, :keep], theta[-keep:])
            j = keep
        else:
            j += 1
        basis[j] = w / beta
    raise NonConvergence(f"shift-invert Lanczos did not converge in {_LANCZOS_SOLVES} LU solves")


def _shifted_factor(matrix: tuple, sigma: float):
    """LU factor of matrix - sigma I, and its solve w of Lanczos' start if w certifies sigma.

    matrix is _assemble's arrays, shifted at their diagonal alone and handed
    over without stored zeros, as splu takes (matrix - sigma I).tocsc().
    One-column panels and unrelaxed supernodes (PanelSize=1, Relax=1) factor
    these matrices ~1.5x faster than the defaults at n = 256 and 512.

    A = matrix - sigma I is a symmetric Z-matrix (_disk_matrix), and a
    Z-matrix is a nonsingular M-matrix iff A x > 0 for some x > 0 (Berman &
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, 1994, Thm
    6.2.3, I27); a symmetric one is positive definite, so sigma < lambda1.
    Then A^(-1) >= 0 has a positive diagonal, so w = A^(-1) 1/sqrt(m), the
    solve of Lanczos' constant start, is such an x up to rounding.  The test
    takes w as it is: w > 0, and r = matrix w - sigma w, summed row by row,
    passes r_i > 16 eps ((|matrix| w)_i + |sigma| w_i) + tiny at every row
    (tiny the smallest normal float).  The bound exceeds the rounding of a
    row's five products and sums and of sigma w_i, underflow included, so an
    accepted w proves A w > 0 whatever the factor's pivoting or accuracy.
    Returns (lu, w), or (lu, None) if the test refuses sigma.
    """
    import numpy as np

    data, indices, indptr = matrix
    m, rows = indptr.size - 1, _rows(indptr)
    shifted = np.where(indices == rows, data - sigma, data)
    keep = shifted != 0.0
    # splu's arguments; L and U are never read, so nothing constructs them
    lu = _superlu().gstrf(m, np.count_nonzero(keep), shifted[keep], indices[keep],
                          np.cumsum(np.append(0, keep), dtype=np.intc)[indptr],
                          csc_construct_func=None, ilu=False,
                          options={"ColPerm": "MMD_AT_PLUS_A", "DiagPivotThresh": 0.0, "Relax": 1,
                                   "PanelSize": 1, "SymmetricMode": True})
    w = lu.solve(np.full(m, 1.0 / math.sqrt(m)))
    if not (w > 0.0).all():  # nan included
        return lu, None
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.bincount(rows, data * w[indices]) - sigma * w
        bound = np.bincount(rows, np.abs(data) * w[indices]) + abs(sigma) * w
        certified = (r > 16.0 * sys.float_info.epsilon * bound + sys.float_info.min).all()
    return lu, w if certified else None


def _superlu():  # SciPy's SuperLU wrapper, the extension scipy.sparse.linalg._dsolve._superlu
    return _scipy_extension("scipy.sparse.linalg._dsolve._superlu")


def _smallest_eig(matrix, guess: float) -> tuple[float, float, int]:
    """Shift-invert Lanczos at a certified shift, gated by an a-posteriori residual.

    guess estimates the smallest eigenvalue (the next coarser grid's value,
    or 0.0).  The first shift is guess (1 - _SHIFT_MARGIN); while a factor's
    first solve fails _shifted_factor's M-matrix test, the margin grows
    _SHIFT_GROWTH-fold, and once it reaches 1 the shift is 0.  S is positive
    definite by construction, so NonConvergence is raised if even the factor
    at 0 fails it.  The accepted solve is Lanczos' first.  Returns the
    eigenvalue lam (a Rayleigh quotient, so lambda1 <= lam), the certified
    shift sigma < lambda1, and the number of LU solves spent at that shift.
    NonConvergence is also raised unless the Rayleigh pair passes
    ||S v - lam v|| <= RESIDUAL_RTOL lam ||v||.
    """
    import numpy as np

    # S / c, c the power of two just above max diag(S), scales every factor,
    # solve and norm exactly, and keeps v.v in range for radii far from 1
    c = math.ldexp(1.0, math.frexp(float(_stored_diagonal(matrix).max()))[1])
    data, indices, indptr = matrix = (matrix[0] / c, *matrix[1:])
    guess /= c
    margin = _SHIFT_MARGIN
    while True:
        sigma = guess * (1.0 - margin) if margin < 1.0 else 0.0
        lu, first = _shifted_factor(matrix, sigma)
        if first is not None:
            break
        if sigma == 0.0:
            raise NonConvergence(
                "the factor at the shift 0 fails the M-matrix test, which contradicts "
                "a positive definite matrix"
            )
        margin *= _SHIFT_GROWTH
    solves = 1  # the factor's solve of Lanczos' start

    def inverse(b: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return lu.solve(b)

    ritz = _lanczos(inverse, first)
    # The Ritz vector carries rounding of order eps ||v|| in rows whose
    # diagonal is huge (|x|^(2s) >> 1 on wide domains), which dominates its
    # residual; one inverse-iteration step removes it.
    v = inverse(ritz)
    sv = np.bincount(_rows(indptr), data * v[indices])  # each row in column order, as CSR
    vv = v @ v
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = float(v @ sv / vv)
        resid = float(np.linalg.norm(sv - lam * v) / (lam * np.sqrt(vv)))
    if not (lam > 0.0 and resid <= RESIDUAL_RTOL):
        raise NonConvergence(f"eigenpair residual {resid:.3e} exceeds {RESIDUAL_RTOL:g} relative")
    return c * lam, c * sigma, solves


def _disk_matrix(rho: float, s: float, n: int):
    """The matrix _disk_eig solves: _assemble's over the disk's quadrant nodes on grid n.

    InvalidProblem unless h^2 and 2 rho^2 are normal floats: the stencil
    divides by h^2, and the mask compares x^2 + y^2 < 2 rho^2 with rho^2.
    InvalidProblem also unless the matrix is exactly symmetric and a
    Z-matrix (no off-diagonal entry > 0), as _shifted_factor's test assumes.
    """
    h = 2.0 * rho / (n - 1)
    if not (h * h >= sys.float_info.min and rho * rho <= 0.5 * sys.float_info.max):
        raise InvalidProblem(f"rho={rho} is out of range: rho^2 or the squared grid spacing "
                             "leaves the normal floats")
    # both axes' pencil, and the y-coefficients as its capped potential at
    # mu = 1; the last node, on the circle, is the Dirichlet zero
    xs = _half_axis(rho, n)
    links, mass, c_row = _line_pencil(xs, 1, 1.0, s)[1:4]
    xs = xs[:-1]
    mask = xs[:, None] ** 2 + xs[None, :] ** 2 < rho * rho
    data, indices, indptr = matrix = _assemble(mask, c_row, h, links, mass)
    rows, t = _rows(indptr), indices.argsort(kind="stable")  # t: the transpose's CSR order
    if not ((indices[t] == rows).all() and (rows[t] == indices).all() and (data[t] == data).all()):
        raise InvalidProblem("assembled stencil is not symmetric")
    if (data[indices != rows] > 0.0).any():
        raise InvalidProblem("assembled stencil has a positive off-diagonal entry")
    return matrix


def _disk_eig(rho: float, s: float, n: int, guess: float) -> tuple[float, int, int, float]:
    matrix = _disk_matrix(rho, s, n)
    lam, sigma, solves = _smallest_eig(matrix, guess)
    return lam, matrix[2].size - 1, solves, sigma


def _rectangle_eig(t: float, V: float, s: float, n: int) -> tuple[float, int, int, float]:
    import numpy as np

    # Tx + mu diag(|x|^(2s)): the d1 = 1 line pencil on the x half-axis, with
    # mu = (4/hy^2) sin^2(pi/(2(n-1))) and hy = V/(t(n-1))
    xs = _half_axis(0.5 * t, n)
    mu = _finite("the y-axis eigenvalue",
                 lambda: (2.0 * (n - 1) * t / V * math.sin(0.5 * math.pi / (n - 1))) ** 2,
                 t=t, V=V)
    links, mass, pot = _line_pencil(xs, 1, mu, s)[1:4]
    energy, sigma, solves = _line_ground_state(links, mass, pot, t / (n - 1),
                                               np.cos((math.pi / t) * xs[:-1]))[:3]
    return energy, mass.size, solves, sigma


def _extrapolate(fine: tuple, coarse: float, n: int, order: int) -> DiskSolve:
    """Grid n's (lambda1, count, iterations, sigma), Richardson-extrapolated from grid n//2."""
    lam, count, iters, sigma = fine
    weight = ((n - 1) / (n // 2 - 1)) ** order - 1.0
    return DiskSolve(lambda1=lam, interior_count=count, iterations=iters,
                     extrapolated=lam + (lam - coarse) / weight, sigma=sigma)


def solve_disk(p: DiskProblem) -> DiskSolve:
    """Smallest Dirichlet eigenvalue on the disk B(0, rho).

    Solves the cascade's grids (module docstring), each guessing the
    eigenvalue of the one before and the coarsest 0.0, the requested grid
    last, then removes the first-order boundary-masking error by Richardson
    extrapolation from the requested and the half-resolution grid.
    """
    levels = [p.n // 2]
    while levels[-1] // 2 >= 64:
        levels.append(levels[-1] // 2)
    coarse = 0.0
    for m in reversed(levels):
        coarse = _disk_eig(p.rho, p.s, m, coarse)[0]
    return _extrapolate(_disk_eig(p.rho, p.s, p.n, coarse), coarse, p.n, 1)


def solve_rectangle_full(
    t: float, V: float, s: float, n: int = DEFAULT_N_2D
) -> DiskSolve:
    """Smallest Dirichlet eigenvalue on the rectangle (-t/2, t/2) x (0, V/t).

    Solves grids n and n//2; grid-aligned boundaries make the scheme second
    order, so the Richardson step uses the squared spacing ratio.
    """
    _positive("t", t)
    _positive("V", V)
    _nonnegative("s", s)
    if _positive_integer("n", n) < 64:
        raise InvalidProblem(f"n must be an integer >= 64, got {n}")
    return _extrapolate(_rectangle_eig(t, V, s, n), _rectangle_eig(t, V, s, n // 2)[0], n, 2)


def decoupled_rectangle_value(
    t: float, V: float, s: float, n1d: int = DEFAULT_N
) -> float:
    """The same rectangle eigenvalue through the separated 1-D route."""
    _positive("t", t)
    _positive("V", V)
    if s == 0.0:
        return (math.pi / t) ** 2 + (math.pi * t / V) ** 2
    return lambda1_product(ProblemParams(d1=1, d2=1, s=s, V=V), t, n1d)


def segment_limit_probe(rho: float, s_list, n: int = DEFAULT_N_2D) -> SweepTable:
    """Disk eigenvalues along an exponent ladder against a segment reference.

    The reference is the first Dirichlet eigenvalue pi^2/L^2 of the longest
    segment parallel to the x-axis inside B(0, rho) with |x| < 1, namely
    L = 2 min(rho, 1).  Rows are (s, lambda1, reference) with lambda1 the
    Richardson estimate.
    """
    problems = [DiskProblem(rho=rho, s=float(s), n=n) for s in s_list]
    if not problems or any(b.s <= a.s for a, b in zip(problems, problems[1:])):
        raise InvalidProblem("s_list must be non-empty and strictly increasing")
    reference = _finite("the segment reference", lambda: (math.pi / (2.0 * min(rho, 1.0))) ** 2,
                        rho=rho)
    rows = tuple((p.s, solve_disk(p).extrapolated, reference) for p in problems)
    return SweepTable(headers=("s", "lambda1", "reference"), rows=rows)
