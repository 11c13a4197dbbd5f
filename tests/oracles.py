"""Independent reference implementations used by the test suite.

Everything here is deliberately written from first principles (power series,
bisection, dense linear algebra, golden-section search) so that agreement
with the production code is an independent check rather than a tautology.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.sparse.linalg import eigsh
from scipy.special import jn_zeros, jv

from grushin.minimizer import ball1_radius
from grushin.radial import RadialProblem, solve_radial
from grushin.radial import _line_pencil

REPO_ROOT = Path(__file__).resolve().parents[1]


def bessel_j0(x: float) -> float:
    """J0 by its power series; machine precision for the arguments used here."""
    q = -0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        term *= q / (k * k)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            return total
    raise RuntimeError("J0 series did not converge")


def first_bessel_root() -> float:
    """Smallest positive root of J0, by bisection on [2, 3]."""
    lo, hi = 2.0, 3.0
    assert bessel_j0(lo) > 0.0 > bessel_j0(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


J01 = first_bessel_root()
J01_SQUARED = J01 * J01


def first_bessel_zero(d: int) -> float:
    """j_(d/2-1,1): scipy's jn_zeros for integer order, else bisection on scipy's jv.

    For half-integer order nu >= -1/2 the first zero lies above max(nu, 1/2)
    and zeros are at least pi apart, so steps of 1/2 from there bracket it.
    """
    nu = 0.5 * d - 1.0
    if nu == int(nu):
        return float(jn_zeros(int(nu), 1)[0])
    lo = max(nu, 0.5)
    hi = lo + 0.5
    while jv(nu, hi) > 0.0:
        lo, hi = hi, hi + 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if jv(nu, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def assembled_pencil(p: RadialProblem):
    """(lo, a_diag, a_off, d_w, links, pot): the production solver's (A, D) pencil.

    Rebuilt here from the flux coefficients, lumped mass and potential
    samples that `radial._line_pencil` returns on the problem's grid, without
    the production eigensolve:
    A = K / h^2 + D diag(pot), where K has the diagonal links[i] + links[i-1]
    (no flux into the first unknown from below) and the off-diagonal
    -links[i], and D = diag(d_w) is the lumped mass.
    """
    lo, links, d_w, pot, _ = _line_pencil(p.grid(), p.d1, p.mu, p.s)
    diag_k = links.copy()
    diag_k[1:] += links[:-1]
    return lo, diag_k / p.h**2 + d_w * pot, -links[:-1] / p.h**2, d_w, links, pot


def dense_lowest_eigenvalue(p: RadialProblem) -> float:
    """Smallest eigenvalue of the assembled pencil by a full dense eigensolve.

    Builds the same (A, D) pencil the production solver assembles, but solves
    it with a dense generalized symmetric eigendecomposition instead of the
    production inverse iteration.  Only sensible for small n.
    """
    _, a_diag, a_off, d_w, _, _ = assembled_pencil(p)
    m = a_diag.size
    a = np.zeros((m, m))
    idx = np.arange(m)
    a[idx, idx] = a_diag
    a[idx[:-1], idx[:-1] + 1] = a_off
    a[idx[:-1] + 1, idx[:-1]] = a_off
    return float(eigh(a, np.diag(d_w), eigvals_only=True)[0])


def tridiagonal_reference_energy(p: RadialProblem) -> float:
    """Lowest eigenvalue of the assembled pencil by LAPACK bisection, for any n.

    Reduces the pencil by the congruence D^(-1/2) A D^(-1/2), as the
    production solver does, and takes the lowest eigenvector from scipy's
    eigh_tridiagonal (Sturm bisection, then inverse iteration: LAPACK
    stebz/stein).  It reports that vector's Rayleigh quotient in physical
    variables with the sum-of-squares stiffness form, since the bisection
    eigenvalue itself is only accurate to eps * ||T||, which POTENTIAL_CAP
    rows raise to 1e14.  The stein vector limits the result: at n = 1e6
    (d1 = 1, s = mu = R = 1) it is 1.0e-10 from a long-double inverse
    iteration.
    """
    lo, a_diag, a_off, d_w, links, pot = assembled_pencil(p)
    sqrt_d = np.sqrt(d_w)
    _, vec = eigh_tridiagonal(
        a_diag / d_w, a_off / (sqrt_d[:-1] * sqrt_d[1:]), select="i", select_range=(0, 0)
    )
    v = np.zeros(p.n + 1 - lo)
    v[:-1] = vec[:, 0] / sqrt_d
    stiffness = float(np.sum(links * np.diff(v) ** 2)) / p.h**2
    potential = float(np.sum(d_w * pot * v[:-1] ** 2))
    return (stiffness + potential) / float(np.sum(d_w * v[:-1] ** 2))


def scaled_energy(p, sigma: float, n: int) -> float:
    """F(sigma) = sigma^(-a) E1(sigma, B1), a = d2 / (d1 + (1+s) d2).

    The split objective whose critical point `minimize` locates, for the
    identity and finite-difference checks of its derivatives.
    """
    a = p.d2 / (p.d1 + (1.0 + p.s) * p.d2)
    prob = RadialProblem(d1=p.d1, s=p.s, mu=sigma, R=ball1_radius(p.d1), n=n)
    return math.exp(-a * math.log(sigma)) * solve_radial(prob).energy


def full_grid_lowest_eigenvalue(mask: np.ndarray, c_row: np.ndarray, hx: float, hy: float) -> float:
    """Smallest eigenvalue of the 5-point matrix over every masked node.

    The whole-domain assembly that the production solver folds onto one
    quadrant (a disk) or one line (a rectangle), solved by plain shift-invert
    Lanczos with default ordering.
    """
    count = int(mask.sum())
    idx = np.full(mask.shape, -1, dtype=np.int64)
    idx[mask] = np.arange(count)
    cy = c_row / (hy * hy)
    x_pair = mask[:-1, :] & mask[1:, :]
    y_pair = mask[:, :-1] & mask[:, 1:]
    links = (
        (idx[:-1, :][x_pair], idx[1:, :][x_pair], np.full(int(x_pair.sum()), -1.0 / (hx * hx))),
        (idx[:, :-1][y_pair], idx[:, 1:][y_pair], -cy[np.nonzero(y_pair)[0]]),
    )
    rows = [idx[mask]]
    cols = [idx[mask]]
    vals = [2.0 / (hx * hx) + 2.0 * cy[np.nonzero(mask)[0]]]
    for a, b, v in links:
        rows += [a, b]
        cols += [b, a]
        vals += [v, v]
    matrix = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(count, count),
    ).tocsc()
    return float(eigsh(matrix, k=1, sigma=0.0, v0=np.ones(count), tol=1e-13)[0][0])


def half_interval_lowest_eigenvalue(s: float, mu: float, half_length: float, n: int) -> float:
    """Smallest eigenvalue of -v'' + mu |x|^(2s) v on (-L, L), Dirichlet at +-L.

    Works in the original variable x, not the unit-volume scaling of the
    production solver.  The ground state is even, so only (0, L) is kept:
    cell-centred nodes x_i = (i + 1/2) h with h = L / (n + 1/2), the mirror
    v_(-1) = v_0 across x = 0 and v_n = 0 at x = L, each second order.  The
    potential is capped at 1e16 so that huge exponents stay finite; where
    the cap binds the ground state is already negligible.  The symmetric
    tridiagonal matrix is solved by shift-invert Lanczos.
    """
    h = half_length / (n + 0.5)
    x = (np.arange(n) + 0.5) * h
    potential = np.exp(np.minimum(math.log(mu) + 2.0 * s * np.log(x), math.log(1e16)))
    diag = 2.0 / (h * h) + potential
    diag[0] -= 1.0 / (h * h)
    off = np.full(n - 1, -1.0 / (h * h))
    matrix = sparse.diags([off, diag, off], [-1, 0, 1], format="csc")
    return float(eigsh(matrix, k=1, sigma=0.0, v0=np.ones(n), tol=1e-13)[0][0])


def golden_minimize(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Argmin of a unimodal function on [lo, hi] by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def run_cli(args, cwd=None, env=None, timeout: float = 600.0):
    """Run the package CLI of this checkout in a subprocess; returns CompletedProcess."""
    return run_python(["-m", "grushin", *args], cwd, env, timeout)


def run_python(args, cwd=None, env=None, timeout: float = 600.0):
    """A fresh interpreter with this checkout's package on its path; returns CompletedProcess."""
    cmd = [sys.executable, *args]
    if env is None:
        paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        cmd,
        cwd=cwd or REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def read_csv_text(text: str) -> tuple[list[str], list[list[str]]]:
    """Parse CSV text into (headers, rows of strings)."""
    reader = csv.reader(io.StringIO(text))
    records = list(reader)
    if not records:
        return [], []
    return records[0], records[1:]
