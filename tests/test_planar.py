"""Direct 2-D solver checks.

The disk solver has an independent oracle: the radial reduction computes
the same eigenvalues through a completely different discretization.  Both
routes are compared here at matching physical parameters, along with
symmetry of the assembled stencil, the quadrant reduction (disks) and the
line operator (rectangles) against the full-grid assembly, the line
operator against the radial scheme it equals, grid-refinement behavior, and
the degenerate/overflow and eigensolver-failure guard rails.
"""

import math

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

import grushin.planar
from grushin.errors import DegenerateGrid, InvalidProblem, NonConvergence
from grushin.planar import (
    DiskProblem,
    DiskSolve,
    decoupled_rectangle_value,
    segment_limit_probe,
    solve_disk,
    solve_rectangle_full,
)
from grushin.planar import (
    _assemble,
    _coefficients,
    _disk_eig,
    _half_axis,
    _rectangle_eig,
    _shifted_factor,
    _smallest_eig,
)
from grushin.radial import RadialProblem, _line_pencil, mu1_ball, solve_radial
from oracles import J01_SQUARED, full_grid_lowest_eigenvalue

PI2_4 = math.pi**2 / 4.0
TWO_PI_SQUARED = 2.0 * math.pi**2
UNIT_AREA_RHO = math.pi**-0.5


# --------------------------------------------------------------- stencil


@pytest.mark.parametrize("n", [31, 32])
@pytest.mark.parametrize("s", [0.0, 1.0, 150.0])
def test_assembled_stencil_exactly_symmetric(n, s):
    xs = _half_axis(1.0, n)
    links, mass = _line_pencil(xs, 1, 0.0, 0.0)[1:3]
    xs = xs[:-1]
    mask = xs[:, None] ** 2 + xs[None, :] ** 2 < 1.0
    h = 2.0 / (n - 1)
    matrix = _assemble(mask, _coefficients(xs, s), h, links, mass)
    assert (matrix != matrix.T).nnz == 0
    assert matrix.shape == (int(mask.sum()),) * 2


@pytest.mark.parametrize("n", [31, 32, 64, 65])
@pytest.mark.parametrize("s", [0.0, 1.0, 150.0])
def test_assembled_stencil_is_the_masked_kronecker_sum(n, s):
    # the folded 1-D stencil written out by hand: a neighbour across the axis
    # is row 0's own mirror for even n, and for odd n the axis node's mass
    # 1/2 turns its link into sqrt(2) after symmetric scaling
    xs = _half_axis(1.0, n)
    links, mass = _line_pencil(xs, 1, 0.0, 0.0)[1:3]
    xs = xs[:-1]
    mask = xs[:, None] ** 2 + xs[None, :] ** 2 < 1.0
    h = 2.0 / (n - 1)
    size = xs.size
    t = (np.diag(np.full(size, 2.0)) - np.eye(size, k=1) - np.eye(size, k=-1)) / h**2
    if n % 2 == 1:
        t[0, 1] = t[1, 0] = -math.sqrt(2.0) / h**2
    else:
        t[0, 0] = 1.0 / h**2
    c = _coefficients(xs, s)
    square = scipy.sparse.kron(t, np.eye(size)) + scipy.sparse.kron(np.diag(c), t)
    keep = np.flatnonzero(mask)
    expected = square.tocsr()[keep][:, keep].toarray()
    actual = _assemble(mask, c, h, links, mass).toarray()
    np.testing.assert_allclose(actual, expected, rtol=1e-15, atol=0.0)


def test_degenerate_grid_rejected():
    # node 0 of every line lies nearest the potential's minimum; here one
    # node out the potential is more than 1/h^2 higher, a well the grid does
    # not resolve.  The d1=1 origin, sampling mu 0^(2s) = 0 against mu ~ 9.7e14,
    # bound a spurious state at E ~ 1.3e8
    with pytest.raises(DegenerateGrid):
        decoupled_rectangle_value(1.0, 1e-7, 0.001)
    # the rectangle's node 0: on the axis for odd n, half a step off it for even n
    for n in (64, 65):
        with pytest.raises(DegenerateGrid):
            solve_rectangle_full(1.0, 1e-7, 0.001, n)
    # at r = h for d1 >= 2: mu = 1e16, s = 1 returned +11 and +7.0 relative
    # error (d1 = 2, 3) at n = 1024, and +0.20 and -0.043 at n = 4096
    for d1 in (2, 3):
        for n in (1024, 4096):
            with pytest.raises(DegenerateGrid):
                solve_radial(RadialProblem(d1, 1.0, 1e16, 0.5, n))
    # 16 times finer, the well is resolved: 2.0215e8 against 2 sqrt(mu) = 2e8
    e = solve_radial(RadialProblem(2, 1.0, 1e16, 0.5, 16384)).energy
    assert abs(e - 2.0215e8) / 2.0215e8 < 1e-4


def test_coefficient_overflow_rejected():
    with pytest.raises(InvalidProblem):
        _coefficients(np.array([0.5, 2.0]), 600.0)


@pytest.mark.parametrize("n", [64, 65])
def test_coefficient_overflow_rejected_by_solvers(n):
    # the disk's y-coefficients overflow; a rectangle's line potential is
    # capped instead (test_rectangle_line_operator_is_the_radial_scheme)
    with pytest.raises(InvalidProblem):
        solve_disk(DiskProblem(rho=2.0, s=600.0, n=n))


# ------------------------------------------------------ quadrant reduction


def _full_axis(a, n):
    # the whole axis with the same mirror-exact coordinates as _half_axis
    return a * (np.arange(1 - n, n, 2) / (n - 1))


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("s", [0.0, 1.0, 150.0, 300.0])
def test_disk_quadrant_matches_full_grid(n, s):
    xs = _full_axis(UNIT_AREA_RHO, n)
    mask = xs[:, None] ** 2 + xs[None, :] ** 2 < UNIT_AREA_RHO**2
    h = 2.0 * UNIT_AREA_RHO / (n - 1)
    full = full_grid_lowest_eigenvalue(mask, _coefficients(xs, s), h, h)
    quadrant, count, _, _ = _disk_eig(UNIT_AREA_RHO, s, n, 0.0)
    assert abs(quadrant - full) / full <= 1e-10
    assert count == int(mask[n // 2 :, n // 2 :].sum())


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize(
    "t, s",
    [pytest.param(1.645, s, id=f"{s}") for s in (0.0, 1.0, 150.0, 300.0)]
    + [pytest.param(3.0, s, id=f"wide-{s}") for s in (0.0, 1.0, 150.0, 300.0)],
)
def test_rectangle_quadrant_matches_full_grid(n, t, s):
    # the line operator against the whole 2-D grid; on the wide rectangle
    # (t=3, half-width 1.5) |x|^(2s) reaches ~1e52 (s=150) and ~1e105 (s=300)
    V = 1.0
    xs = _full_axis(0.5 * t, n)
    mask = np.zeros((n, n), dtype=bool)
    mask[1:-1, 1:-1] = True
    full = full_grid_lowest_eigenvalue(mask, _coefficients(xs, s), t / (n - 1), (V / t) / (n - 1))
    line, count, _, _ = _rectangle_eig(t, V, s, n)
    assert abs(line - full) / full <= 1e-10
    assert count == (n - 1) // 2


@pytest.mark.parametrize("n", [65, 129, 257, 513])
@pytest.mark.parametrize(
    "t, V, s",
    [pytest.param(t, 1.0, s, id=f"{t}-{s}")
     for s in (0.0, 1.0, 150.0, 505.0) for t in (1.0, 1.645, 2.0, 3.0, 4.0)]
    # mu ~ 1.6e142: a cap of POTENTIAL_CAP * mu would overflow the solver's norms
    + [pytest.param(4.0, 1e-70, 150.0, id="4.0-150.0-V1e-70")]
    # |x|^(2s) overflows a double at x = 2, and mu |x|^(2s) at mu ~ 1.6e142,
    # s = 505; the cap clips both, quietly
    + [pytest.param(4.0, 1.0, 600.0, id="4.0-600.0"),
       pytest.param(4.0, 1e-70, 505.0, id="4.0-505.0-V1e-70")],
)
def test_rectangle_line_operator_is_the_radial_scheme(n, t, V, s):
    # For odd n the line operator is the d1=1 radial scheme on (0, t/2) with
    # (n-1)/2 cells and coupling mu = lowest eigenvalue of the y stencil,
    # down to the POTENTIAL_CAP wall (t=4, s=505 puts mu |x|^(2s) above 1e299)
    hy = (V / t) / (n - 1)
    mu = (4.0 / hy**2) * math.sin(math.pi / (2 * (n - 1))) ** 2
    line, _, _, _ = _rectangle_eig(t, V, s, n)
    radial = solve_radial(RadialProblem(d1=1, s=s, mu=mu, R=t / 2, n=(n - 1) // 2)).energy
    assert abs(line - radial) / radial <= 1e-10


# ------------------------------------------------------------ disk route


def test_disk_laplacian_matches_radial_oracle():
    # s=0 disk of radius 1: both routes must deliver j01^2
    solve = solve_disk(DiskProblem(rho=1.0, s=0.0, n=256))
    assert abs(solve.extrapolated - J01_SQUARED) / J01_SQUARED < 0.01
    oracle = mu1_ball(2, math.pi)
    assert abs(solve.extrapolated - oracle) / oracle < 0.01


def test_disk_known_value_s1():
    solve = solve_disk(DiskProblem(rho=UNIT_AREA_RHO, s=1.0, n=256))
    assert abs(solve.extrapolated - 8.90) / 8.90 < 0.03


def test_disk_monotone_in_exponent_inside_unit_radius():
    # for rho <= 1 the coefficient |x|^(2s) decreases pointwise in s
    vals = [solve_disk(DiskProblem(rho=0.9, s=s, n=128)).lambda1 for s in (0.0, 0.5, 1.0)]
    assert vals[0] > vals[1] > vals[2]


def test_disk_monotone_in_radius():
    small = solve_disk(DiskProblem(rho=0.8, s=1.0, n=128)).lambda1
    large = solve_disk(DiskProblem(rho=1.0, s=1.0, n=128)).lambda1
    assert small > large


def test_disk_mesh_refinement_first_order():
    # the masked boundary costs one order: errors shrink 1.5-2.2x per
    # doubling rather than 4x
    errs = []
    for n in (64, 128, 256):
        lam, _, _, _ = _disk_eig(1.0, 0.0, n, 0.0)
        errs.append(abs(lam - J01_SQUARED))
    assert 1.3 < errs[0] / errs[1] < 2.6
    assert 1.3 < errs[1] / errs[2] < 2.6
    assert errs[0] > errs[1] > errs[2]


def test_disk_solve_metadata():
    p = DiskProblem(rho=1.0, s=0.5, n=64)
    solve = solve_disk(p)
    assert solve.grid_h == pytest.approx(2.0 / 63.0)
    assert 0 < solve.interior_count < 64 * 64
    assert solve.iterations >= 1


# ------------------------------------------------------- rectangle route


def test_rectangle_laplacian_extrapolates_to_exact_value():
    # V=1e-7 puts mu ~ 9.9e14 on every node, above POTENTIAL_CAP, which must
    # not flatten it; at n=65536 the residual's rounding floor eps ||T|| ~ n^2
    # is above 1e-8 of the eigenvalue, so no fixed relative gate could pass
    for V, n in ((1.0, 128), (1e-7, 128), (1.0, 65536)):
        exact = decoupled_rectangle_value(1.0, V, 0.0)
        full = solve_rectangle_full(1.0, V, 0.0, n)
        assert abs(full.extrapolated - exact) / exact < 1e-4


@pytest.mark.parametrize("n", [65, 128, 129, 257, 1025])
def test_rectangle_s0_starts_from_its_eigenvector(n):
    # cos(pi x/t), with its axis entry scaled by 1/sqrt(2) as M^(1/2) scales
    # it, is the s=0 ground state: one or two LDL^T solves, where the
    # unscaled cosine takes four or five at odd n
    assert _rectangle_eig(1.645, 1.0, 0.0, n)[2] <= 2


def test_rectangle_mesh_refinement_second_order():
    errs = [
        abs(solve_rectangle_full(1.0, 1.0, 0.0, n).lambda1 - TWO_PI_SQUARED)
        for n in (64, 128, 256)
    ]
    assert 3.2 < errs[0] / errs[1] < 4.8
    assert 3.2 < errs[1] / errs[2] < 4.8


def test_rectangle_cross_route_agreement():
    # the 2-D scheme's line operator against the separated radial route
    direct = solve_rectangle_full(1.2, 1.0, 1.0, 512).lambda1
    separated = decoupled_rectangle_value(1.2, 1.0, 1.0, 4096)
    assert abs(direct - separated) / separated < 0.02


def test_rectangle_large_exponent_plateau_coincidence():
    # at t=2 exactly, the objective crosses pi^2/4 already at s=150
    full = solve_rectangle_full(2.0, 1.0, 150.0, 256)
    assert abs(full.extrapolated - PI2_4) / PI2_4 < 0.05


def test_decoupled_rectangle_s0_closed_form():
    val = decoupled_rectangle_value(2.0, 1.0, 0.0)
    exact = (math.pi / 2.0) ** 2 + (2.0 * math.pi) ** 2
    assert abs(val - exact) / exact < 1e-12


# ----------------------------------------------------------------- probe


def test_probe_tends_to_longest_segment_value():
    table = segment_limit_probe(1.0, (1.0, 150.0), 96)
    assert table.headers == ("s", "lambda1", "reference")
    ref = table.rows[0][2]
    assert abs(ref - PI2_4) / PI2_4 < 1e-12
    # the eigenvalue decreases along the ladder toward the segment value
    assert table.rows[0][1] > table.rows[1][1]
    assert abs(table.rows[1][1] - ref) / ref < 0.10


def test_probe_wide_disk_same_reference():
    # rho=2 clips the segment at the coefficient's unit scale: L=2 again
    table = segment_limit_probe(2.0, (1.0, 150.0), 96)
    assert abs(table.rows[0][2] - PI2_4) / PI2_4 < 1e-12
    assert abs(table.rows[1][1] - PI2_4) / PI2_4 < 0.10


def test_probe_requires_increasing_ladder():
    with pytest.raises(InvalidProblem):
        segment_limit_probe(1.0, (1.0, 1.0), 96)
    with pytest.raises(InvalidProblem):
        segment_limit_probe(0.0, (1.0,), 64)
    with pytest.raises(InvalidProblem):
        segment_limit_probe(1.0, (2.0, 1.0), 96)


# ------------------------------------------------------------ guard rails


def test_disk_problem_validation():
    with pytest.raises(InvalidProblem):
        DiskProblem(rho=0.0, s=1.0, n=128)
    with pytest.raises(InvalidProblem):
        DiskProblem(rho=1.0, s=-0.5, n=128)
    for n in (32, math.nan, math.inf):
        with pytest.raises(InvalidProblem):
            DiskProblem(rho=1.0, s=1.0, n=n)


def test_disk_solve_consistency_guard():
    with pytest.raises(InvalidProblem):
        DiskSolve(lambda1=1.0, grid_h=0.1, interior_count=100, extrapolated=2.0, iterations=3,
                  sigma=0.0)
    with pytest.raises(InvalidProblem):
        DiskSolve(lambda1=-1.0, grid_h=0.1, interior_count=100, extrapolated=-1.0, iterations=3,
                  sigma=0.0)
    # the certified shift must lie in [0, lambda1)
    for sigma in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(InvalidProblem):
            DiskSolve(lambda1=1.0, grid_h=0.1, interior_count=100, extrapolated=1.0,
                      iterations=3, sigma=sigma)


def test_repeated_solves_bit_identical():
    # a fixed Lanczos start vector keeps CSV output byte-identical
    p = DiskProblem(rho=UNIT_AREA_RHO, s=150.0, n=96)
    assert solve_disk(p).extrapolated == solve_disk(p).extrapolated


def test_lanczos_checks_convergence_at_every_solve():
    # the s=0 disk converges in 4 Lanczos steps plus the refinement solve at
    # the cascade's shift (7 plus 1 at the shift 0); a fixed 40-vector basis
    # would cost 42
    assert solve_disk(DiskProblem(rho=1.0, s=0.0, n=128)).iterations <= 12


def test_lanczos_thick_restart_on_clustered_chord_modes():
    # rho=1.3, s=1000 factored at the shift 0, right under the near-degenerate
    # chord modes: 229-241 LU solves with a thick restart that keeps half the
    # basis
    lam, _, solves, sigma = _disk_eig(1.3, 1000.0, 128, 0.0)
    assert sigma == 0.0
    assert solves <= 1200
    assert 2.0 < lam < 2.5


class _NanSolve:
    """A factor with a symmetric permutation and positive pivots whose
    solve returns nan."""

    pivot = 1.0

    def __init__(self, matrix, **kwargs):
        m = matrix.shape[0]
        self.perm_r = self.perm_c = np.arange(m)
        pivots = np.ones(m)
        pivots[-1] = self.pivot
        self.U = scipy.sparse.diags(pivots, format="csc")

    def solve(self, b):
        return np.full_like(b, np.nan)


class _NonPositivePivot(_NanSolve):
    pivot = 0.0


class _UnsymmetricPermutation(_NanSolve):
    def __init__(self, matrix, **kwargs):
        super().__init__(matrix)
        self.perm_r = self.perm_r[::-1]


@pytest.mark.parametrize(
    "module, name, value, message",
    [
        (grushin.planar, "_LANCZOS_SOLVES", 3, "did not converge in 3 LU solves"),
        (scipy.sparse.linalg, "splu", _NanSolve, "non-finite"),
    ],
    ids=["no-convergence", "arpack-error"],
)
def test_nonconvergence_when_lanczos_fails(monkeypatch, module, name, value, message):
    # too few LU solves for the s=150 cluster, or an LU solve that returns nan
    monkeypatch.setattr(module, name, value)
    with pytest.raises(NonConvergence, match=message):
        solve_disk(DiskProblem(rho=UNIT_AREA_RHO, s=150.0, n=64))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda vec: np.roll(vec, 1),
        lambda vec: np.ones_like(vec),
        lambda vec: np.zeros_like(vec),
    ],
    ids=["shifted", "start-vector", "zero"],
)
def test_nonconvergence_on_bad_eigenpair(monkeypatch, corrupt):
    # the disk's Lanczos vector must pass the residual gate, and the
    # rectangle's inverse iteration, fed corrupted LDL^T solves, must fail
    # its own certificate rather than return
    lanczos = grushin.planar._lanczos
    monkeypatch.setattr(grushin.planar, "_lanczos", lambda *a: corrupt(lanczos(*a)))
    with pytest.raises(NonConvergence, match="eigenpair residual"):
        solve_disk(DiskProblem(rho=UNIT_AREA_RHO, s=1.0, n=64))
    dpttrs = scipy.linalg.lapack.dpttrs

    def corrupted(*args, **kwargs):
        x, info = dpttrs(*args, **kwargs)
        return corrupt(x), info

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", corrupted)
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(NonConvergence):
        solve_rectangle_full(1.0, 1.0, 1.0, 64)


# ------------------------------------------------------------- inertia


def _disk_matrix(rho, s, n):
    xs = _half_axis(rho, n)
    links, mass = _line_pencil(xs, 1, 0.0, 0.0)[1:3]
    xs = xs[:-1]
    mask = xs[:, None] ** 2 + xs[None, :] ** 2 < rho * rho
    return _assemble(mask, _coefficients(xs, s), 2.0 * rho / (n - 1), links, mass)


def test_inertia_count_on_the_s150_chord_cluster():
    # sixteen chord modes sit within 1e-9 of the reported value, so a residual
    # alone cannot tell lambda1 from its neighbours; the factor at the
    # returned shift counts none below it
    solve = solve_disk(DiskProblem(rho=UNIT_AREA_RHO, s=150.0, n=256))
    matrix = _disk_matrix(UNIT_AREA_RHO, 150.0, 256)
    assert _shifted_factor(matrix, solve.lambda1 * (1.0 + 1e-9))[1] == 16
    assert _shifted_factor(matrix, solve.sigma)[1] == 0
    assert 0.0 < solve.sigma < solve.lambda1


def test_every_solve_carries_a_certified_shift():
    # the enclosure (sigma, lambda1] holds the independent full-grid value
    n = 64
    xs = _full_axis(UNIT_AREA_RHO, n)
    mask = xs[:, None] ** 2 + xs[None, :] ** 2 < UNIT_AREA_RHO**2
    h = 2.0 * UNIT_AREA_RHO / (n - 1)
    full = full_grid_lowest_eigenvalue(mask, _coefficients(xs, 150.0), h, h)
    disk = solve_disk(DiskProblem(rho=UNIT_AREA_RHO, s=150.0, n=n))
    assert 0.0 <= disk.sigma < full <= disk.lambda1 * (1.0 + 1e-10)

    xs = _full_axis(0.5 * 1.645, n)
    mask = np.zeros((n, n), dtype=bool)
    mask[1:-1, 1:-1] = True
    full = full_grid_lowest_eigenvalue(mask, _coefficients(xs, 1.0), 1.645 / (n - 1),
                                       (1.0 / 1.645) / (n - 1))
    rect = solve_rectangle_full(1.645, 1.0, 1.0, n)
    assert 0.0 <= rect.sigma < full <= rect.lambda1 * (1.0 + 1e-10)


def test_shift_above_the_ground_state_backs_off():
    # a guess twice lambda1 is refused by the inertia count at margins 1e-3,
    # 8e-3 and 0.064 and accepted at 0.512; the eigenvalue does not move
    matrix = _disk_matrix(1.0, 1.0, 64)
    lam, sigma, _ = _smallest_eig(matrix, 0.0)
    backed, backed_sigma, _ = _smallest_eig(matrix, 2.0 * lam)
    assert sigma == 0.0
    assert backed_sigma == pytest.approx(2.0 * lam * (1.0 - 0.512), rel=1e-14)
    assert backed_sigma < lam
    assert backed == pytest.approx(lam, rel=1e-12)


def test_rho13_s1000_disk_is_certified_across_non_monotone_levels():
    # lambda at n=64 (2.4126) lies above lambda at n=128 (2.4024), so the
    # n=128 level backs off once; the solve still ends certified
    solve = solve_disk(DiskProblem(rho=1.3, s=1000.0, n=256))
    assert 0.0 < solve.sigma < solve.lambda1
    assert solve.iterations <= 100


@pytest.mark.parametrize(
    "factor, message",
    [(_NonPositivePivot, "at or below 0"), (_UnsymmetricPermutation, "off the diagonal")],
    ids=["non-positive-pivot", "unsymmetric-permutation"],
)
def test_wrong_inertia_raises(monkeypatch, factor, message):
    monkeypatch.setattr(scipy.sparse.linalg, "splu", factor)
    with pytest.raises(NonConvergence, match=message):
        solve_disk(DiskProblem(rho=UNIT_AREA_RHO, s=150.0, n=64))


def test_non_positive_pivot_at_every_shift_stops_at_zero(monkeypatch):
    # the margin grows 8-fold per refused shift and ends at the shift 0
    matrix = _disk_matrix(1.0, 1.0, 64)
    shifts = []

    class _Recording(_NonPositivePivot):
        def __init__(self, shifted, **kwargs):
            shifts.append(matrix.diagonal()[0] - shifted.diagonal()[0])
            super().__init__(shifted)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", _Recording)
    with pytest.raises(NonConvergence, match="at or below 0"):
        _smallest_eig(matrix, 10.0)
    assert shifts == pytest.approx([10.0 * (1.0 - 1e-3 * 8.0**k) for k in range(4)] + [0.0])


def test_rectangle_input_validation():
    with pytest.raises(InvalidProblem):
        solve_rectangle_full(0.0, 1.0, 1.0, 64)
    with pytest.raises(InvalidProblem):
        solve_rectangle_full(1.0, -1.0, 1.0, 64)
    with pytest.raises(InvalidProblem):
        solve_rectangle_full(1.0, 1.0, -0.5, 64)
    for n in (math.nan, math.inf):
        with pytest.raises(InvalidProblem):
            solve_rectangle_full(1.0, 1.0, 1.0, n)
