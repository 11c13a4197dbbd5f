"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test prints "[PASS] criterion N: ..." or "[FAIL] criterion N: ..."
before asserting, so the verdict survives in the captured output either
way.

Criterion 4 checks the approach of the split objective G_s(t) (d1 = d2 = 1,
V = 1) to its infinite-exponent plateau pi^2/4 for t > 2 against the
boundary-layer prediction, not against a fixed band.  The split reduces to
-v'' + mu |x|^(2s) v = lambda v on (-t/2, t/2) with mu = (pi t)^2.  Near
|x| = 1 the potential is mu e^(2s(x-1)), and the decaying layer solution is
K0((sqrt(mu)/s) e^(s(x-1))).  Its small-argument form -ln(z/2) - gamma
vanishes at x = 1 + delta with

    delta(s, t) = (ln(2s / (pi t)) - gamma) / s,   gamma = Euler's constant,

so the ground state sees an effective Dirichlet interval of half-length
1 + delta and G_s(t) / (pi^2/4) = r(s, t) + O(delta^2), r = (1 + delta)^-2.
The criterion requires |G_s(t) / (pi^2/4) - r(s, t)| < 1e-3 at s = 150,
t in {2.2, 3, 4}, and at t = 2.2 for s in {100, 150, 300} with 1 - G/plateau
strictly decreasing along that ladder.  It also checks G_150(2.2) against an
independent finite-difference solve in the original variable
(``oracles.half_interval_lowest_eigenvalue``) to 1e-5.  The deficit decays
like log(s)/s, so a fixed 2% band around the plateau is first met at t = 2.2
near s = 417, and at t = 3 and t = 4 not before the coupling overflows; the
README's acceptance-gate section gives the numbers.
"""

import math
import time

import numpy as np

from grushin.minimizer import ProblemParams, lambda1_product, lower_bounds, minimize
from grushin.planar import DiskProblem, solve_disk
from grushin.radial import RadialProblem, identity_residuals, solve_radial
from oracles import (
    J01_SQUARED,
    REPO_ROOT,
    dense_lowest_eigenvalue,
    half_interval_lowest_eigenvalue,
    read_csv_text,
    run_cli,
    scaled_energy_derivative,
)

PI2_4 = math.pi**2 / 4.0
TWO_PI_SQUARED = 2.0 * math.pi**2
UNIT_AREA_RHO = math.pi**-0.5

_OPT_CACHE: dict = {}


def _opt(d1: int, d2: int, s: float):
    key = (d1, d2, s)
    if key not in _OPT_CACHE:
        _OPT_CACHE[key] = minimize(ProblemParams(d1=d1, d2=d2, s=s), 2048)
    return _OPT_CACHE[key]


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def _cli_minimize(s: str) -> tuple[float, float]:
    start = time.perf_counter()
    result = run_cli(["minimize", "--s", s])
    wall = time.perf_counter() - start
    assert result.returncode == 0, result.stderr
    headers, rows = read_csv_text(result.stdout)
    return float(rows[0][headers.index("lambda1")]), wall


def test_criterion_01_small_exponent_optimum():
    lam, wall = _cli_minimize("0.001")
    dev = abs(lam - TWO_PI_SQUARED) / TWO_PI_SQUARED
    ok = dev < 0.005 and wall < 5.0
    assert _verdict(
        1, ok, f"minimize s=0.001: lambda1={lam:.4f} dev={dev:.2e} (<0.5%), wall={wall:.2f}s (<5s)"
    )


def test_criterion_02_moderate_exponent_optima():
    lam_half, wall_half = _cli_minimize("0.5")
    lam_one, wall_one = _cli_minimize("1")
    dev_half = abs(lam_half - 8.88) / 8.88
    dev_one = abs(lam_one - 5.78) / 5.78
    ok = dev_half < 0.02 and dev_one < 0.02 and wall_half < 10.0 and wall_one < 10.0
    assert _verdict(
        2,
        ok,
        f"s=0.5: {lam_half:.4f} (dev {dev_half:.2e}), s=1: {lam_one:.4f} "
        f"(dev {dev_one:.2e}), walls {wall_half:.2f}s/{wall_one:.2f}s (<10s)",
    )


def test_criterion_03_disk_values():
    targets = [(0.0, 18.17, 0.01), (0.5, 10.45, 0.03), (1.0, 8.90, 0.03)]
    details = []
    ok = True
    for s, expected, tol in targets:
        start = time.perf_counter()
        lam = solve_disk(DiskProblem(rho=UNIT_AREA_RHO, s=s, n=512)).extrapolated
        wall = time.perf_counter() - start
        dev = abs(lam - expected) / expected
        ok = ok and dev < tol and wall < 120.0
        details.append(f"s={s:g}: {lam:.4f} (dev {dev:.2e}, {wall:.1f}s)")
        if s == 0.0:
            oracle = math.pi * J01_SQUARED
            oracle_dev = abs(lam - oracle) / oracle
            ok = ok and oracle_dev < 0.01
            details.append(f"radial oracle dev {oracle_dev:.2e}")
    assert _verdict(3, ok, "; ".join(details))


def _layer_ratio(s: float, t: float) -> float:
    """Boundary-layer prediction r(s, t) = (1 + delta)^-2 of G_s(t) / (pi^2/4)."""
    delta = (math.log(2.0 * s / (math.pi * t)) - np.euler_gamma) / s
    return (1.0 + delta) ** -2


def test_criterion_04_large_exponent_flattening():
    start = time.perf_counter()
    points = [(150.0, 2.2), (150.0, 3.0), (150.0, 4.0), (100.0, 2.2), (300.0, 2.2)]
    ratios = {(s, t): lambda1_product(ProblemParams(1, 1, s), t) / PI2_4 for s, t in points}
    devs = {key: ratio - _layer_ratio(*key) for key, ratio in ratios.items()}
    layer_ok = all(abs(dev) < 1e-3 for dev in devs.values())
    deficits = [1.0 - ratios[(s, 2.2)] for s in (100.0, 150.0, 300.0)]
    flattening_ok = deficits[0] > deficits[1] > deficits[2]
    oracle = half_interval_lowest_eigenvalue(150.0, (math.pi * 2.2) ** 2, 1.1, 40000)
    oracle_dev = abs(ratios[(150.0, 2.2)] * PI2_4 - oracle) / oracle
    oracle_ok = oracle_dev < 1e-5
    disk = solve_disk(DiskProblem(rho=UNIT_AREA_RHO, s=150.0, n=256)).extrapolated
    disk_dev = abs(disk - math.pi**3 / 4.0) / (math.pi**3 / 4.0)
    disk_ok = disk_dev < 0.10
    wall = time.perf_counter() - start
    ok = layer_ok and flattening_ok and oracle_ok and disk_ok and wall < 300.0
    layer = "; ".join(
        f"s={s:g} t={t:g}: {ratios[(s, t)]:.6f} vs r={_layer_ratio(s, t):.6f} "
        f"(dev {devs[(s, t)]:+.2e})"
        for s, t in points
    )
    assert _verdict(
        4,
        ok,
        f"G/plateau vs boundary-layer r(s,t) (|dev|<1e-3): {layer}; "
        f"1-G/plateau at t=2.2, s=100/150/300 = "
        f"{deficits[0]:.4f}/{deficits[1]:.4f}/{deficits[2]:.4f} (strictly decreasing); "
        f"FD oracle dev {oracle_dev:.2e} (<1e-5); disk dev {disk_dev:.2e} (<10%); wall {wall:.1f}s",
    )


def test_criterion_05_derivative_matches_finite_differences():
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(20):
        d1 = int(rng.integers(1, 4))
        s = float(rng.uniform(0.25, 3.0))
        mu = float(rng.uniform(0.1, 100.0))
        sol = solve_radial(RadialProblem(d1, s, mu, 1.0, 2048))
        h = 1e-3 * mu
        e_plus = solve_radial(RadialProblem(d1, s, mu + h, 1.0, 2048)).energy
        e_minus = solve_radial(RadialProblem(d1, s, mu - h, 1.0, 2048)).energy
        fd = (e_plus - e_minus) / (2.0 * h)
        worst = max(worst, abs(sol.hf_derivative - fd) / abs(fd))
    ok = worst < 1e-5
    assert _verdict(5, ok, f"20 random instances, worst derivative rel err {worst:.2e} (<1e-5)")


def test_criterion_06_identity_residuals_refine():
    instances = [
        (1, 0.5, 2.0, 1.0),
        (1, 1.0, 8.0, 1.2),
        (2, 1.0, 3.0, 1.0),
        (2, 0.5, 1.0, 0.8),
        (3, 1.5, 4.0, 1.0),
        (3, 2.5, 6.0, 1.0),
    ]
    worst_ratio = math.inf
    ok = True
    for d1, s, mu, radius in instances:
        ladder = []
        for n in (512, 1024, 2048, 4096):
            p = RadialProblem(d1, s, mu, radius, n)
            ladder.append(identity_residuals(solve_radial(p), p))
        for k in range(3):
            seq = [row[k] for row in ladder]
            for coarse, fine in zip(seq, seq[1:]):
                if fine < 1e-12:
                    continue
                ratio = coarse / fine
                worst_ratio = min(worst_ratio, ratio)
                # O(1/n) shrinks 2x per doubling; allow 20% slack
                ok = ok and ratio > 1.6
    assert _verdict(
        6, ok, f"6 instances x 3 identities: slowest shrink {worst_ratio:.2f}x per doubling (>1.6)"
    )


_COMBOS = [(d1, d2, s) for d1, d2 in [(1, 1), (2, 1), (1, 2), (2, 3)] for s in (0.5, 1.0, 2.0)]


def test_criterion_07_uniqueness_certificate():
    ok = True
    bad = []
    for d1, d2, s in _COMBOS:
        r = _opt(d1, d2, s)
        p = ProblemParams(d1=d1, d2=d2, s=s)
        grid = np.geomspace(r.sigma_star / 100.0, r.sigma_star * 100.0, 40)
        signs = [scaled_energy_derivative(p, float(x), 2048) > 0.0 for x in grid]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        if changes != 1 or not r.F_second > 0.0:
            ok = False
            bad.append((d1, d2, s, changes, r.F_second))
    assert _verdict(
        7,
        ok,
        "12 (d1,d2,s) combos: derivative changes sign exactly once on the "
        f"40-point log grid and curvature is positive{'' if ok else '; bad: ' + repr(bad)}",
    )


def test_criterion_08_lower_bound_dominance():
    ok = True
    for d1, d2, s in _COMBOS:
        r = _opt(d1, d2, s)
        ok = ok and r.t_star >= r.vol_lower_bound * (1.0 - 1e-9)
        ok = ok and r.lambda1 >= r.lambda_lower_bound * (1.0 - 1e-9)
    r_small = minimize(ProblemParams(1, 1, 1e-3), 2048)
    small_gap = (r_small.t_star - r_small.vol_lower_bound) / r_small.t_star
    vol_lb_large, _ = lower_bounds(ProblemParams(1, 1, 1e3), 2048)
    large_gap = abs(vol_lb_large - 2.0) / 2.0
    ok = ok and small_gap < 0.01 and large_gap < 0.01
    assert _verdict(
        8,
        ok,
        f"bounds dominate on all 12 combos; sharpness: s=1e-3 volume gap "
        f"{small_gap:.2%} (<1%), s=1e3 bound vs 2 gap {large_gap:.2%} (<1%)",
    )


def test_criterion_09_dense_oracle_equivalence():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(10):
        d1 = int(rng.integers(1, 4))
        s = float(rng.uniform(0.25, 3.0))
        mu = float(rng.uniform(0.0, 100.0))
        radius = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(24, 65))
        p = RadialProblem(d1, s, mu, radius, n)
        fast = solve_radial(p).energy
        dense = dense_lowest_eigenvalue(p)
        worst = max(worst, abs(fast - dense) / abs(dense))
    ok = worst < 1e-10
    assert _verdict(9, ok, f"10 random pencils n<=64: worst rel gap to dense eig {worst:.2e} (<1e-10)")


def test_criterion_10_regression_and_determinism(tmp_path):
    regress = run_cli(["regress"], cwd=REPO_ROOT)
    regress_ok = regress.returncode == 0 and "regression passed" in regress.stdout
    outs = []
    for i in range(2):
        path = tmp_path / f"det{i}.csv"
        result = run_cli(["minimize", "--s", "1", "--n", "1024", "--out", str(path)])
        assert result.returncode == 0, result.stderr
        outs.append(path.read_bytes())
    deterministic = outs[0] == outs[1]
    ok = regress_ok and deterministic
    assert _verdict(
        10,
        ok,
        f"baseline regression exit={regress.returncode}; two CLI runs byte-identical={deterministic}",
    )
