"""Command-line interface checks.

Most tests drive main() in-process (capsys catches the emitted CSV); a
couple of end-to-end smokes run the installed module in a subprocess.
Every documented exit code is exercised.
"""

import concurrent.futures
import math
import os
import re

import pytest

import grushin.cli as cli
from grushin.asymptotics import LimitKind, large_s_limit, limit_profile
from grushin.baseline import BASELINE_HEADERS, regression_suite
from grushin.cli import (
    DEFAULT_S_LADDER_INF,
    DEFAULT_S_LADDER_ZERO,
    main,
    parse_config,
)
from grushin.errors import InvalidProblem, NonConvergence, UsageError
from grushin.minimizer import ProblemParams, lambda1_product, minimize
from grushin.planar import DiskProblem, segment_limit_probe, solve_disk, solve_rectangle_full
from oracles import read_csv_text, run_cli, run_python


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("GRUSHIN_DEFAULT_N", raising=False)


def _write_baseline(path, rows):
    lines = [",".join(BASELINE_HEADERS)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------- parsing


def test_parse_minimize_defaults():
    cfg = parse_config(["minimize", "--s", "1"])
    assert cfg.command == "minimize"
    assert (cfg.d1, cfg.d2, cfg.s, cfg.V) == (1, 1, 1.0, 1.0)
    assert cfg.grid_n == 4096
    assert cfg.output_path == "-"
    assert cfg.jobs == 1


def test_parse_disk_defaults():
    cfg = parse_config(["disk", "--rho", "0.5641896", "--s", "0.5"])
    assert cfg.rho == pytest.approx(math.pi**-0.5, rel=1e-6)
    assert cfg.s == 0.5
    assert cfg.grid_n == 512


def test_parse_sweep_lists_and_grid_shorthand():
    cfg = parse_config(["sweep-s", "--s-list", "0.5,1,2,3,150", "--t-grid", "1:3:5"])
    assert cfg.s_list == (0.5, 1.0, 2.0, 3.0, 150.0)
    assert cfg.t_grid == (1.0, 1.5, 2.0, 2.5, 3.0)


def test_parse_limit_selects_default_ladder():
    zero = parse_config(["sweep-s", "--limit", "zero"])
    assert zero.limit is LimitKind.S_TO_ZERO
    assert zero.s_list == DEFAULT_S_LADDER_ZERO
    inf = parse_config(["sweep-s"])
    assert inf.limit is None
    assert inf.s_list == DEFAULT_S_LADDER_INF


def test_env_var_sets_default_grid(monkeypatch):
    monkeypatch.setenv("GRUSHIN_DEFAULT_N", "777")
    assert parse_config(["minimize", "--s", "1"]).grid_n == 777
    # an explicit flag still wins
    assert parse_config(["minimize", "--s", "1", "--n", "256"]).grid_n == 256
    monkeypatch.setenv("GRUSHIN_DEFAULT_N", "abc")
    with pytest.raises(UsageError):
        parse_config(["minimize", "--s", "1"])


def test_config_file_merges_under_flags(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment line\ns = 2.0\nn = 512\n")
    cfg = parse_config(["minimize", "--config", str(cfg_file), "--s", "3"])
    assert cfg.s == 3.0  # flag overrides file
    assert cfg.grid_n == 512  # file fills the gap


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("bogus = 1\n")
    with pytest.raises(UsageError):
        parse_config(["minimize", "--config", str(bad_key)])
    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("just words\n")
    with pytest.raises(UsageError):
        parse_config(["minimize", "--config", str(bad_line)])
    with pytest.raises(UsageError):
        parse_config(["minimize", "--config", str(tmp_path / "missing.cfg")])
    # keys must name flags of the command being run; `config` is not one
    for line in ("rho = 1", "config = x", "jobs = 2"):
        foreign = tmp_path / "foreign.cfg"
        foreign.write_text(line + "\n")
        with pytest.raises(UsageError):
            parse_config(["minimize", "--config", str(foreign)])
    # closed-form limit curves take no grid size
    foreign.write_text("n = 512\n")
    with pytest.raises(UsageError):
        parse_config(["limits", "--config", str(foreign)])


def test_flag_validation(tmp_path):
    with pytest.raises(UsageError):
        parse_config(["minimize", "--s", "abc"])
    with pytest.raises(UsageError):
        parse_config(["sweep-s", "--jobs", "0"])
    with pytest.raises(UsageError):
        parse_config(["sweep-s", "--t-grid", "3:1:5"])
    assert main(["minimize", "--s", "0"]) == 2  # InvalidProblem, from the handler
    # svg is only a flag of plotting commands, on the command line and as a
    # config key
    cfg_file = tmp_path / "svg.cfg"
    cfg_file.write_text("svg = x.svg\n")
    with pytest.raises(UsageError):
        parse_config(["minimize", "--config", str(cfg_file)])
    assert main(["minimize", "--svg", "x.svg"]) == 2  # argparse rejection


# ------------------------------------------------------------ exit codes


def test_exit_code_usage_error():
    assert main(["minimize", "--s", "not-a-number"]) == 2


def test_exit_code_missing_subcommand():
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv",
    [["disk", "--jobs", "2"], ["limits", "--s", "2"], ["limits", "--n", "512"],
     ["sweep-s", "--s", "2"], ["regress", "--n", "64"], ["regress", "--out", "x.csv"]],
)
def test_flags_that_would_be_ignored_are_rejected(argv):
    assert main(argv) == 2


def test_exit_code_runtime_invalid(capsys):
    assert main(["solve1d", "--t", "-1", "--n", "256"]) == 2
    assert "error:" in capsys.readouterr().err


#: argv whose closed forms or grids overflow, each with the library call it makes
_OVERFLOWS = [
    ("limits --limit zero --t-grid 1:1e200:3",
     lambda: limit_profile(ProblemParams(1, 1, 1.0), LimitKind.S_TO_ZERO, (1.0, 5e199))),
    ("limits --t-grid 1e-300,1", lambda: large_s_limit(1, 1e-300)),
    ("solve1d --t 1e-200 --s 1 --n 64",
     lambda: lambda1_product(ProblemParams(1, 1, 1.0), 1e-200, 64)),
    ("minimize --s 0.01 --V 5e-324 --n 256",
     lambda: minimize(ProblemParams(1, 1, 0.01, 5e-324), 256)),
    ("probe --rho 1e-200 --s-list 1 --n 64", lambda: segment_limit_probe(1e-200, (1.0,), 64)),
    ("rectangle --t 1 --V 1e-300 --s 1 --n 64", lambda: solve_rectangle_full(1.0, 1e-300, 1.0, 64)),
    ("rectangle --t 1e-200 --V 1 --s 1 --n 64",
     lambda: solve_rectangle_full(1e-200, 1.0, 1.0, 64)),
    ("rectangle --t 1e200 --V 1e300 --s 1 --n 64",
     lambda: solve_rectangle_full(1e200, 1e300, 1.0, 64)),
    ("disk --rho 1e-200 --s 1 --n 64", lambda: solve_disk(DiskProblem(1e-200, 1.0, 64))),
    ("disk --rho 1e200 --s 1 --n 64", lambda: solve_disk(DiskProblem(1e200, 1.0, 64))),
]


@pytest.mark.parametrize("argv, call", _OVERFLOWS, ids=[argv for argv, _ in _OVERFLOWS])
def test_overflowing_inputs_are_invalid_problems(argv, call):
    # each used to exit 1 with an OverflowError or ZeroDivisionError
    # traceback, or (a rectangle of width 1e-200) to print NumPy warnings
    # above its error line
    with pytest.raises(InvalidProblem):
        call()
    proc = run_cli(argv.split(), timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_exit_code_degenerate_grid(tmp_path, capsys):
    # 1024 cells do not resolve the d1 = 2 well at mu ~ 9.9e12, s = 1: the
    # solve returned 6855.98, 9.1% above 6283.37 at n = 65536
    out = tmp_path / "profile.csv"
    argv = ["solve1d", "--d1", "2", "--s", "1", "--t", "1000", "--n", "1024", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert not out.exists() and captured.out == ""


def test_exit_code_nonconvergence(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NonConvergence("iteration stalled")

    monkeypatch.setattr(cli, "solve_disk", boom)
    assert main(["disk", "--n", "64"]) == 4
    assert "iteration stalled" in capsys.readouterr().err


def test_exit_code_oserror(tmp_path):
    target = tmp_path / "no_such_dir" / "out.csv"
    assert main(["minimize", "--s", "1", "--n", "256", "--out", str(target)]) == 1


def test_exit_code_baseline_missing(tmp_path, capsys):
    assert main(["regress", "--baseline", str(tmp_path / "none.csv")]) == 3
    assert "baseline" in capsys.readouterr().err


# ---------------------------------------------------------------- output


def test_solve1d_emits_profile(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code = main(["solve1d", "--s", "1", "--t", "1.5", "--n", "256", "--out", str(out)])
    assert code == 0
    assert "lambda1 =" in capsys.readouterr().err
    headers, rows = read_csv_text(out.read_text())
    assert headers == ["r", "v"]
    assert len(rows) == 257  # n + 1 grid nodes
    assert float(rows[-1][1]) == 0.0


def test_minimize_emits_result_row(capsys):
    assert main(["minimize", "--s", "1", "--n", "1024"]) == 0
    headers, rows = read_csv_text(capsys.readouterr().out)
    assert headers == list(cli.MinimizeResult.CSV_HEADERS)
    assert len(rows) == 1
    lam = float(rows[0][headers.index("lambda1")])
    assert abs(lam - 5.78) / 5.78 < 0.02


def test_disk_and_rectangle_rows(capsys):
    assert main(["disk", "--rho", "1.0", "--s", "0", "--n", "64"]) == 0
    headers, rows = read_csv_text(capsys.readouterr().out)
    assert rows[0][0] == "disk"
    assert float(rows[0][4]) > 0.0
    assert main(["rectangle", "--t", "1", "--V", "1", "--s", "0", "--n", "64"]) == 0
    headers, rows = read_csv_text(capsys.readouterr().out)
    assert rows[0][0] == "rectangle"
    lam = float(rows[0][5])
    assert abs(lam - 2.0 * math.pi**2) / (2.0 * math.pi**2) < 0.01


def test_disk_row_where_the_potential_overflows(capsys):
    # |x|^(2s) overflows a double near x = 2; the capped disk solves
    assert main(["disk", "--rho", "2", "--s", "600", "--n", "64"]) == 0
    headers, rows = read_csv_text(capsys.readouterr().out)
    assert headers[0] == "shape" and len(rows) == 1
    assert rows[0][0] == "disk" and float(rows[0][4]) > 0.0


def test_limits_table(capsys):
    assert main(["limits", "--t-grid", "2.5,3.0"]) == 0
    headers, rows = read_csv_text(capsys.readouterr().out)
    assert headers == ["t", "G_limit"]
    # default limit is the large-exponent curve, flat past tau=2
    assert float(rows[0][1]) == pytest.approx(float(rows[1][1]))


def test_probe_svg_written(tmp_path):
    svg = tmp_path / "probe.svg"
    code = main(
        ["probe", "--rho", "1.0", "--s-list", "1,2", "--n", "64",
         "--out", str(tmp_path / "probe.csv"), "--svg", str(svg)]
    )
    assert code == 0
    # one lambda1 line through a point per s, not one empty line per s
    assert [len(p.split()) for p in re.findall(r'points="([^"]*)"', svg.read_text())] == [2]


def test_sweep_deterministic_and_parallel_identical(tmp_path):
    args = ["sweep-s", "--s-list", "0.5,1", "--t-grid", "1:2:3", "--n", "256"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert main([*args, "--out", str(paths[0])]) == 0
    assert main([*args, "--out", str(paths[1])]) == 0
    assert main([*args, "--out", str(paths[2]), "--jobs", "2"]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


# --------------------------------------------------------------- regress


def test_regress_pass_and_fail(tmp_path, capsys):
    value = lambda1_product(ProblemParams(1, 1, 1.0), 2.0, 512)
    good = tmp_path / "good.csv"
    _write_baseline(good, [("gs_t2", "gs", 1, 1, 1.0, 1.0, 2.0, "", 512, value, 1e-9)])
    assert main(["regress", "--baseline", str(good)]) == 0
    out = capsys.readouterr().out
    assert "[OK]" in out and "regression passed" in out

    bad = tmp_path / "bad.csv"
    _write_baseline(bad, [("gs_t2", "gs", 1, 1, 1.0, 1.0, 2.0, "", 512, value * 1.5, 1e-9)])
    assert main(["regress", "--baseline", str(bad)]) == 3
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert "gs_t2" in captured.err


def test_regress_parallel_output_identical(tmp_path, capsys, monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            pools.append(self._max_workers)
            return super().map(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    rows = []
    for t in (1.5, 2.0):
        value = lambda1_product(ProblemParams(1, 1, 1.0), t, 512)
        rows.append((f"gs_t{t}", "gs", 1, 1, 1.0, 1.0, t, "", 512, value, 1e-9))
    # minimize warm-starts its Newton iterates; its value is exact here, so a
    # start that leaked from an earlier call would show as rel_dev != 0
    value = minimize(ProblemParams(1, 1, 1.0), 512).lambda1
    rows.append(("minimize_s1", "minimize", 1, 1, 1.0, 1.0, "", "", 512, value, 1e-9))
    path = tmp_path / "three.csv"
    _write_baseline(path, rows)
    assert main(["regress", "--baseline", str(path)]) == 0
    serial = capsys.readouterr().out
    assert main(["regress", "--baseline", str(path), "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert serial.count("[OK]") == 3
    assert serial.count("rel_dev=0.000e+00") == 3
    assert pools == [2]  # only the --jobs 2 run used worker processes


def test_regress_empty_baseline_warns(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    _write_baseline(empty, [])
    assert main(["regress", "--baseline", str(empty)]) == 0
    assert "no rows" in capsys.readouterr().err


def test_regress_malformed_baseline(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,kind\nx,minimize\n")
    assert main(["regress", "--baseline", str(bad)]) == 2


def test_regress_unknown_kind(tmp_path):
    bad = tmp_path / "bad.csv"
    _write_baseline(bad, [("x", "mystery", 1, 1, 1.0, 1.0, 2.0, "", 512, 1.0, 0.1)])
    assert main(["regress", "--baseline", str(bad)]) == 2


@pytest.mark.parametrize(
    "column, text",
    [
        pytest.param("expected", "abc", id="abc-0.1-expected"),
        pytest.param("expected", "0", id="0-0.1-expected"),
        pytest.param("rel_tol", "nan", id="6.0-nan-rel_tol"),
        pytest.param("rel_tol", -1, id="6.0--1-rel_tol"),
        ("d1", 1.5),
        ("d2", 0),
        ("n", 16.7),
        ("n", -512),
    ],
)
def test_regress_unusable_number(tmp_path, capsys, column, text):
    # expected divides the deviation and rel_tol bounds it; d1, d2 and n
    # count dimensions and grid cells, so they are never rounded to one
    row = dict(zip(BASELINE_HEADERS, ("x", "gs", 1, 1, 1.0, 1.0, 2.0, "", 512, 6.0, 0.1)))
    row[column] = text
    bad = tmp_path / "bad.csv"
    _write_baseline(bad, [tuple(row.values())])
    assert main(["regress", "--baseline", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "'x'" in err and column in err


@pytest.mark.parametrize("kind", ["disk", "rectangle"])
@pytest.mark.parametrize("column, text", [("d1", 3), ("d2", 2)])
def test_regress_planar_row_with_higher_dimension(tmp_path, capsys, kind, column, text):
    # the 2-D solver is d1 = d2 = 1 only; such a row would silently run as 1+1
    row = dict(zip(BASELINE_HEADERS, ("x", kind, "", "", 1.0, 1.0, 1.0, 0.56, 64, 8.9, 0.5)))
    row[column] = text
    bad = tmp_path / "bad.csv"
    _write_baseline(bad, [tuple(row.values())])
    assert main(["regress", "--baseline", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "'x'" in err and column in err


def test_regression_suite_api(tmp_path):
    value = lambda1_product(ProblemParams(1, 1, 1.0), 2.0, 512)
    path = tmp_path / "one.csv"
    _write_baseline(path, [("gs_t2", "gs", 1, 1, 1.0, 1.0, 2.0, "", 512, value, 1e-9)])
    report = regression_suite(path)
    assert report.failures == ()
    assert report.max_rel_dev < 1e-12


# ------------------------------------------------------------- subprocess


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "mini.csv"
    result = run_cli(["minimize", "--s", "1", "--n", "512", "--out", str(out)])
    assert result.returncode == 0
    assert out.exists()
    empty = run_cli([])
    assert empty.returncode == 2


_NO_NUMERICS_SCRIPT = """
import importlib, os, pkgutil, sys, tempfile
import grushin
for info in pkgutil.iter_modules(grushin.__path__):
    importlib.import_module("grushin." + info.name)
from grushin.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")
                  or m == "concurrent.futures.process")

def sparse():
    return [m for m in loaded() if m.startswith("scipy.sparse")]

def lapack_alone():
    return "scipy.linalg._flapack" in loaded() and "scipy.linalg" not in loaded()

assert not loaded(), loaded()
assert main(["limits"]) == 0
assert main(["limits", "--limit", "inf", "--d1", "2", "--t-grid", "1:5:4"]) == 0
assert main(["limits", "--limit", "zero", "--d1", "3", "--d2", "6", "--t-grid", "1:5:4"]) == 0
with tempfile.TemporaryDirectory() as tmp:
    svg = os.path.join(tmp, "limits.svg")
    assert main(["limits", "--out", os.path.join(tmp, "limits.csv"), "--svg", svg]) == 0
    assert open(svg).read().startswith("<svg"), svg
assert not loaded(), loaded()
assert main(["minimize", "--n", "256"]) == 0
assert "numpy" in loaded() and lapack_alone(), loaded()
assert not sparse(), sparse()
assert main(["rectangle", "--n", "256"]) == 0
assert lapack_alone(), loaded()
assert not sparse(), sparse()
"""


def test_limits_never_imports_numerics():
    # importing every module and the closed-form path, d = 1, 2, 3 and 6
    # alike, and its SVG, load neither NumPy, SciPy nor the process pool; a 1-D solve
    # loads NumPy and SciPy's LAPACK extension but not scipy.linalg, and
    # neither it nor a rectangle the sparse solver
    result = run_python(["-c", _NO_NUMERICS_SCRIPT])
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("G_limit") == 3


_POOL_SCRIPT = """
import sys
from grushin import cli

def loaded(_):
    return "scipy.linalg._flapack" in sys.modules

assert not loaded(0)
with cli._pool_map(2) as map_fn:
    assert all(map_fn(loaded, range(4)))
"""


def test_workers_inherit_lapack_and_jobs_two_matches_one():
    # the pool's forked workers find SciPy's LAPACK already loaded, and a fresh
    # `--jobs 2` sweep prints the bytes of a `--jobs 1` one
    result = run_python(["-c", _POOL_SCRIPT])
    assert result.returncode == 0, result.stderr
    args = ["sweep-s", "--s-list", "0.5,1", "--t-grid", "1:2:3", "--n", "256"]
    one, two = run_cli([*args, "--jobs", "1"]), run_cli([*args, "--jobs", "2"])
    assert one.returncode == two.returncode == 0
    assert one.stdout.count("\n") == 7 and one.stdout == two.stdout
