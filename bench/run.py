#!/usr/bin/env python3
"""Benchmark of the grushin toolkit: end-to-end timings and per-layer traces.

    python3 bench/run.py --workload split-1d --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

Workloads (see workloads.py for what each covers and why):
    split-1d   minimize at n=4096 over seven (d1, d2, s), a large-s sweep
               and the envelopes on its grid
    planar-2d  disks at s = 0, 1, 150 and rectangles at s = 1, 150, n=256
    cli        five `python -m grushin` commands, one process each

A run is a closed loop with one caller in one process, BLAS and OpenMP
pinned to one thread.  It sets up in-process and runs one warm-up pass,
checked but not timed, that pays first-touch memory costs and solves the
problems of the anchor rows, which it checks at the rows' tolerances.  For
the rest of --seconds it runs passes, and after each pass spawns set-up
children (import plus the ball-constant caches, timed inside the child) and,
untraced, as many `python -m grushin limits` cold starts, until spawning has
taken SPAWN_SHARE of the time; time left over when no further pass fits goes
to more spawns.  Interleaving spreads both kinds of sample over the whole
run, so a slow spell of the machine weighs on them alike.  Each timed pass
draws fresh solver inputs from the seed (workloads.py says how).  Every
result is checked; a failed check, an exception or a nonzero exit counts as
a failed operation.

--trace 0 reports the end-to-end metrics (medians over passes and spawns).
--trace 1 runs the passes in-process, alternating an untraced pass with one
under the span tracer of spans.py, and reports per-layer metrics as medians
over the traced passes; layers a workload never reaches read 0.  After the
warm-up pass the counts repeat exactly from pass to pass and from seed to
seed.  The run record and the spans are written to .bench_out/.  The last line of
stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--smoke runs every workload in both modes on tiny grids for one second and
checks that the metric names and units match BENCHMARK.json.
"""

from __future__ import annotations

import os

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
os.environ.pop("GRUSHIN_DEFAULT_N", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("split-1d", "planar-2d", "cli")

#: Share of the run spent on set-up children and cold starts alongside the
#: passes; time left over after the last pass that fits goes to them too.
SPAWN_SHARE = 0.3
#: Fewest set-up children (and cold starts) and fewest timed passes, whatever
#: --seconds allows; with --trace 1 an untraced and traced pair counts as two.
MIN_SPAWNS = 3
MIN_PASSES = 2
MAX_FAILURES_SHOWN = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny grids, for the smoke check")
    parser.add_argument("--smoke", action="store_true", help="check every workload and metric")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_FAILURES_SHOWN - len(self.failures)
            self.failures.extend(problems[:max(room, 0)])


@dataclass
class PassRecord:
    times: dict
    results: dict

    @property
    def pass_s(self) -> float:
        return sum(self.times.values())


def run_pass(workload, rng, in_process: bool, tally: Tally, tracer=None, pass_id: int = 0,
             anchored: bool = False):
    """Time each operation of one freshly drawn pass, then check every result."""
    ops = workload.draw(rng, in_process, anchored)
    times, results, errors = {}, {}, {}
    if tracer is not None:
        tracer.pass_id = pass_id
    for op in ops:
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            results[op.name] = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            results[op.name] = None
            errors[op.name] = f"{op.name}: {type(exc).__name__}: {exc}"
        times[op.name] = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    for op in ops:
        if op.name in errors:
            tally.record([errors[op.name]])
            continue
        try:
            tally.record(op.check(results[op.name], results))
        except Exception as exc:  # a check that cannot run fails its operation
            tally.record([f"{op.name}: check raised {type(exc).__name__}: {exc}"])
    return PassRecord(times, results)


def measure(seconds: float, min_steps: int, min_spawns: int, pass_step, spawn_step) -> None:
    """Pass steps, each followed by spawns until they have taken SPAWN_SHARE of the time.

    Stops stepping when the next step and its spawns would overrun `seconds`,
    after at least `min_steps` steps; then spawns until the next spawn would
    overrun `seconds`, and at least `min_spawns` in all.
    """
    start = time.perf_counter()
    pass_time = spawn_time = last = last_spawn = 0.0
    passes = spawns = 0

    def spawn() -> None:
        nonlocal spawns, spawn_time, last_spawn
        began = time.perf_counter()
        spawn_step()
        spawns += 1
        last_spawn = time.perf_counter() - began
        spawn_time += last_spawn

    while passes < min_steps or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        pass_step(passes)
        passes += 1
        pass_time += time.perf_counter() - began
        while spawn_time < SPAWN_SHARE / (1.0 - SPAWN_SHARE) * pass_time:
            spawn()
        last = time.perf_counter() - began
    while spawns < min_spawns or time.perf_counter() - start + last_spawn <= seconds:
        spawn()


def spawn_setup(workload_name: str, tiny: bool, tally: Tally) -> dict | None:
    """A fresh interpreter that imports grushin and fills the lazy caches."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-child", "--workload", workload_name]
    proc = subprocess.run(argv + (["--tiny"] if tiny else []), cwd=ROOT,
                          capture_output=True, text=True, timeout=150)
    try:
        timing = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        timing = None
    tally.record([] if proc.returncode == 0 and timing else
                 [f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
    return timing


def setup_child(workload_name: str, tiny: bool) -> int:
    start = time.perf_counter()
    import grushin.cli  # noqa: F401  (imports every layer)

    imported = time.perf_counter()
    import workloads

    workload = workloads.make(workload_name, ROOT, OUT, tiny)
    warm_start = time.perf_counter()
    workload.warm()
    warm_end = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "warm_s": warm_end - warm_start}))
    return 0


def spawn_cold_start(workloads, tally: Tally) -> float:
    """Wall time of one `python -m grushin limits --t-grid 0.25:4:20` process."""
    start = time.perf_counter()
    run = workloads.run_cli(ROOT, ["limits", "--t-grid", "0.25:4:20"], in_process=False)
    elapsed = time.perf_counter() - start
    tally.record(workloads.check_limits(run))
    return elapsed


def peak_rss_mb(workload_name: str) -> float:
    """Peak RSS of the process doing the work: the CLI children for `cli`."""
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": THREAD_PINS,
        "cli_jobs": "--jobs 2 on sweep-s only",
    }


def end_to_end(records, setups, cold_starts, workload_name) -> dict:
    return {
        "pass_s": (statistics.median(r.pass_s for r in records), "s"),
        "slowest_op_s": (statistics.median(max(r.times.values()) for r in records), "s"),
        "setup_s": (statistics.median(s["import_s"] + s["warm_s"] for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(workload_name), "MiB"),
        "cold_start_s": (statistics.median(cold_starts), "s"),
    }


def per_layer(plain, traced, summaries, setups, workloads) -> dict:
    """Per-layer metrics: medians over the traced passes of per-pass totals.

    Counts take the lower median, so a count that repeats reads as itself.
    """
    def median(values) -> float:
        return statistics.median(list(values))

    def count(values) -> int:
        return statistics.median_low(list(values))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls(name):
        return count(s.calls[name] for s in summaries), "count"

    def self_s(name):
        return median(s.self_s[name] for s in summaries), "s"

    def work(name):
        return count(s.count[name] for s in summaries), "count"

    def per_call(outer, inner):
        return median(ratio(s.nested[(outer, inner)], s.calls[outer]) for s in summaries)

    def op_time(name):
        return median(r.times.get(name, 0.0) for r in traced), "s"

    def solve_field(case, attr):
        return count(getattr(r.results.get(case), attr, 0) for r in traced), "count"

    solve, minimize = "radial.solve_radial", "minimizer.minimize"
    whole_space, envelope = "minimizer.whole_space_energy", "asymptotics.lower_envelope"
    report = "asymptotics.convergence_report"
    metrics = {
        f"{solve}.calls": calls(solve),
        f"{solve}.self_s": self_s(solve),
        "radial.nodes": work(solve),
        "radial.us_per_node": (median(ratio(1e6 * s.self_s[solve], s.count[solve])
                                      for s in summaries), "us"),
        f"{minimize}.calls": calls(minimize),
        f"{minimize}.self_s": self_s(minimize),
        "minimizer.solves_per_minimize": (per_call(minimize, solve), "ratio"),
        f"{whole_space}.calls": calls(whole_space),
        f"{whole_space}.self_s": self_s(whole_space),
        f"{report}.self_s": self_s(report),
        f"{report}.points": work(report),
        f"{envelope}.calls": calls(envelope),
        "asymptotics.whole_space_per_envelope": (per_call(envelope, whole_space), "ratio"),
    }
    for case in workloads.PLANAR_CASES:
        metrics[f"planar.{case}.s"] = op_time(case)
        metrics[f"planar.{case}.iterations"] = solve_field(case, "iterations")
        metrics[f"planar.{case}.unknowns"] = solve_field(case, "interior_count")
    for name in ("tables.emit_csv", "tables.emit_svg"):
        metrics[f"{name}.self_s"] = self_s(name)
        metrics[f"{name}.bytes"] = (work(name)[0], "B")
    metrics["cli.import_s"] = (median(s["import_s"] for s in setups), "s")
    for command in workloads.CLI_COMMANDS:
        metrics[f"cli.{command}.s"] = op_time(command)
    metrics["bench.trace_overhead"] = (
        median(r.pass_s for r in traced) / median(r.pass_s for r in plain) - 1.0, "ratio")
    return metrics


def run(args) -> int:
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        workload = workloads.make(args.workload, ROOT, scratch, args.tiny)
        tally = Tally()
        rng = random.Random(args.seed)
        setups, cold_starts = [], []

        def spawn() -> None:
            setup = spawn_setup(args.workload, args.tiny, tally)
            if setup:
                setups.append(setup)
            if not args.trace:
                cold_starts.append(spawn_cold_start(workloads, tally))

        min_spawns = 1 if args.tiny else MIN_SPAWNS
        began = time.perf_counter()
        workload.warm()
        run_pass(workload, rng, bool(args.trace), tally, anchored=True)
        unchecked = workload.expected_anchors - workload.anchors.matched
        if unchecked:
            tally.record([f"anchor rows not checked in the anchored pass: {sorted(unchecked)}"])
        seconds = args.seconds - (time.perf_counter() - began)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": environment(), "setups": setups, "cold_starts": cold_starts}
        if not args.trace:
            timed = []
            measure(seconds, MIN_PASSES, min_spawns,
                    lambda i: timed.append(run_pass(workload, rng, False, tally)), spawn)
            if not setups:
                raise RuntimeError("every set-up child failed")
            metrics = end_to_end(timed, setups, cold_starts, args.workload)
            record["passes"] = [r.times for r in timed]
        else:
            tracer = spans.Tracer()
            plain, traced = [], []

            def pair(i: int) -> None:
                plain.append(run_pass(workload, rng, True, tally))
                tracer.install()
                traced.append(run_pass(workload, rng, True, tally, tracer, i))
                tracer.uninstall()

            measure(seconds, (MIN_PASSES + 1) // 2, min_spawns, pair, spawn)
            if not setups:
                raise RuntimeError("every set-up child failed")
            summaries = spans.summarize(tracer.spans, range(len(traced)))
            metrics = per_layer(plain, traced, summaries, setups, workloads)
            tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
            record["passes"] = {"untraced": [r.times for r in plain],
                                "traced": [r.times for r in traced]}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(result, failures=tally.failures)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(record["environment"]))
    for message in tally.failures:
        print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"error_rate = {tally.failed / tally.attempted} (failed / attempted operations)")
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload in both modes on tiny grids; names and units must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    if not ok:
        print(f"BENCHMARK.json workloads differ from {WORKLOADS}")
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "0",
                    "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
                units = {k: v["unit"] for k, v in result["metrics"].items()}
            except (IndexError, ValueError, KeyError, TypeError):
                result, units = None, {}
            good = proc.returncode == 0 and result is not None and result["correct"]
            if units != expected[trace]:
                good = False
                print(f"{name} trace={trace}: metric names or units differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected[trace]) - set(units))}, "
                      f"extra {sorted(set(units) - set(expected[trace]))}")
            if not good:
                print(f"{name} trace={trace}: FAILED (exit {proc.returncode})\n{proc.stdout[-2000:]}"
                      f"{proc.stderr[-2000:]}")
            ok = ok and good
            for metric, entry in (result or {}).get("metrics", {}).items():
                print(f"{name} trace={trace} {metric} = {entry['value']} {entry['unit']}")
    print(json.dumps({"smoke": "passed" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "grushin" / "__init__.py").is_file():
        print(f"error: no grushin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args.workload, args.tiny)
    if args.smoke:
        return smoke()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
