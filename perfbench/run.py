"""ergosim benchmark: times the ``ergosim`` command line as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, timed and traced

Run it from the root of a checkout; it builds nothing and puts ``src`` on
PYTHONPATH of the processes it starts.  Scratch files go to ``.perfbench_out``.

``--trace 0`` (timed): a closed loop of fresh ``ergosim`` processes, one at a
time, for ``--seconds``; before it, ``setup_s`` is sampled by launching
``setup_probe.py`` several times.  Prints the end-to-end metrics.

``--trace 1`` (traced): one untraced run, then one run in a child process with
span wrappers installed around ergosim's entry points (see ``tracing.py``),
plus the ``zgttrs``/axpy floors and the import breakdown.  Prints the
per-layer metrics.  toy-family is traced with ``--threads 1``, because spans
recorded in pool workers would stay in the workers.

Every run's outputs are checked against ``references.json`` and the
workload's physics check.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any check failed and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170

PER_LAYER = {
    "config.parse_ms": "ms",
    "config.serialize_ms": "ms",
    "geometry.sample_grid_ms": "ms",
    "geometry.clamped_nodes": "count",
    "potentials.build_ms": "ms",
    "potentials.import_ms": "ms",
    "initial_data.build_ms": "ms",
    "solver.factor_ms": "ms",
    "solver.step_us.p50": "us",
    "solver.step_us.p99": "us",
    "solver.steps": "count",
    "solver.busy_s": "s",
    "solver.node_steps_per_s": "1/s",
    "solver.zgttrs_floor_us": "us",
    "solver.axpy_floor_us": "us",
    "solver.step_over_floor": "ratio",
    "solver.import_ms": "ms",
    "diagnostics.probe_us.p50": "us",
    "diagnostics.probe_us.p99": "us",
    "diagnostics.probe_samples": "count",
    "diagnostics.energy_ms": "ms",
    "diagnostics.zone_ms": "ms",
    "diagnostics.energy_calls": "count",
    "diagnostics.busy_s": "s",
    "driver.run_s": "s",
    "driver.self_s": "s",
    "driver.self_us_per_step": "us",
    "cli.snapshot_ms.p50": "ms",
    "cli.snapshot_ms.p99": "ms",
    "cli.snapshots": "count",
    "cli.snapshot_busy_s": "s",
    "cli.files_written": "count",
    "cli.finish_s": "s",
    "cli.import_ms": "ms",
    "cli.pool_efficiency": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
}

CLI_CODE = "import sys; from ergosim.cli import main; sys.exit(main())"


# --- statistics --------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100.0 - q) / 100.0 >= 10.0 - 1e-6:
            return q, percentile(values, q)
    return None


def timing(values: list[float], unit: str) -> dict:
    """A timing's median, its tail percentile and the sample count."""
    t = tail(values)
    return {
        "value": median(values), "unit": unit, "n": len(values),
        "tail_q": t[0] if t else None, "tail": t[1] if t else None,
        "samples": values,
    }


# --- processes ---------------------------------------------------------------

@dataclass
class Finished:
    code: int
    wall_s: float
    rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch(argv: list[str], log: Path) -> Finished:
    """Run one process to completion; wall time from launch to exit, and the
    peak RSS of the largest process in its tree (wait4 reports the maximum of
    the child and every descendant it waited for)."""
    with log.open("wb") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=fh,
                                stderr=subprocess.STDOUT)
    kill = functools.partial(os.kill, proc.pid, signal.SIGKILL)
    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: stop and reap the child before leaving
        kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def cli_run(name: str, seed: int, config: Path, outdir: Path, refs: dict,
            threads: int | None = None, traced_spans: Path | None = None):
    """One ergosim invocation; returns (Finished, problems, (files, bytes))."""
    shutil.rmtree(outdir, ignore_errors=True)
    args = workloads.cli_args(name, config, outdir, threads)
    if traced_spans is None:
        argv = [sys.executable, "-c", CLI_CODE, *args]
    else:
        argv = [sys.executable, str(HERE / "tracing.py"), str(traced_spans), "--", *args]
    done = launch(argv, outdir.with_suffix(".log"))
    if done.code != 0:
        log = outdir.with_suffix(".log").read_text(encoding="utf-8", errors="replace")
        return done, [f"exit code {done.code}: {log[-500:]}"], (0, 0)
    try:
        problems = workloads.check(name, seed, workloads.collect(name, outdir), refs)
    except (OSError, KeyError, ValueError) as exc:
        problems = [f"unreadable outputs: {exc!r}"]
    return done, problems, workloads.output_stats(outdir)


# --- the two modes -----------------------------------------------------------

@dataclass
class Result:
    metrics: dict[str, dict]
    attempted: int
    failed: int
    problems: list[str]
    extra: dict


def timed(name: str, seed: int, seconds: float, config: Path, work: Path, refs: dict) -> Result:
    w = WORKLOADS[name]
    start = perf_counter()
    deadline = start + seconds
    setup_argv = [sys.executable, str(HERE / "setup_probe.py"), w.verb, str(config)]
    warm = launch(setup_argv, work / "setup-warm.log")  # compiles bytecode, fills caches
    if warm.code != 0:
        raise RuntimeError((work / "setup-warm.log").read_text(encoding="utf-8", errors="replace"))
    setups = []
    for i in range(SETUP_SAMPLES):
        done = launch(setup_argv, work / "setup.log")
        if done.code != 0:
            raise RuntimeError(f"setup probe exited with {done.code}")
        setups.append(done.wall_s)

    walls, rates, rss, out_mb, problems, failed = [], [], [], [], [], 0
    while True:
        k = len(walls) + failed
        done, bad, (_, nbytes) = cli_run(name, seed, config, work / f"run-{k}", refs)
        shutil.rmtree(work / f"run-{k}", ignore_errors=True)
        if bad:
            failed += 1
            problems += [f"run {k}: {p}" for p in bad]
        else:
            walls.append(done.wall_s)
            rates.append(w.node_steps / done.wall_s)
            rss.append(done.rss_mb)
            out_mb.append(nbytes / 1e6)
        longest = max(walls, default=done.wall_s)
        if perf_counter() + longest > deadline or failed:
            break
    attempted = len(walls) + failed
    metrics = {"setup_s": timing(setups, "s")}
    if walls:
        metrics.update({
            "wall_s": timing(walls, "s"),
            "node_steps_per_s": timing(rates, "1/s"),
            "output_mb": {"value": median(out_mb), "unit": "MB", "samples": out_mb},
            "peak_rss_mb": {"value": median(rss), "unit": "MB", "samples": rss},
        })
    extra = {"failed_frac": failed / attempted, "measured_s": perf_counter() - start}
    return Result(metrics, attempted, failed, problems, extra)


def _reported_wall(log: Path) -> float:
    """The wall time a single `ergosim run` prints, e.g. "(9.6s)"."""
    found = re.findall(r"\(([0-9.]+)s\)", log.read_text(encoding="utf-8"))
    return float(found[-1])


def traced(name: str, seed: int, config: Path, work: Path, refs: dict) -> Result:
    w = WORKLOADS[name]
    imports = probes.import_breakdown(child_env())
    floor = probes.floors(w.n)
    problems, attempted, failed = [], 0, 0

    def run(tag: str, **kw):
        nonlocal attempted, failed
        done, bad, stats = cli_run(name, seed, config, work / tag, refs, **kw)
        attempted += 1
        if bad:
            failed += 1
            problems.extend(f"{tag}: {p}" for p in bad)
        return done, stats

    plain, _ = run("untraced")
    if w.threads > 1:
        pool_eff = sum(workloads.family_run_walls(work / "untraced")) / (w.threads * plain.wall_s)
        before, _ = run("untraced-serial", threads=1)
    else:
        pool_eff = _reported_wall(work / "untraced.log") / plain.wall_s
        before = plain
    spans_file = work / "spans.json"
    done, (files, _) = run("traced", threads=1, traced_spans=spans_file)
    if done.code != 0:
        return Result({}, attempted, failed, problems, {})
    # untraced runs on both sides of the traced one, against drift in machine speed
    after, _ = run("untraced-after", threads=1)
    untraced_wall = (before.wall_s + after.wall_s) / 2.0

    data = json.loads(spans_file.read_text(encoding="utf-8"))
    spans = [tuple(s) for s in data["spans"]]
    selfs = tracing.self_times(spans)
    durations: dict[str, list[float]] = {}
    self_sum: dict[str, float] = {}
    layers: dict[str, float] = {}
    for (span_name, start, end, _, _), own in zip(spans, selfs):
        durations.setdefault(span_name, []).append(end - start)
        self_sum[span_name] = self_sum.get(span_name, 0.0) + own
        layer = "import" if span_name == "cli.import" else tracing.layer_of(span_name)
        layers[layer] = layers.get(layer, 0.0) + own

    def total(span_name: str) -> float:
        return sum(durations.get(span_name, ()))

    def per_call(span_name: str) -> list[float]:
        return durations.get(span_name, [])

    steps = len(per_call("solver.step"))
    step_us = [d * 1e6 for d in per_call("solver.step")]
    probe_us = [d * 1e6 for d in per_call("diagnostics.probe")]
    snap_ms = [d * 1e3 for d in per_call("cli.snapshot")]
    energy_ms = [d * 1e3 for d in per_call("diagnostics.energy")]
    zone_ms = [d * 1e3 for d in per_call("diagnostics.zone")]
    solver_busy = total("solver.step")
    accounted = sum(layers.values())
    step_p50 = percentile(step_us, 50)

    values = {
        "config.parse_ms": total("config.parse") * 1e3,
        "config.serialize_ms": total("config.serialize") * 1e3,
        "geometry.sample_grid_ms": total("geometry.sample_grid") * 1e3,
        "geometry.clamped_nodes": data["counts"].get("geometry.clamped_nodes", 0),
        "potentials.build_ms": self_sum.get("potentials.build", 0.0) * 1e3,
        "potentials.import_ms": imports["potentials.import_ms"],
        "initial_data.build_ms": total("initial_data.build") * 1e3,
        "solver.factor_ms": total("solver.factor") * 1e3,
        "solver.step_us.p50": step_p50,
        "solver.step_us.p99": percentile(step_us, 99),
        "solver.steps": steps,
        "solver.busy_s": solver_busy,
        "solver.node_steps_per_s": w.n * steps / solver_busy,
        "solver.zgttrs_floor_us": floor["zgttrs_us"],
        "solver.axpy_floor_us": floor["axpy_us"],
        "solver.step_over_floor": step_p50 / floor["zgttrs_us"],
        "solver.import_ms": imports["solver.import_ms"],
        "diagnostics.probe_us.p50": percentile(probe_us, 50),
        "diagnostics.probe_us.p99": percentile(probe_us, 99),
        "diagnostics.probe_samples": len(probe_us),
        "diagnostics.energy_ms": median(energy_ms) if energy_ms else 0.0,
        "diagnostics.zone_ms": median(zone_ms) if zone_ms else 0.0,
        "diagnostics.energy_calls": len(energy_ms),
        "diagnostics.busy_s": layers.get("diagnostics", 0.0),
        "driver.run_s": total("driver.run"),
        "driver.self_s": self_sum.get("driver.run", 0.0),
        "driver.self_us_per_step": self_sum.get("driver.run", 0.0) / steps * 1e6,
        "cli.snapshot_ms.p50": percentile(snap_ms, 50),
        "cli.snapshot_ms.p99": percentile(snap_ms, 99),
        "cli.snapshots": len(snap_ms),
        "cli.snapshot_busy_s": total("cli.snapshot"),
        "cli.files_written": files,
        "cli.finish_s": self_sum.get("cli.execute", 0.0),
        "cli.import_ms": imports["cli.import_ms"],
        "cli.pool_efficiency": pool_eff,
        "trace.wall_s": done.wall_s,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": done.wall_s - untraced_wall,
        "trace.remainder_s": done.wall_s - accounted,
    }
    metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
    for key, samples, unit in (("solver.step_us", step_us, "us"),
                               ("diagnostics.probe_us", probe_us, "us"),
                               ("cli.snapshot_ms", snap_ms, "ms")):
        t = timing(samples, unit) if samples else {}
        metrics[key + ".p50"].update(n=len(samples), tail_q=t.get("tail_q"), tail=t.get("tail"))
    layers["remainder"] = done.wall_s - accounted
    extra = {
        "self_s_by_layer": layers,
        "spans": len(spans),
        "traced_threads": 1,
        "pool_efficiency_threads": w.threads,
    }
    return Result(metrics, attempted, failed, problems, extra)


# --- output ------------------------------------------------------------------

def _fmt(m: dict) -> str:
    line = f"{m['value']:.6g} {m['unit']}"
    if "n" in m:
        line += f"  (n={m['n']}"
        if m.get("tail_q") is not None:
            line += f", p{m['tail_q']:g}={m['tail']:.6g}"
        elif "tail_q" in m:
            line += ", no percentile with 10 samples beyond it"
        line += ")"
    return line


def report(name: str, seed: int, trace: int, result: Result, env: dict) -> None:
    w = WORKLOADS[name]
    p = workloads.parameters(name, seed)
    mode = "traced" if trace else "timed"
    print(f"== {name} ({mode}) seed {seed}: omega={p['omega']:g} x0={p['x0']:g} "
          f"n={w.n} steps={w.steps} runs/invocation={w.runs}")
    print(f"   attempted {result.attempted}, failed {result.failed}, "
          f"failed_frac {result.failed / max(result.attempted, 1):g}")
    for key, m in result.metrics.items():
        print(f"   {key:28s} {_fmt(m)}")
    if "self_s_by_layer" in result.extra:
        parts = ", ".join(f"{k} {v:.4f}" for k, v in result.extra["self_s_by_layer"].items())
        print(f"   self time by layer (s), summing to trace.wall_s: {parts}")
    for problem in result.problems:
        print(f"   CHECK FAILED: {problem}")
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "trace": trace, "parameters": p,
        "attempted": result.attempted, "failed": result.failed,
        "problems": result.problems, "metrics": result.metrics,
        "extra": result.extra, "environment": env,
    }, indent=1), encoding="utf-8")


def measure(name: str, seed: int, seconds: float, trace: int, refs: dict) -> Result:
    work = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(workloads.config_text(name, seed), encoding="utf-8")
    try:
        if trace:
            return traced(name, seed, config, work, refs)
        return timed(name, seed, seconds, config, work, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 timed, 1 traced; both when omitted")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ergosim" / "cli.py").is_file():
        print(f"error: {SRC / 'ergosim' / 'cli.py'} not found; run from the root of "
              "an ergosim checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    refs = workloads.load_references()
    env = probes.environment(ROOT)
    print("environment: " + json.dumps(env))

    results = {}
    for name in names:
        for trace in traces:
            try:
                result = measure(name, args.seed, args.seconds, trace, refs)
            except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 2
            report(name, args.seed, trace, result, env)
            results[(name, trace)] = result

    single = len(results) == 1
    metrics = {}
    for (name, _), result in results.items():
        for key, m in result.metrics.items():
            metrics[key if single else f"{name}.{key}"] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
