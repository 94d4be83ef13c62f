"""Command-line interface.

Verbs:
    run <config.ini>       run one configuration
    sweep <sweep.ini>      run a one-axis family of configurations
    repro <preset>         run a built-in experiment preset
    list-presets           show the available presets

Every run writes, inside its output directory:
    config.ini             echo of the effective configuration
    gain.csv               per-step accumulated flux and gain, one pair of
                           columns per probe
    energy.csv             sampled energy pieces (and zone gain where defined)
    snapshots/snap_*.csv   field snapshots (x, Re u, Im u, |u|)
    snapshots/index.csv    (t, filename) for the snapshots
    amplitude.csv          |Re u| matrix, rows = snapshot times, columns = x
                           (column-strided to at most 2000 columns)
    summary.txt            late-time gain per probe with stabilization flag

Floats are printed with 17 significant digits: rerunning the same
configuration reproduces the gain/energy/snapshot files byte for byte.
Sweep summaries additionally record wall time, which is not reproducible.

When a CPU is spare (at least two per run in flight, and the platform can
fork), a run gives it to one forked helper process.  A run with dense
snapshots (a snapshot_stride below 100 steps) hands its snapshot files to a
writer process that formats and writes them while the run keeps stepping;
any other run has a solve helper solve half of each step's tridiagonal system,
spinning on that CPU for the whole time stepping lasts.  The files and their
bytes are the same either way.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure,
1 unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import io
import multiprocessing
import os
import sys
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np

from ._float17 import format_rows
from .config import (
    ConfigError,
    SimConfig,
    _fmt,
    load_config,
    load_sweep,
    serialize_config,
)
from .driver import RunResult, prepare, run
from .initial_data import SupportError
from .presets import get_preset, preset_names
from .solver import Grid

_MATRIX_MAX_COLS = 2000
# Values formatted per call of format_rows: 1024 rows of a snapshot, and
# transient arrays and text of about 1 MB at any width.
_BLOCK_VALUES = 4096
# Snapshots handed to a background writer and not yet on disk; bounds memory.
_SNAPSHOTS_IN_FLIGHT = 2
# A run's spare CPU goes to its snapshot writer when snapshot_stride is below
# this, and to the solve helper otherwise.  Writing a snapshot costs the
# stepping process 1.0-1.5 µs per node, and the split solve saves it
# 0.009-0.019 µs per node per step (both measured on rn-wavepacket and
# rn-highenergy states after 300 steps), so the writer saves more when a
# snapshot comes every 70-160 steps or more often.
_WRITER_BELOW_STRIDE = 100


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_table(
    path: Path, header: list[str] | None, table: np.ndarray, newline: str = "\r\n"
) -> None:
    """Write a 2-D float table as CSV, every value printed as ``f"{x:.17g}"``.

    The bytes equal ``csv.writer`` fed one ``_fmt`` string per cell (float
    strings never need quoting).  A vectorized kernel (``_float17``) computes
    them a block of rows at a time; the few values it cannot certify, inf and
    nan among them, are printed by Python's ``%``, one value each.
    """
    rows, cols = table.shape
    step = max(1, _BLOCK_VALUES // cols)
    with path.open("wb") as fh:
        if header is not None:
            text = io.StringIO()
            csv.writer(text).writerow(header)
            fh.write(text.getvalue().encode())
        for start in range(0, rows, step):
            fh.write(format_rows(table[start : start + step], newline))


def _write_snapshot(path: Path, grid: Grid, u: np.ndarray) -> None:
    """One snapshot file: columns x, Re u, Im u, |u|."""
    # hypot, not np.abs: numpy's vectorized complex abs can differ from the
    # scalar abs(complex) by one ulp, and the snapshot bytes would change.
    table = np.column_stack((grid.x, u.real, u.imag, np.hypot(u.real, u.imag)))
    _write_table(path, ["x", "re_u", "im_u", "abs_u"], table)


def _spare_cpu(runs_in_flight: int) -> bool:
    """Whether each of ``runs_in_flight`` concurrent runs can give one helper
    process, its snapshot writer or its solve helper, a CPU of its own (a
    forked process; needs the "fork" start method)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2 * runs_in_flight


class _SnapshotWriter:
    """Streams snapshots to disk and keeps a strided |Re u| matrix in memory.

    With ``background``, the snapshot files are written by a writer process
    of its own while the caller goes on; at most ``_SNAPSHOTS_IN_FLIGHT`` wait
    there at a time.  Use it as a context manager: leaving the block stops the
    writer process.
    """

    def __init__(self, outdir: Path, grid: Grid, background: bool = False):
        self.dir = outdir / "snapshots"
        self.grid = grid
        self.stride = max(1, int(np.ceil(grid.n / _MATRIX_MAX_COLS)))
        self.index: list[tuple[str, str]] = []
        self.matrix_rows: list[np.ndarray] = []
        self.pending: deque[Future] = deque()
        self.pool = None
        if background:
            # "fork": the writer starts without importing numpy again; it is
            # forked at the first submit, before the executor starts any
            # thread of its own.
            self.pool = ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("fork")
            )

    def __enter__(self) -> _SnapshotWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)

    def __call__(self, state) -> None:
        if not self.index:  # nothing is written before the run's first sample
            self.dir.mkdir(parents=True, exist_ok=True)
        name = f"snap_{len(self.index):06d}.csv"
        u = state.u
        if self.pool is None:
            _write_snapshot(self.dir / name, self.grid, u)
        else:
            if len(self.pending) == _SNAPSHOTS_IN_FLIGHT:
                self.pending.popleft().result()
            # A copy: the executor pickles u later, in its feeder thread.
            self.pending.append(
                self.pool.submit(_write_snapshot, self.dir / name, self.grid, u.copy())
            )
        self.index.append((_fmt(state.t), name))
        self.matrix_rows.append(np.abs(u.real[:: self.stride]))

    def finish(self) -> None:
        while self.pending:
            self.pending.popleft().result()
        _write_csv(self.dir / "index.csv", ["t", "filename"], self.index)
        amplitude = np.array(self.matrix_rows)
        _write_table(self.dir.parent / "amplitude.csv", None, amplitude, newline="\n")


def _write_run(result: RunResult, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.ini").write_text(serialize_config(result.config), encoding="utf-8")

    probes = sorted(result.flux_series)
    if probes:
        series = [result.flux_series[p] for p in probes]
        header = ["t"]
        for p in probes:
            header += [f"flux_at_{p:g}", f"gain_at_{p:g}"]
        times = series[0].times
        cols = [times]
        for s in series:
            cols += [s.accumulated_flux, s.gain]
        _write_table(outdir / "gain.csv", header, np.column_stack(cols))

    header = ["t", "kinetic", "gradient", "potential", "total"]
    cols = [
        result.energy_times,
        [e.kinetic for e in result.energies],
        [e.gradient for e in result.energies],
        [e.potential for e in result.energies],
        [e.total for e in result.energies],
    ]
    if result.zone_gain is not None:
        header.append("zone_gain")
        cols.append(result.zone_gain)
    _write_table(outdir / "energy.csv", header, np.column_stack(cols))

    # every series divides by the same energy; a run without probes has none
    denominator = result.flux_series[probes[0]].initial_energy if probes else 0.0
    lines = [
        f"label = {result.config.label}",
        f"steps = {result.config.n_steps}",
        f"initial_energy = {_fmt(result.energies[0].total)}",
        f"flux_denominator = {_fmt(denominator)}",
    ]
    for p in probes:
        s = result.flux_series[p].summary()
        lines.append(
            f"probe {p:g}: gain_inf = {_fmt(s.value)}, stabilized = {s.stabilized}, "
            f"drift = {_fmt(s.drift)}"
        )
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _execute(
    cfg: SimConfig, outdir: Path, runs_in_flight: int = 1
) -> tuple[str, float, bool, float]:
    """Run one configuration, write its outputs, return a summary row.

    ``runs_in_flight`` counts the runs executing concurrently with this one
    (itself included); it decides whether the run has a helper process, and
    the snapshot stride decides which one (``_WRITER_BELOW_STRIDE``).
    """
    t0 = time.perf_counter()
    spare = _spare_cpu(runs_in_flight)
    dense = cfg.snapshot_stride < _WRITER_BELOW_STRIDE
    with _SnapshotWriter(outdir, cfg.grid, spare and dense) as writer:
        result = run(cfg, snapshot_callback=writer, second_cpu=spare and not dense)
        writer.finish()
    _write_run(result, outdir)
    wall = time.perf_counter() - t0
    if result.flux_series:
        s = result.summary()
        return cfg.label, s.value, s.stabilized, wall
    return cfg.label, float("nan"), False, wall


def _execute_family(
    configs: list[SimConfig],
    outdir: Path,
    threads: int,
    quiet: bool,
    axis_values: list[tuple[str, str]] | None = None,
) -> None:
    # every run is set up before the first starts, so none is left half written
    names = [cfg.label or f"run-{i}" for i, cfg in enumerate(configs)]
    for i, (cfg, name) in enumerate(zip(configs, names)):
        if name in (".", "..") or os.path.basename(name) != name:
            raise ConfigError(f"run.label: run directory {name!r} is not one path component")
        if name in names[:i]:
            raise ConfigError(f"run.label: two runs of the family would write {outdir / name}")
        prepare(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [(cfg, outdir / name) for cfg, name in zip(configs, names)]
    if threads > 1 and len(jobs) > 1:
        in_flight = min(threads, len(jobs))
        with ProcessPoolExecutor(max_workers=in_flight) as pool:
            rows = list(pool.map(_execute, *zip(*jobs), repeat(in_flight)))
    else:
        rows = [_execute(cfg, sub) for cfg, sub in jobs]

    summary_rows = []
    for i, (label, ginf, stabilized, wall) in enumerate(rows):
        extra = list(axis_values[i]) if axis_values else []
        summary_rows.append(extra + [label, _fmt(ginf), str(stabilized), f"{wall:.3f}"])
        if not quiet:
            print(f"{label}: gain_inf = {ginf:.6g} stabilized = {stabilized} ({wall:.1f}s)")
    header = (["axis", "value"] if axis_values else []) + [
        "label", "gain_inf", "stabilized", "wall_time_s"
    ]
    _write_csv(outdir / "summary.csv", header, summary_rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergosim",
        description="superradiant energy extraction by charged scalar waves in 1D",
    )
    parser.add_argument("--output-dir", type=Path, default=Path("ergosim-out"))
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker processes for the runs of sweep/repro (default 1); a run "
             "may add one helper process, a snapshot writer or a solve helper "
             "that spins on its CPU, when each run in flight has a CPU spare; "
             "helpers are not counted",
    )
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("run").add_argument("config", type=Path)
    sub.add_parser("sweep").add_argument("config", type=Path)
    sub.add_parser("repro").add_argument("preset")
    sub.add_parser("list-presets")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")

    try:
        if args.verb == "list-presets":
            for name in preset_names():
                preset = get_preset(name)
                print(f"{name}: {preset.description} ({len(preset.configs)} runs)")
            return 0
        if args.verb == "run":
            cfg = load_config(args.config)
            label, ginf, stabilized, wall = _execute(cfg, args.output_dir)
            if not args.quiet:
                if np.isnan(ginf):
                    print(f"done in {wall:.1f}s (no probes configured)")
                else:
                    print(f"gain_inf = {ginf:.6g} stabilized = {stabilized} ({wall:.1f}s)")
            return 0
        if args.verb == "sweep":
            spec = load_sweep(args.config)
            axis_values = [(spec.axis, _fmt(v)) for v in spec.values]
            _execute_family(spec.configs(), args.output_dir, args.threads,
                            args.quiet, axis_values)
            return 0
        # repro
        preset = get_preset(args.preset)
        _execute_family(
            list(preset.configs), args.output_dir / preset.name, args.threads, args.quiet
        )
        return 0
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ConfigError, SupportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
