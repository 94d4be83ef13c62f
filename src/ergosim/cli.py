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
fork; ``driver.run`` decides, told how many runs are in flight), a run gives
it to one helper process, forked at its first request and reaped when the
run ends.  The helper writes each snapshot file from a copy of the field
while the run keeps stepping, and between files it solves half of each step
where that pays (the docstring of ``ergosim/solver.py`` says how).  The
files and their bytes are the same on any number of CPUs.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure,
1 unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial
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


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_table(
    path: Path, header: list[str] | None, table: np.ndarray, newline: str = "\r\n"
) -> None:
    """Write a 2-D float table as CSV, every value printed as ``f"{x:.17g}"``.

    The bytes equal ``csv.writer`` fed the header and one ``_fmt`` string per
    cell (neither the column names nor float strings need quoting).  A
    vectorized kernel (``_float17``) computes them a block of rows at a time;
    the values it does not certify are printed by Python's ``%``, one value
    each: inf, nan, |x| ≥ 2^996, 0 < |x| < 2^-900, values next to a power of
    ten and exact or near ties in the 17th digit.
    """
    with path.open("wb") as fh:
        if header is not None:
            fh.write((",".join(header) + "\r\n").encode())
        fh.writelines(_row_blocks(table, newline))


def _row_blocks(table: np.ndarray, newline: str):
    """The text of ``table``'s rows, a block of rows at a time."""
    step = max(1, _BLOCK_VALUES // table.shape[1])
    for start in range(0, table.shape[0], step):
        yield format_rows(table[start : start + step], newline)


@lru_cache(maxsize=1)
def _zero_rows(grid: Grid) -> tuple[bytes, np.ndarray]:
    """The snapshot rows of u = +0 on ``grid``, ``x,0,0,0``, as one text,
    and the offset in it of each row's end."""
    table = np.zeros((grid.n, 4))
    table[:, 0] = grid.x
    text = b"".join(_row_blocks(table, "\r\n"))
    return text, np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1


def _write_snapshot(path: Path, grid: Grid, u: np.ndarray) -> None:
    """One snapshot file: columns x, Re u, Im u, |u|, with the bytes of
    :func:`_write_table` over them all.  The rows before the first one whose
    u is not +0 in both parts (an incoming packet's snapshots have thousands)
    are cut from the text of all +0 rows, which each process builds once per
    grid, and only for a snapshot that has such rows."""
    live = (u.real.view(np.uint64) | u.imag.view(np.uint64)) != 0  # -0 is live: it prints "-0"
    head = int(live.argmax()) if live.any() else u.size
    with path.open("wb") as fh:
        fh.write(b"x,re_u,im_u,abs_u\r\n")
        if head:
            text, ends = _zero_rows(grid)
            fh.write(memoryview(text)[: ends[head - 1]])
        re, im = u.real[head:], u.imag[head:]
        # hypot, not np.abs: numpy's vectorized complex abs can differ from
        # the scalar abs(complex) by one ulp, and the snapshot bytes would change.
        fh.writelines(_row_blocks(np.column_stack((grid.x[head:], re, im, np.hypot(re, im))), "\r\n"))


class _SnapshotWriter:
    """Names the snapshot files, indexes them and keeps a strided |Re u| matrix
    in memory.  Each call returns the file's write, a function of u, for
    ``driver.run`` to run: in the run's helper process if it has one."""

    def __init__(self, outdir: Path, grid: Grid):
        self.dir = outdir / "snapshots"
        self.grid = grid
        self.stride = max(1, int(np.ceil(grid.n / _MATRIX_MAX_COLS)))
        self.index: list[tuple[str, str]] = []
        self.matrix_rows: list[np.ndarray] = []

    def __call__(self, state) -> partial:
        if not self.index:  # nothing is written before the run's first sample
            self.dir.mkdir(parents=True, exist_ok=True)
        name = f"snap_{len(self.index):06d}.csv"
        self.index.append((_fmt(state.t), name))
        self.matrix_rows.append(np.abs(state.u.real[:: self.stride]))
        return partial(_write_snapshot, self.dir / name, self.grid)

    def finish(self) -> None:
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
    (itself included); ``driver.run`` decides from it whether the run has a
    helper process.
    """
    t0 = time.perf_counter()
    writer = _SnapshotWriter(outdir, cfg.grid)
    result = run(cfg, snapshot_callback=writer, runs_in_flight=runs_in_flight)
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
        help="worker processes for the runs of sweep/repro (default 1); each "
             "run in flight that has a CPU spare adds one helper process, not "
             "counted here (see ergosim/solver.py); outputs are the same on any "
             "number of CPUs",
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
