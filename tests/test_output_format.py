"""Byte format of the CLI's float CSV files.

Two guards on the output spec (17 significant digits, reproducible byte for
byte):

* the bulk table writer is compared with a copy of the per-cell writer it
  replaced (``csv.writer`` fed ``f"{x:.17g}"`` strings, ``abs`` of each
  ``np.complex128``), on values where formatting or ``abs`` can go wrong;
* the sha256 of every file of a small toy ``ergosim run`` is pinned, once
  with P ≠ 0 (a split step) and once with P = 0 (the unsplit step).  The
  hashes were recorded with the per-cell writer; they depend on the last bits
  of the arithmetic, so a different LAPACK or numpy build may change them.

The snapshot files may be written by the run's forked helper process; the
tests at the end check that it writes the same bytes as the inline path and
that no helper outlives a run, however the run ends.
"""

from __future__ import annotations

import csv
import hashlib
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ergosim import _float17, cli, driver, solver
from ergosim.cli import _SnapshotWriter, _write_snapshot, _write_table, main
from ergosim.config import _fmt, load_config, parse_config
from ergosim.presets import get_preset
from ergosim.solver import FieldState, Grid, Stepper

SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e-5, -1e-5, 1e16, 1e17, -1e17, np.inf, -np.inf, np.nan]
)


def _old_fmt(x) -> str:
    return f"{x:.17g}"


def _old_write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _old_snapshot(path: Path, x: np.ndarray, u: np.ndarray) -> None:
    _old_write_csv(
        path,
        ["x", "re_u", "im_u", "abs_u"],
        (
            (_old_fmt(xi), _old_fmt(ui.real), _old_fmt(ui.imag), _old_fmt(abs(ui)))
            for xi, ui in zip(x, u)
        ),
    )


def _old_amplitude(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(_old_fmt(v) for v in row) + "\n")


def _adversarial_complex(n_random: int) -> np.ndarray:
    """Every pairing of SPECIAL as (Re, Im), then random values, many of which
    have ``np.abs(z) != abs(z)`` in the last bit."""
    re, im = np.meshgrid(SPECIAL, SPECIAL)
    pairs = re.ravel().astype(complex)
    pairs.imag = im.ravel()  # 1j * inf would put a nan in the real part
    rng = np.random.default_rng(7)
    z = rng.normal(size=n_random) + 1j * rng.normal(size=n_random)
    return np.concatenate([pairs, z * 10.0 ** rng.integers(-300, 300, n_random)])


class TestAgainstPerCellWriter:
    def test_snapshots_and_amplitude(self, tmp_path):
        u0 = _adversarial_complex(4000)
        n = u0.size  # > 2000, so the amplitude matrix is column-strided
        grid = Grid(x_min=-1.0, x_max=-1.0 + 0.04 * (n - 1), h=0.04, dt=0.04)
        writer = _SnapshotWriter(tmp_path / "new", grid)
        snaps = [u0, u0[::-1].copy(), -u0]
        for k, u in enumerate(snaps):
            writer(FieldState(u=u, v=u, t=0.5 * k))(u)  # the writer returns the file's write
        writer.finish()

        old = tmp_path / "old"
        old.mkdir()
        for k, u in enumerate(snaps):
            name = f"snap_{k:06d}.csv"
            _old_snapshot(old / name, grid.x, u)
            new_bytes = (tmp_path / "new" / "snapshots" / name).read_bytes()
            assert new_bytes == (old / name).read_bytes(), name
        _old_amplitude(old / "amplitude.csv", [np.abs(u.real[:: writer.stride]) for u in snaps])
        assert (tmp_path / "new" / "amplitude.csv").read_bytes() == (
            old / "amplitude.csv"
        ).read_bytes()

    @pytest.mark.parametrize("cols", [1, 3, 5, 2000])
    def test_tables_across_block_boundaries(self, tmp_path, cols):
        rng = np.random.default_rng(cols)
        rows = 20 if cols == 2000 else 10_000
        table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-20, 20, (rows, cols))
        table.ravel()[: SPECIAL.size] = SPECIAL
        header = [f"c{j}" for j in range(cols)]
        _write_table(tmp_path / "new.csv", header, table)
        _old_write_csv(tmp_path / "old.csv", header, ((_old_fmt(v) for v in row) for row in table))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


    def test_golden_run_snapshots(self, tmp_path, monkeypatch):
        """Real field values: the snapshot states of the GOLDEN_INI run.  Only
        its wave packet's Gaussian tails, 0 < |x| < 2^-900, go to ``_fallback``."""
        fallbacks = []
        real = _float17._fallback
        monkeypatch.setattr(_float17, "_fallback",
                            lambda values: fallbacks.extend(values.tolist()) or real(values))
        cfg = parse_config(GOLDEN_INI)
        result = driver.run(cfg, collect_snapshots=True)
        assert len(result.snapshots) == 5
        for k, (_, u) in enumerate(result.snapshots):
            _write_snapshot(tmp_path / f"new{k}.csv", cfg.grid, u)
            _old_snapshot(tmp_path / f"old{k}.csv", cfg.grid.x, u)
            assert (tmp_path / f"new{k}.csv").read_bytes() == (
                tmp_path / f"old{k}.csv"
            ).read_bytes()
        assert fallbacks and all(0 < abs(x) < 2.0**-900 for x in fallbacks)


GOLDEN_INI = """
[model]
kind = toy

[grid]
x_min = -30
x_max = 30
h = 0.025
dt = 0.025

[run]
t_final = 2
bc = transparent
probes = 5, 8
snapshot_stride = 20
energy_stride = 10
label = golden

[data]
kind = wave-packet
omega = 0.5
x0 = 6
width = 1
phase = plain

[toy]
alpha = 1
beta = 0.2
smoothing = 1
"""

GOLDEN_SHA256 = {
    "amplitude.csv": "363f4bc3df405c70111a6c661673000c0ea1989fb903e71075aadcb0b76aed78",
    "config.ini": "4a45309fbae435a4536d11e5757b882fe1c3427b775ea2ef13fe2739f7aea594",
    "energy.csv": "bc3848a80875ff79c0cc231440f342bba783f7bda187394cb5b4209eceec326c",
    "gain.csv": "01923caf80def43cbd0a08dddce3f581d1e7f9cb8226e58fc5f1e41cd4bde118",
    "snapshots/index.csv": "8f3e04c843d7c1e738442dba782313b837c106a3b4db443027e79420b9ef5929",
    "snapshots/snap_000000.csv": "845fe0f3065066412d80737698abdabf9e28f7dd64c06adf2ba56aece0b5977e",
    "snapshots/snap_000001.csv": "a5aea7130cd1386a469e117c562f01b641b3e61e63998c78dce1ff0f51124575",
    "snapshots/snap_000002.csv": "2ca9ea2ef6a74df18b109e5bd6357155ae643b28e1e11f11e8a576fec1a9f27c",
    "snapshots/snap_000003.csv": "345ac89caaf10d266351fdfba9526bb2c01273ab49ab12d830c6743fb15cd52f",
    "snapshots/snap_000004.csv": "dbc86628109f9b93b7bc270ff44acb80c396b11b6f6d905501bd89c1936cc890",
    "summary.txt": "dd9d1b584f4a74351abe0ffd630f003e970b2b90920a581164bf5ea56430ee6c",
}


# The golden run with beta = 0: P vanishes, so the stepper does not split and
# these bytes pin the unsplit step on its own.
GOLDEN_UNSPLIT_INI = GOLDEN_INI.replace("beta = 0.2", "beta = 0")

GOLDEN_UNSPLIT_SHA256 = {
    "amplitude.csv": "f1c12bb173547bf765f5540b9614980787017dd4c7e4d6d6c410ced178a30875",
    "config.ini": "901f430a38a138dd9adbb8b984b7f7530979c10fa20b6ef0b57cee7efde26549",
    "energy.csv": "3210fda5415c97ccf3a538d0edddbfbe998a09cb2ac87587a94f9bd97231a0d9",
    "gain.csv": "784f951cba5bf56cd84695eb33383372dc7a236e43a323625ce74c0c0ea78c2b",
    "snapshots/index.csv": "8f3e04c843d7c1e738442dba782313b837c106a3b4db443027e79420b9ef5929",
    "snapshots/snap_000000.csv": "845fe0f3065066412d80737698abdabf9e28f7dd64c06adf2ba56aece0b5977e",
    "snapshots/snap_000001.csv": "53470232cb0edca315f17cd1a3b0b5b25084f6d7152ac6889bea5dd05309b10a",
    "snapshots/snap_000002.csv": "ea69da43685d7be0dfcda31587b68c8942ba1060371c5912c3d742b15f9467af",
    "snapshots/snap_000003.csv": "692d8556c1d5bbd435a6ec8fe99ac5d1370bc144b0b3c7914a1d8020e2390b5b",
    "snapshots/snap_000004.csv": "e6f278b59991fdfa0077d71eff0292e23bdf32aa2db2bead5041c58e52336dfa",
    "summary.txt": "400b801aeb2a2febe4d7e0ae645636577a36cef8eb56f0606c76c6cb4eb3f536",
}


def _assert_run_hashes(tmp_path, ini, hashes):
    cfg = tmp_path / "golden.ini"
    cfg.write_text(ini, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), "--quiet", "run", str(cfg)]) == 0
    written = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
    assert sorted(written) == sorted(hashes)
    for rel, digest in hashes.items():
        assert hashlib.sha256(written[rel].read_bytes()).hexdigest() == digest, rel


def test_toy_run_output_hashes(tmp_path):
    _assert_run_hashes(tmp_path, GOLDEN_INI, GOLDEN_SHA256)


def test_unsplit_toy_run_output_hashes(tmp_path):
    _assert_run_hashes(tmp_path, GOLDEN_UNSPLIT_INI, GOLDEN_UNSPLIT_SHA256)


# --- snapshots written by the helper process -----------------------------------


def _golden(tmp_path: Path) -> Path:
    path = tmp_path / "golden.ini"
    path.write_text(GOLDEN_INI, encoding="utf-8")
    return path


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# Stand-ins for cli._write_snapshot live at module level, so that the hand-off
# to the helper can pickle them by reference.


def _failing_write_snapshot(path, grid, u):
    raise OSError("disk full while writing " + Path(path).name)


def _last_write_fails(path, grid, u):
    """Writes every snapshot of the golden run but the last, snap_000004.csv."""
    if Path(path).name == "snap_000004.csv":
        raise OSError(28, "No space left on device", str(path))
    _write_snapshot(path, grid, u)


def _pid_logging_write_snapshot(path, grid, u):
    """Write the snapshot, then log "<pid> <parent pid>" of the writing process
    in <run dir>.pids."""
    _write_snapshot(path, grid, u)
    with Path(path).parents[1].with_suffix(".pids").open("a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()} {os.getppid()}\n")


class TestWriterProcess:
    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, rather than hang, a test whose run waits on a lost helper."""

        def expire(signum, frame):
            raise TimeoutError("snapshot helper test ran past its deadline")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_background_writes_the_inline_bytes(self, tmp_path, monkeypatch, made, reaped):
        """On the golden run, and on a reference-mode run, which steps on an
        enlarged grid while its snapshots hold the configured one."""
        (reference,) = (c for c in get_preset("free-wave-bc").configs if c.label == "reference")
        configs = {
            "golden": load_config(_golden(tmp_path)),
            "reference": replace(reference, t_final=2.0, snapshot_stride=10),
        }
        monkeypatch.setattr(cli, "_write_snapshot", _pid_logging_write_snapshot)
        me = str(os.getpid())
        for source, cfg in configs.items():
            pids = {}
            for background in (False, True):
                monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: background)
                cli._execute(cfg, tmp_path / source / str(background))
                pid_log = tmp_path / source / f"{background}.pids"
                pids[background] = set(pid_log.read_text(encoding="utf-8").splitlines())
            assert pids[False] == {f"{me} {os.getppid()}"}
            (writer,) = pids[True]
            assert writer.split()[0] != me and writer.split()[1] == me
            inline = _files(tmp_path / source / "False")
            snapshots = [name for name in inline if name.startswith("snapshots/snap_")]
            # one per stride, and one at the last step
            assert len(snapshots) == -(-cfg.n_steps // cfg.snapshot_stride) + 1, source
            x_column = [_fmt(x) for x in cfg.grid.x]
            for name in snapshots:
                rows = inline[name].decode().splitlines()[1:]
                assert [row.split(",", 1)[0] for row in rows] == x_column, (source, name)
            assert inline == _files(tmp_path / source / "True"), source
        helpers = [lu for lu in made if type(lu) is solver._SplitLU]
        assert len(helpers) == len(configs)
        assert all(reaped(lu.pid) for lu in helpers)

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="pool workers must inherit the patched write",
    )
    def test_pooled_family_writes_the_inline_bytes(self, tmp_path, monkeypatch, made, reaped):
        """Pool workers that each fork a helper give the bytes of an inline
        family, and each reaps its helper before its run returns."""
        base = load_config(_golden(tmp_path))
        configs = [replace(base, label=f"golden-{k}") for k in range(3)]
        monkeypatch.setattr(cli, "_write_snapshot", _pid_logging_write_snapshot)
        # A helper exactly when each run is told that two runs are in flight.
        monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: runs_in_flight == 2)
        log, real_run = tmp_path / "reaped.log", cli.run

        def run(cfg, **kwargs):
            """The run; then, in the process that ran it (a forked pool worker
            inherits this patch and its own copy of ``made``), one line per
            helper: its pid, and whether it was reaped when the run returned."""
            try:
                return real_run(cfg, **kwargs)
            finally:
                with log.open("a", encoding="utf-8") as fh:
                    fh.writelines(f"{lu.pid} {reaped(lu.pid)}\n"
                                  for lu in made if type(lu) is solver._SplitLU)
                made.clear()

        monkeypatch.setattr(cli, "run", run)
        cli._execute_family(configs, tmp_path / "inline", 1, quiet=True)
        cli._execute_family(configs, tmp_path / "pooled", 2, quiet=True)
        helpers = dict(line.split() for line in log.read_text(encoding="utf-8").splitlines())
        assert list(helpers.values()) == ["True"] * len(configs)
        inline, pooled = _files(tmp_path / "inline"), _files(tmp_path / "pooled")
        me = str(os.getpid())
        for cfg in configs:
            assert inline.pop(f"{cfg.label}.pids").decode() == f"{me} {os.getppid()}\n" * 5
            # One helper, forked by the pool worker that ran the run, wrote them.
            (writer,) = set(pooled.pop(f"{cfg.label}.pids").decode().splitlines())
            assert me not in writer.split()
            assert writer.split()[0] in helpers
        # summary.csv differs only in its last column, the wall time.
        inline_rows, pooled_rows = (
            [row.rsplit(",", 1)[0] for row in tree.pop("summary.csv").decode().splitlines()]
            for tree in (inline, pooled)
        )
        assert len(inline_rows) == 1 + len(configs)
        assert inline_rows == pooled_rows
        assert len(inline) == 3 * len(GOLDEN_SHA256)
        assert inline == pooled

    def test_writer_error_is_raised_not_hung(self, tmp_path, monkeypatch, made, reaped):
        cfg = load_config(_golden(tmp_path))
        monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: True)
        monkeypatch.setattr(cli, "_write_snapshot", _failing_write_snapshot)
        with pytest.raises(OSError, match="disk full while writing snap_"):
            cli._execute(cfg, tmp_path / "out")
        (lu,) = made
        assert reaped(lu.pid)
        assert not (tmp_path / "out" / "snapshots" / "index.csv").exists()

    def test_a_failed_write_is_raised_before_finish(self, tmp_path, monkeypatch):
        """The helper's exception comes back pickled and is raised by the run:
        from a later step or hand-off when the first write fails, and from the
        run's last wait when the last one does; finish() is never reached."""
        cfg = load_config(_golden(tmp_path))
        monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: True)
        finished = []
        monkeypatch.setattr(cli._SnapshotWriter, "finish", lambda self: finished.append(self))
        for fail, expected in ((_failing_write_snapshot, "snap_000000.csv"),
                               (_last_write_fails, "snap_000004.csv")):
            monkeypatch.setattr(cli, "_write_snapshot", fail)
            out = tmp_path / fail.__name__
            with pytest.raises(OSError, match=expected) as raised:
                cli._execute(cfg, out)
            assert type(raised.value) is OSError
            assert not (out / "snapshots" / "index.csv").exists()
            assert not (out / "amplitude.csv").exists()
        assert raised.value.errno == 28 and raised.value.filename.endswith("snap_000004.csv")
        assert finished == []
        assert sorted(p.name for p in (tmp_path / "_last_write_fails" / "snapshots").iterdir()) \
            == [f"snap_{k:06d}.csv" for k in range(4)]

    def test_writer_owns_what_it_is_sent(self, tmp_path):
        """The helper writes the u it was handed, though the caller overwrites
        that array right after the hand-off."""
        grid = Grid(x_min=-1.0, x_max=1.0, h=1 / 1500, dt=1 / 1500)
        u = np.exp(1j * grid.x) * (1.0 + grid.x**2)
        expected = tmp_path / "expected.csv"
        _write_snapshot(expected, grid, u)
        writer = _SnapshotWriter(tmp_path / "out", grid)
        off, diag = np.full(grid.n - 1, -0.25 + 0j), np.full(grid.n, 1.5 + 0j)
        lu = solver._factor(off, diag, off, second_cpu=True)
        try:
            for k in range(3):
                state = FieldState(u=u.copy(), v=u, t=float(k))
                lu.call(writer(state), state.u)
                state.u[:] = np.nan  # a stepper that reuses its arrays
            lu.wait()
        finally:
            lu.close()
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(lu.pid, os.WNOHANG)
        writer.finish()
        for k in range(3):
            written = tmp_path / "out" / "snapshots" / f"snap_{k:06d}.csv"
            assert written.read_bytes() == expected.read_bytes()

    def test_grid_reaches_the_writer_once(self, tmp_path):
        """The x array is never sent: each hand-off pickles the write, the
        file's path and the run's ``Grid`` (four numbers), from which the
        helper computes x, and u goes through shared memory."""
        grid = Grid(x_min=-1.0, x_max=1.0, h=1 / 1500, dt=1 / 1500)
        u = np.exp(1j * grid.x)
        writer = _SnapshotWriter(tmp_path, grid)
        tasks = [writer(FieldState(u=u, v=u, t=float(k))) for k in range(3)]
        for k, task in enumerate(tasks):
            assert task.func is cli._write_snapshot
            assert task.args == (tmp_path / "snapshots" / f"snap_{k:06d}.csv", grid)
            assert len(pickle.dumps((task, u.size))) < 1000  # u itself is 48 KB
        off, diag = np.full(grid.n - 1, -0.25 + 0j), np.full(grid.n, 1.5 + 0j)
        lu = solver._factor(off, diag, off, second_cpu=True)
        try:
            lu.call(tasks[2], u)
            lu.wait()
        finally:
            lu.close()
        expected = tmp_path / "expected.csv"
        _write_snapshot(expected, grid, u)
        assert (tmp_path / "snapshots" / "snap_000002.csv").read_bytes() == expected.read_bytes()

    def test_numerical_failure_leaves_no_writer(self, tmp_path, monkeypatch, capsys, made, reaped):
        original = Stepper.step
        counter = {"n": 0}

        def poisoned(self, state):
            out = original(self, state)
            counter["n"] += 1
            if counter["n"] == 3:
                out.u[5] = np.inf
            return out

        monkeypatch.setattr(Stepper, "step", poisoned)
        monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: True)
        args = ["--output-dir", str(tmp_path / "out"), "--quiet", "run", str(_golden(tmp_path))]
        assert main(args) == 3
        assert "step 3" in capsys.readouterr().err
        (lu,) = made
        assert reaped(lu.pid)

    def test_writer_forks_before_any_thread(self, tmp_path):
        """The helper that writes the snapshots is forked while the run has
        one Python thread.

        Forking a multi-threaded process is deprecated (and warned about from
        Python 3.12 on).  This checks only Python's threads: BLAS pools
        are kept to one thread here.  With the default BLAS settings, numpy's
        bundled OpenBLAS, which also serves the stepper's LAPACK calls, starts
        a pool thread at import (two OS threads on two CPUs; scipy's OpenBLAS
        adds one more where the stepper falls back to scipy), and those are
        alive at the fork: idle, and the helper's writes make no BLAS call, but Python
        3.12+ warns about them (a DeprecationWarning, hidden unless enabled
        with ``-W``).
        """
        script = """
import os, sys, threading
from pathlib import Path
from ergosim import cli, driver
from ergosim.config import load_config

at_fork = []
os.register_at_fork(before=lambda: at_fork.append(threading.active_count()))
driver._spare_cpu = lambda runs_in_flight: True
cfg = load_config(Path(sys.argv[1]))
for k in range(2):
    cli._execute(cfg, Path(sys.argv[2]) / str(k))
assert at_fork == [1, 1], at_fork
"""
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", script,
             str(_golden(tmp_path)), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert _files(tmp_path / "out" / "0") == _files(tmp_path / "out" / "1")


class TestSpareCpu:
    """The spare-CPU rule (``driver._spare_cpu``), which ``driver.run``
    applies to every run, and which process writes a command-line run's
    snapshots."""

    @pytest.mark.parametrize(
        "cpus, runs_in_flight, background",
        [(1, 1, False), (2, 1, True), (2, 2, False), (4, 2, True), (3, 2, False)],
    )
    def test_rule(self, monkeypatch, cpus, runs_in_flight, background):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert driver._spare_cpu(runs_in_flight) is background

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert driver._spare_cpu(1) is True
        assert driver._spare_cpu(2) is False

    def test_no_fork_means_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.delattr(os, "fork", raising=False)
        assert driver._spare_cpu(1) is False

    @pytest.mark.parametrize("stride", [20, 99, 100, 300])
    @pytest.mark.parametrize("spare", [True, False])
    def test_the_spare_cpu_goes_to_one_helper(self, tmp_path, monkeypatch, made, spare, stride):
        """A run with a spare CPU forks one helper, whatever its snapshot
        stride, and hands it every snapshot's write; a run without one forks
        nothing and writes its snapshots itself."""
        cfg = replace(load_config(_golden(tmp_path)), snapshot_stride=stride)
        monkeypatch.setattr(driver, "_spare_cpu", lambda runs_in_flight: spare)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(cli, "_write_snapshot", _pid_logging_write_snapshot)
        cli._execute(cfg, tmp_path / "out")
        (lu,) = made
        assert len(forks) == spare
        assert type(lu) is (solver._SplitLU if spare else solver._TridiagLU)
        writers = set((tmp_path / "out.pids").read_text(encoding="utf-8").splitlines())
        assert writers == {f"{lu.pid} {os.getpid()}" if spare else f"{os.getpid()} {os.getppid()}"}
