"""Byte format of the CLI's float CSV files.

Two guards on the output spec (17 significant digits, reproducible byte for
byte):

* the bulk table writer is compared with a copy of the per-cell writer it
  replaced (``csv.writer`` fed ``f"{x:.17g}"`` strings, ``abs`` of each
  ``np.complex128``), on values where formatting or ``abs`` can go wrong;
* the sha256 of every file of a small toy ``ergosim run`` is pinned.  The
  hashes were recorded with the per-cell writer; they depend on the last bits
  of the arithmetic, so a different LAPACK or numpy build may change them.

The snapshot files may be written by a forked writer process; the tests at
the end check that it writes the same bytes as the inline path and that no
writer process outlives a run, however the run ends.
"""

from __future__ import annotations

import csv
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ergosim import cli
from ergosim.cli import _SnapshotWriter, _write_snapshot, _write_table, main
from ergosim.config import load_config
from ergosim.solver import FieldState, Stepper

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
        x = -1.0 + 0.04 * np.arange(n)
        x[: SPECIAL.size] = SPECIAL
        writer = _SnapshotWriter(tmp_path / "new", x)
        snaps = [u0, u0[::-1].copy(), -u0]
        for k, u in enumerate(snaps):
            writer(FieldState(u=u, v=u, t=0.5 * k))
        writer.finish(tmp_path / "new")

        old = tmp_path / "old"
        old.mkdir()
        for k, u in enumerate(snaps):
            name = f"snap_{k:06d}.csv"
            _old_snapshot(old / name, x, u)
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
    "amplitude.csv": "b3a3eab4010e2ecb85e3c73d0a87b79ff1137541c60f79e9c8c79bc700f78817",
    "config.ini": "4a45309fbae435a4536d11e5757b882fe1c3427b775ea2ef13fe2739f7aea594",
    "energy.csv": "f6f4f1d040f5e3fedcd8b90556d1c96d58d807a2602ab2e1932e5f5c8ca251a2",
    "gain.csv": "98a0fcfdc439b6326bd727886f5e6c6739213849468d0ec8824a3f2f89886c9a",
    "snapshots/index.csv": "8f3e04c843d7c1e738442dba782313b837c106a3b4db443027e79420b9ef5929",
    "snapshots/snap_000000.csv": "845fe0f3065066412d80737698abdabf9e28f7dd64c06adf2ba56aece0b5977e",
    "snapshots/snap_000001.csv": "dc5c54d93b4cf0f5946394a9ed22b947a32f4179e6f0ecaf551b2e2c91124156",
    "snapshots/snap_000002.csv": "f2fa305117ec18ea5e56f3f2210e524be544093ab9335043dd155c62e3f148be",
    "snapshots/snap_000003.csv": "ed5bd7ff6dd585cc5cf4791c23c6d3dc53d053186b863093ce6ef784383c2e4d",
    "snapshots/snap_000004.csv": "5e99a3b4076d3b0d5c240b93bfd95ef751bede3afbf24eba9dd412417cfe777c",
    "summary.txt": "36226f90da9998edc36b537dc4b7a71bcd3a92a255389f3221f477ec5ffdeff7",
}


def test_toy_run_output_hashes(tmp_path):
    cfg = tmp_path / "golden.ini"
    cfg.write_text(GOLDEN_INI, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--output-dir", str(out), "--quiet", "run", str(cfg)]) == 0
    written = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
    assert sorted(written) == sorted(GOLDEN_SHA256)
    for rel, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256(written[rel].read_bytes()).hexdigest() == digest, rel


# --- the snapshot writer process ----------------------------------------------


def _golden(tmp_path: Path) -> Path:
    path = tmp_path / "golden.ini"
    path.write_text(GOLDEN_INI, encoding="utf-8")
    return path


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# Stand-ins for cli._write_snapshot live at module level, so that the executor
# can pickle them by reference.


def _failing_write_snapshot(path, x, u):
    raise OSError("disk full while writing " + Path(path).name)


def _pid_logging_write_snapshot(path, x, u):
    """Write the snapshot, then log "<pid> <parent pid>" of the writing process
    in <run dir>.pids."""
    _write_snapshot(path, x, u)
    with Path(path).parents[1].with_suffix(".pids").open("a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()} {os.getppid()}\n")


class TestWriterProcess:
    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, rather than hang, a test whose run waits on a lost writer."""

        def expire(signum, frame):
            raise TimeoutError("snapshot writer test ran past its deadline")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_background_writes_the_inline_bytes(self, tmp_path, monkeypatch):
        cfg = load_config(_golden(tmp_path))
        monkeypatch.setattr(cli, "_write_snapshot", _pid_logging_write_snapshot)
        pids = {}
        for background in (False, True):
            monkeypatch.setattr(cli, "_spare_cpu", lambda runs_in_flight: background)
            cli._execute(cfg, tmp_path / str(background))
            pid_log = tmp_path / f"{background}.pids"
            pids[background] = set(pid_log.read_text(encoding="utf-8").splitlines())
        me = str(os.getpid())
        assert pids[False] == {f"{me} {os.getppid()}"}
        (writer,) = pids[True]
        assert writer.split()[0] != me and writer.split()[1] == me
        inline, background = _files(tmp_path / "False"), _files(tmp_path / "True")
        assert len(inline) == len(GOLDEN_SHA256)
        assert inline == background
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="pool workers must inherit the patched writer",
    )
    def test_pooled_family_writes_the_inline_bytes(self, tmp_path, monkeypatch):
        """Pool workers that each fork a writer give the bytes of an inline family."""
        base = load_config(_golden(tmp_path))
        configs = [replace(base, label=f"golden-{k}") for k in range(3)]
        monkeypatch.setattr(cli, "_write_snapshot", _pid_logging_write_snapshot)
        # Background exactly when each run is told that two runs are in flight.
        monkeypatch.setattr(cli, "_spare_cpu", lambda runs_in_flight: runs_in_flight == 2)
        cli._execute_family(configs, tmp_path / "inline", 1, quiet=True)
        cli._execute_family(configs, tmp_path / "pooled", 2, quiet=True)
        assert multiprocessing.active_children() == []
        inline, pooled = _files(tmp_path / "inline"), _files(tmp_path / "pooled")
        me = str(os.getpid())
        for cfg in configs:
            assert inline.pop(f"{cfg.label}.pids").decode() == f"{me} {os.getppid()}\n" * 5
            # One writer, forked by the pool worker that ran the run.
            (writer,) = set(pooled.pop(f"{cfg.label}.pids").decode().splitlines())
            assert me not in writer.split()
        # summary.csv differs only in its last column, the wall time.
        inline_rows, pooled_rows = (
            [row.rsplit(",", 1)[0] for row in tree.pop("summary.csv").decode().splitlines()]
            for tree in (inline, pooled)
        )
        assert len(inline_rows) == 1 + len(configs)
        assert inline_rows == pooled_rows
        assert len(inline) == 3 * len(GOLDEN_SHA256)
        assert inline == pooled

    def test_writer_error_is_raised_not_hung(self, tmp_path, monkeypatch):
        cfg = load_config(_golden(tmp_path))
        monkeypatch.setattr(cli, "_spare_cpu", lambda runs_in_flight: True)
        monkeypatch.setattr(cli, "_write_snapshot", _failing_write_snapshot)
        with pytest.raises(OSError, match="disk full while writing snap_"):
            cli._execute(cfg, tmp_path / "out")
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out" / "snapshots" / "index.csv").exists()

    def test_finish_raises_the_writer_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_write_snapshot", _failing_write_snapshot)
        x = np.linspace(-1.0, 1.0, 11)
        with cli.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            writer = _SnapshotWriter(tmp_path, x, pool)
            writer(FieldState(u=x + 0j, v=x + 0j, t=0.0))  # fails in the writer process
            with pytest.raises(OSError, match="snap_000000.csv"):
                writer.finish(tmp_path)
        assert not (tmp_path / "snapshots" / "index.csv").exists()
        assert not (tmp_path / "amplitude.csv").exists()

    def test_writer_owns_what_it_is_sent(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 3001)
        u = np.exp(1j * x) * (1.0 + x**2)
        expected = tmp_path / "expected.csv"
        _write_snapshot(expected, x, u)
        with cli.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            writer = _SnapshotWriter(tmp_path / "out", x, pool)
            for k in range(3):
                state = FieldState(u=u.copy(), v=u, t=float(k))
                writer(state)
                state.u[:] = np.nan  # a stepper that reuses its arrays
            writer.finish(tmp_path / "out")
        for k in range(3):
            written = tmp_path / "out" / "snapshots" / f"snap_{k:06d}.csv"
            assert written.read_bytes() == expected.read_bytes()

    def test_numerical_failure_leaves_no_writer(self, tmp_path, monkeypatch, capsys):
        original = Stepper.step
        counter = {"n": 0}

        def poisoned(self, state):
            out = original(self, state)
            counter["n"] += 1
            if counter["n"] == 3:
                out.u[5] = np.inf
            return out

        monkeypatch.setattr(Stepper, "step", poisoned)
        monkeypatch.setattr(cli, "_spare_cpu", lambda runs_in_flight: True)
        args = ["--output-dir", str(tmp_path / "out"), "--quiet", "run", str(_golden(tmp_path))]
        assert main(args) == 3
        assert "step 3" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_writer_forks_before_any_thread(self, tmp_path):
        """The executor forks its worker before it starts a thread of its own.

        Forking a multi-threaded process is deprecated (and warned about from
        Python 3.12 on).  This checks only the executor's threads: BLAS pools
        are kept to one thread here.  With the default BLAS settings, the
        OpenBLAS builds of numpy and scipy each start a pool thread at import
        (three OS threads on two CPUs), and those are alive at the fork: idle,
        and the writer makes no BLAS call, but Python 3.12+ warns about them
        (a DeprecationWarning, hidden unless enabled with ``-W``).
        """
        script = """
import os, sys, threading
from pathlib import Path
from ergosim import cli
from ergosim.config import load_config

at_fork = []
os.register_at_fork(before=lambda: at_fork.append(threading.active_count()))
cli._spare_cpu = lambda runs_in_flight: True
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
    @pytest.mark.parametrize(
        "cpus, runs_in_flight, background",
        [(1, 1, False), (2, 1, True), (2, 2, False), (4, 2, True), (3, 2, False)],
    )
    def test_rule(self, monkeypatch, cpus, runs_in_flight, background):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert cli._spare_cpu(runs_in_flight) is background

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli._spare_cpu(1) is True
        assert cli._spare_cpu(2) is False

    def test_no_fork_means_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert cli._spare_cpu(1) is False
