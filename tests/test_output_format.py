"""Byte format of the CLI's float CSV files.

Two guards on the output spec (17 significant digits, reproducible byte for
byte):

* the bulk table writer is compared with a copy of the per-cell writer it
  replaced (``csv.writer`` fed ``f"{x:.17g}"`` strings, ``abs`` of each
  ``np.complex128``), on values where formatting or ``abs`` can go wrong;
* the sha256 of every file of a small toy ``ergosim run`` is pinned.  The
  hashes were recorded with the per-cell writer; they depend on the last bits
  of the arithmetic, so a different LAPACK or numpy build may change them.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from ergosim.cli import _SnapshotWriter, _write_table, main
from ergosim.solver import FieldState

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
