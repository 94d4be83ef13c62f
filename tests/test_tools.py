"""The repository's tools: ``tools/src_loc.py``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC_LOC = ROOT / "tools" / "src_loc.py"


def src_loc(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SRC_LOC), *args], capture_output=True, text=True, timeout=60
    )


def test_src_loc_counts_every_module():
    """One row per module, code-only lines and then every line (``wc -l``),
    and a last row with the sums of both columns."""
    proc = src_loc()
    assert proc.returncode == 0, proc.stderr
    rows = [row.split() for row in proc.stdout.splitlines()]
    paths = sorted((ROOT / "src" / "ergosim").glob("*.py"))
    assert [row[2] for row in rows] == [p.name for p in paths] + ["total"]
    for (code, lines, _), path in zip(rows, paths):
        assert 0 < int(code) < int(lines) == len(path.read_text(encoding="utf-8").splitlines())
    for column in (0, 1):
        assert sum(int(row[column]) for row in rows[:-1]) == int(rows[-1][column])


def test_src_loc_refuses_a_directory_without_modules(tmp_path):
    proc = src_loc(str(tmp_path / "missing"))
    assert proc.returncode == 2
    assert proc.stdout == "" and str(tmp_path / "missing") in proc.stderr
