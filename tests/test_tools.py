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
    proc = src_loc()
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    modules = sorted(p.name for p in (ROOT / "src" / "ergosim").glob("*.py"))
    assert [row.split()[1] for row in rows] == modules + ["total"]
    assert sum(int(row.split()[0]) for row in rows[:-1]) == int(rows[-1].split()[0])


def test_src_loc_refuses_a_directory_without_modules(tmp_path):
    proc = src_loc(str(tmp_path / "missing"))
    assert proc.returncode == 2
    assert proc.stdout == "" and str(tmp_path / "missing") in proc.stderr
