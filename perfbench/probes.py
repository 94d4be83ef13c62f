"""Reference probes taken outside ergosim, and the environment stamp.

* ``floors``: scipy ``zgttrs`` on a prefactored complex tridiagonal system,
  and one in-place complex multiply-add, on arrays of a workload's n.  They
  bound what a step can cost without calling ergosim at all.
* ``import_breakdown``: ``python -X importtime -c "import ergosim.cli"`` in a
  fresh process; the cumulative column of the named modules.
* ``environment``: versions, BLAS/LAPACK, CPU and caches, and the code under
  test, stamped into every result.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter


def _median_call_us(fn, reps: int, warmup: int = 50) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return median(samples) * 1e6


def floors(n: int, reps: int = 1000) -> dict[str, float]:
    """Median microseconds of one ``zgttrs`` solve and one axpy pass at size n."""
    import numpy as np
    from scipy.linalg.lapack import zgttrf, zgttrs

    rng = np.random.default_rng(n)

    def cplx():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    lower, upper = 0.1 * cplx()[1:], 0.1 * cplx()[:-1]
    diag = 4.0 + cplx()
    dl, d, du, du2, ipiv, info = zgttrf(lower, diag, upper)
    if info != 0:
        raise RuntimeError(f"zgttrf failed (info={info})")
    rhs = cplx()
    a, x, y, tmp = cplx(), cplx(), cplx(), np.empty(n, dtype=complex)

    def axpy():  # y += a * x without allocating
        np.multiply(a, x, out=tmp)
        np.add(y, tmp, out=y)

    return {
        "zgttrs_us": _median_call_us(lambda: zgttrs(dl, d, du, du2, ipiv, rhs), reps),
        "axpy_us": _median_call_us(axpy, 2 * reps),
    }


def import_breakdown(env: dict[str, str]) -> dict[str, float]:
    """Cumulative import milliseconds of ergosim.cli, .potentials and .solver."""
    code = "import sys; sys.stderr.write('--start--\\n'); import ergosim.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    cumulative = {}
    for line in proc.stderr.split("--start--\n", 1)[1].splitlines():
        if not line.startswith("import time:"):
            continue
        _self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if name.strip() in ("ergosim.cli", "ergosim.potentials", "ergosim.solver"):
            cumulative[name.strip()] = int(cumulative_us) / 1e3
    return {
        "cli.import_ms": cumulative["ergosim.cli"],
        "potentials.import_ms": cumulative["ergosim.potentials"],
        "solver.import_ms": cumulative["ergosim.solver"],
    }


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _caches() -> list[str]:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        out.append(
            f"L{_read(index / 'level')} {_read(index / 'type')} {_read(index / 'size')}"
        )
    return out


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _libraries(show_config) -> dict[str, str]:
    deps = show_config(mode="dicts").get("Build Dependencies", {})
    return {
        key: f"{deps[key].get('name')} {deps[key].get('version')}"
        for key in ("blas", "lapack") if key in deps
    }


def source_digest(src: Path) -> str:
    """sha256 over the program's source files, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_libraries": _libraries(numpy.show_config),
        "scipy_libraries": _libraries(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src"),
        "settings": "no CPU affinity, cgroup or kernel setting was changed; "
                    "child processes inherit the environment plus PYTHONPATH=src",
    }
