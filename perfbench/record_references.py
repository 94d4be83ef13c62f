"""Record the reference results every benchmark run is checked against.

    python3 perfbench/record_references.py

Runs every workload variant through the ``ergosim`` command line of the
checkout it is started in (two at a time) and writes ``references.json``:
gain_inf and stabilization per probe, flux denominator and initial/final
energy total, per run.  The recorded file belongs to the commit that defined
the benchmark; re-recording it on a later commit would hide any change in the
results, so do it only when the benchmark itself is redefined.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


def record(name: str, variant: int) -> dict:
    work = run.OUT / "references" / f"{name}-{variant}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(workloads.config_text(name, variant), encoding="utf-8")
    subprocess.run(
        [sys.executable, "-c", run.CLI_CODE, "--quiet",
         *workloads.cli_args(name, config, work / "out")],
        env=run.child_env(), cwd=run.ROOT, check=True, timeout=600,
    )
    got = workloads.collect(name, work / "out")
    shutil.rmtree(work)
    problems = workloads.check_physics(name, got)
    if problems:
        raise SystemExit(f"{name} variant {variant} fails its physics check: {problems}")
    return got


def main() -> int:
    jobs = [(name, v) for name in workloads.WORKLOADS for v in range(workloads.VARIANTS)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: record(*job), jobs))
    refs: dict = {name: {} for name in workloads.WORKLOADS}
    for (name, variant), got in zip(jobs, results):
        refs[name][str(variant)] = got
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    print(f"wrote {workloads.REFERENCES} ({len(jobs)} invocations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
