"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check the harness, not ergosim: wrappers restore what they patch, the
self-time arithmetic, that the checker rejects a perturbed result, and that
each workload survives a smoke run at a tiny t_final.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _attributes() -> list[object]:
    owners = [tracing._owner(module, path) for module, path, _ in tracing.BOUNDARIES]
    return [vars(owner)[attr] for owner, attr in owners]


def test_wrappers_restore_every_patched_attribute():
    before = _attributes()
    patched = tracing.install(tracing.Tracer())
    during = _attributes()
    tracing.restore(patched)
    after = _attributes()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_traced_run_records_nested_spans(tmp_path):
    import ergosim.cli

    config = tmp_path / "toy.ini"
    config.write_text(workloads.config_text("toy-family", 0, t_final=0.4), encoding="utf-8")
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        code = ergosim.cli.main(workloads.cli_args("toy-family", config, tmp_path / "out", 1))
    finally:
        tracing.restore(patched)
    assert code == 0
    names = [s[0] for s in tracer.spans]
    assert names.count("cli.execute") == 4
    assert names.count("solver.step") == 4 * 10
    assert names.count("cli.snapshot") == 4 * 2
    for name, start, end, parent, run_id in tracer.spans:
        assert end >= start
        if name == "solver.step":
            assert tracer.spans[parent][0] == "driver.run"
            assert 1 <= run_id <= 4
    assert all(s >= -1e-9 for s in tracing.self_times(tracer.spans))


def test_self_time_arithmetic_on_synthetic_spans():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),      # child of root
        ("a.x", 2.0, 3.0, 1, 0),    # child of a
        ("b", 5.0, 9.0, 0, 0),      # child of root
        ("b.x", 5.0, 6.5, 3, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.5])
    assert sum(selfs) == pytest.approx(10.0)  # self times partition the root
    # overlapping children count once: b covers the union [5, 7]
    overlapping = spans + [("b.y", 6.0, 7.0, 3, 0)]
    assert tracing.self_times(overlapping)[3] == pytest.approx(2.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(20)))[0] == 50.0
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(10000)))[0] == 99.9
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checker_accepts_reference_and_rejects_perturbed_gain(name):
    refs = workloads.load_references()
    for seed in (0, 5):
        got = copy.deepcopy(refs[name][str(seed)])
        assert workloads.check(name, seed, got, refs) == []
        label = next(iter(got))
        probe = next(iter(got[label]["gain_inf"]))
        got[label]["gain_inf"][probe] *= 1.0 + 1e-5
        assert any("gain_inf" in p for p in workloads.check(name, seed, got, refs))


def test_seed_zero_is_the_headline_configuration_and_seeds_repeat():
    assert workloads.parameters("rn-wavepacket", 0) == {"omega": 2.3, "x0": 250.0}
    assert workloads.parameters("rn-highenergy", 0) == {"omega": 100.0, "x0": -37.5}
    assert workloads.parameters("toy-family", 0) == {"omega": 0.0, "x0": 7.5}
    for name in workloads.WORKLOADS:
        assert workloads.config_text(name, 3) == workloads.config_text(name, 3)
        assert workloads.config_text(name, 3) != workloads.config_text(name, 4)


def test_physics_check_rejects_wrong_ordering():
    refs = workloads.load_references()
    got = copy.deepcopy(refs["toy-family"]["0"])
    labels = sorted(got)
    a, b = labels[1], labels[2]
    got[a]["gain_inf"], got[b]["gain_inf"] = got[b]["gain_inf"], got[a]["gain_inf"]
    assert workloads.check_physics("toy-family", got)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_at_tiny_t_final(name, tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(workloads.config_text(name, 0, t_final=0.2), encoding="utf-8")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", run.CLI_CODE, "--quiet", *workloads.cli_args(name, config, out)],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = workloads.collect(name, out)
    assert len(got) == workloads.WORKLOADS[name].runs
    for r in got.values():
        assert r["t_final"] == pytest.approx(0.2)
        assert r["gain_inf"] and r["flux_denominator"] > 0
