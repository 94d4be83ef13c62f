"""Run driver: determinism, reference-mode windowing, cadences, gauge freedom."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ergosim as es
from ergosim import initial_data
from ergosim.diagnostics import energy_positive_zone
from ergosim.driver import run
from ergosim.solver import FieldState, Stepper


def toy_config(**overrides):
    base = dict(
        model="toy",
        toy=es.ToyParams(alpha=1.0, beta=0.0, smoothing=1.0),
        grid=es.Grid(x_min=-30.0, x_max=30.0, h=0.1, dt=0.1),
        t_final=12.0,
        data=es.DataSpec(kind="wave-packet", omega=0.0, x0=7.5, width=1.0, phase="plain"),
        bc=es.BoundaryMode.TRANSPARENT,
        probes=(15.0,),
    )
    base.update(overrides)
    return es.SimConfig(**base)


def test_identical_configs_give_identical_results():
    cfg = toy_config()
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.final_state.u, b.final_state.u)
    s_a, s_b = a.gain_series(15.0), b.gain_series(15.0)
    assert np.array_equal(s_a.accumulated_flux, s_b.accumulated_flux)
    assert np.array_equal(a.energy_times, b.energy_times)


def test_flux_sampled_every_step_and_energies_on_stride():
    cfg = toy_config(energy_stride=10, snapshot_stride=30)
    res = run(cfg, collect_snapshots=True)
    assert len(res.gain_series(15.0).times) == cfg.n_steps + 1
    assert len(res.energy_times) == cfg.n_steps // 10 + 1
    assert len(res.snapshots) == cfg.n_steps // 30 + 1
    assert res.zone_gain[0] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("bc", [es.BoundaryMode.TRANSPARENT, es.BoundaryMode.REFERENCE])
@pytest.mark.parametrize("stride", [1, 7, 13, 500])
def test_samplers_share_the_probe_time_axis(bc, stride):
    # 120 steps: 7 and 13 do not divide it, 500 exceeds it
    cfg = toy_config(bc=bc, energy_stride=stride, snapshot_stride=stride)
    res = run(cfg, collect_snapshots=True)
    probe_times = res.gain_series(15.0).times
    assert probe_times.size == cfg.n_steps + 1
    ks = sorted(set(range(0, cfg.n_steps + 1, stride)) | {cfg.n_steps})
    assert np.array_equal(res.energy_times, probe_times[ks])
    assert np.array_equal([t for t, _ in res.snapshots], probe_times[ks])


def test_initial_and_zone_energies_come_from_the_energy_samples():
    cfg = toy_config(energy_stride=10)
    res = run(cfg)
    # reference: the zone gain as one division per sample by the zone energy
    # of the t = 0 data, computed before the run starts
    pp = cfg.potentials(cfg.grid.x)
    state = FieldState(*initial_data.build(cfg.data, cfg.grid.x, pp.v), t=0.0)
    stepper = Stepper(cfg.grid, pp, cfg.bc)
    zone_e0 = energy_positive_zone(state, pp)
    expected = [energy_positive_zone(state, pp) / zone_e0]
    for k in range(1, cfg.n_steps + 1):
        state = stepper.step(state)
        if k % cfg.energy_stride == 0 or k == cfg.n_steps:
            expected.append(energy_positive_zone(state, pp) / zone_e0)
    assert np.array_equal(res.zone_gain, np.asarray(expected))


def test_reference_mode_restricts_to_window():
    cfg = toy_config(bc=es.BoundaryMode.REFERENCE)
    res = run(cfg, collect_snapshots=True)
    assert res.final_state.u.size == cfg.grid.n
    t, snap = res.snapshots[-1]
    assert snap.size == cfg.grid.n
    # the window states agree with a big-domain run while waves are interior
    direct = run(toy_config())
    assert np.abs(res.final_state.u - direct.final_state.u).max() < 2e-2


def test_probe_lookup_snaps_to_node():
    cfg = toy_config()
    res = run(cfg)
    assert res.gain_series(15.0000001).probe_x == pytest.approx(15.0, abs=1e-9)
    with pytest.raises(KeyError):
        res.gain_series(14.0)


@pytest.mark.parametrize("bc", [es.BoundaryMode.TRANSPARENT, es.BoundaryMode.REFERENCE])
def test_probe_lookup_follows_the_probe_snapping_rule(bc):
    # (7.5 + 30) / 0.04 = 937.5 rounds to node 938 at x = 7.520000000000003,
    # more than h/2 from 7.5; 7.51 snaps there too, 7.49 to node 937
    cfg = toy_config(
        bc=bc, grid=es.Grid(x_min=-30.0, x_max=30.0, h=0.04, dt=0.04), t_final=4.0,
        probes=(7.5,),
    )
    res = run(cfg)
    (series,) = res.flux_series.values()
    assert series.probe_x == pytest.approx(7.52, abs=1e-9)
    for x in (7.5, 7.51):
        assert res.gain_series(x) is series
        assert res.summary(x) == series.summary()
    assert res.summary() == series.summary()
    for x in (7.49, 40.0):
        with pytest.raises(KeyError):
            res.gain_series(x)


def test_tortoise_offset_is_pure_gauge():
    # shifting the tortoise origin together with every x-landmark leaves the
    # gain invariant to rounding
    shift = 4.4
    bh0 = es.BlackHole(mass=2.001, charge=2.0, r0=0.0)
    bh1 = es.BlackHole(mass=2.001, charge=2.0, r0=shift)
    fp = es.FieldParams(q=1.0, m=0.1, l=0)
    common = dict(
        model="rn", fp=fp, t_final=60.0,
        bc=es.BoundaryMode.TRANSPARENT,
    )
    cfg0 = es.SimConfig(
        bh=bh0,
        grid=es.Grid(x_min=-50.0, x_max=50.0, h=0.1, dt=0.1),
        data=es.DataSpec(kind="flare", x0=-37.5, width=5.0, support_tol=5e-3),
        probes=(1.0,),
        **common,
    )
    cfg1 = es.SimConfig(
        bh=bh1,
        grid=es.Grid(x_min=-50.0 + shift, x_max=50.0 + shift, h=0.1, dt=0.1),
        data=es.DataSpec(kind="flare", x0=-37.5 + shift, width=5.0, support_tol=5e-3),
        probes=(1.0 + shift,),
        **common,
    )
    g0 = run(cfg0).gain_series(1.0).gain[-1]
    g1 = run(cfg1).gain_series(1.0 + shift).gain[-1]
    assert g1 == pytest.approx(g0, rel=1e-9)


def test_nan_detection_aborts_with_step_index(monkeypatch):
    cfg = toy_config()
    original = Stepper.step
    counter = {"n": 0}

    def poisoned(self, state):
        out = original(self, state)
        counter["n"] += 1
        if counter["n"] == 3:
            out.u[5] = np.nan
        return out

    monkeypatch.setattr(Stepper, "step", poisoned)
    with pytest.raises(FloatingPointError, match="step 3"):
        run(cfg)


def test_inf_detection_aborts_with_step_index(monkeypatch):
    cfg = toy_config()
    original = Stepper.step
    counter = {"n": 0}

    def poisoned(self, state):
        out = original(self, state)
        counter["n"] += 1
        if counter["n"] == 3:
            out.u[5] = np.inf
        return out

    monkeypatch.setattr(Stepper, "step", poisoned)
    with pytest.raises(FloatingPointError, match="step 3"):
        run(cfg)


def test_support_violation_surfaces_from_run():
    cfg = toy_config(
        data=es.DataSpec(kind="wave-packet", omega=0.0, x0=28.0, width=2.0, phase="plain")
    )
    with pytest.raises(es.SupportError):
        run(cfg)


def test_validation_rejects_probe_outside_domain():
    with pytest.raises(es.ConfigError, match="probes"):
        run(toy_config(probes=(40.0,)))


def test_zone_gain_is_none_without_initial_zone_energy():
    # a toy packet far left of x = 0 starts with no zone energy to divide by;
    # the zone gain is undefined, not an empty series
    left = replace(toy_config().data, x0=-20.0)
    res = run(toy_config(data=left, probes=()))
    assert res.zone_gain is None
    assert len(res.energies) == len(res.energy_times) > 1


def test_rn_run_skips_zone_gain():
    cfg = es.SimConfig(
        model="rn",
        bh=es.BlackHole(2.001, 2.0),
        fp=es.FieldParams(q=1.0, m=0.1, l=0),
        grid=es.Grid(x_min=-50.0, x_max=50.0, h=0.1, dt=0.1),
        t_final=5.0,
        data=es.DataSpec(kind="flare", x0=-37.5, width=5.0, support_tol=5e-3),
        probes=(1.0,),
    )
    res = run(cfg)
    assert res.zone_gain is None
    assert res.gain_series(1.0).initial_energy == pytest.approx(res.energies[0].total, rel=1e-14)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets glibc's malloc")
def test_library_run_reuses_freed_memory(tmp_path):
    """``driver.run`` sets glibc's malloc thresholds itself, so a caller that
    never imported the command line before the run gets the snapshot
    formatter's freed blocks back after it, not new pages that fault in
    (about 410 per n = 25001 snapshot without the setting)."""
    script = """
import resource, sys
from dataclasses import replace
from pathlib import Path
import numpy as np
from ergosim.driver import run
from ergosim.presets import get_preset
from ergosim.solver import Grid
run(replace(get_preset("toy-smoothing-flux").configs[0], t_final=1.0))
assert "ergosim.cli" not in sys.modules
from ergosim.cli import _write_snapshot
grid = Grid(-500.0, 500.0, 0.04, 0.04)  # n = 25001
u = np.exp(2.3j * grid.x)
path = Path(sys.argv[1])
_write_snapshot(path, grid, u)  # the first one may grow the heap
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    _write_snapshot(path, grid, u)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = Path(es.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "snap.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 3 < 100
