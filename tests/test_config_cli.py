"""Configuration round trips, validation messages, CLI verbs and determinism."""

from __future__ import annotations

import filecmp
from pathlib import Path

import pytest

import ergosim as es
from ergosim.cli import main
from ergosim.config import (
    ConfigError,
    SweepSpec,
    parse_config,
    parse_sweep,
    serialize_config,
    serialize_sweep,
)
from ergosim.presets import get_preset, preset_names

TOY_TEXT = """
[model]
kind = toy

[grid]
x_min = -30
x_max = 30
h = 0.1
dt = 0.1

[run]
t_final = 5
bc = transparent
probes = 15, 20
label = toy-demo

[data]
kind = wave-packet
omega = 0.5
x0 = 7.5
width = 1
phase = plain

[toy]
alpha = 1
beta = 0.2
smoothing = 1
"""

RN_TEXT = """
[model]
kind = rn

[grid]
x_min = -50
x_max = 50
h = 0.1
dt = 0.1

[run]
t_final = 5
probes = 1

[data]
kind = flare
x0 = -37.5
width = 5
support_tol = 5e-3

[blackhole]
mass = 2.001
charge = 2
r0 = 0.25

[field]
q = 1
m = 0.1
l = 0
"""

UNIFORM_TEXT = """
[model]
kind = uniform

[grid]
x_min = -5
x_max = 5
h = 0.04
dt = 0.04

[run]
t_final = 2
bc = reference

[data]
kind = wave-packet
omega = 0
x0 = 0
width = 1
phase = plain
support_tol = 1e-8

[uniform]
v = 1
p = 0.2
"""


class TestRoundTrip:
    @pytest.mark.parametrize("text", [TOY_TEXT, RN_TEXT, UNIFORM_TEXT])
    def test_parse_serialize_parse_is_identity(self, text):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_sweep_round_trip(self):
        spec = parse_sweep(TOY_TEXT + "\n[sweep]\naxis = L\nvalues = 0, 0.5, 1\n")
        again = parse_sweep(serialize_sweep(spec))
        assert again == spec


class TestValidationMessages:
    def test_missing_section(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_config("[model]\nkind = toy\n[run]\nt_final = 1\n[data]\nkind = flare\n")

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="model.kind"):
            parse_config(TOY_TEXT.replace("kind = toy", "kind = kerr", 1))

    def test_cfl_violation_is_fatal(self):
        with pytest.raises(ConfigError, match="CFL"):
            parse_config(TOY_TEXT.replace("dt = 0.1", "dt = 0.2"))

    def test_probe_outside_domain_names_field(self):
        with pytest.raises(ConfigError, match="run.probes"):
            parse_config(TOY_TEXT.replace("probes = 15, 20", "probes = 31"))

    def test_missing_model_section(self):
        bad = TOY_TEXT.replace("[toy]", "[toy-oops]")
        with pytest.raises(ConfigError, match="toy"):
            parse_config(bad)

    def test_bad_float_names_key(self):
        with pytest.raises(ConfigError, match="grid.h"):
            parse_config(TOY_TEXT.replace("h = 0.1", "h = tiny"))


class TestSweep:
    def test_axis_semantics(self):
        base = parse_config(TOY_TEXT)
        spec = SweepSpec(base=base, axis="L", values=(0.0, 2.0))
        cfgs = spec.configs()
        assert [c.toy.smoothing for c in cfgs] == [0.0, 2.0]
        spec = SweepSpec(base=base, axis="omega", values=(1.5,))
        assert spec.configs()[0].data.omega == 1.5
        spec = SweepSpec(base=base, axis="probe", values=(12.0,))
        assert spec.configs()[0].probes == (12.0,)
        rn = parse_config(RN_TEXT)
        assert SweepSpec(base=rn, axis="m", values=(0.3,)).configs()[0].fp.m == 0.3
        assert SweepSpec(base=rn, axis="q", values=(0.0,)).configs()[0].fp.q == 0.0

    def test_axis_validation(self):
        base = parse_config(TOY_TEXT)
        with pytest.raises(ConfigError, match="axis"):
            SweepSpec(base=base, axis="spin", values=(1.0,))
        with pytest.raises(ConfigError, match="values"):
            SweepSpec(base=base, axis="L", values=())
        with pytest.raises(ConfigError, match="rn"):
            SweepSpec(base=base, axis="m", values=(0.1,)).configs()


class TestPresets:
    def test_names_and_structure(self):
        names = preset_names()
        assert "rn-wavepacket" in names and "rn-flare" in names and "rn-highenergy" in names
        for name in names:
            preset = get_preset(name)
            assert preset.configs
            for cfg in preset.configs:
                cfg.validate()

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("does-not-exist")

    def test_highenergy_grids_refine_with_frequency(self):
        hs = {c.data.omega: c.grid.h for c in get_preset("rn-highenergy").configs}
        assert hs[100.0] < hs[50.0] < hs[20.0] <= hs[5.0]


class TestCli:
    def write(self, tmp_path, text, name="cfg.ini"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "rn-wavepacket" in out

    def test_run_writes_outputs(self, tmp_path):
        cfg = self.write(tmp_path, TOY_TEXT)
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "--quiet", "run", str(cfg)]) == 0
        for name in ("config.ini", "gain.csv", "energy.csv", "summary.txt", "amplitude.csv"):
            assert (out / name).exists()
        assert (out / "snapshots" / "index.csv").exists()
        echoed = parse_config((out / "config.ini").read_text(encoding="utf-8"))
        assert echoed == parse_config(TOY_TEXT)

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        cfg = self.write(tmp_path, TOY_TEXT)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--output-dir", str(a), "--quiet", "run", str(cfg)]) == 0
        assert main(["--output-dir", str(b), "--quiet", "run", str(cfg)]) == 0
        for rel in ("gain.csv", "energy.csv", "amplitude.csv", "snapshots/snap_000000.csv"):
            assert filecmp.cmp(a / rel, b / rel, shallow=False), rel

    def test_sweep_summary(self, tmp_path):
        sweep = self.write(tmp_path, TOY_TEXT + "\n[sweep]\naxis = L\nvalues = 0.5, 1\n")
        out = tmp_path / "sw"
        assert main(["--output-dir", str(out), "--quiet", "sweep", str(sweep)]) == 0
        lines = (out / "summary.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("axis,value,label,gain_inf,stabilized")
        assert len(lines) == 3
        assert (out / "toy-demo-L-0.5" / "gain.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = self.write(tmp_path, TOY_TEXT.replace("dt = 0.1", "dt = 0.5"))
        assert main(["--quiet", "run", str(cfg)]) == 2

    def test_t_final_off_the_step_grid_exit_code(self, tmp_path, capsys):
        cfg = self.write(tmp_path, TOY_TEXT.replace("t_final = 5", "t_final = 5.05"))
        assert main(["--output-dir", str(tmp_path / "o"), "--quiet", "run", str(cfg)]) == 2
        assert "run.t_final" in capsys.readouterr().err

    def test_unknown_preset_exit_code(self, tmp_path):
        assert main(["--output-dir", str(tmp_path), "repro", "nope"]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["--quiet", "run", str(tmp_path / "absent.ini")]) == 2

    def test_vanishing_flux_denominator_exit_code(self, tmp_path, capsys):
        # a toy packet left of x = 0 has no zone energy to normalize the flux gain
        cfg = self.write(tmp_path, TOY_TEXT.replace("x0 = 7.5", "x0 = -20"))
        assert main(["--output-dir", str(tmp_path / "o"), "--quiet", "run", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: run.probes:") and "data.x0 = -20" in err[0]

    def test_support_violation_exit_code(self, tmp_path):
        bad = TOY_TEXT.replace("x0 = 7.5", "x0 = 29.5")
        cfg = self.write(tmp_path, bad)
        assert main(["--output-dir", str(tmp_path / "o"), "--quiet", "run", str(cfg)]) == 2
