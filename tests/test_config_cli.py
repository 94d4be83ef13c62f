"""Configuration round trips, validation messages, CLI verbs and determinism."""

from __future__ import annotations

import csv
import filecmp
import hashlib
import importlib.util
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
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

ROOT = Path(__file__).resolve().parents[1]

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

    @pytest.mark.parametrize(
        "name, index",
        [(n, i) for n in preset_names() for i in range(len(get_preset(n).configs))],
    )
    def test_preset_configs_round_trip(self, name, index):
        cfg = get_preset(name).configs[index]
        assert parse_config(serialize_config(cfg)) == cfg


def _perfbench_workloads():
    """``perfbench/workloads.py``, loaded by path (it is not an installed package)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        # registered first: its dataclasses look their module up while being defined
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedEcho:
    """The bytes of the ``config.ini`` echo (``serialize_config``) of every
    preset run and of every benchmark workload run, as recorded before the
    INI schema moved into the section dataclasses."""

    PRESETS = {
        ("free-wave-bc", "transparent"): "8875c53f2390aa57ca51033ed1fe8b34d6d11bb63f6a48839f1a1fe5fdfa0d62",
        ("free-wave-bc", "reference"): "f6bf4856b263293d19e955e40be8261671ada62976ca2b889e467f852bfb28b8",
        ("free-wave-bc", "dirichlet"): "e49cfa194bfbae93154cc62059a1acb451094f9dce40159acfcfa43413c230ff",
        ("charged-wave-bc", "transparent"): "c5a34f81164559f8c9e6fd65349ae8c5e8f39f9640b8c7cb88371ff3e7bbb6d3",
        ("charged-wave-bc", "reference"): "0189130cc2198bdeb838a6259cce09658eef7629c5f1c300993156eec1c1f678",
        ("charged-wave-bc", "dirichlet"): "4f177d9d4bf8a38b3f34a7b95fcbffc1056e3c40dfab4a7d845f61abc4fae340",
        ("split-wave-bc", "transparent"): "dfa76a62fedcfed562d2ae83180099954bfd4f6655cfd82b951e771e11badebb",
        ("split-wave-bc", "reference"): "9f0a1e2b152e6609c8f33f5bc5b86d9d19c28dbd5e527f514c5f981b3f505599",
        ("split-wave-bc", "dirichlet"): "690d7a28d7de7c9c9abec2430a42a39129fa55bfd47004a25539324e4c96898e",
        ("toy-smoothing-sweep", "L-0"): "a84840a620cabe49d12ecedcb04ddb784e57c06bf0e10abc38050fc94a9ae58e",
        ("toy-smoothing-sweep", "L-0.5"): "9c332cecaea231b912ee6464709a918cb51df617eedde2c879e243d9a7fe2866",
        ("toy-smoothing-sweep", "L-1"): "439d67f5cd895ed4ab71f889ac2477f79a55b181bd5ee46768d1fce4f65e9638",
        ("toy-smoothing-sweep", "L-2"): "b9e5cbb21b1fdd901e95bcc2cfa70c4dae6ddbcd5af76534e19641c0ae54dd4c",
        ("toy-smoothing-flux", "L-0"): "614fa8772a3e8cca5051b92df18c1f66e2c2fe73c001417f988a497e7f40426e",
        ("toy-smoothing-flux", "L-0.5"): "b6461914752114c981d26f9455cc87da2ae3bf466b572727f172bd3d979a384a",
        ("toy-smoothing-flux", "L-1"): "14af7cbe6f0081bc72758175730685b7b18d55c189fc74e9469e802f5b3d5249",
        ("toy-smoothing-flux", "L-2"): "b8ae8a9f4508768ca8ceeaab5d695490a15fc2c04290b8808c48b3d4b87b533d",
        ("rn-wavepacket", "omega-0"): "84d86b59e777f1ceb305c0d9e3339d8fedcad94ca5d9dcc965230bb4c6c2ef47",
        ("rn-wavepacket", "omega-2.3"): "9ff15b6de3afd00c912319b736c4dd39520253816d1971ab6bc6d52cbe04169d",
        ("rn-wavepacket", "omega-4"): "32a7dbbd2f22e5989653c894a668351031202c689e0eda10d9dcaaf02e1d8bd6",
        ("rn-wavepacket", "omega-10"): "ff673a3930b512b60429cfab74cad91f0d20009da903dfda04287cc8690d518c",
        ("rn-flare", "flare"): "4c3ad931ea9818dd217cb138aa88a6eb2d3a23cb9121346df3eeeca95899ba5e",
        ("rn-highenergy", "omega-0"): "cd3d5a34629295dd713a3c8324d47f5ea0f15c0fb53d02b3e46893276f9d2e26",
        ("rn-highenergy", "omega-5"): "62f58f7a007c77be444a69ad85e7932bb624daa3880617267ca72bcd3b499aa5",
        ("rn-highenergy", "omega-10"): "47dd741a96b9bac80ec510fde96cf484d8541a08fd057f674faf84a29c7b59ae",
        ("rn-highenergy", "omega-20"): "1f5093f3fa6a01df39758ff18de0b84a358b837d55cd6610368c3470382d5550",
        ("rn-highenergy", "omega-50"): "50be6320a9d8f7849e786220296a56b572240e7589288c9e811c66fa7b7ee693",
        ("rn-highenergy", "omega-100"): "485ab1b68c7851adccceb702e1ddb7bb0a10c58972b53a1af0106fabb4e1f711",
    }
    # (workload, seed, run label) -> echo of that run
    WORKLOADS = {
        ("rn-wavepacket", 0, "rn-wavepacket"): "2863b01fd802bec933e4c67976baf73bbd5c6712936c9a4f576d517210646a4f",
        ("rn-wavepacket", 1, "rn-wavepacket"): "959d157f54d3e4067241457403e89569577b9c42b85afe15f23a67fedda599f1",
        ("rn-highenergy", 0, "rn-highenergy"): "50c7498c073e6d181248a3c7e8f4d21225f8a41b0cd4fd0f9ecf3ed72c10557a",
        ("rn-highenergy", 1, "rn-highenergy"): "3852def3f1d41efa908847571f343941c81e881ebff1afdeec6576bd6356e21e",
        ("toy-family", 0, "toy-L-0"): "0c7937f892e77331e6f77ff894d241b41edc3d74d72ff474959492ad8bbebeb9",
        ("toy-family", 0, "toy-L-0.5"): "a066f96604e6b8e203e7fb83062b9e3cb77318ffd34368caeaec97a5918b7ff4",
        ("toy-family", 0, "toy-L-1"): "e69bb398f2d1d0f23e3194fab8672f40b1ba95d494653305db332de1c4bd3189",
        ("toy-family", 0, "toy-L-2"): "97a1d313a094a619525802b43a4d0590d195fdf37abf2ab6e8cea89dc93f03b4",
        ("toy-family", 1, "toy-L-0"): "416b58fdc2c506a45364eed2b2fe13228cfd790febac1b6c0627e3dfc652d12f",
        ("toy-family", 1, "toy-L-0.5"): "7feccbbaa9c5df8f1ff80727a6661af1772ddffb9b369b2f91819473f32ef295",
        ("toy-family", 1, "toy-L-1"): "e771e24e4964b3e81bfd1f865507432b8be47e7d02ebef13f30705c3d1ae8cdb",
        ("toy-family", 1, "toy-L-2"): "3d9dc312a2ed42c91681e12b1eec59554254b0ddd66310728cd672b75c3c501a",
    }
    # (workload, seed) -> serialize_sweep of the whole sweep file
    SWEEPS = {
        ("toy-family", 0): "a5c62eb760538d7e0b2480ae6ce8e7bb201e33f718d5951953d9965c201200ae",
        ("toy-family", 1): "abb4a08a1a37070dcb5efd392253d2e3f02e6750e9e81845ac5d2fe8b2eb64ee",
    }

    def test_every_preset_echo_is_pinned(self):
        echoes = {
            (name, cfg.label): _sha256(serialize_config(cfg))
            for name in preset_names()
            for cfg in get_preset(name).configs
        }
        assert echoes == self.PRESETS

    def test_benchmark_workload_echoes_are_pinned(self):
        workloads = _perfbench_workloads()
        echoes, sweeps = {}, {}
        for name, w in workloads.WORKLOADS.items():
            for seed in (0, 1):
                text = workloads.config_text(name, seed)
                if w.verb == "sweep":
                    spec = parse_sweep(text)
                    sweeps[name, seed] = _sha256(serialize_sweep(spec))
                    cfgs = spec.configs()
                else:
                    cfgs = [parse_config(text)]
                for cfg in cfgs:
                    echoes[name, seed, cfg.label] = _sha256(serialize_config(cfg))
        assert echoes == self.WORKLOADS
        assert sweeps == self.SWEEPS


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

    @pytest.mark.parametrize("t_final", [float("nan"), float("inf")])
    def test_validate_refuses_non_finite_t_final(self, t_final):
        with pytest.raises(ConfigError, match="run.t_final"):
            replace(parse_config(TOY_TEXT), t_final=t_final).validate()

    def test_bad_float_names_key(self):
        with pytest.raises(ConfigError, match="grid.h"):
            parse_config(TOY_TEXT.replace("h = 0.1", "h = tiny"))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("beta = 0.2", "bta = 0.3", "toy.bta: unknown key"),
            ("kind = toy", "kind = toy\nkinds = rn", "model.kinds: unknown key"),
            ("label = toy-demo", "label = toy-demo\nprobe = 15", "run.probe: unknown key"),
            ("phase = plain", "phase = plain\nsupport = 1e-8", "data.support: unknown key"),
        ],
    )
    def test_unknown_key_is_refused(self, old, new, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(TOY_TEXT.replace(old, new, 1))

    def test_unknown_key_in_rn_and_sweep_sections(self):
        with pytest.raises(ConfigError, match="field.mass: unknown key"):
            parse_config(RN_TEXT.replace("l = 0", "l = 0\nmass = 1"))
        with pytest.raises(ConfigError, match="sweep.value: unknown key"):
            parse_sweep(TOY_TEXT + "\n[sweep]\naxis = L\nvalues = 1\nvalue = 2\n")

    def test_sections_the_model_does_not_read_are_ignored(self):
        extra = TOY_TEXT + "\n[field]\nq = 1\nanything = 2\n"
        assert parse_config(extra) == parse_config(TOY_TEXT)

    @pytest.mark.parametrize("label", ["50%", "a%%b", "%(x)s"])
    def test_percent_in_a_value_is_literal(self, label):
        cfg = parse_config(TOY_TEXT.replace("label = toy-demo", f"label = {label}"))
        assert cfg.label == label
        assert parse_config(serialize_config(cfg)) == cfg

    def test_toy_smoothing_stays_required(self):
        # no width is a neutral choice: neither a file nor ToyParams defaults it
        with pytest.raises(ConfigError, match="toy.smoothing: missing required key"):
            parse_config(TOY_TEXT.replace("smoothing = 1", ""))

    def test_toy_params_smoothing_has_no_default(self):
        with pytest.raises(TypeError, match="smoothing"):
            es.ToyParams(alpha=1.0)

    def test_sweep_section_is_refused_as_one_configuration(self):
        text = TOY_TEXT + "\n[sweep]\naxis = L\nvalues = 0.5, 1\n"
        with pytest.raises(ConfigError, match="^sweep: .*`ergosim sweep`"):
            parse_config(text)
        assert parse_sweep(text).base == parse_config(TOY_TEXT)

    def test_optional_keys_take_the_dataclass_defaults(self):
        cfg = parse_config(RN_TEXT.replace("r0 = 0.25", "").replace("m = 0.1\nl = 0", ""))
        assert (cfg.bh.r0, cfg.fp.m, cfg.fp.l) == (0.0, 0.0, 0)
        assert (cfg.bc.value, cfg.snapshot_stride, cfg.energy_stride, cfg.label) == (
            "transparent", 50, 25, ""
        )
        assert (cfg.data.omega, cfg.data.phase) == (0.0, "scaled")

    @pytest.mark.parametrize("probes", ["15, 15.02", "15, 15", "20, 14.96, 15"])
    def test_probes_on_one_grid_node_are_refused(self, probes):
        # h = 0.1: FluxProbe would sample 14.96, 15 and 15.02 all at the node x = 15
        with pytest.raises(ConfigError, match="run.probes: .* snap to the same grid node x = 15"):
            parse_config(TOY_TEXT.replace("probes = 15, 20", f"probes = {probes}"))

    def test_neighbouring_probe_nodes_are_accepted(self):
        cfg = parse_config(TOY_TEXT.replace("probes = 15, 20", "probes = 15, 15.06"))
        assert cfg.probes == (15.0, 15.06)

    def test_model_section_errors_name_the_section(self):
        with pytest.raises(ConfigError, match="^blackhole: sub-extremal"):
            parse_config(RN_TEXT.replace("mass = 2.001", "mass = 1"))
        with pytest.raises(ConfigError, match="^toy: alpha must be positive"):
            parse_config(TOY_TEXT.replace("alpha = 1", "alpha = -1"))
        with pytest.raises(ConfigError, match="^uniform.p: missing required key"):
            parse_config(UNIFORM_TEXT.replace("p = 0.2", ""))

    def test_validate_names_the_missing_model_section(self):
        cfg = parse_config(RN_TEXT)
        with pytest.raises(ConfigError, match="^field: section required for rn models"):
            replace(cfg, fp=None).validate()
        with pytest.raises(ConfigError, match="^toy: section required for toy models"):
            replace(cfg, model="toy").validate()


class TestReadme:
    """The configuration examples of README.md parse, and its Python example runs."""

    def blocks(self) -> list[str]:
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        return re.findall(r"```ini\n(.*?)```", text, flags=re.S)

    def test_every_ini_block_parses(self):
        config, models, sweep = self.blocks()
        cfg = parse_config(config)
        assert cfg.model == "rn" and cfg.probes == (300.0, 320.0) and cfg.label == "my-run"
        assert cfg.bh.r0 == 0.3027886856340273 and cfg.fp.m == 0.1
        toy = parse_config(config.replace("kind = rn", "kind = toy") + models)
        assert toy.toy.smoothing == 1.0
        uniform = parse_config(config.replace("kind = rn", "kind = uniform") + models)
        assert uniform.uniform == (1.0, 0.2)
        spec = parse_sweep(config + sweep)
        assert spec.axis == "omega" and spec.values == (0.0, 2.3, 4.0, 10.0)

    def test_library_use_block_runs(self, capsys):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        (code,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        exec(compile(code, "README.md", "exec"), {})
        out = capsys.readouterr().out
        assert re.fullmatch(r"asymptotic gain \d+\.\d{3}, stabilized: True\n", out), out


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

    def test_run_refuses_a_sweep_file(self, tmp_path, capsys):
        sweep = self.write(tmp_path, TOY_TEXT + "\n[sweep]\naxis = L\nvalues = 0.5, 1\n")
        out = tmp_path / "o"
        assert main(["--output-dir", str(out), "run", str(sweep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sweep: ") and "`ergosim sweep`" in captured.err
        assert not out.exists()

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = self.write(tmp_path, TOY_TEXT.replace("beta = 0.2", "bta = 0.3"))
        out = tmp_path / "o"
        assert main(["--output-dir", str(out), "--quiet", "run", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: toy.bta: unknown key\n"
        assert not out.exists()

    @pytest.mark.parametrize("values", ["0.5, 1, 0.5", "0.5000001, 0.5000002"])
    def test_sweep_runs_sharing_a_directory_are_refused(self, tmp_path, capsys, values):
        # labels print the value with %g: both runs would be toy-demo-L-0.5
        sweep = self.write(tmp_path, TOY_TEXT + f"\n[sweep]\naxis = L\nvalues = {values}\n")
        out = tmp_path / "sw"
        argv = ["--output-dir", str(out), "--quiet", "--threads", "2", "sweep", str(sweep)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.label:") and "toy-demo-L-0.5" in err
        assert not out.exists()

    def test_sweep_run_failing_validation_starts_no_run(self, tmp_path, capsys):
        sweep = self.write(tmp_path, TOY_TEXT + "\n[sweep]\naxis = probe\nvalues = 15, 40\n")
        out = tmp_path / "sw"
        assert main(["--output-dir", str(out), "--quiet", "sweep", str(sweep)]) == 2
        assert capsys.readouterr().err.startswith("error: run.probes: probe 40.0 outside")
        assert not out.exists()

    @pytest.mark.parametrize(
        "base, axis, message",
        [
            (TOY_TEXT, "L", "error: sweep.values: L = -1: smoothing width must be non-negative"),
            (RN_TEXT, "m", "error: sweep.values: m = -1: field mass must be non-negative"),
        ],
        ids=["toy-L", "rn-m"],
    )
    def test_sweep_value_out_of_range_exit_code(self, tmp_path, capsys, base, axis, message):
        sweep = self.write(tmp_path, base + f"\n[sweep]\naxis = {axis}\nvalues = 1, -1\n")
        out = tmp_path / "sw"
        assert main(["--output-dir", str(out), "--quiet", "sweep", str(sweep)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    # (7.5 + 30) / 0.04 = 937.5: the probe snaps to node 938, x = 7.520000000000003
    SNAP_TEXT = (
        TOY_TEXT.replace("h = 0.1", "h = 0.04").replace("dt = 0.1", "dt = 0.04")
        .replace("t_final = 5", "t_final = 4").replace("probes = 15, 20", "probes = 7.5")
    )

    @pytest.mark.parametrize("bc", ["transparent", "reference"])
    def test_probe_snapping_more_than_half_a_step_runs(self, tmp_path, bc):
        text = self.SNAP_TEXT.replace("bc = transparent", f"bc = {bc}")
        cfg, out = self.write(tmp_path, text), tmp_path / "o"
        assert main(["--output-dir", str(out), "--quiet", "run", str(cfg)]) == 0
        header = (out / "gain.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,flux_at_7.52,gain_at_7.52"
        assert "probe 7.52: gain_inf = " in (out / "summary.txt").read_text(encoding="utf-8")

    def test_probe_sweep_snapping_more_than_half_a_step_runs(self, tmp_path):
        sweep = self.write(tmp_path, self.SNAP_TEXT + "\n[sweep]\naxis = probe\nvalues = 7.5, 15\n")
        out = tmp_path / "sw"
        assert main(["--output-dir", str(out), "--quiet", "sweep", str(sweep)]) == 0
        lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["probe", "7.5"], ["probe", "15"]]

    def test_family_pool_forks_one_worker_per_run_in_flight(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("counts the forks of the fork start method")
        # with fork, the pool starts all of its max_workers at the first submit
        script = """
import multiprocessing, os, sys
multiprocessing.set_start_method("fork")
forks = []
os.register_at_fork(before=lambda: forks.append(1))
from ergosim.cli import main
assert main(sys.argv[1:]) == 0
print(len(forks))
"""
        sweep = self.write(tmp_path, TOY_TEXT + "\n[sweep]\naxis = L\nvalues = 0.5, 1\n")
        src = Path(es.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        argv = ["--output-dir", str(tmp_path / "sw"), "--quiet", "--threads", "3", "sweep"]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, str(sweep)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sets glibc's malloc")
    def test_steps_reuse_freed_memory(self, tmp_path):
        """The snapshot formatter frees and allocates blocks of 256 KB and more
        per 1024 rows; malloc must hand the freed memory back rather than new
        pages that fault in (about 390 per snapshot of this toy run)."""
        # No helper process: this process writes the snapshots itself.
        script = """
import resource, sys
from ergosim import driver
from ergosim.cli import main
driver._spare_cpu = lambda runs_in_flight: False
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(["--output-dir", sys.argv[2], "--quiet", "run", sys.argv[1]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        src = Path(es.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        base = get_preset("toy-smoothing-flux").configs[0]
        faults = []
        for t_final in (40.0, 80.0):  # 11 and 21 snapshots of n = 1501, written inline
            cfg = replace(base, t_final=t_final, snapshot_stride=100)
            path = self.write(tmp_path, serialize_config(cfg), f"t{t_final:g}.ini")
            out = tmp_path / f"out{t_final:g}"
            proc = subprocess.run(
                [sys.executable, "-c", script, str(path), str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            faults.append(int(proc.stdout))
        assert len(list(out.rglob("snap_*.csv"))) == 21
        assert (faults[1] - faults[0]) / 10 < 100

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, verb, kind):
        path = tmp_path / "cfg.ini"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(("# café\n" + TOY_TEXT).encode("latin-1"))
        out = tmp_path / "o"
        assert main(["--output-dir", str(out), "--quiet", verb, str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {path}: ")
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        """Each refusal exits 2 and names what it refuses on stderr."""
        out = tmp_path / "o"
        for text, named in (
            (TOY_TEXT.replace("dt = 0.1", "dt = 0.5"), "CFL"),
            (TOY_TEXT.replace("t_final = 5", "t_final = 0"), "run.t_final: must be positive"),
            (TOY_TEXT.replace("t_final = 5", "t_final = -5"), "run.t_final: must be positive"),
            (TOY_TEXT.replace("label = toy-demo", "label = toy-demo\nsnapshot_stride = 0"),
             "run.snapshot_stride/energy_stride"),
            (TOY_TEXT.replace("label = toy-demo", "label = toy-demo\nenergy_stride = 0"),
             "run.snapshot_stride/energy_stride"),
            ("kind = toy\n" + TOY_TEXT, "malformed configuration"),  # a key before any section
            (TOY_TEXT + "[toy]\nalpha = 2\n", "malformed configuration"),  # a section twice
        ):
            cfg = self.write(tmp_path, text)
            assert main(["--output-dir", str(out), "--quiet", "run", str(cfg)]) == 2, named
            assert named in capsys.readouterr().err
            assert not out.exists()

    def test_repro_writes_every_run_and_a_summary(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--output-dir", str(out), "--quiet", "repro", "free-wave-bc"]) == 0
        runs = [c.label for c in get_preset("free-wave-bc").configs]
        assert sorted(p.name for p in (out / "free-wave-bc").iterdir()) == sorted(
            [*runs, "summary.csv"])
        for label in runs:
            assert (out / "free-wave-bc" / label / "config.ini").exists()
        with open(out / "free-wave-bc" / "summary.csv", encoding="utf-8", newline="") as f:
            assert [row["label"] for row in csv.DictReader(f)] == runs

    def test_t_final_off_the_step_grid_exit_code(self, tmp_path, capsys):
        cfg = self.write(tmp_path, TOY_TEXT.replace("t_final = 5", "t_final = 5.05"))
        assert main(["--output-dir", str(tmp_path / "o"), "--quiet", "run", str(cfg)]) == 2
        assert "run.t_final" in capsys.readouterr().err

    def test_unknown_preset_exit_code(self, tmp_path, capsys):
        assert main(["--output-dir", str(tmp_path), "repro", "nope"]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown preset 'nope'; available: {', '.join(preset_names())}\n"
        )

    @pytest.mark.parametrize("old, new", [
        ("t_final = 5", "t_final = inf"),
        ("t_final = 5", "t_final = nan"),
        ("omega = 0.5", "omega = nan"),
        ("x0 = 7.5", "x0 = inf"),
        ("alpha = 1", "alpha = nan"),
        ("probes = 15, 20", "probes = 15, -inf"),
    ])
    def test_non_finite_float_exit_code(self, tmp_path, capsys, old, new):
        cfg = self.write(tmp_path, TOY_TEXT.replace(old, new))
        out = tmp_path / "o"
        assert main(["--output-dir", str(out), "--quiet", "run", str(cfg)]) == 2
        key, raw = new.split(" = ")
        section = {"t_final": "run", "probes": "run", "alpha": "toy"}.get(key, "data")
        assert capsys.readouterr().err == (
            f"error: {section}.{key}: cannot parse '{raw}' (not a finite number)\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize("x0", ["29.5", "-20"])
    def test_run_refused_before_its_first_step_writes_nothing(self, tmp_path, x0):
        # 29.5 fails the support check, -20 gives the flux gain no denominator
        cfg = self.write(tmp_path, TOY_TEXT.replace("x0 = 7.5", f"x0 = {x0}"))
        out = tmp_path / "o"
        assert main(["--output-dir", str(out), "--quiet", "run", str(cfg)]) == 2
        assert not out.exists()

    def test_sweep_run_failing_the_support_check_starts_no_run(self, tmp_path, capsys):
        # at omega = 0 the data fit the grid; at omega = 50 their v tail does not
        text = TOY_TEXT.replace("x0 = 7.5", "x0 = 24.4")
        sweep = self.write(tmp_path, text + "\n[sweep]\naxis = omega\nvalues = 0, 50\n")
        out = tmp_path / "sw"
        assert main(["--output-dir", str(out), "--quiet", "sweep", str(sweep)]) == 2
        assert "support tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_label_leaving_the_output_dir_is_refused(self, tmp_path, capsys):
        text = TOY_TEXT.replace("label = toy-demo", "label = ../escaped")
        sweep = self.write(tmp_path, text + "\n[sweep]\naxis = L\nvalues = 0.5\n")
        out = tmp_path / "sw"
        assert main(["--output-dir", str(out), "--quiet", "sweep", str(sweep)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.label:") and "'../escaped-L-0.5'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.ini"]

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["--output-dir", str(tmp_path / "o"), "--threads", threads, "list-presets"])
        assert exc.value.code == 2
        assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err

    # x[-2] of this grid is 4.899999999999999, one rounding below 4.9
    EDGE_TEXT = TOY_TEXT.replace("x_max = 30", "x_max = 5").replace("x0 = 7.5", "x0 = -1")

    @pytest.mark.parametrize("probe", ["4.9", "4.94"])
    def test_probe_on_the_last_interior_node_runs(self, tmp_path, probe):
        cfg = self.write(tmp_path, self.EDGE_TEXT.replace("probes = 15, 20", f"probes = {probe}"))
        out = tmp_path / "o"
        assert main(["--output-dir", str(out), "--quiet", "run", str(cfg)]) == 0
        header = (out / "gain.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,flux_at_4.9,gain_at_4.9"

    @pytest.mark.parametrize("probe", ["4.96", "5", "-29.96"])
    def test_probe_snapping_to_an_end_node_is_refused(self, tmp_path, capsys, probe):
        cfg = self.write(tmp_path, self.EDGE_TEXT.replace("probes = 15, 20", f"probes = {probe}"))
        out = tmp_path / "o"
        assert main(["--output-dir", str(out), "--quiet", "run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: run.probes: probe {float(probe)} outside")
        assert not out.exists()
