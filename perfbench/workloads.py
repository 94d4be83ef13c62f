"""The three benchmark workloads: generated INI inputs, CLI argv and output checks.

Each workload is one INI file handed to the ``ergosim`` command line.  The INI
text is written out literally here (not built from ``ergosim.presets``), so a
change to the presets cannot silently change what the benchmark measures.

Seeds: ``variant = seed % VARIANTS``.  Variant 0 is the headline configuration;
the other variants shift omega and x0 by small amounts, inside the ranges where
the physics checks below hold.  ``references.json`` holds, for every variant,
the gains, flux denominators and energies that the parent commit of the
benchmark produced, so every run is checked against recorded numbers.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 16

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Relative tolerance against the recorded references: loose enough for a
# reordering of floating-point operations in the step (roundoff grows to
# ~1e-10 over thousands of steps), tight enough to catch any change of scheme.
RTOL = 1e-7
# Absolute floor for gains (in units of the initial energy) whose value is
# itself near zero, e.g. the probes that nothing has reached yet.
GAIN_ATOL = 1e-9

_RN_BACKGROUND = """\
[blackhole]
mass = 2.001
charge = 2
r0 = 0.3027886856340273

[field]
q = 1
m = 0.1
l = 0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str           # "run" or "sweep"
    threads: int        # --threads passed to the CLI
    n: int              # grid nodes per run
    steps: int          # time steps per run
    runs: int           # runs per CLI invocation

    @property
    def node_steps(self) -> int:
        """Sum of n * n_steps over the runs of one CLI invocation."""
        return self.n * self.steps * self.runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rn-wavepacket", "run", 1, 25001, 2500, 1),
        Workload("rn-highenergy", "run", 1, 20001, 8000, 1),
        Workload("toy-family", "sweep", 2, 1501, 5000, 4),
    )
}


def _num(x: float) -> str:
    return f"{x:.17g}"


def parameters(name: str, seed: int) -> dict[str, float]:
    """Seed-dependent input parameters; variant 0 is the headline configuration."""
    variant = seed % VARIANTS
    base = {
        "rn-wavepacket": {"omega": 2.3, "x0": 250.0},
        "rn-highenergy": {"omega": 100.0, "x0": -37.5},
        "toy-family": {"omega": 0.0, "x0": 7.5},
    }[name]
    if variant == 0:
        return dict(base)
    # (omega shift range, x0 shift range); rn-highenergy keeps x0 >= -37.75 so
    # the Gaussian tail at x_min = -50 stays under its support_tol of 5e-3,
    # and omega within 2% so k h stays near 0.1.
    d_omega, d_x0 = {
        "rn-wavepacket": ((-0.1, 0.1), (-2.0, 2.0)),
        "rn-highenergy": ((-2.0, 2.0), (-0.25, 0.5)),
        "toy-family": ((0.0, 0.2), (-0.5, 0.5)),
    }[name]
    rng = random.Random(variant)
    return {
        "omega": round(base["omega"] + rng.uniform(*d_omega), 4),
        "x0": round(base["x0"] + rng.uniform(*d_x0), 4),
    }


def config_text(name: str, seed: int, t_final: float | None = None) -> str:
    """INI text of the workload; ``t_final`` overrides the horizon (smoke runs)."""
    p = parameters(name, seed)
    omega, x0 = _num(p["omega"]), _num(p["x0"])
    if name == "rn-wavepacket":
        return f"""\
[model]
kind = rn

[grid]
x_min = -500
x_max = 500
h = 0.04
dt = 0.04

[run]
t_final = {_num(t_final or 100.0)}
bc = transparent
probes = 300, 320
snapshot_stride = 50
energy_stride = 25
label = rn-wavepacket

[data]
kind = wave-packet
omega = {omega}
x0 = {x0}
width = 5
phase = scaled
support_tol = 1e-12

{_RN_BACKGROUND}"""
    if name == "rn-highenergy":
        return f"""\
[model]
kind = rn

[grid]
x_min = -50
x_max = 50
h = 0.005
dt = 0.005

[run]
t_final = {_num(t_final or 40.0)}
bc = transparent
probes = -20
snapshot_stride = 4000
energy_stride = 25
label = rn-highenergy

[data]
kind = oscillating-gaussian
omega = {omega}
x0 = {x0}
width = 5
phase = scaled
support_tol = 5e-3

{_RN_BACKGROUND}"""
    if name == "toy-family":
        return f"""\
[model]
kind = toy

[grid]
x_min = -30
x_max = 30
h = 0.04
dt = 0.04

[run]
t_final = {_num(t_final or 200.0)}
bc = transparent
probes = 15
snapshot_stride = 50
energy_stride = 25
label = toy

[data]
kind = wave-packet
omega = {omega}
x0 = {x0}
width = 1
phase = plain

[toy]
alpha = 1
beta = 0
smoothing = 1

[sweep]
axis = L
values = 0, 0.5, 1, 2
"""
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def cli_args(name: str, config: Path, outdir: Path, threads: int | None = None) -> list[str]:
    """Arguments of ``ergosim`` (after the program name) for one invocation."""
    w = WORKLOADS[name]
    return [
        "--threads", str(w.threads if threads is None else threads),
        "--output-dir", str(outdir),
        w.verb, str(config),
    ]


# --- reading the outputs -----------------------------------------------------

def _read_run(rundir: Path) -> dict:
    """gain_inf per probe, stabilization, flux denominator and energies of one run."""
    out: dict = {"gain_inf": {}, "stabilized": {}}
    for line in (rundir / "summary.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("probe "):
            probe, _, fields = line[len("probe "):].partition(": ")
            parts = dict(f.split(" = ") for f in fields.split(", "))
            out["gain_inf"][probe] = float(parts["gain_inf"])
            out["stabilized"][probe] = parts["stabilized"] == "True"
        elif line.startswith("flux_denominator = "):
            out["flux_denominator"] = float(line.partition(" = ")[2])
    with (rundir / "energy.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out["energy_initial"] = float(rows[0]["total"])
    out["energy_final"] = float(rows[-1]["total"])
    out["t_final"] = float(rows[-1]["t"])
    return out


def collect(name: str, outdir: Path) -> dict[str, dict]:
    """Per-run results of one CLI invocation, keyed by run label."""
    if WORKLOADS[name].verb == "run":
        return {name: _read_run(outdir)}
    with (outdir / "summary.csv").open(encoding="utf-8", newline="") as fh:
        labels = [row["label"] for row in csv.DictReader(fh)]
    return {label: _read_run(outdir / label) for label in labels}


def family_run_walls(outdir: Path) -> list[float]:
    """Per-run wall times a sweep records in its summary.csv."""
    with (outdir / "summary.csv").open(encoding="utf-8", newline="") as fh:
        return [float(row["wall_time_s"]) for row in csv.DictReader(fh)]


def output_stats(outdir: Path) -> tuple[int, int]:
    """(files, bytes) under an output directory."""
    files = [p for p in outdir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


# --- checks ------------------------------------------------------------------

def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _close(a: float, b: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + atol


def check_against_reference(got: dict[str, dict], ref: dict[str, dict]) -> list[str]:
    """Differences between a run's results and the recorded reference."""
    problems = []
    if sorted(got) != sorted(ref):
        return [f"runs {sorted(got)} differ from reference runs {sorted(ref)}"]
    for label, r in ref.items():
        g = got[label]
        for key in ("flux_denominator", "energy_initial", "energy_final"):
            if not _close(g[key], r[key]):
                problems.append(f"{label}: {key} = {g[key]!r}, reference {r[key]!r}")
        if sorted(g["gain_inf"]) != sorted(r["gain_inf"]):
            problems.append(f"{label}: probes {sorted(g['gain_inf'])} differ from reference")
            continue
        for probe, value in r["gain_inf"].items():
            if not _close(g["gain_inf"][probe], value, GAIN_ATOL):
                problems.append(
                    f"{label}: gain_inf at {probe} = {g['gain_inf'][probe]!r}, reference {value!r}"
                )
            if g["stabilized"][probe] != r["stabilized"][probe]:
                problems.append(f"{label}: stabilized flag at {probe} differs from reference")
    return problems


def check_physics(name: str, got: dict[str, dict]) -> list[str]:
    """The paper-level property each workload must show."""
    problems = []
    if name == "rn-wavepacket":
        # Nothing reaches a probe or a boundary by T = 100: energy is conserved.
        r = got[name]
        drift = abs(r["energy_final"] - r["energy_initial"]) / abs(r["energy_initial"])
        if not drift < 1e-4:
            problems.append(f"energy drift {drift:.3g} exceeds 1e-4")
    elif name == "rn-highenergy":
        # The outgoing half has crossed the probe: gain near 1/2 and settled.
        ((probe, gain),) = got[name]["gain_inf"].items()
        if not abs(gain - 0.5) < 0.05:
            problems.append(f"gain_inf {gain:.6g} at {probe} is not within 0.05 of 1/2")
        if not got[name]["stabilized"][probe]:
            problems.append(f"gain at {probe} has not stabilized")
    elif name == "toy-family":
        # Sharp steps extract without bound; smoother steps saturate lower.
        by_l = sorted(got.items(), key=lambda kv: float(kv[0].rsplit("-L-", 1)[1]))
        gains = [next(iter(r["gain_inf"].values())) for _, r in by_l]
        flags = [next(iter(r["stabilized"].values())) for _, r in by_l]
        if not all(a > b for a, b in zip(gains, gains[1:])):
            problems.append(f"gains {gains} do not fall as L grows")
        if not (gains[0] > 5.0 and not flags[0]):
            problems.append(f"L=0 gain {gains[0]:.6g} is not large and unsettled")
        if not all(flags[1:]):
            problems.append(f"L>0 gains not all stabilized: {flags[1:]}")
    return problems


def check(name: str, seed: int, got: dict[str, dict], references: dict) -> list[str]:
    """Every correctness check of one invocation; empty when it passed."""
    ref = references[name][str(seed % VARIANTS)]
    return check_against_reference(got, ref) + check_physics(name, got)
