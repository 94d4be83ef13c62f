"""Built-in experiment presets.

Each preset is a small family of fully-specified configurations:

* ``free-wave-bc``, ``charged-wave-bc``, ``split-wave-bc``: the three
  boundary-condition demonstrations (transparent vs. enlarged-domain
  reference vs. Dirichlet) on constant coefficients;
* ``toy-smoothing-sweep``: zone-energy gain of the smoothed-step toy model
  for smoothing widths L in {0, 0.5, 1, 2} (L = 0 extracts energy without
  bound, the others saturate);
* ``toy-smoothing-flux``: the same sweep measured by outgoing flux on a
  longer horizon, which stays meaningful after waves leave the domain;
* ``rn-wavepacket``: incoming wave packets on the near-extremal background,
  frequency sweep; the gain peaks near omega = 2.3 at about 1.45;
* ``rn-flare``: flare data inside the effective ergosphere (much larger
  gain than any incoming packet);
* ``rn-highenergy``: oscillating-Gaussian data at increasing frequency; the
  gain tends to 1/2 as the field splits evenly into infalling and outgoing
  halves.  Grids refine with frequency to keep k h small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import SimConfig
from .geometry import BlackHole
from .initial_data import DataSpec
from .potentials import FieldParams, ToyParams
from .solver import BoundaryMode, Grid

__all__ = [
    "Preset",
    "preset_names",
    "get_preset",
    "REFERENCE_HOLE",
    "REFERENCE_FIELD",
]

# Tortoise-axis gauge for the near-extremal reference runs.  The offset is
# arbitrary physics-wise (gains are invariant under it); this value pins the
# sign change of the total potential at r* = 33.67.  With offset 0 it would
# sit at 33.3672113...
_REFERENCE_R0 = 0.3027886856340273

# Near-extremal hole (M/|Q| = 1.0005) and a light charged field: the total
# potential then looks like a narrow smoothed step, the regime with the
# strongest wave-packet energy extraction.
REFERENCE_HOLE = BlackHole(mass=2.001, charge=2.0, r0=_REFERENCE_R0)
REFERENCE_FIELD = FieldParams(q=1.0, m=0.1, l=0)


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    configs: tuple[SimConfig, ...]


def _bc_demo(v0: float, p0: float, t_final: float) -> tuple[SimConfig, ...]:
    return tuple(
        SimConfig(
            model="uniform",
            grid=Grid(x_min=-5.0, x_max=5.0, h=0.04, dt=0.04),
            t_final=t_final,
            data=DataSpec(kind="wave-packet", omega=0.0, x0=0.0, width=1.0,
                          phase="plain", support_tol=1e-8),
            bc=BoundaryMode(label),
            uniform=(v0, p0),
            label=label,
        )
        for label in ("transparent", "reference", "dirichlet")
    )


def _toy_sweep(t_final: float) -> tuple[SimConfig, ...]:
    return tuple(
        SimConfig(
            model="toy",
            grid=Grid(x_min=-30.0, x_max=30.0, h=0.04, dt=0.04),
            t_final=t_final,
            data=DataSpec(kind="wave-packet", omega=0.0, x0=7.5, width=1.0, phase="plain"),
            toy=ToyParams(alpha=1.0, beta=0.0, smoothing=length),
            probes=(15.0,),
            label=f"L-{length:g}",
        )
        for length in (0.0, 0.5, 1.0, 2.0)
    )


def _rn(**fields) -> SimConfig:
    """A run on the near-extremal reference hole with the reference field."""
    return SimConfig(model="rn", bh=REFERENCE_HOLE, fp=REFERENCE_FIELD, **fields)


def _wavepacket(omega: float) -> SimConfig:
    return _rn(
        grid=Grid(x_min=-500.0, x_max=500.0, h=0.04, dt=0.04),
        t_final=1000.0,
        data=DataSpec(kind="wave-packet", omega=omega, x0=250.0, width=5.0, phase="scaled"),
        probes=(300.0, 320.0),
        label=f"omega-{omega:g}",
    )


def _short(label: str, kind: str, omega: float) -> SimConfig:
    """A run on the short domain of rn-flare and rn-highenergy."""
    data = DataSpec(kind=kind, omega=omega, x0=-37.5, width=5.0, support_tol=5e-3)
    # keep the spatial carrier resolved, k h <= 0.1 with k = omega/width, on an
    # h that divides the domain length
    k = omega / data.width
    candidates = (0.04, 0.025, 0.02, 0.01, 0.005, 0.004, 0.0025)
    h = 0.04 if k <= 2.5 else next((c for c in candidates if c <= 0.1 / k + 1e-12), 0.002)
    return _rn(
        grid=Grid(x_min=-50.0, x_max=50.0, h=h, dt=h),
        t_final=150.0,
        data=data,
        probes=(1.0,),
        label=label,
    )


_PRESETS = {
    p.name: p
    for p in (
        Preset("free-wave-bc",
               "free wave, incoming packet: transparent vs reference vs Dirichlet",
               _bc_demo(0.0, 0.0, 10.0)),
        Preset("charged-wave-bc",
               "constant V=1: transparent vs reference vs Dirichlet",
               _bc_demo(1.0, 0.0, 10.0)),
        Preset("split-wave-bc",
               "constant V=1, P=0.2 with Strang splitting: transparent vs reference vs Dirichlet",
               _bc_demo(1.0, 0.2, 30.0)),
        Preset("toy-smoothing-sweep",
               "toy step smoothing L in {0, 0.5, 1, 2}, zone-energy gain to T=40",
               _toy_sweep(40.0)),
        Preset("toy-smoothing-flux",
               "toy step smoothing L in {0, 0.5, 1, 2}, flux gain on a long horizon",
               _toy_sweep(200.0)),
        Preset("rn-wavepacket",
               "incoming wave packets on the near-extremal background; "
               "flux gain at r*=300, peak about 1.45 near omega=2.3",
               tuple(_wavepacket(om) for om in (0.0, 2.3, 4.0, 10.0))),
        Preset("rn-flare",
               "flare data inside the effective ergosphere; gain far above "
               "the wave-packet values",
               (_short("flare", "flare", 0.0),)),
        Preset("rn-highenergy",
               "oscillating-Gaussian data at increasing frequency; the gain "
               "tends to 1/2 (grids refine with frequency)",
               tuple(_short(f"omega-{om:g}", "oscillating-gaussian", om)
                     for om in (0.0, 5.0, 10.0, 20.0, 50.0, 100.0))),
    )
}


def preset_names() -> list[str]:
    return list(_PRESETS)


def get_preset(name: str) -> Preset:
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    return _PRESETS[name]
