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

from dataclasses import dataclass, replace

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


def _bc_demo(name: str, v0: float, p0: float, t_final: float, description: str) -> Preset:
    base = SimConfig(
        model="uniform",
        grid=Grid(x_min=-5.0, x_max=5.0, h=0.04, dt=0.04),
        t_final=t_final,
        data=DataSpec(kind="wave-packet", omega=0.0, x0=0.0, width=1.0,
                      phase="plain", support_tol=1e-8),
        uniform=(v0, p0),
        label="transparent",
    )
    return Preset(
        name=name,
        description=description,
        configs=(
            base,
            replace(base, bc=BoundaryMode.REFERENCE, label="reference"),
            replace(base, bc=BoundaryMode.DIRICHLET, label="dirichlet"),
        ),
    )


def _toy_sweep(name: str, t_final: float, description: str) -> Preset:
    base = SimConfig(
        model="toy",
        grid=Grid(x_min=-30.0, x_max=30.0, h=0.04, dt=0.04),
        t_final=t_final,
        data=DataSpec(kind="wave-packet", omega=0.0, x0=7.5, width=1.0, phase="plain"),
        toy=ToyParams(alpha=1.0, beta=0.0, smoothing=1.0),
        probes=(15.0,),
    )
    configs = tuple(
        replace(base, toy=replace(base.toy, smoothing=length), label=f"L-{length:g}")
        for length in (0.0, 0.5, 1.0, 2.0)
    )
    return Preset(name=name, description=description, configs=configs)


def _rn(**fields) -> SimConfig:
    """A run on the near-extremal reference hole with the reference field."""
    return SimConfig(model="rn", bh=REFERENCE_HOLE, fp=REFERENCE_FIELD, **fields)


# The short domain shared by rn-flare and rn-highenergy (flare data there).
_RN_SHORT = _rn(
    grid=Grid(x_min=-50.0, x_max=50.0, h=0.04, dt=0.04),
    t_final=150.0,
    data=DataSpec(kind="flare", x0=-37.5, width=5.0, support_tol=5e-3),
    probes=(1.0,),
)


def _rn_wavepacket() -> Preset:
    base = _rn(
        grid=Grid(x_min=-500.0, x_max=500.0, h=0.04, dt=0.04),
        t_final=1000.0,
        data=DataSpec(kind="wave-packet", omega=2.3, x0=250.0, width=5.0, phase="scaled"),
        probes=(300.0, 320.0),
    )
    configs = tuple(
        replace(base, data=replace(base.data, omega=om), label=f"omega-{om:g}")
        for om in (0.0, 2.3, 4.0, 10.0)
    )
    return Preset(
        name="rn-wavepacket",
        description="incoming wave packets on the near-extremal background; "
        "flux gain at r*=300, peak about 1.45 near omega=2.3",
        configs=configs,
    )


def _rn_flare() -> Preset:
    return Preset(
        name="rn-flare",
        description="flare data inside the effective ergosphere; gain far above "
        "the wave-packet values",
        configs=(replace(_RN_SHORT, label="flare"),),
    )


def _highenergy_h(omega: float, width: float) -> float:
    # keep the spatial carrier resolved: k h <= 0.1 with k = omega/width
    k = omega / width
    if k <= 2.5:
        return 0.04
    h = 0.1 / k
    # snap to a divisor of the domain length
    for candidate in (0.04, 0.025, 0.02, 0.01, 0.005, 0.004, 0.0025):
        if candidate <= h + 1e-12:
            return candidate
    return 0.002


def _rn_highenergy() -> Preset:
    data = replace(_RN_SHORT.data, kind="oscillating-gaussian")
    configs = []
    for om in (0.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        h = _highenergy_h(om, data.width)
        configs.append(
            replace(
                _RN_SHORT,
                grid=Grid(x_min=-50.0, x_max=50.0, h=h, dt=h),
                data=replace(data, omega=om),
                label=f"omega-{om:g}",
            )
        )
    return Preset(
        name="rn-highenergy",
        description="oscillating-Gaussian data at increasing frequency; the gain "
        "tends to 1/2 (grids refine with frequency)",
        configs=tuple(configs),
    )


_BUILDERS = {
    "free-wave-bc": lambda: _bc_demo(
        "free-wave-bc", 0.0, 0.0, 10.0,
        "free wave, incoming packet: transparent vs reference vs Dirichlet",
    ),
    "charged-wave-bc": lambda: _bc_demo(
        "charged-wave-bc", 1.0, 0.0, 10.0,
        "constant V=1: transparent vs reference vs Dirichlet",
    ),
    "split-wave-bc": lambda: _bc_demo(
        "split-wave-bc", 1.0, 0.2, 30.0,
        "constant V=1, P=0.2 with Strang splitting: transparent vs reference vs Dirichlet",
    ),
    "toy-smoothing-sweep": lambda: _toy_sweep(
        "toy-smoothing-sweep", 40.0,
        "toy step smoothing L in {0, 0.5, 1, 2}, zone-energy gain to T=40",
    ),
    "toy-smoothing-flux": lambda: _toy_sweep(
        "toy-smoothing-flux", 200.0,
        "toy step smoothing L in {0, 0.5, 1, 2}, flux gain on a long horizon",
    ),
    "rn-wavepacket": _rn_wavepacket,
    "rn-flare": _rn_flare,
    "rn-highenergy": _rn_highenergy,
}


def preset_names() -> list[str]:
    return list(_BUILDERS)


def get_preset(name: str) -> Preset:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(_BUILDERS)}"
        ) from None
    return builder()
