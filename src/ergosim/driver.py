"""Run driver: advances a configured simulation and collects diagnostics.

One run is strictly sequential in time; distinct runs share no mutable state
and may execute in parallel (the sweep driver does).  Identical configurations
produce bit-identical results: the whole pipeline is deterministic numpy.

Reference-mode runs are realized here by enlarging the domain far enough that
nothing reflected off the outer boundary can re-enter the window of interest
before the final time; every diagnostic is then restricted to the window, so
the result is drop-in comparable with a small-domain run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as diag
from . import initial_data
from .config import ConfigError, SimConfig
from .solver import BoundaryMode, FieldState, Grid, Stepper

__all__ = ["RunResult", "run"]


@dataclass
class RunResult:
    """Everything a run produces, restricted to the configured window."""

    config: SimConfig
    x: np.ndarray = field(repr=False)
    flux_series: dict[float, diag.GainSeries] = field(repr=False)
    flux_denominator: float = 0.0
    initial_energy: diag.EnergyBreakdown | None = None
    energy_times: np.ndarray = field(default=None, repr=False)
    energies: list[diag.EnergyBreakdown] = field(default_factory=list, repr=False)
    zone_gain: np.ndarray | None = field(default=None, repr=False)
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list, repr=False)
    final_state: FieldState | None = None
    steps: int = 0

    def gain_series(self, probe_x: float) -> diag.GainSeries:
        if not self.flux_series:
            raise KeyError("this run had no probes configured")
        key = min(self.flux_series, key=lambda p: abs(p - probe_x))
        if abs(key - probe_x) > 0.5 * self.config.grid.h:
            raise KeyError(f"no probe at x={probe_x}; have {sorted(self.flux_series)}")
        return self.flux_series[key]

    def summary(self, probe_x: float | None = None) -> diag.PlateauSummary:
        if probe_x is None:
            if not self.config.probes:
                raise KeyError("this run had no probes configured")
            probe_x = self.config.probes[0]
        return self.gain_series(probe_x).summary()


def _reference_grid(cfg: SimConfig) -> tuple[Grid, slice]:
    """Enlarge the domain so boundary reflections cannot reach the window.

    A signal leaving the window at t = 0 needs 2 * margin of travel time to
    come back; margin = T/2 + pad covers the whole run with slack.
    """
    g = cfg.grid
    pad = 10.0 * cfg.data.width
    extra = int(np.ceil((0.5 * cfg.t_final + pad) / g.h))
    big = Grid(
        x_min=g.x_min - extra * g.h,
        x_max=g.x_max + extra * g.h,
        h=g.h,
        dt=g.dt,
    )
    window = slice(extra, extra + g.n)
    return big, window


def run(
    cfg: SimConfig,
    *,
    collect_snapshots: bool = False,
    snapshot_callback=None,
) -> RunResult:
    """Advance the configured problem from t = 0 to t = t_final.

    Flux probes are sampled every step; energies (and the zone gain, on
    backgrounds with the zone convention whose data start with zone energy)
    every ``energy_stride`` steps; window snapshots of u every
    ``snapshot_stride`` steps when requested.
    """
    cfg.validate()
    reference = cfg.bc is BoundaryMode.REFERENCE
    if reference:
        grid, window = _reference_grid(cfg)
        bc = BoundaryMode.DIRICHLET
    else:
        grid, window = cfg.grid, slice(0, cfg.grid.n)
        bc = cfg.bc

    pp = cfg.potentials(grid.x)
    window_pp = cfg.potentials(cfg.grid.x) if reference else pp
    u0, v0 = initial_data.build(cfg.data, grid.x, pp.v)
    state = FieldState(u=u0, v=v0, t=0.0)
    stepper = Stepper(grid, pp, bc)

    probes = [diag.FluxProbe(px, pp) for px in cfg.probes]

    def window_state(s: FieldState) -> FieldState:
        if not reference:
            return s
        return FieldState(u=s.u[window], v=s.v[window], t=s.t)

    zone_energies: list[float] = []
    energies: list[diag.EnergyBreakdown] = []
    energy_times: list[float] = []

    flux_denominator = 0.0
    if probes:
        try:
            flux_denominator = diag.flux_reference_energy(window_state(state), window_pp)
        except ValueError as exc:
            raise ConfigError(
                f"run.probes: the data at data.x0 = {cfg.data.x0:g} give no energy to "
                f"normalize the flux gain by ({exc}); move the data or drop the probes"
            ) from exc

    def record_diagnostics(s: FieldState) -> None:
        ws = window_state(s)
        energy_times.append(s.t)
        energies.append(diag.energy_total(ws, window_pp))
        if pp.zone_convention:
            zone_energies.append(diag.energy_positive_zone(ws, window_pp))

    snapshots: list[tuple[float, np.ndarray]] = []

    def record_snapshot(s: FieldState) -> None:
        ws = window_state(s)
        if collect_snapshots:
            snapshots.append((s.t, ws.u.copy()))
        if snapshot_callback is not None:
            snapshot_callback(ws)

    for probe in probes:
        probe.sample(state)
    record_diagnostics(state)
    record_snapshot(state)

    n_steps = cfg.n_steps
    for k in range(1, n_steps + 1):
        state = stepper.step(state)
        # A nan or inf anywhere in u propagates into the sum, and a finite
        # field whose sum overflows has already overflowed the |u|^2 energy
        # quadrature; one reduction is cheaper than an elementwise isfinite.
        if not np.isfinite(state.u.sum()):
            raise FloatingPointError(f"non-finite field detected at step {k} (t={state.t:g})")
        for probe in probes:
            probe.sample(state)
        if k % cfg.energy_stride == 0 or k == n_steps:
            record_diagnostics(state)
        if k % cfg.snapshot_stride == 0 or k == n_steps:
            record_snapshot(state)

    # the zone gain is defined when the data start with zone energy
    zone_gain = None
    if zone_energies and zone_energies[0] > 1e-14:
        zone_gain = np.asarray(zone_energies) / zone_energies[0]
    return RunResult(
        config=cfg,
        x=cfg.grid.x,
        flux_series={p.x: p.series(flux_denominator) for p in probes},
        flux_denominator=flux_denominator,
        initial_energy=energies[0],
        energy_times=np.asarray(energy_times),
        energies=energies,
        zone_gain=zone_gain,
        snapshots=snapshots,
        final_state=window_state(state),
        steps=n_steps,
    )
