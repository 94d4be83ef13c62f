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

import ctypes
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics as diag
from . import initial_data
from .config import ConfigError, SimConfig
from .potentials import PotentialPair
from .solver import BoundaryMode, FieldState, Grid, Stepper

__all__ = ["RunResult", "run"]

# mallopt parameters of glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@dataclass
class RunResult:
    """Everything a run produces, restricted to the configured window."""

    config: SimConfig
    flux_series: dict[float, diag.GainSeries] = field(repr=False)
    energy_times: np.ndarray = field(default=None, repr=False)
    energies: list[diag.EnergyBreakdown] = field(default_factory=list, repr=False)
    zone_gain: np.ndarray | None = field(default=None, repr=False)
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list, repr=False)
    final_state: FieldState | None = None

    def gain_series(self, probe_x: float) -> diag.GainSeries:
        """The series of the probe on the node ``probe_x`` snaps to, by the rule
        that placed the probes (``diagnostics._probe_index`` on the configured grid)."""
        if not self.flux_series:
            raise KeyError("this run had no probes configured")
        x = self.config.grid.x
        try:
            j = diag._probe_index(probe_x, x)
            return next(s for p, s in self.flux_series.items() if diag._probe_index(p, x) == j)
        except (ValueError, StopIteration):
            raise KeyError(f"no probe at x={probe_x}; have {sorted(self.flux_series)}") from None

    def summary(self, probe_x: float | None = None) -> diag.PlateauSummary:
        if probe_x is None and self.config.probes:
            probe_x = self.config.probes[0]
        return self.gain_series(probe_x).summary()


def _reuse_freed_arrays() -> None:
    """Let glibc's malloc give a freed block to the next allocation of its size.

    glibc maps blocks above an adaptive threshold (128 KB at start) from the
    kernel and trims freed memory at the top of its heap, so a freed block
    comes back as new pages that fault in.  The snapshot formatter
    (``_float17.format_rows``) allocates and frees blocks of 256 KB and more
    for every 1024 rows: without this an n = 25001 snapshot takes about 410
    faults, with it none.  Steps and energy samples add next to no faults per
    step, with or without it.  These are the largest values glibc's adaptive
    rule reaches on 64-bit, fixed from the start.  The setting is
    process-wide, like the CPUs :func:`_spare_cpu` counts; every run makes
    it, in whichever process runs it, and the run's forked helper process,
    which writes its snapshots, inherits it.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # a libc without mallopt
        return
    # ctypes passes Python ints as C int and reads an int back, mallopt's types
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _spare_cpu(runs_in_flight: int) -> bool:
    """Whether each of ``runs_in_flight`` concurrent runs can give a helper
    process a CPU of its own: at least two usable CPUs per run in flight, on
    a platform with ``os.fork``, which the stepper starts the helper with."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return hasattr(os, "fork") and cpus >= 2 * runs_in_flight


def _reference_grid(cfg: SimConfig) -> tuple[Grid, slice]:
    """Enlarge the domain so boundary reflections cannot reach the window.

    A signal leaving the window at t = 0 needs 2 * margin of travel time to
    come back; margin = T/2 + pad covers the whole run with slack.
    """
    g = cfg.grid
    pad = 10.0 * cfg.data.width
    extra = int(np.ceil((0.5 * cfg.t_final + pad) / g.h))
    big = replace(g, x_min=g.x_min - extra * g.h, x_max=g.x_max + extra * g.h)
    return big, slice(extra, extra + g.n)


@dataclass(frozen=True)
class Setup:
    """A run as it stands before its first step."""

    grid: Grid  # the grid stepped on: the configured one, or the enlarged one
    bc: BoundaryMode
    window: slice  # the configured grid within ``grid``
    pp: PotentialPair = field(repr=False)  # sampled on ``grid``
    window_pp: PotentialPair = field(repr=False)  # sampled on the configured grid
    state: FieldState = field(repr=False)  # the data at t = 0
    flux_denominator: float


def prepare(cfg: SimConfig) -> Setup:
    """Everything a run does before its first step, so every refusal it can
    meet there (ConfigError, SupportError) is met here, with nothing written."""
    cfg.validate()
    reference = cfg.bc is BoundaryMode.REFERENCE
    grid, window = _reference_grid(cfg) if reference else (cfg.grid, slice(None))
    bc = BoundaryMode.DIRICHLET if reference else cfg.bc
    pp = cfg.potentials(grid.x)
    window_pp = cfg.potentials(cfg.grid.x) if reference else pp
    state = FieldState(*initial_data.build(cfg.data, grid.x, pp.v), t=0.0)

    flux_denominator = 0.0
    if cfg.probes:
        try:
            flux_denominator = diag.flux_reference_energy(_restrict(state, window), window_pp)
        except ValueError as exc:
            raise ConfigError(
                f"run.probes: the data at data.x0 = {cfg.data.x0:g} give no energy to "
                f"normalize the flux gain by ({exc}); move the data or drop the probes"
            ) from exc
    return Setup(grid, bc, window, pp, window_pp, state, flux_denominator)


def _restrict(s: FieldState, window: slice) -> FieldState:
    return FieldState(u=s.u[window], v=s.v[window], t=s.t)


def run(
    cfg: SimConfig,
    *,
    collect_snapshots: bool = False,
    snapshot_callback=None,
    runs_in_flight: int = 1,
) -> RunResult:
    """Advance the configured problem from t = 0 to t = t_final.

    Flux probes are sampled every step; energies every ``energy_stride``
    steps, by one ``energy_total`` call each, whose zone energy (None on the
    black-hole background) gives the zone gain when the data start with zone
    energy; window snapshots of u every ``snapshot_stride`` steps when
    requested.  Every sampler also sees t = 0 and t = t_final.  On Linux it
    first fixes glibc's malloc thresholds for the whole process
    (``_reuse_freed_arrays``).

    When a CPU is spare (:func:`_spare_cpu`: two usable CPUs for each of the
    ``runs_in_flight`` runs the caller runs at once, this one included), the
    stepper gets a helper process for it, which runs the functions below and,
    where the stepper splits its steps, the half of each step's rows that the
    stepper sends it; it is forked at the first of these requests, so a run
    that sends it none forks nothing.  ``final_state`` is a copy; every
    sampler reads or copies the state it is given at once, since a stepper
    with a helper overwrites its states two steps on.
    ``snapshot_callback`` is called with each window snapshot's state.  It
    may return None, or a function of u, such as a file's write, which this
    runs on the snapshot's u through :meth:`~ergosim.solver.Stepper.call`:
    in the helper process if there is one, so it must then pickle, else at
    once.  The functions have all finished when this returns, and a failed
    one's exception is raised here; the helper is stopped before this
    returns or raises.
    """
    _reuse_freed_arrays()
    setup = prepare(cfg)
    window, window_pp = setup.window, setup.window_pp
    probes = [diag.FluxProbe(px, setup.pp) for px in cfg.probes]
    energies: list[diag.EnergyBreakdown] = []
    energy_times: list[float] = []
    snapshots: list[tuple[float, np.ndarray]] = []

    def sample_energy(s: FieldState) -> None:
        energy_times.append(s.t)
        energies.append(diag.energy_total(_restrict(s, window), window_pp))

    def sample_snapshot(s: FieldState) -> None:
        ws = _restrict(s, window)
        if collect_snapshots:
            snapshots.append((s.t, ws.u.copy()))
        if snapshot_callback is not None and (task := snapshot_callback(ws)) is not None:
            stepper.call(task, ws.u)

    # (stride, sampler): a sampler runs at every step k with k % stride == 0,
    # and at the last step.  The snapshot goes first: a helper writes it while
    # the others sample, and where the first write forks the helper, the
    # stepper frees the matrix rows it kept for the fork before the others
    # allocate (peak RSS otherwise rose 0.1-0.4 MB on the black-hole runs).
    schedule = [(cfg.snapshot_stride, sample_snapshot), (cfg.energy_stride, sample_energy)]
    schedule += [(1, probe.sample) for probe in probes]

    stepper = Stepper(setup.grid, setup.pp, setup.bc, second_cpu=_spare_cpu(runs_in_flight))
    state = setup.state
    n_steps = cfg.n_steps
    try:
        for k in range(n_steps + 1):
            if k:
                state = stepper.step(state)
                # A nan or inf anywhere in u propagates into the sum, and a finite
                # field whose sum overflows has already overflowed the |u|^2 energy
                # quadrature; one reduction is cheaper than an elementwise isfinite.
                if not np.isfinite(state.u.sum()):
                    raise FloatingPointError(
                        f"non-finite field detected at step {k} (t={state.t:g})"
                    )
            for stride, sample in schedule:
                if k % stride == 0 or k == n_steps:
                    sample(state)
        stepper.wait()
    finally:
        stepper.close()

    # the zone gain is defined when the data start with zone energy
    zone0, zone_gain = energies[0].zone, None
    if zone0 is not None and zone0 > 1e-14:
        zone_gain = np.asarray([e.zone for e in energies]) / zone0
    return RunResult(
        config=cfg,
        flux_series={p.x: p.series(setup.flux_denominator) for p in probes},
        energy_times=np.asarray(energy_times),
        energies=energies,
        zone_gain=zone_gain,
        snapshots=snapshots,
        # a copy: a stepper with a helper steps in arrays of its own
        final_state=FieldState(u=state.u[window].copy(), v=state.v[window].copy(), t=state.t),
    )
