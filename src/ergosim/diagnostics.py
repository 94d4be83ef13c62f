"""Energy, flux and gain measurements.

Conventions (they matter, and they cancel correctly in every gain ratio):

* ``energy_total`` carries the global 1/2 of the conserved energy
      E = 1/2 ∫ |∂t φ|² + |∂x φ|² + (P - V²)|φ|² dx,
  which may be negative inside the effective ergosphere;
* the zone energy over x >= 0 carries **no** 1/2
  (E₊ = ∫ |∂t φ|² + |∂x φ|² + P|φ|² dx over the zone).  ``energy_total``
  integrates it from the same samples as E, as ``EnergyBreakdown.zone``, on
  backgrounds with ``zone_convention`` (toy and uniform); there it is also what
  ``energy_positive_zone`` returns.  On the black-hole background both are None;
* the outgoing flux through a probe at x = R is
      F(t) = -∫₀ᵗ Re[ ∂t φ conj(∂x φ - (F/r) φ) ] dτ,
  with the (F/r)φ correction present only on the black-hole background;
* flux gains divide by the energy-current flux of the data through t = 0:
  the full E (with its 1/2) on the black-hole background, and half the zone
  energy E₊/2 on backgrounds with ``zone_convention`` (toy and uniform).
  Either way a free packet that exits entirely through the probe scores
  gain 1.

∂t φ is always reconstructed as v + iVu (exact by definition of v), never by
time differencing.  All quadratures are trapezoidal in x and t, matching the
scheme's second order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .potentials import PotentialPair, RNPotentials
from .solver import FieldState

__all__ = [
    "EnergyBreakdown",
    "GainSeries",
    "PlateauSummary",
    "energy_total",
    "energy_positive_zone",
    "FluxProbe",
    "flux_reference_energy",
    "modified_energy",
    "plateau_summary",
]

# The plateau rule of ``plateau_summary`` (README "Conventions").
_PLATEAU_WINDOW_FRAC = 0.1
_PLATEAU_DRIFT_TOL = 0.01


@dataclass(frozen=True)
class EnergyBreakdown:
    """Pieces of the conserved energy; total = (kinetic + gradient + potential)/2.

    ``zone`` is the zone energy E₊ of the same samples (module docstring), or
    None on a background without the zone convention.
    """

    kinetic: float
    gradient: float
    potential: float
    zone: float | None = None

    @property
    def total(self) -> float:
        return 0.5 * (self.kinetic + self.gradient + self.potential)


@dataclass(frozen=True)
class GainSeries:
    """Accumulated outgoing flux through one probe, normalized by the data energy."""

    probe_x: float
    times: np.ndarray = field(repr=False)
    accumulated_flux: np.ndarray = field(repr=False)
    initial_energy: float = 1.0

    def __post_init__(self) -> None:
        if self.times.shape != self.accumulated_flux.shape:
            raise ValueError("times and accumulated_flux must have the same shape")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def gain(self) -> np.ndarray:
        return self.accumulated_flux / self.initial_energy

    def summary(self) -> "PlateauSummary":
        return plateau_summary(self.times, self.gain)


@dataclass(frozen=True)
class PlateauSummary:
    """Late-time mean of a gain curve and whether it has actually settled."""

    value: float
    stabilized: bool
    drift: float
    window: tuple[float, float]


def energy_total(
    state: FieldState, pp: PotentialPair, window: tuple[float, float] | None = None
) -> EnergyBreakdown:
    """Conserved-energy quadrature, optionally restricted to an x-window, and the
    zone energy of the same nodes at x >= 0 where ``pp.zone_convention`` holds."""
    x, v, p = pp.x, pp.v, pp.p
    m = slice(None)
    if window is not None:
        lo, hi = window
        m = (x >= lo - 1e-12) & (x <= hi + 1e-12)
        x, v, p = x[m], v[m], p[m]
    # integrate each squared modulus as soon as it is formed, so the complex ∂φ
    # and the quadrature's temporaries are freed before the next one is made
    # (forming all three first raised rn-wavepacket's peak RSS by ~0.4 MB)
    dt2 = (np.abs(state.dt_phi(pp.v)) ** 2)[m]
    kin = np.trapezoid(dt2, x)
    dx2 = (np.abs(pp.gradient(state.u)) ** 2)[m]
    grad = np.trapezoid(dx2, x)
    u2 = (np.abs(state.u) ** 2)[m]
    pot = np.trapezoid((p - v**2) * u2, x)
    zone = None
    if pp.zone_convention:
        z = x >= -1e-12
        zone = float(np.trapezoid(dt2[z] + dx2[z] + p[z] * u2[z], x[z]))
    return EnergyBreakdown(float(kin), float(grad), float(pot), zone)


def energy_positive_zone(state: FieldState, pp: PotentialPair) -> float | None:
    """Zone energy E₊ over x >= 0 (no 1/2; P-weighted |φ|² term), or None on
    the black-hole background: ``energy_total(state, pp).zone``.

    On the zone the toy P equals its constant right asymptote, so this is the
    literal positive-definite zone energy of the toy model.
    """
    return energy_total(state, pp).zone


def _probe_index(x_probe: float, x: np.ndarray) -> int:
    """Index of the node of the uniform grid ``x`` that a probe at ``x_probe``
    samples; it must be an interior node, where the flux has a centred difference."""
    j = np.rint((x_probe - x[0]) / (x[1] - x[0]))
    if not 1 <= j <= x.size - 2:
        raise ValueError(f"probe {x_probe} outside the grid interior (nodes {x[1]:g} … {x[-2]:g})")
    return int(j)


class FluxProbe:
    """Running time-integral of the energy flux through one grid node.

    ``outgoing="right"`` counts energy leaving to the right as positive;
    ``outgoing="left"`` mirrors the orientation.  Sample every step: the
    accumulation is trapezoidal in t.
    """

    def __init__(self, x_probe: float, pp: PotentialPair, outgoing: str = "right"):
        x = pp.x
        self.index = _probe_index(x_probe, x)
        self.x = float(x[self.index])
        if outgoing not in ("right", "left"):
            raise ValueError(f'outgoing must be "right" or "left", got {outgoing!r}')
        self.sign = -1.0 if outgoing == "right" else 1.0
        self._pp = pp
        self._correction = pp.flux_correction(self.index)
        self._h = float(x[1] - x[0])
        self._last: tuple[float, float] | None = None
        self.times: list[float] = []
        self.accumulated: list[float] = []
        self.total = 0.0

    def integrand(self, state: FieldState) -> float:
        j = self.index
        dt_phi = state.v[j] + 1j * self._pp.v[j] * state.u[j]
        dx_phi = (state.u[j + 1] - state.u[j - 1]) / (2.0 * self._h)
        return self.sign * float(np.real(dt_phi * np.conj(dx_phi - self._correction * state.u[j])))

    def sample(self, state: FieldState) -> None:
        f = self.integrand(state)
        if self._last is not None:
            t_prev, f_prev = self._last
            self.total += 0.5 * (state.t - t_prev) * (f_prev + f)
        self._last = (state.t, f)
        self.times.append(state.t)
        self.accumulated.append(self.total)

    def series(self, initial_energy: float) -> GainSeries:
        return GainSeries(
            probe_x=self.x,
            times=np.asarray(self.times),
            accumulated_flux=np.asarray(self.accumulated),
            initial_energy=initial_energy,
        )


def flux_reference_energy(state0: FieldState, pp: PotentialPair) -> float:
    """Denominator of the flux gain: the energy-current flux of the data
    through the initial slice (see module docstring for the conventions)."""
    e = energy_total(state0, pp)
    e0 = e.total if e.zone is None else 0.5 * e.zone
    if abs(e0) < 1e-14:
        raise ValueError("initial energy vanishes; flux gain undefined")
    return float(e0)


def modified_energy(state: FieldState, pp: PotentialPair) -> float:
    """Phase-shifted conserved energy that is positive definite for m >= |qQ|/r+.

    Quadrature of |(∂t - i qQ/r+)φ|² + |∂x φ|² + W|φ|² with
    W = F m² + F l(l+1)/r² + F F'/r - q²Q² (1/r - 1/r+)², using the exactly
    propagated r - r+ so the near-horizon cancellation in (1/r - 1/r+) is
    benign.
    """
    if not isinstance(pp, RNPotentials):
        raise ValueError("modified energy is defined on the black-hole background only")
    bh, fp, g = pp.bh, pp.fp, pp.geom
    omega_h = fp.q * bh.charge / bh.r_plus
    dt_shift = state.v + 1j * (pp.v - omega_h) * state.u
    dx_phi = pp.gradient(state.u)
    inv_diff = -g.delta / (g.r * bh.r_plus)  # 1/r - 1/r+
    w = (
        g.f * (fp.m**2 + fp.l * (fp.l + 1) / g.r**2)
        + g.f * g.f_prime / g.r
        - (fp.q * bh.charge) ** 2 * inv_diff**2
    )
    integrand = np.abs(dt_shift) ** 2 + np.abs(dx_phi) ** 2 + w * np.abs(state.u) ** 2
    return float(np.trapezoid(integrand, pp.x))


def plateau_summary(times: np.ndarray, values: np.ndarray) -> PlateauSummary:
    """Late-time plateau: mean over the final 10 % of the run, flagged
    stabilized when the window's spread is below 1 % of it."""
    if len(times) < 2:
        raise ValueError("need at least two samples to detect a plateau")
    t_lo = times[-1] - _PLATEAU_WINDOW_FRAC * (times[-1] - times[0])
    m = times >= t_lo
    window = values[m]
    mean = float(window.mean())
    drift = float(window.max() - window.min())
    stabilized = drift < _PLATEAU_DRIFT_TOL * max(abs(mean), 1e-12)
    return PlateauSummary(
        value=mean, stabilized=bool(stabilized), drift=drift, window=(float(t_lo), float(times[-1]))
    )
