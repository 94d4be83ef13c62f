"""Coefficient profiles V(x), P(x) of the wave equation (∂t - iV)²φ - ∂x²φ + Pφ = 0.

Two physical families share the same solver-facing form:

* the smoothed-step toy model (``ToyParams``), where V falls from alpha to 0
  over a window of width L and P = beta (1 - V/alpha) rises symmetrically;
* the Reissner-Nordström background, where V = qQ/r is the electrostatic
  coupling and P = F (l(l+1)/r² + m² + F'/r) the curvature/mass barrier.

A third, uniform background (constant V, P) backs the boundary-condition
demonstration runs.  Each family is its own sampled-profile type
(``ToyPotentials``, ``RNPotentials``, the base ``PotentialPair`` for uniform
coefficients), and the type carries the family's diagnostic conventions.

The conserved-energy density carries the combination P - V²; the region where
it is negative is the effective ergosphere, and its boundary points are what
:func:`effective_ergosphere_boundary` locates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .geometry import BlackHole, GridGeometry, sample_grid

__all__ = [
    "ToyParams",
    "FieldParams",
    "PotentialPair",
    "ToyPotentials",
    "RNPotentials",
    "toy_potentials",
    "rn_potentials",
    "uniform_potentials",
    "effective_ergosphere_boundary",
    "no_superradiance_threshold",
]


@dataclass(frozen=True)
class ToyParams:
    """Smoothed-step toy potentials: left asymptote alpha, right asymptote beta,
    transition window [-smoothing, 0].  smoothing = 0 gives exact steps, with the
    right-continuous convention V(0) = 0.  ``smoothing`` has no default (no width
    is a neutral choice) and is passed by keyword."""

    alpha: float
    beta: float = 0.0
    smoothing: float = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.smoothing < 0.0:
            raise ValueError(f"smoothing width must be non-negative, got {self.smoothing}")


@dataclass(frozen=True)
class FieldParams:
    """Charged scalar field: charge q, mass m >= 0, angular momentum l >= 0."""

    q: float
    m: float = 0.0
    l: int = 0

    def __post_init__(self) -> None:
        if self.m < 0.0:
            raise ValueError(f"field mass must be non-negative, got {self.m}")
        if self.l < 0 or int(self.l) != self.l:
            raise ValueError(f"angular momentum must be a non-negative integer, got {self.l}")


@dataclass(frozen=True)
class PotentialPair:
    """Sampled profiles V(x), P(x) of a constant-coefficient background.

    Each background model is a subclass that knows how to re-evaluate its
    profiles continuously (needed for grid-independent root refinement) and
    which diagnostic conventions it follows.  ``provenance`` names the model.
    """

    x: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    provenance: str = "uniform"
    uniform: tuple[float, float] | None = None

    # Zone-energy convention: the flux gain divides by E₊/2 over x >= 0 and the
    # run reports a zone gain.  Otherwise it divides by the full energy.
    zone_convention: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not (len(self.x) == len(self.v) == len(self.p)):
            raise ValueError("grid, V and P must have the same length")

    @property
    def total(self) -> np.ndarray:
        """Sampled total potential P - V² of the conserved energy density."""
        return self.p - self.v**2

    def total_at(self, x: float | np.ndarray) -> float | np.ndarray:
        """Evaluate P - V² at arbitrary positions (not just grid nodes)."""
        if self.uniform is None:
            raise ValueError(
                "this potential pair holds samples only, no continuous profile; build it "
                "with uniform_potentials, toy_potentials or rn_potentials"
            )
        v0, p0 = self.uniform
        return np.full_like(np.asarray(x, dtype=float), p0 - v0 * v0)

    def flux_correction(self, j: int) -> float:
        """Coefficient c of the probe's flux term Re[∂t φ conj(∂x φ - c φ)] at node j."""
        return 0.0

    @cached_property
    def _gradient_stencil(self) -> tuple:
        """``np.gradient``'s spacing terms for ``x``, computed as it computes
        them: the interior stencil (a, b, c), or None when all diffs are equal,
        and the first and last diff."""
        dx = np.diff(self.x)
        if (dx == dx[0]).all():
            return None, dx[0], dx[0]
        dx1, dx2 = dx[:-1], dx[1:]
        a = -dx2 / (dx1 * (dx1 + dx2))
        b = (dx2 - dx1) / (dx1 * dx2)
        c = dx1 / (dx2 * (dx1 + dx2))
        return (a, b, c), dx[0], dx[-1]

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """``np.gradient(u, self.x)`` bit for bit, without re-deriving the
        grid's spacing terms on every call."""
        stencil, dx_0, dx_n = self._gradient_stencil
        out = np.empty_like(u)
        if stencil is None:
            out[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx_0)
        else:
            a, b, c = stencil
            out[1:-1] = a * u[:-2] + b * u[1:-1] + c * u[2:]
        out[0] = (u[1] - u[0]) / dx_0
        out[-1] = (u[-1] - u[-2]) / dx_n
        return out


@dataclass(frozen=True, kw_only=True)
class ToyPotentials(PotentialPair):
    """The smoothed-step toy model."""

    provenance: str = "toy"
    toy: ToyParams

    def total_at(self, x: float | np.ndarray) -> float | np.ndarray:
        v = _toy_v(self.toy, np.asarray(x, dtype=float))
        p = _toy_p(self.toy, v)
        return p - v**2


@dataclass(frozen=True, kw_only=True)
class RNPotentials(PotentialPair):
    """The Reissner-Nordström mode reduction, with its sampled geometry."""

    provenance: str = "reissner-nordstrom"
    bh: BlackHole
    fp: FieldParams
    geom: GridGeometry

    zone_convention: ClassVar[bool] = False

    def total_at(self, x: float | np.ndarray) -> float | np.ndarray:
        g = sample_grid(self.bh, np.atleast_1d(np.asarray(x, dtype=float)))
        v, p = _rn_vp(self.bh, self.fp, g)
        out = p - v**2
        return out if np.ndim(x) else float(out[0])

    def flux_correction(self, j: int) -> float:
        """F/r at node j: the curvature term of the outgoing flux."""
        return float(self.geom.f[j] / self.geom.r[j])


def _toy_v(params: ToyParams, x: np.ndarray) -> np.ndarray:
    a, length = params.alpha, params.smoothing
    if length == 0.0:
        return np.where(x < 0.0, a, 0.0)
    v = np.where(x <= -length, a, 0.0)
    mid = (x > -length) & (x < 0.0)
    v = np.where(mid, 0.5 * a * (1.0 - np.sin(np.pi / length * (x + 0.5 * length))), v)
    return v


def _toy_p(params: ToyParams, v: np.ndarray) -> np.ndarray:
    return params.beta * (1.0 - v / params.alpha)


def _rn_vp(bh: BlackHole, fp: FieldParams, geom: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    v = fp.q * bh.charge / geom.r
    p = geom.f * (fp.l * (fp.l + 1) / geom.r**2 + fp.m**2 + geom.f_prime / geom.r)
    return v, p


def toy_potentials(params: ToyParams, x: np.ndarray) -> ToyPotentials:
    """Sample the toy profiles on a strictly increasing grid."""
    x = _checked_grid(x)
    v = _toy_v(params, x)
    return ToyPotentials(x=x, v=v, p=_toy_p(params, v), toy=params)


def rn_potentials(bh: BlackHole, fp: FieldParams, x: np.ndarray) -> RNPotentials:
    """Sample the Reissner-Nordström profiles on a strictly increasing grid.

    V -> qQ/r+ and P -> 0 (exponentially) towards the horizon;
    V -> 0 and P -> m² towards infinity.
    """
    x = _checked_grid(x)
    geom = sample_grid(bh, x)
    v, p = _rn_vp(bh, fp, geom)
    return RNPotentials(x=x, v=v, p=p, bh=bh, fp=fp, geom=geom)


def uniform_potentials(v0: float, p0: float, x: np.ndarray) -> PotentialPair:
    """Constant coefficients; used by the boundary-condition test problems."""
    x = _checked_grid(x)
    return PotentialPair(
        x=x,
        v=np.full_like(x, v0),
        p=np.full_like(x, p0),
        uniform=(float(v0), float(p0)),
    )


def _checked_grid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("grid must be a 1D array with at least two nodes")
    if not np.all(np.diff(x) > 0.0):
        raise ValueError("grid must be strictly increasing")
    return x


def effective_ergosphere_boundary(pp: PotentialPair) -> list[float]:
    """Locate the boundary of the effective ergosphere on the sampled grid.

    Returns every position where the total potential P - V² passes between
    negative and non-negative values, refined to 1e-8 by bisection of the
    continuous profile's sign (which also copes with step-limit profiles that
    sit exactly at zero on one side).  Empty if the sign never changes on the
    grid.
    """
    x = pp.x
    negative = pp.total < 0.0
    roots: list[float] = []
    for j in np.nonzero(negative[:-1] != negative[1:])[0]:
        lo, hi = float(x[j]), float(x[j + 1])
        neg_lo = bool(negative[j])
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if (pp.total_at(mid) < 0.0) == neg_lo:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def no_superradiance_threshold(bh: BlackHole, fp: FieldParams) -> bool:
    """True when the field mass is large enough to forbid energy extraction,
    m >= |qQ|/r+ (a positive-definite conserved energy then exists)."""
    return fp.m >= abs(fp.q * bh.charge) / bh.r_plus
