"""Reissner-Nordström background geometry.

Everything the wave solver needs from the spacetime: the metric function
F(r) = 1 - 2M/r + Q^2/r^2, the two horizons r±, the surface gravities κ±,
the tortoise coordinate r*(r) and its numerical inverse r(r*).

Only the sub-extremal exterior (M > |Q|, r > r+) is covered.  The tortoise
map sends (r+, ∞) onto the whole real line, with the horizon pushed to
r* = -∞; near the horizon r - r+ shrinks like e^{κ+ r*}, so the inversion
is performed in the variable y = log(r - r+), which stays well conditioned
on both ends of any grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BlackHole",
    "GridGeometry",
    "metric_f",
    "metric_f_prime",
    "tortoise",
    "radius_from_tortoise",
    "sample_grid",
]

# log(r - r+) below this would underflow e^y to zero; such nodes are clamped
# to a tiny positive offset above the horizon and flagged.  All coefficient
# profiles have finite horizon limits, so downstream values stay meaningful.
_Y_FLOOR = -700.0


@dataclass(frozen=True)
class BlackHole:
    """Sub-extremal charged black hole in geometric units.

    Parameters
    ----------
    mass : float
        Black-hole mass M > 0.
    charge : float
        Black-hole charge Q != 0, with M > |Q|.
    r0 : float, default 0.0
        Additive offset of the tortoise coordinate.  Pure gauge: shifting
        r0 relabels the r* axis and nothing else.
    """

    mass: float
    charge: float
    r0: float = 0.0

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.charge == 0.0:
            raise ValueError("charge must be nonzero")
        if self.mass <= abs(self.charge):
            raise ValueError(
                f"sub-extremal hole requires M > |Q|, got M={self.mass}, Q={self.charge}"
            )

    @property
    def r_plus(self) -> float:
        """Outer (event) horizon radius."""
        return self.mass + np.sqrt(self.mass**2 - self.charge**2)

    @property
    def r_minus(self) -> float:
        """Inner (Cauchy) horizon radius."""
        return self.mass - np.sqrt(self.mass**2 - self.charge**2)

    @property
    def kappa_plus(self) -> float:
        """Surface gravity at the outer horizon, F'(r+) > 0."""
        return (self.r_plus - self.r_minus) / self.r_plus**2

    @property
    def kappa_minus(self) -> float:
        """Surface gravity at the inner horizon, F'(r-) < 0."""
        return (self.r_minus - self.r_plus) / self.r_minus**2


@dataclass(frozen=True)
class GridGeometry:
    """Background quantities precomputed once per grid.

    ``delta`` carries r - r+ separately from ``r``: near the horizon the
    difference underflows the precision of ``r`` long before it underflows
    a double, and F is proportional to it.
    """

    x: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    f_prime: np.ndarray = field(repr=False)
    clamped: np.ndarray = field(repr=False)


def _check_exterior(bh: BlackHole, r: np.ndarray) -> None:
    if np.any(r <= bh.r_plus):
        raise ValueError(f"radius must exceed the outer horizon r+={bh.r_plus!r}")


def metric_f(bh: BlackHole, r: float | np.ndarray) -> float | np.ndarray:
    """Metric function F(r) = 1 - 2M/r + Q^2/r^2 on the exterior r > r+."""
    r = np.asarray(r, dtype=float)
    _check_exterior(bh, r)
    out = 1.0 - 2.0 * bh.mass / r + bh.charge**2 / r**2
    return out if out.ndim else float(out)


def metric_f_prime(bh: BlackHole, r: float | np.ndarray) -> float | np.ndarray:
    """F'(r) = 2(Mr - Q^2)/r^3, strictly positive on the exterior."""
    r = np.asarray(r, dtype=float)
    _check_exterior(bh, r)
    out = 2.0 * (bh.mass * r - bh.charge**2) / r**3
    return out if out.ndim else float(out)


def tortoise(bh: BlackHole, r: float | np.ndarray) -> float | np.ndarray:
    """Tortoise coordinate r*(r) on the exterior.

    r* = r + log(r - r+)/κ+ + log(r - r-)/κ- + r0, strictly increasing,
    with r* -> -∞ at the horizon and r*/r -> 1 at infinity.
    """
    r = np.asarray(r, dtype=float)
    _check_exterior(bh, r)
    out = (
        r
        + np.log(r - bh.r_plus) / bh.kappa_plus
        + np.log(r - bh.r_minus) / bh.kappa_minus
        + bh.r0
    )
    return out if out.ndim else float(out)


def _tortoise_of_y(bh: BlackHole, y: np.ndarray) -> np.ndarray:
    # r* as a function of y = log(r - r+); exact, no cancellation near the horizon
    ey = np.exp(y)
    return (
        bh.r_plus
        + ey
        + y / bh.kappa_plus
        + np.log(ey + (bh.r_plus - bh.r_minus)) / bh.kappa_minus
        + bh.r0
    )


def _solve_y(bh: BlackHole, x: np.ndarray) -> np.ndarray:
    """Solve r*(y) = x for y = log(r - r+), vectorized safeguarded Newton.

    r*(y) is smooth and strictly increasing (dr*/dy = r^2/(r - r-) > 0), so a
    Newton iteration bracketed by bisection converges for every component, to
    |r*(y) - x| <= 1e-13 max(1, |x|) within 100 iterations.
    Components whose horizon asymptote already lies below the underflow floor
    are returned at the asymptote unrefined; callers flag them as clamped.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("tortoise coordinates must be finite")
    rp, rm, kp = bh.r_plus, bh.r_minus, bh.kappa_plus

    # Initial guesses from the two asymptotic regimes.
    y_horizon = kp * (x - rp - bh.r0) + (rm**2 / rp**2) * np.log(rp - rm)
    y_far = np.log(np.maximum(x - rp, 1.0))
    y = np.where(x < rp + 1.0, y_horizon, y_far)
    deep = y_horizon <= _Y_FLOOR
    y = np.maximum(y, _Y_FLOOR)

    lo = y - 50.0
    hi = np.minimum(y + 50.0, 700.0)  # e^y must stay representable
    scale = np.maximum(1.0, np.abs(x))
    converged = deep.copy()
    for _ in range(100):
        f = _tortoise_of_y(bh, y) - x
        converged |= np.abs(f) <= 1e-13 * scale
        if converged.all():
            break
        lo = np.where(f < 0.0, np.maximum(lo, y), lo)
        hi = np.where(f > 0.0, np.minimum(hi, y), hi)
        ey = np.exp(y)
        r = rp + ey
        step = f * (r - rm) / (r * r)  # f / (dr*/dy)
        y_new = y - step
        outside = (y_new <= lo) | (y_new >= hi)
        y_new = np.where(outside, 0.5 * (lo + hi), y_new)
        y = np.where(converged, y, y_new)
    if not converged.all():
        bad = ~converged
        raise RuntimeError(
            f"tortoise inversion failed to converge for {int(bad.sum())} grid points "
            f"(first at x={x[np.argmax(bad)]!r})"
        )
    return np.where(deep, y_horizon, y)


def radius_from_tortoise(bh: BlackHole, x: float | np.ndarray) -> float | np.ndarray:
    """Invert the tortoise map: the unique r > r+ with r*(r) = x.

    Defined for every real x; for x so far inside the horizon throat that
    e^{κ+ x} underflows, the result is clamped just above r+ (see
    :func:`sample_grid` for the flagged variant).
    """
    x = np.asarray(x, dtype=float)
    r = sample_grid(bh, np.atleast_1d(x)).r
    # keep the result strictly outside the horizon even when r+ + e^y rounds to r+
    r = np.maximum(r, np.nextafter(bh.r_plus, np.inf))
    r = r.reshape(x.shape)
    return r if r.ndim else float(r)


def sample_grid(bh: BlackHole, x: np.ndarray) -> GridGeometry:
    """Precompute r, r - r+, F and F' at every tortoise-coordinate node.

    F is evaluated as (r - r+)(r - r-)/r^2 using the exactly-propagated
    offset r - r+, which preserves the e^{κ+ x} decay of horizon-side
    quantities far beyond the precision of r itself.
    """
    x = np.asarray(x, dtype=float)
    y = _solve_y(bh, x)
    clamped = y < _Y_FLOOR
    y = np.maximum(y, _Y_FLOOR)
    delta = np.exp(y)
    r = bh.r_plus + delta
    f = delta * (delta + (bh.r_plus - bh.r_minus)) / (r * r)
    f_prime = 2.0 * (bh.mass * r - bh.charge**2) / r**3
    return GridGeometry(x=x, r=r, delta=delta, f=f, f_prime=f_prime, clamped=clamped)
