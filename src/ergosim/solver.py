"""Time integration of the first-order system for (u, v) = (φ, (∂t - iV)φ).

The semi-implicit midpoint scheme writes the system at t_{n+1/2} with
midpoint averages, giving the block form

    [[A, -B], [-C, A]] (U, V)^{n+1} = [[D, B], [C, D]] (U, V)^n

with A = (1 - iV dt/2) Id, B = (dt/2) Id, C = (dt/2)(Δ₂ - P) and
D = (1 + iV dt/2) Id, Δ₂ the 3-point second difference.  Since B is a
multiple of the identity, V^{n+1} is eliminated and each step reduces to one
complex tridiagonal solve of size n,

    [A² - (dt²/4)(Δ₂ - P)] U^{n+1} = [AD + (dt²/4)(Δ₂ - P)] U^n + dt V^n,
    V^{n+1} = (2/dt)(A U^{n+1} - D U^n) - V^n,

which is algebraically identical to solving the 2n x 2n block system.  The
left-hand matrix is constant in time, so it is LU-factorized once per run and
each step costs O(n).

Boundary closures replace the first and last rows:

* transparent: Crank-Nicolson discretization of the one-way equations
  (∂t - iV)u ∓ ∂x u = 0 (left/right) with one-sided differences; v at the
  boundary nodes follows the same one-way relation v = ±∂x u.  Exact for
  P = 0; for P ≠ 0 a Strang splitting isolates the P-term as a pointwise
  sub-flow (u fixed, v ← v - Δt P u) so the homogeneous step keeps its local
  transparent closure.
* dirichlet: u = v = 0 pinned at both ends.
* reference runs (enlarged domain, restricted afterwards) are orchestrated by
  the run driver, not here.

Stability requires the CFL ratio dt/h <= 1, enforced at grid construction.

A step allocates only its two outputs: the right-hand side is built in a fresh
array that the LAPACK solve overwrites with U^{n+1}, V^{n+1} is formed in
place in a second fresh array, and every other intermediate goes to scratch
buffers the :class:`Stepper` allocates once.  The operations and their order
are those of the expressions above, so results are bit-identical to evaluating
them with temporaries.  Returned states alias neither their input nor the
scratch buffers, so callers may keep old states; the scratch makes a
``Stepper`` non-reentrant (one step at a time per instance).

LAPACK's zgttrf/zgttrs come from the OpenBLAS that numpy's wheels bundle,
called through ctypes, so a run does not import scipy; with a numpy built
without it (conda, system packages) they come from scipy.linalg.lapack.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .potentials import PotentialPair

__all__ = [
    "BoundaryMode",
    "Grid",
    "FieldState",
    "Stepper",
]


def is_whole(ratio: float) -> bool:
    """Whether ``ratio`` is an integer up to 1e-9 relative (a quotient's roundoff);
    False for nan and inf."""
    return bool(np.isfinite(ratio)) and abs(ratio - round(ratio)) <= 1e-9 * abs(ratio)


class BoundaryMode(str, Enum):
    TRANSPARENT = "transparent"
    DIRICHLET = "dirichlet"
    REFERENCE = "reference"


@dataclass(frozen=True)
class Grid:
    """Uniform grid with timestep; construction enforces the CFL bound dt/h <= 1."""

    x_min: float
    x_max: float
    h: float
    dt: float

    def __post_init__(self) -> None:
        if self.h <= 0.0 or self.dt <= 0.0:
            raise ValueError("grid spacing and timestep must be positive")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.dt / self.h > 1.0 + 1e-12:
            raise ValueError(
                f"CFL violation: dt/h = {self.dt / self.h:.6g} exceeds 1"
            )
        cells = (self.x_max - self.x_min) / self.h
        if not is_whole(cells):
            raise ValueError(
                f"(x_max - x_min)/h = {cells:.17g} is not an integer; "
                "the grid would not end at x_max"
            )

    @property
    def n(self) -> int:
        return int(round((self.x_max - self.x_min) / self.h)) + 1

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.n)


@dataclass
class FieldState:
    """Complex field pair on the grid at one time level."""

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.u.shape != self.v.shape:
            raise ValueError("u and v must have the same shape")

    def dt_phi(self, v_profile: np.ndarray) -> np.ndarray:
        """∂t φ reconstructed exactly from the definition of v."""
        return self.v + 1j * v_profile * self.u


class _OpenBLAS:
    """LAPACK's zgttrf/zgttrs from the ILP64 OpenBLAS that numpy's wheels bundle,
    called through ctypes (Fortran ABI: every argument by reference, 64-bit
    integers, and the hidden length of ``TRANS`` last)."""

    name = "ctypes"

    def __init__(self, lib: ctypes.CDLL):
        self._trf, self._trs = lib.scipy_zgttrf_64_, lib.scipy_zgttrs_64_
        # Without argtypes, ctypes would pass the pointers as C ints, cut to 32 bits.
        ptr, i64 = ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)
        self._trf.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, i64]
        self._trs.argtypes = [
            ctypes.c_char_p, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64, ctypes.c_size_t
        ]
        self._trf.restype = self._trs.restype = None

    def factor(self, lower, diag, upper):
        # fresh contiguous copies, as scipy's f2py wrappers make: zgttrf
        # overwrites them with the factors
        dl, d, du = (np.array(a, dtype=np.complex128) for a in (lower, diag, upper))
        n = ctypes.c_int64(d.size)
        info, one = ctypes.c_int64(), ctypes.c_int64(1)
        fact = (dl, d, du, np.empty(max(d.size - 2, 0), dtype=np.complex128),
                np.empty(d.size, dtype=np.int64))
        pointers = [a.ctypes.data for a in fact]
        self._trf(n, *pointers, info)
        trs, head = self._trs, (b"N", n, one, *pointers)

        def solve(b: np.ndarray) -> int:
            trs(*head, b.ctypes.data, n, info, 1)
            return info.value

        return fact, solve, info.value


class _Scipy:
    """The same routines through scipy's f2py wrappers, for a numpy without the
    bundled OpenBLAS (conda or system builds).  Importing scipy.linalg is a
    large part of a run's start-up, so it happens only when this binding is
    chosen."""

    name = "scipy"

    def __init__(self):
        from scipy.linalg.lapack import zgttrf, zgttrs

        self._trf, self._trs = zgttrf, zgttrs

    def factor(self, lower, diag, upper):
        *fact, info = self._trf(lower, diag, upper)
        trs = self._trs

        def solve(b: np.ndarray) -> int:
            # overwrite_b: a contiguous complex128 b is solved in place
            return trs(*fact, b, overwrite_b=1)[1]

        return tuple(fact), solve, info


def _lapack(libdir: Path) -> _OpenBLAS | _Scipy:
    """The ctypes binding to the first ``libscipy_openblas64_*.so`` in
    ``libdir`` that exports both routines, else scipy's."""
    for path in sorted(libdir.glob("libscipy_openblas64_*.so")):
        try:
            return _OpenBLAS(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):  # not loadable, or without the symbols
            continue
    return _Scipy()


# numpy's wheels put their shared libraries in numpy.libs, beside the package
_LAPACK = _lapack(Path(np.__file__).resolve().parents[1] / "numpy.libs")


class _TridiagLU:
    """LU factorization of a complex tridiagonal matrix, reused every step."""

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        # lower[j] sits in row j+1, upper[j] in row j; _solve writes through
        # raw pointers into _fact, which this object keeps alive
        self.n = diag.size
        self._fact, self._solve, info = _LAPACK.factor(lower, diag, upper)
        if info != 0:
            raise RuntimeError(f"tridiagonal factorization failed (info={info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Overwrite ``rhs`` with the solution and return it."""
        # LAPACK reads and writes n values at rhs's address, unchecked
        if not (
            isinstance(rhs, np.ndarray)
            and rhs.dtype == np.complex128
            and rhs.shape == (self.n,)
            and rhs.flags.c_contiguous
            and rhs.flags.writeable
        ):
            raise ValueError(
                f"right-hand side must be a writeable, C-contiguous complex128 "
                f"array of shape ({self.n},)"
            )
        info = self._solve(rhs)
        if info != 0:  # pragma: no cover
            raise RuntimeError(f"tridiagonal solve failed (info={info})")
        return rhs


class Stepper:
    """Advances a :class:`FieldState` by dt on fixed potentials and boundary mode.

    ``splitting=None`` resolves automatically: Strang splitting is used exactly
    when the boundary is transparent and P is not identically zero.

    Not reentrant: :meth:`step` works in scratch buffers owned by the instance,
    so one ``Stepper`` must not run two steps at once (use one per thread).
    """

    def __init__(
        self,
        grid: Grid,
        pp: PotentialPair,
        bc: BoundaryMode,
        splitting: bool | None = None,
    ):
        bc = BoundaryMode(bc)
        if bc is BoundaryMode.REFERENCE:
            raise ValueError("reference mode is resolved by the run driver, not the stepper")
        if pp.x.size != grid.n:
            raise ValueError("potentials are sampled on a different grid")
        if splitting is None:
            splitting = bc is BoundaryMode.TRANSPARENT and bool(np.any(pp.p != 0.0))
        self.grid = grid
        self.bc = bc
        self.splitting = splitting

        dt, h, n = grid.dt, grid.h, grid.n
        p_in_block = np.zeros(n) if splitting else pp.p
        # complex, so the kicks skip numpy's float64 -> complex128 casting loop
        self._half_p = (0.5 * dt * pp.p).astype(complex) if splitting else None

        self._a = 1.0 - 0.5j * dt * pp.v
        self._d = 1.0 + 0.5j * dt * pp.v
        c = 0.25 * dt * dt
        lo = np.full(n, -c / h**2, dtype=complex)  # row j, column j-1
        di = self._a * self._a + c * (2.0 / h**2 + p_in_block)
        up = np.full(n, -c / h**2, dtype=complex)  # row j, column j+1
        # right-hand-side operator: diagonal _rdi, both off-diagonals _roff
        self._roff = complex(c / h**2)
        self._rdi = self._a * self._d - c * (2.0 / h**2 + p_in_block)
        # transparent rows of the right-hand side: _rb0 u[0] + _rb1 u[1] and
        # _rbn u[-1] + _rb1 u[-2]
        self._rb0 = 1.0 / dt + 0.5j * pp.v[0] - 0.5 / h
        self._rbn = 1.0 / dt + 0.5j * pp.v[-1] - 0.5 / h
        self._rb1 = 0.5 / h

        if bc is BoundaryMode.DIRICHLET:
            di[0] = 1.0
            up[0] = 0.0
            di[-1] = 1.0
            lo[-1] = 0.0
        else:  # transparent one-way rows, Crank-Nicolson in t, one-sided in x
            di[0] = 1.0 / dt - 0.5j * pp.v[0] + 0.5 / h
            up[0] = -0.5 / h
            di[-1] = 1.0 / dt - 0.5j * pp.v[-1] + 0.5 / h
            lo[-1] = -0.5 / h

        self._lu = _TridiagLU(lo[1:], di, up[:-1])
        # scratch: _work holds one product at a time, _kick the kicked v
        self._work = np.empty(n, dtype=complex)
        self._kick = np.empty(n, dtype=complex) if splitting else None

    def _rhs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Right-hand side in a fresh array; the solve turns it into u_new."""
        w = self._work
        r = np.multiply(self._rdi, u)
        np.add(r, np.multiply(self.grid.dt, v, out=w), out=r)
        np.multiply(self._roff, u, out=w)  # one product serves both off-diagonals
        r[1:] += w[:-1]
        r[:-1] += w[1:]
        if self.bc is BoundaryMode.DIRICHLET:
            r[0] = 0.0
            r[-1] = 0.0
        else:
            r[0] = self._rb0 * u[0] + self._rb1 * u[1]
            r[-1] = self._rbn * u[-1] + self._rb1 * u[-2]
        return r

    def _cn_step(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dt, h = self.grid.dt, self.grid.h
        un = self._lu.solve(self._rhs(u, v))
        # vn = (2/dt)(a un - d u) - v in this grouping; folding 2/dt into a
        # and d would change the last bits of every output
        vn = np.multiply(self._a, un)
        np.subtract(vn, np.multiply(self._d, u, out=self._work), out=vn)
        np.multiply(2.0 / dt, vn, out=vn)
        np.subtract(vn, v, out=vn)
        if self.bc is BoundaryMode.DIRICHLET:
            vn[0] = 0.0
            vn[-1] = 0.0
        else:  # one-way relation v = ±∂x u at the boundary nodes
            vn[0] = (un[1] - un[0]) / h
            vn[-1] = -(un[-1] - un[-2]) / h
        return un, vn

    def step(self, state: FieldState) -> FieldState:
        u, v = state.u, state.v
        if self.splitting:
            # Strang: half P-kick, homogeneous step, half P-kick; the kick is
            # the trapezoidal rule for v' = -P u, exact since u is frozen in it
            w = self._work
            v = np.subtract(v, np.multiply(self._half_p, u, out=w), out=self._kick)
            u, v = self._cn_step(u, v)
            np.subtract(v, np.multiply(self._half_p, u, out=w), out=v)
        else:
            u, v = self._cn_step(u, v)
        return FieldState(u=u, v=v, t=state.t + self.grid.dt)
