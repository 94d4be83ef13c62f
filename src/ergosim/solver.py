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

A split step is still Strang's kick, homogeneous step, kick, with half kicks
v ← v - hp u, hp = (dt/2) P; the kicks are applied through the step's
coefficients instead of as passes of their own.  The leading kick enters the
right-hand side as dt(v - hp u), and the trailing one, -hp U^{n+1}, together
with the leading one's +hp U^n, enters the v update, so the step above runs
unchanged on

    rdi' = rdi - dt hp,   A' = A - (dt/2) hp,   D' = D - (dt/2) hp

(rdi the right-hand side's diagonal; the left-hand matrix keeps A and no P),
plus the trailing kick at the two transparent boundary nodes, whose v the
one-way relation sets.  It is the same scheme; the regrouping moved split
runs' outputs at roundoff when it replaced the separate kicks (the acceptance
criteria's gains by at most 1.4e-13 relative), and left unsplit steps
unchanged bit for bit.

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

With ``second_cpu``, a forked helper process runs on a second CPU.  It runs
the calls handed to it (a snapshot file's write, say) on a copy of u, and
while it has none, the solve runs on two CPUs as two overlapping systems
(the partition method of Wang 1981, ACM TOMS 7): rows [0, m+K) and [m-K, n)
of the matrix, m = n/2, each solved alone, the left one in place and the
right one by the helper; a step taken while the helper runs a call solves
whole.  Cutting a system at row m+K changes
the back substitution's value there by |du/d| |x_{m+K}|, and each row above
shrinks the change by |du/d| again; the right system's first rows change the
forward elimination by |dl| per row in the same way.  So with rho the largest
of |dl| and |du/d| over the rows within n/4 of the cut, the halves differ from
the whole solve at row m by at most about rho^K of the solution's size near
m+K (the decay of the inverse's entries, Demko, Moss and Smith 1984, Math.
Comp. 43).  K = ceil(106 ln 2 / -ln rho) makes rho^K <= 2^-106, far below
half an ulp.  On the presets' and the benchmark's dt = h grids, rho is that
of the potential-free matrix, 3 - 2 sqrt(2) = 0.1716, and K = 42.  The split
is kept off when K > n/4, when zgttrf swapped a row within K of the cut, and
below n = 3000, where it measured no faster.  The bound is on size, not on
bits; measured, the split solve was ``np.array_equal`` to the whole one at
every step of whole rn-highenergy and rn-wavepacket runs and of toy runs whose
packet crosses the cut, and the tests check shortened runs of the three.
Since one run mixes split and whole steps, every split solve checks the bits
it can: the rows m-1 .. m+1, which both halves solve, must agree exactly, or
the step raises FloatingPointError.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
import os
import pickle
import select
import weakref
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
    integers, and the hidden length of ``TRANS`` last).

    ``factor`` returns zgttrf's factors (dl, d, du, du2, ipiv) and its info;
    ``solver(fact, n)`` returns a solve of the factored system's leading n
    rows, which overwrites the first n values of a contiguous complex128 array
    and returns zgttrs's info.
    """

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
        info = ctypes.c_int64()
        fact = (dl, d, du, np.empty(max(d.size - 2, 0), dtype=np.complex128),
                np.empty(d.size, dtype=np.int64))
        self._trf(ctypes.c_int64(d.size), *(a.ctypes.data for a in fact), info)
        return fact, info.value

    def solver(self, fact, n: int):
        n, info, one = ctypes.c_int64(n), ctypes.c_int64(), ctypes.c_int64(1)
        trs, head = self._trs, (b"N", n, one, *(a.ctypes.data for a in fact))

        def solve(b: np.ndarray) -> int:
            trs(*head, b.ctypes.data, n, info, 1)
            return info.value

        return solve


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
        return tuple(fact), info

    def solver(self, fact, n: int):
        dl, d, du, du2, ipiv = fact
        trs, head = self._trs, (dl[: n - 1], d[:n], du[: n - 1], du2[: max(n - 2, 0)], ipiv[:n])

        def solve(b: np.ndarray) -> int:
            # overwrite_b: a contiguous complex128 b is solved in place
            return trs(*head, b[:n], overwrite_b=1)[1]

        return solve


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


def _check_rhs(rhs: np.ndarray, n: int) -> None:
    # LAPACK reads and writes n values at rhs's address, unchecked
    if not (
        isinstance(rhs, np.ndarray)
        and rhs.dtype == np.complex128
        and rhs.shape == (n,)
        and rhs.flags.c_contiguous
        and rhs.flags.writeable
    ):
        raise ValueError(
            f"right-hand side must be a writeable, C-contiguous complex128 "
            f"array of shape ({n},)"
        )


class _TridiagLU:
    """LU factorization of a complex tridiagonal matrix, reused every step."""

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        # lower[j] sits in row j+1, upper[j] in row j; _solve writes through
        # raw pointers into _fact, which this object keeps alive
        self.n = diag.size
        self._fact, info = _LAPACK.factor(lower, diag, upper)
        if info != 0:
            raise RuntimeError(f"tridiagonal factorization failed (info={info})")
        self._solve = _LAPACK.solver(self._fact, self.n)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Overwrite ``rhs`` with the solution and return it."""
        _check_rhs(rhs, self.n)
        info = self._solve(rhs)
        if info != 0:  # pragma: no cover
            raise RuntimeError(f"tridiagonal solve failed (info={info})")
        return rhs

    def call(self, fn, u: np.ndarray) -> None:
        """Run ``fn(u)`` now; see :meth:`_SplitLU.call`."""
        fn(u)

    def wait(self) -> None:
        """Nothing runs elsewhere; see :meth:`_SplitLU.wait`."""

    def close(self) -> None:
        """Nothing to release; see :meth:`_SplitLU.close`."""


# Each half of a split solve reaches K rows past the cut, with rho^K <= 2^-106.
_OVERLAP_BITS = 106
# The whole solve below this n: a step at n = 1501 measured no faster split,
# at n = 3001 15 % faster.
_SPLIT_MIN_N = 3000
# Bytes of the pipes between a stepper and its helper process.
_GO, _CALL, _QUIT, _OK, _FAILED = b"g", b"c", b"q", b"k", b"f"
# Room for a pickled call or exception in the memory shared with the helper;
# pages that are never touched take no memory.
_MESSAGE_BYTES = 1 << 20


def _overlap(lu: _TridiagLU) -> int | None:
    """The overlap K of a split at m = n // 2, from ``lu``'s factors, or None
    where the whole solve is kept: K > n/4, or a row swap within K of m.

    rho bounds the per-row decay of an error in the forward (|dl|) and back
    (|du/d|) substitutions over the rows within n/4 of the cut.
    """
    dl, d, du, _, ipiv = lu._fact
    n, m = lu.n, lu.n // 2
    near = slice(m - n // 4, m + n // 4)
    rho = max(np.abs(dl[near]).max(), np.abs(du[near] / d[near]).max())
    if rho >= 1.0:
        return None
    k = math.ceil(_OVERLAP_BITS * math.log(2.0) / -math.log(rho))
    # ipiv is 1-based; row i kept its place when ipiv[i] == i + 1
    if k > n // 4 or np.any(ipiv[m - k : m + k] != np.arange(m - k + 1, m + k + 1)):
        return None
    return k


class _SplitLU:
    """``whole``'s solve with a helper process on a second CPU, which solves the
    right half of a step's system whenever it is free and runs the calls
    handed to it (:meth:`call`) on a copy of u.

    With an overlap ``k``, the rows [0, m+K) are solved in place with
    ``whole``'s leading factors, and the rows [m-K, n) by the helper, which
    factors its system itself, in a shared buffer; the solution is the left
    system's rows below m and the right system's from m on, and the rows
    m-1 .. m+1, which both solved, must agree to the bit.  A step solves whole
    while the helper runs a call, and with ``k`` None always; such a helper
    only runs calls.  Each request and each answer is one byte on one of two
    pipes, and the rest goes through shared memory; both sides spin on their
    reads, yielding the CPU after each empty one, except a helper with
    nothing to split, which blocks.  :meth:`close` stops the helper and
    reaps it; if it is never called, a finalizer does the same.
    """

    def __init__(self, whole: _TridiagLU, lower, diag, upper, k: int | None):
        n, m = whole.n, whole.n // 2
        self.n, self.k, self._m, self._whole = n, k, m, whole
        self._busy = False  # a call is in flight
        # With no row swap near the cut, the left system's factors are the
        # first m+K rows of the whole's.
        self._solve_left = _LAPACK.solver(whole._fact, m + k) if k else None
        # Shared with the helper (an anonymous mmap is MAP_SHARED): a pickled
        # call or exception at the start; then n values that hold the right
        # system, and serve the stepper as scratch outside solve() instead of
        # a buffer of its own; then n for a call's copy of u.
        self._mm = mmap.mmap(-1, _MESSAGE_BYTES + 32 * n)
        shared = np.frombuffer(self._mm, np.complex128, 2 * n, offset=_MESSAGE_BYTES)
        self.buf, self._slot, self._right = shared[:n], shared[n:], shared[: n - m + (k or 0)]
        # This process keeps the go pipe's read end too, so that a request to
        # a helper that has exited is written all the same, and the read of
        # its answer meets EOF.
        go, self._go = os.pipe()
        self._done, done = os.pipe()
        os.set_blocking(go, k is None)
        os.set_blocking(self._done, False)
        # poll, not select, which cannot watch a descriptor above FD_SETSIZE
        self._answered = select.poll()
        self._answered.register(self._done, select.POLLIN)
        owner = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self._go)
                os.close(self._done)
                solve = None
                if k is not None:
                    # `right` stays referenced in this frame while _serve's
                    # solves write through raw pointers into it; a failed
                    # factorization fails every solve
                    right, info = _LAPACK.factor(lower[m - k :], diag[m - k :], upper[m - k :])
                    solve = _LAPACK.solver(right, n - m + k) if info == 0 else lambda b: info
                _serve(go, done, solve, self._right, self._slot, self._mm, owner)
            finally:
                os._exit(0)
        os.close(done)
        self._stop = weakref.finalize(self, _stop, self.pid, (self._go, go, self._done), owner)

    def _send(self, request: bytes) -> None:
        if not self._stop.alive:  # its pipes are closed, and their numbers free for reuse
            raise RuntimeError("the solve helper process was stopped by close()")
        os.write(self._go, request)

    def _answer(self) -> None:
        """Wait for the answer to the request in flight; a failed request's
        exception re-raises here."""
        while True:
            with contextlib.suppress(BlockingIOError):
                reply = os.read(self._done, 1)
                break
            os.sched_yield()  # to the helper, should it share this CPU
        self._busy = False
        if not reply:
            raise RuntimeError("the solve helper process has exited")
        if reply != _OK:
            self._mm.seek(0)
            raise pickle.load(self._mm)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Overwrite ``rhs`` with the solution and return it."""
        if self._busy and self._answered.poll(0):
            self._answer()
        if self._busy or self.k is None:
            return self._whole.solve(rhs)
        _check_rhs(rhs, self.n)
        m, k, buf = self._m, self.k, self._right
        buf[:] = rhs[m - k :]
        self._send(_GO)
        info = self._solve_left(rhs)
        self._answer()
        if info != 0:  # pragma: no cover
            raise RuntimeError(f"tridiagonal solve failed (info={info})")
        if rhs[m - 1 : m + 2].tobytes() != buf[k - 1 : k + 2].tobytes():
            raise FloatingPointError(f"the split solve's halves differ at row {m} (K = {k})")
        rhs[m:] = buf[k:]
        return rhs

    def call(self, fn, u: np.ndarray) -> None:
        """Have the helper run ``fn(u)`` on a copy of ``u`` while the caller goes
        on; ``fn`` must pickle.  First waits for the call before, if in flight."""
        self.wait()
        self._slot[: u.size] = u
        self._mm.seek(0)
        pickle.dump((fn, u.size), self._mm)
        self._send(_CALL)
        self._busy = True

    def wait(self) -> None:
        """Wait for the call in flight, if any; its exception re-raises here."""
        if self._busy:
            self._answer()

    def close(self) -> None:
        """Stop the helper and reap it, after the call in flight; idempotent."""
        self._busy = False
        self._stop()


def _serve(go: int, done: int, solve, right: np.ndarray, slot: np.ndarray,
           mm: mmap.mmap, owner: int) -> None:
    """The helper's loop: at a go byte solve ``right`` in place, at a call byte
    run the call pickled in ``mm`` on ``slot``, and answer each on ``done``, a
    failure with its exception pickled in ``mm``; return at a quit byte, at
    EOF (its stepper's process is gone) or when its parent is no longer
    ``owner``."""
    while True:
        try:
            command = os.read(go, 1)
        except BlockingIOError:
            # spin: a blocking read would wait for an idle CPU to wake up; the
            # yield gives the CPU to any other runnable process, so that runs
            # that share CPUs with their helpers do not starve one another
            if os.getppid() != owner:
                return
            os.sched_yield()
            continue
        if command not in (_GO, _CALL):
            return
        try:
            if command == _CALL:
                mm.seek(0)
                fn, size = pickle.load(mm)
                fn(slot[:size])
            elif solve(right) != 0:
                raise RuntimeError("factorization or solve failed in the solve helper process")
            os.write(done, _OK)
        except Exception as exc:  # one that does not pickle ends the helper
            mm.seek(0)
            pickle.dump(exc, mm)
            os.write(done, _FAILED)


def _stop(pid: int, fds: tuple[int, ...], owner: int) -> None:
    """Stop and reap the helper ``pid`` and close this process's pipe ends
    ``fds``, the first the one requests go to; a no-op in a process forked
    from ``owner``."""
    if os.getpid() != owner:
        return
    os.write(fds[0], _QUIT)
    for fd in fds:
        os.close(fd)
    with contextlib.suppress(ChildProcessError):  # reaped elsewhere (SIGCHLD ignored)
        os.waitpid(pid, 0)


def _factor(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, second_cpu: bool):
    """The LU a stepper solves with: with ``second_cpu``, one with a helper
    process, which splits the solve where that pays (:func:`_overlap`,
    ``_SPLIT_MIN_N``); else the whole one alone."""
    whole = _TridiagLU(lower, diag, upper)
    if not second_cpu:
        return whole
    return _SplitLU(whole, lower, diag, upper, _overlap(whole) if whole.n >= _SPLIT_MIN_N else None)


class Stepper:
    """Advances a :class:`FieldState` by dt on fixed potentials and boundary mode.

    ``splitting=None`` resolves automatically: Strang splitting is used exactly
    when the boundary is transparent and P is not identically zero.

    ``second_cpu=True`` forks a helper process for a second CPU.  It runs the
    calls handed to it by :meth:`call`, and between them it solves half of
    each step's system where the grid is large enough and the factors allow
    it (module docstring), spinning on its CPU between steps (yielding it to
    any other runnable process); a step solves whole while a call runs.
    :meth:`close` stops the helper.  ``driver.run`` sets ``second_cpu`` by
    its spare-CPU rule (``driver._spare_cpu``).

    Not reentrant: :meth:`step` works in scratch buffers owned by the instance,
    so one ``Stepper`` must not run two steps at once (use one per thread).
    """

    def __init__(
        self,
        grid: Grid,
        pp: PotentialPair,
        bc: BoundaryMode,
        splitting: bool | None = None,
        second_cpu: bool = False,
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

        a = 1.0 - 0.5j * dt * pp.v
        d = 1.0 + 0.5j * dt * pp.v
        c = 0.25 * dt * dt
        lo = np.full(n, -c / h**2, dtype=complex)  # row j, column j-1
        di = a * a + c * (2.0 / h**2 + p_in_block)
        up = np.full(n, -c / h**2, dtype=complex)  # row j, column j+1
        # right-hand-side operator: diagonal _rdi, both off-diagonals _roff
        self._roff = complex(c / h**2)
        self._rdi = a * d - c * (2.0 / h**2 + p_in_block)
        # the v update reads _a and _d; splitting folds its two half P-kicks
        # into them and into _rdi (module docstring)
        self._a, self._d = a, d
        if splitting:
            hp = 0.5 * dt * pp.p
            self._rdi = self._rdi - dt * hp
            self._a, self._d = a - 0.5 * dt * hp, d - 0.5 * dt * hp
            self._hp_ends = hp[0], hp[-1]
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

        self._lu = _factor(lo[1:], di, up[:-1], second_cpu)
        # scratch: _work holds one product at a time, none across the solve,
        # so a split solve's shared buffer serves
        self._work = self._lu.buf if isinstance(self._lu, _SplitLU) else np.empty(n, dtype=complex)

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

    def step(self, state: FieldState) -> FieldState:
        u, v, dt, h = state.u, state.v, self.grid.dt, self.grid.h
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
            if self.splitting:  # the trailing half P-kick, which these rows leave out
                vn[0] -= self._hp_ends[0] * un[0]
                vn[-1] -= self._hp_ends[1] * un[-1]
        return FieldState(u=un, v=vn, t=state.t + dt)

    def call(self, fn, u: np.ndarray) -> None:
        """Run ``fn(u)``: in the helper process, on a copy of ``u``, while
        stepping goes on, if ``second_cpu`` started one (``fn`` must then
        pickle), else here and now.  A call waits for the one before it; a
        failed one's exception re-raises in a later step, call or :meth:`wait`."""
        self._lu.call(fn, u)

    def wait(self) -> None:
        """Wait for the helper's call in flight, if any; its exception re-raises here."""
        self._lu.wait()

    def close(self) -> None:
        """Stop the helper process, if ``second_cpu`` started one, after its
        call in flight.  Idempotent; a stepper whose helper split its solves
        cannot step after it."""
        self._lu.close()
