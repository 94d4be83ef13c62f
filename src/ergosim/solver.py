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
one-way relation sets.

Stability requires the CFL ratio dt/h <= 1, enforced at grid construction.

One kernel takes every step, over a band of rows: the right-hand side's
rows, built in an array that the LAPACK solve overwrites with their U^{n+1},
then V^{n+1} on the rows the band keeps, formed in place in its output, and
every other intermediate in scratch buffers the :class:`Stepper` allocates
once.  A whole step is the band of all rows.  The operations and their order
are those of the expressions above, so results are bit-identical to
evaluating them with temporaries.  Without a helper that splits, a step
allocates only its two outputs, which alias neither its input nor the
scratch buffers, so callers may keep old states; the scratch makes a
``Stepper`` non-reentrant (one step at a time per instance).

LAPACK's zgttrf/zgttrs come from the OpenBLAS that numpy's wheels bundle,
called through ctypes, so a run does not import scipy; with a numpy built
without it (conda, system packages) they come from scipy.linalg.lapack.

With ``second_cpu``, a helper process, forked at the first request it is
sent, runs on a second CPU.  It knows nothing of the scheme: it runs the
calls handed to it (a snapshot file's write, say) on a copy of u, and the
half steps that its :class:`Stepper` sends it.  The stepper alone decides
how a step is split, the partition method of Wang 1981 (ACM TOMS 7): the
solve of rows [lo, hi) becomes two overlapping systems, rows [lo, c+K) and
[c-K, hi) of the matrix, cut at c, each solved alone.  u and v then live in
two ping-pong pairs in memory shared with the helper; a step reads pair p
and writes pair 1 - p.  The stepper builds the right-hand side's rows
[lo, c+K) in a scratch array of its own, solves them with the whole
matrix's factors at offset lo (below) and writes the rows [lo, c) of u and
v; the helper builds the rows [c-K, hi) in shared memory, solves them with
the whole matrix's factors at offset c-K, and writes the rows [c, hi).
Each reads the K+1 values of u (K of v) past the cut that it needs straight
from pair p.  So a run factors its matrix once, before the fork, and the
helper factors nothing.  The helper sees the stepper as it was at the fork,
so the window (lo, hi) is all that the stepper shares about a split: it
writes the window into the shared memory when it grows, and each process
builds the window's plan, both halves of a step from either pair, the
first time that it steps that window.  A step from a state that is not
one of the pairs (the first one, a caller's) is taken whole, into a pair.

A step from a pair solves only the rows of a window [lo, hi), the rows that
the field occupies; every other row of both pairs holds +0.  The field
spreads by a factor |dl| or |du/d| per row per step (below), so some
hundreds of rows past its support its values underflow to an exact +0, and
an incoming packet's first steps leave most of the grid at +0.  The window's
rows are solved in place in pair 1 - p's u with the whole matrix's factors
at offset lo (pivots ipiv - lo), no factorization of their own.  That is the
whole step to the bit when (1) the input is +0 outside the window and in its
first and last _GUARD rows, and (2) the output's rows lo and hi - 1 come out
+0 in u and in v: then the whole solve's forward substitution meets only +0
below lo, its back substitution only +0 from hi on, and every row outside
the window comes out as from an all-+0 state.  The window is monotone and
grows by whole chunks of _CHUNK rows: over the rows where a whole step into
a pair (the first step, a caller's state) outputs anything but +0, a chunk
to spare on each side; by a chunk where a windowed step's output is not +0
within _GUARD rows of an edge; and to a boundary that it comes within a
chunk of.  Rows where a step from all-+0 data outputs anything but +0 (the
transparent right end's closure leaves -0 parts in its last two rows) are
in it from the first step on: unless the field is near them, that step
outputs those parts there.  A step that fails (2) is taken again whole, and
the window grows over its output; so is a split step whose halves differ
(below).  A window is split at its middle, c = (lo + hi) // 2 (c = m =
n // 2 for all rows), where it has at least _SPLIT_MIN_N rows, and so more
than K on each side of c, and the helper is free; otherwise this process
steps it alone, which leaves the helper free to write snapshots.  The window
of all rows is a window like any other.  Where zgttrf swapped a row in
[_CHUNK - 2, n - _CHUNK), which a window's edge or a split's overlap could
cut, the stepper neither splits nor windows.

Cutting a system at row c+K changes the back substitution's value there by
|du/d| |x_{c+K}|, and each row above shrinks the change by |du/d| again;
starting the right half's forward substitution at row c-K, with the whole
matrix's factors from that row on, drops the carry from the rows above it,
a change that each row below shrinks by |dl|.  So with rho the largest of
|dl| and |du/d| over the rows that a cut's overlap can reach, the halves
differ from the whole solve at row c by at most about rho^K of the
solution's size near c+K or c-K (the decay of the inverse's entries, Demko,
Moss and Smith 1984, Math. Comp. 43).  K = ceil(106 ln 2 / -ln rho) makes
rho^K <= 2^-106, far below half an ulp.  On the presets' and the
benchmark's dt = h grids, rho is that of the potential-free matrix,
3 - 2 sqrt(2) = 0.1716, and K = 42.  The split is kept off when K > n/4,
or K > 1244, which keeps every overlap out of the first and last _CHUNK
rows; when zgttrf swapped a row in [_CHUNK - 2, n - _CHUNK) (on the presets
it swaps only row n - 2, the transparent right end's); and below n = 3000,
where it measured no faster.  The bound is on size, not on bits: it is relative to
|x| near the overlap's ends, and a steep front inside the overlap
(|x_{c+K}| / |x_c| above 2^53, say) carries the cut's error into the last
bit at c.  Measured on rn-wavepacket to T = 1000, the halves differed at 1
of 12500 steps at h = 0.08 and at 311 of 6250 at h = 0.16 while every cut
was at m, and at none of either since windows are cut at their middle.  So
every split solve checks the bits it can: the rows c-1 .. c+1, which both
halves solve, must agree exactly, or the step is taken again whole, from
the pair it read, and counted in ``Stepper.retaken_steps``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import os
import pickle
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

    @functools.cached_property
    def n(self) -> int:
        # not a field: config._write echoes the fields into config.ini
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
    and raises RuntimeError if zgttrs fails; it keeps ``fact`` alive.
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

        def solve(b: np.ndarray) -> None:
            trs(*head, b.ctypes.data, n, info, 1)
            if info.value != 0:  # pragma: no cover
                raise RuntimeError(f"tridiagonal solve failed (info={info.value})")

        solve.factors = fact  # head points into these arrays: alive as long as it is
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

        def solve(b: np.ndarray) -> None:
            # overwrite_b: a contiguous complex128 b is solved in place
            info = trs(*head, b[:n], overwrite_b=1)[1]
            if info != 0:  # pragma: no cover
                raise RuntimeError(f"tridiagonal solve failed (info={info})")

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
        self._solve(rhs)
        return rhs


# Each half of a split solve reaches K rows past the cut, with rho^K <= 2^-106.
_OVERLAP_BITS = 106
# The whole solve below this n: a step at n = 1501 measured no faster split,
# at n = 3001 15 % faster.
_SPLIT_MIN_N = 3000
# A pair step's window of rows grows by whole chunks; a value that is not +0
# within _GUARD rows of its edge widens it before the next step.  Measured on
# rn-wavepacket, every step stood for margins down to 50 rows.
_CHUNK = 256
_GUARD = 8
# Bytes of the pipes between a stepper and its helper process: a step from
# pair 0 or 1, a call, quit, and the answers.
_STEPS, _CALL, _QUIT, _OK, _FAILED = (b"0", b"1"), b"c", b"q", b"k", b"f"
# Room for a pickled call or exception in the memory shared with the helper;
# pages that are never touched take no memory.
_MESSAGE_BYTES = 1 << 20


def _overlap(lu: _TridiagLU) -> int | None:
    """The overlap K of a split, from ``lu``'s factors, or None where the
    whole solve is kept, with no split and no window: K > n/4 or
    K > _SPLIT_MIN_N/2 - _CHUNK, or a row swap in [_CHUNK - 2, n - _CHUNK),
    where a window's edge or a split's overlap could cut it.

    rho bounds the per-row decay of an error in the forward (|dl|) and back
    (|du/d|) substitutions over the rows [_CHUNK, n - _CHUNK), which hold
    every split's overlap: a window that splits has at least _SPLIT_MIN_N/2
    rows on each side of its cut.
    """
    (dl, d, du, _, ipiv), n = lu._fact, lu.n
    rho, top = 0.0, n - _CHUNK
    # 4096 rows at a time: temporaries of all n rows raised the peak RSS of
    # the benchmark's black-hole runs (n = 20001, 25001) by 0.15-0.28 MB
    for j in range(_CHUNK, top, 4096):
        e = min(j + 4096, top)
        rho = max(rho, np.abs(dl[j - 1 : e - 1]).max(), np.abs(du[j:e] / d[j:e]).max())  # dl[j-1] is row j's
    if rho >= 1.0:
        return None
    k = math.ceil(_OVERLAP_BITS * math.log(2.0) / -math.log(rho))
    if k > min(n // 4, _SPLIT_MIN_N // 2 - _CHUNK) or _swapped(ipiv, _CHUNK - 2, top):
        return None
    return k


def _swapped(ipiv: np.ndarray, lo: int, hi: int) -> bool:
    """Whether zgttrf swapped a row in [lo, hi): it sets ipiv[i] (1-based) to
    i + 1 or, after a swap, i + 2, so the sum exceeds that of i + 1 exactly
    when it swapped one (and needs no array of its own)."""
    return int(ipiv[lo:hi].sum()) != (lo + 1 + hi) * (hi - lo) // 2


def _offset(fact: tuple, lo: int) -> tuple:
    """zgttrf's factors ``fact`` of a whole matrix, as those of its rows from
    ``lo`` on: solving the rows [lo, hi) with them is the whole solve cut to
    those rows (the window of :class:`Stepper`)."""
    if not lo:
        return fact
    dl, d, du, du2, ipiv = fact
    return dl[lo:], d[lo:], du[lo:], du2[lo:], ipiv[lo:] - lo


class _Helper:
    """A process on a second CPU that runs what it is sent, forked at the
    first request, so that a helper that is sent none forks nothing.

    A call (:meth:`call`) runs a pickled function on a copy of u, which goes
    through a slot of ``n`` values in memory shared with the helper.  A step
    (:meth:`go`) runs ``step(p)`` in the helper, and :meth:`join` waits for
    it.  ``shared``, ``size`` more complex values in that memory, are for the
    steps and their sender; the helper reads none of them itself.  ``step``
    must reach its sender through a weak reference, or the two would stay in
    a cycle until the garbage collector runs.  Each request and each answer
    is one byte on one of two pipes, and the rest goes through shared
    memory.  Both sides read with non-blocking reads and spin on them,
    yielding the CPU after each empty one, except a helper without
    ``step``, which blocks.
    :meth:`close` stops the helper and reaps it; if it is never called, a
    finalizer does the same.
    """

    def __init__(self, n: int, size: int = 0, step=None):
        self.pid = None  # until the helper is forked
        self._step = step
        self._busy = False  # a call is in flight
        self._closed = False
        # Shared with the helper (an anonymous mmap is MAP_SHARED): a pickled
        # call or exception at the start, then the call's slot, then ``shared``.
        self._mm = mmap.mmap(-1, _MESSAGE_BYTES + 16 * (n + size))
        values = np.frombuffer(self._mm, np.complex128, n + size, offset=_MESSAGE_BYTES)
        self._slot, self.shared = values[:n], values[n:]

    def _start(self) -> None:
        """Fork the helper."""
        # This process keeps the go pipe's read end too, so that a request to
        # a helper that has exited is written all the same, and the read of
        # its answer meets EOF.
        go, self._go = os.pipe()
        self._done, done = os.pipe()
        os.set_blocking(go, self._step is None)
        os.set_blocking(self._done, False)
        owner = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self._go)
                os.close(self._done)
                _serve(go, done, self._step, self._slot, self._mm, owner)
            finally:
                os._exit(0)
        os.close(done)
        self._stop = weakref.finalize(self, _stop, self.pid, (self._go, go, self._done), owner)

    def _send(self, request: bytes) -> None:
        if self._closed:  # its pipes are closed, and their numbers free for reuse
            raise RuntimeError("the solve helper process was stopped by close()")
        if self.pid is None:
            self._start()
        os.write(self._go, request)

    def _answer(self, wait: bool = True) -> bool:
        """Take the answer to the request in flight, waiting for it unless not
        ``wait``; whether there was one.  A failed request's exception
        re-raises here."""
        while True:
            with contextlib.suppress(BlockingIOError):
                reply = os.read(self._done, 1)
                break
            if not wait:
                return False
            os.sched_yield()  # to the helper, should it share this CPU
        self._busy = False
        if not reply:
            raise RuntimeError("the solve helper process has exited")
        if reply != _OK:
            self._mm.seek(0)
            raise pickle.load(self._mm)
        return True

    def go(self, p: int) -> bool:
        """Start ``step(p)`` in the helper, unless it runs a call; whether it started."""
        if self._busy and not self._answer(wait=False):
            return False
        self._send(_STEPS[p])
        return True

    def join(self) -> None:
        """Wait for the step that :meth:`go` started; its exception re-raises here."""
        self._answer()

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
        self._closed = True
        if self.pid is not None:
            self._stop()


def _serve(go: int, done: int, step, slot: np.ndarray, mm: mmap.mmap, owner: int) -> None:
    """The helper's loop: at a step byte run ``step(p)`` for its pair p, at a
    call byte run the call pickled in ``mm`` on ``slot``, and answer each on
    ``done``, a failure with its exception pickled in ``mm``; return at a
    quit byte, at EOF (its stepper's process is gone) or when its parent is
    no longer ``owner``."""
    while True:
        try:
            command = os.read(go, 1)
        except BlockingIOError:
            # spin: blocking reads on both pipes measured slower, split steps
            # on rn-highenergy omega = 100 (n = 20001) taking 384-420 us
            # against 340-365 us spinning (medians, three alternations, 2
            # CPUs); the yield gives the CPU to any other runnable process,
            # so that runs that share CPUs with their helpers do not starve
            # one another
            if os.getppid() != owner:
                return
            os.sched_yield()
            continue
        if command not in (_CALL, *_STEPS):
            return
        try:
            if command == _CALL:
                mm.seek(0)
                fn, size = pickle.load(mm)
                fn(slot[:size])
            else:
                step(_STEPS.index(command))
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


class Stepper:
    """Advances a :class:`FieldState` by dt on fixed potentials and boundary mode.

    ``splitting=None`` resolves automatically: Strang splitting is used exactly
    when the boundary is transparent and P is not identically zero.

    ``second_cpu=True`` gives the stepper a helper process for a second CPU,
    forked at the first request the stepper sends it.  It runs the calls
    handed to it by :meth:`call`.  Where the grid is large enough and the
    factors allow it (module docstring), this stepper splits each step: it
    chooses the overlap K, lays out the shared pairs and the right-hand side
    of the helper's rows in the helper's shared memory, and sends the helper
    the rows [c, hi) of each step while this process steps the rows [lo, c)
    and checks the rows that both solved, spinning on its CPU between
    steps (yielding it to any other runnable process); a step is taken unsplit
    while a call runs.  Both halves solve with this stepper's one
    factorization of the whole matrix, the helper's at an offset, so the
    helper factors nothing.  :meth:`close` stops the helper.
    ``driver.run`` sets ``second_cpu`` by its spare-CPU rule
    (``driver._spare_cpu``).

    Such a stepper steps on from its own states over a window of the rows
    that the field occupies, every other row being +0 (module docstring):
    split at the window's middle, where it has _SPLIT_MIN_N rows, else by
    this process alone.  A windowed step is the whole step to the bit where
    its output is +0 at the window's edges; one that is not, and a split
    step whose halves differ, is taken again whole.
    ``windowed_steps`` counts the steps whose result came from a window of
    fewer than all rows, ``split_steps`` those whose result came from a
    split solve, and ``retaken_steps`` those taken again; a lone stepper's
    stay 0.

    :meth:`step` never writes its input.  Without a helper that splits, it
    returns fresh arrays.  With one, it returns one of two (u, v) pairs in
    memory shared with the helper, which later steps overwrite: stepping on
    from the returned state, the step after next.  Stepping on from such a
    state reads it only inside the window, so a caller who writes one must
    pass copies.  A state that is not one of the pairs (the first step's,
    a caller's) is read as given and stepped whole, into a pair that it
    does not overlap, or into fresh arrays if it overlaps both.  Copy what
    you keep.

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

        lu = self._lu = _TridiagLU(lo[1:], di, up[:-1])
        k = self._k = _overlap(lu) if second_cpu and n >= _SPLIT_MIN_N else None
        # scratch: _work holds one product at a time, and the helper process
        # its own copy of it.  A split's half, rows [lo, c+K), at most m+K,
        # is solved past the first m+K+2 values, which are all that its
        # band's products use: so a split touches no scratch that a whole
        # step does not.
        scratch = np.empty(n if k is None else 2 * (n // 2 + k + 1), dtype=complex)
        self._work = scratch[:n]
        self._shifts = self._work[:-1], self._work[1:]
        self._pairs = None
        self._windowed = self._retaken = self._split = 0
        if k is None:  # a helper, if any, that only runs calls
            self._helper = _Helper(n) if second_cpu else None
            return
        m = n // 2
        # Shared with the helper: the right system's values, at most n-m+K
        # of them (hi-c+K), the pairs, then the window (lo, hi) as two
        # 64-bit words.  The helper's step reaches this stepper through a
        # weak reference: a closure over self would hold the two in a cycle,
        # which only the garbage collector frees.
        ref = weakref.ref(self)

        def right(p: int) -> None:  # the helper's half of a split step from pair p
            s = ref()
            s._advance(*s._plan(p, tuple(s._shared_window.tolist()))[1])

        self._helper = _Helper(n, 5 * n - m + k + 1, right)
        shared = self._helper.shared
        self._right = shared[: n - m + k]
        block = shared[n - m + k : -1].reshape(2, 2, n)
        self._shared_window = shared[-1:].view(np.int64)
        self._pairs = tuple((block[p, 0], block[p, 1]) for p in (0, 1))
        # each pair's u and v as 64-bit words, two a row: a word is 0 where +0
        self._bits = block.view(np.uint64)
        self._left = scratch[m + k + 2 :]
        # the rows a pair step solves, none until a whole step writes a pair,
        # and the plans of the window they were last built for
        self._window, self._plans = (n, 0), (None, None)

    def _band(self, lo: int, hi: int, keep: tuple[int, int], src, dst, r=None) -> tuple:
        """What :meth:`_advance` works on to step the rows [lo, hi) of the
        system from the pair ``src``: ``r`` takes their right-hand side and
        solution, whose rows ``keep`` = (k0, k1) go to the pair ``dst`` as
        u's next values, with v's beside them.  Without ``r``, dst's u takes
        them itself, and ``keep`` is (lo, hi)."""
        n, w = self.grid.n, self._work
        (u, v), (un, vn), (k0, k1) = src, dst, keep
        un = un[k0:k1]
        if r is None:
            r, un = un, None
        s0, s1 = max(lo - 1, 0), min(hi + 1, n)  # the values of u the rows read
        b0, a1 = max(lo, 1), min(hi, n - 1)  # the rows from which u[j-1], up to which u[j+1], is read
        near = w[: s1 - s0]
        return (self._rdi[lo:hi], u[lo:hi], v[lo:hi], w[: hi - lo], u[s0:s1], near,
                r, r[b0 - lo :], near[b0 - 1 - s0 : hi - 1 - s0], r[: a1 - lo],
                near[lo + 1 - s0 : a1 + 1 - s0], lo == 0, hi == n,
                r[k0 - lo : k1 - lo], u[k0:k1], v[k0:k1], w[: k1 - k0],
                self._a[k0:k1], self._d[k0:k1], vn[k0:k1], un)

    def _whole_band(self, u, v, un, vn) -> tuple:
        """:meth:`_band` of all the rows, from (u, v) to (un, vn), with the
        right-hand side solved in ``un`` itself; built for every whole step,
        without slicing u or v."""
        w, (below, above) = self._work, self._shifts
        return (self._rdi, u, v, w, u, w, un, un[1:], below, un[:-1], above, True, True,
                un, u, v, w, self._a, self._d, vn, None)

    def _advance(self, band: tuple, solve) -> None:
        """The step's kernel over the rows of ``band`` (:meth:`_band`): their
        right-hand side, its solve in place by ``solve``, and the kept rows
        of v's next values and, where the band has a pair's u of its own, u's."""
        (rdi, u_rows, v_rows, w_rows, u_near, w_near, r, r_below, w_below, r_above, w_above,
         first, last, r_kept, u_kept, v_kept, w_kept, a, d, vn, un) = band
        dt, h = self.grid.dt, self.grid.h
        dirichlet = self.bc is BoundaryMode.DIRICHLET
        np.multiply(rdi, u_rows, out=r)
        np.add(r, np.multiply(dt, v_rows, out=w_rows), out=r)
        np.multiply(self._roff, u_near, out=w_near)  # one product serves both off-diagonals
        r_below += w_below  # + roff u[j-1]
        r_above += w_above  # + roff u[j+1]
        if first:
            r[0] = 0.0 if dirichlet else self._rb0 * u_rows[0] + self._rb1 * u_rows[1]
        if last:
            r[-1] = 0.0 if dirichlet else self._rbn * u_rows[-1] + self._rb1 * u_rows[-2]
        solve(r)
        # vn = (2/dt)(a un - d u) - v in this grouping; folding 2/dt into a
        # and d would change the last bits of every output
        np.multiply(a, r_kept, out=vn)
        np.subtract(vn, np.multiply(d, u_kept, out=w_kept), out=vn)
        np.multiply(2.0 / dt, vn, out=vn)
        np.subtract(vn, v_kept, out=vn)
        if dirichlet:
            if first:
                vn[0] = 0.0
            if last:
                vn[-1] = 0.0
        else:  # one-way relation v = ±∂x u at the boundary nodes
            if first:
                vn[0] = (r[1] - r[0]) / h
                if self.splitting:  # the trailing half P-kick, which these rows leave out
                    vn[0] -= self._hp_ends[0] * r[0]
            if last:
                vn[-1] = -(r[-1] - r[-2]) / h
                if self.splitting:
                    vn[-1] -= self._hp_ends[1] * r[-1]
        if un is not None:
            un[...] = r_kept

    @property
    def windowed_steps(self) -> int:
        """Steps whose result came from a window of fewer than all rows."""
        return self._windowed

    @property
    def retaken_steps(self) -> int:
        """Steps taken again whole after a failed check."""
        return self._retaken

    @property
    def split_steps(self) -> int:
        """Steps whose result came from a split solve, half of it the helper's."""
        return self._split

    def step(self, state: FieldState) -> FieldState:
        u, v, t, pairs = state.u, state.v, state.t + self.grid.dt, self._pairs
        q = None  # the pair this step writes
        if pairs is not None:
            if u is pairs[0][0] and v is pairs[0][1]:
                q = 1
            elif u is pairs[1][0] and v is pairs[1][1]:
                q = 0
            if q is not None:
                self._pair_step(1 - q)
                return FieldState(u=pairs[q][0], v=pairs[q][1], t=t)
            # not a pair: stepped into one that it does not overlap
            q = next((q for q in (0, 1) if not _overlaps(state, pairs[q])), None)
        if q is None:
            un, vn = np.empty(self.grid.n, dtype=complex), np.empty(self.grid.n, dtype=complex)
        else:
            un, vn = pairs[q]
        self._advance(self._whole_band(u, v, un, vn), self._lu.solve)
        if q is not None:
            self._cover(q)
        return FieldState(u=un, v=vn, t=t)

    def _pair_step(self, p: int) -> None:
        """Step pair p into pair 1 - p over the window (module docstring):
        split where :meth:`_plan` allows it and the helper is free, else
        alone, and taken again whole where a check fails."""
        q, (lo, hi) = 1 - p, self._window
        if lo >= hi:  # no whole step wrote a row that is not +0: pair q is the step
            self._windowed += 1
            return
        left, _, seam, alone = self._plan(p, self._window)
        halves = left is not None and self._helper.go(p)
        if halves:
            self._advance(*left)
            self._helper.join()
            stood = seam[0].tobytes() == seam[1].tobytes()
        else:
            self._advance(*alone)
            stood = True
        stood = stood and self._edges(q)
        self._windowed += stood and hi - lo < self.grid.n
        self._split += halves and stood
        if not stood:
            self._retaken += 1
            self._advance(self._whole_band(*self._pairs[p], *self._pairs[q]), self._lu.solve)
            self._cover(q)

    def _plan(self, p: int, window: tuple[int, int]) -> tuple:
        """How a step from pair p solves the rows [lo, hi) of ``window``:
        (left, right, seam, alone), left, right and alone :meth:`_advance`'s
        arguments, left and right None where it may not split.  Alone, this
        process solves every row in place in pair 1 - p's u, with the whole
        matrix's factors at offset lo.  Split at c = (lo + hi) // 2, this
        process solves the rows [lo, c+K) (left), with the factors at offset
        lo, and the helper the rows [c-K, hi) (right), at offset c-K, which
        they may where the window has _SPLIT_MIN_N rows: then it has more
        than K (at most _SPLIT_MIN_N/2 - _CHUNK, :func:`_overlap`) on each
        side of c.  seam holds the rows c-1 .. c+1 of both halves.  Built
        for both pairs at once, in whichever process asks, and kept for one
        window."""
        if self._plans[0] != window:
            (lo, hi), k, pairs = window, self._k, self._pairs
            c, fact = (lo + hi) // 2, _offset(self._lu._fact, lo)
            alone, split = _LAPACK.solver(fact, hi - lo), hi - lo >= _SPLIT_MIN_N
            if split:
                left, right = self._left[: c + k - lo], self._right[: hi - c + k]
                solves = (_LAPACK.solver(fact, c + k - lo),
                          _LAPACK.solver(_offset(self._lu._fact, c - k), hi - c + k))
                seam = left[c - 1 - lo : c + 2 - lo], right[k - 1 : k + 2]
            plans = []
            for src, dst in (pairs, pairs[::-1]):
                halves = None, None, None
                if split:
                    halves = ((self._band(lo, c + k, (lo, c), src, dst, left), solves[0]),
                              (self._band(c - k, hi, (c, hi), src, dst, right), solves[1]), seam)
                plans.append((*halves, (self._band(lo, hi, (lo, hi), src, dst), alone)))
            self._plans = window, plans
        return self._plans[1][p]

    def _edges(self, q: int) -> bool:
        """Whether pair q's rows at the window's edges came out +0, as those
        of a windowed step must to be the whole step's; widens the window
        where a value that is not +0 lies within _GUARD rows of an edge."""
        (lo, hi), bits, n = self._window, self._bits[q], self.grid.n
        stood, lo_, hi_ = True, lo, hi
        if lo and bits[:, 2 * lo : 2 * (lo + _GUARD)].any():
            stood, lo_ = not bits[:, 2 * lo : 2 * lo + 2].any(), lo - _CHUNK
        if hi < n and bits[:, 2 * (hi - _GUARD) : 2 * hi].any():
            stood, hi_ = stood and not bits[:, 2 * hi - 2 : 2 * hi].any(), hi + _CHUNK
        self._grow(lo_, hi_)
        return stood

    def _cover(self, q: int) -> None:
        """Widen the window over the rows where pair q is not +0, and a chunk
        to spare on each side."""
        live = self._bits[q].any(axis=0)  # of u or v; words 2j and 2j + 1 are row j
        if live.any():
            first, last = int(live.argmax()) // 2, (live.size - 1 - int(live[::-1].argmax())) // 2
            self._grow(first - _CHUNK, last + 1 + _CHUNK)

    def _grow(self, lo: int, hi: int) -> None:
        """Widen the window over the rows [lo, hi), in whole chunks, and to a
        boundary that it comes within a chunk of; the helper reads it from
        the memory they share."""
        n, c = self.grid.n, _CHUNK
        lo, hi = min(self._window[0], lo // c * c), max(self._window[1], -(-hi // c) * c)
        window = (0 if lo < c else lo, n if hi > n - c else hi)
        if window != self._window:
            self._window = self._shared_window[:] = window

    def call(self, fn, u: np.ndarray) -> None:
        """Run ``fn(u)``: in the helper process, on a copy of ``u``, while
        stepping goes on, if ``second_cpu`` granted one (``fn`` must then
        pickle), else here and now.  A call waits for the one before it; a
        failed one's exception re-raises in a later step, call or :meth:`wait`."""
        if self._helper is None:
            fn(u)
        else:
            self._helper.call(fn, u)

    def wait(self) -> None:
        """Wait for the helper's call in flight, if any; its exception re-raises here."""
        if self._helper is not None:
            self._helper.wait()

    def close(self) -> None:
        """Stop the helper process, if one was started, after its call in
        flight.  Idempotent; a stepper whose helper splits its steps cannot
        step on from its own pairs after it."""
        if self._helper is not None:
            self._helper.close()


def _overlaps(state: FieldState, pair) -> bool:
    return any(np.may_share_memory(a, b) for a in (state.u, state.v) for b in pair)
