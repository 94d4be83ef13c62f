"""Time integrator: scheme accuracy, boundary closures, splitting, linearity."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import zgttrs
from scipy.special import erf

from ergosim import solver
from ergosim.potentials import ToyParams, rn_potentials, toy_potentials, uniform_potentials
from ergosim.presets import REFERENCE_FIELD, REFERENCE_HOLE
from ergosim.solver import BoundaryMode, FieldState, Grid, Stepper


def make_state(x, u, v):
    return FieldState(u=np.asarray(u, dtype=complex), v=np.asarray(v, dtype=complex), t=0.0)


def exact_constant_v(x, t, v_const, u0_fn, v0_integral_fn, u0_args=()):
    """d'Alembert solution of (dt - iV)^2 phi - dxx phi = 0 for constant V.

    phi = e^{iVt} psi with psi(0) = u0, dt psi(0) = v0;
    psi(t,x) = (u0(x-t) + u0(x+t))/2 + (V0int(x+t) - V0int(x-t))/2.
    """
    psi = 0.5 * (u0_fn(x - t, *u0_args) + u0_fn(x + t, *u0_args))
    psi = psi + 0.5 * (v0_integral_fn(x + t) - v0_integral_fn(x - t))
    return np.exp(1j * v_const * t) * psi


class TestGrid:
    def test_cfl_enforced(self):
        with pytest.raises(ValueError):
            Grid(x_min=0.0, x_max=1.0, h=0.01, dt=0.02)
        Grid(x_min=0.0, x_max=1.0, h=0.01, dt=0.01)  # ratio exactly 1 is allowed

    def test_node_count(self):
        g = Grid(x_min=-5.0, x_max=5.0, h=0.04, dt=0.04)
        assert g.n == 251
        assert g.x[0] == -5.0
        assert g.x[-1] == pytest.approx(5.0, abs=1e-12)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid(x_min=0.0, x_max=-1.0, h=0.1, dt=0.1)
        with pytest.raises(ValueError):
            Grid(x_min=0.0, x_max=1.0, h=-0.1, dt=0.1)

    def test_span_must_be_whole_cells(self):
        with pytest.raises(ValueError, match="not an integer"):
            Grid(x_min=0.0, x_max=1.05, h=0.1, dt=0.1)
        g = Grid(x_min=0.0, x_max=0.3, h=0.1, dt=0.1)  # 0.3/0.1 = 2.9999999999999996
        assert g.n == 4


class TestFreeTransport:
    def test_left_mover_translates(self):
        # incoming zero-frequency packet moves at speed -1
        g = Grid(x_min=-5.0, x_max=5.0, h=0.04, dt=0.04)
        pp = uniform_potentials(0.0, 0.0, g.x)
        u = np.exp(-g.x**2).astype(complex)
        state = make_state(g.x, u, -2.0 * g.x * u)
        stepper = Stepper(g, pp, BoundaryMode.TRANSPARENT)
        for _ in range(int(round(3.0 / g.dt))):
            state = stepper.step(state)
        exact = np.exp(-((g.x + 3.0) ** 2))
        assert np.abs(state.u - exact).max() < 5e-3

    def test_transparent_lets_wave_leave(self):
        g = Grid(x_min=-5.0, x_max=5.0, h=0.04, dt=0.04)
        pp = uniform_potentials(0.0, 0.0, g.x)
        u = np.exp(-g.x**2).astype(complex)
        state = make_state(g.x, u, -2.0 * g.x * u)
        stepper = Stepper(g, pp, BoundaryMode.TRANSPARENT)
        for _ in range(int(round(10.0 / g.dt))):
            state = stepper.step(state)
        # post-exit residual below 1% of the initial peak
        assert np.abs(state.u).max() < 1e-2

    def test_right_moving_exit(self):
        # at V = 0 the right closure is dt phi + dx phi = 0: right-movers leave
        g = Grid(x_min=-5.0, x_max=5.0, h=0.04, dt=0.04)
        pp = uniform_potentials(0.0, 0.0, g.x)
        u = np.exp(-g.x**2).astype(complex)
        state = make_state(g.x, u, +2.0 * g.x * u)
        stepper = Stepper(g, pp, BoundaryMode.TRANSPARENT)
        for _ in range(int(round(10.0 / g.dt))):
            state = stepper.step(state)
        assert np.abs(state.u).max() < 1e-2

    def test_dirichlet_reflects(self):
        g = Grid(x_min=-5.0, x_max=5.0, h=0.04, dt=0.04)
        pp = uniform_potentials(0.0, 0.0, g.x)
        u = np.exp(-g.x**2).astype(complex)
        state = make_state(g.x, u, -2.0 * g.x * u)
        stepper = Stepper(g, pp, BoundaryMode.DIRICHLET)
        for _ in range(int(round(10.0 / g.dt))):
            state = stepper.step(state)
        # the packet bounced off the left wall and came back with O(1) amplitude
        assert np.abs(state.u).max() > 0.5

    def test_zero_state_stays_zero(self):
        g = Grid(x_min=-5.0, x_max=5.0, h=0.1, dt=0.1)
        pp = uniform_potentials(0.7, 0.3, g.x)
        state = make_state(g.x, np.zeros(g.n), np.zeros(g.n))
        for bc in (BoundaryMode.TRANSPARENT, BoundaryMode.DIRICHLET):
            out = Stepper(g, pp, bc).step(state)
            assert np.all(out.u == 0.0) and np.all(out.v == 0.0)


class TestConsistency:
    def test_single_step_is_third_order_locally(self):
        # oracle: closed-form constant-V propagator (d'Alembert + phase)
        v_const = 0.8

        def u0(x):
            return np.exp(-(x**2))

        def v0_integral(x):
            # integral of v0(s) = exp(-(s-1)^2) from 0 to x
            return 0.5 * np.sqrt(np.pi) * (erf(x - 1.0) + erf(1.0))

        errs = []
        for h in (0.02, 0.01):
            g = Grid(x_min=-10.0, x_max=10.0, h=h, dt=h)
            pp = uniform_potentials(v_const, 0.0, g.x)
            state = make_state(g.x, u0(g.x), np.exp(-((g.x - 1.0) ** 2)))
            out = Stepper(g, pp, BoundaryMode.DIRICHLET).step(state)
            exact = exact_constant_v(g.x, g.dt, v_const, u0, v0_integral)
            interior = np.abs(g.x) < 5.0
            errs.append(np.abs(out.u - exact)[interior].max())
        ratio = errs[0] / errs[1]
        assert 6.0 < ratio < 10.5

    def test_global_second_order_convergence(self):
        # halving (h, dt) shrinks the sup error by about 4
        v_const = 1.0
        t_final = 2.0

        def exact(x, t):
            return np.exp(1j * v_const * t) * np.exp(1j * 0.7 * (x + t) - (x + t) ** 2)

        errs = []
        for h in (0.08, 0.04):
            g = Grid(x_min=-8.0, x_max=8.0, h=h, dt=h)
            pp = uniform_potentials(v_const, 0.0, g.x)
            u = exact(g.x, 0.0)
            state = make_state(g.x, u, (1j * 0.7 - 2.0 * g.x) * u)
            stepper = Stepper(g, pp, BoundaryMode.DIRICHLET)
            for _ in range(int(round(t_final / g.dt))):
                state = stepper.step(state)
            errs.append(np.abs(state.u - exact(g.x, t_final)).max())
        assert 3.0 < errs[0] / errs[1] < 5.5

    def test_pointwise_oscillator_under_p(self):
        # spatially flat u with V = 0 obeys u'' + P u = 0 pointwise until the
        # boundary disturbance arrives; both split and unsplit paths are 2nd order
        beta = 0.3
        t_final = 5.0

        def center_error(h, splitting):
            g = Grid(x_min=-20.0, x_max=20.0, h=h, dt=h)
            pp = uniform_potentials(0.0, beta, g.x)
            state = make_state(g.x, np.ones(g.n), np.zeros(g.n))
            stepper = Stepper(g, pp, BoundaryMode.DIRICHLET, splitting=splitting)
            for _ in range(int(round(t_final / g.dt))):
                state = stepper.step(state)
            j = g.n // 2
            return abs(state.u[j] - np.cos(np.sqrt(beta) * t_final))

        for splitting in (False, True):
            e_coarse = center_error(0.05, splitting)
            e_fine = center_error(0.025, splitting)
            assert 3.0 < e_coarse / e_fine < 5.5


class TestSplitting:
    def test_split_equals_unsplit_when_p_vanishes(self):
        g = Grid(x_min=-10.0, x_max=10.0, h=0.1, dt=0.1)
        pp = toy_potentials(ToyParams(alpha=1.0, beta=0.0, smoothing=1.0), g.x)
        u = np.exp(1j * g.x - (g.x - 3.0) ** 2).astype(complex)
        state = make_state(g.x, u, np.gradient(u, g.x))
        a = Stepper(g, pp, BoundaryMode.TRANSPARENT, splitting=False).step(state)
        b = Stepper(g, pp, BoundaryMode.TRANSPARENT, splitting=True).step(state)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)

    def test_auto_splitting_rule(self):
        g = Grid(x_min=-10.0, x_max=10.0, h=0.1, dt=0.1)
        with_p = toy_potentials(ToyParams(alpha=1.0, beta=0.2, smoothing=1.0), g.x)
        without_p = toy_potentials(ToyParams(alpha=1.0, beta=0.0, smoothing=1.0), g.x)
        assert Stepper(g, with_p, BoundaryMode.TRANSPARENT).splitting
        assert not Stepper(g, without_p, BoundaryMode.TRANSPARENT).splitting
        assert not Stepper(g, with_p, BoundaryMode.DIRICHLET).splitting

    def test_reference_mode_rejected_by_stepper(self):
        g = Grid(x_min=-1.0, x_max=1.0, h=0.1, dt=0.1)
        pp = uniform_potentials(0.0, 0.0, g.x)
        with pytest.raises(ValueError):
            Stepper(g, pp, BoundaryMode.REFERENCE)


class _ReferenceKernel:
    """The step written with temporaries, which the scratch-buffer kernel must
    match bit for bit.

    Every operation allocates its result, the off-diagonals are arrays and the
    P-kick factor is float64; only the LU factorization is the stepper's own.
    A split step folds its two half P-kicks into the right-hand-side diagonal
    and the v update's coefficients; ``fold=False`` keeps the kick-CN-kick
    composition that the fold rewrites, which agrees with it to roundoff.
    """

    def __init__(self, stepper, pp, fold=True):
        g = stepper.grid
        dt, h, n = g.dt, g.h, g.n
        self.grid, self.bc, self.splitting = g, stepper.bc, stepper.splitting
        self.fold = self.splitting and fold
        self.v_profile = pp.v
        self.fact = stepper._lu._fact
        p_in_block = np.zeros(n) if self.splitting else pp.p
        self.half_p = 0.5 * dt * pp.p if self.splitting else None
        self.a = 1.0 - 0.5j * dt * pp.v
        self.d = 1.0 + 0.5j * dt * pp.v
        c = 0.25 * dt * dt
        self.rlo = np.full(n, c / h**2, dtype=complex)
        self.rdi = self.a * self.d - c * (2.0 / h**2 + p_in_block)
        self.rup = np.full(n, c / h**2, dtype=complex)
        if self.fold:
            # v - hp u enters the right-hand side as dt v, and the trailing
            # kick -hp un with the leading one's +hp u enters the v update
            self.rdi = self.rdi - dt * self.half_p
            self.a = self.a - 0.5 * dt * self.half_p
            self.d = self.d - 0.5 * dt * self.half_p

    def rhs(self, u, v):
        dt, h = self.grid.dt, self.grid.h
        r = self.rdi * u + dt * v
        r[1:] += self.rlo[1:] * u[:-1]
        r[:-1] += self.rup[:-1] * u[1:]
        if self.bc is BoundaryMode.DIRICHLET:
            r[0] = 0.0
            r[-1] = 0.0
        else:
            vb = self.v_profile
            r[0] = (1.0 / dt + 0.5j * vb[0] - 0.5 / h) * u[0] + 0.5 / h * u[1]
            r[-1] = (1.0 / dt + 0.5j * vb[-1] - 0.5 / h) * u[-1] + 0.5 / h * u[-2]
        return r

    def cn_step(self, u, v):
        dt, h = self.grid.dt, self.grid.h
        un, info = zgttrs(*self.fact, self.rhs(u, v))
        assert info == 0
        vn = (2.0 / dt) * (self.a * un - self.d * u) - v
        if self.bc is BoundaryMode.DIRICHLET:
            vn[0] = 0.0
            vn[-1] = 0.0
        else:
            vn[0] = (un[1] - un[0]) / h
            vn[-1] = -(un[-1] - un[-2]) / h
            if self.fold:  # the boundary rows set v without the folded kick
                vn[0] = vn[0] - self.half_p[0] * un[0]
                vn[-1] = vn[-1] - self.half_p[-1] * un[-1]
        return un, vn

    def step(self, state):
        u, v = state.u, state.v
        if self.splitting and not self.fold:
            v = v - self.half_p * u
            u, v = self.cn_step(u, v)
            v = v - self.half_p * u
        else:
            u, v = self.cn_step(u, v)
        return FieldState(u=u, v=v, t=state.t + self.grid.dt)


def _kernel_case(name):
    """(grid, potentials, boundary mode, expected splitting) for one kernel path."""
    if name == "rn-transparent-split":
        g = Grid(x_min=-50.0, x_max=50.0, h=0.04, dt=0.04)
        return g, rn_potentials(REFERENCE_HOLE, REFERENCE_FIELD, g.x), BoundaryMode.TRANSPARENT, True
    if name == "toy-transparent-unsplit":
        g = Grid(x_min=-30.0, x_max=30.0, h=0.1, dt=0.1)
        pp = toy_potentials(ToyParams(alpha=1.0, beta=0.0, smoothing=1.0), g.x)
        return g, pp, BoundaryMode.TRANSPARENT, False
    g = Grid(x_min=-10.0, x_max=10.0, h=0.05, dt=0.04)
    return g, uniform_potentials(0.7, 0.3, g.x), BoundaryMode.DIRICHLET, False


_KERNEL_CASES = ["rn-transparent-split", "toy-transparent-unsplit", "dirichlet-uniform"]


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    return make_state(
        None,
        rng.normal(size=n) + 1j * rng.normal(size=n),
        rng.normal(size=n) + 1j * rng.normal(size=n),
    )


class TestKernel:
    """The allocation-free step against a kept copy of the allocating one."""

    @pytest.mark.parametrize("case", _KERNEL_CASES)
    def test_bit_identical_to_reference(self, case):
        g, pp, bc, splitting = _kernel_case(case)
        stepper = Stepper(g, pp, bc)
        assert stepper.splitting is splitting
        reference = _ReferenceKernel(stepper, pp)
        state = expected = _random_state(g.n, seed=7)
        for _ in range(50):
            state, expected = stepper.step(state), reference.step(expected)
        assert np.array_equal(state.u, expected.u)
        assert np.array_equal(state.v, expected.v)
        assert state.t == expected.t

    @pytest.mark.parametrize("case", ["rn-transparent-split", "dirichlet-uniform"])
    def test_folded_kicks_match_strang_composition(self, case):
        # the fold is an exact rewrite of kick, CN step, kick: the two differ
        # by roundoff only
        g, pp, bc, _ = _kernel_case(case)
        stepper = Stepper(g, pp, bc, splitting=True)
        strang = _ReferenceKernel(stepper, pp, fold=False)
        state = expected = _random_state(g.n, seed=13)
        for _ in range(50):
            state, expected = stepper.step(state), strang.step(expected)
        for ours, theirs in ((state.u, expected.u), (state.v, expected.v)):
            assert np.abs(ours - theirs).max() <= 1e-12 * np.abs(theirs).max()
        assert state.t == expected.t

    def test_held_state_survives_later_steps(self):
        g, pp, bc, _ = _kernel_case("rn-transparent-split")
        stepper = Stepper(g, pp, bc)
        state = _random_state(g.n, seed=3)
        for _ in range(5):
            state = stepper.step(state)
        held, u_copy, v_copy = state, state.u.copy(), state.v.copy()
        for _ in range(5):
            state = stepper.step(state)
        assert np.array_equal(held.u, u_copy)
        assert np.array_equal(held.v, v_copy)

    @pytest.mark.parametrize("case", ["rn-transparent-split", "toy-transparent-unsplit"])
    def test_outputs_share_no_memory(self, case):
        g, pp, bc, _ = _kernel_case(case)
        stepper = Stepper(g, pp, bc)
        first = _random_state(g.n, seed=5)
        second = stepper.step(first)
        third = stepper.step(second)
        arrays = [first.u, first.v, second.u, second.v, third.u, third.v]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        scratch = [b for b in vars(stepper).values() if isinstance(b, np.ndarray)]
        for a in arrays:
            for b in scratch:
                assert not np.shares_memory(a, b)


class TestLapackBinding:
    """numpy's bundled OpenBLAS through ctypes, and scipy's wrappers as fallback."""

    def test_bundled_openblas_is_the_binding_in_use(self):
        numpy_libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
        if not any(numpy_libs.glob("libscipy_openblas64_*.so")):
            pytest.skip("this numpy bundles no libscipy_openblas64_*.so")
        assert solver._LAPACK.name == "ctypes"

    @pytest.mark.parametrize("case", _KERNEL_CASES)
    def test_both_bindings_give_the_same_factors_and_solves(self, case, tmp_path, monkeypatch):
        if solver._LAPACK.name != "ctypes":
            pytest.skip("only the scipy binding is available")
        g, pp, bc, _ = _kernel_case(case)
        lus = [Stepper(g, pp, bc)._lu]
        fallback = solver._lapack(tmp_path)  # no library there
        assert fallback.name == "scipy"
        monkeypatch.setattr(solver, "_LAPACK", fallback)
        lus.append(Stepper(g, pp, bc)._lu)
        ctypes_fact, scipy_fact = (lu._fact for lu in lus)
        assert ctypes_fact[4].dtype == np.int64
        for ours, theirs in zip(ctypes_fact, scipy_fact):  # ipiv compared as integers
            assert np.array_equal(ours, theirs)
        rhs = _random_state(g.n, seed=11).u
        ctypes_x, scipy_x = (lu.solve(rhs.copy()) for lu in lus)
        assert np.array_equal(ctypes_x, scipy_x)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: np.zeros(n, dtype=np.complex64),  # not complex128
            lambda n: np.zeros(n),
            lambda n: np.zeros(n - 1, dtype=complex),  # not of length n
            lambda n: np.zeros((n, 1), dtype=complex),  # not 1-D
            lambda n: np.zeros(2 * n, dtype=complex)[::2],  # not C-contiguous
            lambda n: np.frombuffer(bytes(16 * n), dtype=complex),  # read-only
        ],
        ids=["complex64", "float64", "short", "2-D", "strided", "read-only"],
    )
    def test_solve_refuses_what_lapack_would_overrun(self, make):
        g, pp, bc, _ = _kernel_case("dirichlet-uniform")
        lu = Stepper(g, pp, bc)._lu
        rhs = make(g.n)
        before = rhs.copy()
        with pytest.raises(ValueError, match="right-hand side"):
            lu.solve(rhs)
        assert np.array_equal(rhs, before)


def _tridiag(n, diag=1.5, off=-0.25):
    """(lower, diag, upper) of a constant tridiagonal matrix; the defaults
    are the left-hand matrix of a dt = h grid far from any potential."""
    return (np.full(n - 1, off, dtype=complex), np.full(n, diag, dtype=complex),
            np.full(n - 1, off, dtype=complex))


def _split_stepper(n=solver._SPLIT_MIN_N + 1):
    """A stepper with a helper that splits (K = 42) on a potential-free
    Dirichlet grid of n nodes, dt = h, and a random state on it."""
    g = Grid(x_min=0.0, x_max=(n - 1) * 0.01, h=0.01, dt=0.01)
    stepper = Stepper(g, uniform_potentials(0.0, 0.0, g.x), BoundaryMode.DIRICHLET,
                      second_cpu=True)
    return stepper, _random_state(n, seed=1)


class TestSplitSolve:
    """``second_cpu``: each step split into overlapping halves, the right one
    stepped by a helper process (``solver._Helper``) as the stepper sends it."""

    @pytest.mark.parametrize(
        "preset, label",
        [("toy-smoothing-flux", "L-0"), ("rn-wavepacket", "omega-2.3"),
         ("rn-highenergy", "omega-100")],
    )
    def test_overlap_on_the_paper_grids(self, preset, label):
        # dt = h puts rho at 3 - 2 sqrt(2) = 0.1716 away from the potentials'
        # bump, and ceil(106 ln 2 / -ln rho) = 42
        from ergosim.presets import get_preset

        (cfg,) = (c for c in get_preset(preset).configs if c.label == label)
        stepper = Stepper(cfg.grid, cfg.potentials(cfg.grid.x), cfg.bc)
        assert solver._overlap(stepper._lu) == 42

    def test_whole_solve_below_the_crossover(self):
        g, pp, bc, _ = _kernel_case("rn-transparent-split")
        assert g.n < solver._SPLIT_MIN_N
        stepper = Stepper(g, pp, bc, second_cpu=True)
        assert stepper._k is None and stepper._helper is not None  # a helper that only runs calls
        assert solver._overlap(stepper._lu) is not None  # the size alone decides
        stepper.close()

    def test_whole_solve_when_the_overlap_exceeds_a_quarter(self):
        # the second difference: its factors decay like i/(i+1), so rho -> 1
        n = 2 * solver._SPLIT_MIN_N
        assert solver._overlap(solver._TridiagLU(*_tridiag(n, diag=2.0, off=-1.0))) is None
        # off = -0.9 d, with d = 2 / 1.81 the pivots' limit, gives rho = 0.9
        # and K = 698 <= n/4: the split stands
        lu = solver._TridiagLU(*_tridiag(n, diag=2.0, off=-0.9 * 2.0 / 1.81))
        assert solver._overlap(lu) == 698

    def test_whole_solve_when_a_row_swap_falls_in_the_overlap(self):
        # Row r gets a zero diagonal and a large entry below it, so zgttrf
        # swaps rows r and r+1; the factors keep rho = 0.375, so K = 75
        # wherever r lies, and only the swap's place decides.
        n = 2 * solver._SPLIT_MIN_N
        m = n // 2

        def swapped_at(r):
            lower, diag, upper = _tridiag(n)
            diag[r], lower[r], upper[r] = 0.0, 4.0, -1.0
            lu = solver._TridiagLU(lower, diag, upper)
            assert list(np.flatnonzero(lu._fact[4] != np.arange(1, n + 1))) == [r]
            return solver._overlap(lu)

        for r in (m - 75, m, m + 74):  # the overlap's first row, the cut, its last row
            assert swapped_at(r) is None
        for r in (m - 76, m + 75, m + 200):
            assert swapped_at(r) == 75

    @pytest.mark.parametrize("binding", ["ctypes", "scipy"])
    def test_split_solve_is_the_whole_solve(self, binding, tmp_path, monkeypatch):
        """Split steps give the whole steps' bits, and call no whole solve:
        only the first step, from a state not the stepper's, solves whole."""
        if binding == "scipy":
            monkeypatch.setattr(solver, "_LAPACK", solver._lapack(tmp_path))  # no library there
        elif solver._LAPACK.name != "ctypes":
            pytest.skip("only the scipy binding is available")
        g = Grid(x_min=-40.0, x_max=40.0, h=0.01, dt=0.01)
        pp = rn_potentials(REFERENCE_HOLE, REFERENCE_FIELD, g.x)
        whole = Stepper(g, pp, BoundaryMode.TRANSPARENT)
        split = Stepper(g, pp, BoundaryMode.TRANSPARENT, second_cpu=True)
        assert split._helper is not None and split._k == 42
        solves, solve = [], solver._TridiagLU.solve
        monkeypatch.setattr(solver._TridiagLU, "solve",
                            lambda self, rhs: solves.append(self) or solve(self, rhs))
        try:
            for seed in range(3):
                ours = theirs = _random_state(g.n, seed)
                for _ in range(5):
                    ours, theirs = split.step(ours), whole.step(theirs)
                    assert np.array_equal(ours.u, theirs.u)
                    assert np.array_equal(ours.v, theirs.v)
        finally:
            split.close()
        assert solves.count(whole._lu) == 15
        assert solves.count(split._lu) == 3

    def test_halves_that_differ_are_taken_again_whole(self, monkeypatch):
        """The rows m-1 .. m+1, which both halves solve, are compared bit for
        bit: an overlap of 2 rows where the factors need 42 makes them
        differ, and each such step is counted and taken again whole, from
        the pair it read, so the states are the lone stepper's."""
        for k, retaken in ((42, 0), (2, 3)):
            monkeypatch.setattr(solver, "_overlap", lambda lu: k)
            stepper, state = _split_stepper()
            lone = Stepper(stepper.grid, uniform_potentials(0.0, 0.0, stepper.grid.x),
                           BoundaryMode.DIRICHLET)
            try:
                assert stepper._k == k
                ours = theirs = state
                for _ in range(4):  # the first whole: the state is not the stepper's
                    ours, theirs = stepper.step(ours), lone.step(theirs)
                    assert ours.u.tobytes() == theirs.u.tobytes()
                    assert ours.v.tobytes() == theirs.v.tobytes()
                assert stepper._window == (0, stepper.grid.n)  # every row is live
                assert stepper.retaken_steps == retaken
            finally:
                stepper.close()

    def test_split_solve_refuses_what_lapack_would_overrun(self):
        """A helper stepper solves only in arrays of its own: a state of
        another size is refused before anything is written."""
        stepper, _ = _split_stepper()
        pairs = [a.copy() for pair in stepper._pairs for a in pair]
        short = _random_state(stepper.grid.n - 1, seed=2)
        try:
            with pytest.raises(ValueError):
                stepper.step(short)
        finally:
            stepper.close()
        for before, after in zip(pairs, (a for pair in stepper._pairs for a in pair)):
            assert np.array_equal(before, after)

    def test_lost_helper_is_an_error_and_close_still_reaps(self):
        import os
        import signal

        stepper, state = _split_stepper()
        # whole (the state is not the stepper's), then split, which forks the helper
        state = stepper.step(stepper.step(state))
        helper = stepper._helper
        os.kill(helper.pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match="helper process has exited"):
            stepper.step(state)
        stepper.close()  # the quit byte meets a closed pipe
        with pytest.raises(ChildProcessError):
            os.waitpid(helper.pid, os.WNOHANG)
        stepper.close()  # idempotent
        with pytest.raises(RuntimeError, match="stopped by close"):
            stepper.step(state)

    def test_a_failed_helper_step_raises_at_join_every_time(self):
        """A step's exception in the helper is pickled back and re-raises at
        :meth:`join`, and so does that of every later step."""

        def step(p):  # a stand-in for a stepper's half step
            raise RuntimeError(f"half step from pair {p} failed")

        helper = solver._Helper(solver._SPLIT_MIN_N, step=step)
        try:
            for p in (0, 1, 0):
                assert helper.go(p)
                with pytest.raises(RuntimeError, match=f"from pair {p} failed"):
                    helper.join()
        finally:
            helper.close()

    def test_the_helper_factors_nothing(self, monkeypatch):
        """A stepper factors its matrix once, when it is built; the helper,
        forked later, solves its half with those factors.  With every later
        factorization refused, here and so in the helper, split steps run
        and give the lone stepper's bits."""
        stepper, state = _split_stepper()
        lone = Stepper(stepper.grid, uniform_potentials(0.0, 0.0, stepper.grid.x),
                       BoundaryMode.DIRICHLET)

        def refused(*args):
            raise AssertionError("a second factorization")

        monkeypatch.setattr(solver._LAPACK, "factor", refused)
        started, go = [], solver._Helper.go
        monkeypatch.setattr(solver._Helper, "go",
                            lambda helper, p: started.append(go(helper, p)) or started[-1])
        try:
            ours = theirs = state
            for _ in range(5):  # the first whole: the state is not the stepper's
                ours, theirs = stepper.step(ours), lone.step(theirs)
                assert ours.u.tobytes() == theirs.u.tobytes()
                assert ours.v.tobytes() == theirs.v.tobytes()
            assert started == [True] * 4 and stepper.retaken_steps == 0
        finally:
            stepper.close()

    def test_zeros_on_a_dirichlet_grid_leave_an_empty_window(self):
        """A whole step from u = v = 0 outputs +0 on every row of a Dirichlet
        grid, so no row is live and a step from a pair solves none."""
        stepper, _ = _split_stepper()
        zero = np.zeros(stepper.grid.n, dtype=complex)
        try:
            state = stepper.step(make_state(None, zero, zero))
            for _ in range(3):
                state = stepper.step(state)
            assert stepper._window[0] >= stepper._window[1]
            assert stepper.windowed_steps == 3 and stepper._helper.pid is None
            assert not state.u.view(np.uint64).any() and not state.v.view(np.uint64).any()
        finally:
            stepper.close()

    def test_step_never_writes_its_input(self):
        """A helper stepper steps on from its own states, in two pairs of
        arrays that it reuses, and never writes its input; a state that is
        not its own, even one made of its arrays, is read as given."""
        stepper, state = _split_stepper()
        lone = Stepper(stepper.grid, uniform_potentials(0.0, 0.0, stepper.grid.x),
                       BoundaryMode.DIRICHLET)
        try:
            states, expected = [state], [state]
            for _ in range(4):
                u, v = states[-1].u.copy(), states[-1].v.copy()
                states.append(stepper.step(states[-1]))
                expected.append(lone.step(expected[-1]))
                assert np.array_equal(states[-2].u, u) and np.array_equal(states[-2].v, v)
                assert np.array_equal(states[-1].u, expected[-1].u)
                assert np.array_equal(states[-1].v, expected[-1].v)
            first, second = states[1:3]
            assert not np.shares_memory(first.u, second.u)
            assert states[3].u is first.u and states[4].u is second.u  # two pairs, reused
            # not its own: a pair's u with other values of v, a pair's v
            # beside the other pair's u, and copies of a pair
            last = states[-1]
            for given in (FieldState(last.u, last.v * 0.5, last.t),
                          FieldState(states[-2].u, last.v, last.t),
                          FieldState(last.u.copy(), last.v.copy(), last.t)):
                u, v = given.u.copy(), given.v.copy()
                ours = stepper.step(given)
                theirs = lone.step(FieldState(u, v, given.t))
                assert np.array_equal(given.u, u) and np.array_equal(given.v, v)
                assert np.array_equal(ours.u, theirs.u)
                assert np.array_equal(ours.v, theirs.v)
        finally:
            stepper.close()


class TestConservation:
    def test_energy_constant_before_boundary_contact(self):
        from ergosim.diagnostics import energy_total

        g = Grid(x_min=-15.0, x_max=15.0, h=0.05, dt=0.05)
        pp = uniform_potentials(0.0, 0.0, g.x)
        u = np.exp(-g.x**2).astype(complex)
        state = make_state(g.x, u, -2.0 * g.x * u)
        e0 = energy_total(state, pp).total
        stepper = Stepper(g, pp, BoundaryMode.DIRICHLET)
        worst = 0.0
        for k in range(int(round(8.0 / g.dt))):
            state = stepper.step(state)
            if (k + 1) % 20 == 0:
                worst = max(worst, abs(energy_total(state, pp).total - e0) / e0)
        assert worst < 1e-3


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_evolution_is_linear(seed):
    from ergosim.potentials import PotentialPair

    rng = np.random.default_rng(seed)
    n = 24
    g = Grid(x_min=0.0, x_max=(n - 1) * 0.1, h=0.1, dt=0.08)
    x = g.x
    pp = PotentialPair(
        x=x, v=rng.normal(size=n), p=rng.normal(size=n) ** 2,
        provenance="uniform", uniform=(0.0, 0.0),
    )
    stepper = Stepper(g, pp, BoundaryMode.TRANSPARENT, splitting=True)

    def rand_state():
        return make_state(
            x,
            rng.normal(size=n) + 1j * rng.normal(size=n),
            rng.normal(size=n) + 1j * rng.normal(size=n),
        )

    s1, s2 = rand_state(), rand_state()
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    combo = make_state(x, a * s1.u + b * s2.u, a * s1.v + b * s2.v)
    for _ in range(7):
        s1, s2, combo = stepper.step(s1), stepper.step(s2), stepper.step(combo)
    scale = max(np.abs(combo.u).max(), 1.0)
    assert np.abs(combo.u - (a * s1.u + b * s2.u)).max() < 1e-10 * scale
    assert np.abs(combo.v - (a * s1.v + b * s2.v)).max() < 1e-10 * scale
