"""Energies, fluxes, gains, the modified (positive) energy, plateau detection."""

from __future__ import annotations

import numpy as np
import pytest

from ergosim.config import SimConfig
from ergosim.diagnostics import (
    FluxProbe,
    GainSeries,
    energy_positive_zone,
    energy_total,
    flux_reference_energy,
    modified_energy,
    plateau_summary,
)
from ergosim.driver import run
from ergosim.geometry import BlackHole
from ergosim.initial_data import DataSpec, build
from ergosim.potentials import (
    FieldParams,
    ToyParams,
    rn_potentials,
    toy_potentials,
    uniform_potentials,
)
from ergosim.solver import BoundaryMode, FieldState, Grid, Stepper

BH = BlackHole(mass=2.001, charge=2.0)


def zero_state(x):
    return FieldState(u=np.zeros(x.size, dtype=complex), v=np.zeros(x.size, dtype=complex))


def test_zero_state_energies_vanish():
    x = np.linspace(-20.0, 20.0, 401)
    pp = toy_potentials(ToyParams(alpha=1.0, beta=0.2, smoothing=1.0), x)
    e = energy_total(zero_state(x), pp)
    assert e.kinetic == e.gradient == e.potential == e.total == 0.0
    assert energy_positive_zone(zero_state(x), pp) == 0.0


def test_flare_energy_is_half_l2_norm():
    # with phi = 0 the potential term drops and E = ||phi1||^2 / 2
    x = np.arange(-50.0, 50.0 + 0.005, 0.01)
    pp = rn_potentials(BH, FieldParams(q=1.0, m=0.1, l=0), x)
    u, v = build(DataSpec(kind="flare", x0=-10.0, width=5.0, support_tol=1e-3), x, pp.v)
    e = energy_total(FieldState(u=u, v=v), pp)
    closed_form = 0.5 * 5.0 * np.sqrt(np.pi / 2.0)
    assert e.total == pytest.approx(closed_form, rel=1e-6)
    assert e.potential == 0.0
    assert e.gradient == 0.0


def test_energy_breakdown_total_convention():
    x = np.linspace(-5.0, 5.0, 201)
    pp = uniform_potentials(0.3, 0.1, x)
    u = np.exp(-(x**2)) * (1.0 + 0.5j)
    s = FieldState(u=u, v=np.gradient(u, x))
    e = energy_total(s, pp)
    assert e.total == pytest.approx(0.5 * (e.kinetic + e.gradient + e.potential), rel=1e-15)


def test_energy_window_restriction():
    x = np.linspace(-10.0, 10.0, 801)
    pp = uniform_potentials(0.0, 0.0, x)
    u = np.exp(-((x - 3.0) ** 2)).astype(complex)
    s = FieldState(u=u, v=np.zeros_like(u))
    full = energy_total(s, pp).total
    right = energy_total(s, pp, window=(0.0, 10.0)).total
    assert right == pytest.approx(full, rel=1e-6)
    left = energy_total(s, pp, window=(-10.0, 0.0)).total
    assert left < 1e-6 * full


class TestFlux:
    def run_packet(self, direction, probe_x, t_final=12.0):
        g = Grid(x_min=-15.0, x_max=15.0, h=0.02, dt=0.02)
        pp = uniform_potentials(0.0, 0.0, g.x)
        u = np.exp(-(g.x**2)).astype(complex)
        sign = -1.0 if direction == "right" else 1.0
        state = FieldState(u=u, v=sign * (-2.0) * g.x * u)
        e0 = energy_total(state, pp).total
        probe = FluxProbe(probe_x, pp)
        probe.sample(state)
        stepper = Stepper(g, pp, BoundaryMode.DIRICHLET)
        for _ in range(int(round(t_final / g.dt))):
            state = stepper.step(state)
            probe.sample(state)
        return probe, e0

    def test_right_mover_deposits_its_energy(self):
        # oracle: pure translation; all the conserved energy crosses the probe
        probe, e0 = self.run_packet("right", probe_x=6.0)
        assert probe.total / e0 == pytest.approx(1.0, abs=0.01)

    def test_left_mover_never_registers(self):
        probe, _ = self.run_packet("left", probe_x=6.0)
        assert abs(probe.total) < 1e-6

    def test_zero_field_zero_flux(self):
        x = np.linspace(-5.0, 5.0, 101)
        pp = uniform_potentials(0.0, 0.0, x)
        probe = FluxProbe(2.0, pp)
        for i in range(4):
            s = zero_state(x)
            s.t = 0.1 * i
            probe.sample(s)
        assert probe.accumulated == [0.0] * 4

    def test_probe_outside_grid_rejected(self):
        x = np.linspace(-5.0, 5.0, 101)
        pp = uniform_potentials(0.0, 0.0, x)
        with pytest.raises(ValueError):
            FluxProbe(7.0, pp)
        with pytest.raises(ValueError):
            FluxProbe(-5.0, pp)  # boundary node: no centered difference

    def test_left_probe_orientation(self):
        probe_r, e0 = self.run_packet("right", probe_x=6.0)
        g = Grid(x_min=-15.0, x_max=15.0, h=0.02, dt=0.02)
        pp = uniform_potentials(0.0, 0.0, g.x)
        u = np.exp(-(g.x**2)).astype(complex)
        state = FieldState(u=u, v=-2.0 * g.x * u)  # left mover
        left_probe = FluxProbe(-6.0, pp, outgoing="left")
        left_probe.sample(state)
        stepper = Stepper(g, pp, BoundaryMode.DIRICHLET)
        for _ in range(int(round(12.0 / g.dt))):
            state = stepper.step(state)
            left_probe.sample(state)
        assert left_probe.total / e0 == pytest.approx(1.0, abs=0.01)


class TestGainConventions:
    def test_flux_reference_energy_toy_is_half_zone(self):
        x = np.linspace(-30.0, 30.0, 1501)
        pp = toy_potentials(ToyParams(alpha=1.0, beta=0.2, smoothing=1.0), x)
        u, v = build(
            DataSpec(kind="wave-packet", omega=0.5, x0=7.5, width=1.0, phase="plain"), x, pp.v
        )
        s = FieldState(u=u, v=v)
        assert flux_reference_energy(s, pp) == pytest.approx(
            0.5 * energy_positive_zone(s, pp), rel=1e-14
        )

    def test_flux_reference_energy_rn_is_full_energy(self):
        x = np.linspace(-50.0, 50.0, 2001)
        pp = rn_potentials(BH, FieldParams(q=1.0, m=0.1, l=0), x)
        u, v = build(DataSpec(kind="flare", x0=-10.0, width=3.0, support_tol=1e-3), x, pp.v)
        s = FieldState(u=u, v=v)
        assert flux_reference_energy(s, pp) == pytest.approx(energy_total(s, pp).total, rel=1e-14)

    def test_vanishing_initial_energy_guarded(self):
        x = np.linspace(-5.0, 5.0, 101)
        pp = uniform_potentials(0.0, 0.0, x)
        with pytest.raises(ValueError):
            flux_reference_energy(zero_state(x), pp)

    def test_gain_zone_starts_at_one(self):
        cfg = SimConfig(
            model="toy",
            toy=ToyParams(alpha=1.0, beta=0.0, smoothing=1.0),
            grid=Grid(x_min=-10.0, x_max=10.0, h=0.05, dt=0.05),
            t_final=0.5,
            data=DataSpec(kind="wave-packet", omega=0.0, x0=4.0, width=1.0, phase="plain"),
        )
        res = run(cfg)
        assert res.zone_gain.shape == res.energy_times.shape
        assert res.zone_gain[0] == pytest.approx(1.0, rel=1e-14)


class TestModifiedEnergy:
    def test_zero_state(self):
        x = np.linspace(-30.0, 30.0, 601)
        pp = rn_potentials(BH, FieldParams(q=1.0, m=1.0, l=0), x)
        assert modified_energy(zero_state(x), pp) == 0.0

    def test_requires_black_hole_background(self):
        x = np.linspace(-5.0, 5.0, 101)
        pp = uniform_potentials(0.0, 0.0, x)
        with pytest.raises(ValueError):
            modified_energy(zero_state(x), pp)

    def test_positive_and_conserved_above_threshold(self):
        # m >= |qQ|/r+: the phase-shifted energy is positive definite and constant
        fp = FieldParams(q=1.0, m=1.0, l=0)
        g = Grid(x_min=-40.0, x_max=40.0, h=0.05, dt=0.05)
        pp = rn_potentials(BH, fp, g.x)
        u, v = build(DataSpec(kind="wave-packet", omega=1.0, x0=0.0, width=2.0), g.x, pp.v)
        state = FieldState(u=u, v=v)
        e0 = modified_energy(state, pp)
        assert e0 > 0.0
        stepper = Stepper(g, pp, BoundaryMode.DIRICHLET)
        ratios = []
        for k in range(int(round(15.0 / g.dt))):
            state = stepper.step(state)
            if (k + 1) % 30 == 0:
                e = modified_energy(state, pp)
                assert e > 0.0
                ratios.append(e / e0)
        assert min(ratios) > 0.99 and max(ratios) < 1.01

    def test_below_threshold_still_finite(self):
        fp = FieldParams(q=1.0, m=0.1, l=0)
        x = np.linspace(-60.0, 60.0, 1201)
        pp = rn_potentials(BH, fp, x)
        u, v = build(DataSpec(kind="flare", x0=-30.0, width=3.0, support_tol=1e-3), x, pp.v)
        assert np.isfinite(modified_energy(FieldState(u=u, v=v), pp))


class TestPlateau:
    def test_settled_series(self):
        t = np.linspace(0.0, 100.0, 501)
        v = np.where(t < 50.0, t / 50.0, 1.0) * 1.449
        s = plateau_summary(t, v)
        assert s.stabilized
        assert s.value == pytest.approx(1.449, rel=1e-12)

    def test_ramp_is_flagged(self):
        t = np.linspace(0.0, 100.0, 501)
        s = plateau_summary(t, 0.1 * t)
        assert not s.stabilized

    def test_gain_series_invariants(self):
        t = np.array([0.0, 1.0, 2.0])
        g = GainSeries(probe_x=1.0, times=t, accumulated_flux=np.array([0.0, 1.0, 2.0]),
                       initial_energy=2.0)
        assert np.allclose(g.gain, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            GainSeries(probe_x=1.0, times=np.array([0.0, 0.0]),
                       accumulated_flux=np.array([0.0, 1.0]))


def _old_energy_total(state, pp, window=None):
    """energy_total as it was before the cached gradient: an all-true mask
    when unwindowed, and ``np.gradient`` on every call."""
    if window is None:
        m = np.ones_like(pp.x, dtype=bool)
    else:
        lo, hi = window
        m = (pp.x >= lo - 1e-12) & (pp.x <= hi + 1e-12)
    x = pp.x[m]
    dt_phi = state.dt_phi(pp.v)[m]
    dx_phi = np.gradient(state.u, pp.x)[m]
    u = state.u[m]
    kin = np.trapezoid(np.abs(dt_phi) ** 2, x)
    grad = np.trapezoid(np.abs(dx_phi) ** 2, x)
    pot = np.trapezoid((pp.p[m] - pp.v[m] ** 2) * np.abs(u) ** 2, x)
    return float(kin), float(grad), float(pot)


class TestCachedGradient:
    @pytest.fixture(
        params=["toy", "rn-wavepacket", "uniform-exact", "uniform-linspace"]
    )
    def pp(self, request):
        if request.param == "toy":
            x = Grid(x_min=-30.0, x_max=30.0, h=0.04, dt=0.04).x
            return toy_potentials(ToyParams(alpha=1.0, beta=0.2, smoothing=1.0), x)
        if request.param == "rn-wavepacket":
            x = Grid(x_min=-500.0, x_max=500.0, h=0.04, dt=0.04).x
            return rn_potentials(BH, FieldParams(q=1.0, m=0.1, l=0), x)
        if request.param == "uniform-exact":  # every diff is exactly 0.75
            return uniform_potentials(0.3, 0.1, np.arange(-9.0, 9.75, 0.75))
        return uniform_potentials(0.3, 0.1, np.linspace(-5.0, 5.0, 201))

    @staticmethod
    def state(x, seed=0):
        rng = np.random.default_rng(seed)
        z = lambda: rng.normal(size=x.size) + 1j * rng.normal(size=x.size)  # noqa: E731
        return FieldState(u=z() * 10.0 ** rng.integers(-5, 5, x.size), v=z(), t=0.0)

    def test_gradient_equals_np_gradient(self, pp):
        for seed in range(3):
            u = self.state(pp.x, seed).u
            assert np.array_equal(pp.gradient(u), np.gradient(u, pp.x))
            assert np.array_equal(pp.gradient(u.real), np.gradient(u.real, pp.x))

    def test_both_spacing_branches_covered(self):
        exact = uniform_potentials(0.0, 0.0, np.arange(-9.0, 9.75, 0.75))
        grid = Grid(x_min=-500.0, x_max=500.0, h=0.04, dt=0.04).x
        assert exact._gradient_stencil[0] is None
        assert toy_potentials(ToyParams(alpha=1.0), grid)._gradient_stencil[0] is not None

    @pytest.mark.parametrize("window", [None, (-3.0, 2.5)])
    def test_energy_total_equals_old_function(self, pp, window):
        s = self.state(pp.x)
        e = energy_total(s, pp, window=window)
        assert (e.kinetic, e.gradient, e.potential) == _old_energy_total(s, pp, window)
