"""Coefficient profiles, the effective-ergosphere finder, and the mass threshold."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ergosim
from ergosim.geometry import BlackHole, metric_f, metric_f_prime
from ergosim.potentials import (
    FieldParams,
    PotentialPair,
    RNPotentials,
    ToyParams,
    ToyPotentials,
    effective_ergosphere_boundary,
    no_superradiance_threshold,
    rn_potentials,
    toy_potentials,
    uniform_potentials,
)
from ergosim.presets import REFERENCE_FIELD, REFERENCE_HOLE

BH = BlackHole(mass=2.001, charge=2.0)
FP = FieldParams(q=1.0, m=0.1, l=0)

# closed-form constants for the reference parameters (binary double inputs)
QQ_OVER_RPLUS = 0.96887327079826475
ERGO_RSTAR_R0_ZERO = 33.367211314365973
TOY_BETA02_BOUNDARY = -0.40850942939462529  # root of beta(1 - V) - V^2 inside (-1, 0)


def grid(lo, hi, h=0.05):
    return np.arange(lo, hi + h / 2, h)


class TestToy:
    def test_transition_values(self):
        pp = toy_potentials(ToyParams(alpha=1.0, beta=0.0, smoothing=2.0), grid(-5, 5))
        v = dict(zip(pp.x.round(10), pp.v))
        assert v[-2.0] == pytest.approx(1.0, abs=1e-15)
        assert v[0.0] == pytest.approx(0.0, abs=1e-15)
        assert v[-1.0] == pytest.approx(0.5, rel=1e-15)

    def test_p_follows_v(self):
        pp = toy_potentials(ToyParams(alpha=1.0, beta=0.2, smoothing=1.0), grid(-5, 5))
        p = dict(zip(pp.x.round(10), pp.p))
        assert p[-1.0] == pytest.approx(0.0, abs=1e-15)
        assert p[0.0] == pytest.approx(0.2, rel=1e-15)
        assert p[-0.5] == pytest.approx(0.1, rel=1e-12)

    def test_step_limit_right_continuous(self):
        pp = toy_potentials(ToyParams(alpha=1.0, beta=0.0, smoothing=0.0), grid(-1, 1, 0.01))
        left = pp.v[pp.x < -1e-12]
        assert np.all(left == 1.0)
        at0 = pp.v[np.argmin(np.abs(pp.x))]
        assert at0 == 0.0

    def test_monotone_profiles(self):
        for length in (0.3, 1.0, 2.7):
            pp = toy_potentials(ToyParams(alpha=1.3, beta=0.4, smoothing=length), grid(-8, 8, 0.01))
            assert np.all(np.diff(pp.v) <= 1e-15)
            assert np.all(np.diff(pp.p) >= -1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ToyParams(alpha=0.0, smoothing=1.0)
        with pytest.raises(ValueError):
            ToyParams(alpha=1.0, beta=-0.1, smoothing=1.0)
        with pytest.raises(ValueError):
            ToyParams(alpha=1.0, smoothing=-1.0)


class TestRN:
    def test_zero_charge_field_kills_v(self):
        pp = rn_potentials(BH, FieldParams(q=0.0, m=0.1, l=0), grid(-50, 50))
        assert np.all(pp.v == 0.0)

    def test_far_field_mass_asymptote(self):
        pp = rn_potentials(BH, FP, np.array([0.0, 1e5]))
        assert abs(pp.p[-1] - FP.m**2) < 1e-6

    def test_horizon_limit_of_v(self):
        pp = rn_potentials(BH, FP, np.array([-500.0, 0.0]))
        assert pp.v[0] == pytest.approx(QQ_OVER_RPLUS, abs=1e-6)
        # matches the quoted qQ/r+ ~ 0.97 for these parameters
        assert round(pp.v[0], 2) == 0.97

    def test_total_potential_identity(self):
        # P - V^2 must equal F (l(l+1)/r^2 + m^2 + F'/r) - q^2 Q^2 / r^2 nodewise
        fp = FieldParams(q=1.0, m=0.1, l=2)
        pp = rn_potentials(BH, fp, grid(-60, 60, 0.1))
        r = pp.geom.r
        f, fpr = metric_f(BH, r), metric_f_prime(BH, r)
        closed = f * (fp.l * (fp.l + 1) / r**2 + fp.m**2 + fpr / r) - (
            fp.q * BH.charge
        ) ** 2 / r**2
        assert np.allclose(pp.total, closed, rtol=1e-12, atol=1e-15)

    def test_p_decays_at_surface_gravity_rate(self):
        # log P vs x on the far-left segment has slope kappa+ (within 1%)
        x = np.linspace(-450.0, -300.0, 151)
        pp = rn_potentials(BH, FP, x)
        slope = np.polyfit(x, np.log(pp.p), 1)[0]
        assert slope == pytest.approx(BH.kappa_plus, rel=0.01)


class TestErgosphereBoundary:
    def test_reference_parameters_r0_zero(self):
        pp = rn_potentials(BH, FP, grid(-100, 100, 0.04))
        roots = effective_ergosphere_boundary(pp)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(ERGO_RSTAR_R0_ZERO, abs=1e-6)

    def test_reference_parameters_preset_gauge(self):
        pp = rn_potentials(REFERENCE_HOLE, REFERENCE_FIELD, grid(-100, 100, 0.04))
        roots = effective_ergosphere_boundary(pp)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(33.67, abs=1e-6)

    def test_boundary_location_is_grid_independent(self):
        coarse = effective_ergosphere_boundary(rn_potentials(BH, FP, grid(-100, 100, 0.5)))
        fine = effective_ergosphere_boundary(rn_potentials(BH, FP, grid(-100, 100, 0.02)))
        assert coarse[0] == pytest.approx(fine[0], abs=1e-7)

    def test_uncharged_massive_field_has_no_boundary(self):
        pp = rn_potentials(BH, FieldParams(q=0.0, m=0.2, l=0), grid(-200, 200, 0.1))
        assert np.all(pp.total > 0.0)
        assert effective_ergosphere_boundary(pp) == []

    def test_toy_step_boundary_at_zero(self):
        pp = toy_potentials(ToyParams(alpha=1.0, beta=0.0, smoothing=0.0), grid(-10, 10, 0.1))
        roots = effective_ergosphere_boundary(pp)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-8)

    def test_toy_smooth_boundary_closed_form(self):
        pp = toy_potentials(ToyParams(alpha=1.0, beta=0.2, smoothing=1.0), grid(-10, 10, 0.1))
        roots = effective_ergosphere_boundary(pp)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(TOY_BETA02_BOUNDARY, abs=1e-8)

    def test_uniform_has_no_boundary(self):
        pp = uniform_potentials(1.0, 0.2, grid(-5, 5))
        assert effective_ergosphere_boundary(pp) == []

    def test_samples_alone_have_no_profile_to_refine(self):
        x = grid(-5, 5)
        pp = PotentialPair(x=x, v=np.where(x < 0.0, 1.0, 0.0), p=np.full(x.size, 0.2))
        assert (pp.total < 0.0).any() and (pp.total >= 0.0).any()
        constructors = "uniform_potentials, toy_potentials or rn_potentials"
        with pytest.raises(ValueError, match=f"no continuous profile.*{constructors}"):
            effective_ergosphere_boundary(pp)

    @pytest.mark.parametrize("build, root", [
        # roots of scipy.optimize.brentq(xtol=1e-8), which the finder used before
        # it bisected every sign change
        (lambda: toy_potentials(ToyParams(alpha=1.0, beta=0.2, smoothing=1.0), grid(-10, 10, 0.1)),
         -0.4085094293942545),
        (lambda: rn_potentials(REFERENCE_HOLE, REFERENCE_FIELD, grid(-100, 100, 0.04)),
         33.6699999999865),
        (lambda: rn_potentials(REFERENCE_HOLE, FieldParams(q=1.0, m=0.1, l=2), grid(-100, 100, 0.04)),
         15.051456888653048),
    ], ids=["toy beta=0.2", "rn l=0", "rn l=2"])
    def test_bisection_agrees_with_brentq(self, build, root):
        pp = build()
        roots = effective_ergosphere_boundary(pp)
        assert len(roots) == 1
        assert abs(roots[0] - root) <= 5e-9


def model(kind):
    x = grid(-20, 20, 0.1)
    if kind == "toy":
        return toy_potentials(ToyParams(alpha=1.0, beta=0.2, smoothing=1.0), x)
    if kind == "rn":
        return rn_potentials(BH, FieldParams(q=1.0, m=0.1, l=2), x)
    return uniform_potentials(0.7, 0.2, x)


@pytest.mark.parametrize("kind", ["toy", "rn", "uniform"])
class TestModelTypes:
    def test_types(self, kind):
        expected = {"toy": ToyPotentials, "rn": RNPotentials, "uniform": PotentialPair}[kind]
        assert type(model(kind)) is expected

    def test_total_at_reproduces_samples(self, kind):
        pp = model(kind)
        assert np.array_equal(pp.total_at(pp.x), pp.total)

    def test_flux_correction(self, kind):
        pp = model(kind)
        j = pp.x.size // 3
        expected = pp.geom.f[j] / pp.geom.r[j] if kind == "rn" else 0.0
        assert pp.flux_correction(j) == expected

    def test_zone_convention(self, kind):
        assert model(kind).zone_convention is (kind != "rn")


class TestThreshold:
    def test_reference_parameters_are_superradiant(self):
        assert not no_superradiance_threshold(BH, FieldParams(q=1.0, m=0.1, l=0))

    def test_heavy_field_is_not(self):
        assert no_superradiance_threshold(BH, FieldParams(q=1.0, m=1.0, l=0))

    def test_uncharged_massless_edge(self):
        assert no_superradiance_threshold(BH, FieldParams(q=0.0, m=0.0, l=0))

    def test_threshold_value(self):
        eps = 1e-12
        assert no_superradiance_threshold(BH, FieldParams(q=1.0, m=QQ_OVER_RPLUS + eps, l=0))
        assert not no_superradiance_threshold(BH, FieldParams(q=1.0, m=QQ_OVER_RPLUS - 1e-6, l=0))


def test_grid_validation():
    with pytest.raises(ValueError):
        toy_potentials(ToyParams(alpha=1.0, smoothing=1.0), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        toy_potentials(ToyParams(alpha=1.0, smoothing=1.0), np.array([1.0]))


def test_field_params_validation():
    with pytest.raises(ValueError):
        FieldParams(q=1.0, m=-0.1)
    with pytest.raises(ValueError):
        FieldParams(q=1.0, m=0.1, l=-1)


def _scipy_modules(code: str) -> list[str]:
    """The scipy modules a fresh interpreter has imported after running ``code``."""
    src = str(Path(ergosim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code += (
        "\nimport sys"
        "\nprint(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs a quarter second at start-up; the CLI must not pay for it
    assert "scipy.optimize" not in _scipy_modules("import ergosim.cli")


def test_ergosphere_boundary_leaves_scipy_optimize_unloaded():
    assert "scipy.optimize" not in _scipy_modules(
        "import numpy as np\n"
        "from ergosim.potentials import effective_ergosphere_boundary, rn_potentials\n"
        "from ergosim.presets import REFERENCE_FIELD, REFERENCE_HOLE\n"
        "pp = rn_potentials(REFERENCE_HOLE, REFERENCE_FIELD, np.arange(-100.0, 100.0, 0.04))\n"
        "assert len(effective_ergosphere_boundary(pp)) == 1"
    )


def test_black_hole_step_loads_no_scipy():
    """A run's path, from the CLI import to a step, uses numpy's own LAPACK."""
    from ergosim import solver

    if solver._LAPACK.name != "ctypes":
        pytest.skip("this numpy bundles no OpenBLAS; LAPACK comes from scipy")
    assert _scipy_modules(
        "import ergosim.cli\n"
        "from ergosim.driver import prepare\n"
        "from ergosim.presets import get_preset\n"
        "from ergosim.solver import Stepper\n"
        "setup = prepare(get_preset('rn-flare').configs[0])\n"
        "state = Stepper(setup.grid, setup.pp, setup.bc).step(setup.state)\n"
        "assert state.t > 0.0"
    ) == []
