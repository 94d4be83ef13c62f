"""Background geometry: metric function, horizons, tortoise map and its inverse."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergosim.geometry import (
    _Y_FLOOR,
    BlackHole,
    _solve_y,
    metric_f,
    metric_f_prime,
    radius_from_tortoise,
    sample_grid,
    tortoise,
)

BH = BlackHole(mass=2.001, charge=2.0)

# high-precision evaluations of the closed forms at the binary double inputs
RSTAR_10 = 17.820226312294436359
F_AT_3 = 0.11044444444444451787


def test_horizons_and_surface_gravities():
    assert BH.r_plus == pytest.approx(2.0642534584034703, rel=1e-14)
    assert BH.r_minus == pytest.approx(1.9377465415965297, rel=1e-14)
    assert BH.r_plus > BH.r_minus > 0.0
    assert BH.kappa_plus > 0.0 > BH.kappa_minus
    assert BH.kappa_plus == pytest.approx(
        (BH.r_plus - BH.r_minus) / BH.r_plus**2, rel=1e-15
    )


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BlackHole(mass=2.0, charge=2.0)  # extreme
    with pytest.raises(ValueError):
        BlackHole(mass=1.0, charge=2.0)  # super-extremal
    with pytest.raises(ValueError):
        BlackHole(mass=1.0, charge=0.0)
    with pytest.raises(ValueError):
        BlackHole(mass=-1.0, charge=0.5)


def test_metric_f_values():
    # horizon limit
    assert metric_f(BH, BH.r_plus * (1.0 + 1e-15)) == pytest.approx(0.0, abs=1e-12)
    # asymptotic flatness
    assert metric_f(BH, 1e9) == pytest.approx(1.0, abs=1e-8)
    # closed-form spot value 1 - 4.002/3 + 4/9
    assert metric_f(BH, 3.0) == pytest.approx(F_AT_3, rel=1e-12)


def test_metric_f_domain_error():
    with pytest.raises(ValueError):
        metric_f(BH, BH.r_plus)
    with pytest.raises(ValueError):
        tortoise(BH, 0.5 * BH.r_plus)
    with pytest.raises(ValueError):
        metric_f_prime(BH, np.array([3.0, 1.0]))


def test_metric_f_prime_positive_outside_horizon():
    r = np.geomspace(BH.r_plus * (1 + 1e-12), 1e6, 200)
    assert np.all(metric_f_prime(BH, r) > 0.0)


def test_surface_gravity_matches_finite_difference():
    # one-sided Richardson difference of F at the horizon (F(r+) = 0)
    h = 1e-7 * BH.r_plus
    fd = (4.0 * metric_f(BH, BH.r_plus + h) - metric_f(BH, BH.r_plus + 2 * h)) / (2.0 * h)
    assert fd == pytest.approx(BH.kappa_plus, rel=1e-6)


def test_tortoise_monotone_and_regression_value():
    r = np.geomspace(BH.r_plus * (1 + 1e-10), 1e5, 400)
    rs = tortoise(BH, r)
    assert np.all(np.diff(rs) > 0.0)
    assert tortoise(BH, 10.0) == pytest.approx(RSTAR_10, rel=1e-13)


def test_tortoise_tracks_radius_at_infinity():
    r = 1e4 * BH.mass
    assert abs(tortoise(BH, r) / r - 1.0) < 0.01


def test_tortoise_offset_is_additive():
    shifted = BlackHole(mass=2.001, charge=2.0, r0=3.5)
    assert tortoise(shifted, 7.0) == pytest.approx(tortoise(BH, 7.0) + 3.5, rel=1e-14)


def test_radius_round_trip_through_radius():
    for r in (BH.r_plus + 1e-6, 3.0, 100.0):
        back = radius_from_tortoise(BH, tortoise(BH, r))
        assert back == pytest.approx(r, rel=1e-10)


def test_tortoise_round_trip_through_coordinate():
    # through the plain radius: exact wherever r - r+ carries enough bits
    x = np.concatenate([np.linspace(-200.0, 1e5, 301), [1e6]])
    r = radius_from_tortoise(BH, x)
    err = np.abs(tortoise(BH, r) - x) / np.maximum(1.0, np.abs(x))
    assert err.max() < 1e-12


def test_tortoise_round_trip_deep_throat_via_delta():
    # near the horizon the double r cannot carry r - r+, but the separately
    # propagated offset delta can: rebuild r* from it and check the residual
    x = np.linspace(-20000.0, -200.0, 60)
    g = sample_grid(BH, x)
    rstar = (
        (BH.r_plus + g.delta)
        + np.log(g.delta) / BH.kappa_plus
        + np.log(g.delta + BH.r_plus - BH.r_minus) / BH.kappa_minus
    )
    assert np.max(np.abs(rstar - x) / np.abs(x)) < 1e-12


def test_radius_from_tortoise_horizon_asymptote():
    # r - r+ ~ (r+ - r-)^(r-^2/r+^2) e^(-kappa+ (r+ + r0)) e^(kappa+ x)
    x = -200.0
    g = sample_grid(BH, np.array([x]))
    predicted = (
        (BH.r_plus - BH.r_minus) ** (BH.r_minus**2 / BH.r_plus**2)
        * np.exp(-BH.kappa_plus * (BH.r_plus + BH.r0))
        * np.exp(BH.kappa_plus * x)
    )
    assert g.delta[0] / predicted == pytest.approx(1.0, abs=0.01)


def test_radius_from_tortoise_far_field():
    x = 1e6
    assert radius_from_tortoise(BH, x) == pytest.approx(x, rel=0.01)


def test_deep_throat_clamps_instead_of_failing():
    g = sample_grid(BH, np.array([-1e6, 0.0]))
    assert g.clamped[0] and not g.clamped[1]
    assert g.delta[0] > 0.0
    assert g.f[0] > 0.0
    # plain radius stays strictly outside the horizon
    assert radius_from_tortoise(BH, -1e6) > BH.r_plus


def _radius_from_tortoise_reference(bh, x):
    # the inversion as it was written before it went through sample_grid
    x = np.asarray(x, dtype=float)
    y = _solve_y(bh, np.atleast_1d(x))
    r = bh.r_plus + np.exp(np.maximum(y, _Y_FLOOR))
    r = np.maximum(r, np.nextafter(bh.r_plus, np.inf))
    r = r.reshape(x.shape)
    return r if r.ndim else float(r)


def test_radius_from_tortoise_matches_reference_inversion():
    # clamped throat nodes, the r+ + e^y -> r+ rounding range, and the far field
    x = np.concatenate([
        [-1e6, -2e5, -1e5],
        np.linspace(-20000.0, -200.0, 1001),
        np.linspace(-200.0, 1e5, 4001),
    ])
    assert sample_grid(BH, x).clamped[:2].all()
    assert np.array_equal(radius_from_tortoise(BH, x), _radius_from_tortoise_reference(BH, x))
    grid2d = x.reshape(-1, 5)
    assert np.array_equal(
        radius_from_tortoise(BH, grid2d), _radius_from_tortoise_reference(BH, grid2d)
    )
    for xi in (-1e6, -300.0, 0.0, 7.5):
        assert radius_from_tortoise(BH, xi) == _radius_from_tortoise_reference(BH, xi)


def test_metric_f_monotone_on_grid():
    x = np.linspace(-400.0, 400.0, 2001)
    g = sample_grid(BH, x)
    assert np.all(g.f > 0.0)
    assert np.all(g.f <= 1.0)
    assert np.all(np.diff(g.f) > 0.0)


def test_sample_grid_matches_pointwise_functions():
    x = np.linspace(-50.0, 50.0, 101)
    g = sample_grid(BH, x)
    assert np.allclose(g.f, metric_f(BH, g.r), rtol=1e-11, atol=1e-13)
    assert np.allclose(g.f_prime, metric_f_prime(BH, g.r), rtol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    mass=st.floats(0.5, 50.0),
    ratio=st.floats(0.05, 0.999),
    delta_exp=st.floats(-11.0, 4.0),
    r0=st.floats(-5.0, 5.0),
)
def test_inverse_round_trips_from_any_representable_radius(mass, ratio, delta_exp, r0):
    bh = BlackHole(mass=mass, charge=mass * ratio, r0=r0)
    r = bh.r_plus * (1.0 + 10.0**delta_exp)
    back = radius_from_tortoise(bh, tortoise(bh, r))
    assert back > bh.r_plus
    assert back == pytest.approx(r, rel=1e-10)
