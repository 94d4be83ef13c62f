"""The exact discrete energy balance of the midpoint scheme.

With interior nodes j = 1 … n-2 and every edge of the grid,

    E_h = h Σ_j ½(|v_j + iV_j u_j|² + (P_j - V_j²)|u_j|²)
          + (1/2h) Σ_{j=0}^{n-2} |u_{j+1} - u_j|².

Write ū = (uⁿ + uⁿ⁺¹)/2 and Δu = uⁿ⁺¹ - uⁿ.  Summation by parts, and the
midpoint rule carrying a quadratic form exactly, make one unsplit step change
E_h by exactly F_L + F_R, whatever the boundary rows do:

    F_L = -(1/h) Re[conj(ū₁ - ū₀) Δu₀],
    F_R = (1/h) Re[conj(ū_{n-1} - ū_{n-2}) Δu_{n-1}].

So R(t) = E_h(t) - E_h(0) - Σ(F_L + F_R) is roundoff on unsplit runs, and the
Strang splitting's O(dt²) energy error on split ones.  It does not see
boundary reflection: F_L and F_R are exact for whatever the closure does.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ergosim.driver import prepare
from ergosim.presets import get_preset
from ergosim.solver import Grid, Stepper

_CHECK_EVERY = 25  # steps between evaluations of R


def discrete_energy(u, v, pp, h):
    inner = slice(1, -1)
    vv, p, ui = pp.v[inner], pp.p[inner], u[inner]
    bulk = 0.5 * (np.abs(v[inner] + 1j * vv * ui) ** 2 + (p - vv**2) * np.abs(ui) ** 2)
    return h * bulk.sum() + np.sum(np.abs(np.diff(u)) ** 2) / (2.0 * h)


def boundary_work(u_old, u_new, h):
    """F_L + F_R of one step."""
    mid = 0.5 * (u_old + u_new)
    f_left = -(np.conj(mid[1] - mid[0]) * (u_new[0] - u_old[0])).real / h
    f_right = (np.conj(mid[-1] - mid[-2]) * (u_new[-1] - u_old[-1])).real / h
    return f_left + f_right


def balance(cfg):
    """(max |R| over every 25th step and the last, E_h(0), whether the run splits)."""
    setup = prepare(cfg)
    stepper = Stepper(setup.grid, setup.pp, setup.bc)
    h, pp, state = setup.grid.h, setup.pp, setup.state
    e0 = discrete_energy(state.u, state.v, pp, h)
    work, worst = 0.0, 0.0
    for k in range(1, cfg.n_steps + 1):
        new = stepper.step(state)
        work += boundary_work(state.u, new.u, h)
        state = new
        if k % _CHECK_EVERY == 0 or k == cfg.n_steps:
            r = discrete_energy(state.u, state.v, pp, h) - e0 - work
            worst = max(worst, abs(r))
    return worst, e0, stepper.splitting


def _unsplit_runs():
    runs = []
    for name in ("free-wave-bc", "charged-wave-bc", "split-wave-bc"):
        for cfg in get_preset(name).configs:
            # split-wave-bc's transparent run splits (P = 0.2); the rest do not
            if not (name == "split-wave-bc" and cfg.label == "transparent"):
                runs.append(pytest.param(cfg, id=f"{name}-{cfg.label}"))
    toy = get_preset("toy-smoothing-sweep").configs
    runs += [pytest.param(cfg, id=f"toy-{cfg.label}") for cfg in toy[:2]]  # L = 0, 0.5
    return runs


@pytest.mark.parametrize("cfg", _unsplit_runs())
def test_unsplit_step_balances_energy_to_roundoff(cfg):
    worst, e0, split = balance(cfg)
    assert not split
    # measured at most 1.5e-12 (toy L = 0, where about 20 E₀ passes through)
    assert worst / e0 <= 1e-11


def test_split_energy_error_is_second_order_in_dt():
    transparent = get_preset("split-wave-bc").configs[0]
    cfg = replace(transparent, data=replace(transparent.data, omega=4.0))
    worst = []
    for dt in (0.04, 0.02):  # dt = h and h/2
        r, _, split = balance(replace(cfg, grid=Grid(-5.0, 5.0, 0.04, dt)))
        assert split
        worst.append(r)
    # measured 4.10e-5 -> 1.03e-5 of E₀
    assert 3.5 <= worst[0] / worst[1] <= 4.5
