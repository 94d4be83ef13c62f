"""The package surface: ``ergosim`` republishes every submodule's ``__all__``."""

from __future__ import annotations

from collections import Counter

import ergosim
from ergosim import config, diagnostics, driver, geometry, initial_data, potentials, presets, solver

MODULES = (config, diagnostics, driver, geometry, initial_data, potentials, presets, solver)

# The names the package listed by hand before it republished the submodules' lists.
HAND_LISTED = {
    "BlackHole", "BoundaryMode", "ConfigError", "DataSpec", "EnergyBreakdown", "FieldParams",
    "FieldState", "FluxProbe", "GainSeries", "Grid", "PlateauSummary", "PotentialPair",
    "RunResult", "SimConfig", "Stepper", "SupportError", "SweepSpec", "ToyParams", "build",
    "effective_ergosphere_boundary", "energy_positive_zone", "energy_total", "get_preset",
    "metric_f", "metric_f_prime", "modified_energy", "no_superradiance_threshold",
    "parse_config", "plateau_summary", "preset_names", "radius_from_tortoise", "rn_potentials",
    "run", "sample_grid", "serialize_config", "tortoise", "toy_potentials", "uniform_potentials",
}


def test_all_is_the_union_of_the_submodules_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert not [name for name, n in Counter(listed).items() if n > 1]
    assert sorted(ergosim.__all__) == sorted(listed)


def test_every_name_is_its_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ergosim, name) is getattr(module, name), (module.__name__, name)


def test_no_hand_listed_name_is_lost():
    assert HAND_LISTED <= set(ergosim.__all__)
    assert ergosim.load_config is config.load_config


def test_star_import_gives_the_listed_names():
    namespace: dict = {}
    exec("from ergosim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ergosim.__all__)
