"""ergosim: time-domain simulator for charge-induced superradiance in 1D.

Integrates (∂t - iV(x))²φ - ∂x²φ + P(x)φ = 0 on a uniform grid with a
semi-implicit midpoint scheme, transparent or Dirichlet boundaries, and
geometric flux diagnostics that measure how much energy a wave extracts.
"""

from .config import ConfigError, SimConfig, SweepSpec, parse_config, serialize_config
from .diagnostics import (
    EnergyBreakdown,
    FluxProbe,
    GainSeries,
    PlateauSummary,
    energy_positive_zone,
    energy_total,
    modified_energy,
    plateau_summary,
)
from .driver import RunResult, run
from .geometry import (
    BlackHole,
    metric_f,
    metric_f_prime,
    radius_from_tortoise,
    sample_grid,
    tortoise,
)
from .initial_data import DataSpec, SupportError, build
from .potentials import (
    FieldParams,
    PotentialPair,
    ToyParams,
    effective_ergosphere_boundary,
    no_superradiance_threshold,
    rn_potentials,
    toy_potentials,
    uniform_potentials,
)
from .presets import get_preset, preset_names
from .solver import BoundaryMode, FieldState, Grid, Stepper

__version__ = "0.1.0"

__all__ = [
    "BlackHole",
    "BoundaryMode",
    "ConfigError",
    "DataSpec",
    "EnergyBreakdown",
    "FieldParams",
    "FieldState",
    "FluxProbe",
    "GainSeries",
    "Grid",
    "PlateauSummary",
    "PotentialPair",
    "RunResult",
    "SimConfig",
    "Stepper",
    "SupportError",
    "SweepSpec",
    "ToyParams",
    "build",
    "effective_ergosphere_boundary",
    "energy_positive_zone",
    "energy_total",
    "get_preset",
    "metric_f",
    "metric_f_prime",
    "modified_energy",
    "no_superradiance_threshold",
    "parse_config",
    "plateau_summary",
    "preset_names",
    "radius_from_tortoise",
    "rn_potentials",
    "run",
    "sample_grid",
    "serialize_config",
    "tortoise",
    "toy_potentials",
    "uniform_potentials",
]
