"""ergosim: time-domain simulator for charge-induced superradiance in 1D.

Integrates (∂t - iV(x))²φ - ∂x²φ + P(x)φ = 0 on a uniform grid with a
semi-implicit midpoint scheme, transparent or Dirichlet boundaries, and
geometric flux diagnostics that measure how much energy a wave extracts.

Every name a submodule lists in its ``__all__`` is importable from here.
"""

from . import config, diagnostics, driver, geometry, initial_data, potentials, presets, solver
from .config import *
from .diagnostics import *
from .driver import *
from .geometry import *
from .initial_data import *
from .potentials import *
from .presets import *
from .solver import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (config, diagnostics, driver, geometry, initial_data, potentials, presets, solver)
    for name in module.__all__
]
