"""Limits of nearest-neighbor recurrence coefficients for Angelesco systems.

Three independent routes to the same four limit functions A1, A2, B1, B2 of
a two-interval Angelesco system:

- :mod:`angelesco.lattice`: finite-level sweep of the coefficient lattice
  from axis boundary data (approximation at a chosen level, with Richardson
  extrapolation),
- :mod:`angelesco.ode`: integration of the limiting ODE system from
  closed-form endpoint values,
- :mod:`angelesco.surface`: closed-form evaluation through a rational
  parametrization of the underlying spectral curve (the precision
  reference).

:mod:`angelesco.crossval` quantifies their agreement; the ``angelesco``
command line tool drives full runs and renders figures.
"""
from .crossval import compare, identity_checks, ode_residuals
from .errors import NumericalFailure
from .lattice import NnrrLattice, curve_from_lattice, solve_lattice
from .ode import (BoundaryPack, Branch, assemble_curve, boundary_values,
                  integrate_branch, solve_system)
from .orthopoly import AxisData, axis_data, mixed_ratios, scalar_recurrence
from .surface import (PlateauInfo, limit_curve, plateau_bounds, pushed_beta,
                      residue_limits, threshold_ray)
from .systems import (WEIGHT_KINDS, AffineMap, AngelescoSystem, Interval,
                      LimitCurve, StarConfig, pushforward_limits, reflect,
                      star_normalize)

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "AngelescoSystem", "AxisData", "BoundaryPack", "Branch",
    "Interval", "LimitCurve", "NnrrLattice", "NumericalFailure", "PlateauInfo",
    "StarConfig", "WEIGHT_KINDS", "assemble_curve", "axis_data",
    "boundary_values", "compare", "curve_from_lattice", "identity_checks",
    "integrate_branch", "limit_curve", "mixed_ratios", "ode_residuals",
    "plateau_bounds", "pushed_beta", "pushforward_limits", "reflect",
    "residue_limits", "scalar_recurrence", "solve_lattice", "solve_system",
    "star_normalize", "threshold_ray",
]
