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
from .crossval import (ComparisonReport, ConvergenceTable, IdentityReport,
                       ResidualReport, compare, convergence_study,
                       identity_checks, ode_residuals)
from .errors import NumericalFailure
from .lattice import NnrrLattice, curve_from_lattice, ray_limit, solve_lattice
from .ode import (BoundaryPack, Branch, assemble_curve, boundary_values,
                  integrate_branch, solve_system)
from .orthopoly import (AxisData, QuadratureRule, ScalarRecurrence, axis_data,
                        gauss_nodes, mixed_ratios, scalar_recurrence)
from .surface import (PlateauInfo, limit_curve, limits_at, plateau_bounds,
                      pushed_beta, residue_limits, threshold_ray)
from .systems import (WEIGHT_KINDS, AffineMap, AngelescoSystem, Interval,
                      LimitCurve, LimitPoint, StarConfig, pushforward_limits,
                      reflect, star_normalize)

__version__ = "0.1.0"

__all__ = [
    "AffineMap", "AngelescoSystem", "AxisData", "BoundaryPack", "Branch",
    "ComparisonReport", "ConvergenceTable", "IdentityReport", "Interval",
    "LimitCurve", "LimitPoint", "NnrrLattice", "NumericalFailure",
    "PlateauInfo", "QuadratureRule", "ResidualReport", "ScalarRecurrence",
    "StarConfig", "WEIGHT_KINDS",
    "assemble_curve", "axis_data", "boundary_values", "compare",
    "convergence_study",
    "curve_from_lattice", "gauss_nodes", "identity_checks",
    "integrate_branch", "limit_curve", "limits_at", "mixed_ratios",
    "ode_residuals", "plateau_bounds", "pushed_beta", "pushforward_limits",
    "ray_limit", "reflect", "residue_limits", "scalar_recurrence",
    "solve_lattice", "solve_system", "star_normalize", "threshold_ray",
]
