"""Three routes to the same limit curve, shown on a touching pair.

Computes the recurrence-coefficient limits for measures on [-2, 0] and
[0, 1] by the finite-level lattice sweep, the ODE integration, and the
closed-form surface evaluation, prints how far apart they are, and renders
the overlay as an SVG.
"""
from pathlib import Path

import numpy as np

from angelesco import AngelescoSystem, Interval, star_normalize
from angelesco.lattice import curve_from_lattice, solve_lattice
from angelesco.ode import solve_system
from angelesco.surface import limit_curve, plateau_bounds
from angelesco.svgfig import render_panels

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

system = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0))
star, _ = star_normalize(system)
info = plateau_bounds(star)
print(f"star frame: alpha={star.alpha:g} beta={star.beta:g}")
print(f"threshold ray (both supports full): s = {info.c1:.12f}")

grid = np.linspace(0.0, 1.0, 181)

# route 1: sweep the coefficient lattice to level 1500 and read the
# diagonal along each ray
lattice = solve_lattice(system, 1500)
dis = curve_from_lattice(lattice, grid)
print(f"lattice axis-consistency residual: {lattice.max_residual():.2e}")

# route 2: integrate the limiting ODE forward from s = 0 up to the
# threshold ray; the part next to s = 1 is the reflected system's
# forward branch, read back through the mirror
ode = solve_system(system, info, grid)

# route 3: closed forms from the rational surface parametrization
surface = limit_curve(system, grid, info=info)

for name, curve in (("lattice", dis), ("ode", ode)):
    worst = max(np.max(np.abs(getattr(curve, f) - getattr(surface, f)))
                for f in ("A1", "A2", "B1", "B2"))
    print(f"max |{name} - surface| over the grid: {worst:.3e}")

print("\nendpoint values (exact closed forms):")
print(f"  s=0: A2={surface.A2[0]:.10f}  B1={surface.B1[0]:.10f}"
      f"  B2={surface.B2[0]:.10f}")
print(f"  s=1: A1={surface.A1[-1]:.10f}  B1={surface.B1[-1]:.10f}"
      f"  B2={surface.B2[-1]:.10f}")

svg = render_panels((dis, ode, surface), ["lattice m=1500", "ode", "surface"])
target = out_dir / "touching_limits.svg"
target.write_text(svg, encoding="utf-8")
print(f"\nwrote {target}")
