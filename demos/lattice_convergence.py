"""How fast the finite-level lattice approaches its limit.

Sweeps the coefficient lattice once per level, reads the diagonal ray
values at s = 1/2 from each sweep, measures their error against the
closed-form surface reference, and shows the gain from the third-order
Richardson table over the top levels 5m/8, 6m/8, 7m/8 and m.  A sweep is
the first levels of any deeper sweep, bit for bit, so one sweep per level
reads what one deep sweep would.  The plain error decays like 1/m, so each
doubling of the level should roughly halve it; the table's error decays
like 1/m^4.
"""
import numpy as np

from angelesco import AngelescoSystem, Interval
from angelesco.crossval import FUNCS
from angelesco.lattice import curve_from_lattice, solve_lattice
from angelesco.surface import limit_curve


def ray_values(curve):
    return np.array([getattr(curve, f)[0] for f in FUNCS])


system = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0))
levels = (100, 200, 400, 800, 1600)
ref = ray_values(limit_curve(system, [0.5]))
plain, extra = [], []
for m in levels:
    lat = solve_lattice(system, m)
    for errs, extrapolate in ((plain, False), (extra, True)):
        cv = curve_from_lattice(lat, [0.5], extrapolate)
        errs.append(np.abs(ray_values(cv) - ref).max())

print(f"reference at s=0.5: A1={ref[0]:.10f} A2={ref[1]:.10f}")
print(f"{'level':>6} {'plain error':>12} {'ratio':>6} "
      f"{'extrapolated':>13} {'gain':>10}")
for i, m in enumerate(levels):
    ratio = f"{plain[i - 1] / plain[i]:5.2f}" if i else "    -"
    gain = plain[i] / extra[i]
    print(f"{m:>6} {plain[i]:>12.3e} {ratio:>6} {extra[i]:>13.3e} "
          f"{gain:>9.0f}x")
