"""How fast the finite-level lattice approaches its limit.

Sweeps the coefficient lattice once to the largest level, reads the
diagonal ray values at s = 1/2 at each smaller level from its kept diagonals,
measures their error against the closed-form surface reference, and shows
the gain from the third-order Richardson table over the top levels 5m/8,
6m/8, 7m/8 and m.  The plain error decays like 1/m, so each doubling of the
level should roughly halve it; the table's error decays like 1/m^4.
"""
import numpy as np

from angelesco import AngelescoSystem, Interval
from angelesco.crossval import convergence_study

system = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0))
levels = (100, 200, 400, 800, 1600)
table = convergence_study(system, 0.5, levels)

print(f"reference at s=0.5: A1={table.reference[0]:.10f} "
      f"A2={table.reference[1]:.10f}")
print(f"{'level':>6} {'plain error':>12} {'ratio':>6} "
      f"{'extrapolated':>13} {'gain':>10}")
plain = table.max_plain()
extra = table.max_extrapolated()
for i, m in enumerate(levels):
    ratio = f"{plain[i - 1] / plain[i]:5.2f}" if i else "    -"
    gain = plain[i] / extra[i]
    print(f"{m:>6} {plain[i]:>12.3e} {ratio:>6} {extra[i]:>13.3e} "
          f"{gain:>9.0f}x")
