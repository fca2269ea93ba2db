"""The plateau of a non-touching pair and its branch structure.

With a gap between the supports ([-2, 0] and [0.25, 1]) the limit
functions are constant on a middle window [c1, c2] of ray parameters.
Left and right of the window the curve follows two different touching
systems: the forward branch continues the system whose gap is closed from
the right, the backward branch the one closed from the left.  The script
verifies both continuations numerically and writes the assembled curve to
CSV.
"""
from pathlib import Path

import numpy as np

from angelesco import AngelescoSystem, Interval, star_normalize
from angelesco.cli import write_curve_csv
from angelesco.ode import solve_system
from angelesco.surface import limit_curve, plateau_bounds

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

system = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.25, 1.0))
info = plateau_bounds(star_normalize(system)[0])
print(f"plateau window: [{info.c1:.10f}, {info.c2:.10f}]")
# the window holds no limit values: the surface curve evaluates them
mid = 0.5 * (info.c1 + info.c2)
inside = limit_curve(system, [mid], info=info)
print(f"constant values inside (s = {mid:.4f}): A1={inside.A1[0]:.8f} "
      f"A2={inside.A2[0]:.8f} B1={inside.B1[0]:.8f} B2={inside.B2[0]:.8f}")

grid = np.linspace(0.0, 1.0, 181)
assembled = solve_system(system, info, grid)

# forward branch (s <= c1) vs the touching system sharing the edges at s=0
keep = grid <= info.c1
closed_right = AngelescoSystem(Interval(-2.0, 0.25), Interval(0.25, 1.0))
ref = limit_curve(closed_right, grid[keep],
                  info=plateau_bounds(star_normalize(closed_right)[0]))
worst = max(np.max(np.abs(getattr(assembled, f)[keep] - getattr(ref, f)))
            for f in ("A1", "A2", "B1", "B2"))
print(f"forward branch vs touching [-2,0.25],[0.25,1]: {worst:.3e}")

# backward branch (s >= c2) vs the touching system sharing the edges at s=1
keep = grid >= info.c2
closed_left = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0))
ref = limit_curve(closed_left, grid[keep],
                  info=plateau_bounds(star_normalize(closed_left)[0]))
worst = max(np.max(np.abs(getattr(assembled, f)[keep] - getattr(ref, f)))
            for f in ("A1", "A2", "B1", "B2"))
print(f"backward branch vs touching [-2,0],[0,1]:     {worst:.3e}")

target = out_dir / "pushed_plateau.csv"
write_curve_csv(target, assembled)
print(f"wrote {target}")
