"""Write the surface references the benchmark's accuracy gate compares against.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/make_refs.py

For each workload system this stores the surface-route curve on the
181-point grid at full double precision, together with its plateau window
and the hull length L of the two intervals.  A point is accepted as
reference only where the ODE route (the independent closed-ODE solve, at
its default settings) agrees with it to ACCEPT_TOL, measured as in the gate
(A over L^2, B over L).  Regenerate only on purpose: the gate measures every
later change against these files.
"""
import json

import numpy as np

from angelesco import AngelescoSystem, Interval, limit_curve, plateau_bounds, solve_system
from angelesco.systems import star_normalize

from run import FUNCS, REFS, WORKLOADS

ACCEPT_TOL = 1e-8
GRID_POINTS = 181


def reference(wl):
    system = AngelescoSystem(Interval(*wl.interval1), Interval(*wl.interval2))
    info = plateau_bounds(star_normalize(system)[0])
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    surf = limit_curve(system, grid, info)
    ode = solve_system(system, info, grid)
    length = max(wl.interval2) - min(wl.interval1)
    err = np.zeros(GRID_POINTS)
    for f in FUNCS:
        power = 2 if f[0] == "A" else 1
        err = np.maximum(err, np.abs(getattr(surf, f) - getattr(ode, f)) / length ** power)
    accepted = err <= ACCEPT_TOL
    return {"system": {"interval1": list(wl.interval1),
                       "interval2": list(wl.interval2)},
            "length": length, "c1": info.c1, "c2": info.c2,
            "accept_tol": ACCEPT_TOL, "ode_max_disagreement": float(err.max()),
            "accepted": accepted.tolist(), "s": grid.tolist(),
            **{f: getattr(surf, f).tolist() for f in FUNCS}}


def main():
    for name, wl in sorted(WORKLOADS.items()):
        ref = reference(wl)
        path = REFS / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(ref) + "\n", encoding="utf-8")
        print(f"{path}: {sum(ref['accepted'])}/{GRID_POINTS} points accepted, "
              f"ode disagreement {ref['ode_max_disagreement']:.2e}")


if __name__ == "__main__":
    main()
