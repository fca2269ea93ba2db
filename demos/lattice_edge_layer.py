"""The lattice's error next to the plateau window, against level and distance.

Near the window edges c1 and c2 (the threshold ray c = c1 = c2 on a
touching system) the finite-level lattice stops following the series in
1/m that its Richardson table assumes.  This script measures that edge
layer: at each edge and at the distances d = 0.01, 0.02, 0.05 and 0.1 off
it, away from the window, it prints the error of the top level alone and
of the table against the surface route, at the levels 256, 512, 1024 and
2048, as the largest over A1, A2 (over L^2) and B1, B2 (over L), with L
the hull length.  One sweep per system to 2048 reads all four levels: a
sweep is the first levels of any deeper one, bit for bit.  At each edge
ray it also prints the observed exponent p of e(m) ~ m^(-p) between 256
and 2048.  At a gap edge the error falls like m^(-2/3), an Airy-type soft
edge; off the edge the table recovers its order once m d is large.  The
script writes no file.
"""
import math

import numpy as np

from angelesco import AngelescoSystem, Interval, star_normalize
from angelesco.crossval import FUNCS
from angelesco.lattice import curve_from_lattice, solve_lattice
from angelesco.surface import limit_curve, plateau_bounds

LEVELS = (256, 512, 1024, 2048)
DISTANCES = (0.1, 0.05, 0.02, 0.01)
SYSTEMS = {"gap": ((-2.0, 0.0), (0.25, 1.0)),
           "touching": ((-2.0, 0.0), (0.0, 1.0))}
WEIGHTS = (("chebyshev2", "chebyshev2"), ("chebyshev1", "uniform"))


def points(c1, c2):
    """(label, s) of the edges and the points d off them, outside the
    window, in increasing s; a touching system's one edge is c."""
    n1, n2 = ("c1", "c2") if c2 > c1 else ("c", "c")
    edges = [(n1, c1), (n2, c2)] if c2 > c1 else [(n1, c1)]
    return ([(f"{n1}-{d}", c1 - d) for d in DISTANCES] + edges
            + [(f"{n2}+{d}", c2 + d) for d in reversed(DISTANCES)])


def scaled_errors(curve, ref, length):
    """The error at each point, the largest over A/L^2 and B/L."""
    scales = (length * length,) * 2 + (length,) * 2
    return np.max([np.abs(getattr(curve, f) - getattr(ref, f)) / scale
                   for f, scale in zip(FUNCS, scales)], axis=0)


print("error against the surface in A/L^2 and B/L: the top level, then the "
      "table, at levels " + ", ".join(map(str, LEVELS)))
for name, (i1, i2) in SYSTEMS.items():
    for w1, w2 in WEIGHTS:
        system = AngelescoSystem(Interval(*i1), Interval(*i2), w1, w2)
        info = plateau_bounds(star_normalize(system)[0])
        labels, grid = zip(*points(info.c1, info.c2))
        grid = np.array(grid)
        ref = limit_curve(system, grid, info=info)
        length = system.hull_length
        top, table = {}, {}

        def read(lat):
            if lat.m in LEVELS:
                for errs, extrapolate in ((top, False), (table, True)):
                    errs[lat.m] = scaled_errors(
                        curve_from_lattice(lat, grid, extrapolate), ref,
                        length)
            return False

        solve_lattice(system, LEVELS[-1], read)
        print(f"\n{name} {w1}/{w2}: window [{info.c1:.6f}, {info.c2:.6f}]")
        print(f"{'point':>9} " + " ".join(f"{m:>8}" for m in LEVELS)
              + "  | " + " ".join(f"{m:>8}" for m in LEVELS))
        for i, label in enumerate(labels):
            print(f"{label:>9} "
                  + " ".join(f"{top[m][i]:8.1e}" for m in LEVELS) + "  | "
                  + " ".join(f"{table[m][i]:8.1e}" for m in LEVELS))
        span = math.log(LEVELS[-1] / LEVELS[0])
        for i in np.flatnonzero((grid == info.c1) | (grid == info.c2)):
            p_top, p_table = (math.log(e[LEVELS[0]][i] / e[LEVELS[-1]][i])
                              / span for e in (top, table))
            print(f"observed exponent at {labels[i]}, {LEVELS[0]} to "
                  f"{LEVELS[-1]}: top level {p_top:.2f}, table {p_table:.2f}")
