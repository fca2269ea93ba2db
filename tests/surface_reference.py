"""The surface route with every stage solved on its own: a reference for
:func:`angelesco.surface.limit_curve`.

Each configuration point's x0 is a scalar bisection of its own, and each
off-plateau zone a ray bisection and a residue call of its own, with the
zone's alpha and bracket top as scalars.  The route bisects the four
configuration points together and both zones together, but every step is
the same elementwise arithmetic and bisection finishes each element on its
own, so the two must agree bit for bit.  The guards are left out: they
decide whether an answer is given, not its bits.
"""
import numpy as np

from angelesco.rootfind import bisect, expand_upper
from angelesco.surface import (edge_d, level_set_w, ray_gaps, residue_limits,
                               solve_w)
from angelesco.systems import (LimitCurve, check_grid, plateau_zones,
                               pushforward_limits, star_normalize)


def x0(w, alpha):
    """x0 of the one configuration point (w, alpha), one scalar bisection."""
    d1 = edge_d(alpha)
    f = lambda x: (x * (x + 2.0 * d1 + 2.0)
                   - w * (alpha / (d1 + x) + 2.0 * alpha - (d1 + x)))
    return bisect(f, 0.0, expand_upper(f, 0.0, 1.0 + np.sqrt(3.0 * alpha)))


def zone(alpha, s, t):
    """(w, d) of the rays (s, t) of one frame, one bisection on
    [0, x0(1, alpha)]."""
    upper = s >= t

    def f(x):
        minus, plus = ray_gaps(*level_set_w(alpha, edge_d(alpha), x))
        return np.where(upper, 2.0 * t - minus, plus - 2.0 * s)

    x = bisect(f, np.zeros(s.shape), np.full(s.shape, x0(1.0, alpha)))
    return level_set_w(alpha, edge_d(alpha), x)


def edge(w, alpha):
    """The ray (s, 1 - s) of the configuration point (w, alpha)."""
    minus, plus = ray_gaps(w, edge_d(alpha) + x0(w, alpha))
    return float(plus) / 2.0, float(minus) / 2.0


def window(sc):
    """(w, c1, c2, 1 - c2) of the star configuration ``sc``."""
    w = solve_w(sc)
    c2, one_minus_c2 = edge(w, sc.alpha)
    c1 = c2 if sc.beta == 0.0 else edge(w, sc.reflected()[0].alpha)[1]
    return w, c1, c2, one_minus_c2


def reference_curve(sys, grid):
    """The surface limit curve of ``sys`` on ``grid``, zone by zone."""
    grid = check_grid(grid)
    sc, amap = star_normalize(sys)
    w, c1, c2, _ = window(sc)
    left, plat, right = plateau_zones(grid, c1, c2)
    star = np.zeros((4, grid.size))
    plateau = residue_limits(sc.alpha, w, edge_d(sc.alpha) + x0(w, sc.alpha))
    star[:, plat] = np.reshape([float(v) for v in plateau], (4, 1))
    if np.any(right):
        s = grid[right]
        star[:, right] = residue_limits(sc.alpha, *zone(sc.alpha, s, 1.0 - s))
    if np.any(left):
        sc_hat, back_map = sc.reflected()
        s = grid[left][::-1]
        hat = LimitCurve(1.0 - s, *residue_limits(
            sc_hat.alpha, *zone(sc_hat.alpha, 1.0 - s, s)))
        back = pushforward_limits(hat, back_map)
        star[:, left] = back.A1, back.A2, back.B1, back.B2
    return pushforward_limits(LimitCurve(grid.copy(), *star, "surface"), amap)
