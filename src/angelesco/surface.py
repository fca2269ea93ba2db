"""Recurrence limits from a rational parametrization of the spectral curve.

For a star-frame configuration [-alpha, 0] u [beta, 1] the limiting
recurrence coefficients at ray parameter s come from a genus-zero algebraic
surface with uniformizing coordinates (u, tau).  Both live just above 1 and
crowd together as alpha -> 0 or s -> 1, so the route works in the small
unknowns w = u - 1 in (0, 1] and d = tau - 1 > 0 instead.  w is pinned down
by the gap invariant of the configuration, d by the alpha level set of the
surface.  Along a ray the level set is linear in w, so w is eliminated
explicitly and each ray off the plateau costs one bisection in x = d - d1,
where w = 0 at d1 is the ray s = 1.  w is a product of x and the ray is
read as its exact distance to the nearer end, so rays keep their digits up
to the ends.  The partial-fraction residues of the uniformizing map read
that (w, d) directly, with the two other preimages of infinity from a
quadratic, and give the limits in closed form.  Every difference a residue
divides by, or that goes to zero, is written as a product or sum of
positive terms, so tau1 < 0 < tau2 < tau0 and A >= 0 hold by construction.
This route is the precision reference for the lattice and ODE methods:
every root solve is plain bisection run to adjacent doubles and all
formulas are explicit.  It reads nothing of the ODE route, not even its
closed-form endpoint values: the end rays s = 0 and s = 1 are solved like
every other ray.

The configuration solves are scalar.  :func:`solve_w` runs once per
system: w is a cross-ratio of the four interval ends, so the reflected
configuration shares it.  :func:`solve_d0` runs once per (w, alpha), cached
for the process, so the plateau, the threshold ray and the ray brackets of
:func:`pushed_beta` share it.  Every ray, the plateau edges included, is
the pair (s, 1 - s) of exact end distances.  The rays and the coordinate
maps are elementwise numpy functions, so whole grids go through one call.
"""
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalFailure
from .rootfind import bisect, expand_upper
from .systems import (AffineMap, LimitCurve, LimitPoint, check_grid,
                      plateau_zones, pushforward_limits, reflect,
                      star_normalize, validate_computed)

# ---------------------------------------------------------------------------
# coordinate functions of the parametrization
# ---------------------------------------------------------------------------

def beta_coord(alpha, w):
    """Right interval gap of the configuration with left length alpha at w.

    The gap invariant is g = (1 + w)(1 - w)^3 / (1 + 2w)^3 with
    1 - g = w (2 + w)^3 / (1 + 2w)^3, and beta = alpha g / (alpha + 1 - g).
    """
    return (alpha * (1.0 + w) * (1.0 - w) ** 3
            / (alpha * (1.0 + 2.0 * w) ** 3 + w * (2.0 + w) ** 3))


def edge_d(alpha):
    """d0 at w -> 0: the root of d^2 + 2d - alpha, without cancellation."""
    return alpha / (1.0 + np.sqrt(1.0 + alpha))


def level_set_w(alpha, x):
    """(w, d) on the alpha level set at d = d1 + x, w explicit in x >= 0.

    The level-set cubic of :func:`solve_d0` is linear in w; its solution is
    d (d^2 + 2d - alpha) / (alpha (1 + 2d) - d^2).  Its first factor splits
    at its root d1 = :func:`edge_d` into x (x + 2 d1 + 2), so w -> 0 at
    x = 0 is a product of x and keeps its digits however small x is.
    """
    d1 = edge_d(alpha)
    d = d1 + x
    return x * d * (x + 2.0 * d1 + 2.0) / (alpha * (1.0 + 2.0 * d) - d * d), d


def ray_gaps(w, d):
    """(1 - theta, 1 + theta) of a surface point, each without cancellation.

    theta = 2s - 1 = (d - w) sqrt((2 + E) / q), E = w + d + 2wd and
    q = E (2 + w + d)(w + d).  1 - theta^2 = 8 w d (1 + w)(1 + d) / q, so the
    smaller of the two is that product over the larger, 1 + |theta|, and it
    keeps its digits where theta is within rounding of +-1.
    """
    e = w + d + 2.0 * w * d
    q = e * (2.0 + w + d) * (w + d)
    theta = (d - w) * np.sqrt((2.0 + e) / q)
    big = 1.0 + np.abs(theta)
    small = 8.0 * w * d * (1.0 + w) * (1.0 + d) / (q * big)
    up = theta > 0.0
    return np.where(up, small, big), np.where(up, big, small)


# ---------------------------------------------------------------------------
# parameter solves
# ---------------------------------------------------------------------------

def solve_w(alpha, beta):
    """Conformal parameter w in (0, 1] for the configuration (alpha, beta).

    beta = 0 (touching intervals) gives w = 1 exactly; otherwise w is the
    bisection root on [0, 1] of (1 + w)(1 - w)^3 - r w (2 + w)^3 with
    r = beta (1 + alpha) / (alpha (1 - beta)), the gap invariant's ratio
    g / (1 - g).  The first term falls from 1 to 0 and the second rises
    from 0, so the root is the one sign change.
    """
    if beta == 0.0:
        return 1.0
    r = beta * (1.0 + alpha) / (alpha * (1.0 - beta))
    return bisect(lambda x: (1.0 + x) * (1.0 - x) ** 3
                  - r * x * (2.0 + x) ** 3, 0.0, 1.0)


@lru_cache(maxsize=64)
def solve_d0(w, alpha):
    """Root d0 > 0 of the alpha level-set cubic at w, once per (w, alpha).

    d^3 + (w + 2) d^2 - alpha (1 + 2w) d - alpha w = 0 has coefficient signs
    (+, +, -, -) for w > 0 and alpha > 0, so exactly one root d > 0
    (Descartes' rule of signs), negative below it and positive above.  The
    cubic is -2 w d1 (1 + alpha) < 0 at d1 = :func:`edge_d`.  For w in
    (0, 1] it is at least d^3 + 2d^2 - 3 alpha d - alpha, which is
    U^3 + 2 alpha^2 + 5 alpha^(3/2) + alpha > 0 at U = 2 alpha + sqrt(alpha)
    (+inf, not NaN, in the Horner form where U overflows).  So [d1, U]
    brackets the root on its own scale for every alpha: :func:`expand_upper`
    confirms the sign without doubling, and the bisection needs no scan for
    a second crossing.  w <= 0 or alpha <= 0 (NaN included) raises
    ValueError.  The result is cached for the process.
    """
    if not (w > 0.0 and alpha > 0.0):
        raise ValueError(f"solve_d0 needs w > 0 and alpha > 0, "
                         f"got w={w}, alpha={alpha}")
    f = lambda d: ((d + (w + 2.0)) * d - alpha * (1.0 + 2.0 * w)) * d - alpha * w
    lo = edge_d(alpha)
    return bisect(f, lo, expand_upper(f, lo, 2.0 * alpha + np.sqrt(alpha)))


def infinity_preimages(w, d):
    """The other two preimages of infinity at (w, d), tau1 < 0 < tau2.

    Roots of Q(t) = t^2 + (w + d) t + p with p = -(1 + w)(1 + d)(w + d) / E,
    E = w + d + 2wd.  p < 0, so tau1 = -(w + d + sqrt(disc)) / 2 adds two
    negative terms without cancellation, and tau2 = p / tau1 by Vieta.
    """
    s = w + d
    p = -(1.0 + w) * (1.0 + d) * s / (s + 2.0 * w * d)
    t1 = -0.5 * (s + np.sqrt(s * s - 4.0 * p))
    return t1, p / t1


def residue_limits(alpha, w, d):
    """Closed-form limits (A1, A2, B1, B2) at the surface point (w, d).

    tau0 = 1 + d, gamma = 1 - w and tau1, tau2 from
    :func:`infinity_preimages`.  The differences the residues divide by
    come from Q(tau0) E = 2d(1 + d)(w(w + 2) + d(1 + 2w)) and
    Q(gamma) E = -2w^2 (1 + d)^2 with Q(t) = (t - tau1)(t - tau2), and
    tau0 - gamma = w + d, so each is a product or sum of positive terms.
    B = alpha tau0^2 N / (E (tau0 - tau1)^2 (tau0 - tau2)^2), with the
    numerator N = k0 + tau1 k1 for B1 and kt0 - (tau0 - tau2)(w + d) E for
    B2 reduced modulo Q.  Elementwise over arrays.
    """
    t1, t2 = infinity_preimages(w, d)
    s = w + d
    e = s + 2.0 * w * d
    t0 = 1.0 + d
    r = t2 - t1
    g1 = 1.0 - w - t1  # gamma - tau1
    d01 = t0 - t1  # tau0 - tau1
    d02 = 2.0 * d * t0 * (w * (w + 2.0) + d * (1.0 + 2.0 * w)) / (e * d01)
    g2 = 2.0 * (w * t0) ** 2 / (e * g1)  # tau2 - gamma
    ka = alpha * alpha * t0 * t0 * s / r
    a1 = ka * t1 * t1 * g1 / (d01 ** 4 * d02)
    a2 = ka * t2 * t2 * g2 / (d02 ** 4 * d01)
    kb = alpha * t0 * t0 / (e * d01 ** 2 * d02 ** 2)
    k0 = (w * w * (2.0 * w + 3.0) + d * w * (5.0 * w + 2.0)
          + d * d * (1.0 - 2.0 * w) - d ** 3 * (1.0 + 2.0 * w))
    k1 = w * w + 2.0 * d * w * (w + 1.0) + d * d * (1.0 + 2.0 * w)
    kt0 = 2.0 * (w * w * (w + 2.0) + d * w * (4.0 * w + 2.0)
                 + d * d * (w * w + w + 1.0))
    return a1, a2, kb * (k0 + t1 * k1), kb * (kt0 - d02 * s * e)


def _edge(w, alpha):
    """The ray (s, 1 - s) of the configuration point (w, d0(w, alpha)), each
    an exact distance to its end: the halves of :func:`ray_gaps`."""
    minus, plus = ray_gaps(w, solve_d0(w, alpha))
    return float(plus) / 2.0, float(minus) / 2.0


def threshold_ray(alpha):
    """The ray (s, 1 - s) where the touching configuration fills both
    supports: the plateau edge at w = 1."""
    return _edge(1.0, float(alpha))


def pushed_beta(alpha, ray):
    """Gap beta_s of the support configuration seen along ray s in (s_alpha, 1].

    ``ray`` is the pair (s, 1 - s), each as exact as the caller has it; only
    the smaller is read, matched on the side of the nearer end: 1 - theta
    = 2 (1 - s) for s >= 1/2 and 1 + theta = 2 s below (:func:`ray_gaps`).
    The ray is solved by one bisection in x = d - d1 on [0, d0(w = 1) - d1],
    from the ray s = 1 (w = 0) to the threshold ray (w = 1), with (w, d)
    from :func:`level_set_w`; since w is a product of x there, a ray next to
    s = 1 keeps its digits, and the ray (1, 0) itself, where 1 - theta is
    exactly 0 at x = 0, returns x = 0.  Returns (beta_s, w, d).
    """
    s, t = (np.asarray(v, dtype=float) for v in ray)
    upper = s >= t
    alpha = float(alpha)

    def f(x):  # the nearer end's gap at x minus the ray's
        minus, plus = ray_gaps(*level_set_w(alpha, x))
        return np.where(upper, 2.0 * t - minus, plus - 2.0 * s)

    x = bisect(f, np.zeros(s.shape),
               np.full(s.shape, solve_d0(1.0, alpha) - edge_d(alpha)))
    w, d = level_set_w(alpha, x)
    return beta_coord(alpha, w), w, d


# ---------------------------------------------------------------------------
# plateau and full evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlateauInfo:
    """Plateau window [c1, c2] of a star configuration and its constants.

    For touching intervals c1 = c2 = threshold ray.  ``plateau`` carries the
    star-frame constant limit values at the window midpoint.
    """
    c1: float
    c2: float
    plateau: LimitPoint

    def as_dict(self):
        return asdict(self)


def reflected_star(sc):
    """Star configuration of the reflected system and the map from its star
    frame into ``sc``'s: its own map composed with the mirror x -> -x, to be
    applied with ``swapped=True``."""
    sc_hat, amap = star_normalize(reflect(sc.system()))
    return sc_hat, AffineMap(-amap.scale, -amap.shift)


def plateau_bounds(sc):
    """Plateau window and constants for a star configuration.

    The gap invariant fixes w once.  c2 is the ray of the configuration
    point (w, d0), and c1 the reflected configuration's distance to its own
    s = 1: w is a cross-ratio of the four interval ends, so the reflection
    keeps it and changes only alpha.  Both are exact end distances from
    :func:`_edge`; for touching intervals (w = 1) c1 = c2 is the threshold
    ray.  Two guards raise NumericalFailure: the gap solved again along
    (c2, 1 - c2) must come back within 1e-9 of beta, relative, and every
    window must satisfy 0 < c1 <= c2 < 1.
    """
    w = solve_w(sc.alpha, sc.beta)
    c2, rest = _edge(w, sc.alpha)
    if sc.beta == 0.0:
        c1 = c2
    else:
        back, _, _ = pushed_beta(sc.alpha, (c2, rest))
        if not abs(back - sc.beta) <= 1e-9 * sc.beta:
            raise NumericalFailure("plateau edge failed the gap round trip",
                                   {"c2": c2, "beta": float(sc.beta),
                                    "back": float(back)})
        c1 = _edge(w, reflected_star(sc)[0].alpha)[1]
    if not 0.0 < c1 <= c2 < 1.0:
        raise NumericalFailure("plateau window out of order",
                               {"c1": c1, "c2": c2})
    a1, a2, b1, b2 = residue_limits(sc.alpha, w, solve_d0(w, sc.alpha))
    mid = 0.5 * (c1 + c2)
    # computed constants: a broken contract is a numerical failure
    point = validate_computed(LimitCurve(
        [mid], [a1], [a2], [b1], [b2], "plateau")).point(0)
    return PlateauInfo(c1, c2, point)


def limits_at(sys, s, info=None):
    """Limit point of ``sys`` at ray parameter ``s`` via the surface route.

    The one-point case of :func:`limit_curve`; ``info`` may carry a
    precomputed :class:`PlateauInfo` for the star configuration.
    """
    return limit_curve(sys, np.array([s]), info).point(0)


def limit_curve(sys, grid, info=None):
    """Limit curve of ``sys`` on ``grid`` via the surface route (vectorized).

    Grid points are split by :func:`~angelesco.systems.plateau_zones` and
    each zone is solved in one vector pass: the plateau constants inside
    [c1, c2], the direct solve right of the plateau, and the reflected
    configuration at the ray pair (1 - s, s) left of it, whose distance s to
    the end is exact.  s = 1 joins the right zone and s = 0 the left one:
    their ray (1, 0) solves to x = 0 exactly, so w = 0, d = d1 and the
    vanishing A is exactly 0.  Star-frame values reach the user frame through
    :func:`pushforward_limits`.  ``info`` may carry a precomputed
    :class:`PlateauInfo`.
    """
    grid = check_grid(grid)
    sc, amap = star_normalize(sys)
    if info is None:
        info = plateau_bounds(sc)

    left, plat, right = plateau_zones(grid, info.c1, info.c2)
    left |= grid == 0.0  # the end rays are solved with their zones
    right |= grid == 1.0

    star = np.zeros((4, grid.size))
    p = info.plateau
    star[:, plat] = np.array([[p.A1], [p.A2], [p.B1], [p.B2]])
    if np.any(right):
        s = grid[right]
        _, w, d = pushed_beta(sc.alpha, (s, 1.0 - s))
        star[:, right] = residue_limits(sc.alpha, w, d)
    if np.any(left):
        sc_hat, back_map = reflected_star(sc)
        s = grid[left][::-1]  # the reflected rays 1 - s, increasing
        _, w, d = pushed_beta(sc_hat.alpha, (1.0 - s, s))
        hat = LimitCurve(1.0 - s, *residue_limits(sc_hat.alpha, w, d))
        back = pushforward_limits(hat, back_map, swapped=True)
        star[:, left] = back.A1, back.A2, back.B1, back.B2

    return validate_computed(
        pushforward_limits(LimitCurve(grid.copy(), *star, "surface"), amap))
