"""Recurrence limits from a rational parametrization of the spectral curve.

For a star-frame configuration [-alpha, 0] u [beta, 1] the limiting
recurrence coefficients at ray parameter s come from a genus-zero algebraic
surface with uniformizing coordinates (u, tau).  Both live just above 1 and
crowd together as alpha -> 0 or s -> 1, so the route works in the small
unknowns w = u - 1 in (0, 1] and d = tau - 1 > 0 instead.  w is pinned down
by the gap invariant of the configuration, d by the alpha level set of the
surface.  Along a ray the level set is linear in w, so w is eliminated
explicitly and each ray off the plateau costs one bisection in d.  The
partial-fraction residues of the uniformizing map read that (w, d)
directly, with the two other preimages of infinity from a quadratic, and
give the limits in closed form.  Every difference a residue divides by, or
that goes to zero, is written as a product or sum of positive terms, so
tau1 < 0 < tau2 < tau0 and A >= 0 hold by construction.  This route is the
precision reference for the lattice and ODE methods: every root solve is
plain bisection run to its fixed point (adjacent doubles) and all formulas
are explicit.

The configuration solves are scalar: :func:`solve_w` and :func:`solve_d0`
take one (alpha, beta) or (w, alpha).  d0 has one solve per (w, alpha),
cached for the process, so the threshold ray, the configuration in
:func:`plateau_bounds` and the ray brackets of :func:`pushed_beta` share
it.  The rays and the coordinate maps are elementwise numpy functions, so
whole grids go through one call.
"""
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalFailure
from .ode import _fix_endpoints, boundary_values
from .rootfind import bisect, expand_upper
from .systems import (AffineMap, LimitCurve, LimitPoint, check_grid,
                      plateau_zones, pushforward_limits, reflect,
                      star_normalize, validate_computed)

# star frame of a reflected system -> star frame of the original
_MIRROR = AffineMap(-1.0, 0.0)


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


def level_set_w(alpha, d):
    """w on the alpha level set through d, explicit in d.

    The level-set cubic of :func:`solve_d0` is linear in w; its solution is
    d (d^2 + 2d - alpha) / (alpha (1 + 2d) - d^2), with the first factor
    split at its root d1 = :func:`edge_d` so that w -> 0 there is a product.
    """
    d1 = edge_d(alpha)
    return d * (d - d1) * (d + 2.0 + d1) / (alpha * (1.0 + 2.0 * d) - d * d)


def ray_direction(w, d):
    """Ray coordinate theta in (-1, 1) of a surface point; s = (1 + theta)/2."""
    return _ray(w, d)[0]


def _ray(w, d):
    """theta and its denominator E (2 + w + d)(w + d), E = w + d + 2wd."""
    e = w + d + 2.0 * w * d
    q = e * (2.0 + w + d) * (w + d)
    return (d - w) * np.sqrt((2.0 + e) / q), q


def ray_gaps(w, d):
    """(1 - theta, 1 + theta) of a surface point, each without cancellation.

    1 - theta^2 = 8 w d (1 + w)(1 + d) / (E (2 + w + d)(w + d)), so the
    smaller of the two is that product over the larger, 1 + |theta|, and it
    keeps its digits where theta is within rounding of +-1.
    """
    theta, q = _ray(w, d)
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
    cubic is -2 w d1 (1 + alpha) < 0 at d1 = :func:`edge_d`, so the bracket
    starts there, on the scale of the root for every alpha; its upper end is
    doubled until the sign flips and then bisected, with no scan for a
    second crossing.  w <= 0 or alpha <= 0 (NaN included) raises
    ValueError.  The result is cached for the process.
    """
    if not (w > 0.0 and alpha > 0.0):
        raise ValueError(f"solve_d0 needs w > 0 and alpha > 0, "
                         f"got w={w}, alpha={alpha}")
    f = lambda d: ((d + (w + 2.0)) * d - alpha * (1.0 + 2.0 * w)) * d - alpha * w
    lo = edge_d(alpha)
    return bisect(f, lo, expand_upper(f, lo, 2.0 * lo))


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


def threshold_ray(alpha):
    """(theta, s) of the ray where the touching configuration fills both supports."""
    theta = ray_direction(1.0, solve_d0(1.0, float(alpha)))
    return theta, 0.5 * (1.0 + theta)


def pushed_beta(alpha, s):
    """Gap beta_s of the support configuration seen along ray s in (s_alpha, 1).

    Solves ray_direction = 2 s - 1 on the alpha level set by one bisection
    in d, with w = level_set_w(alpha, d) eliminated explicitly.  The ray is
    matched on the side of the nearer end, 1 - theta = 2 (1 - s) for
    s >= 1/2 and 1 + theta = 2 s below (:func:`ray_gaps`), so a ray near
    s = 1 keeps its digits.  The bracket ends are d0 at w = 1 (the
    threshold ray's) and the closed-form :func:`edge_d` at w -> 0 (the ray
    s = 1).  Returns (beta_s, w, d).
    """
    s = np.asarray(s, dtype=float)
    upper = s >= 0.5
    far, near = 2.0 * (1.0 - s), 2.0 * s  # 1 - theta and 1 + theta
    alpha = float(alpha)

    def f(x):  # theta(x) - (2 s - 1)
        minus, plus = ray_gaps(level_set_w(alpha, x), x)
        return np.where(upper, far - minus, plus - near)

    lo = np.full(s.shape, solve_d0(1.0, alpha))
    hi = np.full(s.shape, edge_d(alpha))
    d = bisect(f, lo, hi)
    w = level_set_w(alpha, d)
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
    """Star configuration of the reflected system plus its transport map."""
    return star_normalize(reflect(sc.system()))


def _upper_edge(sc):
    """Solved (w, d0) of ``sc`` and the ray s of its plateau's upper edge."""
    w = solve_w(sc.alpha, sc.beta)
    d = solve_d0(w, sc.alpha)
    return w, d, 0.5 * (1.0 + ray_direction(w, d))


def plateau_bounds(sc):
    """Plateau window and constants for a star configuration.

    c2 comes directly from the ray direction of the fully solved
    configuration (the inversion of the gap-versus-ray map at the actual
    gap); for touching intervals that is the threshold ray and c1 = c2.
    Otherwise a consistency guard re-solves the gap at c2 and requires the
    round trip to land back on beta, and c1 is one minus the analogous
    value of the reflected configuration.
    """
    w, d, c2 = _upper_edge(sc)
    if sc.beta == 0.0:
        c1 = c2
    else:
        back, _, _ = pushed_beta(sc.alpha, c2)
        if abs(back - sc.beta) > 1e-9:
            raise NumericalFailure("plateau edge failed the gap round trip",
                                   {"c2": float(c2), "beta": float(sc.beta),
                                    "back": float(back)})
        c1 = 1.0 - _upper_edge(reflected_star(sc)[0])[2]
        if not 0.0 < c1 < c2 < 1.0:
            raise NumericalFailure("plateau window out of order",
                                   {"c1": float(c1), "c2": float(c2)})
    a1, a2, b1, b2 = residue_limits(sc.alpha, w, d)
    mid = 0.5 * (c1 + c2)
    # computed constants: a broken contract is a numerical failure
    point = validate_computed(LimitCurve(
        [mid], [a1], [a2], [b1], [b2], "plateau")).point(0)
    return PlateauInfo(c1, c2, point)


def _star_values_right(alpha, s):
    """Star-frame limits for ray parameters right of the plateau (vectorized).

    The residues read the (w, d) that :func:`pushed_beta` solved.
    """
    _, w, d = pushed_beta(alpha, s)
    return residue_limits(alpha, w, d)


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
    configuration at 1 - s left of it; the endpoints s in {0, 1} take their
    closed-form values.  Star-frame values reach the user frame through
    :func:`pushforward_limits`.  ``info`` may carry a precomputed
    :class:`PlateauInfo`.
    """
    grid = check_grid(grid)
    sc, amap = star_normalize(sys)
    if info is None:
        info = plateau_bounds(sc)

    left, plat, right = plateau_zones(grid, info.c1, info.c2)

    # star-frame values; endpoints are pinned after the transport
    star = np.zeros((4, grid.size))
    p = info.plateau
    star[:, plat] = np.array([[p.A1], [p.A2], [p.B1], [p.B2]])
    if np.any(right):
        star[:, right] = _star_values_right(sc.alpha, grid[right])
    if np.any(left):
        sc_hat, map_hat = reflected_star(sc)
        s_hat = 1.0 - grid[left][::-1]
        hat = LimitCurve(s_hat, *_star_values_right(sc_hat.alpha, s_hat))
        back = pushforward_limits(pushforward_limits(hat, map_hat), _MIRROR,
                                  swapped=True)
        star[:, left] = back.A1, back.A2, back.B1, back.B2

    curve = pushforward_limits(LimitCurve(grid.copy(), *star, "surface"), amap)
    _fix_endpoints(grid, curve.A1, curve.A2, curve.B1, curve.B2,
                   boundary_values(sys))
    return validate_computed(curve)
