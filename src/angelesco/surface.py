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

Each stage is one elementwise bisection, and there are three: w, then
the configuration points, then the rays.  :func:`solve_w` runs once per
system, on the star frame's exact pair (beta, 1 - beta): w is a cross-ratio
of the four interval ends, so the reflected frame shares it.  x0 = d0 - d1
of a configuration point is bisected in x like a ray by :func:`solve_x0`;
:func:`plateau_bounds` solves the four points it needs, (w, alpha) and
(1, alpha) of the frame and of its reflection, in one call, and keeps the
two at w = 1 as the ray brackets of :func:`pushed_beta`.  It evaluates no
limit: :func:`limit_curve` evaluates the window's constants at (w, d0).
Every ray, the plateau edges included, is the pair (s, 1 - s) of exact end
distances, and :func:`limit_curve` bisects the rays of both zones together
in one :func:`pushed_beta` call; on a gap the edge (c2, 1 - c2) rides in
it, and the w it solves back to is the window's round-trip check.
The solves, the rays and the coordinate maps are elementwise numpy
functions, so whole grids go through one call.
"""
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .rootfind import bisect, expand_upper
from .systems import (LimitCurve, check_grid, hull_units, plateau_zones,
                      pushforward_limits, star_normalize, user_units,
                      validate_computed)

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


def level_set_w(alpha, d1, x):
    """(w, d) on the alpha level set at d = d1 + x, w explicit in x >= 0.

    ``d1`` is :func:`edge_d` of ``alpha``, which a bisection computes once.
    The level-set cubic of :func:`solve_x0` is linear in w; its solution is
    d (d^2 + 2d - alpha) / (alpha (1 + 2d) - d^2).  Its first factor splits
    at its root d1 into x (x + 2 d1 + 2), so w -> 0 at x = 0 is a product
    of x and keeps its digits however small x is.
    """
    d = d1 + x
    return x * d * (x + 2.0 * d1 + 2.0) / (alpha * (1.0 + 2.0 * d) - d * d), d


def ray_gaps(w, d):
    """(1 - theta, 1 + theta) of a surface point, each without cancellation.

    theta = 2s - 1 = (d - w) sqrt((2 + E) / q), E = w + d + 2wd and
    q = E (2 + w + d)(w + d).  1 - theta^2 = 8 w d (1 + w)(1 + d) / q, so the
    smaller of the two is that product over the larger, 1 + |theta|, and it
    keeps its digits where theta is within rounding of +-1.  |theta| is
    +-theta by the sign of its real part, so a complex step passes through.
    Each is :func:`_end_gap` of its end.
    """
    return _end_gap(w, d, True), _end_gap(w, d, False)


def _end_gap(w, d, upper):
    """The gap of the ray through (w, d) at one end: 1 - theta where
    ``upper`` holds, else 1 + theta, formed as :func:`ray_gaps` says, as the
    product over 1 + |theta| when it is the smaller of the two and as
    1 + |theta| when it is the larger."""
    s = w + d
    e = s + 2.0 * w * d
    q = e * (2.0 + w + d) * s
    theta = (d - w) * np.sqrt((2.0 + e) / q)
    up = np.real(theta) > 0.0
    big = 1.0 + np.where(up, theta, -theta)
    return np.where(up == upper,
                    8.0 * w * d * (1.0 + w) * (1.0 + d) / (q * big), big)


# ---------------------------------------------------------------------------
# parameter solves
# ---------------------------------------------------------------------------

def solve_w(sc):
    """Conformal parameter w in (0, 1] of the star configuration ``sc``.

    beta = 0 (touching intervals) gives w = 1 exactly; otherwise w is the
    bisection root on [0, 1] of (1 + w)(1 - w)^3 - r w (2 + w)^3 with
    r = beta (1 + alpha) / (alpha (1 - beta)) from the stored pair, the gap
    invariant's ratio g / (1 - g).  The first term falls from 1 to 0 and the
    second rises from 0, so the root is the one sign change.
    """
    if sc.beta == 0.0:
        return 1.0
    r = sc.beta * (1.0 + sc.alpha) / (sc.alpha * sc.one_minus_beta)
    return bisect(lambda x: (1.0 + x) * (1.0 - x) ** 3
                  - r * x * (2.0 + x) ** 3, 0.0, 1.0)


def solve_x0(w, alpha):
    """x0 = d0 - d1 of the configuration points (w, d0), elementwise.

    The level-set cubic d^3 + (w + 2) d^2 - alpha (1 + 2w) d - alpha w over
    d > 0, in the rays' unknown x = d - d1 (d1 = :func:`edge_d`), is
    f(x) = x (x + 2 d1 + 2) - w (alpha / d + 2 alpha - d).  Each term rises
    with x, so f has at most one root.  f(0) = -w (2 + 2 alpha), its sum
    computed at least about 2, so the sign holds for every w > 0.  For w in
    (0, 1] the cubic is at least d^3 + 2d^2 - 3 alpha d - alpha, positive
    and rising from d = 1 + sqrt(3 alpha) on, and x = 1 + sqrt(3 alpha) puts
    d a further d1 above that: :func:`expand_upper` confirms the sign without
    doubling.  Every term stays finite from alpha = 1e-300 to 1e300.  ``w``
    and ``alpha`` broadcast against each other, and all points go through
    one bisection; a scalar pair gives a scalar.  A point with w <= 0 or
    alpha <= 0 (NaN included) raises ValueError naming the first such pair.
    """
    w, alpha = np.broadcast_arrays(np.asarray(w, dtype=float),
                                   np.asarray(alpha, dtype=float))
    bad = ~((w > 0.0) & (alpha > 0.0))
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"solve_x0 needs w > 0 and alpha > 0, got "
                         f"w={float(w.flat[i])}, alpha={float(alpha.flat[i])}")
    d1 = edge_d(alpha)
    two_d1, two_alpha = 2.0 * d1, 2.0 * alpha

    def f(x):
        d = d1 + x
        return x * (x + two_d1 + 2.0) - w * (alpha / d + two_alpha - d)

    return bisect(f, np.zeros(w.shape),
                  expand_upper(f, 0.0, 1.0 + np.sqrt(3.0 * alpha)))


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
    q1, q2 = d01 * d01, d02 * d02  # powers as products, not ufunc pow
    ka = alpha * alpha * t0 * t0 * s / r
    a1 = ka * t1 * t1 * g1 / (q1 * q1 * d02)
    a2 = ka * t2 * t2 * g2 / (q2 * q2 * d01)
    kb = alpha * t0 * t0 / (e * q1 * q2)
    k0 = (w * w * (2.0 * w + 3.0) + d * w * (5.0 * w + 2.0)
          + d * d * (1.0 - 2.0 * w) - d * d * d * (1.0 + 2.0 * w))
    k1 = w * w + 2.0 * d * w * (w + 1.0) + d * d * (1.0 + 2.0 * w)
    kt0 = 2.0 * (w * w * (w + 2.0) + d * w * (4.0 * w + 2.0)
                 + d * d * (w * w + w + 1.0))
    return a1, a2, kb * (k0 + t1 * k1), kb * (kt0 - d02 * s * e)


def _edge(w, alpha, x0):
    """The ray (s, 1 - s) of the configuration point (w, d1 + x0), each an
    exact distance to its end: the halves of :func:`ray_gaps`."""
    minus, plus = ray_gaps(w, edge_d(alpha) + x0)
    return plus / 2.0, minus / 2.0


def threshold_ray(alpha):
    """The ray (s, 1 - s) where the touching configuration fills both
    supports: the plateau edge at w = 1."""
    alpha = float(alpha)
    s, rest = _edge(1.0, alpha, solve_x0(1.0, alpha))
    return float(s), float(rest)


def pushed_beta(alpha, ray, top):
    """Gap beta_s of the support configuration seen along ray s in (s_alpha, 1].

    ``ray`` is the pair (s, 1 - s), each as exact as the caller has it; only
    the smaller is read, matched on the side of the nearer end: 1 - theta
    = 2 (1 - s) for s >= 1/2 and 1 + theta = 2 s below (:func:`ray_gaps`).
    The ray is one bisection in x = d - d1 on [0, top], ``top`` being
    :func:`solve_x0` at (1, alpha), from the ray s = 1 (w = 0) to the
    threshold ray (w = 1), with (w, d) from :func:`level_set_w`; since w is
    a product of x there, a ray next to s = 1 keeps its digits, and the ray
    (1, 0) itself, where 1 - theta is exactly 0 at x = 0, returns x = 0.
    ``alpha`` and ``top`` broadcast against the ray, so rays of several
    configurations go through one bisection.  Returns (beta_s, w, d).
    """
    s, t = (np.asarray(v, dtype=float) for v in ray)
    upper = s >= t
    alpha = np.asarray(alpha, dtype=float)
    d1 = edge_d(alpha)
    # f falls on both sides: 2 (1 - s) - (1 - theta) above s = 1/2 and
    # (1 + theta) - 2 s below, each the nearer end's gap alone
    side = np.where(upper, 1.0, -1.0)
    near = side * np.where(upper, 2.0 * t, 2.0 * s)

    def f(x):  # the nearer end's gap, the ray's minus x's, falling in x
        return near - side * _end_gap(*level_set_w(alpha, d1, x), upper)

    shape = np.broadcast(s, alpha, top).shape
    x = bisect(f, np.zeros(shape), np.broadcast_to(top, shape))
    w, d = level_set_w(alpha, d1, x)
    return beta_coord(alpha, w), w, d


# ---------------------------------------------------------------------------
# plateau and full evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlateauInfo:
    """Plateau window [c1, c2] of a star configuration, no limit values.

    For touching intervals c1 = c2 = threshold ray.  c1 is exact as the
    distance to s = 0 and ``one_minus_c2`` = 1 - c2 exactly as the distance
    to s = 1, which c2 itself may round away.  The constant limits on the
    window are :func:`residue_limits` at the configuration point (w, d0).
    ``top`` and ``top_hat`` are :func:`solve_x0` at w = 1 for the frame and
    for its reflection: the :func:`pushed_beta` brackets of the rays right
    of the window and of the reflected rays left of it.  c2 is not solved
    back here: :func:`limit_curve`'s ray bisection checks it against w.
    """
    c1: float
    c2: float
    one_minus_c2: float
    w: float
    d0: float
    top: float
    top_hat: float


def plateau_bounds(sc):
    """Plateau window of a star configuration, with its configuration point.

    The gap invariant fixes w once.  c2 is the ray of the configuration
    point (w, d0), and c1 the distance to its own s = 1 of ``sc.reflected()``,
    which keeps w, a cross-ratio of the four interval ends.  Both are exact
    end distances from :func:`_edge`; for touching intervals (w = 1)
    c1 = c2 is the threshold ray.  One :func:`solve_x0` call solves both
    configuration points and the two ray brackets at w = 1.
    NumericalFailure unless 0 < c1 <= c2 with 1 - c2 > 0.  The gap round
    trip along (c2, 1 - c2) is :func:`limit_curve`'s, inside the ray
    bisection it runs anyway.
    """
    w = solve_w(sc)
    alphas = np.array([sc.alpha, sc.reflected()[0].alpha] * 2)
    ws = np.array([w, w, 1.0, 1.0])
    x0 = solve_x0(ws, alphas)
    top, top_hat = float(x0[2]), float(x0[3])
    s, rest = _edge(w, alphas[:2], x0[:2])
    c2, one_minus_c2 = float(s[0]), float(rest[0])
    c1 = c2 if sc.beta == 0.0 else float(rest[1])
    if not (0.0 < c1 <= c2 and one_minus_c2 > 0.0):
        raise NumericalFailure("plateau window out of order",
                               {"c1": c1, "c2": c2})
    return PlateauInfo(c1, c2, one_minus_c2, float(w),
                       float(edge_d(sc.alpha) + x0[0]), top, top_hat)


def limit_curve(sys, grid, info=None):
    """Limit curve of ``sys`` on ``grid`` via the surface route (vectorized).

    Grid points are split by :func:`~angelesco.systems.plateau_zones`: the
    plateau constants, :func:`residue_limits` at (w, d0) evaluated only if
    a grid point lies in [c1, c2], the direct solve right of the plateau,
    and ``sc.reflected()`` at the ray pair (1 - s, s) left of it, whose
    distance s to the end is exact.  The rays of both zones, each
    with its frame's alpha and bracket top, go through one
    :func:`pushed_beta` bisection and one :func:`residue_limits` call.
    ``plateau_zones`` puts s = 1 in the right zone and s = 0 in the left
    one: their ray (1, 0) solves to x = 0 exactly, so w = 0, d = d1 and the
    vanishing A is exactly 0.  With a gap (beta > 0) the plateau edge
    (c2, 1 - c2) joins the bisection as one more ray of the frame, and is
    dropped before :func:`residue_limits`: NumericalFailure ("plateau edge
    failed the gap round trip", with c2, w and the w solved back as floats)
    unless that w comes back within 1e-9 relative of ``info.w`` (w, unlike
    beta, keeps 1 - beta).  Star-frame values land in hull units (the star
    frame is that of :func:`~angelesco.systems.hull_units`) through
    :func:`pushforward_limits`, then return in user units.  ``info`` may
    carry a precomputed :class:`PlateauInfo`.
    """
    grid = check_grid(grid)
    unit, e = hull_units(sys)
    sc, amap = star_normalize(unit)
    if info is None:
        info = plateau_bounds(sc)

    left, plat, right = plateau_zones(grid, info.c1, info.c2)

    star = np.zeros((4, grid.size))
    if np.any(plat):  # the constants, checked with the curve below
        star[:, plat] = np.vstack(residue_limits(sc.alpha, info.w, info.d0))
    s, r = grid[right], grid[left][::-1]  # reflected: the rays (1 - r, r)
    n, m = s.size, s.size + r.size
    # a gap's plateau edge (c2, 1 - c2) rides last, as a ray of the frame
    edge = [[info.c2], [info.one_minus_c2]] if sc.beta > 0.0 else [[], []]
    ray = np.concatenate([[s, 1.0 - s], [1.0 - r, r], edge], axis=1)
    if ray.size:
        sc_hat, back_map = sc.reflected()
        i = np.arange(ray.shape[1])
        hat = (i >= n) & (i < m)
        alpha = np.where(hat, sc_hat.alpha, sc.alpha)
        top = np.where(hat, info.top_hat, info.top)
        _, w, d = pushed_beta(alpha, ray, top)
        if w.size > m:  # the gap round trip: w solved back along the edge
            w_back = float(w[m])
            if not abs(w_back - info.w) <= 1e-9 * info.w:
                raise NumericalFailure("plateau edge failed the gap round trip",
                                       {"c2": info.c2, "w": info.w,
                                        "back": w_back})
        limits = residue_limits(alpha[:m], w[:m], d[:m])
        star[:, right] = [v[:n] for v in limits]
        hat_curve = LimitCurve(1.0 - r, *(v[n:] for v in limits))
        back = pushforward_limits(hat_curve, back_map)
        star[:, left] = back.A1, back.A2, back.B1, back.B2

    curve = pushforward_limits(LimitCurve(grid.copy(), *star, "surface"), amap)
    return user_units(validate_computed(curve), sys, e)
