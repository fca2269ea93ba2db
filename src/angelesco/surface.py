"""Recurrence limits from a rational parametrization of the spectral curve.

For a star-frame configuration [-alpha, 0] u [beta, 1] the limiting
recurrence coefficients at ray parameter s come from a genus-zero algebraic
surface.  Its uniformizing coordinate pair (u, tau) is pinned down by two
scalar root problems: u by the gap invariant of the configuration, tau by
the alpha level set of the projection ratio.  Along a ray the level set is
linear in u, so u is eliminated explicitly and each ray off the plateau
costs one bisection in tau.  The partial-fraction residues of the
uniformizing map read that (u, tau) directly, with the two other preimages
of infinity from a quadratic, and give the limits in closed form.  This
route is the precision reference for the lattice and ODE methods: every
root solve is plain bisection run to its fixed point (adjacent doubles) and
all formulas are explicit.

The configuration solves are scalar: :func:`solve_u` and :func:`solve_tau0`
take one (alpha, beta) or (u, alpha).  tau0 has one solve per (u, alpha),
cached for the process, so the threshold ray, the configuration in
:func:`plateau_bounds` and the ray brackets of :func:`pushed_beta` share it.
Its uniqueness and the signs of the other two preimages follow from sign
patterns of the coefficients for every u > 1 and alpha > 0, so no solve
checks them at run time.  The rays and the coordinate maps are elementwise
numpy functions, so whole grids go through one call.
"""
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalFailure
from .ode import _fix_endpoints, boundary_values
from .rootfind import bisect, expand_upper
from .systems import (AffineMap, LimitCurve, LimitPoint, check_grid,
                      pushforward_limits, reflect, star_normalize,
                      validate_computed)

# star frame of a reflected system -> star frame of the original
_MIRROR = AffineMap(-1.0, 0.0)

# lower edge of the u/tau domains; both variables live strictly above 1
_EDGE = 1.0 + 1e-12


# ---------------------------------------------------------------------------
# coordinate functions of the parametrization
# ---------------------------------------------------------------------------

def gap_ratio(u):
    """Configuration invariant matched by beta * (1 + alpha) / (alpha + beta).

    Strictly decreasing from 1 to 0 on u in (1, 2]; its level set determines
    the conformal parameter u of the configuration.
    """
    return u * (2.0 - u) ** 3 / (2.0 * u - 1.0) ** 3


def projection_ratio(u, tau):
    """Core rational map of the surface; equals 1 + alpha at tau0."""
    return tau * tau * (tau + u - 2.0) / ((2.0 * u - 1.0) * tau - u)


def level_set_u(alpha, tau):
    """u on the level set projection_ratio(u, tau) = 1 + alpha, explicit in tau.

    The level-set equation is linear in u; this is its solution written
    without the cancellation of the expanded polynomial form.
    """
    sq = (tau - 1.0) ** 2
    return -tau * (sq + alpha) / (sq - alpha * (2.0 * tau - 1.0))


def alpha_coord(u, tau):
    """Left interval length recovered from surface coordinates."""
    return projection_ratio(u, tau) - 1.0


def beta_coord(u, tau):
    """Right interval gap recovered from surface coordinates."""
    a = alpha_coord(u, tau)
    g = gap_ratio(u)
    return a * g / (1.0 + a - g)


def ray_direction(u, tau):
    """Ray coordinate theta in (-1, 1) of a surface point; s = (1 + theta)/2."""
    num = 2.0 + 2.0 * u * tau - u - tau
    den = (2.0 * u * tau - u - tau) * (u + tau) * (u + tau - 2.0)
    return (tau - u) * np.sqrt(num / den)


# ---------------------------------------------------------------------------
# parameter solves
# ---------------------------------------------------------------------------

def solve_u(alpha, beta):
    """Conformal parameter u in (1, 2] for the configuration (alpha, beta).

    beta = 0 (touching intervals) gives u = 2 exactly; otherwise u is the
    bisection root of gap_ratio(u) = beta (1 + alpha)/(alpha + beta).
    """
    if beta == 0.0:
        return 2.0
    target = beta * (1.0 + alpha) / (alpha + beta)
    return bisect(lambda x: gap_ratio(x) - target, _EDGE, 2.0)


@lru_cache(maxsize=64)
def solve_tau0(u, alpha):
    """Root tau0 > 1 of projection_ratio(u, tau) = 1 + alpha, once per (u, alpha).

    The denominator (2u - 1) tau - u exceeds u - 1 on tau > 1.  Cleared of
    it, with d = tau - 1, the equation is the cubic
    d^3 + (u + 1) d^2 - alpha (2u - 1) d - alpha (u - 1) = 0, whose signs
    (+, +, -, -) for u > 1 and alpha > 0 give exactly one root d > 0
    (Descartes' rule of signs), negative below it and positive above.  So
    the upper end is doubled until the sign flips and then bisected, with
    no scan for a second crossing.  u <= 1 or alpha <= 0 (NaN included)
    raises ValueError; 1 + alpha rounding to 1 loses alpha and raises
    :class:`NumericalFailure`.  The result is cached for the process.
    """
    if not (u > 1.0 and alpha > 0.0):
        raise ValueError(f"solve_tau0 needs u > 1 and alpha > 0, "
                         f"got u={u}, alpha={alpha}")
    if 1.0 + alpha == 1.0:
        raise NumericalFailure("alpha is lost in the tau0 target 1 + alpha",
                               {"alpha": float(alpha)})
    f = lambda t: projection_ratio(u, t) - (1.0 + alpha)
    return bisect(f, _EDGE, expand_upper(f, _EDGE, 2.0))


def infinity_preimages(u, tau0):
    """The other two preimages of infinity, tau1 < 0 < tau2.

    Roots of the monic quadratic with sum -(u + tau0 - 2) and product
    -u tau0 (u + tau0 - 2) / (2 u tau0 - u - tau0).  For u, tau0 > 1 both
    u + tau0 - 2 and 2 u tau0 - u - tau0 are positive, so the sum and the
    product are negative: tau1 = (sum - sqrt(disc)) / 2 adds two negative
    terms without cancellation, and tau2 = product / tau1 by Vieta.
    """
    u = np.asarray(u, dtype=float)
    tau0 = np.asarray(tau0, dtype=float)
    rsum = -(u + tau0 - 2.0)
    prod = -u * tau0 * (u + tau0 - 2.0) / (2.0 * u * tau0 - u - tau0)
    q = 0.5 * (rsum - np.sqrt(rsum * rsum - 4.0 * prod))
    return q, prod / q


@dataclass(frozen=True)
class SurfaceParams:
    """Solved surface coordinates of one configuration (fields may be arrays).

    gamma = 2 - u; the preimages satisfy tau1 < 0 < tau2 < tau0.
    """
    alpha: object
    beta: object
    u: object
    tau0: object
    tau1: object
    tau2: object
    gamma: object


def surface_params(alpha, beta):
    """Solve all surface coordinates for the configuration (alpha, beta)."""
    u = solve_u(alpha, beta)
    return _params_at(alpha, beta, u, solve_tau0(u, alpha))


def _params_at(alpha, beta, u, tau0):
    """Surface coordinates completed from a solved pair (u, tau0)."""
    tau1, tau2 = infinity_preimages(u, tau0)
    bad = ~((tau1 < 0) & (tau2 > 0) & (tau2 < tau0))  # NaN is bad too
    if np.any(bad):
        first = lambda x: np.broadcast_to(x, bad.shape)[bad][:5].tolist()
        raise NumericalFailure("surface preimages out of order",
                               {"alpha": first(alpha), "tau1": first(tau1),
                                "tau2": first(tau2)})
    return SurfaceParams(alpha, beta, u, tau0, tau1, tau2, 2.0 - u)


@dataclass(frozen=True)
class ResidueLimits:
    """Limit values from partial-fraction residues (fields may be arrays).

    C1 and C2 are the intermediate residues entering A/B; they are not the
    s-rescaled a-limits and C1 is typically negative.
    """
    A1: object
    A2: object
    B1: object
    B2: object
    C1: object
    C2: object


def residue_limits(p):
    """Closed-form limits A1, A2, B1, B2 for solved surface coordinates."""
    al, g = p.alpha, p.gamma
    t0, t1, t2 = p.tau0, p.tau1, p.tau2

    def one_side(ta, tb):
        # residue chain for the sheet whose infinity preimage is ta
        c = -al * ta ** 2 * (ta - g) / ((t0 - ta) ** 2 * (ta - tb))
        a = -al * t0 ** 2 * c * (t0 - g) / ((t0 - ta) ** 2 * (t0 - tb))
        d = (t0 ** 2 * tb + 2.0 * t0 ** 2 * ta - 3.0 * t0 * ta * tb
             - g * t0 ** 2 - g * ta * t0 + 2.0 * g * ta * tb)
        b = al * t0 * d / ((t0 - ta) ** 2 * (t0 - tb) ** 2)
        return c, a, b

    c1, a1, b1 = one_side(t1, t2)
    c2, a2, b2 = one_side(t2, t1)
    return ResidueLimits(a1, a2, b1, b2, c1, c2)


def threshold_ray(alpha):
    """(theta, s) of the ray where the touching configuration fills both supports."""
    tau = solve_tau0(2.0, float(alpha))
    theta = ray_direction(2.0, tau)
    return theta, 0.5 * (1.0 + theta)


def pushed_beta(alpha, s):
    """Gap beta_s of the support configuration seen along ray s in (s_alpha, 1).

    Solves the pair {alpha_coord = alpha, ray_direction = 2 s - 1} by one
    bisection in tau along the alpha level set, with u = level_set_u(alpha,
    tau) eliminated explicitly.  The bracket ends are tau0 at u = 2 (the
    threshold ray's) and at u -> 1, solved once per alpha.  Returns
    (beta_s, u, tau).
    """
    s = np.asarray(s, dtype=float)
    theta = 2.0 * s - 1.0
    alpha = float(alpha)
    lo = np.full(s.shape, solve_tau0(2.0, alpha))
    hi = np.full(s.shape, solve_tau0(1.0 + 1e-9, alpha))
    tau = bisect(lambda t: ray_direction(level_set_u(alpha, t), t) - theta,
                 lo, hi)
    u = level_set_u(alpha, tau)
    return beta_coord(u, tau), u, tau


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
    s_alpha_direct: float
    s_alpha_reflected: float

    def as_dict(self):
        return asdict(self)


def reflected_star(sc):
    """Star configuration of the reflected system plus its transport map."""
    return star_normalize(reflect(sc.system()))


def plateau_bounds(sc):
    """Plateau window and constants for a star configuration.

    c2 comes directly from the ray direction of the fully solved
    configuration (the inversion of the gap-versus-ray map at the actual
    gap); a consistency guard re-solves the gap at c2 and requires the round
    trip to land back on beta.  c1 is one minus the analogous value of the
    reflected configuration.
    """
    _, s_dir = threshold_ray(sc.alpha)
    sc_hat, _ = reflected_star(sc)
    _, s_ref = threshold_ray(sc_hat.alpha)
    params = surface_params(sc.alpha, sc.beta)
    if sc.beta == 0.0:
        c1 = c2 = s_dir
    else:
        c2 = 0.5 * (1.0 + ray_direction(params.u, params.tau0))
        back, _, _ = pushed_beta(sc.alpha, c2)
        if abs(back - sc.beta) > 1e-9:
            raise NumericalFailure("plateau edge failed the gap round trip",
                                   {"c2": float(c2), "beta": float(sc.beta),
                                    "back": float(back)})
        params_hat = surface_params(sc_hat.alpha, sc_hat.beta)
        c2_hat = 0.5 * (1.0 + ray_direction(params_hat.u, params_hat.tau0))
        c1 = 1.0 - c2_hat
        if not 0.0 < c1 < c2 < 1.0:
            raise NumericalFailure("plateau window out of order",
                                   {"c1": float(c1), "c2": float(c2)})
    vals = residue_limits(params)
    mid = 0.5 * (c1 + c2)
    # computed constants: a broken contract is a numerical failure
    point = validate_computed(LimitCurve(
        [mid], [vals.A1], [vals.A2], [vals.B1], [vals.B2], "plateau")).point(0)
    return PlateauInfo(c1, c2, point, s_dir, s_ref)


def _star_values_right(alpha, s):
    """Star-frame limits for ray parameters right of the plateau (vectorized).

    The residues read the (u, tau) that :func:`pushed_beta` solved: tau is
    tau0 of the pushed configuration (alpha, beta_s).
    """
    beta_s, u, tau = pushed_beta(alpha, s)
    vals = residue_limits(_params_at(alpha, beta_s, u, tau))
    return vals.A1, vals.A2, vals.B1, vals.B2


def limits_at(sys, s, info=None):
    """Limit point of ``sys`` at ray parameter ``s`` via the surface route.

    The one-point case of :func:`limit_curve`; ``info`` may carry a
    precomputed :class:`PlateauInfo` for the star configuration.
    """
    return limit_curve(sys, np.array([s]), info).point(0)


def limit_curve(sys, grid, info=None):
    """Limit curve of ``sys`` on ``grid`` via the surface route (vectorized).

    Grid points are partitioned into endpoint / plateau / direct / reflected
    zones and each zone is solved in one vector pass: closed-form endpoint
    values at s in {0, 1}, the plateau constants inside [c1, c2], the direct
    solve right of the plateau, and the reflected configuration at 1 - s
    left of it.  Star-frame values reach the user frame through
    :func:`pushforward_limits`.  ``info`` may carry a precomputed
    :class:`PlateauInfo`.
    """
    grid = check_grid(grid)
    sc, amap = star_normalize(sys)
    if info is None:
        info = plateau_bounds(sc)

    interior = (grid > 0.0) & (grid < 1.0)
    plat = interior & (grid >= info.c1) & (grid <= info.c2)
    right = interior & (grid > info.c2)
    left = interior & (grid < info.c1)

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

    meta = {"c1": float(info.c1), "c2": float(info.c2)}
    curve = pushforward_limits(
        LimitCurve(grid.copy(), *star, "surface", meta), amap)
    _fix_endpoints(grid, curve.A1, curve.A2, curve.B1, curve.B2,
                   boundary_values(sys))
    return validate_computed(curve)
