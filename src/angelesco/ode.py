"""Recurrence limits by integrating the limiting ODE system.

In the interior of each support window the four limit functions satisfy a
closed ODE system in the rescaled variables C1 = A1/s^2, C2 = A2/(1-s)^2.
Both branches run forward from s = 0, from the closed-form values there:
one on the system up to the plateau edge c1, one on the reflected system
(x -> -x, which swaps the intervals and maps s to 1 - s) up to the exact
distance 1 - c2, read back at 1 - s through the mirror A1 <-> A2,
(B1, B2) -> (-B2, -B1) as the surface route reads its left zone.  The
assembled curve splices branch values with the plateau constants.

Each branch is integrated by Taylor series of fixed order 24 (Jorba & Zou,
Experiment. Math. 14 (2005) 99-117).  The right-hand side is rational in
(s, C1, C2) with one square root, so the Taylor coefficients of the
solution through a state follow order by order from the recurrences for
products, quotients and square roots of series.  They are taken in the
scaled variable t, s = s0 + r t with r the previous step, so they stay of
the size of the state where the radius of convergence is tiny (beside the
pole of C2 at s = 1 that systems with alpha ~ 1e32 approach).  Each
component bounds the step through its last two coefficients, and the last
step lands on the branch's stop exactly.  Each step's polynomial, evaluated
by Horner's rule, is the branch's dense output.  The terms the step rule
bounds, summed over the steps, plus a rounding floor, are the branch's
error estimate, per component: C relative to itself, B relative to the gap
B2 - B1 at s = 0.

The series run on Python floats with + - * / and sqrt only, summed in a
fixed order, so no BLAS or CPU kernel touches a result.  They run in hull
units (:mod:`angelesco.systems`), where the end gaps lie between 1/8 and 1,
so the products in the recurrences stay in range at any length scale and a
copy scaled by a power of two integrates to the same bits.

The linear system defining (C1', C2') degenerates at the endpoints only
through a removable factor s (1 - s); the solved form used here cancels that
factor exactly, so the right-hand side is analytic on all of [0, 1].  The
limit curve is then the unique solution through the closed-form endpoint
state, and the first series is taken at s = 0 itself.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .systems import (AffineMap, LimitCurve, check_grid, hull_units,
                      plateau_zones, pushforward_limits, reflect, user_units,
                      validate_computed)

# most Taylor steps one branch may take
DEFAULT_MAX_STEPS = 500
# order of each step's Taylor polynomial
_ORDER = 24
# bound on each of a step's last two terms, relative to the component's scale
_STEP_TOL = 1e-16
# rounding floor of the estimate, in eps per step: the largest rounding
# error seen against 30-digit references is 6.6 eps per step, C2 of the
# backward branch of (-1e-6,0) u (0,1) at s = 0.994 after 42 steps
_FLOOR_EPS_PER_STEP = 16
# scaled bound of the splice mismatch (A over the larger |A| of the two
# ends, B over gap); on the default touching and gap systems it is
# stricter than 1e-4 absolute
_SPLICE_TOL = 1e-5


@dataclass(frozen=True)
class BoundaryPack:
    """Closed-form values of the limit functions at s = 0 for one system.

    C's are the rescaled a-limits (A1 = s^2 C1, A2 = (1-s)^2 C2); suffix _0
    names the endpoint.  Satisfies (B2 - B1)^2 = C1 + C2.  The values at
    s = 1 are the reflected system's pack, mirrored: C1 <-> C2 and
    (B1, B2) -> (-B2, -B1).
    """
    C1_0: float
    C2_0: float
    B1_0: float
    B2_0: float

    @property
    def gap_0(self):
        """B2 - B1 at s = 0; equals sqrt(C1_0 + C2_0)."""
        return self.B2_0 - self.B1_0


def boundary_values(sys):
    """Limit values of ``sys`` at s = 0 in user coordinates.

    They depend only on (i1.lo, i2); those at s = 1 are the values of
    ``reflect(sys)`` at s = 0, mirrored.  The end gap B2 - B1 is a sum of
    interval-end differences and the root of their product, and
    C1_0 = gap^2 - C2_0 is factored into a product of positive terms, so
    (B2 - B1)^2 = C1 + C2 holds by construction and a shift of the system
    moves only the B's.
    """
    a1 = sys.i1.lo
    a2, b2 = sys.i2.lo, sys.i2.hi
    root = math.sqrt((a2 - a1) * (b2 - a1))
    gap = 0.5 * ((a2 - a1) + 0.5 * (b2 - a2) + root)
    B2 = 0.5 * (a2 + b2)
    return BoundaryPack(
        C1_0=0.5 * ((a2 - a1) + root) * (gap + 0.25 * (b2 - a2)),
        C2_0=((b2 - a2) / 4.0) ** 2, B1_0=B2 - gap, B2_0=B2)


def rhs(s, y):
    """Derivative of the state (C1, C2, B1, B2) at ray parameter s.

    (C1', C2') solve the linear pair

        (1+s) s C1' + (2-s)(1-s) C2' = -4 s C1 + 4 (1-s) C2
        (s^2 / C1) C1' - ((1-s)^2 / C2) C2' = -2,

    whose solved form, cleared of the removable factor s (1 - s), is

        C1' = -2 C1 (2 (1-s) C1 + (3-2s) C2) / P
        C2' =  2 C2 ((1+2s) C1 + 2s C2) / P,   P = (1+s)(1-s) C1 + s (2-s) C2,

    with P > 0 on [0, 1].  The B's follow from the square-root relations,
    regularized the same way, with D = (1-s) C1 - s C2:

        B1' = 2 (1-s) sqrt(C1 + C2) D / P,   B2' = -2 s sqrt(C1 + C2) D / P.

    Both B components are integrated so that B2 - B1 = sqrt(C1 + C2) can
    be monitored.  The Taylor recurrences of :func:`_jet` follow these
    operations, so their order-one coefficient is this derivative times r.

    ``y`` is any 4-sequence of floats; the result is a 4-tuple of floats.
    A nonpositive or NaN C raises :class:`NumericalFailure`.
    """
    C1, C2, B1, B2 = y
    if not (C1 > 0.0 and C2 > 0.0):
        raise NumericalFailure("positivity lost in ODE state",
                               {"s": s, "C1": C1, "C2": C2})
    P = (1.0 + s) * (1.0 - s) * C1 + s * (2.0 - s) * C2
    F = math.sqrt(C1 + C2) * (((1.0 - s) * C1 - s * C2) / P)
    return (-2.0 * (C1 * (2.0 * (1.0 - s) * C1 + (3.0 - 2.0 * s) * C2) / P),
            2.0 * (C2 * ((1.0 + 2.0 * s) * C1 + 2.0 * s * C2) / P),
            2.0 * (1.0 - s) * F, -2.0 * s * F)


def _jet(s0, r, y):
    """Taylor coefficients, to order 24 in t, of the solution through ``y``
    at ``s0``, where s = s0 + r t.

    Returns four lists (C1, C2, B1, B2) of 25 floats.  The factors of
    :func:`rhs` that are polynomials in s have at most three coefficients
    in t; the products, quotients by P and the root sqrt(C1 + C2) follow
    the Cauchy-product recurrences, each sum taken in increasing index
    order.  Both C's must be positive.
    """
    C1, C2, B1, B2 = y
    # t-coefficients of the polynomial factors: (1+s)(1-s) is (a0, a1, rr),
    # s(2-s) is (b0, b1, rr), 2(1-s) and 3-2s share u1, 1+2s and 2s share w1
    rr = -r * r
    a0, a1 = (1.0 + s0) * (1.0 - s0), -2.0 * s0 * r
    b0, b1 = s0 * (2.0 - s0), 2.0 * (1.0 - s0) * r
    u0, v0, u1 = 2.0 * (1.0 - s0), 3.0 - 2.0 * s0, -2.0 * r
    w0, z0, w1 = 1.0 + 2.0 * s0, 2.0 * s0, 2.0 * r
    e0 = 1.0 - s0
    c1, c2, b1s, b2s = [C1], [C2], [B1], [B2]
    P, N1, N2, Q1, Q2, E, R = [], [], [], [], [], [], []
    x1 = x2 = xx1 = xx2 = f1 = 0.0     # c1, c2 at k - 1 and k - 2; F at k - 1
    for k in range(_ORDER):
        y1, y2 = c1[k], c2[k]
        P.append(a0 * y1 + a1 * x1 + rr * xx1 + (b0 * y2 + b1 * x2 + rr * xx2))
        N1.append(u0 * y1 + u1 * x1 + (v0 * y2 + u1 * x2))
        N2.append(w0 * y1 + w1 * x1 + (z0 * y2 + w1 * x2))
        q1 = q2 = 0.0
        i = k
        for j in range(k + 1):
            q1 += c1[j] * N1[i]
            q2 += c2[j] * N2[i]
            i -= 1
        e = e0 * y1 - r * x1 - (s0 * y2 + r * x2)
        i = k - 1
        for j in range(1, k + 1):
            p = P[j]
            q1 -= p * Q1[i]
            q2 -= p * Q2[i]
            e -= p * E[i]
            i -= 1
        p = P[0]
        Q1.append(q1 / p)
        Q2.append(q2 / p)
        ek = e / p
        E.append(ek)
        if k:
            root = y1 + y2
            fk = 0.0
            i = k - 1
            for j in range(1, k):
                a = R[j]
                root -= a * R[i]
                fk += a * E[i]
                i -= 1
            rk = root / (2.0 * R[0])
            R.append(rk)
            fk += R[0] * ek + rk * E[0]
        else:
            R.append(math.sqrt(y1 + y2))
            fk = R[0] * ek
        m = r / (k + 1)
        c1.append(-2.0 * m * Q1[k])
        c2.append(2.0 * m * Q2[k])
        b1s.append(m * (u0 * fk + u1 * f1))
        b2s.append(-m * (z0 * fk + w1 * f1))
        x1, x2, xx1, xx2, f1 = y1, y2, x1, x2, fk
    return c1, c2, b1s, b2s


@dataclass
class Branch:
    """One branch run forward from s = 0; its Taylor steps are dense output.

    ``s`` holds the step nodes, ascending from 0; the last is the stop (a
    reflected system's rays, 1 - s in the user frame).  ``y`` holds the
    state (C1, C2, B1, B2) at each.  Step k's polynomial in
    t = (s - s[k]) / r[k] has the coefficients ``jets[k]`` (shape (25, 4)),
    all in the units of ``pack`` (hull units under :func:`solve_system`).
    ``identity_drift`` is the largest |B2 - B1 - sqrt(C1 + C2)| at the
    nodes (redundancy monitor for the B integration).  ``meta`` holds
    ``steps`` and the ``error_estimate``: the largest over the components
    of its truncation bound plus rounding floor, C relative to itself and B
    to the gap.
    """
    s: np.ndarray
    y: np.ndarray
    r: np.ndarray
    jets: np.ndarray
    identity_drift: float
    pack: BoundaryPack
    meta: dict = field(default_factory=dict)

    def sample(self, grid):
        """State samples at ``grid`` (columns C1, C2, B1, B2).

        Each point is read from the polynomial of the step that holds it,
        by Horner's rule; a node is the start of its step and reads that
        step's state exactly.  Queries outside the branch span are
        extrapolated from the end steps, and callers keep them inside.
        """
        grid = np.asarray(grid, dtype=float)
        k = np.clip(np.searchsorted(self.s, grid, side="right") - 1,
                    0, self.r.size - 1)
        t = ((grid - self.s[k]) / self.r[k])[:, None]
        c = self.jets[k]
        acc = c[:, _ORDER]
        for j in range(_ORDER - 1, -1, -1):
            acc = acc * t + c[:, j]
        return acc

    def limit_values(self, grid):
        """(A1, A2, B1, B2) at ``grid``; B2 is reconstructed as B1 + sqrt(C1+C2)."""
        grid = np.asarray(grid, dtype=float)
        st = self.sample(grid)
        A1 = grid * grid * st[:, 0]
        A2 = (1.0 - grid) ** 2 * st[:, 1]
        B1 = st[:, 2]
        B2 = B1 + np.sqrt(st[:, 0] + st[:, 1])
        return A1, A2, B1, B2


def integrate_branch(pack, stop, max_steps=DEFAULT_MAX_STEPS):
    """Integrate one branch forward from s = 0 to ``stop`` by Taylor steps.

    The branch starts from the closed-form state in ``pack`` (the
    right-hand side is analytic there); the one next to s = 1 runs on the
    reflected system.  The first series is taken in t = s / stop, each
    later one with r the step before.  Step length h (in t) follows the
    rule of Jorba & Zou: the least over the components i and j in {23, 24}
    of (tol scale_i / |y_ij|)^(1/j), scale_i being |C_i| at the step's start
    and the gap at s = 0 for the B's, so each of the last two terms is at
    most tol of its component's scale.  A step that would pass ``stop``
    lands on it.  A step below the spacing of doubles at its start (only
    next to a singular end, as on alpha ~ 1e32 systems) goes to the next
    double.  The estimate sums each component's larger last term over the
    steps and adds ``_FLOOR_EPS_PER_STEP`` eps per step, times the
    component's largest value over its scale for the B's.

    A branch that has not reached ``stop`` after ``max_steps`` steps, a
    zero step and a state that loses positivity raise
    :class:`NumericalFailure` with the s reached and the last good s, as
    floats, the C's in the units of ``pack``; so does a start state with a
    C that is not a positive normal double.  The branch's last node is
    ``stop``; ``meta`` reports the work and the estimate (see
    :class:`Branch`).
    """
    if not max_steps >= 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    if not 0.0 < stop <= 1.0:
        raise ValueError(f"branch stop must lie in (0, 1], got {stop}")
    y = (pack.C1_0, pack.C2_0, pack.B1_0, pack.B2_0)
    gap = pack.gap_0
    tiny = np.finfo(float).tiny
    # a subnormal C has too few bits to carry the branch; NaN fails too
    if not (y[0] >= tiny and y[1] >= tiny):
        raise NumericalFailure("ODE start state lost positivity or left the "
                               "normal doubles",
                               {"s": 0.0, "C1": y[0], "C2": y[1]})
    nodes, states, dense_r, jets = [0.0], [y], [], []
    trunc = [0.0] * 4
    s0, r = 0.0, float(stop)
    for _ in range(max_steps):
        jet = _jet(s0, r, y)
        scale = (y[0], y[1], gap, gap)
        h = left = (stop - s0) / r
        for c, b in zip(jet, scale):
            for j in (_ORDER - 1, _ORDER):
                a = abs(c[j])
                if a > 0.0:
                    h = min(h, (_STEP_TOL * (b / a)) ** (1.0 / j))
        if not h > 0.0:
            raise NumericalFailure("ODE step rule gave a zero step",
                                   {"s": s0, "last_good_s": s0,
                                    "stop": float(stop)})
        s1, dense = s0 + r * h, r
        if h == left or s1 >= stop:
            h, s1 = left, stop
        elif s1 == s0:
            # s cannot resolve a step below its spacing at s0: the state
            # the step reaches goes to the next double, the step's dense
            # output maps that double onto it, and the lag enters the
            # estimate to first order
            s1 = math.nextafter(s0, stop)
            dense = (s1 - s0) / h
            h = (s1 - s0) / dense
            lag = (s1 - s0) / r - h
            for i, (c, b) in enumerate(zip(jet, scale)):
                trunc[i] += abs(c[1]) * lag / b
        for i, (c, b) in enumerate(zip(jet, scale)):
            trunc[i] += max(abs(c[_ORDER - 1]) * h ** (_ORDER - 1),
                            abs(c[_ORDER]) * h ** _ORDER) / b
        new = []
        for c in jet:
            acc = c[_ORDER]
            for j in range(_ORDER - 1, -1, -1):
                acc = acc * h + c[j]
            new.append(acc)
        y = tuple(new)
        if not (y[0] > 0.0 and y[1] > 0.0):
            raise NumericalFailure("positivity lost in ODE state",
                                   {"s": s1, "C1": y[0], "C2": y[1],
                                    "last_good_s": s0})
        jets.append(jet)
        dense_r.append(dense)
        nodes.append(s1)
        states.append(y)
        r, s0 = s1 - s0, s1
        if s1 == stop:
            break
    else:
        raise NumericalFailure(
            "ODE branch did not reach its stop within "
            f"max_steps = {max_steps}",
            {"s": s0, "last_good_s": s0, "stop": float(stop)})
    steps = len(jets)
    ys = np.array(states)
    # C's round relative to themselves, B's relative to their size
    big = np.maximum(np.max(np.abs(ys), axis=0) / gap, 1.0)
    big[:2] = 1.0
    floor = _FLOOR_EPS_PER_STEP * np.finfo(float).eps * steps * big
    drift = float(np.max(np.abs(ys[:, 3] - ys[:, 2]
                                - np.sqrt(ys[:, 0] + ys[:, 1]))))
    meta = {"steps": steps,
            "error_estimate": float(np.max(np.array(trunc) + floor))}
    return Branch(np.array(nodes), ys, np.array(dense_r),
                  np.array(jets).transpose(0, 2, 1), drift, pack, meta)


def _mirrored(branch, t):
    """Rows A1, A2, B1, B2 at the user rays 1 - t, increasing, from a branch
    of the reflected system read at its increasing rays ``t``."""
    back = pushforward_limits(LimitCurve(t, *branch.limit_values(t)),
                              AffineMap(-1.0, 0.0))
    return np.array([back.A1, back.A2, back.B1, back.B2])


def assemble_curve(forward, backward, c1, c2, grid, sys, e):
    """Splice two branches and the plateau constants into one limit curve.

    ``forward`` is the system's branch, run to c1; ``backward`` is the
    reflected system's, run to 1 - c2 and mirrored back.  The grid is split
    by :func:`~angelesco.systems.plateau_zones`: branch values fill the
    zones off the window, whose end rays then take the packs' closed forms,
    and on [c1, c2] (for touching systems the one ray c1 = c2) the four
    functions are the mean of the two branch end states, each read at its
    branch's last node.  Their mismatch is recorded in ``meta``, ``ok``
    when at most ``_SPLICE_TOL`` relative to the larger |A| of the two ends
    for each A, and to the smaller endpoint gap for each B, together with
    the branch redundancy monitors and, under ``branches``, each branch's
    steps and error estimate.

    Branches run on ``(hull_units(sys), e)`` return with the mismatch and
    drift in user units (:func:`~angelesco.systems.user_units`).
    """
    grid = check_grid(grid)
    end_f = np.array(forward.limit_values(forward.s[-1:]))
    end_b = _mirrored(backward, backward.s[-1:])
    diff = np.abs(end_f - end_b)[:, 0]
    gap = min(forward.pack.gap_0, backward.pack.gap_0)
    # an A against its own size, not gap^2, so a wrong small A shows
    size = np.maximum(np.abs(end_f), np.abs(end_b))[:2, 0]
    # flagged, never fatal: both branch endpoints estimate the same plateau
    mism = {"ok": bool(np.max(diff / [*size, gap, gap]) <= _SPLICE_TOL)}

    vals = np.empty((4, grid.size))
    left, plat, right = plateau_zones(grid, c1, c2)
    vals[:, left] = forward.limit_values(grid[left])
    vals[:, right] = _mirrored(backward, (1.0 - grid[right])[::-1])
    # plateau constants: A is constant there, so C must be read through
    # the s-rescaling at each grid point rather than copied
    vals[:, plat] = 0.5 * (end_f + end_b)
    # the end rays, which their zones read from the branches: closed forms
    pk, hat = forward.pack, backward.pack
    vals[:, grid == 0.0] = [[0.0], [pk.C2_0], [pk.B1_0], [pk.B2_0]]
    vals[:, grid == 1.0] = [[hat.C2_0], [0.0], [-hat.B2_0], [-hat.B1_0]]
    named = (("forward", forward), ("backward", backward))
    meta = {"splice_mismatch": mism,
            "branches": {name: dict(br.meta) for name, br in named}}
    curve = user_units(validate_computed(
        LimitCurve(grid.copy(), *vals, "ode", meta)), sys, e)
    # the monitors in user units, once the values are known to fit
    mism["at_c1_vs_c2"] = np.ldexp(diff, [2 * e, 2 * e, e, e]).tolist()
    meta["identity_drift"] = {name: float(np.ldexp(br.identity_drift, e))
                              for name, br in named}
    return curve


def solve_system(sys, plateau, grid, max_steps=DEFAULT_MAX_STEPS):
    """Full ODE-route curve for ``sys``: both branches plus the splice.

    ``plateau`` (from the surface route) supplies c1, c2 and the exact
    1 - c2: the forward branch runs :func:`~angelesco.systems.hull_units`
    of ``sys`` to c1, the backward one its reflection to 1 - c2, each
    within ``max_steps`` steps.  A :class:`NumericalFailure` of a branch
    names it under ``branch``.  Returns the assembled
    :class:`LimitCurve`, in user units.
    """
    grid = check_grid(grid)
    unit, e = hull_units(sys)
    branches = []
    for name, pack, stop in (
            ("forward", boundary_values(unit), plateau.c1),
            ("backward", boundary_values(reflect(unit)),
             plateau.one_minus_c2)):
        try:
            branches.append(integrate_branch(pack, stop, max_steps))
        except NumericalFailure as exc:
            exc.context["branch"] = name
            raise
    return assemble_curve(*branches, plateau.c1, plateau.c2, grid, sys, e)
