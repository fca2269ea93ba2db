"""Recurrence limits by integrating the limiting ODE system.

In the interior of each support window the four limit functions satisfy a
closed ODE system in the rescaled variables C1 = A1/s^2, C2 = A2/(1-s)^2.
Two branches are integrated with classical Runge-Kutta on uniform meshes:
forward from s = 0 and backward from s = 1, each started at its endpoint
from the closed-form endpoint values.  The branches stop at the plateau
edges and the assembled curve splices branch values with the plateau
constants.

Each branch controls its own step count by step doubling: runs of n and 2n
steps share n + 1 nodes, where their difference over 15 estimates the 2n
run's error and, added to it, gives a Richardson-extrapolated state.  The
count doubles until the estimate, scaled by the endpoint gap B2 - B1, meets
a tolerance or a cap.  The doubling is what makes the route hold its digits
on unbalanced systems: no fixed count serves (-1000, 0) u (0, 1) and
(-2, 0) u (0, 1) alike.  Dense output is local 6-point Lagrange
interpolation on the finest mesh (:func:`angelesco.lattice.lagrange_interp`).

The state is four numbers, so the RK4 stages run on Python floats: ``rhs``
takes floats and returns a 4-tuple, and each stage is formed component by
component in the same operation order as the array expression it replaces
(``y + 0.5*h*k`` and ``y + h/6*(k1 + 2 k2 + 2 k3 + k4)``), which gives the
same IEEE results without a numpy allocation per stage.  Only the node
arrays, the doubling test and dense output are numpy.

The linear system defining (C1', C2') degenerates at the endpoints only
through a removable factor s (1 - s); the solved form used here cancels that
factor exactly, so the right-hand side is regular (locally Lipschitz) on
all of [0, 1].  The limit curve is then the unique solution through the
closed-form endpoint state, and RK4 starts at the endpoint itself.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .lattice import lagrange_interp
from .systems import (LimitCurve, check_grid, plateau_zones,
                      validate_computed)

# steps per unit s of a branch's first RK4 run
DEFAULT_STEPS_PER_UNIT = 500
# scaled tolerance of the step-doubling estimate (C over gap^2, B over gap)
_DOUBLING_TOL = 1e-12
# most doublings of the step count; at the cap the best branch is returned
_MAX_DOUBLINGS = 5
# rounding floor of the stopping test, in eps times max |y| per component
_ROUNDING_ULPS = 256
# scaled bound of the splice mismatch (A over gap^2, B over gap); on the
# default touching and gap systems it is stricter than 1e-4 absolute
_SPLICE_TOL = 1e-5


@dataclass(frozen=True)
class BoundaryPack:
    """Closed-form endpoint values of the limit functions for one system.

    C's are the rescaled a-limits (A1 = s^2 C1, A2 = (1-s)^2 C2); suffix _0
    and _1 name the endpoint.  Satisfies (B2 - B1)^2 = C1 + C2 at both ends.
    """
    C1_0: float
    C2_0: float
    C1_1: float
    C2_1: float
    B1_0: float
    B2_0: float
    B1_1: float
    B2_1: float

    @property
    def gap_0(self):
        """B2 - B1 at s = 0; equals sqrt(C1_0 + C2_0)."""
        return self.B2_0 - self.B1_0

    @property
    def gap_1(self):
        """B2 - B1 at s = 1; equals sqrt(C1_1 + C2_1)."""
        return self.B2_1 - self.B1_1


def boundary_values(sys):
    """Endpoint limit values of ``sys`` in user coordinates.

    The values at s = 0 depend only on (i1.lo, i2); the values at s = 1 only
    on (i1, i2.hi).  Validated against the square-root identity
    (B2 - B1)^2 = C1 + C2 at both ends.
    """
    a1, b1 = sys.i1.lo, sys.i1.hi
    a2, b2 = sys.i2.lo, sys.i2.hi
    C2_0 = ((b2 - a2) / 4.0) ** 2
    root0 = np.sqrt((a2 - a1) * (b2 - a1))
    C1_0 = 0.25 * (-a1 + 0.5 * (a2 + b2) + root0) ** 2 - C2_0
    C1_1 = ((b1 - a1) / 4.0) ** 2
    root1 = np.sqrt((b2 - b1) * (b2 - a1))
    C2_1 = 0.25 * (b2 - 0.5 * (a1 + b1) + root1) ** 2 - C1_1
    B1_0 = 0.5 * (a1 + 0.5 * (a2 + b2) - root0)
    B2_0 = 0.5 * (a2 + b2)
    B1_1 = 0.5 * (a1 + b1)
    B2_1 = 0.5 * (b2 + 0.5 * (a1 + b1) + root1)
    pack = BoundaryPack(float(C1_0), float(C2_0), float(C1_1), float(C2_1),
                        float(B1_0), float(B2_0), float(B1_1), float(B2_1))
    for c1c2, b1b2 in (((pack.C1_0, pack.C2_0), (pack.B1_0, pack.B2_0)),
                       ((pack.C1_1, pack.C2_1), (pack.B1_1, pack.B2_1))):
        gap = b1b2[1] - b1b2[0]
        if abs(gap * gap - (c1c2[0] + c1c2[1])) > 1e-10 * max(1.0, gap * gap):
            raise NumericalFailure("endpoint identity violated", {"pack": pack})
    return pack


def rhs(s, y):
    """Derivative of the state (C1, C2, B1, B2) at ray parameter s.

    (C1', C2') solve the linear pair

        (1+s) s C1' + (2-s)(1-s) C2' = -4 s C1 + 4 (1-s) C2
        (s^2 / C1) C1' - ((1-s)^2 / C2) C2' = -2,

    written in the equivalent solved form whose denominators stay bounded on
    [0, 1].  B1' and B2' use the regularized square-root relations; both B
    components are integrated so their mutual consistency can be monitored.

    ``y`` is any 4-sequence of floats; the result is a 4-tuple of floats.
    A nonpositive or NaN C raises :class:`NumericalFailure`.
    """
    C1, C2, B1, B2 = y
    if not (C1 > 0.0 and C2 > 0.0):
        raise NumericalFailure("positivity lost in ODE state",
                               {"s": s, "C1": C1, "C2": C2})
    q = (1.0 + s) * (1.0 - s) / C2 + s * (2.0 - s) / C1
    d1 = -2.0 * (2.0 * (1.0 - s) * C1 / C2 + (3.0 - 2.0 * s)) / q
    d2 = 2.0 * ((1.0 + 2.0 * s) + 2.0 * s * C2 / C1) / q
    root = math.sqrt(C1 + C2)
    dB1 = (2.0 * C1 + s * d1) / root * (1.0 + C2 / C1)
    dB2 = (2.0 * C2 - (1.0 - s) * d2) / root * (1.0 + C1 / C2)
    return d1, d2, dB1, dB2


def endpoint_slopes(pack, side):
    """Closed-form slopes (C1', C2') at an endpoint, from the ODE system itself.

    Obtained by evaluating the system and its s-derivative at the endpoint:
    at s = 0, C2' = 2 C2 and C1' = -4 C1 - 6 C2; mirrored at s = 1.  They
    are what :func:`rhs` must return at the endpoint state, where each
    branch takes its first RK4 stage.
    """
    if side == 0:
        return -4.0 * pack.C1_0 - 6.0 * pack.C2_0, 2.0 * pack.C2_0
    return -2.0 * pack.C1_1, 4.0 * pack.C2_1 + 6.0 * pack.C1_1


@dataclass
class Branch:
    """One integrated branch with dense 6-point Lagrange output.

    ``s`` is ascending and uniformly spaced; ``y`` holds the state
    (C1, C2, B1, B2) at each node.  ``identity_drift`` is the largest
    |B2 - B1 - sqrt(C1 + C2)| over the finest RK4 run (redundancy monitor
    for the B integration).  ``meta`` holds ``steps`` (every RK4 step taken
    on the branch), ``doublings``, the scaled ``error_estimate`` and
    ``stopped`` ("tolerance" or "cap").
    """
    side: int
    s: np.ndarray
    y: np.ndarray
    identity_drift: float
    pack: BoundaryPack
    meta: dict = field(default_factory=dict)

    def sample(self, grid):
        """State samples at ``grid`` (columns C1, C2, B1, B2).

        Local 6-point Lagrange interpolation on the uniform nodes; queries
        outside the node range are extrapolated from the edge stencil, and
        callers keep them inside the branch span.
        """
        grid = np.asarray(grid, dtype=float)
        x = (grid - self.s[0]) * ((self.s.size - 1) / (self.s[-1] - self.s[0]))
        return lagrange_interp(self.y.T, x).T

    def limit_values(self, grid):
        """(A1, A2, B1, B2) at ``grid``; B2 is reconstructed as B1 + sqrt(C1+C2)."""
        grid = np.asarray(grid, dtype=float)
        st = self.sample(grid)
        A1 = grid * grid * st[:, 0]
        A2 = (1.0 - grid) ** 2 * st[:, 1]
        B1 = st[:, 2]
        B2 = B1 + np.sqrt(st[:, 0] + st[:, 1])
        return A1, A2, B1, B2


def _rk4(s0, y, stop, n):
    """``n`` classical RK4 steps on Python floats from state ``y`` at ``s0``.

    Returns the nodes s0 + i h in integration order, the state at each, and
    the largest identity drift |B2 - B1 - sqrt(C1 + C2)| after a step.
    Halving h is exact, so the nodes of n steps are every second node of
    2n steps.  Loss of positivity in C raises :class:`NumericalFailure`
    with the last good s.
    """
    h = float(stop - s0) / n
    hh = 0.5 * h
    h6 = h / 6.0
    s_nodes = np.empty(n + 1)
    y_nodes = np.empty((n + 1, 4))
    s = s0
    drift = 0.0
    for i in range(n):
        y0, y1, y2, y3 = y
        try:
            a0, a1, a2, a3 = rhs(s, y)
            b0, b1, b2, b3 = rhs(s + hh, (y0 + hh * a0, y1 + hh * a1,
                                          y2 + hh * a2, y3 + hh * a3))
            c0, c1, c2, c3 = rhs(s + hh, (y0 + hh * b0, y1 + hh * b1,
                                          y2 + hh * b2, y3 + hh * b3))
            d0, d1, d2, d3 = rhs(s + h, (y0 + h * c0, y1 + h * c1,
                                         y2 + h * c2, y3 + h * c3))
        except NumericalFailure as exc:
            exc.context["last_good_s"] = s
            raise
        s_nodes[i] = s
        y_nodes[i] = y
        y = (y0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
             y1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
             y2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
             y3 + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3))
        s = s0 + (i + 1) * h
        csum = y[0] + y[1]
        # a negative sum is left to the next rhs call's positivity check
        if not csum < 0.0:
            drift = max(drift, abs(y[3] - y[2] - math.sqrt(csum)))
    s_nodes[n] = s
    y_nodes[n] = y
    return s_nodes, y_nodes, drift


def integrate_branch(pack, side, stop, steps_per_unit=DEFAULT_STEPS_PER_UNIT):
    """Integrate one branch from its endpoint to ``stop``, error-controlled.

    side 0 runs forward from s = 0, side 1 backward from s = 1, each from
    the closed-form endpoint state in ``pack`` (the right-hand side is
    regular there, so the first RK4 stage is taken at the endpoint itself).

    Step doubling with Richardson extrapolation (Hairer, Norsett & Wanner,
    *Solving ODEs I*, II.4): the first run takes n = ceil(length *
    ``steps_per_unit``) steps (at least 1), the next 2n.  At the n + 1
    shared nodes RK4's h^4 error gives the extrapolated state
    y2n + (y2n - yn)/15 and the estimate |y2n - yn|/15, scaled by the gap
    at the branch's endpoint (C over gap^2, B over gap).  While the estimate
    of some component exceeds ``_DOUBLING_TOL`` plus a rounding floor of
    ``_ROUNDING_ULPS`` eps max|y|, the step count doubles again and the old
    fine run becomes the coarse one, so each doubling integrates once.
    After ``_MAX_DOUBLINGS`` doublings the best branch is returned with its
    estimate; that is not an error.  The returned nodes are those of the
    finest run, with the correction (y2n - yn)/15 interpolated onto its odd
    nodes.  ``meta`` reports the work and the estimate (see :class:`Branch`).
    """
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side}")
    if not steps_per_unit >= 1:
        raise ValueError(f"steps_per_unit must be at least 1, got {steps_per_unit}")
    if side == 0:
        if not 0.0 < stop <= 1.0:
            raise ValueError(f"forward stop must lie in (0, 1], got {stop}")
        s0, y = 0.0, (pack.C1_0, pack.C2_0, pack.B1_0, pack.B2_0)
        gap = pack.gap_0
    else:
        if not 0.0 <= stop < 1.0:
            raise ValueError(f"backward stop must lie in [0, 1), got {stop}")
        s0, y = 1.0, (pack.C1_1, pack.C2_1, pack.B1_1, pack.B2_1)
        gap = pack.gap_1
    scale = np.array([gap * gap, gap * gap, gap, gap])
    n = max(1, int(np.ceil(abs(stop - s0) * steps_per_unit)))
    _, coarse, _ = _rk4(s0, y, stop, n)
    steps = n
    for doublings in range(1, _MAX_DOUBLINGS + 1):
        s_fine, fine, drift = _rk4(s0, y, stop, 2 * n)
        steps += 2 * n
        diff = (fine[::2] - coarse) / 15.0
        err = np.abs(diff).max(axis=0)
        floor = _ROUNDING_ULPS * np.finfo(float).eps * np.abs(fine).max(axis=0)
        converged = bool(np.all(err <= _DOUBLING_TOL * scale + floor))
        if converged:
            break
        coarse, n = fine, 2 * n
    # the correction is smooth and tiny, so interpolating it onto the odd
    # fine nodes loses nothing and halves the mesh the read-out sees
    s_nodes = s_fine
    y_nodes = fine + lagrange_interp(diff.T, np.arange(len(fine)) / 2.0).T
    if side == 1:
        s_nodes, y_nodes = s_nodes[::-1], y_nodes[::-1]
    meta = {"steps": steps, "stop": stop, "doublings": doublings,
            "error_estimate": float(np.max(err / scale)),
            "stopped": "tolerance" if converged else "cap"}
    return Branch(side, s_nodes, y_nodes, drift, pack, meta)


def _fix_endpoints(g, A1, A2, B1, B2, pack):
    # pin grid points at s = 0 / s = 1 to the exact closed forms
    at0 = g == 0.0
    A1[at0], A2[at0] = 0.0, pack.C2_0
    B1[at0], B2[at0] = pack.B1_0, pack.B2_0
    at1 = g == 1.0
    A1[at1], A2[at1] = pack.C1_1, 0.0
    B1[at1], B2[at1] = pack.B1_1, pack.B2_1


def assemble_curve(forward, backward, c1, c2, grid):
    """Splice two branches and the plateau constants into one limit curve.

    The grid is split by :func:`~angelesco.systems.plateau_zones`: branch
    values fill s < c1 and s > c2, and on [c1, c2] (for touching systems
    the one ray c1 = c2) the four functions are the mean of the two branch
    endpoint states.  Their mismatch is recorded in ``meta``, ``ok`` when
    at most ``_SPLICE_TOL`` scaled by the smaller endpoint gap, together
    with the branch redundancy monitors and, under ``branches``, each
    branch's step-doubling report.
    """
    grid = check_grid(grid)
    pack = forward.pack
    end_f = np.array(forward.limit_values(np.array([c1])))
    end_b = np.array(backward.limit_values(np.array([c2])))
    diff = np.abs(end_f - end_b)[:, 0]
    gap = min(pack.gap_0, pack.gap_1)
    # flagged, never fatal: both branch endpoints estimate the same plateau
    mism = {"at_c1_vs_c2": diff.tolist(),
            "ok": bool(np.max(diff / [gap * gap, gap * gap, gap, gap])
                       <= _SPLICE_TOL)}

    vals = np.empty((4, grid.size))
    left, plat, right = plateau_zones(grid, c1, c2)
    vals[:, left] = forward.limit_values(grid[left])
    vals[:, right] = backward.limit_values(grid[right])
    # plateau constants: A is constant there, so C must be read through
    # the s-rescaling at each grid point rather than copied
    vals[:, plat] = 0.5 * (end_f + end_b)
    _fix_endpoints(grid, *vals, pack)  # s = 0 and s = 1 are in no zone
    meta = {"splice_mismatch": mism,
            "identity_drift": {"forward": forward.identity_drift,
                               "backward": backward.identity_drift},
            "branches": {name: {k: br.meta[k] for k in
                                ("error_estimate", "steps", "doublings",
                                 "stopped")}
                         for name, br in (("forward", forward),
                                          ("backward", backward))}}
    return validate_computed(LimitCurve(grid.copy(), *vals, "ode", meta))


def solve_system(sys, plateau, grid, steps_per_unit=DEFAULT_STEPS_PER_UNIT):
    """Full ODE-route curve for ``sys``: both branches plus the splice.

    ``plateau`` supplies the window [c1, c2] (from the surface route).
    Returns the assembled :class:`LimitCurve`.
    """
    pack = boundary_values(sys)
    forward = integrate_branch(pack, 0, plateau.c1, steps_per_unit)
    backward = integrate_branch(pack, 1, plateau.c2, steps_per_unit)
    return assemble_curve(forward, backward, plateau.c1, plateau.c2, grid)
