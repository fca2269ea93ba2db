"""Cross-method diagnostics: curve comparison, ODE residuals, identities.

The three computation routes (lattice, ODE, surface) approximate the same
four limit functions on whatever grid they are given, so two curves on one
grid can be differenced point by point.  Independent of any pairing, a
single curve can be checked against the differential relations the limits
satisfy and against the square-root identity linking the a- and b-limits.
Together these give quantitative meaning to "the methods agree"; given the
hull length L, :func:`compare` states a difference in A/L^2 and B/L, as
the lattice ladder's estimate does (:class:`~angelesco.lattice.Ladder`).
How the lattice route converges in its level is no check here: a sweep to
n is the first n levels of any deeper sweep, bit for bit, so a study over
levels reads one sweep per level against one surface curve
(``demos/lattice_convergence.py``).

Curves do not carry the plateau window.  A comparison reads the points of
a boolean mask over the shared grid (the lattice pairs' mask is
:func:`compared_points`); the identity and residual checks, which must skip
the plateau, take it as ``window=(c1, c2)``: ``(c, c)`` on a touching
system, ``(0.0, 0.0)`` for a curve with no plateau, which keeps the whole
interior.  Checks only report: one that finds no point to read reports
``n_points = 0`` and zero statistics, and ``validate`` fails it.  B1 < B2
and the endpoint zeros are the curve contract's
(:meth:`~angelesco.systems.LimitCurve.validate`), which no check repeats.
"""
from dataclasses import asdict, dataclass, field

import numpy as np

from .systems import plateau_zones

FUNCS = ("A1", "A2", "B1", "B2")
# ode_residuals skips points this close to 0, 1 and the plateau window
EDGE_MARGIN = 0.01


def compared_points(grid, c1, c2, exclude_margin):
    """Mask of the points of ``grid`` at least ``exclude_margin`` from [c1, c2]."""
    dist = np.maximum(np.maximum(c1 - grid, grid - c2), 0.0)
    return dist >= exclude_margin


@dataclass(frozen=True)
class ComparisonReport:
    """Per-function max/mean absolute differences of two curves.

    ``max_abs`` and ``mean_abs`` map function name to the statistic over the
    compared grid points, 0.0 when ``n_points`` is 0, in A/L^2 and B/L when
    :func:`compare` was given the hull length L.
    """
    methods: tuple
    n_points: int
    n_excluded: int
    max_abs: dict
    mean_abs: dict

    def worst(self):
        return max(self.max_abs.values())

    def as_dict(self):
        return asdict(self)


def compare(a, b, mask=None, length=None):
    """Difference two limit curves on their shared grid.

    The grids must agree point by point, else ValueError.  ``mask``, a
    boolean array over the grid, selects the compared points; None compares
    all of them.  A mask with no point gives ``n_points = 0``.  Given the
    hull ``length`` L, the statistics of A1 and A2 are over L^2 and those
    of B1 and B2 over L, in the scale-free units A/L^2 and B/L.
    """
    if not np.array_equal(a.s, b.s):
        raise ValueError(f"compare needs curves on one grid: {a.method!r} "
                         f"has {a.s.size} points, {b.method!r} {b.s.size}")
    mask = (np.ones(a.s.size, dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool))
    scales = ((1.0,) * 4 if length is None
              else (length * length,) * 2 + (length,) * 2)

    max_abs, mean_abs = {}, {}
    for f, scale in zip(FUNCS, scales):
        d = np.abs(getattr(a, f)[mask] - getattr(b, f)[mask])
        max_abs[f] = float(d.max(initial=0.0)) / scale
        mean_abs[f] = float(d.sum() / max(d.size, 1)) / scale
    n = int(mask.sum())
    return ComparisonReport((a.method or "a", b.method or "b"),
                            n, int(mask.size - n), max_abs, mean_abs)


@dataclass(frozen=True)
class ResidualReport:
    """Max relative residuals of the four differential relations."""
    h: float
    n_points: int
    max_rel: tuple
    meta: dict = field(default_factory=dict)

    def worst(self):
        return max(self.max_rel)

    def as_dict(self):
        return {"h": self.h, "n_points": self.n_points,
                "max_rel": list(self.max_rel), **self.meta}


def residual_stride(h, step):
    """Whole number (at least 1) of grid ``step``s in ``h``, or ValueError."""
    stride_f = h / step
    stride = int(round(stride_f))
    if stride < 1 or abs(stride_f - stride) > 1e-6:
        raise ValueError(f"fd_step {h:.3e} must be a whole multiple of the "
                         f"residual grid spacing {step:.3e} "
                         f"(1 / (residual_grid_points - 1))")
    return stride


def ode_residuals(curve, h, window):
    """Central-difference residuals of the four limit relations on a curve.

    The relations (with ' = d/ds) are

        r1 = B1' s + B2' (1 - s)
        r2 = B1 B1' s + B2 B2' (1 - s) + A1' + A2'
        r3 = A1 (B1' - B2')(1 - s) + A1' (B1 - B2) s
        r4 = A2 (B1' - B2') s + A2' (B1 - B2)(1 - s)

    evaluated with stride-based central differences of step ``h`` on the
    curve's own uniform grid; each residual is divided by
    max(1, largest |term|) at that point.  Points within ``EDGE_MARGIN`` of
    0 or 1 are excluded, and so is the plateau ``window`` = (c1, c2),
    where all four relations hold trivially: the points are split by
    :func:`~angelesco.systems.plateau_zones` on the window widened by
    ``EDGE_MARGIN`` at both edges (``(0.0, 0.0)`` drops no point the end
    margin keeps).  A nonuniform
    grid, or one whose spacing does not divide ``h``
    (:func:`residual_stride`), raises ValueError.
    """
    s = curve.s
    if s.size < 3:
        raise ValueError("curve grid too short for central differences")
    dx = np.diff(s)
    if dx.max() - dx.min() > 1e-9 * dx.max():
        raise ValueError("residual evaluation needs a uniform grid")
    step = float(dx.mean())
    stride = residual_stride(h, step)

    i = np.arange(stride, s.size - stride)
    sm = s[i]
    vals = {f: getattr(curve, f)[i] for f in FUNCS}
    der = {f: (getattr(curve, f)[i + stride] - getattr(curve, f)[i - stride])
           / (2.0 * stride * step) for f in FUNCS}

    c1, c2 = window
    left, _, right = plateau_zones(sm, c1 - EDGE_MARGIN, c2 + EDGE_MARGIN)
    keep = (left | right) & (sm > EDGE_MARGIN) & (sm < 1.0 - EDGE_MARGIN)
    sm = sm[keep]
    A1, A2, B1, B2 = (vals[f][keep] for f in FUNCS)
    dA1, dA2, dB1, dB2 = (der[f][keep] for f in FUNCS)
    t = 1.0 - sm

    def rel(total, *terms):
        scale = np.maximum(1.0, np.max(np.abs(terms), axis=0))
        return float(np.max(np.abs(total) / scale, initial=0.0))

    t11, t12 = dB1 * sm, dB2 * t
    r1 = rel(t11 + t12, t11, t12)
    t21, t22 = B1 * dB1 * sm, B2 * dB2 * t
    r2 = rel(t21 + t22 + dA1 + dA2, t21, t22, dA1, dA2)
    t31, t32 = A1 * (dB1 - dB2) * t, dA1 * (B1 - B2) * sm
    r3 = rel(t31 + t32, t31, t32)
    t41, t42 = A2 * (dB1 - dB2) * sm, dA2 * (B1 - B2) * t
    r4 = rel(t41 + t42, t41, t42)
    return ResidualReport(h, int(sm.size), (r1, r2, r3, r4),
                          {"stride": stride, "edge_margin": EDGE_MARGIN,
                           "window": window})


@dataclass(frozen=True)
class IdentityReport:
    """Square-root identity residuals of one curve."""
    max_abs: float
    max_rel: float
    n_points: int

    def as_dict(self):
        return asdict(self)


def identity_checks(curve, window):
    """Check (B2 - B1)^2 = A1/s^2 + A2/(1-s)^2 off the plateau.

    The identity is evaluated on the interior points off the plateau
    ``window`` = (c1, c2), as :func:`~angelesco.systems.plateau_zones`
    splits them; ``(0.0, 0.0)`` keeps the whole interior.
    """
    s = curve.s
    left, _, right = plateau_zones(s, *window)
    keep = left | right
    sm = s[keep]
    lhs = (curve.B2[keep] - curve.B1[keep]) ** 2
    rhs = curve.A1[keep] / sm ** 2 + curve.A2[keep] / (1.0 - sm) ** 2
    diff = np.abs(lhs - rhs)
    rel = diff / np.maximum(1.0, lhs)
    return IdentityReport(float(diff.max(initial=0.0)),
                          float(rel.max(initial=0.0)), int(sm.size))
