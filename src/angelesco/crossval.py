"""Cross-method diagnostics: curve comparison, ODE residuals, identities.

The three computation routes (lattice, ODE, surface) approximate the same
four limit functions on whatever grid they are given, so two curves on one
grid can be differenced point by point.  Independent of any pairing, a
single curve can be checked against the differential relations the limits
satisfy and against the square-root identity linking the a- and b-limits.
Together these give quantitative meaning to "the methods agree".  Each
difference is in A/L^2 and B/L, L the hull length, as the lattice ladder's
estimate is (:class:`~angelesco.lattice.Ladder`), so a bound reads alike
at every scale.
How the lattice route converges in its level is no check here: a sweep to
n is the first n levels of any deeper sweep, bit for bit, so a study over
levels reads one sweep per level against one surface curve
(``demos/lattice_convergence.py``).

Curves do not carry the plateau window.  Every check reads the points
that :func:`~angelesco.systems.off_window` keeps: a comparison takes its
mask over the shared grid, while the identity and residual checks take the
window as ``window=(c1, c2)``: ``(c, c)`` on a touching system, ``(0.0,
0.0)`` for a curve with no plateau.  Checks only report: one that finds no
point to read reports ``n_points = 0`` and zero statistics, and
``validate`` fails it.  B1 < B2 and the endpoint zeros are the curve
contract's (:meth:`~angelesco.systems.LimitCurve.validate`), which no
check repeats.

Each check returns the dict that ``validate_report.json`` stores as its
entry, JSON as it stands; ``validate`` adds ``exclude_margin``,
``tolerance`` and ``passed``.  The keys:

- :func:`compare`: ``methods``, the two curves' methods; ``n_points`` and
  ``n_excluded``, the grid points compared and skipped; ``max_abs`` and
  ``mean_abs``, each mapping A1, A2, B1 and B2 to its statistic over the
  compared points, in A/L^2 and B/L.
- :func:`identity_checks`: ``max_abs``, the identity's largest difference
  over L^2, and ``n_points``.
- :func:`ode_residuals`: ``h``, ``n_points``, ``max_rel``, the list of the
  four relations' largest relative residuals, ``stride``, ``edge_margin``
  and ``window``.
"""
import numpy as np

from .systems import FUNCS, off_window

# ode_residuals skips points this close to 0, 1 and the plateau window
EDGE_MARGIN = 0.01


def compare(a, b, mask, length):
    """Difference two limit curves on their shared grid, in A/L^2 and B/L.

    The grids must agree point by point, else ValueError.  ``mask``, a
    boolean array over the grid, selects the compared points; None compares
    all of them.  The statistics of A1 and A2 are over L^2 and those of B1
    and B2 over L, with L the hull ``length``.
    """
    if not np.array_equal(a.s, b.s):
        raise ValueError(f"compare needs curves on one grid: {a.method!r} "
                         f"has {a.s.size} points, {b.method!r} {b.s.size}")
    mask = (np.ones(a.s.size, dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool))

    max_abs, mean_abs = {}, {}
    for f, scale in zip(FUNCS, (length * length,) * 2 + (length,) * 2):
        d = np.abs(getattr(a, f)[mask] - getattr(b, f)[mask])
        max_abs[f] = float(d.max(initial=0.0)) / scale
        mean_abs[f] = float(d.sum() / max(d.size, 1)) / scale
    n = int(mask.sum())
    return {"methods": (a.method or "a", b.method or "b"), "n_points": n,
            "n_excluded": int(mask.size - n), "max_abs": max_abs,
            "mean_abs": mean_abs}


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
    max(1, largest |term|) at that point.  It reads the points more than
    ``EDGE_MARGIN`` from 0, 1 and the plateau ``window`` = (c1, c2), where
    all four relations hold trivially: :func:`~angelesco.systems.off_window`
    with ``(EDGE_MARGIN, EDGE_MARGIN)``.  A nonuniform grid, or one whose
    spacing does not divide ``h`` (:func:`residual_stride`), raises
    ValueError.
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

    keep = off_window(sm, *window, EDGE_MARGIN, EDGE_MARGIN)
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
    return {"h": h, "n_points": int(sm.size), "max_rel": [r1, r2, r3, r4],
            "stride": stride, "edge_margin": EDGE_MARGIN, "window": window}


def identity_checks(curve, window, length):
    """Check (B2 - B1)^2 = A1/s^2 + A2/(1-s)^2 off the plateau ``window``
    = (c1, c2), on the interior points :func:`~angelesco.systems.off_window`
    keeps with ``(0.0, 0.0)``; the window ``(0.0, 0.0)`` keeps them all.
    Both sides grow as L^2: the worst is over the hull ``length`` squared."""
    s = curve.s
    keep = off_window(s, *window, 0.0, 0.0)
    sm = s[keep]
    lhs = (curve.B2[keep] - curve.B1[keep]) ** 2
    rhs = curve.A1[keep] / sm ** 2 + curve.A2[keep] / (1.0 - sm) ** 2
    worst = float(np.abs(lhs - rhs).max(initial=0.0))
    return {"max_abs": worst / (length * length), "n_points": int(sm.size)}
