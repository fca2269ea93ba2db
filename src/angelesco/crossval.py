"""Cross-method diagnostics: curve comparison, ODE residuals, identities.

The three computation routes (lattice, ODE, surface) approximate the same
four limit functions, so any two curves can be differenced on a common grid.
Independent of any pairing, a single curve can be checked against the
differential relations the limits satisfy and against the square-root
identity linking the a- and b-limits.  Together these give quantitative
meaning to "the methods agree".

A check that must skip the plateau takes its window as an argument,
``window=(c1, c2)``, or ``None`` for a curve without one; curves do not
carry it.  Checks only report: one that finds no point to read reports
``n_points = 0`` and zero statistics, and ``validate`` fails it.
"""
from dataclasses import asdict, dataclass, field

import numpy as np

from .systems import plateau_zones

FUNCS = ("A1", "A2", "B1", "B2")
# ode_residuals skips points this close to 0, 1 and the plateau window
EDGE_MARGIN = 0.01


def resample(curve, grid):
    """Values of ``curve`` on the points of ``grid`` that its own grid covers.

    Returns ``(keep, values)``: a boolean mask of the covered points of
    ``grid`` (the curve's range widened by 1e-12) and a dict of the four
    functions there.  A curve already on ``grid`` gives its own arrays;
    otherwise they are interpolated linearly.  The mask is all False when
    the grids do not overlap; :func:`compare` then reports no point.
    """
    if np.array_equal(curve.s, grid):
        return np.ones(grid.size, dtype=bool), {f: getattr(curve, f) for f in FUNCS}
    keep = (grid >= curve.s[0] - 1e-12) & (grid <= curve.s[-1] + 1e-12)
    return keep, {f: np.interp(grid[keep], curve.s, getattr(curve, f))
                  for f in FUNCS}


def compared_points(grid, c1, c2, exclude_margin):
    """Mask of the points of ``grid`` at least ``exclude_margin`` from [c1, c2]."""
    dist = np.maximum(np.maximum(c1 - grid, grid - c2), 0.0)
    return dist >= exclude_margin


@dataclass(frozen=True)
class ComparisonReport:
    """Per-function max/mean absolute differences of two curves.

    ``max_abs`` and ``mean_abs`` map function name to the statistic over the
    kept grid points, 0.0 when ``n_points`` is 0.
    """
    methods: tuple
    n_points: int
    n_excluded: int
    exclude_margin: float
    max_abs: dict
    mean_abs: dict

    def worst(self):
        return max(self.max_abs.values())

    def as_dict(self):
        return asdict(self)


def compare(a, b, exclude_margin=0.0, window=None):
    """Difference two limit curves on their common grid.

    Grids must agree point by point; otherwise ``b`` is resampled onto the
    overlapping part of ``a``'s grid by :func:`resample`.  With a positive
    ``exclude_margin`` (finite and nonnegative) every point closer than the
    margin to the plateau window ``window`` = (c1, c2) is dropped.  No
    overlap, or a margin that drops every point, gives ``n_points = 0``.
    """
    if not 0.0 <= exclude_margin < np.inf:
        raise ValueError(f"exclude_margin must be finite and nonnegative, "
                         f"got {exclude_margin}")
    keep, vb = resample(b, a.s)
    grid = a.s[keep]
    va = {f: getattr(a, f)[keep] for f in FUNCS}

    mask = np.ones(grid.size, dtype=bool)
    if exclude_margin > 0.0:
        if window is None:
            raise ValueError("exclude_margin needs a plateau window")
        mask = compared_points(grid, *window, exclude_margin)

    max_abs, mean_abs = {}, {}
    for f in FUNCS:
        d = np.abs(va[f][mask] - vb[f][mask])
        max_abs[f] = float(d.max(initial=0.0))
        mean_abs[f] = float(d.sum() / max(d.size, 1))
    return ComparisonReport((a.method or "a", b.method or "b"),
                            int(mask.sum()), int(grid.size - mask.sum()),
                            float(exclude_margin), max_abs, mean_abs)


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


def ode_residuals(curve, h=1e-3, window=None):
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
    ``EDGE_MARGIN`` at both edges.  A nonuniform
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

    keep = (sm > EDGE_MARGIN) & (sm < 1.0 - EDGE_MARGIN)
    if window is not None:
        c1, c2 = window
        left, _, right = plateau_zones(sm, c1 - EDGE_MARGIN, c2 + EDGE_MARGIN)
        keep &= left | right
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
    """Square-root identity and endpoint checks for one curve."""
    max_abs: float
    max_rel: float
    min_gap: float
    endpoint_ok: bool
    n_points: int

    def as_dict(self):
        return asdict(self)


def identity_checks(curve, window=None):
    """Check (B2 - B1)^2 = A1/s^2 + A2/(1-s)^2 off the plateau.

    Also verifies B2 > B1 on the whole grid and the endpoint zeros
    A1(0) = 0, A2(1) = 0 when those grid points are present.  The identity
    itself is evaluated on the interior points off the plateau
    ``window`` = (c1, c2), as :func:`~angelesco.systems.plateau_zones`
    splits them; without a window the whole interior is used.
    """
    s = curve.s
    gap = curve.B2 - curve.B1
    endpoint_ok = True
    at0 = s == 0.0
    at1 = s == 1.0
    if np.any(at0):
        endpoint_ok &= bool(np.all(curve.A1[at0] == 0.0))
    if np.any(at1):
        endpoint_ok &= bool(np.all(curve.A2[at1] == 0.0))

    if window is None:
        keep = (s > 0.0) & (s < 1.0)
    else:
        left, _, right = plateau_zones(s, *window)
        keep = left | right
    sm = s[keep]
    lhs = gap[keep] ** 2
    rhs = curve.A1[keep] / sm ** 2 + curve.A2[keep] / (1.0 - sm) ** 2
    diff = np.abs(lhs - rhs)
    rel = diff / np.maximum(1.0, lhs)
    return IdentityReport(float(diff.max(initial=0.0)),
                          float(rel.max(initial=0.0)),
                          float(gap.min()), endpoint_ok, int(sm.size))


@dataclass(frozen=True)
class ConvergenceTable:
    """Lattice-vs-surface errors at one ray parameter over several levels.

    Every row is read from one sweep to the largest level.
    """
    s: float
    levels: tuple
    plain: np.ndarray      # rows: levels; columns: A1, A2, B1, B2
    extrapolated: np.ndarray
    reference: tuple

    def max_plain(self):
        return self.plain.max(axis=1)

    def max_extrapolated(self):
        return self.extrapolated.max(axis=1)

    def as_dict(self):
        return {"s": self.s, "levels": list(self.levels),
                "plain": self.plain.tolist(),
                "extrapolated": self.extrapolated.tolist(),
                "reference": list(self.reference)}


def convergence_study(sys, s, levels):
    """Error table of finite-level ray values against the surface reference.

    One lattice is swept to the largest level, snapshotting every level and
    each level its Richardson table reads.  Each row reads the ray value at
    ``s`` from that sweep cut back to its level, plain and extrapolated
    (:func:`~angelesco.lattice.curve_from_lattice`), and differences it
    against the closed-form surface values.  A row can differ from a fresh
    sweep to its own level by the rounding of the deeper axis data: on the
    touching system at levels 100 ... 1600 and s = 0.3, 0.5, 0.9 the values
    moved by at most 1.6e-15 plain and 5.4e-15 extrapolated.
    """
    from .lattice import ray_limit, solve_lattice, table_levels
    from .surface import limits_at
    levels = tuple(int(m) for m in levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must increase, got {levels}")
    ref = limits_at(sys, s)
    ref_t = (ref.A1, ref.A2, ref.B1, ref.B2)
    lat = solve_lattice(sys, levels[-1], snapshot_levels={
        n for m in levels for n in table_levels(m)})
    plain = np.empty((len(levels), 4))
    extra = np.empty((len(levels), 4))
    for i, m in enumerate(levels):
        cut = lat.truncated(m)
        p = ray_limit(cut, s)
        r = ray_limit(cut, s, extrapolate=True)
        plain[i] = [abs(p.A1 - ref.A1), abs(p.A2 - ref.A2),
                    abs(p.B1 - ref.B1), abs(p.B2 - ref.B2)]
        extra[i] = [abs(r.A1 - ref.A1), abs(r.A2 - ref.A2),
                    abs(r.B1 - ref.B1), abs(r.B2 - ref.B2)]
    return ConvergenceTable(float(s), levels, plain, extra, ref_t)
