"""System descriptions, the limit-curve contract and coordinate normalization.

An Angelesco system here is a pair of disjoint (or touching) real intervals,
each carrying a classical weight.  All asymptotic machinery works in a
normalized "star" frame where the second interval is [beta, 1] and the first
is [-alpha, 0]; this module holds the value types plus the affine bookkeeping
that moves recurrence-limit data between frames.

It also owns the rules every limit curve obeys, whichever route computed
it: :func:`check_grid` is the one grid check (nonempty, 1-d, strictly
increasing inside [0, 1]), :func:`plateau_zones` the one split of a grid
around the plateau window, and :meth:`LimitCurve.validate` the one set of
pointwise invariants, which :class:`LimitPoint` applies as a one-point curve.
"""
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure

WEIGHT_KINDS = ("chebyshev1", "chebyshev2", "uniform")


def check_weight_kind(kind):
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}; expected one of {WEIGHT_KINDS}")
    return kind


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo < hi."""
    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def radius(self):
        return 0.5 * (self.hi - self.lo)

    @property
    def length(self):
        return self.hi - self.lo


@dataclass(frozen=True)
class AngelescoSystem:
    """Two ordered intervals with weights; i1 lies left of i2 (touching allowed)."""
    i1: Interval
    i2: Interval
    w1: str = "chebyshev2"
    w2: str = "chebyshev2"

    def __post_init__(self):
        check_weight_kind(self.w1)
        check_weight_kind(self.w2)
        if self.i1.hi > self.i2.lo:
            raise ValueError(
                f"intervals must be disjoint or touching: {self.i1} vs {self.i2}")

    @property
    def touching(self):
        return self.i1.hi == self.i2.lo


@dataclass(frozen=True)
class StarConfig:
    """Normalized frame: intervals [-alpha, 0] and [beta, 1], alpha > 0, 0 <= beta < 1."""
    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")

    def system(self):
        # the star frame is geometry only: the limits do not see the weights
        return AngelescoSystem(Interval(-self.alpha, 0.0),
                               Interval(self.beta, 1.0))


@dataclass(frozen=True)
class AffineMap:
    """x_user = scale * y + shift with scale != 0."""
    scale: float
    shift: float

    def __post_init__(self):
        if self.scale == 0:
            raise ValueError("scale must be nonzero")

    def apply(self, y):
        return self.scale * y + self.shift


def check_grid(s):
    """Return ``s`` as a float array; ValueError unless it is a valid grid.

    A valid grid is nonempty, 1-d and strictly increasing inside [0, 1].
    Every comparison is written so that NaN fails it.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if not (np.all(np.diff(s) > 0.0) and s[0] >= 0.0 and s[-1] <= 1.0):
        raise ValueError("grid must be strictly increasing inside [0, 1]")
    return s


def plateau_zones(grid, c1, c2):
    """Masks ``(left, plateau, right)`` of the interior points of ``grid``.

    Interior means 0 < s < 1; the endpoints belong to no zone.  The plateau
    is closed, c1 <= s <= c2, so for c1 <= c2 the three masks are disjoint
    and cover the interior.  Every route and check splits a grid this way.
    """
    s = np.asarray(grid, dtype=float)
    interior = (s > 0.0) & (s < 1.0)
    return (interior & (s < c1), interior & (s >= c1) & (s <= c2),
            interior & (s > c2))


@dataclass(frozen=True)
class LimitPoint:
    """Recurrence-coefficient limits along the ray direction s.

    A1, A2 are the limits of the lagging (a) coefficients, B1, B2 of the
    diagonal (b) coefficients.  The invariants are those of a one-point
    :class:`LimitCurve`.
    """
    s: float
    A1: float
    A2: float
    B1: float
    B2: float

    def __post_init__(self):
        LimitCurve([self.s], [self.A1], [self.A2], [self.B1], [self.B2]).validate()


@dataclass
class LimitCurve:
    """Sampled limit functions on an increasing grid of ray parameters."""
    s: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    method: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.A1 = np.asarray(self.A1, dtype=float)
        self.A2 = np.asarray(self.A2, dtype=float)
        self.B1 = np.asarray(self.B1, dtype=float)
        self.B2 = np.asarray(self.B2, dtype=float)

    def __len__(self):
        return self.s.size

    def point(self, i):
        return LimitPoint(float(self.s[i]), float(self.A1[i]), float(self.A2[i]),
                          float(self.B1[i]), float(self.B2[i]))

    def validate(self):
        """Check the grid and the pointwise invariants; ValueError on violation.

        All values are finite, A1, A2 >= 0 with A1 vanishing only at s = 0
        and A2 only at s = 1, and B1 < B2 everywhere.
        """
        for name in ("s", "A1", "A2", "B1", "B2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} values must be finite")
        check_grid(self.s)
        for message, mask in self._pointwise():
            if np.any(mask):
                raise ValueError(message)
        return self

    def broken(self):
        """Mask of the points that break a pointwise invariant of
        :meth:`validate`, a non-finite value included."""
        bad = ~np.all(np.isfinite([self.A1, self.A2, self.B1, self.B2]),
                      axis=0)
        for _, mask in self._pointwise():
            bad |= mask
        return bad

    def _pointwise(self):
        """(message, mask of the points breaking it) per pointwise invariant."""
        s = self.s
        return (("A limits must be nonnegative",
                 (self.A1 < 0) | (self.A2 < 0)),
                ("A1 may vanish only at s = 0, A2 only at s = 1",
                 ((self.A1 == 0) & (s != 0.0)) | ((self.A2 == 0) & (s != 1.0))),
                ("need B1 < B2 everywhere", self.B1 >= self.B2))


def validate_computed(curve):
    """Validate a curve a route computed; a violation is a NumericalFailure.

    Routes check their caller's grid first, so a broken invariant here is
    the computation's fault, not the caller's.
    """
    try:
        return curve.validate()
    except ValueError as exc:
        raise NumericalFailure(f"{curve.method} curve: {exc}",
                               {"method": curve.method}) from exc


# ---------------------------------------------------------------------------
# frame operations
# ---------------------------------------------------------------------------

def star_normalize(sys):
    """Normalize a system to the star frame.

    Returns ``(StarConfig, AffineMap)`` where the map sends star coordinates
    back to user coordinates: the second interval maps onto [beta, 1] and the
    first onto [-alpha, 0].
    """
    scale = sys.i2.hi - sys.i1.hi
    shift = sys.i1.hi
    alpha = (sys.i1.hi - sys.i1.lo) / scale
    beta = (sys.i2.lo - sys.i1.hi) / scale
    return StarConfig(alpha, beta), AffineMap(scale, shift)


def reflect(sys):
    """Reflect a system about the origin, restoring interval order.

    The reflected intervals are the negated originals with roles exchanged,
    so limit data travels back through ``AffineMap(-1, 0)`` with
    ``swapped=True``.  Weights travel with their intervals.
    """
    return AngelescoSystem(Interval(-sys.i2.hi, -sys.i2.lo),
                           Interval(-sys.i1.hi, -sys.i1.lo),
                           sys.w2, sys.w1)


def pushforward_limits(curve, amap, swapped=False):
    """Transport a limit curve through an affine change of variable.

    With ``swapped`` set, the interval roles are exchanged first (indices
    1 <-> 2 and s -> 1 - s, the grid reversed so it stays increasing), then
    the affine action A -> scale^2 * A, B -> scale * B + shift is applied
    slotwise.  A negative scale encodes a reflection and is only consistent
    together with ``swapped=True``.  The map is appended to the ``meta`` log
    ``pushforward`` of the returned curve.
    """
    lam, c = amap.scale, amap.shift
    s, a1, a2, b1, b2 = curve.s, curve.A1, curve.A2, curve.B1, curve.B2
    if swapped:
        s, a1, a2, b1, b2 = (1.0 - s)[::-1], a2[::-1], a1[::-1], b2[::-1], b1[::-1]
    meta = dict(curve.meta)
    meta["pushforward"] = [*meta.get("pushforward", []),
                           {"scale": lam, "shift": c, "swapped": bool(swapped)}]
    return LimitCurve(s, lam * lam * a1, lam * lam * a2,
                      lam * b1 + c, lam * b2 + c, curve.method, meta)
