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
pointwise invariants, the endpoint zeros and B1 < B2 among them, which
each route applies once.  A single ray is a one-point curve: every route
answers on a grid, and a one-point grid reads the same bits as that point
of a longer one.

It owns the units too.  Scaling a system by 2^-e scales its A's by 4^-e
and its B's by 2^-e, exactly, so every route computes on :func:`hull_units`
(hull length in [1/2, 1)) and returns through :func:`user_units`, where an
A ~ L^2 that leaves the normal doubles is the one :func:`range_failure`.
"""
import math
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
        if not math.isfinite(self.hull_length):
            raise ValueError(f"hull length of {self.i1} and {self.i2} "
                             f"overflows the doubles")

    @property
    def touching(self):
        return self.i1.hi == self.i2.lo

    @property
    def hull_length(self):
        """L, the length of [i1.lo, i2.hi]; A/L^2 and B/L are scale-free."""
        return self.i2.hi - self.i1.lo


@dataclass(frozen=True)
class StarConfig:
    """Normalized frame: intervals [-alpha, 0] and [beta, 1], alpha > 0.

    (beta, ``one_minus_beta``) are exact lengths that sum to 1 to rounding,
    so 1 - beta keeps its digits where beta rounds to 1.
    """
    alpha: float
    beta: float
    one_minus_beta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        b, rest = self.beta, self.one_minus_beta
        if not (0.0 <= b <= 1.0 and rest > 0.0
                and abs(b + rest - 1.0) <= 4 * np.finfo(float).eps):
            raise ValueError(f"(beta, 1 - beta) must be a pair in [0, 1] x "
                             f"(0, 1] summing to 1, got ({b}, {rest})")

    def reflected(self):
        """The frame mirrored by x -> -x, [-1, -beta] u [0, alpha] rescaled,
        and the map from its star frame into this one, a reflection."""
        span = self.alpha + self.beta
        return (StarConfig(self.one_minus_beta / span, self.beta / span,
                           self.alpha / span), AffineMap(-span, self.beta))


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
    and cover the interior.  Every route and check splits a grid this way
    (the residual check on the window widened by its edge margin) except
    the lattice comparisons' distance rule, ``crossval.compared_points``.
    """
    s = np.asarray(grid, dtype=float)
    interior = (s > 0.0) & (s < 1.0)
    return (interior & (s < c1), interior & (s >= c1) & (s <= c2),
            interior & (s > c2))


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

    def validate(self):
        """Check the grid and the pointwise invariants; ValueError on violation.

        All values are finite, A1, A2 >= 0, A1 is 0 at s = 0 and nowhere
        else (every route writes exact end zeros), A2 is 0 at s = 1 and
        nowhere else, and B1 < B2 everywhere.
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
                ("A1 must vanish at s = 0 and nowhere else, "
                 "A2 at s = 1 and nowhere else",
                 ((self.A1 == 0) != (s == 0.0)) | ((self.A2 == 0) != (s == 1.0))),
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


def range_failure(sys):
    """The one :class:`NumericalFailure` of a system whose limits leave the
    doubles, naming its hull length and interval lengths."""
    length = sys.hull_length
    l1, l2 = sys.i1.length, sys.i2.length
    return NumericalFailure(
        f"limits out of the double range at hull length {length:.3g}, "
        f"interval lengths {l1:.3g} and {l2:.3g}: the routes support hull "
        f"lengths from about 1e-150 to 1e153 and A's, of the order of each "
        f"interval length squared, among the normal doubles",
        {"hull_length": length, "interval_lengths": [l1, l2]})


def hull_units(sys):
    """``(unit, e)``: ``sys`` scaled by 2^-e, whose hull length lies in
    [1/2, 1), and the exponent e.  The scaling is exact.  An interval of
    scaled length l whose A's, about l^2 / 16, are not normal doubles is
    :func:`range_failure`, the same in every route."""
    e = math.frexp(sys.hull_length)[1]
    short = min(math.ldexp(iv.length, -e) for iv in (sys.i1, sys.i2))
    if short ** 2 / 16.0 < np.finfo(float).tiny:
        raise range_failure(sys)
    return AngelescoSystem(*(Interval(math.ldexp(iv.lo, -e),
                                      math.ldexp(iv.hi, -e))
                             for iv in (sys.i1, sys.i2)), sys.w1, sys.w2), e


def user_units(curve, sys, e):
    """``curve`` of ``hull_units(sys)`` in the units of ``sys``: A by 4^e
    and B by 2^e, exactly, sharing the curve's ``meta``.  An A that is a
    positive normal double, or a B that is finite, and leaves the doubles
    on the way is :func:`range_failure`; a value already out of range in
    hull units is the route's failure, left to the curve contract.
    """
    a, b = np.array([curve.A1, curve.A2]), np.array([curve.B1, curve.B2])
    with np.errstate(over="ignore"):  # an overflow raises below
        ua, ub = np.ldexp(a, 2 * e), np.ldexp(b, e)
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    if (np.any((tiny <= a) & (a <= big) & ~((tiny <= ua) & (ua <= big)))
            or np.any(np.isfinite(b) & ~np.isfinite(ub))):
        raise range_failure(sys)
    return LimitCurve(curve.s, *ua, *ub, curve.method, curve.meta)


# ---------------------------------------------------------------------------
# frame operations
# ---------------------------------------------------------------------------

def star_normalize(sys):
    """Normalize a system to the star frame.

    Returns ``(StarConfig, AffineMap)`` where the map sends star coordinates
    back to user coordinates: the second interval maps onto [beta, 1] and the
    first onto [-alpha, 0].  alpha, beta and 1 - beta are lengths over scale.
    """
    scale = sys.i2.hi - sys.i1.hi
    alpha = (sys.i1.hi - sys.i1.lo) / scale
    beta = (sys.i2.lo - sys.i1.hi) / scale
    return (StarConfig(alpha, beta, (sys.i2.hi - sys.i2.lo) / scale),
            AffineMap(scale, sys.i1.hi))


def reflect(sys):
    """Reflect a system about the origin, restoring interval order.

    The reflected intervals are the negated originals with roles exchanged,
    so limit data travels back through ``AffineMap(-1, 0)``, whose negative
    scale exchanges the roles back.  Weights travel with their intervals.
    """
    return AngelescoSystem(Interval(-sys.i2.hi, -sys.i2.lo),
                           Interval(-sys.i1.hi, -sys.i1.lo),
                           sys.w2, sys.w1)


def pushforward_limits(curve, amap):
    """Transport a limit curve through an affine change of variable.

    A negative scale is a reflection, which exchanges the interval roles:
    indices 1 <-> 2 and s -> 1 - s, the grid reversed so it stays
    increasing.  Then the affine action A -> scale^2 * A, B -> scale * B +
    shift is applied slotwise.  The returned curve keeps the input's method
    and a copy of its ``meta``.
    """
    lam, c = amap.scale, amap.shift
    s, a1, a2, b1, b2 = curve.s, curve.A1, curve.A2, curve.B1, curve.B2
    if lam < 0:
        s, a1, a2, b1, b2 = (1.0 - s)[::-1], a2[::-1], a1[::-1], b2[::-1], b1[::-1]
    return LimitCurve(s, lam * lam * a1, lam * lam * a2,
                      lam * b1 + c, lam * b2 + c, curve.method, dict(curve.meta))
