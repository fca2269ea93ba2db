"""Scalar orthogonal-polynomial data on the lattice boundary.

Monic three-term recurrence coefficients for the supported weights, which
seed the lattice sweep, and the mixed moment ratios that give the off-axis
recurrence coefficient along each boundary row of the multi-index lattice.
The sweep propagates those off-axis coefficients itself; the moments are
the independent values its consistency residuals
(:attr:`angelesco.lattice.NnrrLattice.residuals`) compare them against,
which ``validate`` reports.  Both read nothing but the two recurrences.

Recurrence convention: with monic polynomials p_k of a single weight,

    x p_k = p_{k+1} + b[k] p_k + a[k-1] p_{k-1},

so ``a[i]`` first appears in the step producing p_{i+2}.  On the lattice axis
the own-direction coefficient at site k is ``a[k-1]`` (zero at k = 0).
Every supported weight is symmetric about its interval's midpoint, so every
b[k] is that midpoint (``Interval.mid``) and only the a's are computed.

The mixed moments are h_k = e1' p_k(J) e1, with J the destination's
symmetric Jacobi matrix: the source recurrence runs on vectors, kept on the
entries that can still reach e1, with exact power-of-two rescaling keyed on
the moment itself and a tail cut 2^-400 below it, so no step works on
subnormal numbers.  Every step is a fixed sequence of elementwise
operations with no sum and no BLAS call, so the moments do not depend on
the CPU (see :func:`mixed_ratios`).
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .systems import check_weight_kind

# the moment's binary exponent is brought back to zero when it leaves
# (-_EXP_WINDOW, _EXP_WINDOW); trailing entries below _CUT of the moment are
# dropped, so live values stay above 2^-(400 + 256 + one step) (no
# subnormals)
_EXP_WINDOW = 256
_CUT = 2.0 ** -400


def scalar_recurrence(kind, interval, n):
    """First ``n`` monic recurrence a's of the weight on ``interval``.

    All supported weights are symmetric about the midpoint, so every b is
    ``interval.mid`` and only the a's, which differ per family, are
    returned, as an array of length ``n``.
    """
    check_weight_kind(kind)
    if n < 1:
        raise ValueError("n must be positive")
    r = 0.25 * interval.length
    if kind == "chebyshev1":
        a = np.full(n, r * r)
        a[0] = 2.0 * r * r
    elif kind == "chebyshev2":
        a = np.full(n, r * r)
    else:  # uniform
        k = np.arange(1, n + 1, dtype=float)
        a = interval.radius ** 2 * k * k / (4.0 * k * k - 1.0)
    return a


def mixed_ratios(src_kind, src_interval, dst_kind, dst_interval, m):
    """Ratios r_k = h_{k+1} / h_k for k = 0..m of the mixed moments
    h_k = integral of p_k d(dst measure), with p_k the monic polynomials of
    the src weight.

    For a probability measure with Jacobi matrix J, the integral of a
    polynomial f is e1' f(J) e1, so h_k is the first entry of p_k(J) e1
    (the identity behind the Gauss rule of Golub & Welsch, Math. Comp. 23
    (1969), used without forming the rule).  J is symmetric: the
    destination midpoint on its diagonal and the square roots of the
    destination's a's beside it.  The vectors run the source recurrence,
    p_{k+2}(J) e1 = (J - b) p_{k+1}(J) e1 - a[k] p_k(J) e1, with b the
    source midpoint, so only the two recurrences are read.  The destination
    must lie on one side of the source (touching allowed), so no zero of any
    p_k falls inside it and no h_k vanishes.

    Entry j of p_k(J) e1 reaches e1 after j more steps, and it is zero for
    j > k, so the vector of p_{k+2} is kept on the entries j < min(k + 3,
    m - k) only, m // 2 + 2 entries at most, exact for every h_k up to
    h_{m+1}.  The two live vectors share one scale, whose first entry is a
    moment: whenever its binary exponent leaves a fixed window, both are
    multiplied by a power of two, which is exact and leaves every ratio
    untouched.  Trailing entries where both vectors fall below 2^-400 of
    the new moment are dropped, and the band grows back by one entry per
    step; without the cut they sink into subnormals and carry rounding
    noise only.  Entries past the live length are kept at zero.

    A recurrence coefficient a[k] of either measure that is not positive
    and finite (NaN included) raises :class:`NumericalFailure` carrying the
    measure and ``k``, before any step; a moment that is zero or not finite
    raises it carrying the step ``k``.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if dst_interval.hi > src_interval.lo and src_interval.hi > dst_interval.lo:
        raise ValueError(f"destination {dst_interval} overlaps source "
                         f"{src_interval}")
    size = m // 2 + 2                 # the widest band
    a = scalar_recurrence(src_kind, src_interval, m + 1)
    a_dst = scalar_recurrence(dst_kind, dst_interval, size)
    for measure, coef in (("source", a), ("destination", a_dst)):
        bad = np.flatnonzero(~((coef > 0.0) & (coef < math.inf)))
        if bad.size:
            raise NumericalFailure(f"{measure} recurrence coefficient is not "
                                   "positive and finite",
                                   {"measure": measure, "k": int(bad[0])})
    a, beta = a.tolist(), np.sqrt(a_dst)
    d = dst_interval.mid - src_interval.mid     # the diagonal of J - b
    # one entry past the band, read as the zero after the last entry
    u = np.zeros(size + 1)            # p_k(J) e1, live on [:n]
    v = np.zeros(size + 1)            # p_{k+1}(J) e1, same scale
    tmp = np.empty(size + 1)
    u[0] = 1.0
    v[0], v[1] = d, beta[0]
    n = 2
    mul, add, sub = np.multiply, np.add, np.subtract
    r = np.empty(m + 1)
    for k in range(m + 1):
        r[k] = v.item(0) / u.item(0)
        if k == m:
            break
        # w = (J - b) v - a_k u on [:live], in place of u
        live = min(n + 1, m - k)
        w, t = u[:live], tmp[:live]
        mul(w, a[k], w)
        sub(mul(v[:live], d, t), w, w)
        above = w[1:]
        add(above, mul(beta[:live - 1], v[:live - 1], t[1:]), above)
        add(w, mul(beta[:live], v[1:live + 1], t), w)
        h = abs(w.item(0))
        if not 0.0 < h < math.inf:
            raise NumericalFailure("mixed moment vanished or is not finite",
                                   {"k": k})
        e = math.frexp(h)[1]
        if not -_EXP_WINDOW < e < _EXP_WINDOW:
            scale = math.ldexp(1.0, -e)
            w *= scale
            v[:live] *= scale
            h = math.ldexp(h, -e)
        top, cut = max(n, live), _CUT * h
        while (live > 1 and abs(w.item(live - 1)) < cut
               and abs(v.item(live - 1)) < cut):
            live -= 1
        if live < top:
            u[live:top] = 0.0
            v[live:top] = 0.0
        n = live
        u, v = v, u
    return r


@dataclass(frozen=True)
class AxisData:
    """Boundary-row data for one axis of the lattice, sites k = 0..m.

    cross_b[k] is the coefficient in the direction of the other measure.
    The own coefficients are the scalar recurrence's
    (:func:`scalar_recurrence`; the own b is the interval midpoint), so
    they are not stored.
    """
    cross_b: np.ndarray

    @property
    def m(self):
        return self.cross_b.size - 1


def axis_data(sys, axis, m):
    """Boundary data for ``axis`` (1 or 2) of ``sys`` through level ``m``.

    The cross coefficient is own b plus the mixed moment ratio: projecting
    the step toward the other measure onto the axis polynomials leaves
    cross_b[k] = b_k + h_{k+1}/h_k with b_k the midpoint.  The lattice's
    consistency residuals check the sweep's propagated cross b's against it,
    and the tests check it against a brute-force moment construction.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    if axis == 1:
        kind, iv = sys.w1, sys.i1
        other_kind, other_iv = sys.w2, sys.i2
    else:
        kind, iv = sys.w2, sys.i2
        other_kind, other_iv = sys.w1, sys.i1
    return AxisData(iv.mid + mixed_ratios(kind, iv, other_kind, other_iv, m))
