"""Scalar orthogonal-polynomial data feeding the lattice boundary.

Monic three-term recurrence coefficients for the supported weights, Gauss /
Clenshaw-Curtis quadrature on a single interval, and the mixed moment ratios
that give the off-axis recurrence coefficient along each boundary row of the
multi-index lattice.

Recurrence convention: with monic polynomials p_k of a single weight,

    x p_k = p_{k+1} + b[k] p_k + a[k-1] p_{k-1},

so ``a[i]`` first appears in the step producing p_{i+2}.  On the lattice axis
the own-direction coefficient at site k is ``a[k-1]`` (zero at k = 0).
Every supported weight is symmetric about its interval's midpoint, so every
b[k] is that midpoint (``Interval.mid``) and only the a's are computed.

The mixed moments run the source recurrence on the destination's quadrature
nodes, far nodes first.  Only the far node sets the scale, adjusted by exact
powers of two, and near nodes whose values have dropped 2^-400 below it are
retired for good, so no step works on subnormal numbers or on nodes that no
longer count (see :func:`mixed_ratios`).
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .systems import check_weight_kind

# the far node's binary exponent is brought back to zero when it leaves
# (-_EXP_WINDOW, _EXP_WINDOW); a node is retired below _RETIRE of the far
# value, so live values stay above 2^-(400 + 256 + one step) (no subnormals)
_EXP_WINDOW = 256
_RETIRE = 2.0 ** -400


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and probability-normalized weights; exact through ``degree``."""
    x: np.ndarray
    w: np.ndarray
    degree: int


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


def gauss_nodes(kind, interval, n):
    """Quadrature rule with ``n`` nodes for the weight on ``interval``.

    Chebyshev families use the closed-form Gauss rules (exact degree 2n - 1);
    the uniform weight uses Clenshaw-Curtis points with weights normalized to
    total mass one (exact degree at least n - 1).
    """
    check_weight_kind(kind)
    if n < 1:
        raise ValueError("need at least one node")
    mid, rad = interval.mid, interval.radius
    if kind == "chebyshev1":
        i = np.arange(1, n + 1)
        x = mid + rad * np.cos((2 * i - 1) * np.pi / (2 * n))
        w = np.full(n, 1.0 / n)
        return QuadratureRule(x, w, 2 * n - 1)
    if kind == "chebyshev2":
        i = np.arange(1, n + 1)
        t = i * np.pi / (n + 1)
        x = mid + rad * np.cos(t)
        w = 2.0 / (n + 1) * np.sin(t) ** 2
        return QuadratureRule(x, w, 2 * n - 1)
    # uniform: Clenshaw-Curtis on n points (n - 1 panels)
    if n == 1:
        return QuadratureRule(np.array([mid]), np.array([1.0]), 1)
    m = n - 1
    j = np.arange(n)
    x = mid + rad * np.cos(j * np.pi / m)
    ks = np.arange(1, m // 2 + 1)
    coef = np.zeros(m)
    coef[ks] = np.where(2 * ks == m, 0.5, 1.0) / (4.0 * ks * ks - 1.0)
    # w_j = (2/m) * (1 - 2 sum_k coef_k cos(2 k j pi / m)), halved at the
    # ends; the cosine sum is the real part of one DFT of coef, at j mod m
    csum = np.fft.fft(coef).real[j % m]
    w = (1.0 - 2.0 * csum) / m
    w[0] *= 0.5
    w[-1] *= 0.5
    w = w / np.sum(w)
    return QuadratureRule(x[::-1].copy(), w[::-1].copy(), n - 1)


def mixed_ratios(src_kind, src_interval, dst_kind, dst_interval, m):
    """Ratios r_k = h_{k+1} / h_k for k = 0..m of the mixed moments
    h_k = integral of p_k d(dst measure), with p_k the monic polynomials of
    the src weight.

    The integrand is evaluated by a quadrature rule of the destination weight
    that is exact through degree m + 1.  The destination must lie on one side
    of the source (touching allowed), so no zero of any p_k falls inside it.

    The nodes are visited from far to near, as seen from the source.  Every
    |p_k| is then nonincreasing along the nodes, and the ratio of a node's
    value to the far node's value does not increase with k (|p_{k+1}/p_k|
    grows with the distance from the source).  The far node therefore
    carries the scale: whenever the binary exponent of its value leaves a
    fixed window, the two live polynomial rows and the two live moments are
    multiplied by a power of two, which is exact and leaves every ratio
    untouched.  The source midpoint, every b of every supported weight, is
    subtracted from the nodes once.

    A tail node is retired once both of its values fall below 2^-400 of the
    far node's; by the monotonicity above it never comes back.  All terms of
    the quadrature sum share one sign, so h_k is at least the far term
    w_far |p_k(far)| and the dropped part is below 2^-400 |p_k(far)|: less
    than 2^-400 / w_far of h_k, some hundred digits under rounding for any
    rule in use (w_far is about 2 pi^2 / n^3 at the smallest).  Without
    retirement such nodes sink into subnormals and carry rounding noise only.

    A vanished moment or a far value that is zero or not finite (NaN
    included in both) raises :class:`NumericalFailure` carrying the step
    ``k``.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if dst_interval.hi > src_interval.lo and src_interval.hi > dst_interval.lo:
        raise ValueError(f"destination {dst_interval} overlaps source "
                         f"{src_interval}")
    if dst_kind == "uniform":
        nodes = m + 2
    else:
        nodes = (m + 3) // 2
    rule = gauss_nodes(dst_kind, dst_interval, max(nodes, 1))
    t, w = rule.x - src_interval.mid, rule.w
    if abs(t[0]) < abs(t[-1]):        # the rules list nodes monotonically
        t, w = t[::-1].copy(), w[::-1].copy()
    a = scalar_recurrence(src_kind, src_interval, m + 1).tolist()
    n = t.size                        # live nodes t[:n]
    u_prev = np.ones(n)               # p_0
    u_curr = t.copy()                 # p_1
    v = np.empty(n)
    tmp = np.empty(n)
    h_curr = 1.0                      # h_0 of a probability measure
    h_next = float(w @ u_curr)
    r = np.empty(m + 1)
    for k in range(m + 1):
        if not abs(h_curr) > 0.0:
            raise NumericalFailure("mixed moment vanished", {"k": k})
        r[k] = h_next / h_curr
        if k == m:
            break
        # v = p_{k+2} = t p_{k+1} - a_k p_k on the live nodes
        vn, un = v[:n], u_curr[:n]
        np.multiply(t[:n], un, out=vn)
        np.multiply(u_prev[:n], a[k], out=tmp[:n])
        np.subtract(vn, tmp[:n], out=vn)
        far = abs(float(vn[0]))
        if not 0.0 < far < math.inf:
            raise NumericalFailure("polynomial lost its scale at the far node",
                                   {"k": k})
        h_curr, h_next = h_next, float(w[:n] @ vn)
        e = math.frexp(far)[1]
        if not -_EXP_WINDOW < e < _EXP_WINDOW:
            scale = math.ldexp(1.0, -e)
            vn *= scale
            un *= scale
            h_curr *= scale
            h_next *= scale
            far = math.ldexp(far, -e)
        cut_v = _RETIRE * far
        cut_u = _RETIRE * abs(float(un[0]))
        while n > 1 and abs(vn[n - 1]) < cut_v and abs(un[n - 1]) < cut_u:
            n -= 1
        u_prev, u_curr, v = u_curr, v, u_prev
    return r


@dataclass(frozen=True)
class AxisData:
    """Boundary-row data for one axis of the lattice, sites k = 0..m.

    own_a[k] is the recurrence a in the axis' own direction (own_a[0] = 0);
    the own b is the interval midpoint at every site, so it is not stored.
    cross_b[k] is the coefficient in the direction of the other measure.
    """
    own_a: np.ndarray
    cross_b: np.ndarray

    @property
    def m(self):
        return self.cross_b.size - 1


def axis_data(sys, axis, m):
    """Boundary data for ``axis`` (1 or 2) of ``sys`` through level ``m``.

    The cross coefficient is own b plus the mixed moment ratio: projecting
    the step toward the other measure onto the axis polynomials leaves
    cross_b[k] = b_k + h_{k+1}/h_k with b_k the midpoint, which feeds the
    lattice sweep and is checked against a brute-force moment construction
    in the tests.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    if axis == 1:
        kind, iv = sys.w1, sys.i1
        other_kind, other_iv = sys.w2, sys.i2
    else:
        kind, iv = sys.w2, sys.i2
        other_kind, other_iv = sys.w1, sys.i1
    own_a = np.concatenate([[0.0], scalar_recurrence(kind, iv, m + 1)[:m]])
    cross_b = iv.mid + mixed_ratios(kind, iv, other_kind, other_iv, m)
    return AxisData(own_a, cross_b)
