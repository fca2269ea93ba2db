"""Scalar orthogonal-polynomial data on the lattice boundary.

Monic three-term recurrence coefficients for the supported weights, which
seed the lattice sweep, and each family's smallest quadrature rule exact
through a given degree on a single interval (:func:`gauss_nodes`), with
the mixed moment ratios that give the off-axis recurrence coefficient
along each boundary row of the multi-index lattice.  The sweep propagates
those off-axis coefficients itself; the moments are the independent
values its consistency residuals
(:attr:`angelesco.lattice.NnrrLattice.residuals`) compare them against,
which ``validate`` reports.

Recurrence convention: with monic polynomials p_k of a single weight,

    x p_k = p_{k+1} + b[k] p_k + a[k-1] p_{k-1},

so ``a[i]`` first appears in the step producing p_{i+2}.  On the lattice axis
the own-direction coefficient at site k is ``a[k-1]`` (zero at k = 0).
Every supported weight is symmetric about its interval's midpoint, so every
b[k] is that midpoint (``Interval.mid``) and only the a's are computed.

The mixed moments run the source recurrence on the destination's quadrature
nodes, far nodes first, each node's value carrying its weight.  Only the far
node sets the scale, adjusted by exact powers of two, and near nodes whose
values have dropped 2^-400 below it are retired for good, so no step works on
subnormal numbers or on nodes that no longer count.  The moments are sums in
numpy's fixed pairwise order, with no BLAS call, so they do not depend on the
CPU (see :func:`mixed_ratios`).
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


def gauss_nodes(kind, interval, degree):
    """``(x, w)`` of the smallest rule of ``kind``'s family on ``interval``
    exact through ``degree``: nodes, listed monotonically, and weights of
    total mass one.  The Gauss rules of the Chebyshev families are exact
    through 2n - 1 on n nodes, so take degree // 2 + 1; Clenshaw-Curtis, for
    the uniform weight, through at least n - 1 on n >= 2, so takes
    max(degree + 1, 2) (Trefethen, SIAM Rev. 50 (2008) 67-87).
    """
    check_weight_kind(kind)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    mid, rad = interval.mid, interval.radius
    n = degree // 2 + 1               # the Gauss rules' nodes
    if kind == "chebyshev1":
        i = np.arange(1, n + 1)
        return (mid + rad * np.cos((2 * i - 1) * np.pi / (2 * n)),
                np.full(n, 1.0 / n))
    if kind == "chebyshev2":
        t = np.arange(1, n + 1) * np.pi / (n + 1)
        return mid + rad * np.cos(t), 2.0 / (n + 1) * np.sin(t) ** 2
    # uniform: Clenshaw-Curtis on m + 1 >= 2 points (m panels)
    m = max(degree, 1)
    j = np.arange(m + 1)
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
    return x[::-1].copy(), w[::-1].copy()


def mixed_ratios(src_kind, src_interval, dst_kind, dst_interval, m):
    """Ratios r_k = h_{k+1} / h_k for k = 0..m of the mixed moments
    h_k = integral of p_k d(dst measure), with p_k the monic polynomials of
    the src weight.

    The integrand is evaluated by a quadrature rule of the destination weight
    that is exact through degree m + 1.  The destination must lie on one side
    of the source (touching allowed), so no zero of any p_k falls inside it.

    Each node carries u_k = w_j p_k(t_j), its term of h_k: the recurrence is
    linear and homogeneous at each node, so u_0 = w and u_1 = w t start it,
    and h_k is the sum of the row, taken by ``np.add.reduce`` in numpy's
    fixed pairwise order rather than by a BLAS dot, whose order depends on
    the CPU.

    The nodes are visited from far to near, as seen from the source.  The
    ratio of a node's |p_k| to the far node's then does not increase with k
    (|p_{k+1}/p_k| grows with the distance from the source), and neither
    does the ratio of its u_k to the far node's.  The far node therefore
    carries the scale: whenever the binary exponent of its value leaves a
    fixed window, the two live rows and the two live moments are multiplied
    by a power of two, which is exact and leaves every ratio untouched.  The
    source midpoint, every b of every supported weight, is subtracted from
    the nodes once.

    A tail node is retired once both of its values fall below 2^-400 of the
    far node's; by the monotonicity above it never comes back.  All terms of
    the quadrature sum share one sign, so h_k is at least the far term, and
    each of the n nodes dropped is below 2^-400 of it: the dropped part is
    below n 2^-400 of h_k, some hundred digits under rounding.  Without
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
    x, w = gauss_nodes(dst_kind, dst_interval, m + 1)
    t = x - src_interval.mid
    if abs(t[0]) < abs(t[-1]):        # the rules list nodes monotonically
        t, w = t[::-1].copy(), w[::-1].copy()
    a = scalar_recurrence(src_kind, src_interval, m + 1).tolist()
    # the live nodes [:n]; the views are cut again only when a node retires
    n = t.size
    u_prev = w                        # w p_0
    u_curr = w * t                    # w p_1
    v = np.empty(n)
    tmp = np.empty(n)
    mul, sub, total = np.multiply, np.subtract, np.add.reduce
    h_curr = 1.0                      # h_0 of a probability measure
    h_next = float(total(u_curr))
    r = []
    for k in range(m + 1):
        if not abs(h_curr) > 0.0:
            raise NumericalFailure("mixed moment vanished", {"k": k})
        r.append(h_next / h_curr)
        if k == m:
            break
        # v = w p_{k+2} = t (w p_{k+1}) - a_k (w p_k) on the live nodes
        mul(t, u_curr, v)
        sub(v, mul(u_prev, a[k], tmp), v)
        far = abs(v.item(0))
        if not 0.0 < far < math.inf:
            raise NumericalFailure("polynomial lost its scale at the far node",
                                   {"k": k})
        h_curr, h_next = h_next, float(total(v))
        e = math.frexp(far)[1]
        if not -_EXP_WINDOW < e < _EXP_WINDOW:
            scale = math.ldexp(1.0, -e)
            v *= scale
            u_curr *= scale
            h_curr *= scale
            h_next *= scale
            far = math.ldexp(far, -e)
        cut_v = _RETIRE * far
        cut_u = _RETIRE * abs(u_curr.item(0))
        live = n
        while (live > 1 and abs(v.item(live - 1)) < cut_v
               and abs(u_curr.item(live - 1)) < cut_u):
            live -= 1
        if live < n:
            n = live
            t, tmp = t[:n], tmp[:n]
            u_prev, u_curr, v = u_prev[:n], u_curr[:n], v[:n]
        u_prev, u_curr, v = u_curr, v, u_prev
    return np.array(r)


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
