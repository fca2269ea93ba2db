"""Reference loops for the lattice sweep and the mixed moment ratios.

Both are the straightforward forms of :func:`angelesco.lattice.solve_lattice`
and :func:`angelesco.orthopoly.mixed_ratios`: fresh arrays on every
diagonal, the sweep in the user's units, every consistency residual formed
inside the loop, and the moment recursion slicing its live nodes on every
step.  The
package must compute the same values bit for bit, because it does the same
floating-point operations in the same order with less per-step overhead.
"""
import math

import numpy as np

import angelesco.lattice as lattice_mod
from angelesco.errors import NumericalFailure
from angelesco.orthopoly import gauss_nodes, scalar_recurrence
from angelesco.systems import hull_units


def sweep(sys, m):
    """(a1, a2, b1, b2, snapshots, residuals) of the sweep to level ``m``.

    The snapshots are the diagonals of the levels of
    ``angelesco.lattice.table_levels`` below m, as the package keeps them.
    The sweep reads each axis's own a's through
    ``angelesco.lattice.scalar_recurrence`` and the residuals read the
    mixed-moment cross-b's through ``angelesco.lattice.axis_data``, as the
    package does, so a test that patches either there poisons both.
    """
    kept = set(lattice_mod.table_levels(m))

    floor = 1e-12 * (sys.i2.hi - sys.i1.lo)
    own1 = lattice_mod.scalar_recurrence(sys.w1, sys.i1, m)
    own2 = lattice_mod.scalar_recurrence(sys.w2, sys.i2, m)

    a1 = np.array([0.0])
    a2 = np.array([0.0])
    mid1, mid2 = sys.i1.mid, sys.i2.mid
    b1 = np.array([mid1])
    b2 = np.array([mid2])
    gap_prev = None
    snaps = {}
    residuals = np.zeros((m, 2))
    cross1 = lattice_mod.axis_data(sys, 1, m).cross_b
    cross2 = lattice_mod.axis_data(sys, 2, m).cross_b
    s_buf = np.empty(m + 1)
    q_buf = np.empty(m)

    for L in range(m):
        K = L + 2
        a1n = np.empty(K)
        a2n = np.empty(K)
        b1n = np.empty(K)
        b2n = np.empty(K)

        a1n[0] = 0.0
        a2n[0] = own2[L]
        a1n[K - 1] = own1[L]
        a2n[K - 1] = 0.0
        gap = b2 - b1
        if L >= 1:
            a1i, a2i = a1n[1:L + 1], a2n[1:L + 1]
            np.divide(np.multiply(a1[1:L + 1], gap[1:L + 1], out=a1i),
                      gap_prev[0:L], out=a1i)
            np.divide(np.multiply(a2[0:L], gap[0:L], out=a2i),
                      gap_prev[0:L], out=a2i)
            if not (np.minimum.reduce(a1i) > 0.0
                    and np.minimum.reduce(a2i) > 0.0):
                raise NumericalFailure("interior coefficient lost positivity",
                                       {"level": L + 1})

        if not np.minimum.reduce(np.abs(gap)) >= floor:
            raise NumericalFailure("coefficient gap collapsed in b-phase",
                                   {"level": L + 1})
        S = np.add(a1n, a2n, out=s_buf[0:K])
        q = np.subtract(S[0:L + 1], S[1:L + 2], out=q_buf[0:L + 1])
        np.divide(q, gap, out=q)
        np.add(b2, q, out=b2n[1:K])
        np.add(b1, q, out=b1n[0:K - 1])

        b1n[K - 1] = mid1
        b2n[0] = mid2
        residuals[L, 0] = abs(b2n[K - 1] - cross1[L + 1])
        residuals[L, 1] = abs(b1n[0] - cross2[L + 1])

        gap_prev = gap
        a1, a2, b1, b2 = a1n, a2n, b1n, b2n
        if L + 1 in kept and L + 1 != m:
            snaps[L + 1] = (a1.copy(), a2.copy(), b1.copy(), b2.copy())

    return a1, a2, b1, b2, snaps, residuals


def user_diagonal(lat, level):
    """The diagonal of ``lat`` at ``level`` in user units: the package keeps
    it in hull units, so a's are 4^e and b's 2^e times their stored values,
    e the exponent of ``hull_units(lat.system)``."""
    e = hull_units(lat.system)[1]
    return tuple(np.ldexp(v, f * e)
                 for v, f in zip(lat.diagonal(level), (2, 2, 1, 1)))

def mixed_ratios(src_kind, src_interval, dst_kind, dst_interval, m):
    """Ratios h_{k+1} / h_k, k = 0..m, of the mixed moments, each node's
    value w_j p_k(t_j) carrying its weight and each moment a pairwise sum."""
    x, w = gauss_nodes(dst_kind, dst_interval, m + 1)
    t = x - src_interval.mid
    if abs(t[0]) < abs(t[-1]):
        t, w = t[::-1].copy(), w[::-1].copy()
    a = scalar_recurrence(src_kind, src_interval, m + 1).tolist()
    n = t.size
    u_prev = w.copy()
    u_curr = w * t
    v = np.empty(n)
    tmp = np.empty(n)
    h_curr = 1.0
    h_next = float(np.add.reduce(u_curr))
    r = np.empty(m + 1)
    for k in range(m + 1):
        if not abs(h_curr) > 0.0:
            raise NumericalFailure("mixed moment vanished", {"k": k})
        r[k] = h_next / h_curr
        if k == m:
            break
        vn, un = v[:n], u_curr[:n]
        np.multiply(t[:n], un, out=vn)
        np.multiply(u_prev[:n], a[k], out=tmp[:n])
        np.subtract(vn, tmp[:n], out=vn)
        far = abs(float(vn[0]))
        if not 0.0 < far < math.inf:
            raise NumericalFailure("polynomial lost its scale at the far node",
                                   {"k": k})
        h_curr, h_next = h_next, float(np.add.reduce(vn))
        e = math.frexp(far)[1]
        if not -256 < e < 256:
            scale = math.ldexp(1.0, -e)
            vn *= scale
            un *= scale
            h_curr *= scale
            h_next *= scale
            far = math.ldexp(far, -e)
        cut_v = 2.0 ** -400 * far
        cut_u = 2.0 ** -400 * abs(float(un[0]))
        while n > 1 and abs(vn[n - 1]) < cut_v and abs(un[n - 1]) < cut_u:
            n -= 1
        u_prev, u_curr, v = u_curr, v, u_prev
    return r
