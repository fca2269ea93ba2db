"""Reference loops for the lattice sweep and the mixed moment ratios.

Both are the straightforward forms of :func:`angelesco.lattice.solve_lattice`
and :func:`angelesco.orthopoly.mixed_ratios`: fresh arrays on every
diagonal, the sweep in the user's units, every consistency residual formed
inside the loop, and the moment recursion padding fresh vectors on every
step.  The package must compute the same values bit for bit, because it
does the same floating-point operations in the same order with less
per-step overhead.
"""
import math

import numpy as np

import angelesco.lattice as lattice_mod
from angelesco.errors import NumericalFailure
from angelesco.orthopoly import scalar_recurrence
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
    """Ratios h_{k+1} / h_k, k = 0..m, of the mixed moments h_k =
    e1' p_k(J) e1, J the destination's symmetric Jacobi matrix: fresh,
    zero-padded copies of the two vectors on every step, each new vector
    formed on the entries that can still reach e1 and its tail cut below
    2^-400 of the moment."""
    a = scalar_recurrence(src_kind, src_interval, m + 1).tolist()
    beta = np.sqrt(scalar_recurrence(dst_kind, dst_interval, m // 2 + 2))
    d = dst_interval.mid - src_interval.mid
    u, v = np.array([1.0]), np.array([d, beta[0]])
    r = np.empty(m + 1)
    for k in range(m + 1):
        r[k] = v[0] / u[0]
        if k == m:
            break
        n = min(v.size + 1, m - k)
        up, vp = np.zeros(n), np.zeros(n + 1)
        up[:min(u.size, n)] = u[:n]
        vp[:min(v.size, n + 1)] = v[:n + 1]
        w = d * vp[:n] - a[k] * up
        w[1:] += beta[:n - 1] * vp[:n - 1]
        w += beta[:n] * vp[1:]
        h = abs(float(w[0]))
        if not 0.0 < h < math.inf:
            raise NumericalFailure("mixed moment vanished or is not finite",
                                   {"k": k})
        e = math.frexp(h)[1]
        if not -256 < e < 256:
            w *= math.ldexp(1.0, -e)
            vp *= math.ldexp(1.0, -e)
            h = math.ldexp(h, -e)
        cut = 2.0 ** -400 * h
        while n > 1 and abs(w[n - 1]) < cut and abs(vp[n - 1]) < cut:
            n -= 1
        u, v = vp[:n], w[:n]
    return r
