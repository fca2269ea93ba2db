"""Safeguarded bracketed root finding.

Plain bisection only: every solver in this package trades speed for
reproducibility, so there is no secant/Newton acceleration anywhere.  A
bracket open at the top is grown by doubling its upper end; that a bracket
holds one root is the caller's to prove, and nothing here scans for more.
Bisection stops at its fixed point, the first halving that leaves every
bracket as it was; every later halving would repeat it, so the result does
not depend on the iteration cap.  Each root problem is one-dimensional, and
the solvers work elementwise on numpy arrays so that whole grids of root
problems go through one call.
"""
import numpy as np

from .errors import NumericalFailure

# cap on the halvings: an O(1) bracket reaches its fixed point in about 55
DEFAULT_ITERS = 110


def bisect(f, lo, hi, iters=DEFAULT_ITERS):
    """Bisect ``f`` on elementwise brackets ``[lo, hi]``.

    ``f`` must accept and return arrays of the bracket shape.  Both bracket
    ends are required to have opposite (or zero) signs; a bracket without a
    sign change, or with a NaN end value, raises :class:`NumericalFailure`.
    Halves at most ``iters`` times and stops at the first halving that
    leaves every bracket bit for bit as it was.  ``f`` must be
    deterministic: from there every halving repeats the same midpoints and
    decisions, so the result is bit for bit the one ``iters`` halvings give.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(f(lo), dtype=float)
    fhi = np.asarray(f(hi), dtype=float)
    # signs, not values: 0 * inf and an underflowing product mislead
    bad = ~(np.sign(flo) * np.sign(fhi) <= 0)  # NaN is bad too
    if np.any(bad):
        raise NumericalFailure(
            "bisection bracket has no sign change",
            {"lo": lo[bad].ravel()[:5].tolist(),
             "hi": hi[bad].ravel()[:5].tolist()})
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f(mid), dtype=float)
        same = (fm > 0) == (flo > 0)
        new_lo = np.where(same, mid, lo)
        new_hi = np.where(same, hi, mid)
        flo = np.where(same, fm, flo)
        # bit patterns, so that a signed zero counts as a move
        if (np.array_equal(new_lo.view(np.int64), lo.view(np.int64))
                and np.array_equal(new_hi.view(np.int64), hi.view(np.int64))):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def expand_upper(f, lo, hi):
    """Double ``hi`` elementwise until ``f(hi)`` changes sign against ``f(lo)``.

    Returns the expanded upper ends.  Gives up after 60 doublings (a factor
    of about 1e18) and raises :class:`NumericalFailure`.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(f(lo), dtype=float)
    for _ in range(60):
        fhi = np.asarray(f(hi), dtype=float)
        open_ = np.sign(flo) * np.sign(fhi) > 0  # a product may underflow
        if not np.any(open_):
            return hi
        hi = np.where(open_, hi * 2.0, hi)
    raise NumericalFailure("bracket expansion failed to find a sign change",
                           {"hi": float(np.max(hi))})
