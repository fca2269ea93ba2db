"""Safeguarded bracketed root finding.

Plain bisection only: every solver in this package trades speed for
reproducibility, so there is no secant/Newton acceleration anywhere.  A
bracket open at the top is grown by doubling its upper end; that a bracket
holds one root is the caller's to prove, and nothing here scans for more.
Bisection halves the int64 views of its ends, which are monotone in the
value for nonnegative doubles, so every bracket, [0, 1e300] as much as
[1, 2], reaches adjacent doubles in at most 63 halvings and the elements of
one call finish together (Roots.jl's Float64 bisection does the same).
Each root problem is one-dimensional, and the solvers work elementwise on
numpy arrays so that whole grids of root problems go through one call.
"""
import numpy as np

from .errors import NumericalFailure


def bisect(f, lo, hi):
    """Bisect ``f`` on elementwise brackets ``[lo, hi]`` of nonnegative doubles.

    ``f`` must accept and return arrays of the bracket shape.  Both bracket
    ends are required to have opposite (or zero) signs; a bracket without a
    sign change, or with a NaN end value, raises :class:`NumericalFailure`.
    A negative end, -0.0 included, raises ValueError.  The ends may come in
    either order.  Halves until every bracket's ends are adjacent doubles
    and returns the end where ``f`` is exactly 0, else their midpoint (a
    zero midpoint replaces the end whose sign it would take).  ``f`` must be
    deterministic and elementwise: a finished bracket's midpoint is its
    lower end, whose value repeats, so it stays as it is while the others
    finish.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    down = hi < lo
    lo, hi = np.where(down, hi, lo), np.where(down, lo, hi)
    if np.any(np.signbit([lo, hi]) & ~np.isnan([lo, hi])):
        raise ValueError("bisect needs nonnegative ends, -0.0 excluded")
    flo = np.asarray(f(lo), dtype=float)
    fhi = np.asarray(f(hi), dtype=float)
    # signs, not values: 0 * inf and an underflowing product mislead
    bad = ~(np.sign(flo) * np.sign(fhi) <= 0)  # NaN is bad too
    if np.any(bad):
        raise NumericalFailure(
            "bisection bracket has no sign change",
            {"lo": lo[bad].ravel()[:5].tolist(),
             "hi": hi[bad].ravel()[:5].tolist()})
    falls = (flo > 0) | (fhi < 0)  # a zero end says nothing
    ilo, ihi = lo.view(np.int64), hi.view(np.int64)
    # ceil(log2) of the widest bracket: each halving leaves at most the
    # ceiling of half of it, so that many steps finish every bracket
    for _ in range((int(np.max(ihi - ilo, initial=1)) - 1).bit_length()):
        imid = ilo + (ihi - ilo) // 2
        fm = np.asarray(f(imid.view(np.float64)), dtype=float)
        to_lo = (fm > 0) == falls  # a zero of a rising f goes to lo
        ilo = np.where(to_lo, imid, ilo)
        ihi = np.where(to_lo, ihi, imid)
        flo = np.where(to_lo, fm, flo)
        fhi = np.where(to_lo, fhi, fm)
    lo, hi = ilo.view(np.float64), ihi.view(np.float64)
    return np.where(flo == 0, lo, np.where(fhi == 0, hi, 0.5 * (lo + hi)))[()]


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
