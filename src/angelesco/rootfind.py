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
A halving costs numpy call overhead more than arithmetic, so the bracket
and f's values at its ends are held in two (2, ...) arrays updated in
place, one masked copy each per halving.  f is given only fresh values,
which nothing writes into later, so it may keep them, and it is called once
per end and once per halving.
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
    finish.  ``f`` is called on the two ends and then on one fresh midpoint
    array per halving, at most 63 of them; the ends are held in place in
    copies, so no array ``f`` is given, nor ``lo`` or ``hi``, is written
    into.
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
    # the int64 views of the ends and f's values there, as rows 0 (lo) and
    # 1 (hi) of one array each, updated in place: copies, since f may keep
    # what it was given.  [0, ...] is a view of a row even of a 0-d bracket
    ends = np.stack([lo, hi]).view(np.int64)
    fends = np.empty(ends.shape)
    fends[0], fends[1] = flo, fhi
    ilo, ihi = ends[0, ...], ends[1, ...]
    flo, fhi = fends[0, ...], fends[1, ...]
    # a midpoint replaces lo where (fm > 0) == falls, else hi: the rows of
    # (fm > 0) ^ flip
    flip = np.stack([~falls, falls])
    # ceil(log2) of the widest bracket: each halving leaves at most the
    # ceiling of half of it, so that many steps finish every bracket
    for _ in range((int(np.max(ihi - ilo, initial=1)) - 1).bit_length()):
        imid = ihi - ilo
        imid //= 2
        imid += ilo
        fm = np.asarray(f(imid.view(np.float64)), dtype=float)
        to_end = (fm > 0.0) ^ flip  # a zero of a rising f goes to lo
        np.copyto(ends, imid, where=to_end)
        np.copyto(fends, fm, where=to_end)
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
