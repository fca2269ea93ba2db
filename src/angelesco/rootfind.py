"""Safeguarded bracketed root finding.

Plain bisection only: every solver in this package trades speed for
reproducibility, so there is no secant/Newton acceleration anywhere.
Each root problem is one-dimensional, and the solvers work elementwise on
numpy arrays so that whole grids of root problems go through one call.
"""
import numpy as np

from .errors import NumericalFailure

# enough halvings to reach double precision from any O(1) bracket
DEFAULT_ITERS = 110


def bisect(f, lo, hi, iters=DEFAULT_ITERS):
    """Bisect ``f`` on elementwise brackets ``[lo, hi]``.

    ``f`` must accept and return arrays of the bracket shape.  Both bracket
    ends are required to have opposite (or zero) signs; a bracket without a
    sign change raises :class:`NumericalFailure`.  Runs a fixed number of
    halvings with no data-dependent early exit, so results are deterministic
    and the call vectorizes cleanly.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(f(lo), dtype=float)
    fhi = np.asarray(f(hi), dtype=float)
    bad = flo * fhi > 0
    if np.any(bad):
        raise NumericalFailure(
            "bisection bracket has no sign change",
            {"lo": lo[bad].ravel()[:5].tolist(),
             "hi": hi[bad].ravel()[:5].tolist()})
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f(mid), dtype=float)
        same = (fm > 0) == (flo > 0)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def expand_upper(f, lo, hi, factor=2.0, max_expansions=60):
    """Grow ``hi`` elementwise until ``f(hi)`` changes sign against ``f(lo)``.

    Returns the expanded upper ends.  Gives up after ``max_expansions``
    doublings and raises :class:`NumericalFailure`.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(f(lo), dtype=float)
    for _ in range(max_expansions):
        fhi = np.asarray(f(hi), dtype=float)
        open_ = flo * fhi > 0
        if not np.any(open_):
            return hi
        hi = np.where(open_, hi * factor, hi)
    raise NumericalFailure("bracket expansion failed to find a sign change",
                           {"hi": float(np.max(hi))})


def count_sign_changes(f, lo, hi, samples=257):
    """Number of sign changes of ``f`` sampled on ``samples`` points of [lo, hi].

    Exact zeros are skipped, so a root at a bracket end is no crossing.  Used
    as a uniqueness guard after bisection.
    """
    signs = np.sign(f(np.linspace(lo, hi, samples)))
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
