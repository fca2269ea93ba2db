"""Recurrence limits from a finite lattice of nearest-neighbor coefficients.

The four coefficient families live on the integer lattice of bi-degrees
(n1, n2).  Pure powers of either index sit on an axis, where the own a's and
b's are those of the measure's classical scalar three-term recurrence
(:func:`~angelesco.orthopoly.scalar_recurrence`, in closed form).  Interior
sites follow from the compatibility relations between neighboring
recurrences: a multiplicative two-term relation fixes the a's along each
unit step and a linear two-by-two system fixes the b's one diagonal ahead.
Sweeping diagonal by diagonal therefore fills the whole triangle
n1 + n2 <= m from the two measures' own recurrences alone (Filipuk,
Haneczok & Van Assche, Numer. Algorithms 70 (2015)).

Propagation also derives the cross b of each axis site, the coefficient in
the direction of the other measure, and the sweep keeps it.  The mixed
moment ratios of :func:`~angelesco.orthopoly.axis_data` give the same
coefficients independently; :attr:`NnrrLattice.residuals` compares the two
on demand.  These residuals are the only genuine redundancy in the scheme
and check the whole construction; ``validate`` reports them, and no route
computes the moments.

The b-phase solve of the two-by-two system reduces to one shared step: with
S = a1 + a2 on the new diagonal, dS its drop from site k to k + 1 and
q = dS / (b2 - b1), the new b2 at site k + 1 is b2 + q and the new b1 at
site k is b1 + q.  dS and the gap do not change when both intervals are
shifted, so q does not either, and a shift c costs the b's only the rounding
of b + q: under 64 ulp(c) after 1500 levels.  Expanded as
(dS - b1 b2 + b2^2) / gap, the same step would cancel terms of size c^2.

The sweep and the read-out run in hull units
(:func:`~angelesco.systems.hull_units`), so a is O(1) there and not
O(L^2), L the hull length.  In user units the step relations form products
a * gap of order L^3, which leave the range of normal doubles near
L = 1e-103 and 1e103.  The finished curve returns to user units through
:func:`~angelesco.systems.user_units`, exactly, so the range is set by
A ~ L^2 alone.  The sweep's own check is that its a's are normal doubles in
hull units, which an interval far shorter than the hull breaks.

Each diagonal's gap b2 - b1 is formed once, and its least element is read
once.  Its b-phase solve divides by it, and the next diagonal's a-phase
reads it again as the denominator of its step relations.  The b-phase guard
therefore covers that a-phase's denominators: it has already checked every
site of the gap, axis sites included.  The guards are written so that NaN
fails them.

The a-phase guard, that every interior a is positive, runs only where it
can fail.  The sweep runs with every floating-point exception raised
(:func:`numpy.errstate`), and it skips the guard on a diagonal when the
least gap of this level and of the one below are at least the floor and
the two axis a's that enter the interior are positive.  Each interior a is
then a positive a times gap / gap_prev, with both gaps finite and at least
the floor, so without an exception it is positive: an underflow to 0
raises underflow, inf / inf raises invalid, and an infinite gap comes only
with a -inf one on the same diagonal (an infinite a makes S jump up at one
site and down at the next), which fails the floor.  On the first exception
the sweep starts again from level 0 with every guard on and the caller's
error state: the same operations in the same order, so it fails, warns
and returns as a sweep with every guard on always does.  A rung already
handed to ``on_rung`` is not handed on again.  The skip saves two argmins
on almost every diagonal.

Ray values along n ~ (s m, (1-s) m) are read off each diagonal by local
6-point Lagrange interpolation at k = s m.  Linear interpolation there would
leave an O(m^-2) error that depends on frac(s m) and so is not smooth in m;
with 6 points that error is O(m^-6), and the values follow a smooth series
in 1/level.  One call interpolates every table level, over weight
denominators that are looked up, not formed per call, and each value has
the bits its level would give alone.  A Neville table in h = 1/level
extrapolates the values at the four levels 5m/8, 6m/8, 7m/8 and m to
h = 0 (order 3).  These four levels are the only diagonals a sweep to m
keeps.  The table reads the top of the sweep because lower levels are
still pre-asymptotic: against the surface route, in A/L^2 and B/L, these
levels at m = 256 read more digits than the levels m, m/2, m/4 and m/8 at
m = 400 on every system measured (touching 7.73 against 7.11, gap 6.72
against 6.03), and at m = 6000 on (-1000,0)u(0,1) 11.71 against 11.24.
They lie close together, so the table amplifies the rounding of its inputs
by its Lebesgue constant, 386 (6.4 for the halving levels).

The command line's level is a cap, read by one sweep: the table is read
at each rung of :func:`ladder_rungs`, m_i = 256 sqrt(2)^i below the
cap / sqrt(2) (for a cap of 9 to 362, the multiple of 8 nearest
cap / sqrt(2)), then at the cap, and the sweep stops at the first rung
whose same-order estimate max |T(m_i) - T(m_(i-1))| on the compared points,
:func:`~angelesco.crossval.compare` in A/L^2 and B/L, is at most
``LADDER_TOL`` = 1e-11 (:class:`Ladder`).  It is the route's one error
estimate, and follows the error of the lower rung.  Against the surface
route it read at least 0.62 times the error of the returned rung over 431
rungs of 60 systems (median 3.1), and at least 0.89 times the error at 256
over 72 systems at the default rungs 184 and 256 (median 4.4).  Both were
measured on the three supported weights; on Nevai-class perturbations of
them, each a_k times 1 - 1/(2 k^p) for p = 2, 1 and 1/2, it read only 0.50
down to 0.13 times the error.  Rungs closer than sqrt(2) to each other
read less (0.17 to 0.5 at 5792 against 6000), which the cap / sqrt(2) rule
avoids.  A sweep to n being the first n levels of any deeper one, each
rung's lattice is the sweep to that rung, bit for bit, and holds its own
copy of each table diagonal: the lattice the ladder reads at the stop rung
is the one the sweep returns.
"""
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .crossval import compare
from .errors import NumericalFailure
from .orthopoly import axis_data, scalar_recurrence
from .systems import (AngelescoSystem, LimitCurve, check_grid, hull_units,
                      range_failure, user_units, validate_computed)

# smallest |b2 - b1| in a propagation denominator, in hull lengths
_DENOM_FLOOR = 1e-12
# points of the local Lagrange stencil along a diagonal
_INTERP_POINTS = 6
_STENCIL = np.arange(_INTERP_POINTS)
# row j: the stencil slots other than j, in order
_OTHERS = np.array([[i for i in range(_INTERP_POINTS) if i != j]
                    for j in range(_INTERP_POINTS)])
# row n: the Lagrange denominators prod_{i != j} (j - i), j < n, of the
# n-point stencil on the nodes 0 .. n - 1, then 1.0 in the slots past n
_WEIGHT_DENOMINATORS = np.array(
    [[float(math.prod(j - i for i in range(n) if i != j)) if j < n else 1.0
      for j in range(_INTERP_POINTS)] for n in range(_INTERP_POINTS + 1)])
# the Richardson table reads the levels j m // 8 for these j (order 3)
_TABLE_EIGHTHS = range(5, 9)
# a capped sweep stops at the first rung whose same-order estimate, in A/L^2
# and B/L (L the hull length), is at most this
LADDER_TOL = 1e-11


@dataclass
class NnrrLattice:
    """Completed sweep: its kept diagonals and propagated axis cross-b's.

    ``diagonals`` maps each level the read-out reads, :func:`table_levels`
    of ``m`` and no other, to its own (4, level + 1) array, rows a1, a2, b1
    and b2 indexed by k = n1, all in the hull units of ``system`` (a's times
    4^e and b's times 2^e are in user units, e the exponent of
    :func:`~angelesco.systems.hull_units`).
    ``axis_b`` has one row per level 1 .. m: the cross-b the sweep
    propagated onto the axis-1 site (b2 at k = level) and onto the axis-2
    site (b1 at k = 0), in hull units.
    """
    m: int
    diagonals: dict
    axis_b: np.ndarray
    system: AngelescoSystem

    def diagonal(self, level):
        """Diagonal array, rows a1, a2, b1, b2, at a kept ``level``."""
        if level not in self.diagonals:
            raise KeyError(f"level {level} was not kept "
                           f"(have {sorted(self.diagonals)})")
        return self.diagonals[level]

    @cached_property
    def residuals(self):
        """Consistency residuals, one row per level 1 .. m: the absolute
        mismatch, in user units, between the propagated axis cross-b's and
        the mixed-moment ones of :func:`~angelesco.orthopoly.axis_data` on
        each axis.  Computed once, on first use; the sweep never reads the
        moments."""
        unit, e = hull_units(self.system)
        direct = np.column_stack([axis_data(unit, axis, self.m).cross_b[1:]
                                  for axis in (1, 2)])
        return np.ldexp(np.abs(np.subtract(self.axis_b, direct)), e)

    def max_residual(self):
        """The largest of :attr:`residuals`, NaN if any is."""
        return float(self.residuals.max())


def _aligned(n, fill):
    """``n`` doubles set to ``fill``, starting on a 64-byte boundary, so no
    wide vector load of the sweep splits a cache line."""
    raw = np.empty(n + 8)
    start = -raw.ctypes.data % 64 // 8
    buf = raw[start:start + n]
    buf.fill(fill)
    return buf


def ladder_rungs(cap):
    """The rungs a sweep capped at level ``cap`` reads: m_i = 256 sqrt(2)^i,
    each the multiple of 8 nearest to it, those below cap / sqrt(2), then
    ``cap``.  Integer arithmetic alone: 8 round(sqrt(2^(i + 10))) is
    8 ((isqrt(2^(i + 12)) + 1) // 2), and m < cap / sqrt(2) is
    2 m^2 < cap^2.  So the last rung below the cap lies at least a factor
    sqrt(2) under it.  A cap of 362 or less has no such m_i, and reads the
    multiple of 8 nearest cap / sqrt(2), 8 ((isqrt(cap^2 // 32) + 1) // 2),
    below it instead, when that is positive and below the cap: so every cap
    from 9 up reads at least two rungs, and the cap's read-out carries a
    same-order estimate."""
    rungs = []
    for i in itertools.count():
        rung = 8 * ((math.isqrt(1 << (i + 12)) + 1) // 2)
        if 2 * rung * rung >= cap * cap:
            break
        rungs.append(rung)
    if not rungs:
        rung = 8 * ((math.isqrt(cap * cap // 32) + 1) // 2)
        rungs = [rung] if 0 < rung < cap else []
    return rungs + [cap]


class _Sweep:
    """The two sets of diagonal buffers of one sweep and the levels swept.

    :meth:`advance` runs the levels up to a rung.  It copies out the
    diagonals of the levels in ``kept`` and appends each level's axis
    cross-b's to ``propagated``; both are the same bits whether a level is
    swept once or again after :meth:`reset`.
    """

    def __init__(self, unit, m, kept):
        self.floor = _DENOM_FLOOR * unit.hull_length
        # own1[L] is the axis-1 a at site k = L + 1 of diagonal L + 1
        self.own1 = scalar_recurrence(unit.w1, unit.i1, m).tolist()
        self.own2 = scalar_recurrence(unit.w2, unit.i2, m).tolist()
        self.mids = unit.i1.mid, unit.i2.mid
        self.m = m
        self.kept = kept
        self.held = {}
        self.guarded = False
        self.reset()

    def reset(self):
        """Fresh buffers at level 0.  Two sets of (a1, a2, b1, b2, gap)
        buffers of length m + 2 hold the old and the new diagonal in turn.
        The fills are the values no step writes: a1 = 0 and b2 = mid2 at
        k = 0, and a2 = 0 and b1 = mid1 at the axis-1 end, which a buffer
        reaches before any step writes there."""
        n = self.m + 2
        mid1, mid2 = self.mids
        self.old, self.new = ((_aligned(n, 0.0), _aligned(n, 0.0),
                               _aligned(n, mid1), _aligned(n, mid2),
                               _aligned(n, 0.0)) for _ in range(2))
        self.s_buf = _aligned(n, 0.0)
        self.q_buf = _aligned(n, 0.0)
        self.level = 0
        self.gap_prev = None
        self.clear_prev = False
        self.propagated = []

    def advance(self, stop):
        """Sweep on to level ``stop``: with the a-phase guard only where it
        can fail and every floating-point exception raised, and on the first
        such exception again from level 0 with every guard on and the
        caller's error state, which it keeps from then on."""
        if not self.guarded:
            try:
                with np.errstate(all="raise"):
                    self._run(stop)
                return
            except FloatingPointError:
                self.guarded = True
                self.reset()
        self._run(stop)

    def _run(self, stop):
        old, new = self.old, self.new
        s_buf, q_buf = self.s_buf, self.q_buf
        own1, own2, floor = self.own1, self.own2, self.floor
        kept, held, guarded = self.kept, self.held, self.guarded
        record = self.propagated.append
        mul, div, add, sub = np.multiply, np.divide, np.add, np.subtract
        gap_prev, clear_prev = self.gap_prev, self.clear_prev
        b1, b2 = old[2][:self.level + 1], old[3][:self.level + 1]
        for L in range(self.level, stop):
            K = L + 2  # diagonal L + 1 has sites k = 0 .. L + 1
            a1, a2, _, _, gap_buf = old
            a1n, a2n, b1n, b2n, _ = new
            b1n, b2n = b1n[:K], b2n[:K]

            # a-phase: axis values, then the multiplicative step relations
            # for interior sites (numerators from level L, denominators from
            # L - 1).  x[x.argmin()] is the least element of x, NaN if x
            # holds one: np.minimum.reduce(x) at a fraction of its call cost
            a2n[0] = own2[L]
            a1n[K - 1] = own1[L]
            gap = sub(b2, b1, gap_buf[:K - 1])
            clear = gap[gap.argmin()] >= floor
            if L >= 1:
                a1i, a2i = a1n[1:K - 1], a2n[1:K - 1]
                div(mul(a1[1:K - 1], gap[1:], a1i), gap_prev, a1i)
                div(mul(a2[:L], gap[:L], a2i), gap_prev, a2i)
                if ((guarded or not (clear and clear_prev
                                     and own1[L - 1] > 0.0
                                     and own2[L - 1] > 0.0))
                        and not (a1i[a1i.argmin()] > 0.0
                                 and a2i[a2i.argmin()] > 0.0)):
                    raise NumericalFailure(
                        "interior coefficient lost positivity",
                        {"level": L + 1})

            # b-phase: b2 at k + 1 and b1 at k both move by q = dS / gap
            # (vectorized over the diagonal); |gap| only when gap itself
            # fails
            if not clear and not np.minimum.reduce(np.abs(gap)) >= floor:
                raise NumericalFailure("coefficient gap collapsed in b-phase",
                                       {"level": L + 1})
            S = add(a1n[:K], a2n[:K], s_buf[:K])
            q = sub(S[:K - 1], S[1:], q_buf[:K - 1])
            div(q, gap, q)
            add(b2, q, b2n[1:])
            add(b1, q, b1n[:K - 1])
            record((b2n.item(K - 1), b1n.item(0)))

            old, new = new, old
            b1, b2, gap_prev, clear_prev = b1n, b2n, gap, clear
            if L + 1 in kept:
                # copied out of the buffers once, rows a1, a2, b1, b2
                held[L + 1] = np.array([buf[:K] for buf in old[:4]])
        self.old, self.new, self.level = old, new, stop
        self.gap_prev, self.clear_prev = gap_prev, clear_prev


def solve_lattice(sys, m, on_rung=None):
    """Sweep the coefficient lattice of ``sys`` out to level ``m``.

    It keeps the diagonals of the levels the Richardson table reads,
    :func:`table_levels` of m, m among them.  With ``on_rung``, m is a cap
    instead: at each rung of :func:`ladder_rungs` of m, the cap included,
    the sweep builds the lattice to that rung and calls ``on_rung`` with it.
    It stops there, returning that same lattice, when the call returns true
    or the rung is the cap.  It is one sweep, each level swept once unless
    a floating-point exception sends it back to level 0 (see the module
    docstring).  Each kept diagonal is copied out of the sweep's buffers
    once, as one array, and the sweep holds only those that the pending
    rungs' tables read.  So every rung's lattice, kept or returned, holds
    exactly :func:`table_levels` of its rung.  The sweep runs on
    :func:`~angelesco.systems.hull_units` of ``sys`` and keeps its
    diagonals there, so scaling a system by a power of two leaves them bit
    for bit.  Its only input is each measure's own recurrence
    (:func:`~angelesco.orthopoly.scalar_recurrence`, in closed form), so no
    value depends on m: a sweep to n is the first n levels of any deeper
    one, bit for bit, and a rung's lattice is the sweep to that rung.  Two
    sets of diagonal buffers of length m + 2, used in turn, are allocated
    on 64-byte boundaries; cost is O(m^2) time and O(m) memory.  A
    propagation denominator below 1e-12 hull lengths or a nonpositive
    interior coefficient, NaN included, aborts with
    :class:`NumericalFailure`, and so does a rung's table diagonal with a
    positive a below the normal doubles, as on an interval of length
    1e-154 in a hull of length 1 (:func:`~angelesco.systems.range_failure`).
    a1 = 0 at k = 0 and a2 = 0 at k = level stay exact.
    """
    if m < 1:
        raise ValueError(f"level must be a positive integer, got {m}")
    rungs = ladder_rungs(m) if on_rung is not None else [m]
    # each table level and the last rung that reads it
    last_reader = {lv: r for r in rungs for lv in table_levels(r)}
    sweep = _Sweep(hull_units(sys)[0], m, last_reader)
    axis_b = np.empty((0, 2))
    for rung in rungs:
        sweep.advance(rung)
        # the axis cross-b's of the levels up to this rung, as an array
        axis_b = np.concatenate(
            [axis_b, np.array(sweep.propagated[len(axis_b):rung])])
        lat = NnrrLattice(rung,
                          {n: sweep.held[n] for n in table_levels(rung)},
                          axis_b, sys)
        # an interval's a's are of the order of its length squared, so a
        # short interval leaves the normal doubles inside a supported hull
        a = np.concatenate([d[:2].ravel() for d in lat.diagonals.values()])
        if np.any((0.0 < a) & (a < np.finfo(float).tiny)):
            raise range_failure(sys)
        if (on_rung is not None and on_rung(lat)) or rung == m:
            return lat
        # the diagonals a pending rung reads, and no others
        sweep.held = {n: d for n, d in sweep.held.items()
                      if last_reader[n] > rung}


def table_levels(m):
    """Levels the Richardson table reads: the distinct positive j m // 8 for
    j = 5 .. 8, that is m and the levels m/8, 2m/8 and 3m/8 below it."""
    return sorted({j * m // 8 for j in _TABLE_EIGHTHS} - {0})


def lagrange_interp(values, x):
    """Local Lagrange interpolation of uniformly spaced node values, for
    several tables in one call.

    ``values`` holds arrays of shape (k, N_i): k arrays sampled at the nodes
    0 .. N_i - 1.  Row i of the 2-D ``x`` holds fractional node positions in
    ``values[i]``.  Returns an array of shape (len(values), k, x.shape[1]).
    The stencil has 6 points (N_i when fewer exist), centred on the node
    interval holding x and clamped at both ends.  The weights are products
    of exact node differences over exact integer denominators, which are
    looked up, so at an integer x they are exactly 1 and 0 and the node
    value comes back bit for bit.  All tables share one product for the
    weights, one gather and one sum.  A stencil of n < 6 points fills the
    slots past n with the factor 1 in each weight and the term -0.0 in the
    sum, which change no bit, so every value is the one its table would
    give alone.
    """
    x = np.asarray(x, dtype=float)
    N = np.array([np.shape(v)[-1] for v in values])[:, None]
    n = np.minimum(N, _INTERP_POINTS)
    # the stencil slot i leads every array: each product and sum then runs
    # over whole rows, in the order of i
    i = _STENCIL[:, None, None]
    pad = i >= n                        # slots past each stencil
    j0 = np.clip(np.floor(x).astype(np.int64) - (n // 2 - 1), 0, N - n)
    d = (x - j0) - i                    # t - i for stencil nodes i
    np.copyto(d, 1.0, where=pad)
    w = (np.prod(d[_OTHERS], axis=1)
         / _WEIGHT_DENOMINATORS[n[:, 0]].T[..., None])
    # every table's nodes side by side, then one 0.0 that the pads read
    flat = np.concatenate([*values, np.zeros((len(values[0]), 1))], axis=1)
    start = np.cumsum(N) - N[:, 0]
    idx = np.where(pad, flat.shape[1] - 1, start[:, None] + j0 + i)
    terms = w * np.take(flat, idx, axis=1)
    np.copyto(terms, -0.0, where=pad)
    return np.sum(terms, axis=1).swapaxes(0, 1)


def richardson_table(levels, values):
    """Neville table in h = 1/level, evaluated at h = 0.

    ``levels`` increase; ``values[i]`` is the array read at ``levels[i]``.
    Returns the last entry, which uses every level (order len(levels) - 1);
    for one level, that level's values.  Each step is
    (n_b P_hi - n_a P_lo) / (n_b - n_a) in the integer levels n_a < n_b, the
    form of (h_a P_hi - h_b P_lo) / (h_a - h_b) with no rounded 1/level.
    """
    col = [np.asarray(v, dtype=float) for v in values]
    for j in range(1, len(levels)):
        col = [(levels[i + j] * col[i + 1] - levels[i] * col[i])
               / (levels[i + j] - levels[i]) for i in range(len(col) - 1)]
    return col[0]


def curve_from_lattice(lat, grid, extrapolate=False):
    """Limit-curve estimate on ``grid`` from the finished lattice.

    With ``extrapolate`` it interpolates the diagonal of every level n the
    lattice holds, :func:`table_levels` of its level as
    :func:`solve_lattice` keeps them, else of the top level alone, at
    bi-degrees (s n, (1 - s) n), all in one :func:`lagrange_interp` call;
    ``meta["table_levels"]`` lists them.  A Neville table in h = 1/level
    takes them to h = 0; a one-level table returns its values unchanged.
    Its error estimate is the difference from the rung below, which
    :class:`Ladder` forms.

    Within a few nodes of either end of a diagonal the coefficients are not
    yet samples of a smooth function of k / level, and the high-order
    read-out can break the curve's invariants there (A1 <= 0 next to s = 0,
    say) on short sweeps or fine grids.  Such points take the top
    diagonal's linear interpolation instead, which keeps them; their count
    is ``meta["linear_points"]``.  This runs in hull units; the curve
    returns in :func:`~angelesco.systems.user_units`.
    """
    grid = check_grid(grid)
    e = hull_units(lat.system)[1]
    top = lat.diagonal(lat.m)
    levels = sorted(lat.diagonals) if extrapolate else [lat.m]
    vals = richardson_table(levels, lagrange_interp(
        [lat.diagonal(n) for n in levels], grid * np.array(levels)[:, None]))
    off = LimitCurve(grid, *vals).broken()
    if np.any(off):
        k = np.arange(lat.m + 1, dtype=float)
        for v, arr in zip(vals, top):
            v[off] = np.interp(grid[off] * lat.m, k, arr)
    meta = {"level": lat.m, "extrapolated": bool(extrapolate),
            "linear_points": int(np.count_nonzero(off)),
            "table_levels": levels}
    return user_units(validate_computed(
        LimitCurve(grid.copy(), *vals, "dis", meta)), lat.system, e)


@dataclass
class Ladder:
    """The ``on_rung`` of a capped :func:`solve_lattice`.

    ``read`` turns a rung's lattice into its curve, which ``curve`` keeps
    until the next rung.  A rung's estimate is its worst difference from
    the rung below, :func:`~angelesco.crossval.compare` on the ``compared``
    points given the hull length, None when no point is compared.  Both
    read-outs come from tables of one order, so it follows the error of
    the lower rung (Sidi, *Practical Extrapolation Methods*, CUP 2003).
    The sweep stops at the first rung whose estimate is at most
    ``LADDER_TOL``.  ``rungs`` records each rung read, as its level and
    that estimate (None on the first rung).
    """
    read: object
    compared: object = None
    curve: object = None
    rungs: list = field(default_factory=list)

    def __call__(self, lat):
        curve = self.read(lat)
        estimate = None
        if self.curve is not None:
            rep = compare(curve, self.curve, self.compared,
                          lat.system.hull_length)
            if rep["n_points"]:
                estimate = max(rep["max_abs"].values())
        self.curve = curve
        self.rungs.append({"level": lat.m, "estimate": estimate})
        return estimate is not None and estimate <= LADDER_TOL
