"""The capped lattice sweep: rungs 256 sqrt(2)^i (below a cap of 363, the
multiple of 8 nearest cap / sqrt(2)), read once each, stopping at the first
whose same-order estimate meets LADDER_TOL."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from angelesco import AngelescoSystem, Interval, plateau_bounds
from angelesco.crossval import compare, compared_points
from angelesco.lattice import (LADDER_TOL, Ladder, curve_from_lattice,
                               ladder_rungs, solve_lattice, table_levels)
from angelesco.surface import limit_curve
from angelesco.systems import hull_units, star_normalize

GRID = np.linspace(0.0, 1.0, 181)
WIDE = AngelescoSystem(Interval(-1000.0, 0.0), Interval(0.0, 1.0))


def _compared(sys):
    info = plateau_bounds(star_normalize(hull_units(sys)[0])[0])
    return info, compared_points(GRID, info.c1, info.c2, 0.05)


def _sweep(sys, cap):
    """The capped sweep as ``compute`` runs it: its lattice, its ladder and
    the mask of the compared points."""
    _, compared = _compared(sys)
    lad = Ladder(lambda lat: curve_from_lattice(lat, GRID, True), compared)
    return solve_lattice(sys, cap, lad), lad, compared


def test_rungs_are_multiples_of_8_next_to_256_sqrt2_powers():
    assert ladder_rungs(6000) == [256, 360, 512, 728, 1024, 1448, 2048, 2896,
                                  4096, 6000]
    rungs = ladder_rungs(10 ** 6)[:-1]
    for i, rung in enumerate(rungs):
        assert rung % 8 == 0
        assert abs(rung - 256.0 * math.sqrt(2.0) ** i) <= 4.0
    # the last rung below the cap lies a factor sqrt(2) or more under it
    for cap in (363, 1000, 4096, 5792, 5793, 6000):
        *below, top = ladder_rungs(cap)
        assert top == cap and 2 * below[-1] ** 2 < cap * cap


def _sqrt2_ladder(cap):
    # the rungs 256 sqrt(2)^i below cap / sqrt(2), then the cap: the whole
    # ladder of every cap, before caps of 9 to 362 read one more rung
    rungs = []
    for i in itertools.count():
        rung = 8 * ((math.isqrt(1 << (i + 12)) + 1) // 2)
        if 2 * rung * rung >= cap * cap:
            return rungs + [cap]
        rungs.append(rung)


def test_every_cap_from_9_reads_a_rung_below_it():
    for cap in range(1, 20001):
        rungs = ladder_rungs(cap)
        assert rungs[-1] == cap
        assert all(a < b for a, b in zip(rungs, rungs[1:])), cap
        if cap <= 8:
            assert rungs == [cap]
        elif cap <= 362:
            assert len(rungs) == 2 and rungs[0] % 8 == 0, cap
            assert abs(rungs[0] - cap / math.sqrt(2.0)) <= 4.0, cap
        else:
            assert rungs == _sqrt2_ladder(cap), cap


SHORT_LADDERS = {1: [1], 4: [4], 200: [144, 200], 256: [184, 256],
                 300: [216, 300], 362: [256, 362]}


@pytest.mark.parametrize("cap", SHORT_LADDERS)
def test_a_cap_of_362_or_less_stops_at_the_cap(touching_system, cap):
    # the first rung has no estimate to stop on, so the sweep runs on to the
    # cap and returns the plain sweep's bits
    assert ladder_rungs(cap) == SHORT_LADDERS[cap]
    seen = []
    lat = solve_lattice(touching_system, cap,
                        lambda rung: seen.append(rung.m) or False)
    assert seen == ladder_rungs(cap) and lat.m == cap
    plain = solve_lattice(touching_system, cap)
    assert sorted(lat.diagonals) == table_levels(cap)
    assert sorted(plain.diagonals) == table_levels(cap)
    for n in table_levels(cap):
        for got, want in zip(lat.diagonal(n), plain.diagonal(n)):
            assert np.array_equal(got, want)
    assert np.array_equal(lat.axis_b, plain.axis_b)
    assert ladder_rungs(363) == [256, 363]


def test_lattice_wide_stops_at_4096_with_the_bits_of_that_sweep():
    lat, lad, compared = _sweep(WIDE, 6000)
    assert lat.m == 4096
    assert [r["level"] for r in lad.rungs] == ladder_rungs(6000)[:-1]
    assert lad.rungs[0]["estimate"] is None
    assert lad.rungs[-1]["estimate"] <= LADDER_TOL
    assert all(r["estimate"] > LADDER_TOL for r in lad.rungs[1:-1])
    plain = solve_lattice(WIDE, 4096)
    want = curve_from_lattice(plain, GRID, True)
    for f in ("A1", "A2", "B1", "B2"):
        assert np.array_equal(getattr(lad.curve, f), getattr(want, f))
    assert lad.curve.meta == want.meta
    assert sorted(lat.diagonals) == table_levels(4096)
    for n in table_levels(4096):
        for got, ref in zip(lat.diagonal(n), plain.diagonal(n)):
            assert np.array_equal(got, ref)
    assert np.array_equal(lat.axis_b, plain.axis_b)


def test_a_ladder_that_never_meets_the_tolerance_sweeps_to_the_cap():
    # on touching chebyshev1/uniform the threshold ray converges like 1/m,
    # so at 6000 the estimate still reads about 3.7e-10
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0),
                          "chebyshev1", "uniform")
    lat, lad, _ = _sweep(sys, 6000)
    assert lat.m == 6000
    assert [r["level"] for r in lad.rungs] == ladder_rungs(6000)
    assert lad.rungs[-1]["estimate"] > LADDER_TOL


@pytest.mark.parametrize("interval1, interval2", [
    ((-2.0, 0.0), (0.25, 1.0)), ((-1000.0, 0.0), (0.0, 1.0))],
    ids=["gap", "lattice-wide"])
def test_each_rung_estimate_covers_its_error(interval1, interval2):
    # estimate / error read 2.1 to 3.9 on gap and 1.45 to 3.2 on
    # lattice-wide, against the surface route in A/L^2 and B/L
    sys = AngelescoSystem(Interval(*interval1), Interval(*interval2))
    info, compared = _compared(sys)
    ref = limit_curve(sys, GRID, info)
    errors = []

    def read(lat):
        curve = curve_from_lattice(lat, GRID, True)
        errors.append(compare(curve, ref, compared, sys.hull_length).worst())
        return curve

    lad = Ladder(read, compared)
    solve_lattice(sys, 6000, lad)
    assert len(lad.rungs) >= 9
    for rung, error in zip(lad.rungs[1:], errors[1:]):
        assert error <= rung["estimate"], rung


def test_the_sweep_holds_only_what_the_pending_rungs_read(gap_system):
    rungs = ladder_rungs(3000)
    held = []

    def spy(lat):
        held.append(sorted(lat.diagonals))
        return False

    lat = solve_lattice(gap_system, 3000, spy)
    assert held == [table_levels(rung) for rung in rungs]
    assert sorted(lat.diagonals) == table_levels(3000)


def test_the_capped_sweep_peaks_near_the_plain_sweep(gap_system):
    # a diagonal no pending rung reads is dropped: the capped sweep to 3000
    # peaked at 1.44 MB against the plain sweep's 1.29 MB, and at 2.01 MB
    # with every diagonal it copied kept to the end
    def peak(on_rung):
        tracemalloc.start()
        try:
            solve_lattice(gap_system, 3000, on_rung)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a first sweep fills Python's free lists, whose later reuse the traces
    # do not count
    solve_lattice(gap_system, 3000)
    assert peak(lambda lat: False) <= 1.2 * peak(None)


@pytest.mark.parametrize("interval1, interval2", [
    ((-2.0, 0.0), (0.25, 1.0)), ((-1000.0, 0.0), (0.0, 1.0))],
    ids=["gap", "lattice-wide"])
def test_every_rung_lattice_is_the_sweep_to_its_rung(interval1, interval2):
    # the lattices on_rung is handed stay the sweep to their rung after the
    # sweep has gone on past them: each holds its own table diagonals
    sys = AngelescoSystem(Interval(*interval1), Interval(*interval2))
    kept = []
    solve_lattice(sys, 2048, lambda lat: kept.append(lat) or False)
    assert [lat.m for lat in kept] == ladder_rungs(2048)
    assert len(kept) == 7
    for lat in kept:
        plain = solve_lattice(sys, lat.m)
        assert sorted(lat.diagonals) == table_levels(lat.m)
        for n in table_levels(lat.m):
            assert np.array_equal(lat.diagonal(n),
                                  plain.diagonal(n)), (lat.m, n)
        assert np.array_equal(lat.axis_b, plain.axis_b)


def test_no_compared_point_leaves_no_estimate(gap_system):
    none = np.zeros(GRID.size, dtype=bool)
    lad = Ladder(lambda lat: curve_from_lattice(lat, GRID, True), none)
    lat = solve_lattice(gap_system, 800, lad)
    assert lat.m == 800
    assert [r["estimate"] for r in lad.rungs] == [None] * len(
        ladder_rungs(800))
