import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import angelesco.lattice as lattice_mod
from angelesco import AngelescoSystem, Interval, LimitCurve, NumericalFailure
from angelesco.lattice import (Ladder, curve_from_lattice, lagrange_interp,
                               richardson_table, solve_lattice, table_levels)
from angelesco.crossval import compare
from angelesco.surface import limit_curve
from angelesco.systems import hull_units, off_window, range_failure
import lattice_oracle
from lattice_oracle import user_diagonal
from moment_oracle import MomentOracle


@pytest.fixture(scope="module")
def deep_lattice(touching_system):
    return solve_lattice(touching_system, 1500)


def test_site_1_1_matches_oracle(touching_system):
    oracle = MomentOracle(touching_system, 2)
    lat = solve_lattice(touching_system, 2)
    a1, a2, b1, b2 = user_diagonal(lat, 2)
    ref = [float(v) for v in oracle.site(1, 1)]
    assert a1[1] == pytest.approx(ref[0], abs=1e-10)
    assert a2[1] == pytest.approx(ref[1], abs=1e-10)
    assert b1[1] == pytest.approx(ref[2], abs=1e-10)
    assert b2[1] == pytest.approx(ref[3], abs=1e-10)


@pytest.mark.parametrize("w1,w2", [("chebyshev2", "chebyshev2"),
                                   ("chebyshev1", "uniform"),
                                   ("uniform", "chebyshev2")])
def test_all_sites_match_oracle(w1, w2):
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0), w1, w2)
    oracle = MomentOracle(sys, 6)
    for level in range(1, 7):
        a1, a2, b1, b2 = user_diagonal(solve_lattice(sys, level), level)
        for k in range(level + 1):
            ref = [float(v) for v in oracle.site(k, level - k)]
            assert a1[k] == pytest.approx(ref[0], abs=1e-12)
            assert a2[k] == pytest.approx(ref[1], abs=1e-12)
            assert b1[k] == pytest.approx(ref[2], abs=1e-12)
            assert b2[k] == pytest.approx(ref[3], abs=1e-12)


def test_axis_rows_keep_axis_data(touching_system):
    a1, a2, b1, b2 = user_diagonal(solve_lattice(touching_system, 40), 40)
    # k indexes the first degree, so k = m is the axis-1 end of the diagonal
    assert b1[-1] == -1.0
    assert a2[-1] == 0.0
    assert a1[-1] == 0.25
    assert b2[0] == 0.5
    assert a1[0] == 0.0
    assert np.all(b2 - b1 > 0)
    assert np.all(a1[1:] > 0)
    assert np.all(a2[:-1] > 0)


def test_consistency_residuals(touching_system, deep_lattice):
    lat = solve_lattice(touching_system, 200)
    res = lat.residuals
    assert res.shape == (200, 2)
    assert np.all(res >= 0)
    assert lat.max_residual() <= 1e-10
    assert deep_lattice.max_residual() < 1e-6


@pytest.mark.parametrize("c", [2.0 ** 10, 2.0 ** 20])
def test_sweep_translation_covariant(deep_lattice, c):
    # shifting both intervals by c (exact in binary) shifts every b by c and
    # leaves every a alone; the b-phase adds a shift-free step to b, so the
    # lattice keeps that to within 64 ulp(c) all the way to level 1500
    # (measured 38 and 47), on the top diagonal and every snapshot
    shifted = AngelescoSystem(Interval(-2.0 + c, c), Interval(c, 1.0 + c))
    lat = solve_lattice(shifted, 1500)
    tol = 64 * np.spacing(c)
    for level in table_levels(1500):
        a1, a2, b1, b2 = user_diagonal(lat, level)
        r1, r2, q1, q2 = user_diagonal(deep_lattice, level)
        assert np.max(np.abs(a1 - r1)) <= tol
        assert np.max(np.abs(a2 - r2)) <= tol
        assert np.max(np.abs((b1 - c) - q1)) <= tol
        assert np.max(np.abs((b2 - c) - q2)) <= tol


def _max_err(a, b):
    return max(np.max(np.abs(getattr(a, f) - getattr(b, f)))
               for f in ("A1", "A2", "B1", "B2"))


def test_ray_limit_midpoint(deep_lattice, touching_system, touching_info):
    ref = limit_curve(touching_system, [0.5], info=touching_info)
    err_plain = _max_err(curve_from_lattice(deep_lattice, [0.5]), ref)
    assert err_plain <= 2e-2
    err_ex = _max_err(curve_from_lattice(deep_lattice, [0.5], True), ref)
    assert err_ex < err_plain


def test_ray_limit_endpoints(deep_lattice):
    p = curve_from_lattice(deep_lattice, [0.0])
    assert p.A1[0] == 0.0
    assert p.A2[0] > 0
    assert p.B2[0] == 0.5
    p = curve_from_lattice(deep_lattice, [1.0])
    assert p.A2[0] == 0.0
    assert p.A1[0] == 0.25
    assert p.B1[0] == -1.0
    with pytest.raises(ValueError):
        curve_from_lattice(deep_lattice, [1.2])


@pytest.mark.parametrize("s", [float("nan"), -0.1, 1.5])
def test_ray_limit_rejects_a_ray_off_the_grid_rules(deep_lattice, s):
    with pytest.raises(ValueError):
        curve_from_lattice(deep_lattice, [s])


def test_curve_from_lattice(deep_lattice):
    grid = np.linspace(0.0, 1.0, 61)
    cv = curve_from_lattice(deep_lattice, grid)
    assert cv.method == "dis"
    assert cv.meta["level"] == 1500
    assert not cv.meta["extrapolated"]
    assert cv.A1[0] == 0.0 and cv.A2[-1] == 0.0
    assert np.all(cv.B2 - cv.B1 > 0)
    with pytest.raises(ValueError):
        curve_from_lattice(deep_lattice, np.array([0.3, 0.2]))
    with pytest.raises(ValueError):
        curve_from_lattice(deep_lattice, np.array([]))


def test_snapshot_bookkeeping(touching_system):
    # a sweep keeps exactly the levels the table reads, m among them
    for m in (1, 2, 5, 9, 16, 256):
        lat = solve_lattice(touching_system, m)
        assert set(lat.diagonals) == set(table_levels(m)), m
        for level in table_levels(m):
            assert len(lat.diagonal(level)[0]) == level + 1
        for level in {0, m - 1, m + 1} - set(table_levels(m)):
            with pytest.raises(KeyError, match=f"level {level} was not kept"):
                lat.diagonal(level)


@pytest.mark.parametrize("m,levels", [(1, [1]), (2, [1, 2]), (3, [1, 2, 3]),
                                      (5, [3, 4, 5]), (9, [5, 6, 7, 9]),
                                      (400, [250, 300, 350, 400]),
                                      (1001, [625, 750, 875, 1001]),
                                      (256, [160, 192, 224, 256])])
def test_table_levels(m, levels):
    assert table_levels(m) == levels


def lebesgue_constant(levels):
    """Sum of |l_i(0)| over the Lagrange basis in h = 1/level: the factor
    by which the table's value at h = 0 can amplify errors in its inputs."""
    h = [1.0 / n for n in levels]
    return sum(abs(math.prod(hj / (hj - hi) for hj in h if hj != hi))
               for hi in h)


def cubic_table(m, levels):
    # x(n) = c0 + c1/n + c2/n^2 + c3/n^3 is what an order-3 table removes
    # exactly; with fewer than four levels only the lower orders go.
    # Returns the table's error in c0 and the largest input
    rng = np.random.default_rng(m)
    c = rng.uniform(-4.0, 4.0, size=(4, 5))
    order = len(levels) - 1
    vals = [sum(c[p] / n ** p for p in range(order + 1)) for n in levels]
    best = richardson_table(levels, vals)
    return np.max(np.abs(best - c[0])), max(np.max(np.abs(v)) for v in vals)


@pytest.mark.parametrize("m,levels", [(4, [1, 2, 4]), (9, [1, 2, 4, 9]),
                                      (400, [50, 100, 200, 400]),
                                      (1001, [125, 250, 500, 1001])],
                         ids=["4", "9", "400", "1001"])
def test_richardson_table_exact_on_cubics_in_inverse_level(m, levels):
    # the halving levels m, m/2, m/4, m/8 are far apart (Lebesgue constant
    # 5 to 6.4), so the table returns the cubics to rounding
    err, _ = cubic_table(m, levels)
    assert err <= 64 * np.finfo(float).eps


@pytest.mark.parametrize("m", [4, 9, 256, 400, 1001])
def test_richardson_table_on_cubics_at_the_table_levels(m):
    # the top levels are close together (Lebesgue constant 386 at m = 256),
    # so the inputs' rounding comes back amplified by up to that factor:
    # 0.9 of lebesgue * eps * max|input| at worst over 300 draws per m
    levels = table_levels(m)
    err, scale = cubic_table(m, levels)
    assert err <= 2 * lebesgue_constant(levels) * np.finfo(float).eps * scale


def test_sweep_scale_covariant_bit_for_bit(touching_system):
    # scaling both intervals by 2^j scales every a by 2^2j and every b by
    # 2^j, exactly: the sweep runs in hull units, so at 2^-400 (a ~ 1e-241)
    # and 2^400 it neither underflows nor overflows, and the gap guard's
    # floor scales with the hull, so a gap of order 2^-50 is not collapsed
    unit = solve_lattice(touching_system, 400)
    for k in (2.0 ** -50, 2.0 ** -400, 2.0 ** 400):
        scaled = solve_lattice(AngelescoSystem(Interval(-2.0 * k, 0.0),
                                               Interval(0.0, k)), 400)
        assert sorted(scaled.diagonals) == sorted(unit.diagonals)
        for level in unit.diagonals:
            for u, v, f in zip(user_diagonal(unit, level),
                               user_diagonal(scaled, level),
                               (k * k, k * k, k, k)):
                assert np.array_equal(u * f, v), (k, level)
        assert np.array_equal(unit.residuals * k, scaled.residuals), k


GEOMETRIES = {"touching": ((-2.0, 0.0), (0.0, 1.0)),
              "gap": ((-2.0, 0.0), (0.25, 1.0)),
              "wide": ((-1000.0, 0.0), (0.0, 1.0)),
              "apart": ((-3.0, -1.0), (2.0, 7.0))}
KINDS = ("chebyshev1", "chebyshev2", "uniform")


def assert_matches_oracle(lat, ref):
    a1, a2, b1, b2, snaps, residuals = ref
    for got, want in zip(user_diagonal(lat, lat.m), (a1, a2, b1, b2)):
        assert np.array_equal(got, want)
    assert sorted(lat.diagonals) == sorted([*snaps, lat.m])
    for level, diag in snaps.items():
        for got, want in zip(user_diagonal(lat, level), diag):
            assert np.array_equal(got, want), level
    assert np.array_equal(lat.residuals, residuals)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("w1,w2", itertools.product(KINDS, KINDS))
def test_sweep_matches_the_reference_loop_bit_for_bit(geometry, w1, w2):
    i1, i2 = GEOMETRIES[geometry]
    sys = AngelescoSystem(Interval(*i1), Interval(*i2), w1, w2)
    for m in (*range(1, 8), 400):
        assert_matches_oracle(solve_lattice(sys, m), lattice_oracle.sweep(sys, m))


def test_deep_sweep_matches_the_reference_loop_bit_for_bit():
    sys = AngelescoSystem(Interval(-1000.0, 0.0), Interval(0.0, 1.0))
    assert_matches_oracle(solve_lattice(sys, 6000),
                          lattice_oracle.sweep(sys, 6000))


@pytest.mark.parametrize("w1,w2", itertools.product(KINDS, KINDS))
def test_a_sweep_is_a_prefix_of_any_deeper_sweep(w1, w2):
    # the sweep reads only closed-form own a's, so nothing in it depends on
    # its depth: the first n levels of a deeper sweep are the sweep to n bit
    # for bit.  Level 768 is a table level of both sweeps
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.25, 1.0), w1, w2)
    short = solve_lattice(sys, 768)
    deep = solve_lattice(sys, 1024)
    for got, want in zip(deep.diagonal(768), short.diagonal(768)):
        assert np.array_equal(got, want)
    assert np.array_equal(deep.axis_b[:768], short.axis_b)


@pytest.mark.parametrize("w1,w2", itertools.product(KINDS, KINDS))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.floats(-6.0, 6.0).map(lambda x: 10.0 ** x),
       st.just(0.0) | st.floats(1e-4, 0.9))
def test_propagated_axis_cross_b_agree_with_the_mixed_moments(w1, w2, alpha,
                                                              beta):
    # the sweep propagates its axis cross-b's from the own a's alone; the
    # mixed moments of the consistency check agree to 1e-11 hull lengths
    # at level 256 (1.5e-13 at worst over 360 random draws)
    sys = AngelescoSystem(Interval(-alpha, 0.0), Interval(beta, 1.0), w1, w2)
    lat = solve_lattice(sys, 256)
    assert lat.max_residual() <= 1e-11 * (1.0 + alpha)


def test_richardson_table_of_one_level_is_that_level():
    best = richardson_table([7], [np.array([1.5, -2.0])])
    assert np.array_equal(best, [1.5, -2.0])


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 7, 40, 400])
def test_interp_exact_on_quintics(level):
    # the stencil holds min(6, level + 1) points, so polynomials of degree
    # min(5, level) in k come back exactly, ends included
    rng = np.random.default_rng(level)
    deg = min(5, level)
    k = np.arange(level + 1, dtype=float)
    coef = rng.uniform(-1.0, 1.0, size=(4, deg + 1))
    diag = tuple(np.polyval(c, k / level) for c in coef)
    s = np.linspace(0.0, 1.0, 181)
    got = lagrange_interp([diag], [s * level])[0]
    for c, g in zip(coef, got):
        assert np.max(np.abs(g - np.polyval(c, s))) <= 1e-12


@pytest.mark.parametrize("level", [1, 3, 5, 64, 400])
def test_interp_returns_node_values_bit_for_bit(level):
    rng = np.random.default_rng(level)
    diag = tuple(rng.standard_normal(level + 1) for _ in range(4))
    # k / level * level need not round back to k; test where it does
    s = np.unique(np.concatenate([np.arange(level + 1) / level,
                                  np.linspace(0.0, 1.0, 181)]))
    x = s * level
    on_node = x == np.floor(x)
    assert np.count_nonzero(on_node) > level // 2
    got = lagrange_interp([diag], [s * level])[0]
    for arr, g in zip(diag, got):
        assert np.array_equal(g[on_node], arr[x[on_node].astype(int)])


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _interp_alone(values, x):
    """The read-out of one diagonal on its own: the stencil of
    min(6, N) points, its weights and its sum over those points alone."""
    values = np.asarray(values)
    N = values.shape[-1]
    n = min(6, N)
    j0 = np.clip(np.floor(x).astype(np.int64) - (n // 2 - 1), 0, N - n)
    d = (x - j0)[:, None] - np.arange(n)
    w = np.empty_like(d)
    for j in range(n):
        others = [i for i in range(n) if i != j]
        w[:, j] = np.prod(d[:, others], axis=1) / np.prod(
            [float(j - i) for i in others])
    return np.sum(w * values[:, j0[:, None] + np.arange(n)], axis=2)


def test_read_out_interpolates_each_level_once_as_alone(monkeypatch,
                                                        gap_system):
    # an extrapolated read-out interpolates all its table levels in one
    # call, and every level, those whose diagonal is shorter than the
    # 6-point stencil included, reads the values the one-diagonal stencil
    # gives, bit for bit and zero signs too
    calls = []

    def spy(values, x):
        out = lagrange_interp(values, x)
        calls.append((values, x, out))
        return out

    monkeypatch.setattr(lattice_mod, "lagrange_interp", spy)
    rng = np.random.default_rng(36)
    for m in range(1, 65):
        grid = np.unique(np.concatenate([[0.0, 1.0], rng.random(40),
                                         np.arange(m + 1) / m]))
        calls.clear()
        lat = solve_lattice(gap_system, m)
        curve_from_lattice(lat, grid, True)
        assert len(calls) == 1, m
        diags, xs, got = calls[0]
        assert len(diags) == len(xs) == len(got) == len(table_levels(m)), m
        for n, diag, x, g in zip(table_levels(m), diags, xs, got):
            assert np.shape(diag) == (4, n + 1) and _same_bits(x, grid * n)
            assert _same_bits(diag, lat.diagonal(n)), (m, n)
            assert _same_bits(g, _interp_alone(diag, x)), (m, n)


@pytest.mark.parametrize("m", range(1, 10))
def test_extrapolated_curve_valid_at_small_levels(touching_system, gap_system,
                                                  m):
    grid = np.linspace(0.0, 1.0, 181)
    for sys in (touching_system, gap_system):
        cv = curve_from_lattice(solve_lattice(sys, m), grid, True)
        assert cv.meta["table_levels"] == table_levels(m)


@pytest.mark.parametrize("extrapolate", [False, True])
def test_points_off_the_contract_fall_back_to_linear(extrapolate):
    # the first Chebyshev-1 coefficients stand out from the rest, so within
    # a node of the ends the high-order read-out leaves the contract on a
    # fine grid (8 points plain at m = 200; the table over the top levels
    # stays on it there, and leaves it on 21 points at m = 80)
    m = 80 if extrapolate else 200
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.5, 1.0),
                          "chebyshev1", "chebyshev1")
    lat = solve_lattice(sys, m)
    grid = np.linspace(0.0, 1.0, 2001)
    cv = curve_from_lattice(lat, grid, extrapolate)
    k = np.arange(m + 1, dtype=float)
    linear = [np.interp(grid * m, k, arr) for arr in user_diagonal(lat, m)]
    levels = table_levels(m) if extrapolate else [m]
    high = richardson_table(levels, lagrange_interp(
        [user_diagonal(lat, n) for n in levels],
        grid * np.array(levels)[:, None]))
    high[0][0] = high[1][-1] = 0.0
    off = LimitCurve(grid, *high).broken()
    assert cv.meta["linear_points"] == np.count_nonzero(off) > 0
    x = grid[off] * m
    assert np.all(np.minimum(x, m - x) < 1.0)
    for f, h, lin in zip(("A1", "A2", "B1", "B2"), high, linear):
        assert np.array_equal(getattr(cv, f), np.where(off, lin, h))


def test_error_estimate_bounds_the_table_error(touching_system, touching_info):
    # on the touching system the same-order estimate at the cap 400, against
    # the rung 256, bounds the largest error over the whole grid in A/L^2
    # and B/L (4.8 times it)
    grid = np.linspace(0.0, 1.0, 181)
    lad = Ladder(lambda lat: curve_from_lattice(lat, grid, True))
    solve_lattice(touching_system, 400, lad)
    ref = limit_curve(touching_system, grid, info=touching_info)
    assert [r["level"] for r in lad.rungs] == [256, 400]
    rep = compare(lad.curve, ref, None, touching_system.hull_length)
    err = max(rep["max_abs"].values())
    assert err <= lad.rungs[-1]["estimate"]
    assert lad.curve.meta["table_levels"] == [250, 300, 350, 400]


def test_error_estimate_over_the_compared_points(gap_system, gap_info):
    # on gap the whole-grid estimate sits at the plateau edge, where the
    # table stalls, and reads below the error (0.82 times it); over the
    # points more than 0.05 from the window it is far lower and bounds the
    # error there (5.8 times it)
    grid = np.linspace(0.0, 1.0, 181)
    keep = off_window(grid, gap_info.c1, gap_info.c2, 0.05)
    curves = []

    def read(lat):
        curves.append(curve_from_lattice(lat, grid, True))
        return curves[-1]

    lad = Ladder(read, keep)
    solve_lattice(gap_system, 400, lad)
    length = gap_system.hull_length
    part = lad.rungs[-1]["estimate"]
    kept = compare(curves[1], curves[0], keep, length)["max_abs"]
    whole = compare(curves[1], curves[0], None, length)["max_abs"]
    assert part == max(kept.values())
    assert part < 0.1 * max(whole.values())
    ref = limit_curve(gap_system, grid, info=gap_info)
    err = compare(lad.curve, ref, keep, length)["max_abs"]
    assert max(err.values()) <= part


def axis_of(interval):
    """The axis an interval of the touching or gap system belongs to, in
    any units: interval 1 lies left of 0 and interval 2 right of it."""
    return 1 if interval.mid < 0.0 else 2


def poison(monkeypatch, axis, field, value):
    """Put ``value(iv)`` into ``field`` of ``axis`` at site 5, ``iv`` the
    axis's interval in the units of the caller.  The own a goes through
    ``lattice.scalar_recurrence``, which both sweeps read; the cross-b goes
    through ``lattice.axis_data``, which only the consistency residuals
    read."""
    if field == "own_a":
        real = lattice_mod.scalar_recurrence

        def poisoned(kind, iv, n):
            a = real(kind, iv, n)
            if axis_of(iv) == axis:
                a = a.copy()
                a[4] = value(iv)  # the own a at site 5 of level 5
            return a

        monkeypatch.setattr(lattice_mod, "scalar_recurrence", poisoned)
        return
    real = lattice_mod.axis_data

    def poisoned(sys, ax, m):
        data = real(sys, ax, m)
        if ax != axis:
            return data
        values = data.cross_b.copy()
        values[5] = value((sys.i1, sys.i2)[ax - 1])
        return dataclasses.replace(data, cross_b=values)

    monkeypatch.setattr(lattice_mod, "axis_data", poisoned)


def failure(sweep, *args):
    with pytest.raises(NumericalFailure) as exc:
        sweep(*args)
    return str(exc.value), exc.value.context


def assert_residuals_flag_level_5(lat, ref, axis):
    """The poisoned cross-b shows in the consistency residuals at level 5 on
    ``axis`` alone, as in the reference loop, and fails ``max_residual``."""
    res = lat.residuals
    assert np.array_equal(res, ref[5], equal_nan=True)
    bad = ~(res <= 1e-12 * lat.system.hull_length)
    assert np.array_equal(np.argwhere(bad), [[4, axis - 1]])
    worst = lat.max_residual()
    assert not worst <= 1e-3 * lat.system.hull_length


@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("field", ["own_a", "cross_b"])
def test_nan_axis_data_aborts_sweep(touching_system, monkeypatch, axis, field):
    # a NaN own a aborts the sweep one level on, as in the reference loop;
    # no sweep reads a cross-b, so a NaN one makes the residual check NaN
    poison(monkeypatch, axis, field, lambda iv: np.nan)
    if field == "own_a":
        got = failure(solve_lattice, touching_system, 20)
        assert got == failure(lattice_oracle.sweep, touching_system, 20)
        assert got[1]["level"] == 6
        return
    lat = solve_lattice(touching_system, 20)
    assert math.isnan(lat.max_residual())
    assert_residuals_flag_level_5(
        lat, lattice_oracle.sweep(touching_system, 20), axis)


@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("field,value", [
    ("own_a", lambda iv: -iv.length ** 2),
    ("own_a", lambda iv: np.inf),
    # a gap of 1e-14 interval lengths at the axis site: under the sweep's
    # floor, had the sweep read it
    ("cross_b", lambda iv: iv.mid
     + (1e-14 if axis_of(iv) == 1 else -1e-14) * iv.length)],
    ids=["negative-a", "infinite-a", "small-gap"])
def test_poisoned_axis_data_fails_like_the_reference_loop(
        gap_system, monkeypatch, axis, field, value):
    # a poisoned own a fires the same guard at the same level, in the
    # sweep's hull units as in the reference loop's user units (an infinite
    # a makes inf - inf); a poisoned cross-b leaves the sweep alone and
    # fails the consistency check with the reference loop's residuals
    poison(monkeypatch, axis, field, value)
    with np.errstate(invalid="ignore"):
        if field == "own_a":
            got = failure(solve_lattice, gap_system, 20)
            assert got == failure(lattice_oracle.sweep, gap_system, 20)
            return
        lat = solve_lattice(gap_system, 20)
        ref = lattice_oracle.sweep(gap_system, 20)
    assert_residuals_flag_level_5(lat, ref, axis)


# what a poisoned own a is set to: a zero, a subnormal, a nonpositive or
# nonfinite value, and values far out at both ends of the doubles
POISONS = (0.0, 5e-324, 3e-310, -0.25, math.inf, -math.inf, math.nan,
           1e300, 1e-300)


def own_a_of(sys, m):
    """The hull units of ``sys`` and copies of its axes' first m own a's."""
    unit = hull_units(sys)[0]
    return unit, [lattice_mod.scalar_recurrence(w, iv, m).copy()
                  for w, iv in ((unit.w1, unit.i1), (unit.w2, unit.i2))]


def nevai_draw(seed):
    """A system in hull units, a level and each axis's own a's for one
    draw: the geometry cycles through ``GEOMETRIES``, the weights and the
    level 1 .. 48 are random, each own a_k takes a Nevai-class factor
    1 - c k^-p (|c| < 1, 1/2 <= p <= 2), and a few draws set some a's to a
    ``POISONS`` value or flip their sign."""
    rng = np.random.default_rng(seed)
    i1, i2 = GEOMETRIES[list(GEOMETRIES)[seed % len(GEOMETRIES)]]
    w1, w2 = rng.choice(KINDS, 2)
    m = int(rng.integers(1, 49))
    unit, own = own_a_of(AngelescoSystem(Interval(*i1), Interval(*i2),
                                         str(w1), str(w2)), m)
    k = np.arange(1, m + 1)
    for a in own:
        a *= 1.0 - rng.uniform(-1.0, 1.0) * k ** -rng.uniform(0.5, 2.0)
        poisoned = rng.integers(0, 3) if rng.random() < 0.5 else 0
        for site in rng.integers(0, m, size=poisoned):
            a[site] = (-a[site] if rng.random() < 0.1
                       else POISONS[rng.integers(len(POISONS))])
    return unit, m, own


def patch_own_a(patch, unit, own):
    """Make both sweeps read ``own`` as the own a's of ``unit``'s axes."""
    patch.setattr(lattice_mod, "scalar_recurrence",
                  lambda kind, iv, n: own[iv != unit.i1][:n])


def sweep_outcome(sweep, *args):
    """What ``sweep(*args)`` gives with RuntimeWarning an error: its
    result, or the failure or warning it raises, as (type, message,
    context)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return sweep(*args)
        except (NumericalFailure, RuntimeWarning) as exc:
            return type(exc).__name__, str(exc), getattr(exc, "context", None)


def assert_sweep_matches_the_reference_loop(unit, m, own):
    """``solve_lattice`` on ``unit`` gives the reference loop's outcome on
    the same own a's: the same failure or warning, or the range failure
    where a kept diagonal holds a positive subnormal a, or else every kept
    diagonal bit for bit."""
    with pytest.MonkeyPatch.context() as patch:
        patch_own_a(patch, unit, own)
        got = sweep_outcome(solve_lattice, unit, m)
        want = sweep_outcome(lattice_oracle.sweep, unit, m)
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
        return
    a1, a2, b1, b2, snaps, _ = want
    diagonals = {**snaps, m: (a1, a2, b1, b2)}
    a = np.concatenate([np.concatenate(d[:2]) for d in diagonals.values()])
    if np.any((0.0 < a) & (a < np.finfo(float).tiny)):
        failure = range_failure(unit)
        assert got == ("NumericalFailure", str(failure), failure.context)
        return
    assert sorted(got.diagonals) == sorted(diagonals)
    for level, rows in diagonals.items():
        assert _same_bits(got.diagonal(level), rows), level


@pytest.mark.parametrize("seed", range(160))
def test_sweep_matches_the_reference_loop_on_nevai_class_own_a(seed):
    # in hull units, where the sweep and the reference loop leave the
    # doubles at the same levels; RuntimeWarning is an error in both.  The
    # CI runs the seeds 0 .. 1999
    assert_sweep_matches_the_reference_loop(*nevai_draw(seed))


def count_starts(patch):
    """A list that grows by one each time a sweep starts at level 0."""
    starts = []
    reset = lattice_mod._Sweep.reset

    def counted(sweep):
        starts.append(0)
        reset(sweep)

    patch.setattr(lattice_mod._Sweep, "reset", counted)
    return starts


def test_an_interior_a_that_underflows_to_zero_fails_like_the_reference(
        touching_system):
    # the least subnormal own a times a gap ratio below 1/2 rounds to 0
    # one level on, where the reference loop's a-phase guard fails; every
    # gap before it cleared the floor, so the sweep had skipped that guard,
    # and the underflow sends it back to level 0 with every guard on
    unit, own = own_a_of(touching_system, 20)
    own[0][6] = 5e-324
    assert_sweep_matches_the_reference_loop(unit, 20, own)
    with pytest.MonkeyPatch.context() as patch:
        patch_own_a(patch, unit, own)
        starts = count_starts(patch)
        got = sweep_outcome(solve_lattice, unit, 20)
    assert got == ("NumericalFailure", "interior coefficient lost positivity",
                   {"level": 8})
    assert len(starts) == 2


def test_an_interior_gap_that_changes_sign_fails_like_the_reference(
        touching_system):
    # three times the own a at site 4 drives b2 - b1 negative at site 8 of
    # level 12, with |gap| above the floor; the next level's step relations
    # turn an a negative, and the sweep runs that guard there
    unit, own = own_a_of(touching_system, 20)
    own[0][3] *= 3.0
    with pytest.MonkeyPatch.context() as patch:
        patch_own_a(patch, unit, own)
        _, _, b1, b2 = solve_lattice(unit, 12).diagonal(12)
        got = sweep_outcome(solve_lattice, unit, 20)
    assert np.flatnonzero(b2 - b1 < 0.0).tolist() == [8]
    assert got == ("NumericalFailure", "interior coefficient lost positivity",
                   {"level": 13})
    assert_sweep_matches_the_reference_loop(unit, 20, own)


def test_a_sweep_sent_back_to_level_0_shows_each_rung_once(gap_system):
    # a subnormal own a past the first rung underflows the step relations
    # on the way to the cap: the sweep starts over with every guard on, the
    # ladder sees each rung once, and the lattice is the reference loop's
    unit, own = own_a_of(gap_system, 400)
    own[0][300] = 1e-310
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch_own_a(patch, unit, own)
        starts = count_starts(patch)
        lat = solve_lattice(unit, 400, lambda rung: seen.append(rung.m))
        a1, a2, b1, b2, _, _ = lattice_oracle.sweep(unit, 400)
    assert len(starts) == 2
    assert seen == [256, 400]
    assert _same_bits(lat.diagonal(400), (a1, a2, b1, b2))


def test_level_validation(touching_system):
    with pytest.raises(ValueError):
        solve_lattice(touching_system, 0)


def test_level_error_shrinks(touching_system, touching_info):
    ref = limit_curve(touching_system, [0.5], info=touching_info)

    def err(m):
        return _max_err(
            curve_from_lattice(solve_lattice(touching_system, m), [0.5]), ref)

    assert err(200) < err(100)
