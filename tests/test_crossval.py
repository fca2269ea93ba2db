import math

import numpy as np
import pytest

import angelesco.ode as ode_mod
from angelesco import AngelescoSystem, Interval, LimitCurve
from angelesco.crossval import (FUNCS, compare, compared_points,
                                identity_checks, ode_residuals)
from angelesco.lattice import curve_from_lattice, solve_lattice
from angelesco.ode import solve_system
from angelesco.surface import limit_curve


@pytest.fixture(scope="module")
def touching_curve(touching_system, touching_info):
    return limit_curve(touching_system, np.linspace(0.0, 1.0, 181),
                       info=touching_info)


@pytest.fixture(scope="module")
def gap_curve_dense(gap_system, gap_info):
    return limit_curve(gap_system, np.linspace(0.0, 1.0, 2001), info=gap_info)


def test_compare_curve_with_itself(touching_curve):
    rep = compare(touching_curve, touching_curve)
    assert rep.worst() == 0.0
    assert rep.n_excluded == 0
    d = rep.as_dict()
    assert d["n_points"] == 181 and "passed" not in d


def test_compare_rejects_mismatched_grids(touching_system, touching_info,
                                          touching_curve):
    # no resampling: curves on different grids, or on one grid's part,
    # are not compared
    for grid in (np.linspace(0.0, 1.0, 91), np.linspace(0.2, 0.8, 61)):
        other = limit_curve(touching_system, grid, info=touching_info)
        with pytest.raises(ValueError, match="one grid"):
            compare(touching_curve, other)


def test_compare_empty_overlap():
    s1 = np.linspace(0.0, 0.3, 31)
    s2 = np.linspace(0.7, 1.0, 31)
    one = np.ones(31)
    a = LimitCurve(s1, one * 0.1, one * 0.2, -one, one)
    b = LimitCurve(s2, one * 0.1, one * 0.2, -one, one * 2.0)
    with pytest.raises(ValueError, match="one grid"):
        compare(a, b)
    # a mask with no point is a report, not a raise: the caller decides
    # that no point fails
    rep = compare(a, a, np.zeros(31, dtype=bool))
    assert rep.n_points == 0 and rep.n_excluded == 31
    assert rep.worst() == 0.0 and set(rep.mean_abs.values()) == {0.0}


def test_compare_margin_needs_window():
    # the lattice pairs' mask: the points at least the margin from the
    # window [0.4, 0.6]
    s = np.linspace(0.0, 1.0, 21)
    one = np.ones(21)
    a = LimitCurve(s, one * 0.1, one * 0.2, -one, one)
    b = LimitCurve(s, one * 0.1, one * 0.2, -one, 1.0 + 0.01 * s)
    keep = compared_points(s, 0.4, 0.6, 0.049)
    rep = compare(a, b, keep)
    # drops grid points closer than the margin to [0.4, 0.6]
    assert rep.n_excluded == 5
    assert rep.n_points == 16
    # and reads only the kept ones
    assert rep.max_abs["B2"] == np.abs(b.B2 - 1.0)[keep].max()
    rep = compare(a, a, compared_points(s, 0.4, 0.6, 2.0))
    assert rep.n_points == 0 and rep.n_excluded == 21


def test_residuals_on_surface_curve(gap_curve_dense, gap_info):
    window = (gap_info.c1, gap_info.c2)
    rep = ode_residuals(gap_curve_dense, h=1e-3, window=window)
    assert rep.worst() <= 1e-3
    assert rep.h == 1e-3
    assert rep.meta["stride"] == 2
    assert rep.meta["window"] == window
    assert rep.meta["edge_margin"] == 0.01


def test_residuals_skip_the_plateau_interior(gap_curve_dense, gap_info):
    # all four relations hold trivially on the plateau, so its points are
    # skipped with the margin: of the 1999 central differences, 976 lie
    # more than EDGE_MARGIN from 0, 1 and the window [c1, c2]
    c1, c2 = gap_info.c1, gap_info.c2
    rep = ode_residuals(gap_curve_dense, h=1e-3, window=(c1, c2))
    s = gap_curve_dense.s[2:-2]
    kept = ((s > 0.01) & (s < 0.99)
            & ((s < c1 - 0.01) | (s > c2 + 0.01)))
    assert rep.n_points == np.count_nonzero(kept) == 976
    assert 1e-5 < rep.worst() < 3e-5


def test_residuals_shrink_with_h(gap_curve_dense, gap_info):
    window = (gap_info.c1, gap_info.c2)
    coarse = ode_residuals(gap_curve_dense, h=1e-3, window=window).worst()
    fine = ode_residuals(gap_curve_dense, h=5e-4, window=window).worst()
    assert coarse / fine >= 3.0


def test_residuals_vanish_on_constant_curve():
    s = np.linspace(0.1, 0.9, 801)
    one = np.ones_like(s)
    cv = LimitCurve(s, 0.3 * one, 0.2 * one, -one, 0.5 * one)
    rep = ode_residuals(cv, h=2e-3, window=(0.0, 0.0))
    assert rep.worst() == 0.0


def test_residuals_report_no_point_when_the_margins_leave_none():
    # the one central difference, at s = 0.5, lies next to the window
    s = np.linspace(0.0, 1.0, 3)
    one = np.ones_like(s)
    cv = LimitCurve(s, 0.3 * one, 0.2 * one, -one, 0.5 * one)
    assert ode_residuals(cv, h=0.5, window=(0.0, 0.0)).n_points == 1
    rep = ode_residuals(cv, h=0.5, window=(0.495, 0.505))
    assert rep.n_points == 0 and rep.max_rel == (0.0, 0.0, 0.0, 0.0)
    assert rep.as_dict()["n_points"] == 0


def test_residuals_flag_perturbed_curve(touching_system, touching_info):
    grid = np.linspace(0.0, 1.0, 1001)
    cv = limit_curve(touching_system, grid, info=touching_info)
    rng = np.random.default_rng(5)
    noisy = LimitCurve(grid, cv.A1, cv.A2,
                       cv.B1 + rng.uniform(-1e-2, 1e-2, grid.size), cv.B2,
                       cv.method, dict(cv.meta))
    rep = ode_residuals(noisy, h=1e-3,
                        window=(touching_info.c1, touching_info.c2))
    assert max(rep.max_rel) > 1e-1


def test_residuals_grid_validation(touching_system, touching_info):
    coarse = limit_curve(touching_system, np.linspace(0.0, 1.0, 51),
                         info=touching_info)
    with pytest.raises(ValueError):
        ode_residuals(coarse, h=1e-3, window=(0.0, 0.0))
    s = np.concatenate([np.linspace(0.0, 0.5, 100, endpoint=False),
                        np.linspace(0.5, 1.0, 301)])
    one = np.ones_like(s)
    bumpy = LimitCurve(s, 0.1 * one, 0.1 * one, -one, one)
    with pytest.raises(ValueError):
        ode_residuals(bumpy, h=1e-3, window=(0.0, 0.0))
    tiny = LimitCurve(np.array([0.4, 0.6]), np.ones(2), np.ones(2),
                      -np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        ode_residuals(tiny, h=1e-3, window=(0.0, 0.0))


def test_identity_on_surface_curve(gap_curve_dense, gap_info,
                                   touching_curve, touching_info):
    rep = identity_checks(touching_curve,
                          window=(touching_info.c1, touching_info.c2))
    assert rep.max_abs <= 1e-8
    # every interior point: the threshold ray is no point of the grid
    assert rep.n_points == touching_curve.s.size - 2
    # the plateau points are skipped
    rep = identity_checks(gap_curve_dense, window=(gap_info.c1, gap_info.c2))
    assert rep.n_points < gap_curve_dense.s.size - 2


def test_identity_on_lattice_curve(touching_system):
    lat = solve_lattice(touching_system, 1500)
    cv = curve_from_lattice(lat, np.linspace(0.05, 0.95, 19))
    rep = identity_checks(cv, window=(0.0, 0.0))
    assert rep.max_rel <= 2e-2
    assert rep.n_points == cv.s.size
    assert set(rep.as_dict()) == {"max_abs", "max_rel", "n_points"}


@pytest.mark.parametrize("name", ["touching", "gap"])
def test_a_one_point_read_is_the_grid_read(request, monkeypatch, name):
    # every route answers on a grid, and each point of the 181-point grid
    # read alone gives its bits: no route needs a one-point twin
    system = request.getfixturevalue(f"{name}_system")
    info = request.getfixturevalue(f"{name}_info")
    grid = np.linspace(0.0, 1.0, 181)
    lat = solve_lattice(system, 400)
    # the ODE branches take no grid: integrate each once
    branches, integrate = {}, ode_mod.integrate_branch

    def once(*args):
        if args not in branches:
            branches[args] = integrate(*args)
        return branches[args]

    monkeypatch.setattr(ode_mod, "integrate_branch", once)
    reads = {"surface": lambda g: limit_curve(system, g, info),
             "ode": lambda g: solve_system(system, info, g),
             "dis": lambda g: curve_from_lattice(lat, g),
             "dis extrapolated": lambda g: curve_from_lattice(lat, g, True)}
    for route, read in reads.items():
        whole = read(grid)
        for i, s in enumerate(grid):
            one = read([s])
            for f in FUNCS:
                assert getattr(one, f)[0] == getattr(whole, f)[i], (route, s, f)


def test_compare_with_the_hull_length_reads_a_over_l2_and_b_over_l(
        touching_system, touching_curve):
    # each statistic is the raw one over L^2 (A1, A2) or L (B1, B2), bit
    # for bit, and an empty mask still reads no point
    lat = solve_lattice(touching_system, 64)
    dis = curve_from_lattice(lat, touching_curve.s, True)
    length = touching_system.hull_length
    raw = compare(dis, touching_curve)
    scaled = compare(dis, touching_curve, length=length)
    assert scaled.n_points == raw.n_points == 181
    for f, scale in zip(FUNCS, (length * length,) * 2 + (length,) * 2):
        assert scaled.max_abs[f] == raw.max_abs[f] / scale
        assert scaled.mean_abs[f] == raw.mean_abs[f] / scale
    assert 0.0 < scaled.worst() < raw.worst()
    empty = compare(dis, touching_curve, np.zeros(181, dtype=bool), length)
    assert empty.n_points == 0 and empty.worst() == 0.0


@pytest.mark.parametrize("k", [-40, 40])
def test_compare_with_the_hull_length_is_scale_free(gap_system, gap_info, k):
    # a system and its copy scaled by 2^k read the same statistics, bit for
    # bit, for the lattice against the surface on the compared points
    grid = np.linspace(0.0, 1.0, 181)
    keep = compared_points(grid, gap_info.c1, gap_info.c2, 0.05)
    scaled_system = AngelescoSystem(
        *(Interval(math.ldexp(iv.lo, k), math.ldexp(iv.hi, k))
          for iv in (gap_system.i1, gap_system.i2)))
    reports = []
    for sys in (gap_system, scaled_system):
        dis = curve_from_lattice(solve_lattice(sys, 64), grid, True)
        reports.append(compare(dis, limit_curve(sys, grid, info=gap_info),
                               keep, sys.hull_length))
    base, scaled = reports
    assert base.n_points == scaled.n_points > 0
    assert scaled.max_abs == base.max_abs and scaled.mean_abs == base.mean_abs
    assert base.worst() > 0.0
