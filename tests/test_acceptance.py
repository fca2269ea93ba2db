"""Acceptance gate: one test per acceptance criterion, run in order.

Method naming used throughout: (i) finite-level lattice sweep, (ii) ODE
integration of the limit system, (iii) closed-form surface evaluation.
"""
import time

import numpy as np
import pytest

from angelesco import (AffineMap, AngelescoSystem, Interval, LimitCurve,
                       pushforward_limits, star_normalize)
from angelesco.crossval import (compare, compared_points, convergence_study,
                                identity_checks, ode_residuals)
from angelesco.lattice import curve_from_lattice, solve_lattice
from angelesco.ode import solve_system
from angelesco.surface import limit_curve, plateau_bounds, threshold_ray
from moment_oracle import MomentOracle

GRID = np.linspace(0.0, 1.0, 181)
COARSE = np.linspace(0.05, 0.95, 19)


def _max_diff(a, b):
    return max(np.max(np.abs(getattr(a, f) - getattr(b, f)))
               for f in ("A1", "A2", "B1", "B2"))


def test_criterion_1_closed_form_endpoints(touching_system, touching_info):
    t0 = time.perf_counter()
    eps = 1e-6
    ode = solve_system(touching_system, touching_info,
                       np.array([0.0, eps, 0.5, 1.0 - eps, 1.0]))
    near_iii = limit_curve(touching_system, [eps, 1.0 - eps],
                           info=touching_info)
    elapsed = time.perf_counter() - t0

    targets1 = {"A1": 0.25, "B1": -1.0, "B2": 0.8660254}
    targets0 = {"A2": 0.0625, "B2": 0.5, "B1": -1.9747449}
    for f, v in targets0.items():
        assert getattr(near_iii, f)[0] == pytest.approx(v, abs=1e-5)
        assert getattr(ode, f)[1] == pytest.approx(v, abs=1e-5)
    for f, v in targets1.items():
        assert getattr(near_iii, f)[1] == pytest.approx(v, abs=1e-5)
        assert getattr(ode, f)[3] == pytest.approx(v, abs=1e-5)
    assert elapsed < 1.0


def test_criterion_2_touching_three_methods(touching_system, touching_info):
    t0 = time.perf_counter()
    lat = solve_lattice(touching_system, 1500)
    curve_i = curve_from_lattice(lat, COARSE)
    t_lattice = time.perf_counter() - t0

    t0 = time.perf_counter()
    curve_ii = solve_system(touching_system, touching_info, COARSE)
    t_ode = time.perf_counter() - t0

    t0 = time.perf_counter()
    curve_iii = limit_curve(touching_system, COARSE, info=touching_info)
    t_surface = time.perf_counter() - t0

    assert _max_diff(curve_ii, curve_iii) <= 1e-4
    assert _max_diff(curve_i, curve_iii) <= 2e-2
    assert t_lattice < 60.0
    assert t_ode < 5.0
    assert t_surface < 5.0


def test_criterion_3_gap_plateau_and_branches(gap_system, gap_info):
    c1, c2 = gap_info.c1, gap_info.c2
    assert 0.0 < c1 < c2 < 1.0

    # forward branch (the assembled curve on s <= c1) continues the touching
    # system sharing the facing edges
    assembled = solve_system(gap_system, gap_info, GRID)
    keep = GRID <= c1
    sub = GRID[keep]
    branch = LimitCurve(sub, *(getattr(assembled, f)[keep]
                               for f in ("A1", "A2", "B1", "B2")))
    closed = AngelescoSystem(Interval(-2.0, 0.25), Interval(0.25, 1.0))
    closed_iii = limit_curve(closed, sub,
                             info=plateau_bounds(star_normalize(closed)[0]))
    assert _max_diff(branch, closed_iii) <= 1e-4

    # finite-level sweep agrees with the assembled curve off the plateau
    lat = solve_lattice(gap_system, 1500)
    curve_i = curve_from_lattice(lat, GRID)
    rep = compare(curve_i, assembled, compared_points(GRID, c1, c2, 0.05))
    assert rep.worst() <= 2e-2


def test_criterion_4_residuals_of_limit_relations(gap_system, gap_info):
    curve = limit_curve(gap_system, np.linspace(0.0, 1.0, 2001),
                        info=gap_info)
    window = (gap_info.c1, gap_info.c2)
    rep_h = ode_residuals(curve, h=1e-3, window=window)
    assert rep_h.worst() <= 1e-3
    rep_h2 = ode_residuals(curve, h=5e-4, window=window)
    assert rep_h.worst() / rep_h2.worst() >= 3.0


def test_criterion_5_square_root_identity(touching_system, touching_info,
                                          gap_system, gap_info):
    for sys, info in ((touching_system, touching_info),
                      (gap_system, gap_info)):
        curve = limit_curve(sys, GRID, info=info)
        rep = identity_checks(curve, window=(info.c1, info.c2))
        assert rep.max_abs <= 1e-8 and rep.n_points > 0
        # B2 > B1 and the endpoint zeros are the curve contract's
        assert curve.validate() is curve


def test_criterion_6_symmetric_system_mirror():
    sym = AngelescoSystem(Interval(-1.0, 0.0), Interval(0.0, 1.0))
    info = plateau_bounds(star_normalize(sym)[0])
    iii = limit_curve(sym, GRID, info=info)
    assert np.max(np.abs(iii.A1 - iii.A2[::-1])) <= 1e-10
    assert np.max(np.abs(iii.B1 + iii.B2[::-1])) <= 1e-10
    ii = solve_system(sym, info, GRID)
    assert np.max(np.abs(ii.A1 - ii.A2[::-1])) <= 1e-6
    assert np.max(np.abs(ii.B1 + ii.B2[::-1])) <= 1e-6
    assert threshold_ray(1.0)[0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("kind", ["chebyshev1", "chebyshev2", "uniform"])
def test_criterion_7_small_level_oracle(kind):
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0),
                          kind, kind)
    oracle = MomentOracle(sys, 8)
    lat = solve_lattice(sys, 8, snapshot_levels=set(range(1, 8)))
    for level in range(1, 9):
        a1, a2, b1, b2 = lat.diagonal(level)
        for k in range(level + 1):
            ref = [float(v) for v in oracle.site(k, level - k)]
            assert a1[k] == pytest.approx(ref[0], abs=1e-9)
            assert a2[k] == pytest.approx(ref[1], abs=1e-9)
            assert b1[k] == pytest.approx(ref[2], abs=1e-9)
            assert b2[k] == pytest.approx(ref[3], abs=1e-9)


def test_criterion_8_affine_covariance(touching_system, touching_info):
    amap = AffineMap(2.0, 3.0)
    scaled = AngelescoSystem(
        Interval(amap.apply(-2.0), amap.apply(0.0)),
        Interval(amap.apply(0.0), amap.apply(1.0)))
    direct = limit_curve(scaled, GRID)
    base = limit_curve(touching_system, GRID, info=touching_info)
    mapped = pushforward_limits(base, amap)
    assert _max_diff(direct, mapped) <= 1e-10


def test_criterion_9_convergence_diagnostic(touching_system):
    # soft criterion: the decay rate is an observed diagnostic
    table = convergence_study(touching_system, 0.5, (100, 200, 400, 800))
    errs = table.max_plain()
    assert np.all(np.diff(errs) < 0)
    assert table.max_extrapolated()[-1] <= errs[-1] / 2.0
