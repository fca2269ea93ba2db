import numpy as np
import pytest

from angelesco import LimitCurve, NumericalFailure
from angelesco.crossval import (compare, convergence_study, identity_checks,
                                ode_residuals)
from angelesco.lattice import curve_from_lattice, ray_limit, solve_lattice
from angelesco.surface import limit_curve, limits_at


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


def test_compare_resamples_mismatched_grids(touching_system, touching_info,
                                            touching_curve):
    coarse = limit_curve(touching_system, np.linspace(0.0, 1.0, 91),
                         info=touching_info)
    rep = compare(touching_curve, coarse)
    assert rep.n_points == 181
    # pure linear-interpolation error of a smooth curve
    assert 0.0 < rep.worst() < 1e-3


def test_compare_restricts_to_overlap(touching_system, touching_info,
                                      touching_curve):
    mid = limit_curve(touching_system, np.linspace(0.2, 0.8, 61),
                      info=touching_info)
    rep = compare(touching_curve, mid)
    assert rep.n_points == 109
    assert rep.worst() < 1e-3


def test_compare_empty_overlap():
    s1 = np.linspace(0.0, 0.3, 31)
    s2 = np.linspace(0.7, 1.0, 31)
    one = np.ones(31)
    a = LimitCurve(s1, one * 0.1, one * 0.2, -one, one)
    b = LimitCurve(s2, one * 0.1, one * 0.2, -one, one)
    with pytest.raises(NumericalFailure):
        compare(a, b)


def test_compare_margin_needs_window():
    s = np.linspace(0.0, 1.0, 21)
    one = np.ones(21)
    a = LimitCurve(s, one * 0.1, one * 0.2, -one, one)
    with pytest.raises(ValueError):
        compare(a, a, exclude_margin=0.05)
    rep = compare(a, a, exclude_margin=0.049, window=(0.4, 0.6))
    # drops grid points closer than the margin to [0.4, 0.6]
    assert rep.n_excluded == 5
    assert rep.n_points == 16
    with pytest.raises(NumericalFailure):
        compare(a, a, exclude_margin=2.0, window=(0.4, 0.6))


@pytest.mark.parametrize("margin", [float("nan"), -1.0, float("inf")])
def test_compare_rejects_a_bad_margin(margin):
    s = np.linspace(0.0, 1.0, 21)
    one = np.ones(21)
    a = LimitCurve(s, one * 0.1, one * 0.2, -one, one)
    with pytest.raises(ValueError, match="exclude_margin"):
        compare(a, a, exclude_margin=margin, window=(0.4, 0.6))


def test_residuals_on_surface_curve(gap_curve_dense, gap_info):
    window = (gap_info.c1, gap_info.c2)
    rep = ode_residuals(gap_curve_dense, h=1e-3, window=window)
    assert rep.worst() <= 1e-3
    assert rep.h == 1e-3
    assert rep.meta["stride"] == 2
    assert rep.meta["window"] == window
    assert rep.meta["edge_margin"] == 0.01


def test_residuals_shrink_with_h(gap_curve_dense, gap_info):
    window = (gap_info.c1, gap_info.c2)
    coarse = ode_residuals(gap_curve_dense, h=1e-3, window=window).worst()
    fine = ode_residuals(gap_curve_dense, h=5e-4, window=window).worst()
    assert coarse / fine >= 3.0


def test_residuals_vanish_on_constant_curve():
    s = np.linspace(0.1, 0.9, 801)
    one = np.ones_like(s)
    cv = LimitCurve(s, 0.3 * one, 0.2 * one, -one, 0.5 * one)
    rep = ode_residuals(cv, h=2e-3)
    assert rep.worst() == 0.0


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
        ode_residuals(coarse, h=1e-3)
    s = np.concatenate([np.linspace(0.0, 0.5, 100, endpoint=False),
                        np.linspace(0.5, 1.0, 301)])
    one = np.ones_like(s)
    bumpy = LimitCurve(s, 0.1 * one, 0.1 * one, -one, one)
    with pytest.raises(ValueError):
        ode_residuals(bumpy, h=1e-3)
    tiny = LimitCurve(np.array([0.4, 0.6]), np.ones(2), np.ones(2),
                      -np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        ode_residuals(tiny, h=1e-3)


def test_identity_on_surface_curve(gap_curve_dense, gap_info,
                                   touching_curve, touching_info):
    rep = identity_checks(touching_curve,
                          window=(touching_info.c1, touching_info.c2))
    assert rep.max_abs <= 1e-8
    assert rep.min_gap > 0
    assert rep.endpoint_ok
    # the plateau points are skipped
    rep = identity_checks(gap_curve_dense, window=(gap_info.c1, gap_info.c2))
    assert rep.n_points < gap_curve_dense.s.size - 2


def test_identity_on_lattice_curve(touching_system):
    lat = solve_lattice(touching_system, 1500)
    cv = curve_from_lattice(lat, np.linspace(0.05, 0.95, 19))
    rep = identity_checks(cv)
    assert rep.max_rel <= 2e-2
    assert rep.min_gap > 0


def test_identity_flags_bad_endpoint():
    s = np.array([0.0, 0.5, 1.0])
    cv = LimitCurve(s, np.array([0.1, 0.2, 0.3]), np.array([0.3, 0.2, 0.0]),
                    -np.ones(3), np.ones(3))
    assert not identity_checks(cv).endpoint_ok


def test_convergence_study(touching_system):
    table = convergence_study(touching_system, 0.5, (100, 200, 400))
    plain = table.max_plain()
    assert np.all(np.diff(plain) < 0)
    assert table.max_extrapolated()[-1] < plain[-1] / 2.0
    ref = limits_at(touching_system, 0.5)
    assert table.reference == (ref.A1, ref.A2, ref.B1, ref.B2)
    d = table.as_dict()
    assert d["levels"] == [100, 200, 400]
    with pytest.raises(ValueError):
        convergence_study(touching_system, 0.5, (200, 100))


def test_convergence_study_reads_one_sweep(touching_system, monkeypatch):
    import angelesco.lattice as lattice_mod
    real, calls = lattice_mod.solve_lattice, []

    def counted(sys, m, snapshot_levels=None):
        calls.append((m, sorted(snapshot_levels)))
        return real(sys, m, snapshot_levels)

    monkeypatch.setattr(lattice_mod, "solve_lattice", counted)
    table = convergence_study(touching_system, 0.5, (40, 80))
    # each level and the sub-levels of its table, from one sweep to 80
    assert calls == [(80, [5, 10, 20, 40, 80])]
    monkeypatch.undo()
    # a fresh sweep per level agrees to rounding
    for i, m in enumerate((40, 80)):
        p = ray_limit(solve_lattice(touching_system, m), 0.5, True)
        err = max(abs(v - r) for v, r in zip((p.A1, p.A2, p.B1, p.B2),
                                             table.reference))
        assert table.max_extrapolated()[i] == pytest.approx(err, abs=1e-14)
