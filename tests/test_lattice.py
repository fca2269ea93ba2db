import dataclasses

import numpy as np
import pytest

import angelesco.lattice as lattice_mod
from angelesco import AngelescoSystem, Interval, NumericalFailure
from angelesco.lattice import curve_from_lattice, ray_limit, solve_lattice
from angelesco.surface import limits_at
from moment_oracle import MomentOracle


@pytest.fixture(scope="module")
def deep_lattice(touching_system):
    return solve_lattice(touching_system, 1500)


def test_seed_site(touching_system):
    lat = solve_lattice(touching_system, 1, snapshot_levels={0})
    a1, a2, b1, b2 = lat.diagonal(0)
    assert a1[0] == 0.0 and a2[0] == 0.0
    # level-zero b's are the measure means
    assert b1[0] == pytest.approx(-1.0, abs=1e-14)
    assert b2[0] == pytest.approx(0.5, abs=1e-14)


def test_site_1_1_matches_oracle(touching_system):
    oracle = MomentOracle(touching_system, 2)
    lat = solve_lattice(touching_system, 2)
    a1, a2, b1, b2 = lat.diagonal(2)
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
    lat = solve_lattice(sys, 6, snapshot_levels=set(range(1, 6)))
    for level in range(1, 7):
        a1, a2, b1, b2 = lat.diagonal(level)
        for k in range(level + 1):
            ref = [float(v) for v in oracle.site(k, level - k)]
            assert a1[k] == pytest.approx(ref[0], abs=1e-12)
            assert a2[k] == pytest.approx(ref[1], abs=1e-12)
            assert b1[k] == pytest.approx(ref[2], abs=1e-12)
            assert b2[k] == pytest.approx(ref[3], abs=1e-12)


def test_axis_rows_keep_axis_data(touching_system):
    lat = solve_lattice(touching_system, 40)
    # k indexes the first degree, so k = m is the axis-1 end of the diagonal
    assert lat.b1[-1] == -1.0
    assert lat.a2[-1] == 0.0
    assert lat.a1[-1] == 0.25
    assert lat.b2[0] == 0.5
    assert lat.a1[0] == 0.0
    assert np.all(lat.b2 - lat.b1 > 0)
    assert np.all(lat.a1[1:] > 0)
    assert np.all(lat.a2[:-1] > 0)


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
    # (measured 38 and 47)
    shifted = AngelescoSystem(Interval(-2.0 + c, c), Interval(c, 1.0 + c))
    lat = solve_lattice(shifted, 1500)
    tol = 64 * np.spacing(c)
    for level in (750, 1500):
        a1, a2, b1, b2 = lat.diagonal(level)
        r1, r2, q1, q2 = deep_lattice.diagonal(level)
        assert np.max(np.abs(a1 - r1)) <= tol
        assert np.max(np.abs(a2 - r2)) <= tol
        assert np.max(np.abs((b1 - c) - q1)) <= tol
        assert np.max(np.abs((b2 - c) - q2)) <= tol


def test_ray_limit_midpoint(deep_lattice, touching_system, touching_info):
    ref = limits_at(touching_system, 0.5, info=touching_info)
    p = ray_limit(deep_lattice, 0.5)
    err_plain = max(abs(p.A1 - ref.A1), abs(p.A2 - ref.A2),
                    abs(p.B1 - ref.B1), abs(p.B2 - ref.B2))
    assert err_plain <= 2e-2
    q = ray_limit(deep_lattice, 0.5, extrapolate=True)
    err_ex = max(abs(q.A1 - ref.A1), abs(q.A2 - ref.A2),
                 abs(q.B1 - ref.B1), abs(q.B2 - ref.B2))
    assert err_ex < err_plain


def test_ray_limit_endpoints(deep_lattice):
    p = ray_limit(deep_lattice, 0.0)
    assert p.A1 == 0.0
    assert p.A2 > 0
    assert p.B2 == 0.5
    p = ray_limit(deep_lattice, 1.0)
    assert p.A2 == 0.0
    assert p.A1 == 0.25
    assert p.B1 == -1.0
    with pytest.raises(ValueError):
        ray_limit(deep_lattice, 1.2)


@pytest.mark.parametrize("s", [float("nan"), -0.1, 1.5])
def test_ray_limit_rejects_a_ray_off_the_grid_rules(deep_lattice, s):
    with pytest.raises(ValueError):
        ray_limit(deep_lattice, s)


def test_curve_from_lattice(deep_lattice):
    grid = np.linspace(0.0, 1.0, 61)
    cv = curve_from_lattice(deep_lattice, grid)
    assert cv.method == "lattice"
    assert cv.meta["level"] == 1500
    assert not cv.meta["extrapolated"]
    assert cv.A1[0] == 0.0 and cv.A2[-1] == 0.0
    assert np.all(cv.B2 - cv.B1 > 0)
    with pytest.raises(ValueError):
        curve_from_lattice(deep_lattice, np.array([0.3, 0.2]))
    with pytest.raises(ValueError):
        curve_from_lattice(deep_lattice, np.array([]))


def test_snapshot_bookkeeping(touching_system):
    lat = solve_lattice(touching_system, 10)
    assert set(lat.snapshots) == {5}
    lat.diagonal(5)
    lat.diagonal(10)
    with pytest.raises(KeyError):
        lat.diagonal(7)


@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("field", ["own_a", "own_b", "cross_b"])
def test_nan_axis_data_aborts_sweep(touching_system, monkeypatch, axis, field):
    real = lattice_mod.axis_data

    def poisoned(sys, ax, m):
        data = real(sys, ax, m)
        if ax != axis:
            return data
        values = getattr(data, field).copy()
        values[5] = np.nan
        return dataclasses.replace(data, **{field: values})

    monkeypatch.setattr(lattice_mod, "axis_data", poisoned)
    with pytest.raises(NumericalFailure) as exc:
        solve_lattice(touching_system, 20)
    assert exc.value.context["level"] in range(5, 21)


def test_level_validation(touching_system):
    with pytest.raises(ValueError):
        solve_lattice(touching_system, 0)


def test_level_error_shrinks(touching_system, touching_info):
    ref = limits_at(touching_system, 0.5, info=touching_info)

    def err(m):
        p = ray_limit(solve_lattice(touching_system, m), 0.5)
        return max(abs(p.A1 - ref.A1), abs(p.A2 - ref.A2),
                   abs(p.B1 - ref.B1), abs(p.B2 - ref.B2))

    assert err(200) < err(100)
