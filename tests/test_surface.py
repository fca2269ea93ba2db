import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angelesco import (AffineMap, AngelescoSystem, Interval, NumericalFailure,
                       StarConfig, pushforward_limits, reflect, surface)
from angelesco.surface import (SurfaceParams, alpha_coord, beta_coord,
                               gap_ratio, infinity_preimages, limit_curve,
                               limits_at, plateau_bounds, projection_ratio,
                               pushed_beta, ray_direction, residue_limits,
                               solve_tau0, solve_u, surface_params,
                               threshold_ray)


def test_gap_ratio_values():
    assert gap_ratio(1.5) == pytest.approx(0.0234375, abs=0)
    assert gap_ratio(2.0) == 0.0
    assert gap_ratio(1.0 + 1e-8) == pytest.approx(1.0, abs=1e-6)
    u = np.linspace(1.01, 1.99, 50)
    assert np.all(np.diff(gap_ratio(u)) < 0)


def test_projection_ratio_fixed_point():
    for u in (1.2, 1.5, 1.9, 2.0):
        assert projection_ratio(u, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_coordinate_maps_degenerate_values():
    assert alpha_coord(2.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    # touching configurations have zero gap whatever tau is
    assert beta_coord(2.0, 1.7) == pytest.approx(0.0, abs=1e-15)
    assert ray_direction(1.6, 1.6) == 0.0


def test_solve_u():
    u = solve_u(2.0, 0.25)
    assert 1.0 < u < 2.0
    assert gap_ratio(u) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert solve_u(2.0, 0.0) == 2.0
    assert solve_u(0.7, 0.0) == 2.0


def test_solve_u_touching_skips_the_bisection(monkeypatch):
    real_bisect = surface.bisect
    calls = []

    def recording(*args, **kwargs):
        calls.append(1)
        return real_bisect(*args, **kwargs)

    monkeypatch.setattr(surface, "bisect", recording)
    u = solve_u(2.0, 0.0)
    assert np.shape(u) == () and u == 2.0
    assert [solve_u(0.7, b) for b in np.zeros(3)] == [2.0] * 3
    assert not calls
    # one gap among the betas: it is bisected, the zeros stay 2
    mixed = [solve_u(2.0, b) for b in (0.0, 0.25)]
    assert calls and mixed[0] == 2.0 and mixed[1] == solve_u(2.0, 0.25)


def test_solve_tau0():
    tau = solve_tau0(2.0, 2.0)
    assert tau == pytest.approx(2.5846, abs=1e-3)
    assert tau == pytest.approx(2.5842254432165204, abs=1e-12)
    assert projection_ratio(2.0, tau) == pytest.approx(3.0, abs=1e-12)


def test_tau0_cubic_in_d_has_one_sign_change():
    # projection_ratio(u, tau) = 1 + alpha cleared of its denominator, at
    # tau = 1 + d, exactly in rationals: the cubic in d that solve_tau0's
    # docstring cites, with coefficient signs (+, +, -, -)
    us = [1 + Fraction(1, 10 ** k) for k in (1, 3, 9)] + [Fraction(3, 2), 2]
    alphas = [Fraction(1, 10 ** 9), Fraction(1, 1000), Fraction(7, 3),
              Fraction(10 ** 6)]
    ds = [Fraction(n, 7) for n in range(-21, 22)] + [Fraction(1, 10 ** 12)]
    for u in us:
        for a in alphas:
            coeffs = (1, u + 1, -a * (2 * u - 1), -a * (u - 1))
            assert [(c > 0) - (c < 0) for c in coeffs] == [1, 1, -1, -1]
            for d in ds:
                tau = 1 + d
                cubic = (tau ** 3 + (u - 2) * tau ** 2
                         - (1 + a) * (2 * u - 1) * tau + (1 + a) * u)
                assert cubic == (tau * tau * (tau + u - 2)
                                 - (1 + a) * ((2 * u - 1) * tau - u))
                assert cubic == sum(c * d ** (3 - k)
                                    for k, c in enumerate(coeffs))


@pytest.mark.parametrize("u", [2.0, 1.0 + 1e-9], ids=["u=2", "u->1"])
def test_solve_tau0_scan_passes_at_the_ray_bracket_ends(u):
    # the two ends of pushed_beta's bracket over eighteen decades of alpha:
    # on 257 points of the doubled bracket solve_tau0 bisects, f changes
    # sign once, from below, between the two samples around tau0
    surface.solve_tau0.cache_clear()
    for alpha in np.logspace(-9, 9, 73):
        tau = solve_tau0(u, float(alpha))
        assert tau > 1.0
        assert solve_tau0(u, float(alpha)) is tau  # cached
        f = lambda t: projection_ratio(u, t) - (1.0 + alpha)
        hi = 2.0
        while f(hi) < 0.0:
            hi *= 2.0
        t = np.linspace(1.0 + 1e-12, hi, 257)
        signs = np.sign(f(t))
        assert np.all(signs[t < tau] == -1.0) and np.all(signs[t > tau] == 1.0)


@pytest.mark.parametrize("u, alpha", [(1.0, 2.0), (2.0, 0.0),
                                      (math.nan, 2.0), (2.0, math.nan)])
def test_solve_tau0_needs_u_above_1_and_alpha_above_0(u, alpha):
    # the uniqueness proof in its docstring holds only there
    with pytest.raises(ValueError, match="u > 1 and alpha > 0"):
        solve_tau0(u, alpha)


@pytest.mark.parametrize("alpha", [1e-16, 1e-17, 5e-324])
def test_solve_tau0_fails_where_1_plus_alpha_rounds_to_1(alpha):
    # the computed target is then alpha = 0: no root above 1 to find
    with pytest.raises(NumericalFailure, match="lost in the tau0 target"):
        solve_tau0(2.0, alpha)


def test_plateau_solves_tau0_once_per_u_alpha(monkeypatch):
    # touching, (-2, 0) u (0, 1): the threshold ray and the configuration
    # share (u, alpha) = (2, 2), the reflected threshold ray is (2, 1/2)
    real_expand = surface.expand_upper
    calls = []

    def recording(*args, **kwargs):
        calls.append(1)
        return real_expand(*args, **kwargs)

    monkeypatch.setattr(surface, "expand_upper", recording)
    surface.solve_tau0.cache_clear()
    sc = StarConfig(2.0, 0.0)
    info = plateau_bounds(sc)
    assert len(calls) == 2
    assert plateau_bounds(sc) == info and len(calls) == 2


def test_infinity_preimages():
    t1, t2 = infinity_preimages(1.5, 2.0)
    assert t1 == pytest.approx(-2.2870426, abs=1e-6)
    assert t2 == pytest.approx(0.7870426, abs=1e-6)
    assert t1 < 0.0 < t2 < 2.0


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.floats(1.0, 2.0, exclude_min=True),
       st.floats(1.0, 1e6, exclude_min=True))
@example(math.nextafter(1.0, 2.0), math.nextafter(1.0, 2.0))
@example(2.0, 1e6)
def test_infinity_preimages_signs_and_vieta(u, tau0):
    t1, t2 = infinity_preimages(u, tau0)
    assert t1 < 0.0 < t2
    # the quadratic's coefficients as the function forms them; the sum of
    # opposite-sign roots is held to the size of its terms
    rsum = -(u + tau0 - 2.0)
    prod = -u * tau0 * (u + tau0 - 2.0) / (2.0 * u * tau0 - u - tau0)
    assert abs(t1 + t2 - rsum) <= 1e-15 * max(abs(t1), abs(t2))
    assert abs(t1 * t2 - prod) <= 1e-15 * abs(prod)


def test_surface_params_residuals():
    p = surface_params(2.0, 0.25)
    assert gap_ratio(p.u) == pytest.approx(0.25 * 3.0 / 2.25, abs=1e-12)
    assert projection_ratio(p.u, p.tau0) == pytest.approx(3.0, abs=1e-12)
    assert p.tau1 < 0.0 < p.tau2 < p.tau0
    assert p.gamma == pytest.approx(2.0 - p.u, abs=0)


def test_residue_raw_value():
    p = SurfaceParams(2.0, 0.0, 1.5, 2.0, -2.2870426, 0.7870426, 0.5)
    vals = residue_limits(p)
    assert vals.C1 == pytest.approx(-0.516056, abs=1e-4)


def test_residue_vanishes_when_preimage_hits_gamma():
    p = SurfaceParams(2.0, 0.0, 1.5, 2.0, 0.5, 0.7870426, 0.5)
    assert residue_limits(p).C1 == 0.0


def test_threshold_ray_values():
    _, s = threshold_ray(1.0)
    assert s == pytest.approx(0.5, abs=1e-12)
    _, s = threshold_ray(2.0)
    assert s == pytest.approx(0.5986, abs=1e-3)
    assert s == pytest.approx(0.5985242517080603, abs=1e-12)


def test_threshold_ray_monotone_and_reflective():
    vals = [threshold_ray(a)[1] for a in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(vals) > 0)
    assert vals[0] < 0.5 < vals[2]
    # swapping the interval roles reflects the threshold about one half
    for a in (0.5, 2.0, 4.0):
        assert threshold_ray(1.0 / a)[1] == pytest.approx(
            1.0 - threshold_ray(a)[1], abs=1e-12)


def test_pushed_beta_limits():
    _, s_a = threshold_ray(2.0)
    b, u, tau = pushed_beta(2.0, s_a + 1e-6)
    assert 0.0 <= b < 1e-12
    assert alpha_coord(u, tau) == pytest.approx(2.0, abs=1e-9)
    b, _, _ = pushed_beta(1.0, 0.5 + 1e-9)
    assert 0.0 <= b < 1e-12
    b, _, _ = pushed_beta(2.0, 1.0 - 1e-6)
    assert 1.0 - 1e-4 < b < 1.0


def test_pushed_beta_increasing():
    _, s_a = threshold_ray(2.0)
    s = s_a + (1.0 - s_a) * np.linspace(0.05, 0.95, 12)
    b, _, _ = pushed_beta(2.0, s)
    assert np.all(np.diff(b) > 0)


# alpha, tau relative tolerance, beta absolute tolerance.  At alpha = 1e-3
# beta_coord is ill-conditioned: evaluated at the correctly rounded (u, tau)
# it is already off by up to 8e-11.  At alpha = 1e3 every ray has
# theta > 0.95, where one ulp of theta moves tau by 1.3e-15 relative.
@pytest.mark.parametrize("alpha, tau_rtol, beta_atol", [
    (1e-3, 1e-15, 1e-9), (0.5, 1e-15, 1e-13), (2.0, 1e-15, 1e-13),
    (1e3, 3e-15, 1e-13)])
def test_pushed_beta_against_50_digits(alpha, tau_rtol, beta_atol):
    mp = pytest.importorskip("mpmath")
    _, s_a = threshold_ray(alpha)
    s = s_a + (1.0 - s_a) * np.linspace(0.025, 0.975, 20)
    beta, u, tau = pushed_beta(alpha, s)
    with mp.workdps(50):
        al = mp.mpf(alpha)
        for i in range(s.size):
            theta = 2 * mp.mpf(s[i]) - 1

            def eqs(x, t):
                # projection_ratio = 1 + alpha and ray_direction = theta
                num = 2 + 2 * x * t - x - t
                den = (2 * x * t - x - t) * (x + t) * (x + t - 2)
                return [t * t * (t + x - 2) / ((2 * x - 1) * t - x) - (1 + al),
                        (t - x) * mp.sqrt(num / den) - theta]

            u_ref, tau_ref = mp.findroot(eqs, (mp.mpf(u[i]), mp.mpf(tau[i])))
            g = u_ref * (2 - u_ref) ** 3 / (2 * u_ref - 1) ** 3
            beta_ref = al * g / (1 + al - g)
            assert abs(tau[i] - tau_ref) <= tau_rtol * tau_ref
            assert abs(beta[i] - beta_ref) <= beta_atol


def test_plateau_touching_degenerates(touching_info):
    assert touching_info.c1 == touching_info.c2
    assert touching_info.c1 == pytest.approx(0.5985242517080603, abs=1e-12)


def test_plateau_gap_window(gap_info):
    assert 0.0 < gap_info.c1 < gap_info.c2 < 1.0
    assert gap_info.c1 == pytest.approx(0.3699184612727713, abs=1e-9)
    assert gap_info.c2 == pytest.approx(0.8413547836757349, abs=1e-9)


def test_plateau_symmetric_window_is_centered():
    info = plateau_bounds(StarConfig(0.8, 0.2))
    assert info.c1 + info.c2 == pytest.approx(1.0, abs=1e-12)


def test_limits_at_endpoints(touching_system):
    p = limits_at(touching_system, 0.0)
    assert (p.A1, p.A2) == (0.0, pytest.approx(0.0625, abs=1e-12))
    assert p.B1 == pytest.approx(-1.974744871391589, abs=1e-12)
    assert p.B2 == pytest.approx(0.5, abs=1e-12)
    p = limits_at(touching_system, 1.0)
    assert (p.A2, p.A1) == (0.0, pytest.approx(0.25, abs=1e-12))
    assert p.B1 == pytest.approx(-1.0, abs=1e-12)
    assert p.B2 == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        limits_at(touching_system, 1.5)


def test_limits_at_approaches_endpoint_values(touching_system):
    p = limits_at(touching_system, 1.0 - 1e-6)
    assert abs(p.A1 - 0.25) < 1e-9
    assert abs(p.B1 + 1.0) < 1e-9
    p = limits_at(touching_system, 1e-6)
    assert abs(p.A2 - 0.0625) < 1e-9


@pytest.mark.parametrize("s", [float("nan"), -0.1, 1.5])
def test_limits_at_rejects_a_ray_off_the_grid_rules(touching_system,
                                                    touching_info, s):
    with pytest.raises(ValueError):
        limits_at(touching_system, s, info=touching_info)


def test_limits_at_too_near_an_endpoint_is_a_numerical_failure(
        touching_system, touching_info):
    # the ray is valid input; the surface route losing A1's sign there is
    # the computation's failure, not the caller's
    with pytest.raises(NumericalFailure, match="surface curve") as exc:
        limits_at(touching_system, 1e-8, info=touching_info)
    assert exc.value.context == {"method": "surface"}


def test_failure_contexts_are_json(monkeypatch, touching_system,
                                   touching_info):
    # an open bisection bracket, reached through a public call
    with pytest.raises(NumericalFailure, match="bracket") as exc:
        limits_at(touching_system, 1e-9, info=touching_info)
    ctx = exc.value.context
    assert json.loads(json.dumps(ctx)) == ctx
    # preimages out of order: tau2 > tau0 for (u, tau0) = (1.2, 0.3)
    with pytest.raises(NumericalFailure, match="preimages") as exc:
        surface._params_at(2.0, 0.0, np.array([1.2]), np.array([0.3]))
    ctx = exc.value.context
    assert json.loads(json.dumps(ctx)) == ctx
    assert ctx["alpha"] == [2.0] and ctx["tau2"][0] > 0.3
    # the plateau's contexts hold plain floats, not numpy scalars; the gap
    # round trip misses beta on (-1e-9, 0) u (0.5, 1)
    with pytest.raises(NumericalFailure, match="round trip") as exc:
        plateau_bounds(StarConfig(1e-9, 0.5))
    ctx = exc.value.context
    assert json.loads(json.dumps(ctx)) == ctx
    assert set(ctx) == {"c2", "beta", "back"}
    assert all(type(v) is float for v in ctx.values())
    # a reflection that returns the configuration itself, with c2 < 1/2,
    # puts c1 = 1 - c2 above c2
    monkeypatch.setattr(surface, "reflected_star", lambda sc: (sc, None))
    with pytest.raises(NumericalFailure, match="out of order") as exc:
        plateau_bounds(StarConfig(0.1, 0.01))
    ctx = exc.value.context
    assert json.loads(json.dumps(ctx)) == ctx
    assert set(ctx) == {"c1", "c2"} and ctx["c1"] > ctx["c2"]
    assert all(type(v) is float for v in ctx.values())


def test_preimage_order_check_rejects_nan():
    # a negative discriminant: both preimages NaN
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalFailure, match="preimages"):
        surface._params_at(2.0, 0.0, 2.0, 0.5)


def test_limits_at_returns_the_asked_ray(gap_system, gap_info):
    # left zone (reflected solve), plateau, right zone
    for s in (0.1, 0.3, 0.5, 0.9):
        assert limits_at(gap_system, s, info=gap_info).s == s


def test_curve_continuous_at_plateau_edges(gap_system, gap_info):
    eps = 1e-8
    for edge in (gap_info.c1, gap_info.c2):
        pl = limits_at(gap_system, edge - eps, info=gap_info)
        pr = limits_at(gap_system, edge + eps, info=gap_info)
        for f in ("A1", "A2", "B1", "B2"):
            assert abs(getattr(pl, f) - getattr(pr, f)) < 1e-6


def test_symmetric_system_mirror():
    sys = AngelescoSystem(Interval(-1.0, 0.0), Interval(0.0, 1.0))
    cv = limit_curve(sys, np.linspace(0.0, 1.0, 181))
    np.testing.assert_allclose(cv.A1, cv.A2[::-1], atol=1e-10)
    np.testing.assert_allclose(cv.B1, -cv.B2[::-1], atol=1e-10)
    i = 90  # s = 1/2
    assert cv.A1[i] == pytest.approx(cv.A2[i], abs=1e-14)
    assert cv.B1[i] == pytest.approx(-cv.B2[i], abs=1e-14)


def test_reflection_covariance(gap_system):
    ref = reflect(gap_system)
    for s in (0.1, 0.3, 0.55, 0.7, 0.9):
        p = limits_at(gap_system, s)
        q = limits_at(ref, 1.0 - s)
        assert q.A1 == pytest.approx(p.A2, abs=1e-10)
        assert q.A2 == pytest.approx(p.A1, abs=1e-10)
        assert q.B1 == pytest.approx(-p.B2, abs=1e-10)
        assert q.B2 == pytest.approx(-p.B1, abs=1e-10)


def test_limit_curve_matches_pointwise(gap_system, gap_info):
    grid = np.linspace(0.0, 1.0, 41)
    cv = limit_curve(gap_system, grid, info=gap_info)
    for i, s in enumerate(grid):
        p = limits_at(gap_system, float(s), info=gap_info)
        assert cv.A1[i] == pytest.approx(p.A1, abs=1e-12)
        assert cv.A2[i] == pytest.approx(p.A2, abs=1e-12)
        assert cv.B1[i] == pytest.approx(p.B1, abs=1e-12)
        assert cv.B2[i] == pytest.approx(p.B2, abs=1e-12)


def test_limit_curve_solves_each_zone_once(monkeypatch, gap_system, gap_info):
    # one array bisection per off-plateau zone; scalar ones set up brackets
    sizes = []
    real_bisect = surface.bisect

    def recording(f, lo, hi, *args, **kwargs):
        sizes.append(np.size(lo))
        return real_bisect(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(surface, "bisect", recording)
    grid = np.linspace(0.0, 1.0, 181)
    limit_curve(gap_system, grid, info=gap_info)
    interior = (grid > 0) & (grid < 1)
    zones = sorted([np.count_nonzero(interior & (grid < gap_info.c1)),
                    np.count_nonzero(interior & (grid > gap_info.c2))])
    assert sorted(n for n in sizes if n > 1) == zones


@pytest.mark.parametrize("name", ["touching_system", "gap_system"])
def test_limit_curve_exactly_covariant(request, name):
    # a power-of-two scale maps the star frame exactly, so the direct and
    # the pushed-forward curves must agree to the bit, reflected zone included
    base = request.getfixturevalue(name)
    amap = AffineMap(2.0, 3.0)
    mapped = AngelescoSystem(
        Interval(amap.apply(base.i1.lo), amap.apply(base.i1.hi)),
        Interval(amap.apply(base.i2.lo), amap.apply(base.i2.hi)))
    grid = np.linspace(0.0, 1.0, 181)
    direct = limit_curve(mapped, grid)
    moved = pushforward_limits(limit_curve(base, grid), amap)
    for f in ("s", "A1", "A2", "B1", "B2"):
        assert np.array_equal(getattr(direct, f), getattr(moved, f)), f


def test_identity_off_plateau(gap_system, gap_info):
    grid = np.linspace(0.0, 1.0, 181)
    cv = limit_curve(gap_system, grid, info=gap_info)
    keep = ((grid > 0) & (grid < 1)
            & ((grid < gap_info.c1) | (grid > gap_info.c2)))
    s = grid[keep]
    lhs = (cv.B2[keep] - cv.B1[keep]) ** 2
    rhs = cv.A1[keep] / s ** 2 + cv.A2[keep] / (1.0 - s) ** 2
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_limit_curve_rejects_bad_grid(touching_system):
    with pytest.raises(ValueError):
        limit_curve(touching_system, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        limit_curve(touching_system, np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        limit_curve(touching_system, np.array([]))
    with pytest.raises(ValueError):
        limit_curve(touching_system, np.array([0.2, np.nan]))
    with pytest.raises(ValueError):
        limit_curve(touching_system, np.array([[0.2, 0.4]]))
