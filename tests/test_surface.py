import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angelesco import (AffineMap, AngelescoSystem, Interval, NumericalFailure,
                       StarConfig, ode, pushforward_limits, reflect,
                       star_normalize, surface)
from angelesco.surface import (beta_coord, edge_d, infinity_preimages,
                               level_set_w, limit_curve, plateau_bounds,
                               pushed_beta, ray_gaps, residue_limits,
                               solve_w, solve_x0, threshold_ray)
import surface_reference


def _cubic(w, alpha, d):
    """The alpha level-set cubic in d at w, in Horner form."""
    return ((d + (w + 2.0)) * d - alpha * (1.0 + 2.0 * w)) * d - alpha * w


def test_gap_ratio_values():
    # the gap invariant g(u) = u (2 - u)^3 / (2u - 1)^3 at u = 1 + w,
    # read through the gap it gives, beta = alpha g / (alpha + 1 - g)
    g = 0.0234375  # g(1.5)
    assert beta_coord(2.0, 0.5) == pytest.approx(2.0 * g / (3.0 - g), rel=1e-15)
    assert beta_coord(2.0, 1.0) == 0.0
    assert beta_coord(2.0, 0.0) == 1.0
    assert beta_coord(2.0, 1e-8) == pytest.approx(1.0, abs=1e-6)
    w = np.linspace(0.01, 0.99, 50)
    assert np.all(np.diff(beta_coord(2.0, w)) < 0)


def test_projection_ratio_fixed_point():
    # tau = 1 (d = 0) is the level alpha = 0; d0 leaves it as a square
    # root, d0 ~ sqrt(alpha w / (w + 2)), for every w
    for w in (0.2, 0.5, 0.9, 1.0):
        assert _cubic(w, 0.0, 0.0) == 0.0
        d = edge_d(1e-20) + solve_x0(w, 1e-20)
        assert d == pytest.approx(math.sqrt(1e-20 * w / (w + 2.0)), rel=1e-9)


def test_coordinate_maps_degenerate_values():
    assert beta_coord(0.7, 1.0) == 0.0
    # the level set leaves w = 0 at x = 0, its closed-form edge d = d1
    for alpha in (1e-9, 2.0, 1e9):
        assert level_set_w(alpha, edge_d(alpha), 0.0) == (0.0, edge_d(alpha))
    assert ray_gaps(0.6, 0.6) == (1.0, 1.0)


@pytest.mark.parametrize("alpha, x", [(0.5, 0.01), (1e-3, 1e-4), (1e3, 0.3)])
def test_a_complex_step_passes_through_the_ray(alpha, x):
    # ds/dx of the ray s = (1 + theta) / 2 through level_set_w, by the
    # complex step x + ih with h = 1e-30 x, against a 40-digit derivative:
    # every formula is analytic in x, so the step holds to rounding
    mp = pytest.importorskip("mpmath")
    h = 1e-30 * x
    _, plus = ray_gaps(*level_set_w(alpha, edge_d(alpha), complex(x, h)))
    got = float(np.imag(plus)) / (2.0 * h)
    with mp.workdps(40):
        al = mp.mpf(alpha)
        d1 = al / (1 + mp.sqrt(1 + al))

        def ray(t):
            d = d1 + t
            w = t * d * (t + 2 * d1 + 2) / (al * (1 + 2 * d) - d * d)
            e = w + d + 2 * w * d
            return (1 + (d - w) * mp.sqrt((2 + e) / (e * (2 + w + d)
                                                     * (w + d)))) / 2

        want = float(mp.diff(ray, mp.mpf(x)))
    assert abs(got - want) <= 1e-15 * abs(want)


def test_solve_w():
    w = solve_w(StarConfig(2.0, 0.25, 0.75))
    assert 0.0 < w < 1.0
    assert beta_coord(2.0, w) == pytest.approx(0.25, rel=1e-15)
    assert 1.0 + w == pytest.approx(1.1450176819468818, abs=1e-15)
    assert solve_w(StarConfig(2.0, 0.0, 1.0)) == 1.0
    assert solve_w(StarConfig(0.7, 0.0, 1.0)) == 1.0
    # alpha far below the rounding of 1 + alpha keeps its gap
    for alpha in (1e-12, 1e-20):
        w = solve_w(StarConfig(alpha, 0.5, 0.5))
        assert beta_coord(alpha, w) == pytest.approx(0.5, rel=1e-14)


def test_solve_w_touching_skips_the_bisection(monkeypatch):
    real_bisect = surface.bisect
    calls = []

    def recording(*args, **kwargs):
        calls.append(1)
        return real_bisect(*args, **kwargs)

    monkeypatch.setattr(surface, "bisect", recording)
    w = solve_w(StarConfig(2.0, 0.0, 1.0))
    assert np.shape(w) == () and w == 1.0
    assert [solve_w(StarConfig(0.7, b, 1.0 - b))
            for b in np.zeros(3)] == [1.0] * 3
    assert not calls
    # one gap among the betas: it is bisected, the zeros stay 1
    mixed = [solve_w(StarConfig(2.0, b, 1.0 - b)) for b in (0.0, 0.25)]
    assert calls and mixed[0] == 1.0
    assert mixed[1] == solve_w(StarConfig(2.0, 0.25, 0.75))


def test_solve_x0():
    d = edge_d(2.0) + solve_x0(1.0, 2.0)
    assert 1.0 + d == pytest.approx(2.5846, abs=1e-3)
    assert 1.0 + d == pytest.approx(2.5842254432165204, abs=1e-12)
    assert abs(_cubic(1.0, 2.0, d)) <= 1e-14


def test_tau0_cubic_in_d_has_one_sign_change():
    # projection_ratio(u, tau) = 1 + alpha cleared of its denominator, at
    # u = 1 + w and tau = 1 + d, exactly in rationals: the cubic in d whose
    # quotient by d solve_x0 bisects, with coefficient signs (+, +, -, -), and
    # its linear solution in w that level_set_w evaluates
    ws = [Fraction(1, 10 ** k) for k in (1, 3, 9)] + [Fraction(1, 2), 1]
    alphas = [Fraction(1, 10 ** 9), Fraction(1, 1000), Fraction(7, 3),
              Fraction(10 ** 6)]
    ds = [Fraction(n, 7) for n in range(-21, 22)] + [Fraction(1, 10 ** 12)]
    for w in ws:
        u = 1 + w
        for a in alphas:
            coeffs = (1, w + 2, -a * (1 + 2 * w), -a * w)
            assert [(c > 0) - (c < 0) for c in coeffs] == [1, 1, -1, -1]
            for d in ds:
                tau = 1 + d
                cubic = sum(c * d ** (3 - k) for k, c in enumerate(coeffs))
                assert cubic == (tau * tau * (tau + u - 2)
                                 - (1 + a) * ((2 * u - 1) * tau - u))
                den = a * (1 + 2 * d) - d * d
                if den != 0:
                    assert cubic == 0 or d * (d * d + 2 * d - a) / den != w


@pytest.mark.parametrize("w", [1.0, 1e-9], ids=["u=2", "u->1"])
def test_solve_x0_scan_passes_at_the_ray_bracket_ends(w):
    # over eighteen decades of alpha, on 257 geometric points from 1e-3 to
    # 1e3 times d0, the cubic changes sign once, from below, at d0.  Toward
    # w -> 0, d0 tends to the closed-form end edge_d that pushed_beta uses:
    # the cubic is convex and negative there, so d0 lies between it and
    # one Newton step from it.  The 73 points solved in one call are the
    # scalar solves, bit for bit
    alphas = np.logspace(-9, 9, 73)
    assert np.array_equal(solve_x0(w, alphas),
                          [solve_x0(w, float(a)) for a in alphas])
    for alpha in alphas:
        d = edge_d(alpha) + solve_x0(w, float(alpha))
        assert d > 0.0
        x = d * np.logspace(-3, 3, 257)
        signs = np.sign(_cubic(w, alpha, x))
        assert np.all(signs[x < d] == -1.0) and np.all(signs[x > d] == 1.0)
        if w < 1.0:
            d1 = edge_d(alpha)
            slope = (3.0 * d1 * d1 + 2.0 * (w + 2.0) * d1
                     - alpha * (1.0 + 2.0 * w))
            assert d1 < d <= (d1 - _cubic(w, alpha, d1) / slope) * (1 + 1e-15)


@pytest.mark.parametrize("u, alpha", [(1.0, 2.0), (2.0, 0.0),
                                      (math.nan, 2.0), (2.0, math.nan)])
def test_solve_x0_needs_u_above_1_and_alpha_above_0(u, alpha):
    # the uniqueness proof in its docstring holds only there: w = u - 1 > 0
    with pytest.raises(ValueError, match="w > 0 and alpha > 0"):
        solve_x0(u - 1.0, alpha)


def test_solve_x0_names_the_first_bad_pair():
    # elementwise: the message holds the first offending (w, alpha), not
    # the arrays
    w = np.array([0.5, math.nan, 1.0])
    alpha = np.array([2.0, 2.0, 0.0])
    with pytest.raises(ValueError) as exc:
        solve_x0(w, alpha)
    assert str(exc.value) == ("solve_x0 needs w > 0 and alpha > 0, "
                              "got w=nan, alpha=2.0")
    with pytest.raises(ValueError, match=r"got w=1\.0, alpha=0\.0$"):
        solve_x0(w[::2], alpha[::2])


@pytest.mark.parametrize("alpha", [1e-16, 1e-17, 1e-30])
def test_solve_x0_holds_an_alpha_lost_in_1_plus_alpha(alpha):
    # 1 + alpha rounds to 1, but the cubic in d never forms it: d0 keeps
    # its digits, d0 ~ sqrt(alpha / 3) for w = 1
    d = edge_d(alpha) + solve_x0(1.0, alpha)
    assert d == pytest.approx(math.sqrt(alpha / 3.0), rel=1e-9)
    lo, hi = np.nextafter(d, 0.0), np.nextafter(d, 1.0)
    assert _cubic(1.0, alpha, lo) <= 0.0 <= _cubic(1.0, alpha, hi)


@pytest.mark.parametrize("beta", [0.0, 0.25], ids=["touching", "gap"])
def test_plateau_makes_one_x0_call(monkeypatch, beta):
    # the configuration points (w, alpha), (w, alpha_hat) and the bracket
    # tops (1, alpha), (1, alpha_hat) go through one solve_x0 call, whose
    # bracket is confirmed once; nothing is kept between plateaus
    real_expand = surface.expand_upper
    sizes = []

    def recording(f, lo, hi):
        sizes.append(np.size(hi))
        return real_expand(f, lo, hi)

    monkeypatch.setattr(surface, "expand_upper", recording)
    sc = StarConfig(2.0, beta, 1.0 - beta)
    info = plateau_bounds(sc)
    assert sizes == [4]
    assert plateau_bounds(sc) == info and sizes == [4, 4]
    alpha_hat = sc.reflected()[0].alpha
    assert (info.top, info.top_hat) == (solve_x0(1.0, 2.0),
                                        solve_x0(1.0, alpha_hat))


def test_infinity_preimages():
    t1, t2 = infinity_preimages(0.5, 1.0)
    assert t1 == pytest.approx(-2.2870426, abs=1e-6)
    assert t2 == pytest.approx(0.7870426, abs=1e-6)
    assert t1 < 0.0 < t2 < 2.0


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 1.0, exclude_min=True),
       st.floats(0.0, 1e6, exclude_min=True))
@example(5e-324, 5e-324)
@example(1.0, 1e6)
@example(1e-300, 1.0)
def test_infinity_preimages_signs_and_vieta(w, d):
    t1, t2 = infinity_preimages(w, d)
    # tau2 < tau0 to rounding: the residues form tau0 - tau2 as a product
    assert t1 < 0.0 < t2 <= (1.0 + d) * (1.0 + 1e-15)
    # the quadratic's coefficients; the sum of opposite-sign roots is held
    # to the size of its terms
    s = w + d
    prod = -(1.0 + w) * (1.0 + d) * s / (s + 2.0 * w * d)
    assert abs(t1 + t2 + s) <= 1e-15 * max(abs(t1), abs(t2))
    assert abs(t1 * t2 - prod) <= 1e-15 * abs(prod)


def test_surface_params_residuals():
    w = solve_w(StarConfig(2.0, 0.25, 0.75))
    d = edge_d(2.0) + solve_x0(w, 2.0)
    assert beta_coord(2.0, w) == pytest.approx(0.25, rel=1e-15)
    assert abs(_cubic(w, 2.0, d)) <= 1e-14
    t1, t2 = infinity_preimages(w, d)
    assert t1 < 0.0 < t2 < 1.0 + d


def test_residue_raw_value():
    # (alpha, u, tau0) = (2, 1.5, 2): the (u, tau) residue chain of the
    # parametrization gives these limits
    vals = residue_limits(2.0, 0.5, 1.0)
    ref = (0.2777862309826997, 0.14958851079805022, -0.8670307462547069,
           0.49720826104760657)
    for v, r in zip(vals, ref):
        assert v == pytest.approx(r, rel=1e-15)


def test_residue_vanishes_when_preimage_hits_gamma():
    # w = 0 puts tau2 on gamma = 1 - w: the product for tau2 - gamma is
    # exactly 0, and so is A2
    t1, t2 = infinity_preimages(0.0, 0.5)
    assert t2 == 1.0
    a1, a2, _, _ = residue_limits(2.0, 0.0, 0.5)
    assert a2 == 0.0 and a1 > 0.0


def test_threshold_ray_values():
    s, _ = threshold_ray(1.0)
    assert s == pytest.approx(0.5, abs=1e-12)
    s, _ = threshold_ray(2.0)
    assert s == pytest.approx(0.5986, abs=1e-3)
    assert s == pytest.approx(0.5985242517080603, abs=1e-12)


def test_threshold_ray_monotone_and_reflective():
    vals = [threshold_ray(a)[0] for a in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(vals) > 0)
    assert vals[0] < 0.5 < vals[2]
    # swapping the interval roles reflects the threshold about one half
    for a in (0.5, 2.0, 4.0):
        assert threshold_ray(1.0 / a)[0] == pytest.approx(
            1.0 - threshold_ray(a)[0], abs=1e-12)


def test_pushed_beta_limits():
    s_a, _ = threshold_ray(2.0)
    top = solve_x0(1.0, 2.0)
    b, w, d = pushed_beta(2.0, (s_a + 1e-6, 1.0 - (s_a + 1e-6)), top)
    assert 0.0 <= b < 1e-12
    assert abs(_cubic(w, 2.0, d)) <= 1e-14
    b, _, _ = pushed_beta(1.0, (0.5 + 1e-9, 0.5 - 1e-9), solve_x0(1.0, 1.0))
    assert 0.0 <= b < 1e-12
    b, _, _ = pushed_beta(2.0, (1.0 - 1e-6, 1e-6), top)
    assert 1.0 - 1e-4 < b < 1.0


def test_pushed_beta_increasing():
    s_a, _ = threshold_ray(2.0)
    s = s_a + (1.0 - s_a) * np.linspace(0.05, 0.95, 12)
    b, _, _ = pushed_beta(2.0, (s, 1.0 - s), solve_x0(1.0, 2.0))
    assert np.all(np.diff(b) > 0)


# alpha, tau relative tolerance, beta absolute tolerance: the bounds the
# (u, tau) chain met.  There, at alpha = 1e-3, beta was already off by up to
# 8e-11 when evaluated at the correctly rounded (u, tau); the product form
# in w is not.  At alpha = 1e3 every ray has theta > 0.95, where one ulp of
# theta moves tau by 1.3e-15 relative.
@pytest.mark.parametrize("alpha, tau_rtol, beta_atol", [
    (1e-3, 1e-15, 1e-9), (0.5, 1e-15, 1e-13), (2.0, 1e-15, 1e-13),
    (1e3, 3e-15, 1e-13)])
def test_pushed_beta_against_50_digits(alpha, tau_rtol, beta_atol):
    mp = pytest.importorskip("mpmath")
    s_a, _ = threshold_ray(alpha)
    s = s_a + (1.0 - s_a) * np.linspace(0.025, 0.975, 20)
    beta, w, d = pushed_beta(alpha, (s, 1.0 - s), solve_x0(1.0, alpha))
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

            u_ref, tau_ref = mp.findroot(eqs, (1 + mp.mpf(w[i]),
                                               1 + mp.mpf(d[i])))
            g = u_ref * (2 - u_ref) ** 3 / (2 * u_ref - 1) ** 3
            beta_ref = al * g / (1 + al - g)
            assert abs(1 + mp.mpf(d[i]) - tau_ref) <= tau_rtol * tau_ref
            assert abs(beta[i] - beta_ref) <= beta_atol


# ---------------------------------------------------------------------------
# the whole chain against 50 digits
# ---------------------------------------------------------------------------

def _mp_residues(mp, al, u, t0):
    """Limits from the (u, tau) residue chain, differences and all."""
    g = 2 - u
    rsum = -(u + t0 - 2)
    prod = -u * t0 * (u + t0 - 2) / (2 * u * t0 - u - t0)
    root = mp.sqrt(rsum * rsum - 4 * prod)
    t1, t2 = (rsum - root) / 2, (rsum + root) / 2

    def side(ta, tb):
        c = -al * ta ** 2 * (ta - g) / ((t0 - ta) ** 2 * (ta - tb))
        a = -al * t0 ** 2 * c * (t0 - g) / ((t0 - ta) ** 2 * (t0 - tb))
        k = (t0 ** 2 * tb + 2 * t0 ** 2 * ta - 3 * t0 * ta * tb
             - g * t0 ** 2 - g * ta * t0 + 2 * g * ta * tb)
        return a, al * t0 * k / ((t0 - ta) ** 2 * (t0 - tb) ** 2)

    (a1, b1), (a2, b2) = side(t1, t2), side(t2, t1)
    return a1, a2, b1, b2


def _mp_root(mp, f, x):
    """The root of ``f`` next to the double ``x``, by secant from near it."""
    return mp.findroot(f, (x, x * (1 + mp.mpf(2) ** -40)))


def _mp_star_right(mp, al, s):
    """Star-frame limits right of the plateau at the exact ray ``s`` (an
    mpf): the ray solved in (u, tau)."""
    theta = 2 * s - 1
    u_of = lambda t: -t * ((t - 1) ** 2 + al) / ((t - 1) ** 2 - al * (2 * t - 1))

    def ray(t):
        u = u_of(t)
        ratio = (2 + 2 * u * t - u - t) / ((2 * u * t - u - t) * (u + t)
                                           * (u + t - 2))
        return (t - u) * mp.sqrt(ratio) - theta

    _, _, d = pushed_beta(float(al), (float(s), float(1 - s)),
                          solve_x0(1.0, float(al)))  # a start
    t = _mp_root(mp, ray, 1 + mp.mpf(float(d)))
    return _mp_residues(mp, al, u_of(t), t)


def _mp_limits(mp, alpha, beta, s, info):
    """Limits of [-alpha, 0] u [beta, 1] at s, plateau and both zones."""
    al, be = mp.mpf(alpha), mp.mpf(beta)
    if s > info.c2:
        return _mp_star_right(mp, al, mp.mpf(s))
    if s < info.c1:
        # the reflected star frame at the ray 1 - s, exactly, carried back
        L = al + be
        a1, a2, b1, b2 = _mp_star_right(mp, (1 - be) / L, 1 - mp.mpf(s))
        return L * L * a2, L * L * a1, be - L * b2, be - L * b1
    w = solve_w(StarConfig(alpha, beta, 1.0 - beta))
    target = be * (1 + al) / (al + be)
    gap = lambda x: x * (2 - x) ** 3 / (2 * x - 1) ** 3 - target
    u = 2 if beta == 0.0 else _mp_root(mp, gap, 1 + mp.mpf(w))
    t0 = _mp_root(mp, lambda t: t * t * (t + u - 2)
                  - (1 + al) * ((2 * u - 1) * t - u),
                  1 + mp.mpf(edge_d(alpha) + solve_x0(w, alpha)))
    return _mp_residues(mp, al, u, t0)


@pytest.mark.parametrize("alpha", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_whole_chain_against_50_digits(alpha):
    # A1, A2, B1, B2 of the surface route against the (u, tau) chain in 80
    # digits: rays next to the plateau edges (the threshold ray for beta =
    # 0), one ulp to 1e-1 from either end, and the plateau.  The reference
    # takes each ray exactly, the left zone's reflected ray 1 - s included,
    # and A is held relative on every ray, however near an end.  The chain
    # forms tau2 - gamma ~ w^2 as a difference, and w falls to 5e-26 one ulp
    # from s = 1 at alpha = 1e-9, so 60 digits would leave it 8
    mp = pytest.importorskip("mpmath")
    for beta in (0.0, 0.25):
        info = plateau_bounds(StarConfig(alpha, beta, 1.0 - beta))
        ends = [x for e in (1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 1e-1)
                for x in (e, 1 - e)] + [np.nextafter(1.0, 0.0), 2.0 ** -53]
        edges = [info.c1 - 1e-9, info.c1 - 1e-6, info.c2 + 1e-9,
                 info.c2 + 1e-6, 0.5 * (info.c1 + info.c2)]
        rays = np.unique([x for x in ends + edges if 0.0 < x < 1.0])
        cv = limit_curve(AngelescoSystem(Interval(-alpha, 0.0),
                                         Interval(beta, 1.0)), rays, info)
        with mp.workdps(80):
            for i, s in enumerate(rays):
                ref = _mp_limits(mp, alpha, beta, float(s), info)
                for got, r in zip((cv.A1[i], cv.A2[i]), ref[:2]):
                    assert abs(got - r) <= 1e-12 * r, (beta, s)
                gap = ref[3] - ref[2]
                for got, r in zip((cv.B1[i], cv.B2[i]), ref[2:]):
                    assert abs(got - r) <= 1e-14 * gap, (beta, s)


_SWEEP_BETAS = (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 0.999999)


def test_every_system_of_the_sweep_answers():
    # alpha over 24 decades, beta from touching to nearly closed: 441
    # systems, each a whole 181-point curve
    grid = np.linspace(0.0, 1.0, 181)
    for alpha in np.logspace(-12, 12, 49):
        for beta in _SWEEP_BETAS:
            sys = AngelescoSystem(Interval(-float(alpha), 0.0),
                                  Interval(beta, 1.0))
            cv = limit_curve(sys, grid)
            assert np.all(cv.B1 < cv.B2), (alpha, beta)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-9.0, 9.0), st.floats(-12.0, -1e-9))
@example(-9.0, -12.0)
@example(9.0, -12.0)
@example(-9.0, -1e-9)
@example(9.0, -1e-9)
def test_right_zone_limits_are_ordered_and_hold_the_identity(log_alpha,
                                                             log_dist):
    # a ray right of the threshold ray s_a, log-uniform in its distance to
    # s = 1 and at least 1e-12 from it, star frame: A > 0, B1 < B2 and
    # (B2 - B1)^2 = A1 / s^2 + A2 / (1 - s)^2 to the whole-chain bound,
    # relative on every ray
    alpha = 10.0 ** log_alpha
    s_a, _ = threshold_ray(alpha)
    s = 1.0 - max((1.0 - s_a) * 10.0 ** log_dist, 1e-12)
    _, w, d = pushed_beta(alpha, (s, 1.0 - s), solve_x0(1.0, alpha))
    a1, a2, b1, b2 = residue_limits(alpha, w, d)
    assert a1 > 0.0 and a2 > 0.0 and b1 < b2
    lhs = (b2 - b1) ** 2
    rhs = a1 / s ** 2 + a2 / (1.0 - s) ** 2
    assert abs(lhs - rhs) <= 1e-12 * lhs


@pytest.mark.parametrize("s", [1.0 - 1.1e-16, 1.1e-16])
def test_a_ray_one_ulp_from_an_end_keeps_its_a_positive(s):
    # at alpha = 0.1 the ray next to s = 1 used to land on d = d1 exactly,
    # where A2 = 0 broke the curve contract (exit 3); its mirror goes
    # through the reflected zone.  A ~ distance^2 C, so the quotient
    # settles on the one at 1e-8
    sys = AngelescoSystem(Interval(-0.1, 0.0), Interval(0.0, 1.0))
    far = s > 0.5
    dist = 1.0 - s if far else s
    p, q = (limit_curve(sys, [x]) for x in (s, 1.0 - 1e-8 if far else 1e-8))
    a, b = (p.A2[0], q.A2[0]) if far else (p.A1[0], q.A1[0])
    assert a > 0.0
    assert a / dist ** 2 == pytest.approx(b / 1e-16, rel=1e-6)


def test_plateau_touching_degenerates(touching_info):
    assert touching_info.c1 == touching_info.c2
    assert touching_info.c1 == pytest.approx(0.5985242517080603, abs=1e-12)


def test_plateau_gap_window(gap_info):
    assert 0.0 < gap_info.c1 < gap_info.c2 < 1.0
    assert gap_info.c1 == pytest.approx(0.3699184612727713, abs=1e-9)
    assert gap_info.c2 == pytest.approx(0.8413547836757349, abs=1e-9)


def test_plateau_symmetric_window_is_centered():
    info = plateau_bounds(StarConfig(0.8, 0.2, 0.8))
    assert info.c1 + info.c2 == pytest.approx(1.0, abs=1e-12)


def _mp_edge(mp, al, be, w, d):
    """(s, 1 - s) of the configuration (al, be) (mpf) from its (u, tau0),
    each solved next to the doubles (w, d) and read through theta."""
    r = be * (1 + al) / (al * (1 - be))
    u = 2 if be == 0 else 1 + _mp_root(
        mp, lambda x: (1 + x) * (1 - x) ** 3 - r * x * (2 + x) ** 3,
        mp.mpf(w))
    t = _mp_root(mp, lambda t: t * t * (t + u - 2)
                 - (1 + al) * ((2 * u - 1) * t - u), 1 + mp.mpf(d))
    num = 2 + 2 * u * t - u - t
    den = (2 * u * t - u - t) * (u + t) * (u + t - 2)
    theta = (t - u) * mp.sqrt(num / den)
    return (1 + theta) / 2, (1 - theta) / 2


@pytest.mark.parametrize("alpha, beta", [
    (1e-12, 0.5), (1e-12, 0.25), (1e-9, 0.5), (1e-9, 1e-9), (0.01, 0.9),
    (1e-3, 0.0)])
def test_plateau_edges_against_60_digits(alpha, beta):
    # c2 is the configuration's ray and c1 the reflected configuration's
    # distance to its end, alpha_hat = (1 - beta) / (alpha + beta), with the
    # same w: each holds 1e-15 relative, however small, the touching
    # c1 = c2 included
    mp = pytest.importorskip("mpmath")
    sc = StarConfig(alpha, beta, 1.0 - beta)
    info = plateau_bounds(sc)
    w = solve_w(sc)
    with mp.workdps(60):
        al, be = mp.mpf(alpha), mp.mpf(beta)
        c2 = _mp_edge(mp, al, be, w, edge_d(alpha) + solve_x0(w, alpha))[0]
        al_hat = (1 - be) / (al + be)
        c1 = _mp_edge(mp, al_hat, be / (al + be), w,
                      edge_d(float(al_hat)) + solve_x0(w, float(al_hat)))[1]
        assert abs(info.c2 - c2) <= 1e-15 * c2
        assert abs(info.c1 - c1) <= 1e-15 * c1


def test_threshold_ray_is_the_touching_plateau_edge():
    # one path: the ray (s, 1 - s) at w = 1, bit for bit the touching
    # plateau's c2; swapping the interval roles swaps the pair, each
    # distance held relative however small it is
    alphas = np.logspace(-12, 12, 97)
    for a in alphas:
        s, rest = threshold_ray(a)
        assert s == plateau_bounds(StarConfig(float(a), 0.0, 1.0)).c2
        assert type(s) is float and type(rest) is float
        for got, want in zip(threshold_ray(1.0 / a), (rest, s)):
            assert abs(got - want) <= 1e-15 * want, a


def test_solve_x0_brackets_the_root_without_doubling(monkeypatch):
    # x = 1 + sqrt(3 alpha) lies above the root for every w in (0, 1], so
    # the sign is confirmed at once over six hundred decades of alpha, and
    # d0 = d1 + x0 holds an 80-digit root of the cubic in d to 1e-15
    mp = pytest.importorskip("mpmath")
    real_expand = surface.expand_upper

    def checked(f, lo, hi):
        out = real_expand(f, lo, hi)
        assert np.array_equal(out, hi), (lo, hi)
        return out

    monkeypatch.setattr(surface, "expand_upper", checked)
    for alpha in np.logspace(-300, 300, 61):
        for w in (1e-17, 1e-12, 1e-3, 1.0):
            d = edge_d(float(alpha)) + solve_x0(w, float(alpha))
            with mp.workdps(80):
                c, a = mp.mpf(d), mp.mpf(float(alpha))
                terms = lambda y: (c ** 3 * y ** 3, (w + 2) * c ** 2 * y ** 2,
                                   -a * (1 + 2 * w) * c * y, -a * w)
                size = sum(abs(t) for t in terms(1))
                y = mp.findroot(lambda y: sum(terms(y)) / size,
                                (1, 1 + mp.mpf(2) ** -40))
                assert abs(1 - y) <= 1e-15 * y, (alpha, w)


def _edge_solves_back_to(monkeypatch, back):
    """:func:`pushed_beta` as it is, except that its last ray, the plateau
    edge that :func:`limit_curve` adds on a gap, solves back to ``back``."""
    real = surface.pushed_beta

    def off(alpha, ray, top):
        beta, w, d = real(alpha, ray, top)
        w = w.copy()
        w[-1] = back
        return beta, w, d

    monkeypatch.setattr(surface, "pushed_beta", off)


def test_plateau_guards_are_scale_free(monkeypatch):
    # every window of the sweep is in order
    for alpha in np.logspace(-12, 12, 25):
        for beta in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999999):
            info = plateau_bounds(StarConfig(float(alpha), beta, 1.0 - beta))
            assert 0.0 < info.c1 < info.c2 < 1.0
    # a round trip 2e-9 off w, relative, fails in the ray bisection of
    # limit_curve; the star frame is (2, 1e-12)
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(1e-12, 1.0))
    w = solve_w(StarConfig(2.0, 1e-12, 1.0 - 1e-12))
    _edge_solves_back_to(monkeypatch, w * (1.0 + 2e-9))
    with pytest.raises(NumericalFailure, match="round trip"):
        limit_curve(sys, np.linspace(0.0, 1.0, 11))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(-12.0, 12.0), st.floats(-16.5, -1e-3), st.booleans())
def test_the_plateau_round_trip_holds_far_inside_its_guard(log_alpha,
                                                            log_beta, near_1):
    # the w solved back along (c2, 1 - c2) meets w to 1e-13 relative, with
    # beta or 1 - beta down to 10^-16.5, where a check of beta would see an
    # error in 1 - beta only at 1e-16 of it: the guard's 1e-9 sees either.
    # 1 - beta below eps puts w below eps too
    small = 10.0 ** log_beta
    pair = (1.0 - small, small) if near_1 else (small, 1.0 - small)
    sc = StarConfig(10.0 ** log_alpha, *pair)
    w = solve_w(sc)
    info = plateau_bounds(sc)
    _, back, _ = pushed_beta(sc.alpha, (info.c2, info.one_minus_c2), info.top)
    assert abs(back - w) <= 1e-13 * w


@pytest.mark.parametrize("alpha, rest", [
    (1e10, 2.0 ** -53), (10.0 ** 0.25, 1e-16),
    (1.4703094808339387e-07, 3.4783895692466677e-16)])
def test_the_configuration_solve_brackets_a_w_below_rounding(alpha, rest):
    # w < 1e-16 here: the level-set cubic is -2 w d1 (1 + alpha) at d1,
    # which a Horner form in d rounds positive, while x0's f(0) =
    # -w (2 + 2 alpha) keeps its sign for every w > 0
    sc = StarConfig(alpha, 1.0 - rest, rest)
    info = plateau_bounds(sc)
    assert 0.0 < info.c1 < info.c2 and info.one_minus_c2 > 0.0


def test_limit_curve_at_endpoints(touching_system):
    p = limit_curve(touching_system, [0.0])
    assert (p.A1[0], p.A2[0]) == (0.0, pytest.approx(0.0625, abs=1e-12))
    assert p.B1[0] == pytest.approx(-1.974744871391589, abs=1e-12)
    assert p.B2[0] == pytest.approx(0.5, abs=1e-12)
    p = limit_curve(touching_system, [1.0])
    assert (p.A2[0], p.A1[0]) == (0.0, pytest.approx(0.25, abs=1e-12))
    assert p.B1[0] == pytest.approx(-1.0, abs=1e-12)
    assert p.B2[0] == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        limit_curve(touching_system, [1.5])


def test_limit_curve_approaches_endpoint_values(touching_system):
    p = limit_curve(touching_system, [1.0 - 1e-6])
    assert abs(p.A1[0] - 0.25) < 1e-9
    assert abs(p.B1[0] + 1.0) < 1e-9
    p = limit_curve(touching_system, [1e-6])
    assert abs(p.A2[0] - 0.0625) < 1e-9


@pytest.mark.parametrize("s", [float("nan"), -0.1, 1.5])
def test_limit_curve_rejects_a_ray_off_the_grid_rules(touching_system,
                                                      touching_info, s):
    with pytest.raises(ValueError):
        limit_curve(touching_system, [s], info=touching_info)


def test_limit_curve_answers_next_to_an_endpoint(touching_system,
                                                touching_info):
    # A1 ~ s^2 C1 as s -> 0 (through the reflected zone) and
    # A2 ~ (1 - s)^2 C2 as s -> 1: positive, with a settled quotient
    near = {e: limit_curve(touching_system, [e], info=touching_info).A1[0]
            for e in (1e-9, 1e-8)}
    far = {e: limit_curve(touching_system, [1.0 - e], info=touching_info).A2[0]
           for e in (1e-9, 1e-8)}
    assert all(a > 0.0 for a in near.values())
    assert all(a > 0.0 for a in far.values())
    assert near[1e-8] / 1e-16 == pytest.approx(near[1e-9] / 1e-18, rel=1e-6)
    assert far[1e-8] / 1e-16 == pytest.approx(far[1e-9] / 1e-18, rel=1e-6)


def test_failure_contexts_are_json(monkeypatch):
    # an open bisection bracket, reached through a public call: a ray left
    # of the threshold ray has no right-zone solution
    with pytest.raises(NumericalFailure, match="bracket") as exc:
        pushed_beta(2.0, (0.3, 0.7), solve_x0(1.0, 2.0))
    ctx = exc.value.context
    assert json.loads(json.dumps(ctx)) == ctx
    # the plateau's contexts hold plain floats, not numpy scalars; a ray
    # solve that misses w by 1e-6 fails the gap round trip in limit_curve,
    # on the star frame (2, 0.5)
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.5, 1.0))
    w = solve_w(StarConfig(2.0, 0.5, 0.5))
    with monkeypatch.context() as m:
        _edge_solves_back_to(m, w + 1e-6)
        with pytest.raises(NumericalFailure, match="round trip") as exc:
            limit_curve(sys, np.linspace(0.0, 1.0, 11))
    ctx = exc.value.context
    assert json.loads(json.dumps(ctx)) == ctx
    assert set(ctx) == {"c2", "w", "back"}
    assert all(type(v) is float for v in ctx.values())
    # a reflection that returns the configuration itself, with c2 < 1/2,
    # puts c1 = 1 - c2 above c2
    monkeypatch.setattr(StarConfig, "reflected", lambda sc: (sc, None))
    with pytest.raises(NumericalFailure, match="out of order") as exc:
        plateau_bounds(StarConfig(0.1, 0.01, 0.99))
    ctx = exc.value.context
    assert json.loads(json.dumps(ctx)) == ctx
    assert set(ctx) == {"c1", "c2"} and ctx["c1"] > ctx["c2"]
    assert all(type(v) is float for v in ctx.values())


def test_preimages_are_finite_and_ordered_on_the_whole_domain():
    # p < 0, so the discriminant exceeds (w + d)^2: no NaN for any w in
    # (0, 1] and d > 0, from the smallest double to far past any solve
    w = np.logspace(-300, 0, 61)[:, None]
    d = np.logspace(-300, 100, 81)[None, :]
    t1, t2 = infinity_preimages(w, d)
    assert np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))
    assert np.all(t1 < 0.0) and np.all(t2 > 0.0)


def test_limit_curve_returns_the_asked_ray(gap_system, gap_info):
    # left zone (reflected solve), plateau, right zone
    for s in (0.1, 0.3, 0.5, 0.9):
        assert limit_curve(gap_system, [s], info=gap_info).s[0] == s


def test_curve_continuous_at_plateau_edges(gap_system, gap_info):
    eps = 1e-8
    for edge in (gap_info.c1, gap_info.c2):
        cv = limit_curve(gap_system, [edge - eps, edge + eps], info=gap_info)
        for f in ("A1", "A2", "B1", "B2"):
            assert abs(np.diff(getattr(cv, f))[0]) < 1e-6


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
    s = np.array([0.1, 0.3, 0.55, 0.7, 0.9])
    p = limit_curve(gap_system, s)
    q = limit_curve(ref, (1.0 - s)[::-1])
    np.testing.assert_allclose(q.A1[::-1], p.A2, rtol=0, atol=1e-10)
    np.testing.assert_allclose(q.A2[::-1], p.A1, rtol=0, atol=1e-10)
    np.testing.assert_allclose(q.B1[::-1], -p.B2, rtol=0, atol=1e-10)
    np.testing.assert_allclose(q.B2[::-1], -p.B1, rtol=0, atol=1e-10)


def test_limit_curve_matches_pointwise(gap_system, gap_info):
    # each point of a grid is the one-point grid's answer, to the bit
    grid = np.linspace(0.0, 1.0, 41)
    cv = limit_curve(gap_system, grid, info=gap_info)
    for i, s in enumerate(grid):
        p = limit_curve(gap_system, [s], info=gap_info)
        for f in ("A1", "A2", "B1", "B2"):
            assert getattr(p, f)[0] == getattr(cv, f)[i], (s, f)


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.9])
def test_limit_curve_solves_its_own_endpoints(monkeypatch, beta):
    # the end rays solve to w = 0 exactly and meet the ODE route's closed
    # forms, which the surface route may not read: they are poisoned
    # wherever they are bound
    systems = [AngelescoSystem(Interval(-alpha, 0.0), Interval(beta, 1.0))
               for alpha in np.logspace(-9, 9, 19)]
    # each system's s = 0 pack, and its s = 1 pack: the reflected
    # system's s = 0 values
    packs = [(ode.boundary_values(sys), ode.boundary_values(reflect(sys)))
             for sys in systems]

    def unreachable(sys):
        raise AssertionError("the surface route read the closed forms")

    for mod in (surface, ode):
        if hasattr(mod, "boundary_values"):
            monkeypatch.setattr(mod, "boundary_values", unreachable)
    for sys, (pk, hat) in zip(systems, packs):
        c = limit_curve(sys, np.array([0.0, 1.0]))
        assert c.A1[0] == 0.0 and c.A2[1] == 0.0
        assert abs(c.A2[0] - pk.C2_0) <= 1e-14 * pk.C2_0
        assert abs(c.A1[1] - hat.C2_0) <= 1e-14 * hat.C2_0
        for got, want, gap in ((c.B1[0], pk.B1_0, pk.gap_0),
                               (c.B2[0], pk.B2_0, pk.gap_0),
                               (c.B1[1], -hat.B2_0, hat.gap_0),
                               (c.B2[1], -hat.B1_0, hat.gap_0)):
            assert abs(got - want) <= 1e-14 * gap, sys


def test_limit_curve_solves_each_zone_once(monkeypatch, gap_system, gap_info):
    # one array bisection holds the rays of both off-plateau zones, the end
    # rays included: 67 reflected left of the window and 29 right of it,
    # and the plateau edge (c2, 1 - c2) of the gap round trip
    sizes = []
    real_bisect = surface.bisect

    def recording(f, lo, hi, *args, **kwargs):
        sizes.append(np.size(lo))
        return real_bisect(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(surface, "bisect", recording)
    grid = np.linspace(0.0, 1.0, 181)
    limit_curve(gap_system, grid, info=gap_info)
    zones = [np.count_nonzero(grid < gap_info.c1),
             np.count_nonzero(grid > gap_info.c2)]
    assert zones == [67, 29] and sizes == [97]


# touching, gap, unbalanced, shifted, near-touching, wide window, w below
# rounding and beta rounding to 1
_BIT_SYSTEMS = [((-2.0, 0.0), (0.0, 1.0)), ((-2.0, 0.0), (0.25, 1.0)),
                ((-1000.0, 0.0), (0.0, 1.0)), ((-3.0, -1.0), (2.0, 7.0)),
                ((-1e-3, 0.0), (0.0, 1.0)), ((-2.0, 0.0), (0.5, 1.0)),
                ((-1e10, 0.0), (0.9999999999999999, 1.0)),
                ((-1e-17, 0.0), (0.5, 1.0))]


@pytest.mark.parametrize("i1, i2", _BIT_SYSTEMS, ids=[
    "touching", "gap", "wide-left", "shifted", "near-touching", "wide-window",
    "w-below-rounding", "beta-rounds-to-1"])
def test_limit_curve_is_the_zone_by_zone_solve(i1, i2):
    # the four configuration points in one solve_x0 call and both zones in
    # one ray bisection give the bits of one solve per point and per zone
    sys = AngelescoSystem(Interval(*i1), Interval(*i2))
    sc, _ = star_normalize(sys)
    info = plateau_bounds(sc)
    _, c1, c2, one_minus_c2 = surface_reference.window(sc)
    assert (info.c1, info.c2, info.one_minus_c2) == (c1, c2, one_minus_c2)
    ends = [e for k in (1, 3, 6, 9, 12, 15) for e in (10.0 ** -k,
                                                      1.0 - 10.0 ** -k)]
    for grid in (np.linspace(0.0, 1.0, 181),
                 np.unique([0.0, 1.0, 2.0 ** -53, np.nextafter(1.0, 0.0)]
                           + ends)):
        got = limit_curve(sys, grid)
        want = surface_reference.reference_curve(sys, grid)
        for f in ("s", "A1", "A2", "B1", "B2"):
            assert np.array_equal(getattr(got, f), getattr(want, f)), f


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
