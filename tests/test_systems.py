import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from angelesco import (AffineMap, AngelescoSystem, Interval, LimitCurve,
                       NumericalFailure, StarConfig, pushforward_limits,
                       reflect, star_normalize)
from angelesco.systems import hull_units, plateau_zones, validate_computed


def test_interval_basic():
    iv = Interval(-2.0, 0.0)
    assert iv.mid == -1.0
    assert iv.radius == 1.0
    assert iv.length == 2.0


def test_interval_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, np.inf)


def test_system_ordering():
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0))
    assert sys.touching
    sys2 = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.25, 1.0))
    assert not sys2.touching
    with pytest.raises(ValueError):
        AngelescoSystem(Interval(-2.0, 0.5), Interval(0.25, 1.0))


@pytest.mark.parametrize("i1,i2", [((-1e308, 0.0), (0.0, 1e308)),
                                   ((-1.7e308, -1.0), (1.0, 1.7e308))])
def test_system_rejects_a_hull_length_that_overflows(i1, i2):
    # each interval is finite, but i2.hi - i1.lo is inf, which no power of
    # two can bring into hull units
    with pytest.raises(ValueError, match="hull length"):
        AngelescoSystem(Interval(*i1), Interval(*i2))


@pytest.mark.parametrize("short,hull,ok", [
    (1e-152, 1.0, True), (1e-153, 1.0, False), (1e-300, 1e300, False),
    (1e-10, 1e140, True), (1e-10, 1e150, False)])
def test_an_interval_too_short_for_its_hull_is_the_range_failure(short,
                                                                 hull, ok):
    # A ~ l^2 / 16 of the short interval in hull units, l its scaled length,
    # is the first value to leave the normal doubles
    sys = AngelescoSystem(Interval(-short, 0.0), Interval(0.0, hull))
    if ok:
        unit, e = hull_units(sys)
        assert unit.i1.length == np.ldexp(short, -e)
        return
    with pytest.raises(NumericalFailure, match="out of the double range") \
            as exc:
        hull_units(sys)
    assert exc.value.context["interval_lengths"] == [short, hull]


def test_system_rejects_unknown_weight():
    with pytest.raises(ValueError):
        AngelescoSystem(Interval(-1.0, 0.0), Interval(0.0, 1.0), w1="hermite")


def test_star_config_bounds():
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0))
    assert star_normalize(sys)[0] == StarConfig(2.0, 0.0, 1.0)
    # beta may round to 1: the pair keeps 1 - beta
    assert StarConfig(1.0, 1.0, 1e-17).one_minus_beta == 1e-17
    with pytest.raises(ValueError):
        StarConfig(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        StarConfig(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        StarConfig(1.0, -0.1, 1.1)
    # a pair that does not sum to 1, NaN included
    for beta, rest in ((0.5, 0.5 + 1e-14), (0.25, 0.5), (float("nan"), 0.5),
                       (0.5, float("nan"))):
        with pytest.raises(ValueError, match="sum"):
            StarConfig(1.0, beta, rest)


def test_star_normalize_examples():
    sc, amap = star_normalize(AngelescoSystem(Interval(-2.0, 0.0),
                                              Interval(0.0, 1.0)))
    assert sc == StarConfig(2.0, 0.0, 1.0)
    assert (amap.scale, amap.shift) == (1.0, 0.0)

    sc, amap = star_normalize(AngelescoSystem(Interval(-2.0, 0.0),
                                              Interval(0.25, 1.0)))
    assert sc == StarConfig(2.0, 0.25, 0.75)
    assert (amap.scale, amap.shift) == (1.0, 0.0)

    sc, amap = star_normalize(AngelescoSystem(Interval(0.0, 1.0),
                                              Interval(1.0, 3.0)))
    assert sc == StarConfig(0.5, 0.0, 1.0)
    assert (amap.scale, amap.shift) == (2.0, 1.0)


def test_star_normalize_of_star_system_is_identity():
    sc0 = StarConfig(1.7, 0.3, 0.7)
    sc, amap = star_normalize(AngelescoSystem(Interval(-1.7, 0.0),
                                              Interval(0.3, 1.0)))
    assert sc == sc0
    assert (amap.scale, amap.shift) == (1.0, 0.0)


def test_star_normalize_keeps_1_minus_beta_where_beta_rounds_to_1():
    sc, _ = star_normalize(AngelescoSystem(Interval(-1e20, -1e19),
                                           Interval(0.0, 1.0)))
    assert (sc.alpha, sc.beta, sc.one_minus_beta) == (9.0, 1.0, 1e-19)
    hat, _ = StarConfig(1e-17, 0.5, 0.5).reflected()
    assert hat.beta == 1.0
    assert hat.one_minus_beta == pytest.approx(2e-17, rel=1e-15)
    assert hat.alpha == pytest.approx(1.0, rel=1e-15)


@st.composite
def star_frames(draw):
    """A system whose interval lengths and gap span 1e+-24 of each other,
    shifted by up to a few hulls."""
    log = st.floats(-12.0, 12.0)
    left, right = 10.0 ** draw(log), 10.0 ** draw(log)
    gap = draw(st.sampled_from([0.0]) | log.map(lambda e: 10.0 ** e))
    shift = draw(st.sampled_from([0.0]) | st.floats(-4.0, 4.0)) * (
        left + gap + right)
    ends = (shift - left, shift, shift + gap, shift + gap + right)
    assume(ends[0] < ends[1] <= ends[2] < ends[3])  # the shift kept them
    return AngelescoSystem(Interval(*ends[:2]), Interval(*ends[2:]))


_EPS = np.finfo(float).eps


def _close(got, want, ulps):
    return abs(got - want) <= ulps * _EPS * abs(want)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(star_frames())
def test_the_star_pair_and_its_reflection(sys):
    # beta and 1 - beta are each a length over the scale: one rounding per
    # difference and per quotient, so the sum is 1 to 2 eps.  The reflected
    # frame is three quotients of the pair; against the frame of the
    # reflected system it differs by at most seven roundings (3.5 eps),
    # and reflecting twice returns the frame to four eps
    sc, _ = star_normalize(sys)
    assert abs(sc.beta + sc.one_minus_beta - 1.0) <= 2 * _EPS
    hat, back = sc.reflected()
    ref, _ = star_normalize(reflect(sys))
    for f in ("alpha", "beta", "one_minus_beta"):
        assert _close(getattr(hat, f), getattr(ref, f), 3.5), f
        assert _close(getattr(hat.reflected()[0], f), getattr(sc, f), 4), f
    # the map sends the reflected frame's ends to this frame's, mirrored
    for y, x in ((-hat.alpha, 1.0), (hat.beta, 0.0), (1.0, -sc.alpha)):
        assert abs(back.apply(y) - x) <= 4 * _EPS * max(1.0, sc.alpha)
    assert back.apply(0.0) == sc.beta


def test_star_normalize_maps_endpoints(rng=np.random.default_rng(7)):
    for _ in range(25):
        a1, b1 = sorted(rng.uniform(-5, 5, 2))
        gap = rng.uniform(0, 2)
        a2 = b1 + gap
        b2 = a2 + rng.uniform(0.1, 4)
        sys = AngelescoSystem(Interval(a1, b1), Interval(a2, b2))
        sc, amap = star_normalize(sys)
        assert amap.apply(-sc.alpha) == pytest.approx(a1, abs=1e-12)
        assert amap.apply(0.0) == pytest.approx(b1, abs=1e-12)
        assert amap.apply(sc.beta) == pytest.approx(a2, abs=1e-12)
        assert amap.apply(1.0) == pytest.approx(b2, abs=1e-12)


def test_reflect_examples():
    sys = reflect(AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0)))
    assert sys.i1 == Interval(-1.0, 0.0)
    assert sys.i2 == Interval(0.0, 2.0)

    sym = AngelescoSystem(Interval(-1.0, 0.0), Interval(0.0, 1.0))
    assert reflect(sym) == sym

    sys = reflect(AngelescoSystem(Interval(-2.0, 0.0), Interval(0.25, 1.0)))
    assert sys.i1 == Interval(-1.0, -0.25)
    assert sys.i2 == Interval(0.0, 2.0)


def test_reflect_swaps_weights_and_is_involutive():
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.25, 1.0),
                          "chebyshev1", "uniform")
    ref = reflect(sys)
    assert (ref.w1, ref.w2) == ("uniform", "chebyshev1")
    assert reflect(ref) == sys


def test_affine_map_roundtrip():
    amap = AffineMap(2.0, 3.0)
    x = np.linspace(-4, 4, 9)
    # the inverse map of a power-of-two scale undoes apply exactly
    inverse = AffineMap(1.0 / amap.scale, -amap.shift / amap.scale)
    np.testing.assert_array_equal(inverse.apply(amap.apply(x)), x)
    with pytest.raises(ValueError):
        AffineMap(0.0, 1.0)


def _one_point(s, a1, a2, b1, b2):
    return LimitCurve([s], [a1], [a2], [b1], [b2])


def _values(curve):
    return tuple(float(getattr(curve, f)[0])
                 for f in ("s", "A1", "A2", "B1", "B2"))


def test_limit_point_invariants():
    # a single ray is a one-point curve
    _one_point(0.0, 0.0, 0.1, -1.0, 0.5).validate()
    _one_point(1.0, 0.3, 0.0, -1.0, 0.5).validate()
    for bad in ((0.5, 0.0, 0.1, -1.0, 0.5),    # A1 = 0 off the endpoint
                (0.5, 0.1, 0.0, -1.0, 0.5),
                (0.5, 0.1, 0.1, 0.5, -1.0),    # B order
                (1.5, 0.1, 0.1, -1.0, 0.5),
                (0.5, -0.1, 0.1, -1.0, 0.5),
                (0.5, float("nan"), 0.1, -1.0, 0.5),
                (0.5, 0.1, float("nan"), -1.0, 0.5)):
        with pytest.raises(ValueError):
            _one_point(*bad).validate()


def test_pushforward_point_examples():
    ident = AffineMap(1.0, 0.0)
    p = _one_point(0.5, 1.0, 1.0, -1.0, 1.0)
    assert _values(pushforward_limits(p, ident)) == _values(p)

    q = pushforward_limits(p, AffineMap(2.0, 3.0))
    assert _values(q) == (0.5, 4.0, 4.0, 1.0, 5.0)

    # reflection composition: swap slots, then negate the b's
    p = _one_point(0.3, 0.2, 0.4, -1.5, 0.5)
    q = pushforward_limits(p, AffineMap(-1.0, 0.0))
    assert _values(q) == (0.7, 0.4, 0.2, -0.5, 1.5)


def test_pushforward_swapped_curve_values():
    s = np.array([0.2, 0.5, 0.8])
    curve = LimitCurve(s, np.array([0.1, 0.2, 0.3]), np.array([0.3, 0.2, 0.1]),
                       np.array([-1.0, -0.9, -0.8]), np.array([0.5, 0.6, 0.7]))
    out = pushforward_limits(curve, AffineMap(-2.0, 1.0))
    # s -> 1 - s with the grid reversed, A1 <-> A2 scaled by 4,
    # B1 <-> B2 sent through -2 B + 1
    np.testing.assert_allclose(out.s, [0.2, 0.5, 0.8], rtol=0, atol=1e-15)
    np.testing.assert_allclose(out.A1, [0.4, 0.8, 1.2], rtol=0, atol=1e-15)
    np.testing.assert_allclose(out.A2, [1.2, 0.8, 0.4], rtol=0, atol=1e-15)
    np.testing.assert_allclose(out.B1, [-0.4, -0.2, 0.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(out.B2, [2.6, 2.8, 3.0], rtol=0, atol=1e-15)
    assert out.validate() is out


def test_pushforward_log_does_not_leak():
    # the result carries a copy of the input's meta and writes nothing to it
    s = np.array([0.2, 0.8])
    curve = LimitCurve(s, np.array([0.1, 0.3]), np.array([0.3, 0.1]),
                       np.array([-1.0, -0.8]), np.array([0.5, 0.7]),
                       "lattice", {"level": 3})
    out1 = pushforward_limits(curve, AffineMap(2.0, 0.0))
    out2 = pushforward_limits(out1, AffineMap(-1.0, 1.0))
    out2.meta["extra"] = True
    assert curve.meta == out1.meta == {"level": 3}
    assert out2.meta == {"level": 3, "extra": True}
    assert out2.method == "lattice"


def test_curve_validate():
    s = np.array([0.0, 0.5, 1.0])
    good = LimitCurve(s, np.array([0.0, 0.2, 0.3]), np.array([0.3, 0.2, 0.0]),
                      np.full(3, -1.0), np.full(3, 0.5))
    assert good.validate() is good
    bad = LimitCurve(s[::-1], good.A1, good.A2, good.B1, good.B2)
    with pytest.raises(ValueError):
        bad.validate()
    bad2 = LimitCurve(s, np.array([0.0, 0.0, 0.3]), good.A2, good.B1, good.B2)
    with pytest.raises(ValueError):
        bad2.validate()
    # A1 may vanish only at s = 0 and A2 only at s = 1, as on one point
    bad3 = LimitCurve(s, np.array([0.0, 0.2, 0.0]), good.A2, good.B1, good.B2)
    with pytest.raises(ValueError, match="vanish"):
        bad3.validate()
    bad4 = LimitCurve(s, good.A1, np.array([0.0, 0.2, 0.0]), good.B1, good.B2)
    with pytest.raises(ValueError, match="vanish"):
        bad4.validate()
    for name in ("s", "A1", "A2", "B1", "B2"):
        for value in (np.nan, np.inf):
            fields = {f: getattr(good, f).copy()
                      for f in ("s", "A1", "A2", "B1", "B2")}
            fields[name][1] = value
            with pytest.raises(ValueError, match="finite"):
                LimitCurve(**fields).validate()


def test_curve_validate_needs_the_endpoint_zeros():
    # A1 is 0 at s = 0 and A2 at s = 1, exactly, on every route's curve
    s = np.array([0.0, 0.5, 1.0])
    b1, b2 = -np.ones(3), np.ones(3)
    with pytest.raises(ValueError, match="vanish at s = 0"):
        LimitCurve(s, [0.1, 0.2, 0.3], [0.3, 0.2, 0.0], b1, b2).validate()
    with pytest.raises(ValueError, match="vanish at s = 0"):
        LimitCurve(s, [0.0, 0.2, 0.3], [0.3, 0.2, 1e-300], b1, b2).validate()
    # the rule reads the grid's ends, not its first and last points
    inner = LimitCurve([0.25, 0.75], [0.1, 0.2], [0.2, 0.1], b1[:2], b2[:2])
    assert inner.validate() is inner


def test_a_computed_curve_off_the_contract_is_a_numerical_failure():
    s = np.array([0.0, 0.5, 1.0])
    good = LimitCurve(s, np.array([0.0, 0.2, 0.3]), np.array([0.3, 0.2, 0.0]),
                      np.full(3, -1.0), np.full(3, 0.5), "ode")
    assert validate_computed(good) is good
    bad = LimitCurve(s, np.array([0.0, -0.2, 0.3]), good.A2, good.B1, good.B2,
                     "ode")
    with pytest.raises(NumericalFailure, match="ode curve: A limits") as exc:
        validate_computed(bad)
    assert exc.value.context == {"method": "ode"}
    # the same values given as input stay a usage error
    with pytest.raises(ValueError):
        bad.validate()


# --- properties of the curve contract --------------------------------------

_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)


@st.composite
def valid_curves(draw):
    """Random curves that pass LimitCurve.validate.

    The grid is dyadic (k / 2^20), so s -> 1 - s is exact and a double
    swap can be held to ``==``; A and B stay far from overflow and
    underflow under the power-of-two maps below, so those are exact too.
    """
    ks = draw(st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=12,
                       unique=True))
    s = np.sort(np.array(ks, dtype=float)) / 2.0 ** 20
    n = s.size
    mag = st.floats(1e-3, 1e3)
    a1 = np.array(draw(st.lists(mag, min_size=n, max_size=n)))
    a2 = np.array(draw(st.lists(mag, min_size=n, max_size=n)))
    a1[s == 0.0] = 0.0
    a2[s == 1.0] = 0.0
    # no B below 1e-200 in magnitude: scaled by 2^-30 it must stay normal
    b = st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) > 1e-200)
    b1 = np.array(draw(st.lists(b, min_size=n, max_size=n)))
    b2 = b1 + np.array(draw(st.lists(mag, min_size=n, max_size=n)))
    return LimitCurve(s, a1, a2, b1, b2).validate()


def _same_values(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("s", "A1", "A2", "B1", "B2"))


@_PROPERTY
@given(valid_curves(), st.integers(-30, 30))
def test_power_of_two_pushforward_round_trip_is_exact(curve, k):
    there = pushforward_limits(curve, AffineMap(2.0 ** k, 0.0))
    back = pushforward_limits(there, AffineMap(2.0 ** -k, 0.0))
    assert _same_values(back, curve)
    assert back.validate() is back


@_PROPERTY
@given(valid_curves())
def test_swapped_reflection_is_an_involution(curve):
    once = pushforward_limits(curve, AffineMap(-1.0, 0.0))
    assert once.validate() is once
    twice = pushforward_limits(once, AffineMap(-1.0, 0.0))
    assert _same_values(twice, curve)


def _accepts(make):
    try:
        make()
    except ValueError:
        return False
    return True


_EDGE_A = st.sampled_from([0.0, -0.0, 0.25]) | st.floats(allow_nan=True)
_EDGE_B = st.sampled_from([-1.0, 0.5]) | st.floats(allow_nan=True)


@_PROPERTY
@given(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0),
       _EDGE_A, _EDGE_A, _EDGE_B, _EDGE_B)
def test_broken_marks_the_points_validate_rejects(s, a1, a2, b1, b2):
    # on a valid grid, a one-point curve is broken iff validate rejects it
    curve = LimitCurve([s], [a1], [a2], [b1], [b2])
    assert bool(curve.broken()[0]) == (not _accepts(curve.validate))


def test_broken_is_pointwise():
    s = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    curve = LimitCurve(s, [0.0, -1e-9, 0.2, np.nan, 0.3],
                       [0.3, 0.2, 0.2, 0.2, 0.0],
                       [-1.0, -1.0, 0.5, -1.0, -1.0], np.full(5, 0.5))
    assert curve.broken().tolist() == [False, True, True, True, False]


@st.composite
def windows_and_grids(draw):
    """A window c1 <= c2 inside (0, 1) and a grid that may hold 0, 1, c1, c2."""
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    c1, c2 = sorted((draw(inner), draw(inner)))
    pts = draw(st.lists(st.floats(0.0, 1.0)
                        | st.sampled_from([0.0, 1.0, c1, c2]),
                        min_size=1, max_size=40, unique=True))
    return c1, c2, np.sort(np.array(pts))


@_PROPERTY
@given(windows_and_grids())
def test_plateau_zones_split_the_interior(case):
    c1, c2, grid = case
    left, plat, right = plateau_zones(grid, c1, c2)
    total = left.astype(int) + plat.astype(int) + right.astype(int)
    assert np.array_equal(total, ((grid > 0.0) & (grid < 1.0)).astype(int))
    # the plateau is closed: its edges belong to it
    assert np.all(plat[(grid == c1) | (grid == c2)])
    assert np.all(grid[left] < c1) and np.all(grid[right] > c2)
