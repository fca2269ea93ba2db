import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angelesco import NumericalFailure, StarConfig, surface
from angelesco.rootfind import bisect, expand_upper


def _bit_mid(lo, hi):
    """The midpoint of the int64 views of two nonnegative doubles."""
    ilo, ihi = np.asarray(lo).view(np.int64), np.asarray(hi).view(np.int64)
    return (ilo + (ihi - ilo) // 2).view(np.float64)


def _reference_bisect(f, lo, hi):
    """The bit-midpoint halving loop without an exit: always 64 halvings.

    Nonnegative brackets of doubles are less than 2^63 views wide, so 64
    halvings take every one of them to adjacent doubles and past.  The
    bracket is oriented once, so that g = f or -f rises; a midpoint where g
    is at most 0 replaces the lower end, a zero of a falling f the upper.
    The end where f is exactly 0 is the answer, else the midpoint.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    flo = np.asarray(f(lo), dtype=float)
    fhi = np.asarray(f(hi), dtype=float)
    sign = np.where((flo > 0) | (fhi < 0), -1.0, 1.0)
    for _ in range(64):
        mid = _bit_mid(lo, hi)
        g = sign * np.asarray(f(mid), dtype=float)
        lower = np.where(sign > 0, g <= 0, g < 0)
        lo, hi = np.where(lower, mid, lo), np.where(lower, hi, mid)
    zero_lo, zero_hi = (np.asarray(f(x), dtype=float) == 0 for x in (lo, hi))
    return np.where(zero_lo, lo, np.where(zero_hi, hi, 0.5 * (lo + hi)))[()]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _counting(f):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)
    return counted, calls


_FINITE = st.floats(0.0, 1e300)  # +0.0, never -0.0


@st.composite
def _brackets(draw):
    """(lo, hi, root): roots inside, on a bisection midpoint or at an end."""
    a, b = sorted((draw(_FINITE), draw(_FINITE)))
    where = draw(st.sampled_from(["inside", "midpoint", "end"]))
    if where == "inside":
        root = a if a == b else draw(st.floats(a, b))
    elif where == "midpoint":
        lo, hi = a, b
        for up in draw(st.lists(st.booleans(), max_size=60)):
            mid = float(_bit_mid(lo, hi))
            lo, hi = (mid, hi) if up else (lo, mid)
        root = float(_bit_mid(lo, hi))
    else:
        root = draw(st.sampled_from([a, b]))
    if draw(st.booleans()):
        a, b = b, a
    return a, b, root


_SHAPES = {"linear": lambda d: d, "cubic": lambda d: d ** 3, "step": np.sign}


def test_bisect_vectorized():
    targets = np.array([2.0, 3.0, 5.0, 7.0])
    roots = bisect(lambda x: x * x - targets, np.zeros(4), np.full(4, 3.0))
    np.testing.assert_allclose(roots, np.sqrt(targets), atol=1e-14)


def test_bisect_scalar_input_gives_float():
    out = bisect(lambda x: x - 0.25, 0.0, 1.0)
    assert isinstance(out, float)
    assert out == pytest.approx(0.25, abs=1e-14)


def test_bisect_rejects_open_bracket():
    with pytest.raises(NumericalFailure):
        bisect(lambda x: (x - 0.5) ** 2 + 1.0, 0.0, 1.0)
    with pytest.raises(NumericalFailure):
        bisect(lambda x: (x - 0.5) ** 2 + 1.0, np.array([0.0]),
               np.array([1.0]))


def test_bisect_failure_context_is_json():
    with pytest.raises(NumericalFailure) as exc:
        bisect(lambda x: (x - 0.5) ** 2 + 1.0, np.array([0.25, 0.0]),
               np.array([1.0, 2.0]))
    ctx = exc.value.context
    assert json.loads(json.dumps(ctx)) == ctx == {"lo": [0.25, 0.0],
                                                  "hi": [1.0, 2.0]}


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, -1.0), (-0.0, 1.0),
                                    (1.0, -0.0), ([0.0, -0.0], [1.0, 1.0])])
def test_bisect_rejects_a_negative_end(lo, hi):
    # bit-pattern midpoints hold for nonnegative doubles only; -0.0 has the
    # sign bit set, so it is refused as well, before f is called
    f, calls = _counting(lambda x: x - 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        bisect(f, lo, hi)
    assert not calls


@pytest.mark.parametrize("lo, hi", [
    (np.array([0.0, 2.0, 0.5, 1e300]), np.array([1.0, 0.0, 4.0, 5e-324])),
    (np.array(0.0), np.array(1.0)), (np.array(3.0), np.array(0.25))])
def test_bisect_writes_into_no_array_it_gives_or_is_given(lo, hi):
    # bisect holds its bracket in place; f may keep what it is given, as the
    # benchmark's counting f does, so every x must keep the values it had
    # when f saw it, and the caller's ends must keep theirs
    root = 0.375 * lo + 0.625 * hi
    seen = []
    f, calls = _counting(lambda x: seen.append(np.copy(x)) or x - root)
    ends = lo.copy(), hi.copy()
    out = bisect(f, lo, hi)
    assert len(calls) == len(seen) <= 65
    assert all(_same_bits(x, x_then) for x, x_then in zip(calls, seen))
    assert _same_bits(lo, ends[0]) and _same_bits(hi, ends[1])
    assert _same_bits(out, _reference_bisect(lambda x: x - root, lo, hi))


def test_bisect_deterministic():
    f = lambda x: np.cos(x) - x
    a = bisect(f, 0.0, 1.0)
    b = bisect(f, 0.0, 1.0)
    assert a == b


def test_expand_upper_reaches_sign_change():
    hi = expand_upper(lambda x: x - 100.0, np.array([0.0]), np.array([1.0]))
    assert hi[0] >= 100.0
    root = bisect(lambda x: x - 100.0, np.array([0.0]), hi)
    assert root[0] == pytest.approx(100.0, abs=1e-11)


def test_expand_upper_gives_up():
    # the cap is 60 doublings
    with pytest.raises(NumericalFailure) as exc:
        expand_upper(lambda x: np.ones_like(x), np.array([0.0]),
                     np.array([1.0]))
    assert exc.value.context["hi"] == 2.0 ** 60


def test_expand_upper_reads_signs_not_an_underflowing_product():
    # f(lo) f(hi) ~ 1e-400 underflows to 0.0 but the signs still agree:
    # the bracket is open and hi keeps doubling to the crossing at 1e-200
    f = lambda x: x - 1e-200
    hi = expand_upper(f, np.array([1e-210]), np.array([2e-210]))
    assert f(hi[0]) > 0.0 and f(hi[0] / 2.0) < 0.0


def test_bisect_rejects_nan_bracket_ends():
    with pytest.raises(NumericalFailure, match="bracket") as exc:
        bisect(lambda x: x - 0.5, math.nan, 1.0)
    assert exc.value.context["hi"] == [1.0]
    assert math.isnan(exc.value.context["lo"][0])
    # one NaN element of an array bracket fails the whole call
    with pytest.raises(NumericalFailure, match="bracket") as exc:
        bisect(lambda x: x - 0.5, np.array([0.0, math.nan]), np.ones(2))
    assert exc.value.context["hi"] == [1.0]
    # f itself NaN at an end
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalFailure, match="bracket"):
        bisect(lambda x: np.sqrt(x - 0.25) - 0.5, 0.0, 1.0)


def test_bisect_reads_signs_not_their_product():
    # tiny values of one sign: their product underflows to 0
    with pytest.raises(NumericalFailure, match="bracket"):
        bisect(lambda x: 1e-200 * ((x - 0.5) ** 2 + 1.0), 0.0, 1.0)
    # a root at one end and an infinite value at the other: 0 * inf is NaN
    root = bisect(lambda x: np.where(x == 1.0, np.inf, x), 0.0, 1.0)
    assert _same_bits(root, 0.0)


def test_bisect_stops_at_its_fixed_point():
    # an O(1) bracket reaches adjacent doubles, the loop's fixed point,
    # after about 62 halvings of its views; the full loop takes 66
    f, calls = _counting(lambda x: np.cos(x) - x)
    assert _same_bits(bisect(f, 0.0, 1.0),
                      _reference_bisect(lambda x: np.cos(x) - x, 0.0, 1.0))
    assert len(calls) <= 65


def test_bisect_cap_bounds_the_halvings():
    # the int64 views of nonnegative doubles span less than 2^63, so any
    # bracket, whatever its scale, takes at most 63 halvings: 65 calls of f
    # with the two ends, within the 66 of the reference's 64 halvings
    for lo, hi in [(0.0, 1e300), (5e-324, 1.0), (1.0, 2.0), (0.0, math.inf)]:
        root = float(_bit_mid(lo, hi)) * (1.0 + 2.0 ** -30)  # off midpoints
        f, calls = _counting(lambda x: x - root)
        out = bisect(f, lo, hi)
        assert len(calls) <= 65, (lo, hi)
        assert _same_bits(out, _reference_bisect(lambda x: x - root, lo, hi))
        assert np.nextafter(root, 0.0) <= out <= np.nextafter(root, np.inf)


def test_bisect_reaches_a_root_at_the_end_0_exactly():
    # the views run down through the subnormals to 5e-324, next to 0, and
    # the midpoint 0.5 * (0 + 5e-324) rounds to 0
    for hi in (1.0, 1e300, 5e-324):
        f, calls = _counting(lambda x: x)
        assert _same_bits(bisect(f, 0.0, hi), 0.0)
        assert len(calls) <= 65
    assert _same_bits(bisect(lambda x: 2.0 * x, np.zeros(2),
                             np.array([1.0, 1e300])), np.zeros(2))


@pytest.mark.parametrize("f, lo, hi, root", [
    (lambda x: x - 1 / 3, 0.0, 1.0, 1 / 3),   # a midpoint zero the lower end takes
    (lambda x: 1 / 3 - x, 0.0, 1.0, 1 / 3),   # ... and the upper end, f falling
    (lambda x: x - 0.5, 0.5, 1.0, 0.5),       # a root at lo
    (lambda x: 0.5 - x, 0.5, 1.0, 0.5),       # a root at lo, f falling
    (lambda x: -x, 0.0, 1.0, 0.0),
    (lambda x: x - 1.0, 0.0, 1.0, 1.0),       # a root at hi
    (lambda x: 1.0 - x, 0.0, 1.0, 1.0),
], ids=["third-rising", "third-falling", "lo-rising", "lo-falling",
        "zero-falling", "hi-rising", "hi-falling"])
def test_bisect_keeps_an_exact_root(f, lo, hi, root):
    # where f is exactly 0 at an end of the final pair, that end is the
    # answer: 0.5 * (lo + hi) rounds to even and can be the other double
    # (1/3 came back as 0.33333333333333337), and a root at lo with f
    # falling used to let the bracket run to hi
    out = bisect(f, lo, hi)
    assert _same_bits(out, root) and f(out) == 0.0
    assert type(out) is np.float64 and hash(out) == hash(root)  # a scalar
    vec = bisect(f, np.array([lo, lo]), np.array([hi, hi]))
    assert _same_bits(vec, [root, root])


@settings(max_examples=300, deadline=None)
@given(st.lists(_brackets(), min_size=1, max_size=5),
       st.sampled_from(sorted(_SHAPES)), st.sampled_from([1.0, -1.0]))
@example([(0.5, 0.5, 0.5)], "linear", 1.0)  # lo == hi
@example([(0.0, 1.0, float(_bit_mid(0.0, 1.0))),
          (0.0, 1.0, float(_bit_mid(_bit_mid(0.0, 1.0), 1.0)))],
         "linear", 1.0)  # exact zeros at midpoints
@example([(0.0, 1e300, 0.0)], "cubic", -1.0)  # a root at the end 0
@example([(1e300, 5e-324, 1.0)], "step", 1.0)  # ends in falling order
def test_bisect_equals_the_full_halving_loop(brackets, shape, sign):
    lo, hi, root = (np.array(v) for v in zip(*brackets))
    f = lambda x: sign * _SHAPES[shape](x - root)
    with np.errstate(over="ignore"):
        assert _same_bits(bisect(f, lo, hi), _reference_bisect(f, lo, hi))
        g = lambda x: sign * _SHAPES[shape](x - root[0])
        assert _same_bits(bisect(g, lo[0], hi[0]),
                          _reference_bisect(g, lo[0], hi[0]))


@pytest.mark.parametrize("name", ["touching_system", "gap_system"])
def test_surface_solves_equal_the_full_halving_loop(request, monkeypatch,
                                                    name):
    # every f the surface route bisects, on the 181-point grid
    sizes = []

    def checked(f, lo, hi):
        out = bisect(f, lo, hi)
        assert _same_bits(out, _reference_bisect(f, lo, hi))
        sizes.append(np.size(lo))
        return out

    monkeypatch.setattr(surface, "bisect", checked)
    grid = np.linspace(0.0, 1.0, 181)
    surface.limit_curve(request.getfixturevalue(name), grid)
    for beta in grid[1:-1:30]:
        surface.solve_w(StarConfig(2.0, beta, 1.0 - beta))  # the gap solve
    s = grid[140:-1]
    surface.pushed_beta(2.0, (s, 1.0 - s),
                        surface.solve_x0(1.0, 2.0))  # a ray solve on an array
    assert sizes.count(1) >= 5 and sum(n > 1 for n in sizes) >= 3
