import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angelesco import NumericalFailure, surface
from angelesco.rootfind import DEFAULT_ITERS, bisect, expand_upper


def _reference_bisect(f, lo, hi, iters=DEFAULT_ITERS):
    """The halving loop without an exit: always exactly ``iters`` halvings."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(f(lo), dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f(mid), dtype=float)
        same = (fm > 0) == (flo > 0)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _counting(f):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)
    return counted, calls


_FINITE = st.floats(-1e300, 1e300)


@st.composite
def _brackets(draw):
    """(lo, hi, root): roots inside, on a bisection midpoint or at an end."""
    a, b = sorted((draw(_FINITE), draw(_FINITE)))
    where = draw(st.sampled_from(["inside", "midpoint", "end"]))
    if where == "inside":
        root = a if a == b else draw(st.floats(a, b))  # a, b may be 0, -0
    elif where == "midpoint":
        lo, hi = a, b
        for up in draw(st.lists(st.booleans(), max_size=60)):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if up else (lo, mid)
        root = 0.5 * (lo + hi)
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
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(NumericalFailure):
        bisect(lambda x: x * x + 1.0, np.array([-1.0]), np.array([1.0]))


def test_bisect_failure_context_is_json():
    with pytest.raises(NumericalFailure) as exc:
        bisect(lambda x: x * x + 1.0, np.array([-1.0, 0.0]),
               np.array([1.0, 2.0]))
    ctx = exc.value.context
    assert json.loads(json.dumps(ctx)) == ctx == {"lo": [-1.0, 0.0],
                                                  "hi": [1.0, 2.0]}


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
        bisect(lambda x: np.sqrt(x) - 0.5, -1.0, 1.0)


def test_bisect_reads_signs_not_their_product():
    # tiny values of one sign: their product underflows to 0
    with pytest.raises(NumericalFailure, match="bracket"):
        bisect(lambda x: 1e-200 * (x * x + 1.0), -1.0, 1.0)
    # a root at one end and an infinite value at the other: 0 * inf is NaN
    root = bisect(lambda x: np.where(x == 1.0, np.inf, x), 0.0, 1.0)
    assert root == 2.0 ** -(DEFAULT_ITERS + 1)


def test_bisect_stops_at_its_fixed_point():
    # an O(1) bracket reaches adjacent doubles after about 54 halvings;
    # the full loop would take 2 + DEFAULT_ITERS = 112 evaluations
    f, calls = _counting(lambda x: np.cos(x) - x)
    assert _same_bits(bisect(f, 0.0, 1.0),
                      _reference_bisect(lambda x: np.cos(x) - x, 0.0, 1.0))
    assert len(calls) <= 64


def test_bisect_cap_bounds_the_halvings():
    # a root at the bracket end 0 is approached through the subnormals,
    # so the cap ends the loop
    f, calls = _counting(lambda x: x)
    assert _same_bits(bisect(f, 0.0, 1.0), 2.0 ** -(DEFAULT_ITERS + 1))
    assert len(calls) == 2 + DEFAULT_ITERS
    f, calls = _counting(lambda x: x - 1.0 / 3.0)
    assert _same_bits(bisect(f, 0.0, 1.0, iters=10),
                      _reference_bisect(lambda x: x - 1.0 / 3.0, 0.0, 1.0, 10))
    assert len(calls) == 12


@settings(max_examples=300, deadline=None)
@given(st.lists(_brackets(), min_size=1, max_size=5),
       st.sampled_from(sorted(_SHAPES)), st.sampled_from([1.0, -1.0]),
       st.sampled_from([DEFAULT_ITERS, 0, 1, 30, 200]))
@example([(0.5, 0.5, 0.5)], "linear", 1.0, DEFAULT_ITERS)  # lo == hi
@example([(0.0, 1.0, 0.5), (0.0, 1.0, 0.25)], "linear", 1.0,
         DEFAULT_ITERS)  # exact zeros at midpoints
@example([(-1e300, 1e300, 0.0)], "cubic", -1.0, DEFAULT_ITERS)  # the cap
def test_bisect_equals_the_full_halving_loop(brackets, shape, sign, iters):
    lo, hi, root = (np.array(v) for v in zip(*brackets))
    f = lambda x: sign * _SHAPES[shape](x - root)
    with np.errstate(over="ignore"):
        assert _same_bits(bisect(f, lo, hi, iters),
                          _reference_bisect(f, lo, hi, iters))
        g = lambda x: sign * _SHAPES[shape](x - root[0])
        assert _same_bits(bisect(g, lo[0], hi[0], iters),
                          _reference_bisect(g, lo[0], hi[0], iters))


@pytest.mark.parametrize("name", ["touching_system", "gap_system"])
def test_surface_solves_equal_the_full_halving_loop(request, monkeypatch,
                                                    name):
    # every f the surface route bisects, on the 181-point grid
    sizes = []

    def checked(f, lo, hi, *args, **kwargs):
        out = bisect(f, lo, hi, *args, **kwargs)
        assert _same_bits(out, _reference_bisect(f, lo, hi, *args, **kwargs))
        sizes.append(np.size(lo))
        return out

    monkeypatch.setattr(surface, "bisect", checked)
    surface.solve_tau0.cache_clear()  # solve the bracket ends here again
    grid = np.linspace(0.0, 1.0, 181)
    surface.limit_curve(request.getfixturevalue(name), grid)
    for beta in grid[1:-1:30]:
        surface.solve_u(2.0, beta)  # the gap-invariant solve
    surface.pushed_beta(2.0, grid[140:-1])  # a ray solve on an array
    assert sizes.count(1) >= 5 and sum(n > 1 for n in sizes) >= 3
