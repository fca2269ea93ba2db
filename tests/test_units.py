"""Every route computes in one frame of units, exact under powers of two.

Scaling a system by 2^k scales its A's by 4^k and its B's by 2^k exactly.
Every route computes on the system scaled to a hull length in [1/2, 1)
(``angelesco.systems.hull_units``) and maps its curve back exactly, so the
scaled system's curves are the base curves scaled, bit for bit, and all
three routes share one range of hull lengths and one message outside it.
Timings that pick their units at random from a seed rely on this.

The mirror x -> -x is a symmetry of the limits too, but not an exact one in
floating point: each route's curve of the reflected system, carried back by
``AffineMap(-1, 0)``, meets its curve of the system to a stated bound.  On
the same draws the three routes meet each other in A/L^2 and B/L.
"""
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angelesco import (WEIGHT_KINDS, AffineMap, AngelescoSystem, Interval,
                       curve_from_lattice, limit_curve, plateau_bounds,
                       pushforward_limits, reflect, solve_lattice,
                       solve_system, star_normalize)
from angelesco.cli import EXCLUDE_MARGIN, TOL_PAIR_LATTICE, main
from angelesco.crossval import compare, compared_points

GRID = np.linspace(0.0, 1.0, 41)


def _system(alpha, beta, w1, w2, k):
    return AngelescoSystem(Interval(math.ldexp(-alpha, k), 0.0),
                           Interval(math.ldexp(beta, k), math.ldexp(1.0, k)),
                           w1, w2)


def _curves(sys):
    """The surface, ODE and lattice (level 64, extrapolated) curves."""
    info = plateau_bounds(star_normalize(sys)[0])
    return info, (limit_curve(sys, GRID, info), solve_system(sys, info, GRID),
                  curve_from_lattice(solve_lattice(sys, 64), GRID, True))


def _assert_scaled(base, scaled, k):
    """Each curve of ``scaled`` is that of ``base`` with A by 4^k and B by
    2^k, bit for bit, and both keep the contract."""
    for b, c in zip(base, scaled):
        assert np.array_equal(c.s, b.s)
        for f in ("A1", "A2"):
            assert np.array_equal(getattr(c, f),
                                  np.ldexp(getattr(b, f), 2 * k)), (c.method, f)
        for f in ("B1", "B2"):
            assert np.array_equal(getattr(c, f),
                                  np.ldexp(getattr(b, f), k)), (c.method, f)
        # the endpoint rule: A1 is 0 at s = 0 and A2 at s = 1, nowhere else
        assert c.validate() is c and b.validate() is b
        assert c.A1[0] == 0.0 and c.A2[-1] == 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x),
       st.just(0.0) | st.floats(1e-4, 0.9),
       st.sampled_from(WEIGHT_KINDS), st.sampled_from(WEIGHT_KINDS),
       st.integers(-60, 60))
def test_every_route_scales_exactly_under_power_of_two_units(alpha, beta,
                                                             w1, w2, k):
    info, base = _curves(_system(alpha, beta, w1, w2, 0))
    scaled_info, scaled = _curves(_system(alpha, beta, w1, w2, k))
    # the plateau lives on rays, which no change of units moves
    assert scaled_info == info
    _assert_scaled(base, scaled, k)


@pytest.mark.parametrize("k", [-500, 512])
@pytest.mark.parametrize("beta", [0.0, 0.25])
def test_every_route_scales_exactly_at_the_ends_of_the_range(beta, k):
    # hull lengths 3 * 2^-500 ~ 1e-150 and 3 * 2^512 ~ 4e154: A ~ L^2 is
    # near the ends of the normal doubles, and no route overflows,
    # underflows or falls back on its way there
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, base = _curves(_system(2.0, beta, "chebyshev2", "chebyshev2", 0))
        _, scaled = _curves(_system(2.0, beta, "chebyshev2", "chebyshev2", k))
    _assert_scaled(base, scaled, k)
    lattice = scaled[2].meta
    assert lattice["linear_points"] == 0


# k / 128, so the mirrored grid 1 - s is this grid, exactly
DYADIC = np.linspace(0.0, 1.0, 129)
# each route's bound on its mirror difference in A/L^2 and B/L, 5 times or
# more the worst over the 60 draws of the test (surface 7.8e-16, ode
# 2.2e-16, dis 7.5e-14); 300 draws of other seeds read at most 9.0e-16,
# 4.0e-16 and 1.1e-13
MIRROR_BOUNDS = {"surface": 4e-15, "ode": 2e-15, "dis": 5e-13}
# the bound on surface vs ODE in A/L^2 and B/L over the whole grid; over
# 360 draws (the test's 60, and 100 each of seeds 1, 2 and 3) it read at
# most 1.33e-15, and the lattice pairs at most 2.9e-4 against their
# TOL_PAIR_LATTICE, on a touching draw with chebyshev1 on the left
TOL_SURFACE_ODE = 1e-14


def _mirror_curves(sys):
    """The mask of the dyadic grid's points the lattice pairs compare, and
    the surface, ODE and lattice (level 256, extrapolated) curves there."""
    info = plateau_bounds(star_normalize(sys)[0])
    return (compared_points(DYADIC, info.c1, info.c2, EXCLUDE_MARGIN),
            (limit_curve(sys, DYADIC, info), solve_system(sys, info, DYADIC),
             curve_from_lattice(solve_lattice(sys, 256), DYADIC, True)))


def _assert_routes_agree(draw, length, compared, curves):
    """Surface and ODE agree over the whole grid, and the lattice with each
    on the ``compared`` points, if there are any, in A/L^2 and B/L."""
    surface, ode, dis = curves
    worst = compare(surface, ode, length=length).worst()
    assert worst <= TOL_SURFACE_ODE, (draw, worst)
    if np.any(compared):
        for other in (surface, ode):
            worst = compare(dis, other, compared, length).worst()
            assert worst <= TOL_PAIR_LATTICE, (draw, other.method, worst)


def _mirror_draws(n, seed):
    """``n`` draws of (alpha, beta, w1, w2): alpha log-uniform in
    [1e-6, 1e6], beta 0 with probability 0.3 and otherwise log-uniform in
    [1e-12, 0.9], each weight one of the three kinds."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        alpha = 10.0 ** rng.uniform(-6.0, 6.0)
        beta = (0.0 if rng.random() < 0.3
                else 10.0 ** rng.uniform(-12.0, math.log10(0.9)))
        w1, w2 = (WEIGHT_KINDS[i] for i in rng.integers(0, 3, 2))
        yield alpha, beta, w1, w2


def test_every_route_is_mirror_symmetric_to_a_bound():
    # each route's curve of the reflected system, read back through the
    # reflection, is its curve of the system to within MIRROR_BOUNDS; on
    # the system and on its reflection the routes agree with each other
    back = AffineMap(-1.0, 0.0)
    for draw in _mirror_draws(60, 7):
        sys = _system(*draw, 0)
        length = sys.hull_length
        compared, curves = _mirror_curves(sys)
        hat_compared, hats = _mirror_curves(reflect(sys))
        for curve, hat in zip(curves, hats):
            mirrored = pushforward_limits(hat, back)
            assert np.array_equal(mirrored.s, curve.s)
            diff = compare(curve, mirrored, length=length).worst()
            assert diff <= MIRROR_BOUNDS[curve.method], (draw, curve.method,
                                                         diff)
        _assert_routes_agree(draw, length, compared, curves)
        _assert_routes_agree(draw, length, hat_compared, hats)


# decades d of the hull-length sweep (-10^d,0) u (0,10^d): both edges of
# the range and a few decades between them
DECADES = [*range(-165, -139), -100, -50, 0, 50, 100, *range(140, 158)]


def test_every_route_shares_one_range_of_hull_lengths(tmp_path):
    # each method answers from 1e-151 to 1e154 and exits 3 outside, with
    # the one range message in failure.json; no run crashes or warns
    for d in DECADES:
        codes = []
        for method in ("dis", "ode", "surface"):
            out = tmp_path / f"{method}{d}"
            with warnings.catch_warnings(), redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                rc = main(["compute", "--methods", method,
                           "--lattice_level", "64", f"--interval1=-1e{d},0",
                           f"--interval2=0,1e{d}", "--output_dir", str(out)])
            codes.append(rc)
            if rc == 3:
                record = json.loads((out / "failure.json").read_text())
                assert ("hull lengths from about 1e-150 to 1e153"
                        in record["message"]), (d, method)
                assert record["context"]["hull_length"] == 2.0 * float(f"1e{d}")
        assert codes == [0 if -151 <= d <= 154 else 3] * 3, (d, codes)
