"""Every route scales exactly under a change of units by a power of two.

Scaling a system by 2^k scales its A's by 4^k and its B's by 2^k exactly,
and each route works in units of its own (the star frame, the ODE's end
gap, the lattice's hull), so the scaled system's curves are the base
curves scaled, bit for bit.  Timings that pick their units at random from
a seed rely on this.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from angelesco import (WEIGHT_KINDS, AngelescoSystem, Interval,
                       curve_from_lattice, limit_curve, plateau_bounds,
                       solve_lattice, solve_system, star_normalize)

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
