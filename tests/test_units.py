"""Every route computes in one frame of units, exact under powers of two.

Scaling a system by 2^k scales its A's by 4^k and its B's by 2^k exactly.
Every route computes on the system scaled to a hull length in [1/2, 1)
(``angelesco.systems.hull_units``) and maps its curve back exactly, so the
scaled system's curves are the base curves scaled, bit for bit, and all
three routes share one range of hull lengths and one message outside it.
Timings that pick their units at random from a seed rely on this.
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

from angelesco import (WEIGHT_KINDS, AngelescoSystem, Interval,
                       curve_from_lattice, limit_curve, plateau_bounds,
                       solve_lattice, solve_system, star_normalize)
from angelesco.cli import main

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
