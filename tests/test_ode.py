import json

import numpy as np
import pytest

from angelesco import (AngelescoSystem, Interval, NumericalFailure,
                       star_normalize)
import angelesco.ode as ode_mod
from angelesco.lattice import lagrange_interp
from angelesco.ode import (BoundaryPack, Branch, _rk4, assemble_curve,
                           boundary_values, endpoint_slopes, integrate_branch,
                           rhs, solve_system)
from angelesco.surface import limit_curve, limits_at, plateau_bounds


@pytest.fixture(scope="module")
def touching_pack(touching_system):
    return boundary_values(touching_system)


def test_boundary_values_touching(touching_pack):
    pk = touching_pack
    assert pk.C1_0 == pytest.approx(6.061862, abs=1e-6)
    assert pk.C2_0 == pytest.approx(0.0625, abs=1e-12)
    assert pk.C1_1 == pytest.approx(0.25, abs=1e-12)
    assert pk.C2_1 == pytest.approx(3.232051, abs=1e-6)
    assert pk.B1_0 == pytest.approx(-1.9747449, abs=1e-6)
    assert pk.B2_0 == pytest.approx(0.5, abs=1e-12)
    assert pk.B1_1 == pytest.approx(-1.0, abs=1e-12)
    assert pk.B2_1 == pytest.approx(0.8660254, abs=1e-6)
    # tighter regression pins on the closed forms
    assert pk.C1_0 == pytest.approx(6.0618621784789725, abs=1e-13)
    assert pk.C2_1 == pytest.approx(np.sqrt(3.0) + 1.5, abs=1e-13)


def test_boundary_identity(touching_pack):
    pk = touching_pack
    assert pk.gap_0 == pytest.approx(2.4747449, abs=1e-6)
    assert pk.gap_0 ** 2 == pytest.approx(6.1243622, abs=1e-6)
    assert pk.gap_0 ** 2 == pytest.approx(pk.C1_0 + pk.C2_0, abs=1e-10)
    assert pk.gap_1 ** 2 == pytest.approx(pk.C1_1 + pk.C2_1, abs=1e-10)


def test_boundary_values_depend_on_facing_edges_only(gap_system):
    # s = 0 data ignores i1.hi; s = 1 data ignores i2.lo
    pk = boundary_values(gap_system)
    closed0 = boundary_values(AngelescoSystem(Interval(-2.0, 0.25),
                                              Interval(0.25, 1.0)))
    assert (pk.C1_0, pk.C2_0, pk.B1_0, pk.B2_0) == (
        closed0.C1_0, closed0.C2_0, closed0.B1_0, closed0.B2_0)
    closed1 = boundary_values(AngelescoSystem(Interval(-2.0, 0.0),
                                              Interval(0.0, 1.0)))
    assert (pk.C1_1, pk.C2_1, pk.B1_1, pk.B2_1) == (
        closed1.C1_1, closed1.C2_1, closed1.B1_1, closed1.B2_1)


@pytest.mark.parametrize("c", [0.3, 0.7, 2.0])
def test_rhs_symmetric_point(c):
    d = rhs(0.5, np.array([c, c, -1.0, 1.0]))
    assert d[0] == pytest.approx(-4.0 * c, abs=1e-14)
    assert d[1] == pytest.approx(4.0 * c, abs=1e-14)


def test_rhs_solves_stated_linear_system():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = rng.uniform(0.01, 0.99)
        C1, C2 = rng.uniform(0.05, 5.0, 2)
        d = rhs(s, np.array([C1, C2, -1.0, 1.0]))
        M = np.array([[(1.0 + s) * s, (2.0 - s) * (1.0 - s)],
                      [s * s / C1, -(1.0 - s) ** 2 / C2]])
        b = np.array([-4.0 * s * C1 + 4.0 * (1.0 - s) * C2, -2.0])
        ref = np.linalg.solve(M, b)
        np.testing.assert_allclose(d[:2], ref, rtol=1e-11, atol=1e-11)


def test_rhs_positivity_guard():
    with pytest.raises(NumericalFailure):
        rhs(0.5, np.array([-0.1, 1.0, -1.0, 1.0]))
    with pytest.raises(NumericalFailure):
        rhs(0.5, np.array([1.0, 0.0, -1.0, 1.0]))
    with pytest.raises(NumericalFailure):
        rhs(0.5, (float("nan"), 1.0, -1.0, 1.0))
    with pytest.raises(NumericalFailure):
        rhs(0.5, (1.0, float("nan"), -1.0, 1.0))


def test_endpoint_slopes(touching_pack):
    d1, d2 = endpoint_slopes(touching_pack, 0)
    assert d2 == pytest.approx(0.125, abs=1e-12)
    assert d1 == pytest.approx(-24.622448, abs=1e-6)
    d1, d2 = endpoint_slopes(touching_pack, 1)
    assert d1 == pytest.approx(-2.0 * touching_pack.C1_1, abs=1e-14)
    assert d2 == pytest.approx(4.0 * touching_pack.C2_1
                               + 6.0 * touching_pack.C1_1, abs=1e-12)


def test_endpoint_slopes_are_rhs_limits(touching_pack):
    pk = touching_pack
    d = rhs(0.0, np.array([pk.C1_0, pk.C2_0, pk.B1_0, pk.B2_0]))
    np.testing.assert_allclose(d[:2], endpoint_slopes(pk, 0), rtol=1e-13)
    d = rhs(1.0, np.array([pk.C1_1, pk.C2_1, pk.B1_1, pk.B2_1]))
    np.testing.assert_allclose(d[:2], endpoint_slopes(pk, 1), rtol=1e-13)


def test_branches_mirror_on_a_symmetric_system():
    # (-1,0) u (0,1) is its own reflection: the forward branch at s is the
    # backward branch at 1 - s with C1 <-> C2 and B1 <-> -B2
    pk = boundary_values(AngelescoSystem(Interval(-1.0, 0.0),
                                         Interval(0.0, 1.0)))
    fwd = integrate_branch(pk, 0, 1.0)
    bwd = integrate_branch(pk, 1, 0.0)
    s = np.linspace(0.0, 1.0, 101)
    f = fwd.sample(s)
    b = bwd.sample(1.0 - s)
    np.testing.assert_allclose(f[:, 0], b[:, 1], rtol=0, atol=1e-13)
    np.testing.assert_allclose(f[:, 1], b[:, 0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(f[:, 2], -b[:, 3], rtol=0, atol=1e-13)
    np.testing.assert_allclose(f[:, 3], -b[:, 2], rtol=0, atol=1e-13)


def test_branch_rejects_a_side_other_than_0_or_1(touching_pack):
    with pytest.raises(ValueError, match="side must be 0 or 1"):
        integrate_branch(touching_pack, 2, 0.5)


def test_branch_drift_and_splice(touching_system, touching_info):
    cv = solve_system(touching_system, touching_info,
                      np.linspace(0.0, 1.0, 181))
    drift = cv.meta["identity_drift"]
    assert drift["forward"] <= 1e-8
    assert drift["backward"] <= 1e-8
    mism = cv.meta["splice_mismatch"]
    assert mism["ok"]
    assert max(mism["at_c1_vs_c2"]) <= 1e-8


@pytest.mark.parametrize("name", ["touching", "gap"])
def test_splice_verdict_is_scale_free(name, request):
    # copies scaled by 2^k map exactly, so the mismatch scaled by the
    # endpoint gap (A over gap^2, B over gap) and its verdict are the same
    base = request.getfixturevalue(f"{name}_system")
    info = request.getfixturevalue(f"{name}_info")
    seen = []
    for k in (-20, 0, 20):
        lam = 2.0 ** k
        sys = AngelescoSystem(Interval(lam * base.i1.lo, lam * base.i1.hi),
                              Interval(lam * base.i2.lo, lam * base.i2.hi))
        mism = solve_system(sys, info, np.linspace(0.0, 1.0, 181)
                            ).meta["splice_mismatch"]
        pack = boundary_values(sys)
        gap = min(pack.gap_0, pack.gap_1)
        scaled = np.array(mism["at_c1_vs_c2"]) / [gap * gap, gap * gap, gap, gap]
        seen.append((mism["ok"], scaled.tolist()))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0]
    # the raw mismatch of the 2^20 copy is far above the old absolute 1e-4
    assert max(mism["at_c1_vs_c2"]) > 1e-4


def test_a_grid_point_on_the_threshold_ray_takes_the_plateau(
        touching_system, touching_info, touching_pack):
    # touching: c1 = c2, and a grid point there is a plateau point in both
    # routes; the ODE gives it the mean of the two branch ends
    c = touching_info.c1
    grid = np.array([0.0, 0.25, c, 0.75, 1.0])
    forward = integrate_branch(touching_pack, 0, c)
    backward = integrate_branch(touching_pack, 1, c)
    cv = assemble_curve(forward, backward, c, c, grid)
    mean = 0.5 * (np.array(forward.limit_values(np.array([c])))
                  + np.array(backward.limit_values(np.array([c]))))
    p = touching_info.plateau
    sf = limit_curve(touching_system, grid, info=touching_info)
    for j, f in enumerate(("A1", "A2", "B1", "B2")):
        assert getattr(cv, f)[2] == mean[j, 0], f
        # the star frame of (-2, 0) u (0, 1) is the user frame
        assert getattr(sf, f)[2] == getattr(p, f), f


def test_branch_stop_validation(touching_pack):
    with pytest.raises(ValueError):
        integrate_branch(touching_pack, 0, 0.0)
    with pytest.raises(ValueError):
        integrate_branch(touching_pack, 1, 1.0)


def test_ode_matches_surface(touching_system, touching_info,
                             gap_system, gap_info):
    grid = np.linspace(0.0, 1.0, 181)
    for sys, info in ((touching_system, touching_info),
                      (gap_system, gap_info)):
        cv = solve_system(sys, info, grid)
        sf = limit_curve(sys, grid, info=info)
        for f in ("A1", "A2", "B1", "B2"):
            assert np.max(np.abs(getattr(cv, f) - getattr(sf, f))) < 1e-6


@pytest.mark.parametrize("name", ["touching", "gap"])
def test_ode_reaches_surface_digits(name, request):
    # RK4 from the exact endpoint state has no start-up error floor: at the
    # default step count the ODE curve meets the surface to near rounding
    sys = request.getfixturevalue(f"{name}_system")
    info = request.getfixturevalue(f"{name}_info")
    grid = np.linspace(0.0, 1.0, 181)
    cv = solve_system(sys, info, grid)
    sf = limit_curve(sys, grid, info=info)
    gap = max(np.max(np.abs(getattr(cv, f) - getattr(sf, f)))
              for f in ("A1", "A2", "B1", "B2"))
    assert gap <= 1e-12
    assert max(cv.meta["splice_mismatch"]["at_c1_vs_c2"]) <= 1e-12


def test_forward_branch_continues_touching_curve(gap_system, gap_info):
    # closing the gap from the right leaves the s = 0 data unchanged, so the
    # forward branch (the curve on s <= c1) follows the touching system
    # sharing the facing edges
    grid = np.linspace(0.0, 1.0, 181)
    cv = solve_system(gap_system, gap_info, grid)
    keep = grid <= gap_info.c1
    sub = grid[keep]
    assert sub[-1] <= gap_info.c1  # the forward branch's span
    closed = AngelescoSystem(Interval(-2.0, 0.25), Interval(0.25, 1.0))
    info = plateau_bounds(star_normalize(closed)[0])
    ref = solve_system(closed, info, sub)
    for f in ("A1", "A2", "B1", "B2"):
        assert np.max(np.abs(getattr(cv, f)[keep] - getattr(ref, f))) < 1e-9


def test_solve_system_rejects_a_bad_grid_as_input(touching_system,
                                                  touching_info):
    # the caller's grid is input (ValueError), not a numerical failure
    with pytest.raises(ValueError, match="grid"):
        solve_system(touching_system, touching_info, np.array([0.3, 0.2]),
                     steps_per_unit=100)


def test_assembled_curve_endpoints_exact(touching_system, touching_info,
                                         touching_pack):
    cv = solve_system(touching_system, touching_info,
                      np.linspace(0.0, 1.0, 21))
    assert cv.A1[0] == 0.0
    assert cv.A2[-1] == 0.0
    assert cv.A2[0] == touching_pack.C2_0
    assert cv.A1[-1] == touching_pack.C1_1
    assert cv.B1[0] == touching_pack.B1_0
    assert cv.B2[-1] == touching_pack.B2_1


def test_monotone_structure_near_ends(touching_pack, touching_info):
    fwd = integrate_branch(touching_pack, 0, touching_info.c1)
    assert np.all(np.diff(fwd.y[:100, 1]) > 0)      # C2 grows off s = 0
    assert np.all(np.diff(fwd.y[:100, 0]) < 0)      # C1 falls
    bwd = integrate_branch(touching_pack, 1, touching_info.c2)
    assert np.all(np.diff(bwd.y[-100:, 0]) < 0)     # C1 still falling into s = 1


def test_plateau_values_match_surface(gap_system, gap_info):
    grid = np.linspace(0.0, 1.0, 181)
    cv = solve_system(gap_system, gap_info, grid)
    mid = 0.5 * (gap_info.c1 + gap_info.c2)
    i = int(np.argmin(np.abs(grid - mid)))
    assert gap_info.c1 < grid[i] < gap_info.c2
    p = limits_at(gap_system, float(grid[i]), info=gap_info)
    assert cv.A1[i] == pytest.approx(p.A1, abs=1e-8)
    assert cv.A2[i] == pytest.approx(p.A2, abs=1e-8)
    assert cv.B1[i] == pytest.approx(p.B1, abs=1e-8)
    assert cv.B2[i] == pytest.approx(p.B2, abs=1e-8)


def test_positivity_failure_reports_last_good_s():
    # fabricated data that drives C1 through zero almost immediately
    pk = BoundaryPack(1e-4, 25.0, 0.25, 3.0, -4.5, 0.5001, -1.0, 0.8)
    with pytest.raises(NumericalFailure) as exc:
        integrate_branch(pk, 0, 0.5)
    ctx = exc.value.context
    assert "last_good_s" in ctx
    # plain floats, so a failure record can be written as JSON
    assert all(type(v) is float for v in ctx.values())
    assert json.loads(json.dumps(ctx)) == ctx


@pytest.mark.parametrize("steps", [0, -5, 0.5, float("nan")])
def test_branch_rejects_step_count_below_one(touching_pack, steps):
    with pytest.raises(ValueError, match="steps_per_unit"):
        integrate_branch(touching_pack, 0, 0.5, steps_per_unit=steps)


def _reference_branch(pack, side, stop, steps_per_unit):
    """The RK4 branch loop written on 4-element numpy arrays.

    A reference for :func:`angelesco.ode._rk4`, whose float loop forms every
    stage with the same operations in the same order and so must reproduce
    these nodes bit for bit.  Returns (s, y, d, identity_drift), ascending.
    """
    def f(s, y):
        C1, C2 = y[0], y[1]
        q = (1.0 + s) * (1.0 - s) / C2 + s * (2.0 - s) / C1
        d1 = -2.0 * (2.0 * (1.0 - s) * C1 / C2 + (3.0 - 2.0 * s)) / q
        d2 = 2.0 * ((1.0 + 2.0 * s) + 2.0 * s * C2 / C1) / q
        root = np.sqrt(C1 + C2)
        dB1 = (2.0 * C1 + s * d1) / root * (1.0 + C2 / C1)
        dB2 = (2.0 * C2 - (1.0 - s) * d2) / root * (1.0 + C1 / C2)
        return np.array([d1, d2, dB1, dB2])

    if side == 0:
        s, y = 0.0, np.array([pack.C1_0, pack.C2_0, pack.B1_0, pack.B2_0])
    else:
        s, y = 1.0, np.array([pack.C1_1, pack.C2_1, pack.B1_1, pack.B2_1])
    s0 = s
    n = max(1, int(np.ceil(abs(stop - s0) * steps_per_unit)))
    h = (stop - s0) / n
    s_nodes, y_nodes, d_nodes = np.empty(n + 1), np.empty((n + 1, 4)), \
        np.empty((n + 1, 4))
    drift = 0.0
    for i in range(n):
        k1 = f(s, y)
        k2 = f(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(s + h, y + h * k3)
        s_nodes[i], y_nodes[i], d_nodes[i] = s, y, k1
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = s0 + (i + 1) * h
        drift = max(drift, abs(y[3] - y[2] - np.sqrt(y[0] + y[1])))
    s_nodes[n], y_nodes[n], d_nodes[n] = s, y, f(s, y)
    if side == 1:
        s_nodes, y_nodes, d_nodes = s_nodes[::-1], y_nodes[::-1], d_nodes[::-1]
    return s_nodes, y_nodes, d_nodes, drift


@pytest.mark.parametrize("name", ["touching", "gap"])
def test_branches_match_array_reference_bit_for_bit(name, request):
    sys = request.getfixturevalue(f"{name}_system")
    info = request.getfixturevalue(f"{name}_info")
    pk = boundary_values(sys)
    for side, stop in ((0, info.c1), (1, info.c2)):
        s0, y0 = ((0.0, (pk.C1_0, pk.C2_0, pk.B1_0, pk.B2_0)) if side == 0
                  else (1.0, (pk.C1_1, pk.C2_1, pk.B1_1, pk.B2_1)))
        n = max(1, int(np.ceil(abs(stop - s0) * 2000)))
        br_s, br_y, br_drift = _rk4(s0, y0, stop, n)
        if side == 1:
            br_s, br_y = br_s[::-1], br_y[::-1]
        s, y, d, drift = _reference_branch(pk, side, stop, 2000)
        assert br_s.tolist() == s.tolist()
        assert br_y.tolist() == y.tolist()
        assert br_drift == drift


def _start(pk, side):
    # a branch's endpoint and closed-form starting state
    if side == 0:
        return 0.0, (pk.C1_0, pk.C2_0, pk.B1_0, pk.B2_0)
    return 1.0, (pk.C1_1, pk.C2_1, pk.B1_1, pk.B2_1)


def _branch_errors(i1, i2):
    """Each branch of the system with its error at the 181 grid points.

    The error is in the estimate's units (C over gap^2, B over gap, gap at
    the branch's endpoint), against plain RK4 at 200000 steps per unit.
    """
    sys = AngelescoSystem(Interval(*i1), Interval(*i2))
    info = plateau_bounds(star_normalize(sys)[0])
    pk = boundary_values(sys)
    grid = np.linspace(0.0, 1.0, 181)
    out = []
    for side, stop in ((0, info.c1), (1, info.c2)):
        br = integrate_branch(pk, side, stop)
        s0, y0 = _start(pk, side)
        n = max(1, int(np.ceil(abs(stop - s0) * 200000)))
        _, ref, _ = _rk4(s0, y0, stop, n)
        g = grid[(grid >= br.s[0]) & (grid <= br.s[-1])]
        want = lagrange_interp(ref.T, (g - s0) * (n / (stop - s0))).T
        gap = pk.gap_0 if side == 0 else pk.gap_1
        scale = np.array([gap * gap, gap * gap, gap, gap])
        err = np.abs(br.sample(g) - want) / scale
        out.append((br, float(err.max()) if g.size else 0.0))
    return out


@pytest.mark.parametrize("i1,i2", [((-2.0, 0.0), (0.0, 1.0)),
                                   ((-2.0, 0.0), (0.25, 1.0)),
                                   ((-1.0, 0.0), (0.0, 1.0)),
                                   ((-1.0, 0.0), (2.0, 3.0)),
                                   ((-1000.0, 0.0), (0.0, 1.0)),
                                   ((-1e-3, 0.0), (0.0, 1.0)),
                                   ((-1e-6, 0.0), (0.0, 1.0))],
                         ids=["touching", "gap", "symmetric", "apart",
                              "alpha1e3", "alpha1e-3", "alpha1e-6-cap"])
def test_branch_error_is_within_its_estimate(i1, i2):
    for br, err in _branch_errors(i1, i2):
        est = br.meta["error_estimate"]
        assert err <= est, (br.side, err, est)
        if br.meta["stopped"] == "tolerance":
            assert est <= ode_mod._DOUBLING_TOL


def test_branch_steps_count_every_rk4_run(touching_pack, touching_info):
    # the first run takes n steps and each doubling one run of twice the last
    br = integrate_branch(touching_pack, 0, touching_info.c1, 100)
    n = int(np.ceil(touching_info.c1 * 100))
    k = br.meta["doublings"]
    assert br.meta["steps"] == n * (2 ** (k + 1) - 1)
    assert br.s.size == n * 2 ** k + 1


def test_unbalanced_system_takes_more_doublings(touching_system,
                                                touching_info):
    # one first-run step count, two systems: touching meets the tolerance
    # after one doubling, (-1000,0) u (0,1) only after four
    sys = AngelescoSystem(Interval(-1000.0, 0.0), Interval(0.0, 1.0))
    info = plateau_bounds(star_normalize(sys)[0])
    grid = np.linspace(0.0, 1.0, 181)
    easy = solve_system(touching_system, touching_info, grid)
    hard = solve_system(sys, info, grid)
    for name in ("forward", "backward"):
        assert easy.meta["branches"][name]["doublings"] == 1
        assert hard.meta["branches"][name]["doublings"] == 4
        assert hard.meta["branches"][name]["stopped"] == "tolerance"


def test_cap_returns_a_valid_curve_with_its_estimate():
    # (-1e-6,0) u (0,1) does not meet the tolerance within the cap: the
    # curve still passes the contract, and the estimate says how good it is
    sys = AngelescoSystem(Interval(-1e-6, 0.0), Interval(0.0, 1.0))
    info = plateau_bounds(star_normalize(sys)[0])
    cv = solve_system(sys, info, np.linspace(0.0, 1.0, 181))
    capped = [b for b in cv.meta["branches"].values() if b["stopped"] == "cap"]
    assert capped
    for b in capped:
        assert b["doublings"] == ode_mod._MAX_DOUBLINGS
        assert ode_mod._DOUBLING_TOL < b["error_estimate"] < 1e-8


def test_far_from_the_origin_stops_below_the_cap():
    # touching moved by 2^20: B ~ 1e6, so without the rounding floor the
    # B estimate could never meet the tolerance
    pk = boundary_values(AngelescoSystem(Interval(1048574.0, 1048576.0),
                                         Interval(1048576.0, 1048577.0)))
    for side, stop in ((0, 0.6), (1, 0.6)):
        br = integrate_branch(pk, side, stop)
        assert br.meta["stopped"] == "tolerance"
        assert br.meta["doublings"] < ode_mod._MAX_DOUBLINGS


@pytest.mark.parametrize("side", [0, 1])
def test_branch_sample_is_exact_on_quintics(side):
    # dense output is 6-point Lagrange on the uniform nodes
    rng = np.random.default_rng(side)
    coef = rng.uniform(-1.0, 1.0, size=(4, 6))
    s = np.linspace(0.2, 0.7, 41)
    y = np.stack([np.polyval(c, s) for c in coef], axis=1)
    br = Branch(side, s, y, 0.0, None)
    q = rng.uniform(0.2, 0.7, 100)
    got = br.sample(q)
    for j, c in enumerate(coef):
        assert np.max(np.abs(got[:, j] - np.polyval(c, q))) <= 1e-13
    assert np.array_equal(br.sample(s[[0, -1]]), y[[0, -1]])
