import json
from types import SimpleNamespace

import numpy as np
import pytest

from angelesco import (AngelescoSystem, BoundaryPack, Branch, Interval,
                       NumericalFailure, reflect, star_normalize)
import angelesco.ode as ode_mod
from angelesco.ode import (_jet, assemble_curve, boundary_values,
                           integrate_branch, rhs, solve_system)
from angelesco.surface import limit_curve, plateau_bounds, residue_limits
from angelesco.systems import plateau_zones


@pytest.fixture(scope="module")
def touching_pack(touching_system):
    return boundary_values(touching_system)


@pytest.fixture(scope="module")
def touching_hat(touching_system):
    # the reflected system's pack: its s = 0 is the user frame's s = 1
    return boundary_values(reflect(touching_system))


def _end_state(pk):
    # the closed-form state a branch starts from at s = 0
    return (pk.C1_0, pk.C2_0, pk.B1_0, pk.B2_0)


def _mirror_state(y):
    # the state at s = 1 from the reflected system's state at s = 0
    C1, C2, B1, B2 = y
    return (C2, C1, -B2, -B1)


def test_boundary_values_touching(touching_pack, touching_hat):
    pk = touching_pack
    assert pk.C1_0 == pytest.approx(6.061862, abs=1e-6)
    assert pk.C2_0 == pytest.approx(0.0625, abs=1e-12)
    assert pk.B1_0 == pytest.approx(-1.9747449, abs=1e-6)
    assert pk.B2_0 == pytest.approx(0.5, abs=1e-12)
    # s = 1 is the reflected pack's s = 0, mirrored
    C1_1, C2_1, B1_1, B2_1 = _mirror_state(_end_state(touching_hat))
    assert C1_1 == pytest.approx(0.25, abs=1e-12)
    assert C2_1 == pytest.approx(3.232051, abs=1e-6)
    assert B1_1 == pytest.approx(-1.0, abs=1e-12)
    assert B2_1 == pytest.approx(0.8660254, abs=1e-6)
    # tighter regression pins on the closed forms
    assert pk.C1_0 == pytest.approx(6.0618621784789725, abs=1e-13)
    assert C2_1 == pytest.approx(np.sqrt(3.0) + 1.5, abs=1e-13)


def test_boundary_identity(touching_pack, touching_hat):
    pk = touching_pack
    assert pk.gap_0 == pytest.approx(2.4747449, abs=1e-6)
    assert pk.gap_0 ** 2 == pytest.approx(6.1243622, abs=1e-6)
    assert pk.gap_0 ** 2 == pytest.approx(pk.C1_0 + pk.C2_0, abs=1e-10)
    hat = touching_hat
    assert hat.gap_0 ** 2 == pytest.approx(hat.C1_0 + hat.C2_0, abs=1e-10)


@pytest.mark.parametrize("i1,i2", [((-1e-30, 0.0), (0.0, 1.0)),
                                   ((-1e-20, 0.0), (0.0, 1.0)),
                                   ((-1e-9, 0.0), (0.0, 1.0)),
                                   ((-1e9, 0.0), (0.0, 1.0)),
                                   ((-2.0, 0.0), (1e-3, 1e9)),
                                   ((-1e-30, 0.0), (1e-3, 1e9)),
                                   ((-3.0, -1.0), (2.0, 7.0))],
                         ids=["1e-30", "1e-20", "1e-9", "1e9", "far-right",
                              "1e-30-far-right", "apart"])
def test_boundary_values_match_50_digit_reference(i1, i2):
    # the expanded closed forms in 50 digits from the same interval ends;
    # in doubles they cancel, C1_0 by 8e-4 relative at alpha = 1e-30
    mp = pytest.importorskip("mpmath")
    sys = AngelescoSystem(Interval(*i1), Interval(*i2))
    pk = boundary_values(sys)
    C1_1, C2_1, B1_1, B2_1 = _mirror_state(_end_state(
        boundary_values(reflect(sys))))
    got = {"C1_0": pk.C1_0, "C2_0": pk.C2_0, "B1_0": pk.B1_0,
           "B2_0": pk.B2_0, "C1_1": C1_1, "C2_1": C2_1, "B1_1": B1_1,
           "B2_1": B2_1}
    with mp.workdps(50):
        a1, b1, a2, b2 = (mp.mpf(v) for v in (*i1, *i2))
        root0 = mp.sqrt((a2 - a1) * (b2 - a1))
        root1 = mp.sqrt((b2 - b1) * (b2 - a1))
        ref = {"C2_0": ((b2 - a2) / 4) ** 2, "C1_1": ((b1 - a1) / 4) ** 2,
               "B1_0": (a1 + (a2 + b2) / 2 - root0) / 2,
               "B2_0": (a2 + b2) / 2, "B1_1": (a1 + b1) / 2,
               "B2_1": (b2 + (a1 + b1) / 2 + root1) / 2}
        ref["C1_0"] = (ref["B2_0"] - ref["B1_0"]) ** 2 - ref["C2_0"]
        ref["C2_1"] = (ref["B2_1"] - ref["B1_1"]) ** 2 - ref["C1_1"]
        for name, value in ref.items():
            err = abs(got[name] - value) / abs(value)
            assert err <= 1e-15, (name, float(err))


def test_boundary_values_depend_on_facing_edges_only(gap_system):
    # s = 0 data ignores i1.hi; s = 1 data (the reflected s = 0) ignores i2.lo
    pk = boundary_values(gap_system)
    closed0 = boundary_values(AngelescoSystem(Interval(-2.0, 0.25),
                                              Interval(0.25, 1.0)))
    assert pk == closed0
    closed1 = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0))
    assert (boundary_values(reflect(gap_system))
            == boundary_values(reflect(closed1)))


def test_reflected_pack_is_the_exact_mirror_of_the_s1_end_values():
    # the closed forms at s = 1, written directly in (i1, i2.hi): the
    # reflected system's s = 0 values are their mirror bit for bit, over
    # random lengths, gaps and shifts, touching systems included
    rng = np.random.default_rng(20)
    for k in range(2000):
        a1 = rng.uniform(-1e3, 1e3)
        b1 = a1 + 10.0 ** rng.uniform(-6, 6)
        a2 = b1 if k % 4 == 0 else b1 + 10.0 ** rng.uniform(-6, 6)
        sys = AngelescoSystem(Interval(a1, b1),
                              Interval(a2, a2 + 10.0 ** rng.uniform(-6, 6)))
        a1, b1, b2 = sys.i1.lo, sys.i1.hi, sys.i2.hi
        root1 = np.sqrt((b2 - b1) * (b2 - a1))
        gap1 = 0.5 * ((b2 - b1) + 0.5 * (b1 - a1) + root1)
        B1_1 = 0.5 * (a1 + b1)
        want = (((b1 - a1) / 4.0) ** 2,
                0.5 * ((b2 - b1) + root1) * (gap1 + 0.25 * (b1 - a1)),
                B1_1, B1_1 + gap1)
        hat = boundary_values(reflect(sys))
        assert _mirror_state(_end_state(hat)) == want, sys
        assert hat.gap_0 == want[3] - want[2], sys


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


def endpoint_slopes(pack):
    """Closed-form slopes (C1', C2') at s = 0, from the ODE system itself.

    Obtained by evaluating the system and its s-derivative at s = 0:
    C2' = 2 C2 and C1' = -4 C1 - 6 C2, the oracle for what :func:`rhs`
    must return at the endpoint state.  The reflected system's pack gives
    the slopes at s = 1, negated and swapped.
    """
    return -4.0 * pack.C1_0 - 6.0 * pack.C2_0, 2.0 * pack.C2_0


def test_endpoint_slopes(touching_pack, touching_hat):
    d1, d2 = endpoint_slopes(touching_pack)
    assert d2 == pytest.approx(0.125, abs=1e-12)
    assert d1 == pytest.approx(-24.622448, abs=1e-6)
    # at s = 1 the reflected pack's slopes, negated and swapped
    C1_1, C2_1, _, _ = _mirror_state(_end_state(touching_hat))
    e1, e2 = endpoint_slopes(touching_hat)
    assert -e2 == pytest.approx(-2.0 * C1_1, abs=1e-14)
    assert -e1 == pytest.approx(4.0 * C2_1 + 6.0 * C1_1, abs=1e-12)


def test_endpoint_slopes_are_rhs_limits(touching_pack, touching_hat):
    pk = touching_pack
    d = rhs(0.0, np.array(_end_state(pk)))
    np.testing.assert_allclose(d[:2], endpoint_slopes(pk), rtol=1e-13)
    e1, e2 = endpoint_slopes(touching_hat)
    d = rhs(1.0, _mirror_state(_end_state(touching_hat)))
    np.testing.assert_allclose(d[:2], (-e2, -e1), rtol=1e-13)


def test_rhs_is_equivariant_under_the_mirror():
    # the reflection maps s to 1 - s and the state through the mirror, so
    # the reflected system's branch solves the same ODE
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = rng.uniform(0.0, 1.0)
        y = (*10.0 ** rng.uniform(-6, 6, 2), *rng.uniform(-5.0, 5.0, 2))
        d = rhs(s, y)
        m = rhs(1.0 - s, _mirror_state(y))
        np.testing.assert_allclose(m, [-d[1], -d[0], d[3], d[2]],
                                   rtol=1e-12, atol=0)


def test_branches_mirror_on_a_symmetric_system():
    # (-1,0) u (0,1) is its own reflection: the forward branch at s is its
    # own value at 1 - s with C1 <-> C2 and B1 <-> -B2
    pk = boundary_values(AngelescoSystem(Interval(-1.0, 0.0),
                                         Interval(0.0, 1.0)))
    fwd = integrate_branch(pk, 1.0)
    s = np.linspace(0.0, 1.0, 101)
    f = fwd.sample(s)
    b = fwd.sample(1.0 - s)
    np.testing.assert_allclose(f[:, 0], b[:, 1], rtol=0, atol=1e-13)
    np.testing.assert_allclose(f[:, 1], b[:, 0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(f[:, 2], -b[:, 3], rtol=0, atol=1e-13)
    np.testing.assert_allclose(f[:, 3], -b[:, 2], rtol=0, atol=1e-13)


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
    for k in (-30, 0, 30):
        lam = 2.0 ** k
        sys = AngelescoSystem(Interval(lam * base.i1.lo, lam * base.i1.hi),
                              Interval(lam * base.i2.lo, lam * base.i2.hi))
        mism = solve_system(sys, info, np.linspace(0.0, 1.0, 181)
                            ).meta["splice_mismatch"]
        gap = min(boundary_values(sys).gap_0,
                  boundary_values(reflect(sys)).gap_0)
        scaled = np.array(mism["at_c1_vs_c2"]) / [gap * gap, gap * gap, gap, gap]
        seen.append((mism["ok"], scaled.tolist()))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0]
    # the raw mismatch of the 2^30 copy is far above the old absolute 1e-4
    assert max(mism["at_c1_vs_c2"]) > 1e-4


def test_splice_flags_a_wrong_small_A():
    # (-1e32,0) u (0,1): the forward branch stops at c1 = 1.0 (the threshold
    # ray 1 - 7.7e-17 rounded), where A2 = (1 - 1.0)^2 C2 = 0 against the
    # plateau's 2.85e14; against gap^2 ~ 1e64 that passed, against |A| not
    sys = AngelescoSystem(Interval(-1e32, 0.0), Interval(0.0, 1.0))
    info = plateau_bounds(star_normalize(sys)[0])
    mism = solve_system(sys, info, np.linspace(0.0, 1.0, 181)
                        ).meta["splice_mismatch"]
    assert info.c1 == 1.0
    assert mism["at_c1_vs_c2"][1] == pytest.approx(2.85e14, rel=0.01)
    assert not mism["ok"]


def test_a_grid_point_on_the_threshold_ray_takes_the_plateau(
        touching_system, touching_info, touching_pack, touching_hat):
    # touching: c1 = c2, and a grid point there is a plateau point in both
    # routes; the ODE gives it the mean of the two branch ends, the
    # reflected one read at its own stop 1 - c
    c, rest = touching_info.c1, touching_info.one_minus_c2
    grid = np.array([0.0, 0.25, c, 0.75, 1.0])
    forward = integrate_branch(touching_pack, c)
    backward = integrate_branch(touching_hat, rest)
    cv = assemble_curve(forward, backward, c, c, grid, touching_system, 0)
    a1, a2, b1, b2 = backward.limit_values(np.array([rest]))
    mean = 0.5 * (np.array(forward.limit_values(np.array([c])))
                  + np.array([a2, a1, -b2, -b1]))
    sf = limit_curve(touching_system, grid, info=touching_info)
    # the star frame of (-2, 0) u (0, 1) is the user frame
    const = residue_limits(2.0, touching_info.w, touching_info.d0)
    for j, f in enumerate(("A1", "A2", "B1", "B2")):
        assert getattr(cv, f)[2] == mean[j, 0], f
        assert getattr(sf, f)[2] == const[j], f


def test_branch_stop_validation(touching_pack):
    for stop in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="stop"):
            integrate_branch(touching_pack, stop)


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
    # the series start at the exact endpoint state, so there is no
    # start-up error floor: the ODE curve meets the surface to near rounding
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
                     max_steps=100)


def test_assembled_curve_endpoints_exact(touching_system, touching_info,
                                         touching_pack, touching_hat):
    cv = solve_system(touching_system, touching_info,
                      np.linspace(0.0, 1.0, 21))
    assert cv.A1[0] == 0.0
    assert cv.A2[-1] == 0.0
    assert cv.A2[0] == touching_pack.C2_0
    assert cv.B1[0] == touching_pack.B1_0
    assert cv.B2[0] == touching_pack.B2_0
    # s = 1 is the reflected pack's s = 0, mirrored
    assert cv.A1[-1] == touching_hat.C2_0
    assert cv.B1[-1] == -touching_hat.B2_0
    assert cv.B2[-1] == -touching_hat.B1_0


def test_monotone_structure_near_ends(touching_pack, touching_hat,
                                      touching_info):
    near = np.linspace(0.0, 0.1, 100)
    fwd = integrate_branch(touching_pack, touching_info.c1).sample(near)
    assert np.all(np.diff(fwd[:, 1]) > 0)      # C2 grows off s = 0
    assert np.all(np.diff(fwd[:, 0]) < 0)      # C1 falls
    bwd = integrate_branch(touching_hat,
                           touching_info.one_minus_c2).sample(near)
    # C1 still falling into s = 1: the reflected C2 grows off its s = 0
    assert np.all(np.diff(bwd[:, 1]) > 0)


def test_plateau_values_match_surface(gap_system, gap_info):
    grid = np.linspace(0.0, 1.0, 181)
    cv = solve_system(gap_system, gap_info, grid)
    mid = 0.5 * (gap_info.c1 + gap_info.c2)
    i = int(np.argmin(np.abs(grid - mid)))
    assert gap_info.c1 < grid[i] < gap_info.c2
    p = limit_curve(gap_system, [grid[i]], info=gap_info)
    for f in ("A1", "A2", "B1", "B2"):
        assert getattr(cv, f)[i] == pytest.approx(getattr(p, f)[0], abs=1e-8)


def test_positivity_failure_reports_last_good_s(monkeypatch,
                                                touching_pack):
    # a jet whose C1 falls steeply drives the state through zero within
    # the step the rule allows; the failure names the step's start
    real = ode_mod._jet

    def steep(s0, r, y):
        c1, c2, b1, b2 = real(s0, r, y)
        c1[1] = -100.0 * c1[0]
        return c1, c2, b1, b2

    monkeypatch.setattr(ode_mod, "_jet", steep)
    with pytest.raises(NumericalFailure, match="positivity") as exc:
        integrate_branch(touching_pack, 0.5)
    ctx = exc.value.context
    assert ctx["last_good_s"] == 0.0 and ctx["s"] > 0.0 and ctx["C1"] < 0.0
    # plain floats, so a failure record can be written as JSON
    assert all(type(v) is float for v in ctx.values())
    assert json.loads(json.dumps(ctx)) == ctx


def test_a_nonpositive_start_state_is_a_numerical_failure():
    with pytest.raises(NumericalFailure, match="positivity") as exc:
        integrate_branch(BoundaryPack(-1e-4, 25.0, -4.5, 0.5001), 0.5)
    assert exc.value.context["s"] == 0.0


def test_a_subnormal_start_state_is_a_numerical_failure():
    # the branch beside the interval of length 1e-160 starts from
    # C2 = (1e-160 / 4)^2, a subnormal, where its step rule would give
    # h = 0 (the mirror's backward branch starts from the same pack)
    sys = AngelescoSystem(Interval(-1.0, 0.0), Interval(0.0, 1e-160))
    with pytest.raises(NumericalFailure, match="normal doubles") as exc:
        integrate_branch(boundary_values(sys), 0.5)
    ctx = exc.value.context
    assert ctx["s"] == 0.0 and 0.0 < ctx["C2"] < np.finfo(float).tiny
    assert json.loads(json.dumps(ctx)) == ctx
    plateau = SimpleNamespace(c1=0.5, c2=0.5, one_minus_c2=0.5)
    with pytest.raises(NumericalFailure, match="normal doubles") as exc:
        solve_system(sys, plateau, np.linspace(0.0, 1.0, 11))
    assert exc.value.context["interval_lengths"] == [1.0, 1e-160]


def test_a_zero_step_is_a_numerical_failure(monkeypatch, touching_pack):
    monkeypatch.setattr(ode_mod, "_STEP_TOL", 0.0)
    with pytest.raises(NumericalFailure, match="zero step") as exc:
        integrate_branch(touching_pack, 0.5)
    assert exc.value.context == {"s": 0.0, "last_good_s": 0.0, "stop": 0.5}


@pytest.mark.parametrize("steps", [0, -5, 0.5, float("nan")])
def test_branch_rejects_step_count_below_one(touching_pack, steps):
    with pytest.raises(ValueError, match="max_steps"):
        integrate_branch(touching_pack, 0.5, max_steps=steps)


def test_a_branch_at_its_step_cap_is_a_numerical_failure(touching_system,
                                                          touching_info,
                                                          touching_pack):
    # touching needs 7 and 5 steps: a cap below that never returns a
    # branch short of its stop, and the failure names the branch
    stop = touching_info.c1
    assert integrate_branch(touching_pack, stop, 7).meta["steps"] == 7
    with pytest.raises(NumericalFailure, match="within max_steps = 6") as exc:
        integrate_branch(touching_pack, stop, 6)
    ctx = exc.value.context
    assert 0.0 < ctx["s"] == ctx["last_good_s"] < ctx["stop"] == stop
    assert all(type(v) is float for v in ctx.values())
    unbalanced = AngelescoSystem(Interval(-1e-3, 0.0), Interval(0.0, 1.0))
    for sys, info, cap, name in (
            (touching_system, touching_info, 1, "forward"),
            (touching_system, touching_info, 6, "forward"),
            (unbalanced, plateau_bounds(star_normalize(unbalanced)[0]), 10,
             "backward")):
        with pytest.raises(NumericalFailure) as exc:
            solve_system(sys, info, np.linspace(0.0, 1.0, 181), cap)
        assert exc.value.context["branch"] == name
    cv = solve_system(touching_system, touching_info,
                      np.linspace(0.0, 1.0, 181), 7)
    assert [b["steps"] for b in cv.meta["branches"].values()] == [7, 5]


def test_jet_order_one_is_rhs():
    # the recurrences follow rhs's operations, so the order-one coefficient
    # is r times the derivative; checked to 2 ulp at random positive states
    rng = np.random.default_rng(26)
    for _ in range(2000):
        s = rng.uniform(0.0, 1.0)
        r = 10.0 ** rng.uniform(-17, 0)
        y = (*10.0 ** rng.uniform(-60, 60, 2), *rng.uniform(-5.0, 5.0, 2))
        jet = _jet(s, r, y)
        want = rhs(s, y)
        for i in range(4):
            assert jet[i][0] == y[i]
            ulp = np.spacing(abs(want[i]))
            assert abs(jet[i][1] / r - want[i]) <= 2 * ulp, (s, r, y, i)


def test_jet_has_the_order_and_scaling_of_the_series():
    # t-coefficients at scale r are the s-coefficients times r^j
    y = (6.0, 0.5, -2.0, 0.5)
    one = _jet(0.2, 1.0, y)
    half = _jet(0.2, 0.5, y)
    for a, b in zip(one, half):
        assert len(a) == len(b) == ode_mod._ORDER + 1
        for j, (x, z) in enumerate(zip(a, b)):
            assert z == pytest.approx(x * 0.5 ** j, rel=1e-13, abs=1e-300)


def _branches(sys, info):
    # (pack, stop) of each branch: the system's to c1, the reflected
    # system's to 1 - c2
    return ((boundary_values(sys), info.c1),
            (boundary_values(reflect(sys)), info.one_minus_c2))


def _mp_rhs(mp):
    """The closed-form right-hand side of :func:`rhs` in mpmath numbers."""
    def f(s, y):
        C1, C2, B1, B2 = y
        P = (1 + s) * (1 - s) * C1 + s * (2 - s) * C2
        F = mp.sqrt(C1 + C2) * ((1 - s) * C1 - s * C2) / P
        return [-2 * C1 * (2 * (1 - s) * C1 + (3 - 2 * s) * C2) / P,
                2 * C2 * ((1 + 2 * s) * C1 + 2 * s * C2) / P,
                2 * (1 - s) * F, -2 * s * F]
    return f


@pytest.mark.parametrize("name,side", [("touching", 0), ("gap", 1)],
                         ids=["touching-forward", "gap-backward"])
def test_branch_matches_a_30_digit_reference(name, side, request):
    # mpmath's own Taylor integrator at 30 digits, from the same double
    # start state: C relative to itself, B relative to the gap at s = 0,
    # at ten points across the branch, its stop included
    mp = pytest.importorskip("mpmath")
    sys = request.getfixturevalue(f"{name}_system")
    info = request.getfixturevalue(f"{name}_info")
    pk, stop = _branches(sys, info)[side]
    br = integrate_branch(pk, stop)
    est = br.meta["error_estimate"]
    points = stop * np.arange(1, 11) / 10.0
    points[-1] = stop
    got = br.sample(points)
    with mp.workdps(30):
        sol = mp.odefun(_mp_rhs(mp), 0,
                        [mp.mpf(v) for v in (pk.C1_0, pk.C2_0, pk.B1_0,
                                             pk.B2_0)])
        for x, row in zip(points, got):
            ref = sol(mp.mpf(x))
            err = [float(abs(row[i] - ref[i]) / abs(ref[i])) for i in (0, 1)]
            err += [float(abs(row[i] - ref[i]) / pk.gap_0) for i in (2, 3)]
            assert max(err) <= min(1e-14, est), (x, err, est)


def _branch_errors(i1, i2):
    """Each branch of the system with its error against the surface.

    The error is the largest over the branch's zone of the 181-point grid,
    without its end ray, where an A is 0, in the estimate's units: A1 and
    A2 relative to themselves (A = s^2 C1, (1-s)^2 C2), B1 and B2 over the
    branch's gap at its s = 0.
    """
    sys = AngelescoSystem(Interval(*i1), Interval(*i2))
    info = plateau_bounds(star_normalize(sys)[0])
    grid = np.linspace(0.0, 1.0, 181)
    cv = solve_system(sys, info, grid)
    ref = limit_curve(sys, grid, info)
    interior = (grid > 0.0) & (grid < 1.0)
    out = []
    for (pk, _), zone, name in zip(_branches(sys, info),
                                   plateau_zones(grid, info.c1, info.c2)[::2],
                                   ("forward", "backward")):
        zone = zone & interior
        err = [np.abs(getattr(cv, f)[zone] - getattr(ref, f)[zone])
               / np.abs(getattr(ref, f)[zone]) for f in ("A1", "A2")]
        err += [np.abs(getattr(cv, f)[zone] - getattr(ref, f)[zone])
                / pk.gap_0 for f in ("B1", "B2")]
        out.append((cv.meta["branches"][name],
                    float(np.max(err)) if np.any(zone) else 0.0))
    return out


@pytest.mark.parametrize("i1,i2", [((-2.0, 0.0), (0.0, 1.0)),
                                   ((-2.0, 0.0), (0.25, 1.0)),
                                   ((-1.0, 0.0), (0.0, 1.0)),
                                   ((-1.0, 0.0), (2.0, 3.0)),
                                   ((-1000.0, 0.0), (0.0, 1.0)),
                                   ((-1e-3, 0.0), (0.0, 1.0)),
                                   ((-1e-6, 0.0), (0.0, 1.0)),
                                   ((-1e-9, 0.0), (0.0, 1.0)),
                                   ((-1.0, 0.0), (0.0, 1000.0)),
                                   ((-1e9, 0.0), (0.0, 1.0)),
                                   ((-1e-12, 0.0), (0.0, 1.0)),
                                   ((-1e6, 0.0), (0.5, 1.0)),
                                   ((-1e-4, 0.0), (0.999, 1.0))],
                         ids=["touching", "gap", "symmetric", "apart",
                              "alpha1e3", "alpha1e-3", "alpha1e-6",
                              "alpha1e-9", "wide-right", "alpha1e9",
                              "alpha1e-12", "alpha1e6-gap", "alpha1e-4-near"])
def test_branch_error_is_within_its_estimate(i1, i2):
    # every branch reaches its stop on the tolerance, and its estimate
    # covers its error against the surface
    for br, err in _branch_errors(i1, i2):
        assert err <= br["error_estimate"] <= 1e-12, (br, err)


def test_unbalanced_systems_take_more_steps_not_more_error(touching_system,
                                                          touching_info):
    # touching takes 7 and 5 steps; (-1e-9,0) u (0,1) takes 62 on the
    # branch that runs into the thin layer before its plateau edge
    grid = np.linspace(0.0, 1.0, 181)
    easy = solve_system(touching_system, touching_info, grid)
    sys = AngelescoSystem(Interval(-1e-9, 0.0), Interval(0.0, 1.0))
    hard = solve_system(sys, plateau_bounds(star_normalize(sys)[0]), grid)
    assert [b["steps"] for b in easy.meta["branches"].values()] == [7, 5]
    assert hard.meta["branches"]["backward"]["steps"] > 50
    assert max(b["error_estimate"]
               for b in hard.meta["branches"].values()) <= 1e-12


def test_far_from_the_origin_stops_below_the_cap():
    # touching moved by 2^20: B ~ 1e6 rounds at 1e6 eps, which the
    # estimate's floor counts in units of the gap
    for br, err in _branch_errors((1048574.0, 1048576.0),
                                  (1048576.0, 1048577.0)):
        assert br["steps"] < ode_mod.DEFAULT_MAX_STEPS
        assert err <= br["error_estimate"] <= 1e-7, (br, err)


def test_the_small_component_of_a_1e32_system_is_right():
    # (-2,0) u (0,1e32): C1 and C2 differ by about 1e60 near the end of the
    # backward branch.  Every component meets the surface to 1e-10
    # relative, and each branch's estimate covers its error
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1e32))
    info = plateau_bounds(star_normalize(sys)[0])
    grid = np.linspace(0.0, 1.0, 181)
    cv = solve_system(sys, info, grid)
    ref = limit_curve(sys, grid, info)
    for f in ("A1", "A2", "B1", "B2"):
        a, b = getattr(cv, f)[1:-1], getattr(ref, f)[1:-1]
        assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-10, f
    for br, err in _branch_errors((-2.0, 0.0), (0.0, 1e32)):
        assert err <= br["error_estimate"], (br, err)


@pytest.mark.parametrize("name", ["touching", "gap"])
def test_branches_match_array_reference_bit_for_bit(name, request):
    # the numpy dense output reproduces the float loop's node states: a
    # node starts its step, at t = 0, and the stop ends the last one at the
    # t the loop stepped to
    sys = request.getfixturevalue(f"{name}_system")
    info = request.getfixturevalue(f"{name}_info")
    for pk, stop in _branches(sys, info):
        br = integrate_branch(pk, stop)
        assert br.s[0] == 0.0 and br.s[-1] == stop
        assert br.s.size == br.meta["steps"] + 1 == br.r.size + 1
        assert br.sample(br.s).tolist() == br.y.tolist()
        # between the nodes the step polynomials join continuously
        left = br.sample(np.nextafter(br.s[1:-1], 0.0))
        np.testing.assert_allclose(left, br.y[1:-1], rtol=1e-14)


@pytest.mark.parametrize("seed", [0, 1])
def test_branch_sample_is_exact_on_quintics(seed):
    # dense output is each step's polynomial in t = (s - s_k) / r_k, so a
    # branch holding a quintic's Taylor coefficients at its nodes reads it
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-1.0, 1.0, size=(4, 6))
    nodes = np.array([0.0, 0.2, 0.45, 0.7])
    r = np.array([0.3, 0.2, 0.25])
    jets = np.zeros((3, ode_mod._ORDER + 1, 4))
    for k, (s0, rk) in enumerate(zip(nodes[:-1], r)):
        for i, c in enumerate(coef):
            shifted = np.polynomial.Polynomial(c[::-1])(
                np.polynomial.Polynomial([s0, rk]))
            jets[k, :6, i] = shifted.coef
    y = np.stack([np.polyval(c, nodes) for c in coef], axis=1)
    br = Branch(nodes, y, r, jets, 0, 0.0, None)
    q = rng.uniform(0.0, 0.7, 100)
    got = br.sample(q)
    for j, c in enumerate(coef):
        assert np.max(np.abs(got[:, j] - np.polyval(c, q))) <= 1e-13
    assert np.array_equal(br.sample(nodes[:-1]), jets[:, 0, :])


def test_a_step_below_the_spacing_of_doubles_goes_to_the_next_double():
    # (-1e32,0) u (0,1): the forward branch's stop rounds to 1, and the
    # last steps the rule allows fall below the spacing of doubles there;
    # each goes to the next double, and the estimate says the end is loose
    sys = AngelescoSystem(Interval(-1e32, 0.0), Interval(0.0, 1.0))
    info = plateau_bounds(star_normalize(sys)[0])
    assert info.c1 == 1.0
    br = integrate_branch(boundary_values(sys), 1.0)
    last = br.s[-4:]
    assert np.array_equal(last, [np.nextafter(1.0, 0.0) - np.spacing(0.5) * k
                                 for k in (2, 1, 0)] + [1.0])
    assert br.meta["error_estimate"] > 1e-12
    assert np.array_equal(br.sample(br.s), br.y)
