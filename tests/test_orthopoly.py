import decimal
import itertools
from fractions import Fraction

import numpy as np
import pytest

import angelesco.orthopoly as orthopoly_mod
from angelesco import AngelescoSystem, Interval, NumericalFailure
from angelesco.orthopoly import axis_data, mixed_ratios, scalar_recurrence
import lattice_oracle
from moment_oracle import MomentOracle, moments

KINDS = ("chebyshev1", "chebyshev2", "uniform")


def test_chebyshev2_standard_interval():
    iv = Interval(-1.0, 1.0)
    np.testing.assert_allclose(scalar_recurrence("chebyshev2", iv, 3),
                               [0.25, 0.25, 0.25], atol=0)
    assert iv.mid == 0.0


def test_uniform_standard_interval():
    a = scalar_recurrence("uniform", Interval(-1.0, 1.0), 2)
    np.testing.assert_allclose(a, [1.0 / 3.0, 4.0 / 15.0], rtol=1e-15)


def test_chebyshev2_shifted_interval():
    iv = Interval(-2.0, 0.0)
    assert iv.mid == -1.0
    assert np.all(scalar_recurrence("chebyshev2", iv, 5) == 0.25)


def test_scalar_recurrence_rejects_bad_input():
    with pytest.raises(ValueError):
        scalar_recurrence("chebyshev2", Interval(-1.0, 1.0), 0)
    with pytest.raises(ValueError):
        scalar_recurrence("jacobi", Interval(-1.0, 1.0), 3)


@pytest.mark.parametrize("kind", ["chebyshev1", "chebyshev2", "uniform"])
def test_scalar_recurrence_matches_rational_oracle(kind):
    # on-axis sites of a two-measure oracle reduce to plain scalar
    # orthogonality, pinning a[k-1] and b[k] (the midpoint) exactly
    sys = AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0),
                          w1=kind, w2="uniform")
    oracle = MomentOracle(sys, 7)
    a = scalar_recurrence(kind, sys.i1, 7)
    for k in range(1, 7):
        a1, _, b1, _ = oracle.site(k, 0)
        assert a[k - 1] == pytest.approx(float(a1), abs=1e-13)
        assert sys.i1.mid == pytest.approx(float(b1), abs=1e-13)


def test_mixed_ratio_zeroth_is_destination_mean():
    # h_0 = 1 and h_1 = mean(dst) - b_0(src), so r_0 is read before any step
    r = mixed_ratios("chebyshev2", Interval(-2.0, 0.0),
                     "uniform", Interval(0.0, 1.0), 0)
    assert r[0] == pytest.approx(0.5 - (-1.0), abs=1e-14)


def test_mixed_ratios_positive_and_stable():
    args = ("chebyshev2", Interval(-2.0, 0.0), "chebyshev2", Interval(0.0, 1.0))
    r = mixed_ratios(*args, 200)
    assert np.all(r > 0)
    r2 = mixed_ratios(*args, 400)
    np.testing.assert_allclose(r, r2[:201], rtol=1e-12)


def test_mixed_ratios_rejects_negative_depth():
    with pytest.raises(ValueError):
        mixed_ratios("chebyshev2", Interval(-1.0, 0.0),
                     "chebyshev2", Interval(0.0, 1.0), -1)


def test_mixed_ratios_rejects_overlapping_intervals():
    with pytest.raises(ValueError):
        mixed_ratios("chebyshev2", Interval(-1.0, 0.5),
                     "chebyshev2", Interval(0.0, 1.0), 5)


def _ratios_50_digits(src_kind, src, dst_kind, dst, m):
    """The recurrence of ``mixed_ratios`` in 50-digit decimal arithmetic.

    The same float coefficients, the destination's off-diagonals sqrt(a)
    among them (every binary float converts to a Decimal exactly); the
    whole vector p_k(J) e1, with no rescaling and no tail cut.
    """
    D = decimal.Decimal
    a = [D(v) for v in scalar_recurrence(src_kind, src, m + 1).tolist()]
    beta = [D(v) for v in
            np.sqrt(scalar_recurrence(dst_kind, dst, m + 2)).tolist()]
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d = D(dst.mid) - D(src.mid)
        u, v = [D(1)], [d, beta[0]]
        h = [u[0], v[0]]
        for k in range(m):
            # p_k(J) e1 has k + 1 entries; pad both with the zeros past them
            u, v = u + [D(0)] * 2, v + [D(0)] * 2
            w = [d * v[j] - a[k] * u[j] + beta[j] * v[j + 1]
                 + (beta[j - 1] * v[j - 1] if j else 0)
                 for j in range(k + 3)]
            u, v = v[:k + 2], w
            h.append(w[0])
        return np.array([float(h[k + 1] / h[k]) for k in range(m + 1)])


@pytest.mark.parametrize("geometry", ["touching", "gap"])
@pytest.mark.parametrize("src_kind,dst_kind", itertools.product(KINDS, KINDS))
@pytest.mark.parametrize("src_left", [True, False])
def test_mixed_ratios_match_50_digit_reference(geometry, src_kind, dst_kind,
                                               src_left):
    # at m = 400 the tail is cut in every one of these cases, so this also
    # bounds what the cut drops
    left = Interval(-2.0, 0.0)
    right = Interval(0.0, 1.0) if geometry == "touching" else Interval(0.25, 1.0)
    src, dst = (left, right) if src_left else (right, left)
    r = mixed_ratios(src_kind, src, dst_kind, dst, 400)
    ref = _ratios_50_digits(src_kind, src, dst_kind, dst, 400)
    # measured worst 1.6 ulp over these 36 cases
    assert np.max(np.abs(r - ref) / np.abs(ref)) <= 8 * np.finfo(float).eps


def _ratios_exact(src_kind, src, dst_kind, dst, m):
    """h_{k+1} / h_k, k = 0..m, as Fractions: p_k from the source's float
    a's, converted exactly, in the power basis, and integrated against the
    destination's power moments (:func:`moment_oracle.moments`), with no
    Jacobi matrix and no quadrature."""
    a = [Fraction(v)
         for v in scalar_recurrence(src_kind, src, m + 1).tolist()]
    b = Fraction(src.mid)
    mom = moments(dst_kind, dst.lo, dst.hi, m + 1)
    p_prev, p = [Fraction(1)], [-b, Fraction(1)]
    h = [mom[0], mom[1] - b]
    for k in range(m):
        # p_{k+2} = (x - b) p_{k+1} - a[k] p_k, lowest power first
        nxt = [Fraction(0)] + p
        for i, c in enumerate(p):
            nxt[i] -= b * c
        for i, c in enumerate(p_prev):
            nxt[i] -= a[k] * c
        p_prev, p = p, nxt
        h.append(sum(c * mu for c, mu in zip(p, mom)))
    return [h[k + 1] / h[k] for k in range(m + 1)]


@pytest.mark.parametrize("geometry", ["touching", "gap"])
@pytest.mark.parametrize("src_kind,dst_kind", itertools.product(KINDS, KINDS))
@pytest.mark.parametrize("src_left", [True, False])
def test_mixed_ratios_match_exact_moments(geometry, src_kind, dst_kind,
                                          src_left):
    # an oracle that shares no step with the Jacobi-matrix form: the
    # destination enters only through its exact power moments
    left = Interval(-2.0, 0.0)
    right = Interval(0.0, 1.0) if geometry == "touching" else Interval(0.25, 1.0)
    src, dst = (left, right) if src_left else (right, left)
    for m in (0, 1, 2, 7, 24):
        r = mixed_ratios(src_kind, src, dst_kind, dst, m)
        ref = _ratios_exact(src_kind, src, dst_kind, dst, m)
        err = max(abs(Fraction(x) - y) for x, y in zip(r.tolist(), ref))
        # the hull has length 3; measured worst 2.4e-16 hull lengths
        # over these 36 cases
        assert err / 3 <= 1e-15, m


@pytest.mark.parametrize("src_kind,dst_kind", [("chebyshev2", "chebyshev2"),
                                               ("uniform", "chebyshev1"),
                                               ("chebyshev1", "uniform")])
@pytest.mark.parametrize("lo", [-2.0, -1000.0, -1e-3])
@pytest.mark.parametrize("src_left", [True, False])
def test_mixed_ratios_never_underflow(src_kind, dst_kind, lo, src_left):
    # the tail is cut before its entries reach the subnormal range; on
    # (-1e-3,0)u(0,1) the monic (sqrt-free) form of J loses h_k outright
    left, right = Interval(lo, 0.0), Interval(0.0, 1.0)
    src, dst = (left, right) if src_left else (right, left)
    with np.errstate(under="raise"):
        r = mixed_ratios(src_kind, src, dst_kind, dst, 1500)
    assert np.all(np.isfinite(r))


@pytest.mark.parametrize("geometry", [((-2.0, 0.0), (0.0, 1.0)),
                                      ((-2.0, 0.0), (0.25, 1.0)),
                                      ((-1000.0, 0.0), (0.0, 1.0)),
                                      ((-3.0, -1.0), (2.0, 7.0))],
                         ids=["touching", "gap", "wide", "apart"])
@pytest.mark.parametrize("src_kind,dst_kind", itertools.product(KINDS, KINDS))
def test_mixed_ratios_match_the_reference_loop_bit_for_bit(
        geometry, src_kind, dst_kind):
    # both directions; at 1500 the tail is cut and the scale window is left
    left, right = (Interval(*iv) for iv in geometry)
    for src, dst in ((left, right), (right, left)):
        for m in (0, 1, 2, 7, 400, 1500):
            assert np.array_equal(
                mixed_ratios(src_kind, src, dst_kind, dst, m),
                lattice_oracle.mixed_ratios(src_kind, src, dst_kind, dst, m))


@pytest.mark.parametrize("index,value,only_dst,k",
                         [(7, np.nan, False, 7), (0, np.inf, False, 0),
                          (7, np.nan, True, 7)],
                         ids=["a-7-nan-7", "a-0-inf-0", "dst-a-7-nan-7"])
def test_mixed_ratios_bad_coefficient_raises(monkeypatch, index, value,
                                             only_dst, k):
    # the moments read both recurrences, and each is checked before any step
    real = orthopoly_mod.scalar_recurrence
    src, dst = Interval(-2.0, 0.0), Interval(0.0, 1.0)

    def poisoned(kind, interval, n):
        a = real(kind, interval, n).copy()
        if interval == dst or not only_dst:
            a[index] = value
        return a

    monkeypatch.setattr(orthopoly_mod, "scalar_recurrence", poisoned)
    with pytest.raises(NumericalFailure) as exc:
        mixed_ratios("chebyshev2", src, "uniform", dst, 20)
    measure = "destination" if only_dst else "source"
    assert exc.value.context == {"measure": measure, "k": k}


def test_mixed_ratios_raise_on_a_moment_past_the_doubles():
    # h_2 of a source 1e160 from its destination is about 1e320, while
    # its a's, about 6e298, are finite
    src = Interval(-1e160, -1e160 + 1e150)
    with np.errstate(over="ignore"), pytest.raises(NumericalFailure) as exc:
        mixed_ratios("chebyshev2", src, "chebyshev2", Interval(0.0, 1.0), 5)
    assert exc.value.context == {"k": 0}


def test_axis_data_touching_star(touching_system):
    ad = axis_data(touching_system, 1, 10)
    assert ad.m == 10
    assert ad.cross_b.shape == (11,)
    # cross_b[0] is the mean of the other measure
    assert ad.cross_b[0] == pytest.approx(0.5, abs=1e-14)
    # the other measure lies to the right of interval 1, whose b is its
    # midpoint
    assert np.all(ad.cross_b - touching_system.i1.mid > 0)
    with pytest.raises(ValueError):
        axis_data(touching_system, 3, 5)


def test_axis_cross_matches_rational_oracle(touching_system):
    oracle = MomentOracle(touching_system, 7)
    ad = axis_data(touching_system, 1, 6)
    for k in range(7):
        _, _, _, b2 = oracle.site(k, 0)
        assert ad.cross_b[k] == pytest.approx(float(b2), abs=1e-12)


def test_axis_cross_tends_to_far_edge_value(touching_system):
    # cross coefficient along axis 1 approaches the s = 1 limit of B2
    ad = axis_data(touching_system, 1, 1500)
    lim = np.sqrt(3.0) / 2.0
    assert ad.cross_b[-1] == pytest.approx(lim, abs=5e-3)
    assert abs(ad.cross_b[-1] - lim) < abs(ad.cross_b[750] - lim)
