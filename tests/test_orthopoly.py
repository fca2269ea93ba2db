import decimal
import itertools

import numpy as np
import pytest

import angelesco.orthopoly as orthopoly_mod
from angelesco import AngelescoSystem, Interval, NumericalFailure
from angelesco.orthopoly import (axis_data, gauss_nodes, mixed_ratios,
                                 scalar_recurrence)
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


def test_gauss_single_chebyshev1_node():
    x, w = gauss_nodes("chebyshev1", Interval(-1.0, 1.0), 1)
    np.testing.assert_allclose(x, [0.0], atol=1e-16)
    np.testing.assert_allclose(w, [1.0], atol=0)


@pytest.mark.parametrize("kind", ["chebyshev1", "chebyshev2", "uniform"])
@pytest.mark.parametrize("degree", [1, 2, 7, 40])
def test_gauss_weights_are_probability(kind, degree):
    x, w = gauss_nodes(kind, Interval(-2.0, 0.5), degree)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
    assert np.all(w > 0)
    assert np.all(x >= -2.0) and np.all(x <= 0.5)


def test_gauss_uniform_mean_exact():
    # degrees 1 to 7: Clenshaw-Curtis on 2 to 8 points
    for degree in range(1, 8):
        x, w = gauss_nodes("uniform", Interval(0.0, 1.0), degree)
        assert w @ x == pytest.approx(0.5, abs=1e-15)


def test_clenshaw_curtis_weights_against_30_digits():
    # w_j = (2/m)(1 - 2 sum_k c_k cos(2 pi k j / m)), halved at the ends and
    # normalized; the sum cancels to O(1/m) at the ends, so a few ulps
    # times n is what rounding leaves
    mp = pytest.importorskip("mpmath")
    for n in (51, 402):
        m = n - 1
        got = gauss_nodes("uniform", Interval(-1.0, 1.0), n - 1)[1][::-1]
        with mp.workdps(30):
            ref = []
            for j in range(n):
                csum = sum((mp.mpf(1) / 2 if 2 * k == m else 1)
                           / (4 * k * k - 1) * mp.cos(2 * k * j * mp.pi / m)
                           for k in range(1, m // 2 + 1))
                ref.append((1 - 2 * csum) / (m if 0 < j < m else 2 * m))
            total = sum(ref)
            err = max(abs(g - r / total) / (r / total)
                      for g, r in zip(got, ref))
        assert err <= 4e-16 * n, n


@pytest.mark.parametrize("kind", ["chebyshev1", "chebyshev2", "uniform"])
def test_gauss_exact_through_stated_degree(kind):
    # each degree gets its family's smallest rule: Gauss is exact through
    # 2n - 1 on n nodes, Clenshaw-Curtis through n - 1 on n >= 2
    iv = Interval(0.0, 1.0)
    mom = moments(kind, 0, 1, 15)
    for degree in range(16):
        x, w = gauss_nodes(kind, iv, degree)
        assert x.size == (max(degree + 1, 2) if kind == "uniform"
                          else degree // 2 + 1)
        for j in range(degree + 1):
            assert w @ x ** j == pytest.approx(float(mom[j]), abs=1e-13)


def test_gauss_rejects_a_negative_degree():
    with pytest.raises(ValueError):
        gauss_nodes("chebyshev2", Interval(0.0, 1.0), -1)


def test_mixed_ratio_zeroth_is_destination_mean():
    # h_0 = 1 and h_1 = mean(dst) - b_0(src), so r_0 needs no quadrature
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

    Same nodes, weights and coefficients (every binary float converts to a
    Decimal exactly), no rescaling and no node ever dropped.
    """
    D = decimal.Decimal
    x, w = gauss_nodes(dst_kind, dst, m + 1)
    a = scalar_recurrence(src_kind, src, m + 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        t = np.array([D(v) - D(src.mid) for v in x.tolist()], dtype=object)
        w = np.array([D(v) for v in w.tolist()], dtype=object)
        p_prev, p_curr = np.full(t.size, D(1), dtype=object), t
        h = [D(1), w.dot(p_curr)]
        for k in range(m):
            p_prev, p_curr = p_curr, t * p_curr - D(a[k]) * p_prev
            h.append(w.dot(p_curr))
        return np.array([float(h[k + 1] / h[k]) for k in range(m + 1)])


@pytest.mark.parametrize("geometry", ["touching", "gap"])
@pytest.mark.parametrize("src_kind,dst_kind", itertools.product(KINDS, KINDS))
@pytest.mark.parametrize("src_left", [True, False])
def test_mixed_ratios_match_50_digit_reference(geometry, src_kind, dst_kind,
                                               src_left):
    # at m = 400 tail nodes retire in every case except gap with the source
    # on the left, so this also bounds what retirement drops
    left = Interval(-2.0, 0.0)
    right = Interval(0.0, 1.0) if geometry == "touching" else Interval(0.25, 1.0)
    src, dst = (left, right) if src_left else (right, left)
    r = mixed_ratios(src_kind, src, dst_kind, dst, 400)
    ref = _ratios_50_digits(src_kind, src, dst_kind, dst, 400)
    # measured worst 3.9 ulp over these 36 cases
    assert np.max(np.abs(r - ref) / np.abs(ref)) <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("src_kind,dst_kind", [("chebyshev2", "chebyshev2"),
                                               ("uniform", "chebyshev1"),
                                               ("chebyshev1", "uniform")])
@pytest.mark.parametrize("lo", [-2.0, -1000.0])
@pytest.mark.parametrize("src_left", [True, False])
def test_mixed_ratios_never_underflow(src_kind, dst_kind, lo, src_left):
    # near nodes are retired before their values reach the subnormal range
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
    # both directions; at 1500 nodes retire and the scale window is left
    left, right = (Interval(*iv) for iv in geometry)
    for src, dst in ((left, right), (right, left)):
        for m in (0, 1, 2, 7, 400, 1500):
            assert np.array_equal(
                mixed_ratios(src_kind, src, dst_kind, dst, m),
                lattice_oracle.mixed_ratios(src_kind, src, dst_kind, dst, m))


@pytest.mark.parametrize("index,value,k", [(7, np.nan, 7), (0, np.inf, 0)],
                         ids=["a-7-nan-7", "a-0-inf-0"])
def test_mixed_ratios_bad_coefficient_raises(monkeypatch, index, value, k):
    real = orthopoly_mod.scalar_recurrence

    def poisoned(kind, interval, n):
        a = real(kind, interval, n).copy()
        a[index] = value
        return a

    monkeypatch.setattr(orthopoly_mod, "scalar_recurrence", poisoned)
    with pytest.raises(NumericalFailure) as exc:
        mixed_ratios("chebyshev2", Interval(-2.0, 0.0),
                     "uniform", Interval(0.0, 1.0), 20)
    assert exc.value.context["k"] == k


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
