"""Truncated series arithmetic: products and logarithms."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppx.qsequences import qint
from ppx.rings import P_ONE, ZX, ZZ, IntPoly, RatFunc
from ppx.sequences import exp_series
from ppx.series import TruncatedSeries
from qfunc_series import cap_expq_series, expq_series
from schoolbook import field_values, power_sum_log, unit_weight


def zz_series(coeffs, binom=unit_weight):
    return TruncatedSeries(ZZ, coeffs, binom)


# Unit series over Z of order 3..7, with weights 1 or C(n, k).
unit_series = st.builds(
    lambda tail, binom: zz_series([1] + tail, binom),
    st.lists(st.integers(-6, 6), min_size=3, max_size=7),
    st.sampled_from([unit_weight, math.comb]),
)


def truncated(*series):
    """The series cut to their lowest order, all in the first one's basis."""
    n = min(f.order for f in series)
    return [TruncatedSeries(ZZ, f.coeffs[: n + 1], series[0].binom) for f in series]


class TestMul:
    def test_difference_of_squares(self):
        f = zz_series([1, 1, 0, 0])
        g = zz_series([1, -1, 0, 0])
        assert f * g == zz_series([1, 0, -1, 0])

    def test_dyadic_product_is_all_ones(self):
        # (1+x)(1+x^2)(1+x^4) agrees with 1/(1-x) through x^7
        n = 7
        factors = []
        for k in (1, 2, 4):
            coeffs = [0] * (n + 1)
            coeffs[0] = 1
            coeffs[k] = 1
            factors.append(zz_series(coeffs))
        product = factors[0] * factors[1] * factors[2]
        assert product == zz_series([1] * (n + 1))

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            zz_series([1, 1]) * zz_series([1, 1, 1])

    def test_ring_mismatch_raises(self):
        with pytest.raises(ValueError):
            zz_series([1, 1]) * TruncatedSeries(ZX, [P_ONE, P_ONE], unit_weight)

    def test_basis_mismatch_raises(self):
        with pytest.raises(ValueError, match="mixing bases"):
            zz_series([1, 1]) * zz_series([1, 1], math.comb)

    @settings(max_examples=40, deadline=None)
    @given(unit_series, unit_series, unit_series)
    def test_associative_commutative(self, f, g, h):
        f, g, h = truncated(f, g, h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


class TestLog:
    @settings(max_examples=60, deadline=None)
    @given(unit_series)
    def test_matches_power_sum(self, f):
        # log() gives M_n = n d_n L_n; the reference gives L_n.
        m = field_values(f.log().coeffs, f.binom)
        assert [c / max(n, 1) for n, c in enumerate(m)] == power_sum_log(
            field_values(f.coeffs, f.binom))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_expq_matches_power_sum(self, n):
        m = expq_series(n).log().coeffs  # weight 1 over Q(q): M_k = k L_k
        assert [c / max(k, 1) for k, c in enumerate(m)] == power_sum_log(
            list(expq_series(n).coeffs))

    def test_makes_no_series_product(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("log multiplied two series")

        monkeypatch.setattr(TruncatedSeries, "__mul__", refuse)
        assert cap_expq_series(8).log().order == 8

    def test_log_exp_is_x(self):
        # x (log exp(x))' = x, whose coefficient F_1 = 1 in the k! basis.
        assert exp_series(6).log() == zz_series([0, 1, 0, 0, 0, 0, 0], math.comb)

    def test_log_geometric(self):
        # log 1/(1-x) = sum x^n/n, so M_n = n L_n = 1.
        assert zz_series([1, 1, 1, 1, 1]).log() == zz_series([0, 1, 1, 1, 1])

    def test_log_expq_x2_coefficient(self):
        # coefficient of x^2 in log exp_q(x) is (1-q)/(2[2])
        logs = expq_series(4).log()
        assert logs.coeffs[2] / 2 == RatFunc(IntPoly((1, -1)), qint(2) * 2)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            zz_series([2, 1]).log()

    @settings(max_examples=25, deadline=None)
    @given(unit_series, unit_series)
    def test_log_of_product(self, f, g):
        f, g = truncated(f, g)
        total = [a + b for a, b in zip(f.log().coeffs, g.log().coeffs)]
        assert (f * g).log() == TruncatedSeries(ZZ, total, f.binom)
