"""Truncated series arithmetic: products and logarithms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppx.qsequences import cap_expq_series, expq_series, qfact, qint
from ppx.rings import QQ, RatFunc, IntPoly, P_ONE, ZZ
from ppx.sequences import exp_series
from ppx.series import TruncatedSeries


def qq_series(coeffs):
    return TruncatedSeries(QQ, [Fraction(c) for c in coeffs])


unit_series = st.builds(
    lambda tail: qq_series([1] + tail),
    st.lists(st.fractions(max_denominator=6), min_size=4, max_size=8),
)


class TestMul:
    def test_difference_of_squares(self):
        f = qq_series([1, 1, 0, 0])
        g = qq_series([1, -1, 0, 0])
        assert f * g == qq_series([1, 0, -1, 0])

    def test_dyadic_product_is_all_ones(self):
        # (1+x)(1+x^2)(1+x^4) agrees with 1/(1-x) through x^7
        n = 7
        factors = []
        for k in (1, 2, 4):
            coeffs = [Fraction(0)] * (n + 1)
            coeffs[0] = Fraction(1)
            coeffs[k] = Fraction(1)
            factors.append(TruncatedSeries(QQ, coeffs))
        product = factors[0] * factors[1] * factors[2]
        assert product == qq_series([1] * (n + 1))

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            qq_series([1, 1]) * qq_series([1, 1, 1])

    def test_ring_mismatch_raises(self):
        with pytest.raises(ValueError):
            qq_series([1, 1]) * TruncatedSeries(ZZ, [1, 1])

    @settings(max_examples=40, deadline=None)
    @given(unit_series, unit_series, unit_series)
    def test_associative_commutative(self, f, g, h):
        n = min(f.order, g.order, h.order)
        f = TruncatedSeries(QQ, f.coeffs[: n + 1])
        g = TruncatedSeries(QQ, g.coeffs[: n + 1])
        h = TruncatedSeries(QQ, h.coeffs[: n + 1])
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def power_sum_log(f):
    """The logarithm as sum (-1)^(d-1) (f-1)^d / d: the O(N^3) reference
    for the recurrence in TruncatedSeries.log."""
    ring, n = f.ring, f.order
    h = TruncatedSeries(ring, [ring.zero, *f.coeffs[1:]])  # f - 1
    total = [ring.zero] * (n + 1)
    power = h
    for d in range(1, n + 1):
        for k in range(d, n + 1):
            term = ring.div_int(power.coeffs[k], d)
            total[k] = total[k] + term if d % 2 else total[k] - term
        power = power * h
    return TruncatedSeries(ring, total)


class TestLog:
    @settings(max_examples=60, deadline=None)
    @given(unit_series)
    def test_matches_power_sum(self, f):
        assert f.log() == power_sum_log(f)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_expq_matches_power_sum(self, n):
        assert expq_series(n).log() == power_sum_log(expq_series(n))

    def test_makes_no_series_product(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("log multiplied two series")

        monkeypatch.setattr(TruncatedSeries, "__mul__", refuse)
        assert cap_expq_series(8).log().order == 8

    def test_log_exp_is_x(self):
        logs = exp_series(6).log()
        expected = qq_series([0, 1, 0, 0, 0, 0, 0])
        assert logs == expected

    def test_log_geometric(self):
        f = qq_series([1, 1, 1, 1, 1])  # 1/(1-x)
        assert f.log() == qq_series([0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])

    def test_log_expq_x2_coefficient(self):
        # coefficient of x^2 in log exp_q(x) is (1-q)/(2[2])
        logs = expq_series(4).log()
        assert logs.coeffs[2] == RatFunc(IntPoly((1, -1)), qint(2) * 2)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            qq_series([2, 1]).log()

    @settings(max_examples=25, deadline=None)
    @given(unit_series, unit_series)
    def test_log_of_product(self, f, g):
        n = min(f.order, g.order)
        f = TruncatedSeries(QQ, f.coeffs[: n + 1])
        g = TruncatedSeries(QQ, g.coeffs[: n + 1])
        total = [a + b for a, b in zip(f.log().coeffs, g.log().coeffs)]
        assert (f * g).log() == TruncatedSeries(QQ, total)


class TestNegateArgument:
    def test_exp(self):
        f = exp_series(4).negate_argument()
        assert f == qq_series(
            [1, -1, Fraction(1, 2), Fraction(-1, 6), Fraction(1, 24)]
        )

    def test_involution(self):
        f = exp_series(6)
        assert f.negate_argument().negate_argument() == f

    def test_binomial(self):
        assert qq_series([1, 1, 0]).negate_argument() == qq_series([1, -1, 0])
