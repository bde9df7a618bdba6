"""The generic power product expansion and its contraction oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppx.products import ProductExpansion, contract, expand
from ppx.qsequences import qfact
from ppx.rings import QQ, RatFunc, P_ONE
from ppx.sequences import exp_series
from ppx.series import TruncatedSeries
from qfunc_series import expq_series


def qq_series(coeffs):
    return TruncatedSeries(QQ, [Fraction(c) for c in coeffs])


class TestExpand:
    def test_all_ones_is_dyadic(self):
        f = qq_series([1] * 9)
        g = expand(f).factors
        assert g == tuple(Fraction(1 if n & (n - 1) == 0 else 0) for n in range(1, 9))

    def test_exp_factors(self):
        g = expand(exp_series(8)).factors
        assert g == (
            Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(3, 8),
            Fraction(-1, 5), Fraction(13, 72), Fraction(-1, 7), Fraction(27, 128),
        )

    def test_single_binomial(self):
        f = qq_series([1, 1, 0, 0, 0])
        assert expand(f).factors == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            expand(qq_series([2, 1]))


class TestContract:
    def test_dyadic_gives_all_ones(self):
        factors = tuple(Fraction(1 if n & (n - 1) == 0 else 0) for n in range(1, 9))
        assert contract(ProductExpansion(QQ, factors)) == qq_series([1] * 9)

    def test_all_zero_gives_one(self):
        assert contract(ProductExpansion(QQ, (Fraction(0),) * 5)) == TruncatedSeries.one(QQ, 5)

    def test_expq_roundtrip_recovers_coefficients(self):
        f = expq_series(7)
        assert contract(expand(f)) == f
        assert f.coeffs == tuple(RatFunc(P_ONE, qfact(n)) for n in range(8))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(max_denominator=8), min_size=3, max_size=10))
    def test_rational_roundtrip(self, tail):
        f = qq_series([1] + tail)
        assert contract(expand(f)) == f

    def test_ratfunc_roundtrip(self):
        for f in (expq_series(9), expq_series(9).negate_argument()):
            assert contract(expand(f)) == f

    def test_perturbing_a_factor_changes_its_coefficient(self):
        expansion = expand(exp_series(8))
        factors = list(expansion.factors)
        factors[3] += 1  # bump g_4
        perturbed = contract(ProductExpansion(QQ, tuple(factors)))
        original = exp_series(8)
        assert perturbed.coeffs[4] != original.coeffs[4]
        assert perturbed.coeffs[:4] == original.coeffs[:4]
