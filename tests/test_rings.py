"""Exact ring arithmetic: polynomials, rational functions, quotients."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppx.qsequences import mod_q2_inverse, mod_q2_ring, qint
from ppx.rings import (
    ConsistencyError,
    InexactDivisionError,
    IntPoly,
    P_ONE,
    P_ZERO,
    Q,
    QuotientRing,
    RatFunc,
    _heu_gcd,
    _prs_gcd,
    cyclotomic,
    poly_gcd,
    serialize,
)

small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=6))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)
# Coefficients up to 10^6 and degree up to 15: products of two reach about
# 10^13 and degree 30, well beyond the small polynomials above.
wide_polys = st.builds(
    IntPoly, st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=16)
).filter(lambda p: not p.is_zero)


class TestIntPoly:
    def test_canonical_form(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly(()).is_zero
        assert IntPoly((0, 0)).is_zero
        assert IntPoly(5).coeffs == (5,)

    def test_degree_and_lead(self):
        assert IntPoly().degree == -1
        assert IntPoly((1, 0, -2)).degree == 2
        assert IntPoly((1, 0, -2)).lead == -2

    def test_str(self):
        assert str(IntPoly()) == "0"
        assert str(IntPoly((0, -1))) == "-q"
        assert str(IntPoly((1, -2, 0, 1))) == "1-2q+q^3"

    def test_divexact_geometric(self):
        # (1 - q^3) / (1 - q) = 1 + q + q^2
        assert IntPoly((1, 0, 0, -1)).divexact(IntPoly((1, -1))) == IntPoly((1, 1, 1))

    def test_divexact_monomial_factor(self):
        # (q + q^2) / (1 + q) = q
        assert IntPoly((0, 1, 1)).divexact(IntPoly((1, 1))) == Q

    def test_divexact_inexact_raises(self):
        # (1 + q^2) / (1 + q) leaves remainder
        with pytest.raises(InexactDivisionError):
            IntPoly((1, 0, 1)).divexact(IntPoly((1, 1)))

    def test_divexact_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            P_ONE.divexact(P_ZERO)

    @settings(max_examples=150, deadline=None)
    @given(small_polys, nonzero_polys)
    def test_divexact_roundtrip(self, a, b):
        assert (a * b).divexact(b) == a

    def test_eval_horner(self):
        assert IntPoly((1, 1, 1))(1) == 3
        assert IntPoly((1, -1, 1))(-1) == 3
        assert IntPoly((1, 2))(Fraction(1, 2)) == 2

    def test_eval_u6_at_one(self):
        # u_6(q) = [2]^2 [3] [6] evaluates to the integer u_6 = 72
        u6 = qint(2) ** 2 * qint(3) * qint(6)
        assert u6(1) == 72


class TestPolyGcd:
    def test_qint_example(self):
        # gcd([4], [6]) = [2]; oracle: gcd(q^j - 1, q^n - 1) = q^gcd(j,n) - 1
        assert poly_gcd(qint(4), qint(6)) == IntPoly((1, 1))

    def test_qint_identity_against_oracle(self):
        for j in range(1, 31):
            for n in range(1, 31):
                assert poly_gcd(qint(j), qint(n)) == qint(math.gcd(j, n))

    def test_gcd_with_zero(self):
        f = IntPoly((2, 0, -4))
        g = poly_gcd(f, P_ZERO)
        assert g == IntPoly((-1, 0, 2))  # primitive, positive leading coefficient
        f.divexact(g)

    def test_difference_of_squares(self):
        # 1 - q^2 = (1 + q)(1 - q), verified by exact division
        a, b = IntPoly((1, 1)), IntPoly((1, 0, -1))
        g = poly_gcd(a, b)
        assert g == IntPoly((1, 1))
        assert b.divexact(g) == IntPoly((1, -1))

    def test_both_zero_raises(self):
        with pytest.raises(ValueError):
            poly_gcd(P_ZERO, P_ZERO)

    @settings(max_examples=100, deadline=None)
    @given(nonzero_polys, nonzero_polys)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        a.divexact(g)
        b.divexact(g)
        assert g.lead > 0
        assert g.content == 1

    @settings(max_examples=150, deadline=None)
    @given(nonzero_polys, nonzero_polys, st.one_of(nonzero_polys, wide_polys))
    def test_planted_factor_divides_gcd(self, a, b, c):
        poly_gcd(a * c, b * c).divexact(c.primitive_positive())

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(nonzero_polys, wide_polys), wide_polys, wide_polys)
    def test_matches_prs_reference(self, a, b, c):
        a, b = (a * c).primitive_positive(), (b * c).primitive_positive()
        assert poly_gcd(a, b) == _prs_gcd(a, b)

    def test_heuristic_answers_qint_oracle(self):
        # The fast path itself, not the fallback, settles these.
        for j in range(2, 31):
            for n in range(2, 31):
                assert _heu_gcd(qint(j), qint(n)) == qint(math.gcd(j, n))


class TestCyclotomic:
    def test_first_values(self):
        assert cyclotomic(1) == IntPoly((-1, 1))
        assert cyclotomic(2) == IntPoly((1, 1))
        assert cyclotomic(6) == IntPoly((1, -1, 1))

    def test_product_over_divisors(self):
        # prod_{d | m} Phi_d(q) = q^m - 1
        for m in range(1, 31):
            product = P_ONE
            for d in range(1, m + 1):
                if m % d == 0:
                    product = product * cyclotomic(d)
            assert product == IntPoly((-1,) + (0,) * (m - 1) + (1,))

    def test_bad_index(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


class TestRatFunc:
    def test_normalization(self):
        f = RatFunc(IntPoly((0, 2, 2)), IntPoly((2, 2)))
        assert f.num == Q and f.den == P_ONE
        g = RatFunc(P_ONE, IntPoly((-1, -1)))
        assert g.den == IntPoly((1, 1)) and g.num == IntPoly((-1,))

    def test_zero_canonical(self):
        assert RatFunc(P_ZERO, IntPoly((3, 1))) == RatFunc(0)

    def test_field_ops(self):
        half = RatFunc(1, 2)
        third = RatFunc(1, 3)
        assert half + third == RatFunc(5, 6)
        assert half * third == RatFunc(1, 6)
        assert (half / third) == RatFunc(3, 2)
        f = RatFunc(Q, IntPoly((1, 1)))
        assert f * f.reciprocal() == RatFunc(1)
        assert f ** 3 == RatFunc(Q ** 3, IntPoly((1, 1)) ** 3)

    def test_subst_inverse_examples(self):
        f = RatFunc(Q, IntPoly((1, 1)))          # q/(1+q) -> 1/(1+q)
        assert f.subst_inverse() == RatFunc(P_ONE, IntPoly((1, 1)))
        assert RatFunc(1).subst_inverse() == RatFunc(1)
        e3 = RatFunc(-Q, qint(3))                # fixed under q -> 1/q
        assert e3.subst_inverse() == e3

    @settings(max_examples=100, deadline=None)
    @given(small_polys, nonzero_polys)
    def test_subst_inverse_involution(self, num, den):
        f = RatFunc(num, den)
        assert f.subst_inverse().subst_inverse() == f

    def test_eval(self):
        f = RatFunc(IntPoly((1, 1)), IntPoly((1, 0, 1)))
        assert f(1) == Fraction(2, 2)
        assert f(Fraction(1, 2)) == Fraction(3, 2) / Fraction(5, 4)

    def test_rational_reduction_structural_equality(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


class TestQuotientRing:
    def test_reduce_examples(self):
        phi2 = QuotientRing(cyclotomic(2))
        assert phi2.reduce(IntPoly((0, -1, -1))).rep == P_ZERO
        assert QuotientRing(IntPoly((0, 0, 1))).reduce(IntPoly((0, 0, 0, 1))).rep == P_ZERO
        assert phi2.reduce(IntPoly((1, 3))).rep == IntPoly((-2,))

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            QuotientRing(IntPoly((5,)))
        with pytest.raises(ValueError):
            QuotientRing(IntPoly((1, 2)))

    def test_arithmetic(self):
        ring = QuotientRing(cyclotomic(3))
        a = ring.reduce(IntPoly((0, 1)))  # q
        assert a * a * a == ring.one      # q^3 = 1 mod Phi_3
        assert a + ring.reduce(IntPoly((0, 0, 1))) == ring.from_int(-1)

    def test_inverse_mod_q2(self):
        ring = mod_q2_ring()
        a = ring.reduce(IntPoly((1, 3)))
        assert mod_q2_inverse(a) == ring.reduce(IntPoly((1, -3)))
        assert mod_q2_inverse(ring.reduce(IntPoly((-1, 2)))) == ring.reduce(IntPoly((-1, -2)))
        with pytest.raises(ConsistencyError):
            mod_q2_inverse(ring.reduce(IntPoly((2, 1))))

    def test_mixing_rings_raises(self):
        r1 = QuotientRing(cyclotomic(2))
        r2 = QuotientRing(cyclotomic(3))
        with pytest.raises(ValueError):
            r1.one + r2.one


class TestSerialize:
    def test_shapes(self):
        assert serialize(2 ** 100) == str(2 ** 100)
        assert serialize(Fraction(-1, 3)) == "-1/3"
        assert serialize(Fraction(1)) == "1"
        assert serialize(IntPoly((1, 0, -2))) == ["1", "0", "-2"]
        assert serialize(RatFunc(Q, IntPoly((1, 1)))) == {"num": ["0", "1"], "den": ["1", "1"]}
        ring = QuotientRing(IntPoly((0, 0, 1)))
        assert serialize(ring.reduce(IntPoly((1, -4)))) == ["1", "-4"]
