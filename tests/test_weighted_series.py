"""Series product, log, product expansion and contraction in each of the
three bases (weights 1, C(n, k) and [n, k]) against the schoolbook
reference of ``schoolbook.py``, which shares no code with ``ppx.series`` or
``ppx.products``."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppx.products import contract, expand
from ppx.qsequences import qbinom
from ppx.rings import ZX, ZZ, IntPoly
from ppx.series import TruncatedSeries
from schoolbook import cauchy, field_values, multiply_out, power_sum_log, unit_weight

BASES = [
    pytest.param(ZZ, unit_weight, id="weight-1"),
    pytest.param(ZZ, math.comb, id="factorial"),
    pytest.param(ZX, qbinom, id="q-factorial"),
]


def coefficients(ring, length: int):
    """Lists of small ring elements: integers in [-5, 5], or polynomials
    over Z of degree below 4 with coefficients in [-3, 3]."""
    element = (st.integers(-5, 5) if ring is ZZ
               else st.builds(IntPoly, st.lists(st.integers(-3, 3), max_size=4)))
    return st.lists(element, min_size=length, max_size=length)


def draw_unit(data, ring) -> list:
    """F_0 = 1 and a tail of order 1..8."""
    return [ring.one, *data.draw(coefficients(ring, data.draw(st.integers(1, 8))))]


@pytest.mark.parametrize("ring, binom", BASES)
class TestAgainstSchoolbook:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mul(self, ring, binom, data):
        order = data.draw(st.integers(0, 8))
        f, g = (data.draw(coefficients(ring, order + 1)) for _ in range(2))
        product = TruncatedSeries(ring, f, binom) * TruncatedSeries(ring, g, binom)
        assert field_values(product.coeffs, binom) == cauchy(field_values(f, binom),
                                                             field_values(g, binom))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_log(self, ring, binom, data):
        # log() gives M_n = n d_n L_n, so L_n = (M_n/d_n)/n.
        f = draw_unit(data, ring)
        m = field_values(TruncatedSeries(ring, f, binom).log().coeffs, binom)
        assert [m[0]] + [c / n for n, c in enumerate(m[1:], start=1)] == power_sum_log(
            field_values(f, binom))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_expand(self, ring, binom, data):
        f = draw_unit(data, ring)
        factors = expand(TruncatedSeries(ring, f, binom))
        one = field_values([ring.one], binom)[0]
        assert multiply_out(field_values(factors, binom, start=1), one) == field_values(f, binom)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_contract(self, ring, binom, data):
        # Factors no expansion produced; expanding their product gives them back.
        factors = data.draw(coefficients(ring, data.draw(st.integers(1, 8))))
        f = contract(factors, ring, binom)
        one = field_values([ring.one], binom)[0]
        assert field_values(f.coeffs, binom) == multiply_out(
            field_values(factors, binom, start=1), one)
        assert expand(f) == tuple(factors)
