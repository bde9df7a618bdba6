"""Exact ring arithmetic: polynomials, rational functions, quotients."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppx import cli, qsequences, rings
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
    _bits,
    _pack,
    _pack_pays,
    _slot_bytes,
    _unpack,
    cyclotomic,
    poly_gcd,
    serialize,
)
from qfunc_series import QFrac
from schoolbook import coefficient_sum, prs_gcd

small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=6))
nonzero_polys = small_polys.filter(bool)
# Coefficients up to 10^6 and degree up to 15: products of two reach about
# 10^13 and degree 30, well beyond the small polynomials above.
wide_polys = st.builds(
    IntPoly, st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=16)
).filter(bool)


class TestIntPoly:
    def test_canonical_form(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert not IntPoly(())
        assert not IntPoly((0, 0))
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

    @given(small_polys, st.one_of(small_polys, st.integers(-9, 9)))
    def test_sub_inverts_add(self, a, b):
        # An int on the right, and equal operands or equal top coefficients,
        # which leave a zero or trimmed result.
        assert a - b == a + (-b)
        assert (a - b) + b == a
        assert not a - a

    def test_sub_trims(self):
        assert IntPoly((1, 2, 3)) - IntPoly((0, 2, 3)) == P_ONE
        assert not IntPoly((4,)) - 4
        assert IntPoly((1, 2)) - IntPoly((1, 2, 5)) == IntPoly((0, 0, -5))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-9, 9), max_size=12), st.lists(st.integers(-9, 9), max_size=12))
    def test_add_and_sub_match_the_reference(self, a, b):
        # Unequal lengths both ways, and trailing zeros that IntPoly trims.
        p, q = IntPoly(a), IntPoly(b)
        assert (p + q).coeffs == coefficient_sum(p.coeffs, q.coeffs)
        assert (p - q).coeffs == coefficient_sum(p.coeffs, q.coeffs, -1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-9, 9), max_size=11).map(lambda cs: cs + [5]), st.data())
    def test_cancelling_leading_terms_match_the_reference(self, a, data):
        # Equal lengths that agree (for -) or are opposite (for +) from degree
        # j up: the result has degree below j, and is zero when j = 0.
        j = data.draw(st.integers(0, len(a)))
        low = data.draw(st.lists(st.integers(-9, 9), min_size=j, max_size=j))
        p, same, opposite = IntPoly(a), IntPoly(low + a[j:]), IntPoly(low + [-c for c in a[j:]])
        for result, expected in ((p - same, coefficient_sum(p.coeffs, same.coeffs, -1)),
                                 (p + opposite, coefficient_sum(p.coeffs, opposite.coeffs))):
            assert result.coeffs == expected
            assert result.degree < j
            assert not result or j > 0

    @given(st.lists(st.integers(-9, 9), max_size=6).map(IntPoly), st.integers(-9, 9))
    def test_int_operands_match_the_reference(self, p, c):
        # an int on either side of +, and on the right of -
        assert (p + c).coeffs == (c + p).coeffs == coefficient_sum(p.coeffs, (c,))
        assert (p - c).coeffs == coefficient_sum(p.coeffs, (c,), -1)

    def test_eval_horner(self):
        assert IntPoly((1, 1, 1))(1) == 3
        assert IntPoly((1, -1, 1))(-1) == 3
        assert IntPoly((1, 2))(Fraction(1, 2)) == 2

    def test_eval_u6_at_one(self):
        # u_6(q) = [2]^2 [3] [6] evaluates to the integer u_6 = 72
        u6 = qint(2) ** 2 * qint(3) * qint(6)
        assert u6(1) == 72


def schoolbook_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Reference product: the quadratic loop the Kronecker kernel replaced."""
    if not a or not b:
        return P_ZERO
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPoly(out)


def schoolbook_divexact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Reference exact division: long division from the top coefficient."""
    if not a:
        return P_ZERO
    db = b.degree
    rem, quo = list(a.coeffs), [0] * max(a.degree - db + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        t, leftover = divmod(rem[db + k], b.lead)
        if leftover:
            raise InexactDivisionError("leading coefficient does not divide")
        quo[k] = t
        for i, c in enumerate(b.coeffs):
            rem[i + k] -= t * c
    if any(rem):
        raise InexactDivisionError("nonzero remainder")
    return IntPoly(quo)


# Lengths 1..40 straddle the Kronecker size test m n >= 4 (m + n) of
# products, which first passes at 5 x 20 and 8 x 8; small coefficients give
# interior zeros, large ones reach about 10^60.  Exact quotients, always a
# long division, are checked on the same shapes.
kron_coeffs = st.one_of(st.integers(-3, 3), st.integers(-10**60, 10**60))
kron_polys = st.builds(
    IntPoly, st.lists(kron_coeffs, min_size=1, max_size=40)
).filter(bool)


class TestKroneckerKernels:
    @settings(max_examples=300, deadline=None)
    @given(kron_polys, kron_polys)
    def test_mul_matches_schoolbook(self, a, b):
        expected = schoolbook_mul(a, b)
        assert a * b == expected
        assert b * a == expected

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from([1, -1]), kron_coeffs.filter(bool)),
           st.one_of(kron_polys, st.just(P_ZERO)))
    def test_one_coefficient_factor(self, c, p):
        # A factor c scales the other; a factor 1 returns the other itself
        # (when both factors are constants, either is the one-coefficient one).
        const = IntPoly((c,))
        expected = schoolbook_mul(const, p)
        assert const * p == p * const == p * c == c * p == expected
        if c == 1 and p.degree > 0:
            assert const * p is p and p * const is p and p * c is p

    @pytest.mark.parametrize("n", [16, 17, 24, 31, 32, 33])
    def test_mul_extreme_coefficients(self, n):
        # Every coefficient at 2^t - 1 (or alternating in sign) puts the
        # middle product coefficient near n 4^t, the top of the slot bound,
        # for every residue of the slot width mod 8.
        for t in range(1, 70):
            m = 2 ** t - 1
            for a in (IntPoly((m,) * n), IntPoly((m, -m) * n)):
                assert a * a == schoolbook_mul(a, a)
                b = IntPoly((-m,) * (n + 1))
                assert a * b == schoolbook_mul(a, b)

    @settings(max_examples=300, deadline=None)
    @given(kron_polys, kron_polys)
    def test_divexact_of_product(self, q, b):
        assert schoolbook_mul(q, b).divexact(b) == q

    @settings(max_examples=200, deadline=None)
    @given(kron_polys, kron_polys, kron_polys)
    def test_inexact_division_raises(self, q, b, r):
        # A nonzero remainder of degree below b's makes q b + r indivisible.
        r = IntPoly(r.coeffs[: b.degree])
        a = schoolbook_mul(q, b) + r
        if not r:
            assert a.divexact(b) == q
        else:
            with pytest.raises(InexactDivisionError):
                a.divexact(b)

    @settings(max_examples=200, deadline=None)
    @given(kron_polys, kron_polys)
    def test_divexact_matches_reference(self, a, b):
        try:
            expected = schoolbook_divexact(a, b)
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError):
                a.divexact(b)
        else:
            assert a.divexact(b) == expected

    def test_quotient_wider_than_its_operands(self):
        # a = prod_{j<8} (1 + q^(3^j)) has 0/1 coefficients and is divisible
        # by b = (1+q)^8, whose quotient has 34-bit coefficients: far wider
        # than a and b (1 and 7 bits), and than the 16-bit slot their product
        # would take.  The long division must build them exactly.
        a = P_ONE
        for j in range(8):
            a = schoolbook_mul(a, IntPoly.monomial(1, 3 ** j) + 1)
        b = IntPoly((1, 1)) ** 8
        expected = schoolbook_divexact(a, b)
        assert max(map(abs, expected.coeffs)) >= 2 ** 15
        assert a.divexact(b) == expected

    def test_divisible_values_do_not_make_a_quotient(self):
        # q b is -2^16 q^31 plus small terms, so at 2^16 it takes the value
        # of the polynomial a of its balanced base-2^16 digits, which are all
        # small: a(2^16) = q(2^16) b(2^16), yet b does not divide a.  a and b
        # pack into 2-byte slots, and q is one bit too wide to be read back
        # from them: the integers at 2^16 divide, and the long division must
        # still raise.  (q is -2^16 times the two-sided inverse of b, rounded
        # and cut where it falls below 64.)
        b = IntPoly((-3, 3, -3, -3, 3, -3, -3, -3, 3, -3, -3, -3, 3, 3, 3))
        q = IntPoly((
            124, 46, 72, -122, -73, -174, 60, -35, 119, -177, 19, -150, 367,
            310, 877, 236, -132, -1862, -1692, -1277, 1540, 1647, 1760, -645,
            1000, 645, 1760, -1647, 1540, 1277, -1692, 1862, -132, -236, 877,
            -310, 367, 150, 19, 177, 119, 35, 60, 174, -73, 122, 72, -46, 124))
        value, digits = schoolbook_mul(q, b)(2 ** 16), []
        while value:
            digits.append((value + 2 ** 15) % 2 ** 16 - 2 ** 15)
            value = (value - digits[-1]) >> 16
        a = IntPoly(digits)
        w = _slot_bytes(_bits(a.coeffs), _bits(b.coeffs), len(b.coeffs))
        assert w == 2
        assert a(2 ** 16) % b(2 ** 16) == 0
        assert _bits(q.coeffs) + _bits(b.coeffs) + len(b.coeffs).bit_length() == 8 * w + 1
        with pytest.raises(InexactDivisionError):
            schoolbook_divexact(a, b)
        with pytest.raises(InexactDivisionError):
            a.divexact(b)

    @settings(max_examples=150, deadline=None)
    @given(kron_polys, kron_polys, kron_polys, kron_polys,
           st.integers(-6, 6).filter(bool))
    def test_cofactors_give_plain_normalisation(self, x, y, g, h, c):
        # Planted common factors g (and an integer c) exercise the division
        # by poly_gcd in RatFunc; the reference divides by the full gcd,
        # found by the pseudo-remainder sequence, with the schoolbook loop.
        def plain(num, den):
            full = (prs_gcd(num.primitive_positive(), den.primitive_positive())
                    * math.gcd(num.content, den.content))
            num, den = schoolbook_divexact(num, full), schoolbook_divexact(den, full)
            return (-num, -den) if den.lead < 0 else (num, den)

        num, den = schoolbook_mul(x, g) * c, schoolbook_mul(y, g)
        f = RatFunc(num, den)
        assert (f.num, f.den) == plain(num, den)
        k = RatFunc(schoolbook_mul(h, g), schoolbook_mul(y, h) * c)
        total = f + k
        assert (total.num, total.den) == plain(
            schoolbook_mul(f.num, k.den) + schoolbook_mul(k.num, f.den),
            schoolbook_mul(f.den, k.den))
        product = f * k
        assert (product.num, product.den) == plain(
            schoolbook_mul(f.num, k.num), schoolbook_mul(f.den, k.den))


def _spread(coeffs, w):
    """Reference packing: the value at q = 2^(8w)."""
    return sum(c << (8 * w * i) for i, c in enumerate(coeffs))


# Slot widths: the four machine-word widths, and wider ones that take the
# per-coefficient path.
SLOT_WIDTHS = (1, 2, 4, 8, 9, 16)


def slot_coeffs(w):
    half = 1 << (8 * w - 1)
    return st.lists(st.one_of(st.integers(-half, half - 1), st.sampled_from((-half, half - 1))),
                    min_size=1, max_size=20)


def width_polys(bits):
    """Nonzero polynomials of 1..24 coefficients below 2^bits in magnitude,
    every other one at the bound, so that slot widths follow bits closely."""
    top = 2 ** bits - 1
    coeff = st.one_of(st.integers(-top, top), st.sampled_from((-top, top)))
    return st.builds(IntPoly, st.lists(coeff, min_size=1, max_size=24)).filter(bool)


# Coefficients of 25..36 bits put the product slot bits|a| + bits|b| +
# bitlen(min(m, n)) + 1 on both sides of 64, the widest word slot.
straddling_pairs = st.integers(25, 36).flatmap(
    lambda bits: st.tuples(width_polys(bits), width_polys(bits)))


class TestWordSlots:
    def test_every_word_width_has_a_typecode(self):
        assert sorted(rings._WORD_CODES) == [1, 2, 4, 8]

    @pytest.mark.parametrize("w", SLOT_WIDTHS)
    def test_extremes_round_trip(self, w):
        half = 1 << (8 * w - 1)
        lo, hi = -half, half - 1
        for coeffs in ([lo], [hi], [lo, hi], [hi, lo], [lo] * 5, [hi] * 5,
                       [hi, lo, 0, -1, 1, lo, hi], [0, 0, lo], [-1] * 3):
            value = _pack(coeffs, w)
            assert value == _spread(coeffs, w)
            assert _unpack(value, len(coeffs), w) == coeffs

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SLOT_WIDTHS).flatmap(lambda w: st.tuples(st.just(w), slot_coeffs(w))))
    def test_round_trip_matches_reference(self, case):
        w, coeffs = case
        value = _pack(coeffs, w)
        assert value == _spread(coeffs, w)
        assert _unpack(value, len(coeffs), w) == coeffs
        assert _unpack(value, len(coeffs) + 2, w) == coeffs + [0, 0]

    @pytest.mark.parametrize("w", SLOT_WIDTHS)
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_unpack_overflow(self, w, n):
        # n balanced digits reach from -offset to 2^(8wn) - 1 - offset.
        half = 1 << (8 * w - 1)
        offset = _spread([half] * n, w)
        assert _unpack(-offset, n, w) == [-half] * n
        assert _unpack(2 ** (8 * w * n) - 1 - offset, n, w) == [half - 1] * n
        with pytest.raises(OverflowError):
            _unpack(-offset - 1, n, w)  # a negative value below the range
        with pytest.raises(OverflowError):
            _unpack(2 ** (8 * w * n) - offset, n, w)  # needs n + 1 digits

    def test_slot_bytes_rounds_to_word_widths(self):
        # (bits_a, bits_b, count) -> w: the fewest bytes above
        # bits_a + bits_b + bitlen(count), then 1, 2, 4 or 8 up to 8 bytes.
        cases = {(0, 0, 0): 1, (3, 3, 1): 1, (4, 3, 1): 2, (7, 7, 1): 2, (8, 7, 1): 4,
                 (15, 15, 1): 4, (16, 15, 1): 8, (31, 31, 1): 8, (32, 31, 1): 9,
                 (40, 40, 3): 11}
        for args, w in cases.items():
            assert _slot_bytes(*args) == w

    @settings(max_examples=300, deadline=None)
    @given(straddling_pairs)
    def test_mul_across_the_widest_word(self, pair):
        a, b = pair
        expected = schoolbook_mul(a, b)
        assert a * b == expected
        assert b * a == expected

    @settings(max_examples=300, deadline=None)
    @given(straddling_pairs)
    def test_divexact_across_the_widest_word(self, pair):
        # The same pairs as long-division cases: a quotient of 25..36-bit
        # coefficients times a divisor like it, and that product plus a
        # remainder of lower degree than the divisor.
        q, b = pair
        a = schoolbook_mul(q, b)
        assert a.divexact(b) == q
        if b.degree >= 1:  # a remainder q^(deg b - 1) makes it inexact
            with pytest.raises(InexactDivisionError):
                (a + IntPoly.monomial(1, b.degree - 1)).divexact(b)

    def test_straddling_shapes_reach_both_kernels_and_widths(self):
        # The strategy above reaches packed and schoolbook products, with
        # word slots and wider ones.
        slots, kernels = set(), set()
        for bits, m, n in ((25, 8, 8), (36, 8, 8), (25, 4, 24), (36, 24, 24)):
            slots.add(_slot_bytes(bits, bits, min(m, n)) <= 8)
            kernels.add(_pack_pays(m, n))
        assert slots == kernels == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(58, 68).flatmap(lambda bits: width_polys(bits).filter(
        lambda p: p.degree >= 1)), width_polys(3), width_polys(3))
    def test_heu_gcd_matches_prs_on_wide_planted_factors(self, c, x, y):
        # Planted common factors c with coefficients of 58..68 bits: the
        # evaluation point is 2^64 or a wider power of two.
        a = schoolbook_mul(x, c).primitive_positive()
        b = schoolbook_mul(y, c).primitive_positive()
        g = poly_gcd(a, b)
        assert g == prs_gcd(a, b)
        schoolbook_divexact(a, g)  # each raises unless g divides exactly
        schoolbook_divexact(b, g)

    def test_heu_gcd_retries_after_a_spurious_factor(self, monkeypatch):
        # a = 1 + q + q^2 and b = q + 2^32 + 1 are coprime, but at xi = 2^64
        # (b has 33-bit coefficients, so 8w > 33 + 8 rounds w up to 8 bytes)
        # b(xi) = 2^64 + 2^32 + 1 divides a(xi), since x^4 + x^2 + 1 =
        # (x^2 + x + 1)(x^2 - x + 1) at x = 2^32: the candidate is b itself,
        # which does not divide a.  The second try, at 2^88, answers 1.
        calls = []
        original = rings._unpack

        def counting(value, n, w):
            calls.append(w)
            return original(value, n, w)

        monkeypatch.setattr(rings, "_unpack", counting)
        a, b = IntPoly((1, 1, 1)), IntPoly((2 ** 32 + 1, 1))
        assert poly_gcd(a, b) == P_ONE
        assert calls == [8, 11]
        assert prs_gcd(a, b) == P_ONE


def clear_caches():
    """Empty every functools cache of the loaded ppx modules and of their
    classes' methods, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "ppx" or name.startswith("ppx."):
            values = list(vars(module).values())
            values += [v for cls in values if isinstance(cls, type) for v in vars(cls).values()]
            for value in values:
                cached = getattr(value, "__func__", value)  # a classmethod's function
                if hasattr(type(cached), "cache_clear"):
                    cached.cache_clear()


def flip_first_digit(monkeypatch, flips) -> list:
    """Plant one wrong result of rings._unpack: the first call for which
    flips(w, caller) holds and that returns at least 16 digits, not all 0,
    comes back with the sign of its lowest nonzero digit flipped.  Returns
    the list of flipped digit indices.  The caches are emptied first."""
    original, flipped = rings._unpack, []

    def unpack(value, n, w):
        digits = original(value, n, w)
        if (not flipped and n >= 16 and any(digits)
                and flips(w, sys._getframe(1).f_code.co_name)):
            flipped.append(next(i for i, d in enumerate(digits) if d))
            digits[flipped[0]] = -digits[flipped[0]]
        return digits

    clear_caches()
    monkeypatch.setattr(rings, "_unpack", unpack)
    return flipped


@pytest.fixture
def flipped_word_digit(monkeypatch):
    """One wrong result of the word-slot kernels: the first word-slot
    _unpack result with at least 16 digits has one digit flipped.  Yields
    the list of flipped digit indices.  The caches are empty before and after."""
    yield flip_first_digit(monkeypatch, lambda w, caller: w in rings._WORD_CODES)
    monkeypatch.undo()
    clear_caches()


@pytest.fixture
def flipped_sum_digit(monkeypatch):
    """One wrong digit of a sum of qsequences at q = 2^k: the first result of
    _u_ratio_sum with at least 16 digits, at any slot width, has one digit
    flipped.  The caches are empty before and after."""
    yield flip_first_digit(monkeypatch, lambda w, caller: caller == "_u_ratio_sum")
    monkeypatch.undo()
    clear_caches()


@pytest.mark.parametrize("command", ["seq rq 12", "verify thm42", "verify thm45"])
def test_a_flipped_digit_of_the_divisor_sum_is_noticed(flipped_sum_digit, capsys, command):
    # The flipped coefficient of n R_n is still divisible by n; the check of
    # r_n(1), or the division of a later n R_n that reads it, notices it.
    assert cli.main(command.split()) == 1
    assert flipped_sum_digit
    assert "consistency violation" in capsys.readouterr().err


class TestSuitesNoticeAWordSlotFault:
    # The suites that meet a word-slot result of 16 or more digits and use
    # it.  Others pass under the fault because they meet no such result or do
    # not read the flipped digit: cor44, thm41, eq26 below --m 14 and eq28
    # below --m 11.  eq26 and eq28 run at the smallest --m that exits 1.
    # thm42, thm43, thm45 and eq26 --m 14 meet it first in the divisor sum of
    # r_n(q) at q = 2^k, which reads its digits back through the same _unpack.
    @pytest.mark.parametrize("command, notice", [
        ("verify roundtrip --max-n 18", "FAIL e-q-oracle"),
        ("verify roundtrip", "FAIL e-q-oracle"),
        ("verify eq18", "FAIL product-coefficient"),
        ("verify eq21 --max-n 16", "FAIL log-coefficient"),
        ("verify thm43", "consistency violation"),
        ("verify eq26 --m 14", "consistency violation"),
        ("verify eq28 --m 11", "FAIL sum-equals-product"),
        ("verify qpascal --max-n 16", "consistency violation"),
        ("verify thm42", "consistency violation"),
        ("verify thm45", "consistency violation"),
    ])
    def test_suite_exits_one(self, flipped_word_digit, capsys, command, notice):
        assert cli.main(command.split()) == 1
        assert flipped_word_digit
        captured = capsys.readouterr()
        assert notice in captured.out + captured.err


# Run in a child process: every word-slot IntPoly product (an _unpack called
# from IntPoly.__mul__ with a slot of 1, 2, 4 or 8 bytes) comes back with the
# sign of its lowest nonzero digit flipped.
EVERY_PRODUCT_WRONG = """
import sys
from ppx import cli, rings

unpack = rings._unpack


def flipped(value, n, w):
    digits = unpack(value, n, w)
    if sys._getframe(1).f_code.co_name == "__mul__" and w in rings._WORD_CODES and any(digits):
        i = next(i for i, d in enumerate(digits) if d)
        digits[i] = -digits[i]
    return digits


rings._unpack = flipped
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", [
    "verify eq21 --max-n 16", "verify eq18", "verify roundtrip --max-n 18"])
def test_suite_fed_wrong_products_fails_in_bounded_time(command):
    # A wrong ring kernel must end in FAIL or a consistency violation, not
    # in a gcd or division on ever larger integers: each exits 1 within 30 s
    # (subprocess.run raises TimeoutExpired otherwise).
    done = subprocess.run([sys.executable, "-c", EVERY_PRODUCT_WRONG, *command.split()],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 1, done.stderr
    assert "FAIL" in done.stdout or "consistency violation" in done.stderr


def test_failed_exact_division_is_a_consistency_violation(monkeypatch, capsys):
    # An exact division the theory guarantees is an internal check, not a
    # usage error: it reports like a ConsistencyError, with exit 1.  thm43
    # divides to build Phi_m(q); thm42 divides nowhere.
    def refuse(self, other):
        raise InexactDivisionError("planted")

    clear_caches()
    monkeypatch.setattr(IntPoly, "divexact", refuse)
    assert cli.main(["verify", "thm43"]) == 1
    assert "consistency violation: planted" in capsys.readouterr().err
    monkeypatch.undo()
    clear_caches()


class TestPolyGcd:
    def test_qint_example(self):
        # gcd([4], [6]) = [2]; oracle: gcd(q^j - 1, q^n - 1) = q^gcd(j,n) - 1
        assert poly_gcd(qint(4), qint(6)) == IntPoly((1, 1))

    def test_qint_identity_against_oracle(self):
        # Up to 64, the largest n of the q-sequences, whose exact quotients
        # rest on this identity.
        for j in range(1, 65):
            for n in range(1, 65):
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
        assert poly_gcd(a, b) == prs_gcd(a, b)

    def test_heuristic_answers_qint_oracle(self):
        # The quotients RatFunc takes by the gcd, not only the gcd, are right:
        # [j]/[n] reduces to ([j]/[d], [n]/[d]) with d = gcd(j, n).
        for j in range(2, 31):
            for n in range(2, 31):
                g = qint(math.gcd(j, n))
                assert poly_gcd(qint(j), qint(n)) == g
                f = RatFunc(qint(j), qint(n))
                assert (g * f.num, g * f.den) == (qint(j), qint(n))

    @settings(max_examples=150, deadline=None)
    @given(*[kron_polys.filter(lambda p: p.coeffs[0])] * 2,
           nonzero_polys.filter(lambda p: p.coeffs[0]),
           *[st.integers(-60, 60).filter(bool)] * 2, *[st.integers(0, 6)] * 2)
    def test_scaled_shifted_operands_match_prs(self, x, y, g, c1, c2, i, j):
        # c1 q^i x g and c2 q^j y g, with x(0), y(0), g(0) != 0: poly_gcd
        # takes off the powers of q and the contents itself.  Expected:
        # q^min(i, j) times prs_gcd of the primitive parts, and a RatFunc
        # that divides by that gcd and by the common content.
        a = schoolbook_mul(schoolbook_mul(x, g), IntPoly.monomial(c1, i))
        b = schoolbook_mul(schoolbook_mul(y, g), IntPoly.monomial(c2, j))
        pa = schoolbook_mul(x, g).primitive_positive()
        pb = schoolbook_mul(y, g).primitive_positive()
        gcd = prs_gcd(pa, pb).shifted(min(i, j))
        assert poly_gcd(a, b) == gcd
        num, den = schoolbook_divexact(a, gcd), schoolbook_divexact(b, gcd)
        c = math.gcd(num.content, den.content) * (1 if den.lead > 0 else -1)
        f = RatFunc(a, b)
        assert (f.num, f.den) == (IntPoly(k // c for k in num.coeffs),
                                  IntPoly(k // c for k in den.coeffs))


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
        # RatFunc adds and multiplies; the rest of the field Q(q) is QFrac,
        # which only the tests use.
        half, third = RatFunc(1, 2), RatFunc(1, 3)
        assert half + third == RatFunc(5, 6)
        assert half * third == RatFunc(1, 6)
        assert QFrac(1, 2) - third == RatFunc(1, 6)
        assert QFrac(1, 2) / third == RatFunc(3, 2)
        f = QFrac(Q, IntPoly((1, 1)))
        assert f / f == RatFunc(1)
        assert f ** 3 == RatFunc(Q ** 3, IntPoly((1, 1)) ** 3)

    @settings(max_examples=150, deadline=None)
    @given(kron_polys, kron_polys, nonzero_polys, st.data())
    def test_split_and_reduction_match_prs(self, x, y, g, data):
        # Operands +-c q^v x g and +-c q^v y g with random content, sign and
        # valuation, and a planted common factor g.
        def scaled_shifted(f):
            c = data.draw(st.integers(1, 60)) * data.draw(st.sampled_from((1, -1)))
            return schoolbook_mul(schoolbook_mul(f, g), IntPoly.monomial(c, data.draw(
                st.integers(0, 6))))

        num, den = scaled_shifted(x), scaled_shifted(y)
        f = RatFunc(num, den)
        assert f.den.lead > 0
        assert math.gcd(f.num.content, f.den.content) == 1
        assert prs_gcd(f.num.primitive_positive(), f.den.primitive_positive()) == P_ONE
        assert schoolbook_mul(f.num, den) == schoolbook_mul(num, f.den)

    def test_monomial_over_q_factorial_never_packs(self, monkeypatch):
        # q^k/[n]! and its q-inverse, the fractions of eq18: with its power
        # of q and content taken off, the side q^k is 1, so poly_gcd returns
        # before the GCDHEU loop.
        facts = [qsequences.qfact(n) for n in range(25)]
        packed, pack = [], rings._pack
        monkeypatch.setattr(rings, "_pack", lambda *args: packed.append(args) or pack(*args))
        for n, fact in enumerate(facts):
            for k in (0, 1, math.comb(n, 2), math.comb(n, 2) + 1):
                assert RatFunc(IntPoly.monomial(1, k), fact).den == fact
                assert RatFunc(IntPoly.monomial(-6, k), fact * 4).den == fact * 2
            assert RatFunc(*qsequences._at_inverse_q(P_ONE, fact)).den == fact
        assert packed == []

    def test_str_brackets_a_scaled_monomial_denominator(self):
        # 3/2q would read as (3/2)q.
        assert str(RatFunc(3, IntPoly.monomial(2, 1))) == "3/(2q)"
        assert str(RatFunc(5, IntPoly.monomial(7, 3))) == "5/(7q^3)"
        assert str(RatFunc(-5, IntPoly.monomial(-7, 3))) == "5/(7q^3)"
        assert str(RatFunc(1, IntPoly.monomial(1, 2))) == "1/q^2"
        assert str(RatFunc(IntPoly.monomial(3, 2), IntPoly((1, 1)))) == "3q^2/(1+q)"
        assert str(RatFunc(IntPoly((0, 2)), 3)) == "2q/3"
        assert str(RatFunc(IntPoly((1, -1)), IntPoly.monomial(2, 1))) == "(1-q)/(2q)"

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
        assert a + ring.reduce(IntPoly((0, 0, 1))) == ring.reduce(-1)

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

    def test_a_ring_equals_only_itself(self):
        # The same modulus in two instances still makes two rings; the shared
        # instances are those of QuotientRing.cyclotomic and mod_q2_ring.
        shared, other = QuotientRing.cyclotomic(7), QuotientRing(cyclotomic(7))
        assert shared != other and shared == shared
        for a, b in ((shared.one, other.one), (other.one, shared.one)):
            with pytest.raises(ValueError, match="mixing"):
                a + b
            with pytest.raises(ValueError, match="mixing"):
                a * b
            with pytest.raises(ValueError, match="mixing"):
                a == b
        assert mod_q2_ring() is mod_q2_ring()


def long_division_remainder(coeffs, modulus) -> tuple:
    """Dense schoolbook reference on coefficient sequences, lowest degree
    first: at every degree from the top down, subtract the quotient digit
    times every coefficient of the modulus, zeros included.  The remainder,
    with no trailing zeros."""
    rem, dm = list(coeffs), len(modulus) - 1
    for k in range(len(rem) - 1 - dm, -1, -1):
        t, leftover = divmod(rem[dm + k], modulus[-1])
        assert not leftover
        for i, c in enumerate(modulus):
            rem[i + k] -= t * c
    del rem[dm:]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


@st.composite
def signed_polys(draw, max_degree):
    """Degree up to max_degree; coefficients of 0 to 64 bits and either sign,
    dense or mostly zero, filled from a seeded generator."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    degree, bits = draw(st.integers(-1, max_degree)), draw(st.integers(0, 64))
    density = draw(st.sampled_from((1.0, 0.5, 0.05)))
    return IntPoly([rnd.randint(-2 ** bits, 2 ** bits) if rnd.random() < density else 0
                    for _ in range(degree + 1)])


monic_moduli = st.builds(
    lambda low, lead: IntPoly((*low, lead)),
    st.lists(st.integers(-5, 5), max_size=12), st.sampled_from((1, -1)))


class TestQuotientReduce:
    """Fold mod q^m - 1, then sparse division (a truncation for +-q^d), against
    dense long division."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 60), signed_polys(3000))
    def test_cyclotomic_matches_long_division(self, m, f):
        ring = QuotientRing.cyclotomic(m)
        reduced = ring.reduce(f)
        assert reduced.ring is ring
        assert reduced.rep.coeffs == long_division_remainder(f.coeffs, cyclotomic(m).coeffs)
        assert QuotientRing(cyclotomic(m)).reduce(f).rep == reduced.rep

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.just(IntPoly((0, 0, 1))),
                     st.builds(IntPoly.monomial, st.sampled_from((1, -1)), st.integers(1, 12)),
                     monic_moduli.filter(lambda p: p.degree >= 1)),
           signed_polys(400))
    def test_general_modulus_matches_long_division(self, modulus, f):
        assert QuotientRing(modulus).reduce(f).rep.coeffs == long_division_remainder(
            f.coeffs, modulus.coeffs)

    def test_cyclotomic_ring_is_shared_and_knows_its_period(self):
        ring = QuotientRing.cyclotomic(40)
        assert ring is QuotientRing.cyclotomic(40)
        assert (ring.period, ring.modulus) == (40, cyclotomic(40))
        assert QuotientRing(cyclotomic(40)).period is None

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2), signed_polys(80), st.data())
    def test_shifted_is_a_product_by_a_power_of_q(self, m, kind, f, data):
        # the shared ring of period m, the same modulus with no period, and q^2;
        # k on both sides of the period and of the modulus degree
        ring = (QuotientRing.cyclotomic(m), QuotientRing(cyclotomic(m)), mod_q2_ring())[kind]
        k = data.draw(st.integers(0, 3 * m + 2))
        e = ring.reduce(f)
        shifted = e.shifted(k)
        assert shifted.ring is ring
        assert shifted.rep == (e * ring.reduce(IntPoly.monomial(1, k))).rep
        assert shifted.rep == ring.reduce(f.shifted(k)).rep

    def test_zero_and_one_are_held_once(self):
        ring = QuotientRing.cyclotomic(5)
        assert ring.zero is ring.zero and ring.one is ring.one
        a = ring.reduce(IntPoly((1, 2, 3)))
        assert a + ring.zero is a and ring.zero + a is a and 0 + a is a


class TestSerialize:
    def test_shapes(self):
        assert serialize(2 ** 100) == str(2 ** 100)
        assert serialize(Fraction(-1, 3)) == "-1/3"
        assert serialize(Fraction(1)) == "1"
        assert serialize(IntPoly((1, 0, -2))) == ["1", "0", "-2"]
        assert serialize(RatFunc(Q, IntPoly((1, 1)))) == {"num": ["0", "1"], "den": ["1", "1"]}
