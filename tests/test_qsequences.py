"""q-analog sequences, their specializations, and identity suites."""

import functools
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppx import cli, products, qsequences, rings
from ppx.qsequences import (
    GOLDEN_CAP_E_Q,
    GOLDEN_E_Q,
    GOLDEN_R_Q,
    c_q_seq,
    cap_e_q_seq,
    check_golden_q_lists,
    check_integrality,
    check_log_coeffs,
    check_mod_q2,
    check_odd_symmetry,
    check_q_oracle,
    check_reciprocal_identity,
    e_q_seq,
    mod_q2_closed_form,
    mod_q2_expansion,
    mod_q2_ring,
    qbinom,
    qfact,
    qint,
    r_q_seq,
    u_q_seq,
)
from ppx.rings import ConsistencyError, IntPoly, P_ONE, P_ZERO, Q, RatFunc
from ppx.sequences import c_seq, divisors, e_seq, exp_series, is_prime, r_seq, u_seq
from ppx.series import TruncatedSeries
from qfunc_series import QFrac, cap_expq_series, expq_series
from schoolbook import product_u_q, product_u_ratio_sum, prs_gcd, prs_poly_gcd

small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=6))
nonzero_polys = small_polys.filter(bool)


def stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def quotient_qbinom(n: int, k: int) -> IntPoly:
    """Reference Gaussian binomial: the exact quotient [n]!/([k]![n-k]!)."""
    return qfact(n).divexact(qfact(k) * qfact(n - k))


def recursion_r_q(n_max: int) -> list:
    """Reference r_1(q)..r_N(q) from the divisor recursion, with no e_n(q):

        r_n(q) = sum_{d|n, d>1} (-1)^d (u_n(q) / (d u_{n/d}(q)^d)) r_{n/d}(q)^d
                 + (1-q)^(n-1) u_n(q) / (n [n]).
    """
    u, r = u_q_seq(n_max), []
    for n in range(1, n_max + 1):
        total = QFrac(0)
        for d in divisors(n)[1:]:
            term = QFrac(u[n - 1], u[n // d - 1] ** d * d) * QFrac(r[n // d - 1]) ** d
            total = total + term if d % 2 == 0 else total - term
        total = total + QFrac(IntPoly((1, -1)) ** (n - 1) * u[n - 1], qint(n) * n)
        assert total.den == P_ONE
        r.append(total.num)
    return r


@functools.cache
def reference_e_q_family(base: IntPoly, n: int) -> QFrac:
    """The n-th factor of the expansion whose log has coefficients
    base^(n-1)/(n [n]), by the divisor recursion over Q(q): base 1-q gives
    e_n(q), base q-1 gives E_n(q)."""
    total = QFrac(0)
    for d in divisors(n)[1:]:
        term = reference_e_q_family(base, n // d) ** d / d
        total = total + term if d % 2 == 0 else total - term
    return total + QFrac(base ** (n - 1), qint(n) * n)


def r_p_closed_form(p: int) -> IntPoly:
    """r_p(q) = ((1-q)^(p-1) - [p]) / p for an odd prime p."""
    return (IntPoly((1, -1)) ** (p - 1) - qint(p)).divexact(p)


def transcription_discrepancies() -> list:
    """(check id, n, printed, computed) for each informational golden-list
    entry whose transcription disagrees with the computed value."""
    return [(c.check_id, c.params["n"], c.expected, c.actual)
            for c in check_golden_q_lists().checks
            if c.params.get("informational") and c.expected != c.actual]


class TestQBasics:
    def test_qint(self):
        assert qint(3) == IntPoly((1, 1, 1))
        assert qint(1) == P_ONE
        assert qint(0) == P_ZERO

    def test_qfact(self):
        assert qfact(3) == IntPoly((1, 2, 2, 1))  # (1+q)(1+q+q^2)
        assert qfact(0) == P_ONE

    def test_cold_qfact_does_not_recurse(self, fresh_q_caches):
        # A cold [64]! used to take one frame per index; filled bottom-up it
        # needs a few, so 30 frames above the caller's depth are plenty.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 30)
        try:
            value = qfact(64)
        finally:
            sys.setrecursionlimit(limit)
        assert value(1) == math.factorial(64)
        assert value == qfact(63) * qint(64)

    def test_cold_fills_ignore_a_patched_name(self, fresh_q_caches, monkeypatch):
        # Each cache is filled through its own function, not the module name.
        for name in ("qfact", "_q_pascal_row"):
            real = getattr(qsequences, name)
            monkeypatch.setattr(qsequences, name, lambda n, real=real: real(n))
        assert qsequences.qfact(5) == math.prod(map(qint, range(1, 6)), start=P_ONE)
        assert qbinom(6, 3) == quotient_qbinom(6, 3)

    def test_qbinom_example(self):
        # oracle: exact division [4]!/([2]![2]!) done longhand
        explicit = qfact(4).divexact(qfact(2) * qfact(2))
        assert explicit == IntPoly((1, 1, 2, 1, 1))
        assert qbinom(4, 2) == explicit

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_qbinom_matches_quotient(self, nk):
        # qbinom runs the q-Pascal rule; the reference divides q-factorials
        assert qbinom(*nk) == quotient_qbinom(*nk)

    def test_cold_qbinom_does_not_recurse(self, fresh_q_caches):
        # Rows of the q-Pascal triangle are filled bottom-up, as in qfact.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 30)
        try:
            value = qbinom(64, 32)
        finally:
            sys.setrecursionlimit(limit)
        assert value(1) == math.comb(64, 32)
        assert value == quotient_qbinom(64, 32)

    def test_qbinom_validation(self):
        with pytest.raises(ValueError):
            qbinom(2, 3)


class TestGoldenLists:
    def test_e_q_matches_source_list(self):
        assert e_q_seq(7) == [RatFunc(*pair) for pair in GOLDEN_E_Q]

    def test_cap_e_q_matches_source_list(self):
        assert cap_e_q_seq(7) == [RatFunc(*pair) for pair in GOLDEN_CAP_E_Q]

    def test_r_q_matches_source_list(self):
        assert r_q_seq(7) == list(GOLDEN_R_Q)

    def test_no_transcription_discrepancies(self):
        assert transcription_discrepancies() == []

    def test_transcription_discrepancy_reported(self, monkeypatch):
        wrong = (P_ONE, qint(6))
        monkeypatch.setattr(qsequences, "GOLDEN_E_Q", GOLDEN_E_Q[:5] + (wrong,) + GOLDEN_E_Q[6:])
        assert transcription_discrepancies() == [
            ("golden-e", 6, str(RatFunc(*wrong)), str(RatFunc(*GOLDEN_E_Q[5])))]
        assert check_golden_q_lists().passed

    def test_report(self):
        assert check_golden_q_lists().passed

    def test_spot_values(self):
        assert e_q_seq(2)[1] == RatFunc(P_ONE, qint(2))
        assert cap_e_q_seq(2)[1] == RatFunc(Q, qint(2))
        assert cap_e_q_seq(4)[3] == RatFunc(Q * IntPoly((1, 1, 0, 1)), qint(2) * qint(4))
        assert r_q_seq(3)[2] == -Q


class TestUq:
    def test_u6_structure(self):
        assert u_q_seq(6)[5] == qint(2) ** 2 * qint(3) * qint(6)

    def test_u4(self):
        assert u_q_seq(4)[3] == qint(2) * qint(4)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_u_prime(self, p):
        assert u_q_seq(p)[p - 1] == qint(p)

    def test_gcd_and_totient_forms_agree_to_20(self):
        from ppx.rings import poly_gcd
        from ppx.sequences import divisors, euler_phi

        for n in range(1, 21):
            via_gcd = P_ONE
            for j in range(1, n + 1):
                via_gcd = via_gcd * poly_gcd(qint(j), qint(n))
            via_phi = P_ONE
            for d in divisors(n):
                via_phi = via_phi * qint(d) ** euler_phi(n // d)
            assert u_q_seq(n)[n - 1] == via_gcd == via_phi


class TestCq:
    def test_c2_and_c3(self):
        assert c_q_seq(3) == [P_ONE, P_ONE, IntPoly((0, -1, -1))]

    def test_c_at_one_recovers_classical(self):
        cq = c_q_seq(8)
        assert [p(1) for p in cq] == [1, 1, -2, 9, -24, 130, -720, 8505]

    def test_matches_factorial_times_e_q(self):
        # A second derivation: the rational-function product [n]! e_n(q)
        # against r_n(q) run through the passes [j]/[gcd(j, n)].
        for n, c in enumerate(c_q_seq(24), start=1):
            assert RatFunc(qfact(n)) * qsequences._e_q(n) == c

    @pytest.mark.parametrize("n", [*range(1, 11), 24, 40, 64])
    def test_reduction_by_factorial_gives_e_q(self, n):
        # RatFunc(c_n(q), [n]!) is the reduction a failing q-row prints, and
        # the one place where a command meets a nontrivial GCDHEU gcd and
        # exact quotients of many coefficients.  Up to n = 10 the
        # pseudo-remainder gcd, times the content gcd, reduces it the same way.
        c, fact = qsequences._c_q(n), qfact(n)
        f = RatFunc(c, fact)
        assert f == qsequences._e_q(n)
        if n <= 10:
            g = prs_gcd(c.primitive_positive(), fact) * math.gcd(c.content, fact.content)
            assert (f.num, f.den) == (c.divexact(g), fact.divexact(g))

    @pytest.mark.parametrize("fault, pass_, check", [
        (lambda cs: (IntPoly(cs) * IntPoly((1, 1))).coeffs, (4, 2), "q=1"),  # a factor too many
        (lambda cs: (IntPoly(cs) + IntPoly((0, 1, -1))).coeffs, (5, 1), "q=2"),  # same at q = 1
    ], ids=["extra-factor", "same-value-at-one"])
    def test_planted_pass_fault_is_caught(self, monkeypatch, fresh_q_caches, fault, pass_, check):
        # c_6(q) takes the passes [4]/[2] and then [5]/[1], which no c_n(q)
        # with n < 6 takes.  q - q^2 keeps c_6(1), so only the q = 2 check sees it.
        # r_4(q) and r_5(q) take the same passes, so r_1(q)..r_6(q) are built first.
        r_q_seq(6)
        right = qsequences._times_ratio
        monkeypatch.setattr(qsequences, "_times_ratio", lambda cs, j, g: (
            fault(right(cs, j, g)) if (j, g) == pass_ else right(cs, j, g)))
        with pytest.raises(ConsistencyError, match=rf"c_6\(q\) at {check} "):
            c_q_seq(6)

    def test_pass_with_a_wrong_stride_is_caught(self, monkeypatch, fresh_q_caches):
        qsequences._r_q(6)
        right = qsequences._times_ratio
        monkeypatch.setattr(qsequences, "_times_ratio", lambda cs, j, g: right(cs, j, g + 1))
        with pytest.raises(ConsistencyError, match=r"\[4\]/\[3\] times .* is inexact"):
            qsequences._c_q(6)

    def test_c_q_and_cold_qfact_make_no_product(self, monkeypatch, fresh_q_caches):
        qsequences._r_q(40)
        calls, right = [], IntPoly.__mul__
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(IntPoly, name, lambda a, b: calls.append(b) or right(a, b))
        c, fact = qsequences._c_q(40), qfact(40)
        assert calls == []
        monkeypatch.undo()
        assert c(1) == c_seq(40)[39] and fact(1) == math.factorial(40)


class TestTimesRatio:
    @settings(max_examples=200, deadline=None)
    @given(small_polys, st.integers(1, 9), st.integers(1, 9), st.booleans())
    def test_matches_the_product_route(self, p, j, g, times_qint_g):
        # [j]/[g] is a polynomial when g | j; p [g] [j]/[g] is one for every g.
        p = p * qint(g) if times_qint_g else p
        try:
            expected = (p * qint(j)).divexact(qint(g))
        except rings.InexactDivisionError:
            with pytest.raises(ConsistencyError, match=rf"\[{j}\]/\[{g}\]"):
                qsequences._times_ratio(p.coeffs, j, g)
        else:
            assert IntPoly(qsequences._times_ratio(p.coeffs, j, g)) == expected

    @pytest.mark.parametrize("coeffs, j, g, quotient", [
        ((1,), 6, 3, (1, 0, 0, 1)),
        ((1, 1), 3, 2, (1, 1, 1)),  # [2] [3]/[2] = [3]: exact though 2 does not divide 3
        ((1, 1, 1), 1, 3, (1,)),
    ])
    def test_exact_examples(self, coeffs, j, g, quotient):
        assert tuple(qsequences._times_ratio(coeffs, j, g)) == quotient

    def test_inexact_raises(self):
        with pytest.raises(ConsistencyError, match=r"\[3\]/\[2\]"):
            qsequences._times_ratio((1,), 3, 2)


class TestDegenerations:
    def test_q_to_one_all_sequences(self):
        assert [Fraction(f.num(1), f.den(1)) for f in e_q_seq(14)] == e_seq(14)
        assert [p(1) for p in u_q_seq(14)] == u_seq(14)
        assert [p(1) for p in r_q_seq(14)] == r_seq(14)
        assert [p(1) for p in c_q_seq(14)] == c_seq(14)

    def test_q_to_zero_dyadic(self):
        for n, f in enumerate(e_q_seq(16), start=1):
            expected = 1 if n & (n - 1) == 0 else 0
            assert Fraction(f.num(0), f.den(0)) == expected

    def test_r_at_zero_dyadic(self):
        for n, p in enumerate(r_q_seq(16), start=1):
            expected = 1 if n & (n - 1) == 0 else 0
            assert p(0) == expected


class TestIntegralityTheorem:
    def test_report_to_14(self):
        assert check_integrality(14).passed

    def test_monic_signs(self):
        for n, p in enumerate(r_q_seq(14), start=1):
            if n > 1:
                assert p.lead == (1 if n % 2 == 0 else -1)
            assert all(isinstance(c, int) for c in p.coeffs)


class TestRq:
    def test_matches_divisor_recursion(self):
        assert r_q_seq(30) == recursion_r_q(30)

    @pytest.mark.parametrize("wrong,notice", [
        (lambda total: total + 1, "r_6(q) did not reduce to a polynomial"),  # 6 does not divide it
        (lambda total: total + 6, "r_6(q) at q=1 != r_6"),  # r_6(q) + 1: integral, monic
    ])
    def test_wrong_e_q_is_caught(self, monkeypatch, capsys, fresh_q_caches, wrong, notice):
        # The fault is planted in 6 r_6(q) = 6 u_6(q) e_6(q), the divisor recursion's sum.
        right = qsequences._divisor_sum
        monkeypatch.setattr(qsequences, "_divisor_sum",
                            lambda base, n: wrong(right(base, n)) if n == 6 else right(base, n))
        assert cli.main(["seq", "rq", "6"]) == 1
        assert capsys.readouterr().err.startswith(f"consistency violation: {notice}")

    @pytest.mark.parametrize("base", [IntPoly((1, -1)), IntPoly((-1, 1))])
    def test_family_matches_rational_recursion_to_40(self, base):
        # u_n(q) times e_n(q) (base 1-q) or E_n(q) (base q-1) from the recursion over Q(q).
        for n in range(1, 41):
            expected = reference_e_q_family(base, n) * RatFunc(qsequences._u_q(n))
            assert RatFunc(qsequences._r_q_family(base, n)) == expected


class TestRqPasses:
    """r_n(q) and u_n(q) by one sum at q = 2^k, against the product-and-divexact route."""

    def test_cold_r_q_forms_no_u_q_and_no_quotient(self, monkeypatch, fresh_q_caches):
        calls, right = [], IntPoly.divexact
        monkeypatch.setattr(IntPoly, "divexact", lambda a, b: calls.append(b) or right(a, b))
        monkeypatch.setattr(qsequences, "_u_q", lambda n: calls.append(n) or P_ONE)
        r = qsequences._r_q(40)
        assert calls == []
        monkeypatch.undo()
        assert r(1) == r_seq(40)[39]

    @pytest.mark.parametrize("fault", [
        lambda right, value, k: value,  # the pair dropped
        lambda right, value, k: right(value, 12, 1, k),  # [12]/[1] in place of [12]/[6]
    ], ids=["dropped", "as-12-over-1"])
    def test_planted_fault_in_the_12_6_pass(self, monkeypatch, capsys, fresh_q_caches, fault):
        # [12]/[6] is the pair of j = 12 in u_12/u_6^2, the d = 2 term of r_12(q).
        right = qsequences._times_ratio_at
        monkeypatch.setattr(qsequences, "_times_ratio_at", lambda value, a, g, k: (
            fault(right, value, k) if (a, g) == (12, 6) else right(value, a, g, k)))
        assert cli.main(["seq", "rq", "12"]) == 1
        assert capsys.readouterr().err.startswith(
            "consistency violation: r_12(q) did not reduce to a polynomial")

    def test_planted_pair_that_is_no_polynomial(self, monkeypatch, capsys, fresh_q_caches):
        # [12]/[5] in place of [12]/[6]: 5 does not divide 12, and the error names the pair.
        right = qsequences._times_ratio_at
        monkeypatch.setattr(qsequences, "_times_ratio_at", lambda value, a, g, k: (
            right(value, 12, 5, k) if (a, g) == (12, 6) else right(value, a, g, k)))
        assert cli.main(["seq", "rq", "12"]) == 1
        assert capsys.readouterr().err.startswith(
            "consistency violation: [12]/[5] is not a polynomial: 5 does not divide 12")
        with pytest.raises(ConsistencyError, match=r"\[3\]/\[2\] is not a polynomial"):
            right(1, 3, 2, 8)

    def test_a_sum_beyond_its_bound_still_reads_back(self, monkeypatch):
        # u_2(q) = [2] has the bound 2 and k = 8.  A planted 2^15 - 1, whose top base-2^8
        # digit carries past its bit length, still reads back as a polynomial with that
        # value at 2^8, so a fault reaches the checks after the sum, not an OverflowError.
        monkeypatch.setattr(qsequences, "_times_ratio_at", lambda value, a, g, k: 2 ** 15 - 1)
        assert qsequences._u_ratio_sum(2, [(1, P_ONE, 1)])(2 ** 8) == 2 ** 15 - 1

    def test_ratio_passes_match_the_product_route(self):
        for n in range(1, 65):
            for d in divisors(n):
                expected = product_u_q(n).divexact(product_u_q(n // d) ** d)
                assert qsequences._u_ratio_sum(n, [(1, P_ONE, n // d)]) == expected

    @settings(max_examples=60, deadline=None)
    @given(small_polys, st.integers(1, 40), st.integers(-9, 9))
    @example(IntPoly((128,)), 1, 1)  # a one-term sum reaches its bound: no byte to spare
    @example(IntPoly((256,)), 2, -1)
    def test_d_term_matches_the_product_route(self, p, n, c):
        for d in divisors(n):
            expected = c * p ** d * product_u_q(n).divexact(product_u_q(n // d) ** d)
            assert qsequences._u_ratio_sum(n, [(c, p, n // d)]) == expected

    @pytest.mark.parametrize("base", [IntPoly((1, -1)), IntPoly((-1, 1))])
    def test_tail_matches_the_product_route(self, monkeypatch, base):
        # With every R_m = 0 the divisor sum is its tail, base^(n-1) u_n(q)/[n].
        monkeypatch.setattr(qsequences, "_r_q_family", lambda b, m: P_ZERO)
        for n in range(1, 65):
            expected = base ** (n - 1) * product_u_q(n).divexact(qint(n))
            assert qsequences._divisor_sum(base, n) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(small_polys, min_size=24, max_size=24), st.integers(1, 24),
           st.sampled_from([IntPoly((1, -1)), IntPoly((-1, 1))]))
    def test_planted_terms_match_the_product_route(self, planted, n, base):
        # Any R_1..R_(n-1), not only the true ones, give the product route's sum.
        terms = [((-1) ** d * (n // d), planted[n // d - 1], n // d) for d in divisors(n)[1:]]
        expected = product_u_ratio_sum(n, terms, base(0) ** (n - 1))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qsequences, "_r_q_family", lambda b, m: planted[m - 1])
            assert qsequences._divisor_sum(base, n) == expected


class TestOddSymmetry:
    def test_report(self):
        assert check_odd_symmetry(13).passed

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_spot(self, n):
        e = e_q_seq(n)[n - 1]
        assert e == cap_e_q_seq(n)[n - 1]
        assert RatFunc(*qsequences._at_inverse_q(e.num, e.den)) == e


class TestAtInverseQ:
    """num(1/q)/den(1/q) as a pair in Z[q], the input of the two q -> 1/q rows."""

    def test_examples(self):
        at_inverse = qsequences._at_inverse_q
        assert at_inverse(Q, IntPoly((1, 1))) == (P_ONE, IntPoly((1, 1)))  # q/(1+q) -> 1/(1+q)
        assert at_inverse(P_ONE, P_ONE) == (P_ONE, P_ONE)
        assert at_inverse(P_ZERO, qint(3)) == (P_ZERO, qint(3))
        assert at_inverse(-Q, qint(3)) == (-Q, qint(3))  # e_3(q), fixed under q -> 1/q
        assert at_inverse(P_ONE, qfact(3)) == (IntPoly.monomial(1, 3), qfact(3))  # eq18, n = 3

    @settings(max_examples=100, deadline=None)
    @given(small_polys, nonzero_polys)
    def test_involution(self, num, den):
        twice = qsequences._at_inverse_q(*qsequences._at_inverse_q(num, den))
        assert RatFunc(*twice) == RatFunc(num, den)

    @settings(max_examples=100, deadline=None)
    @given(small_polys, nonzero_polys)
    def test_is_the_value_at_the_reciprocal(self, num, den):
        # The reference evaluates num and den at 1/x and reverses nothing.
        f = RatFunc(*qsequences._at_inverse_q(num, den))
        for x in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            if den(1 / x):
                assert f.num(x) / f.den(x) == num(1 / x) / den(1 / x)


class TestReciprocal:
    def test_report(self):
        assert check_reciprocal_identity(8).passed

    def test_first_coefficient_cancels(self):
        product = expq_series(4, -1) * cap_expq_series(4)
        assert product.coeffs[1] == RatFunc(0)

    def test_q1_specialization(self):
        # exp(-x) exp(x) = 1 in the k! basis over Z.
        product = exp_series(8, -1) * exp_series(8)
        assert product == TruncatedSeries(rings.ZZ, [1] + [0] * 8, math.comb)


class TestPrimeClosedForm:
    @pytest.mark.parametrize("p,expected", [
        (3, IntPoly((0, -1))),
        (5, IntPoly((0, -1, 1, -1))),
        (7, IntPoly((0, -1, 2, -3, 2, -1))),
    ])
    def test_values(self, p, expected):
        assert r_p_closed_form(p) == expected
        assert r_q_seq(p)[p - 1] == expected

    @pytest.mark.parametrize("p", [p for p in range(3, 24) if is_prime(p)])
    def test_matches_r_q_seq(self, p):
        assert r_q_seq(p)[p - 1] == r_p_closed_form(p)


class TestModQ2:
    def test_closed_form_values(self):
        ring = mod_q2_ring()
        gs = mod_q2_expansion(16)
        assert gs[0] == ring.one
        assert gs[1] == ring.reduce(IntPoly((1, -1)))
        assert gs[2] == ring.reduce(IntPoly((0, -1)))
        assert gs[3] == ring.reduce(IntPoly((1, -2)))
        assert gs[4] == ring.reduce(IntPoly((0, -1)))
        assert gs[5] == ring.zero
        assert gs[6] == ring.reduce(IntPoly((0, -1)))
        assert gs[7] == ring.reduce(IntPoly((1, -4)))
        assert gs[15] == ring.reduce(IntPoly((1, -8)))

    def test_closed_form_table(self):
        assert mod_q2_closed_form(1) == P_ONE
        assert mod_q2_closed_form(8) == IntPoly((1, -4))
        assert mod_q2_closed_form(6) == P_ZERO
        assert mod_q2_closed_form(9) == IntPoly((0, -1))

    def test_report_to_32(self):
        assert check_mod_q2(32).passed


class TestLogCoefficients:
    def test_report_to_12(self):
        assert check_log_coeffs(12).passed

    def test_explicit(self):
        logs = expq_series(6).log()  # weight 1 over Q(q): M_n = n L_n
        for n in range(1, 7):
            assert logs.coeffs[n] / n == RatFunc(IntPoly((1, -1)) ** (n - 1), qint(n) * n)


class TestQOracle:
    def test_expansion_matches_recursions_to_14(self):
        assert check_q_oracle(14).passed

    def test_direct(self):
        assert list(products.expand(expq_series(10))) == e_q_seq(10)
        assert list(products.expand(cap_expq_series(10))) == cap_e_q_seq(10)


def expq_series_over_zq(order: int, constant=P_ONE) -> TruncatedSeries:
    """exp_q(x) in the divided-power basis over Z[q], with F_0 = constant."""
    return TruncatedSeries(rings.ZX, [constant] + [P_ONE] * order, qbinom)


class TestDividedPowerKernel:
    """The series kernel in the basis of qbinom; its product, log, expansion
    and contraction meet the schoolbook reference in test_weighted_series."""

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            expq_series_over_zq(1, IntPoly(2)).log()
        with pytest.raises(ValueError):
            products.expand(expq_series_over_zq(1, IntPoly(2)))

    def test_expq_factors_are_c_q(self):
        # For exp_q, G_n = [n]! e_n(q) = c_n(q).
        assert list(products.expand(expq_series_over_zq(24))) == c_q_seq(24)


@pytest.fixture
def fresh_q_caches():
    """Empty the q-sequence caches before and after the test, so that a
    patched ring kernel is really exercised and leaves no value behind."""

    def clear():
        for value in vars(qsequences).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    clear()
    yield clear
    clear()


class TestGcdKernelFaults:
    def test_prs_fallback_alone(self, monkeypatch, fresh_q_caches):
        # The reference pseudo-remainder sequence, in place of GCDHEU,
        # gives the same gcds and the same results.
        expected = c_q_seq(12)
        fresh_q_caches()
        for j in range(1, 31):
            for n in range(1, 31):
                assert prs_gcd(qint(j), qint(n)) == qint(math.gcd(j, n))
        monkeypatch.setattr(rings, "poly_gcd", prs_poly_gcd)
        assert check_q_oracle(8).passed
        assert c_q_seq(12) == expected

    def test_unit_gcd_is_caught(self, monkeypatch, fresh_q_caches):
        # The q-oracle decides in Z[q], and gcd(r_n(q), u_n(q)) = 1, so a gcd
        # that is not greatest changes none of its rows.  It is caught where
        # a fraction must come out reduced: c_6(q)/[6]! stays unreduced and
        # no longer equals e_6(q).  c_n(q) uses no gcd.
        def rows(report):
            return [(c.check_id, c.params, c.passed, c.expected, c.actual)
                    for c in report.checks]

        expected, oracle = c_q_seq(6), rows(check_q_oracle(6))
        fresh_q_caches()
        monkeypatch.setattr(rings, "poly_gcd", lambda a, b: P_ONE)
        assert rows(check_q_oracle(6)) == oracle
        assert c_q_seq(6) == expected
        assert RatFunc(expected[5], qfact(6)) != e_q_seq(6)[5]


class TestNoGcdOnTheSequencePath:
    @pytest.fixture
    def gcd_calls(self, monkeypatch, fresh_q_caches):
        """One entry per call of poly_gcd, the gcd behind RatFunc
        normalisation, under every name a ppx module binds it to."""
        calls, original = [], rings.poly_gcd

        def counted(a, b):
            calls.append(1)
            return original(a, b)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "ppx"]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
        return calls

    def test_r_q_and_c_q_make_no_gcd(self, gcd_calls):
        r_q_seq(36)
        c_q_seq(36)
        assert gcd_calls == []

    def test_e_q_normalises_once_per_n(self, gcd_calls):
        e_q_seq(36)
        assert 0 < len(gcd_calls) <= 36


@pytest.fixture
def normalisations(monkeypatch, fresh_q_caches):
    """One entry per call of poly_gcd, the gcd behind RatFunc normalisation."""
    calls, original = [], rings.poly_gcd
    monkeypatch.setattr(rings, "poly_gcd", lambda a, b: calls.append(1) or original(a, b))
    return calls


# 52 and 42 in process with the q -> 1/q rows decided in Z[q]; 80 and 124
# when each of those rows normalised a fraction of its own.
@pytest.mark.parametrize("command, bound", [("verify all", 52),
                                            ("verify eq18 --max-n 40", 42)])
def test_verify_normalisation_calls(normalisations, capsys, command, bound):
    assert cli.main(command.split()) == 0
    assert len(normalisations) <= bound


def test_import_normalises_no_fraction():
    """In a fresh process: importing qsequences reduces no fraction (the golden
    lists are unreduced pairs), and ``seq eq 8`` then reduces each e_n(q) once."""
    probe = ("import contextlib, io\n"
             "from ppx import rings\n"
             "calls, original = [], rings.poly_gcd\n"
             "rings.poly_gcd = lambda a, b: calls.append(1) or original(a, b)\n"
             "import ppx.qsequences\n"
             "imported = len(calls)\n"
             "from ppx import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert cli.main(['seq', 'eq', '8']) == 0\n"
             "print(imported, len(calls))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["0", "8"]


class TestDividedPowerFaults:
    """Planted faults that the divided-power oracle must turn into FAIL."""

    @staticmethod
    def failures(capsys) -> list:
        return [line.split(" |")[0].strip() for line in capsys.readouterr().out.splitlines()
                if line.startswith("  FAIL")]

    def test_wrong_e7_fails_the_oracle(self, monkeypatch, capsys, fresh_q_caches):
        # c_7(q) + q in place of c_7(q): e_7(q) + q/[7]!.
        original, extra = qsequences._e_q, RatFunc(Q, qfact(7))
        monkeypatch.setattr(qsequences, "_e_q",
                            lambda n: original(n) + extra if n == 7 else original(n))
        assert cli.main(["verify", "roundtrip"]) == 1
        assert self.failures(capsys) == ["FAIL e-q-oracle [n=7]"]

    @staticmethod
    def failed_rows(report) -> list:
        return [(c.check_id, c.params) for c in report.checks if not c.passed]

    def test_wrong_g5_prints_the_reduced_fraction(self, monkeypatch, fresh_q_caches):
        # G_5 + q in both expansions: their oracle rows at n = 5 and their
        # round trips fail, and the actual value is (G_5 + q)/[5]! reduced.
        right = products.expand
        monkeypatch.setattr(products, "expand",
                            lambda f: (g := right(f))[:4] + (g[4] + Q,) + g[5:])
        report = check_q_oracle(6)
        assert self.failed_rows(report) == [
            ("e-q-oracle", {"n": 5}), ("expq-roundtrip", {"N": 6}),
            ("E-q-oracle", {"n": 5}), ("cap-expq-roundtrip", {"N": 6})]
        row = report.checks[4]
        assert row.expected == str(e_q_seq(5)[4])
        assert row.actual == str(RatFunc(c_q_seq(5)[4] + Q, qfact(5))) != row.expected

    @pytest.mark.parametrize("method, check, row, wrong", [
        # M_5 = 5 [5]! (1-q)^4/(5 [5]) = (1-q)^4 [4]!, over 5 [5]!
        ("log", check_log_coeffs, "log-coefficient",
         lambda: RatFunc(IntPoly((1, -1)) ** 4 * qfact(4) + 1, qfact(5) * 5)),
        # coefficient 5 of exp_q(-x) Exp_q(x) is 0, over [5]!
        ("__mul__", check_reciprocal_identity, "product-coefficient",
         lambda: RatFunc(1, qfact(5))),
    ], ids=["log", "product"])
    def test_wrong_coefficient_prints_the_reduced_fraction(self, monkeypatch, method, check,
                                                           row, wrong):
        # One more than the right coefficient 5 of the series log or product.
        def bumped(series, *args):
            out = getattr(TruncatedSeries, method)(series, *args)
            coeffs = out.coeffs[:5] + (out.coeffs[5] + 1,) + out.coeffs[6:]
            return TruncatedSeries(out.ring, coeffs, out.binom)

        monkeypatch.setattr(qsequences, "TruncatedSeries",
                            type("Planted", (TruncatedSeries,), {method: bumped}))
        report = check(6)
        assert self.failed_rows(report) == [(row, {"n": 5})]
        failed = next(c for c in report.checks if not c.passed)
        assert failed.actual == str(wrong()) != failed.expected

    @pytest.fixture
    def wrong_q_binomial_6_3(self, monkeypatch, fresh_q_caches):
        # [6, 3] + q in the q-Pascal row 6; the rows above it are built
        # from it by the q-Pascal rule.  fresh_q_caches empties the qbinom
        # cache of the wrong values afterwards.
        row_rule = qsequences._q_pascal_row.__wrapped__

        @functools.cache
        def planted(n):
            row = row_rule(n)
            return row[:3] + (row[3] + Q,) + row[4:] if n == 6 else row

        monkeypatch.setattr(qsequences, "_q_pascal_row", planted)

    @pytest.mark.parametrize("suite, first_failure", [
        ("roundtrip", "FAIL e-q-oracle [n=6]"),
        ("eq18", "FAIL product-coefficient [n=6]"),
        ("eq21", "FAIL log-coefficient [n=6]"),
    ])
    def test_wrong_q_binomial_fails_the_suite(self, wrong_q_binomial_6_3, capsys, suite,
                                              first_failure):
        assert qbinom(6, 3) != quotient_qbinom(6, 3)
        assert cli.main(["verify", suite]) == 1
        assert self.failures(capsys)[0] == first_failure
