"""q-analog sequences, their specializations, and identity suites."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppx import cli, products, qsequences, rings
from ppx.qsequences import (
    GOLDEN_CAP_E_Q,
    GOLDEN_E_Q,
    GOLDEN_R_Q,
    c_q_seq,
    cap_e_q_seq,
    cap_expq_series,
    check_golden_q_lists,
    check_integrality,
    check_log_coeffs,
    check_mod_q2,
    check_odd_symmetry,
    check_q_oracle,
    check_reciprocal_identity,
    e_q_seq,
    expq_series,
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
from ppx.sequences import c_seq, divisors, e_seq, is_prime, r_seq, u_seq


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
        total = RatFunc(0)
        for d in divisors(n)[1:]:
            term = RatFunc(u[n - 1], u[n // d - 1] ** d * d) * RatFunc(r[n // d - 1]) ** d
            total = total + term if d % 2 == 0 else total - term
        total = total + RatFunc(IntPoly((1, -1)) ** (n - 1) * u[n - 1], qint(n) * n)
        r.append(total.as_poly())
    return r


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
        assert e_q_seq(7) == list(GOLDEN_E_Q)

    def test_cap_e_q_matches_source_list(self):
        assert cap_e_q_seq(7) == list(GOLDEN_CAP_E_Q)

    def test_r_q_matches_source_list(self):
        assert r_q_seq(7) == list(GOLDEN_R_Q)

    def test_no_transcription_discrepancies(self):
        assert transcription_discrepancies() == []

    def test_transcription_discrepancy_reported(self, monkeypatch):
        wrong = RatFunc(P_ONE, qint(6))
        monkeypatch.setattr(qsequences, "GOLDEN_E_Q", GOLDEN_E_Q[:5] + (wrong,) + GOLDEN_E_Q[6:])
        assert transcription_discrepancies() == [
            ("golden-e", 6, str(wrong), str(GOLDEN_E_Q[5]))]
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
        # against r_n(q) times the [n]!/u_n(q) cofactor.
        for n, c in enumerate(c_q_seq(24), start=1):
            assert RatFunc(qfact(n)) * qsequences._e_q(n) == c

    @pytest.mark.parametrize("wrong", [
        lambda f: f * IntPoly((1, 1)),   # one factor too many
        lambda f: f + IntPoly((0, 1, -1)),  # the same value at q = 1
    ])
    def test_wrong_cofactor_is_caught(self, monkeypatch, fresh_q_caches, wrong):
        right = qsequences._u_cofactor
        monkeypatch.setattr(qsequences, "_u_cofactor",
                            lambda n: wrong(right(n)) if n == 6 else right(n))
        with pytest.raises(ConsistencyError, match=r"cofactor times u_6\(q\) != \[6\]!"):
            c_q_seq(6)


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
        (lambda e: e + RatFunc(1, qint(7)), "r_6(q) did not reduce to a polynomial"),
        (lambda e: e + RatFunc(1, qint(6)), "r_6(q) at q=1 != r_6"),  # integral, monic
    ])
    def test_wrong_e_q_is_caught(self, monkeypatch, capsys, fresh_q_caches, wrong, notice):
        right = qsequences._e_q
        monkeypatch.setattr(qsequences, "_e_q",
                            lambda n: wrong(right(n)) if n == 6 else right(n))
        assert cli.main(["seq", "rq", "6"]) == 1
        assert capsys.readouterr().err.startswith(f"consistency violation: {notice}")


class TestOddSymmetry:
    def test_report(self):
        assert check_odd_symmetry(13).passed

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_spot(self, n):
        e = e_q_seq(n)[n - 1]
        assert e == cap_e_q_seq(n)[n - 1]
        assert e == e.subst_inverse()


class TestReciprocal:
    def test_report(self):
        assert check_reciprocal_identity(8).passed

    def test_first_coefficient_cancels(self):
        product = expq_series(4).negate_argument() * cap_expq_series(4)
        assert product.coeffs[1] == RatFunc(0)

    def test_q1_specialization(self):
        from ppx.rings import QQ
        from ppx.series import TruncatedSeries

        exp = TruncatedSeries(QQ, [Fraction(1, math.factorial(n)) for n in range(9)])
        assert exp.negate_argument() * exp == TruncatedSeries.one(QQ, 8)


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
        logs = expq_series(6).log()
        for n in range(1, 7):
            assert logs.coeffs[n] == RatFunc(IntPoly((1, -1)) ** (n - 1), qint(n) * n)


class TestQOracle:
    def test_expansion_matches_recursions_to_14(self):
        assert check_q_oracle(14).passed

    def test_direct(self):
        expansion = products.expand(expq_series(10))
        assert list(expansion.factors) == e_q_seq(10)
        cap_expansion = products.expand(cap_expq_series(10))
        assert list(cap_expansion.factors) == cap_e_q_seq(10)


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
        expected = c_q_seq(12)
        fresh_q_caches()
        monkeypatch.setattr(rings, "_heu_gcd", lambda a, b: None)
        for j in range(1, 31):
            for n in range(1, 31):
                assert rings.poly_gcd(qint(j), qint(n)) == qint(math.gcd(j, n))
        assert check_q_oracle(8).passed
        assert c_q_seq(12) == expected

    def test_unit_gcd_is_caught(self, monkeypatch, fresh_q_caches):
        # A gcd that is not greatest leaves fractions unreduced; the
        # integrality checks of the q-sequences must notice.  The patched
        # kernel is the one behind RatFunc normalisation.
        monkeypatch.setattr(rings, "_primitive_gcd", lambda a, b: (P_ONE, a, b))
        with pytest.raises(ConsistencyError, match=r"r_2\(q\) did not reduce to a polynomial"):
            c_q_seq(6)
