"""q-analog sequences, their specializations, and identity suites."""

import functools
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
from schoolbook import prs_gcd


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
        def prs_kernel(a, b):
            g = prs_gcd(a, b)
            return g, a.divexact(g), b.divexact(g)

        expected = c_q_seq(12)
        fresh_q_caches()
        for j in range(1, 31):
            for n in range(1, 31):
                assert prs_gcd(qint(j), qint(n)) == qint(math.gcd(j, n))
        monkeypatch.setattr(rings, "_heu_gcd", prs_kernel)
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
        monkeypatch.setattr(rings, "_heu_gcd", lambda a, b: (P_ONE, a, b))
        assert rows(check_q_oracle(6)) == oracle
        assert c_q_seq(6) == expected
        assert RatFunc(expected[5], qfact(6)) != e_q_seq(6)[5]


class TestNoGcdOnTheSequencePath:
    @pytest.fixture
    def gcd_calls(self, monkeypatch, fresh_q_caches):
        """One entry per call of poly_gcd or of the kernel behind RatFunc
        normalisation, under every name a ppx module binds them to."""
        calls = []
        for name in ("_gcd_cofactors", "poly_gcd"):
            original = getattr(rings, name)
            counted = functools.partial(
                lambda f, label, *args: calls.append(label) or f(*args), original, name)
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
