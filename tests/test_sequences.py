"""Classical sequences of the exp(x) product expansion and their laws."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppx import cli, products, qsequences, rings, sequences
from ppx.sequences import (
    a_seq,
    c_seq,
    check_borwein_lou,
    check_closed_forms,
    check_divisibility,
    check_kolberg,
    check_oracle_roundtrip,
    divisors,
    e_seq,
    euler_phi,
    exp_series,
    is_prime,
    primes_up_to,
    r_seq,
    u_seq,
)


class TestHelpers:
    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(13) == [1, 13]

    def test_euler_phi(self):
        assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_primes(self):
        assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert not is_prime(1) and is_prime(2) and not is_prime(91)


# Brute-force definitions, side by side with the one factorization behind
# divisors, euler_phi and is_prime.  Each divisor d <= sqrt(n) pairs with n/d.
def brute_divisors(n):
    return sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})


def brute_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def sieve(n):
    flags = [False, False] + [True] * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(flags[p * p::p])
    return [p for p, prime in enumerate(flags) if prime]


BIG_PRIME, BIG_SEMIPRIME = 10 ** 9 + 7, (10 ** 4 + 7) * (10 ** 4 + 9)


class TestNumberTheoryAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3000))
    @example(1)
    @example(2)
    def test_small(self, n):
        assert divisors(n) == brute_divisors(n)
        assert euler_phi(n) == brute_phi(n)
        assert is_prime(n) == brute_is_prime(n)
        assert primes_up_to(n) == sieve(n)

    @pytest.mark.parametrize("n", [BIG_PRIME, BIG_SEMIPRIME])
    def test_large(self, n):
        divs = divisors(n)
        assert divs == brute_divisors(n)
        assert is_prime(n) == brute_is_prime(n) == (n == BIG_PRIME)
        # Gauss: the totients of the divisors of n sum to n.
        assert sum(euler_phi(d) for d in divs) == n
        assert euler_phi(n) == (n - 1 if n == BIG_PRIME else (10 ** 4 + 6) * (10 ** 4 + 8))

    @pytest.mark.parametrize("n", [0, -1, -12])
    def test_below_one(self, n):
        for helper in (divisors, euler_phi):
            with pytest.raises(ValueError):
                helper(n)
        assert not is_prime(n) and primes_up_to(n) == []


class TestGoldenValues:
    def test_e_first_eight(self):
        assert e_seq(8) == [
            Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(3, 8),
            Fraction(-1, 5), Fraction(13, 72), Fraction(-1, 7), Fraction(27, 128),
        ]

    def test_c_first_eight(self):
        assert c_seq(8) == [1, 1, -2, 9, -24, 130, -720, 8505]

    def test_a_is_signed_e(self):
        a = a_seq(6)
        assert a[0] == Fraction(-1)
        assert a[1:6] == [Fraction(1, 2), Fraction(1, 3), Fraction(3, 8),
                          Fraction(1, 5), Fraction(13, 72)]

    def test_u_first_eight(self):
        assert u_seq(8) == [1, 2, 3, 8, 5, 72, 7, 128]

    def test_u12_against_direct_gcd_product(self):
        direct = math.prod(math.gcd(k, 12) for k in range(1, 13))
        assert direct == 41472
        assert u_seq(12)[11] == direct

    def test_r_first_eight(self):
        assert r_seq(8) == [1, 1, -1, 3, -1, 13, -1, 27]

    def test_r9_prime_square_closed_form(self):
        assert r_seq(9)[8] == 1 - 3 ** 2 == -8

    def test_r15_two_prime_closed_form(self):
        p, q = 3, 5
        assert r_seq(15)[14] == p ** (q - 1) + q ** (p - 1) - p ** (q - 1) * q ** (p - 1)
        assert r_seq(15)[14] == -1919

    def test_bad_length(self):
        with pytest.raises(ValueError):
            e_seq(0)


class TestClosedForms:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_e_prime(self, p):
        assert e_seq(p)[p - 1] == Fraction(-1, p)

    @pytest.mark.parametrize("p,expected", [(3, -2), (5, -24), (7, -720)])
    def test_c_prime(self, p, expected):
        assert c_seq(p)[p - 1] == expected == -math.factorial(p - 1)

    def test_u_prime(self):
        for p in (3, 5, 7, 11):
            assert u_seq(p)[p - 1] == p

    def test_report_to_64(self):
        assert check_closed_forms(64).passed


class TestKolberg:
    def test_all_pass_to_20_and_64(self):
        assert check_kolberg(20).passed
        assert check_kolberg(64).passed

    def test_spot_values(self):
        a = a_seq(4)
        assert Fraction(0) < a[1] < Fraction(2, 2)
        assert a[1] == Fraction(1, 2)
        assert a[3] == Fraction(3, 8) < Fraction(1, 2)

    def test_sign_law_to_64(self):
        for n, e in enumerate(e_seq(64), start=1):
            if n > 1:
                assert (e if n % 2 == 0 else -e) > 0


class TestBorweinLou:
    def test_report(self):
        assert check_borwein_lou(64).passed

    def test_spot_values(self):
        c = c_seq(9)
        assert abs(c[8]) == 35840 <= math.factorial(8) == 40320
        assert c[3] == 9 >= math.factorial(3)
        assert c[5] == 130 >= math.factorial(5)


class TestDivisibility:
    def test_report(self):
        assert check_divisibility(64).passed

    def test_explicit(self):
        u = u_seq(64)
        for n in range(2, 65):
            for d in divisors(n):
                if d > 1:
                    assert u[n - 1] % (d * u[n // d - 1] ** d) == 0


class TestCrossIdentities:
    def test_r_times_factorial(self):
        e, c, u, r = e_seq(64), c_seq(64), u_seq(64), r_seq(64)
        for n in range(1, 65):
            assert r[n - 1] * math.factorial(n) == c[n - 1] * u[n - 1]
            assert e[n - 1] == Fraction(r[n - 1], u[n - 1])

    def test_integrality_to_64(self):
        for value in c_seq(64) + r_seq(64):
            assert isinstance(value, int)


class TestOracle:
    def test_e_matches_expansion_to_24(self):
        factors = products.expand(exp_series(24))  # G_n = n! e_n
        assert list(factors) == c_seq(24)
        assert [Fraction(g, math.factorial(n))
                for n, g in enumerate(factors, start=1)] == e_seq(24)

    def test_roundtrip_report(self):
        assert check_oracle_roundtrip(14).passed

    def test_table_bundle(self):
        table = [seq(8) for seq in (e_seq, c_seq, a_seq, u_seq, r_seq)]
        assert tuple(table[1]) == (1, 1, -2, 9, -24, 130, -720, 8505)
        assert all(len(values) == 8 for values in table)


@pytest.fixture
def planted_c5(monkeypatch):
    """c_5 + 1 = -23 in place of c_5 = -24, with every sequence cache empty
    before and after, so that no value computed from it is left behind."""

    def clear():
        rings.cyclotomic.cache_clear()
        for module in (sequences, qsequences):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    original = sequences._c
    clear()
    monkeypatch.setattr(sequences, "_c", lambda n: original(n) + (n == 5))
    yield
    monkeypatch.undo()
    clear()


FAILS_A_CHECK = {"cor44": "FAIL coprime-congruence [n=5 p=2]",
                 "pascal": "FAIL factor-recovery [n=6]",
                 "pascal-m": "FAIL m1-reduction [n=12]"}
# r_5, directly or through r_5(q) at q = 1, asserts r_5 5! = c_5 u_5.
STOPS_ON_A_VIOLATION = ["closed-forms", "thm41", "thm42", "thm43", "qpascal"]
# Blind spots: kolberg reads e_n and a_n only; borwein-lou's bound
# |c_5| <= 4! = 24 still holds for |c_5 + 1| = 23; divisibility reads u_n
# only; roundtrip compares its expansion, whose G_n are the c_n, with
# e_n = G_n/n! from the divisor recursion, never with c_n.  The other
# suites compute no classical c_n at all.
PASSES = ["kolberg", "borwein-lou", "divisibility", "roundtrip",
          "eq18", "eq21", "eq26", "eq28", "thm45"]


class TestPlantedC5:
    """Which suites notice a wrong c_5, each at its default size."""

    @pytest.mark.parametrize("suite", FAILS_A_CHECK)
    def test_fails_a_check(self, planted_c5, capsys, suite):
        assert cli.main(["verify", suite]) == 1
        failures = [line.split(" |")[0].strip() for line in capsys.readouterr().out.splitlines()
                    if line.startswith("  FAIL")]
        assert failures[0] == FAILS_A_CHECK[suite]

    @pytest.mark.parametrize("suite", STOPS_ON_A_VIOLATION)
    def test_is_a_consistency_violation(self, planted_c5, capsys, suite):
        assert cli.main(["verify", suite]) == 1
        assert capsys.readouterr().err == "consistency violation: r_5 n! != c_5 u_5\n"

    @pytest.mark.parametrize("suite", PASSES)
    def test_passes(self, planted_c5, capsys, suite):
        assert cli.main(["verify", suite]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_every_suite_is_pinned(self):
        assert sorted([*FAILS_A_CHECK, *STOPS_ON_A_VIOLATION, *PASSES]) == sorted(cli.SUITES)
