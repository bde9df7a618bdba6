"""Integer and rational sequences of the product expansion of exp(x).

exp(x) = prod_{n>=1} (1 + e_n x^n) determines the rationals e_n, which
satisfy the divisor-sum recursion

    e_1 = 1,    e_n = sum_{d|n, d>1} (-1)^d e_{n/d}^d / d    for n > 1.

Attached to them are

* c_n = n! * e_n, always an integer (1, 1, -2, 9, -24, 130, -720, 8505, ...),
* a_n = (-1)^n e_n, the coefficients for exp(-x) = prod (1 + a_n x^n),
* u_n = prod_{k=1}^{n} gcd(k, n) = prod_{d|n} d^phi(n/d)  (OEIS A067911),
* r_n = u_n * e_n, also always an integer (1, 1, -1, 3, -1, 13, -1, 27, ...),
  computed by the same recursion rewritten over the u_n:

      r_n = sum_{d|n, d>1} (-1)^d (u_n / (d u_{n/d}^d)) r_{n/d}^d,

  whose inner quotients are exact because d * u_{n/d}^d divides u_n.

Integrality and divisibility are asserted at every step, never assumed; a
violation raises :class:`~ppx.rings.ConsistencyError`.  The construction is
cross-checked against the generic product-expansion extraction of exp(x) in
the divided-power basis over Z, whose factors are the c_n = n! e_n: it keeps
the closed recursions honest.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import products
from .report import Report
from .rings import ZZ, ConsistencyError, UsageError
from .series import TruncatedSeries


# ---------------------------------------------------------------------------
# Small number theory helpers


def _prime_powers(n: int):
    """Yield (p, k) for each prime power p^k that exactly divides n >= 1, p
    ascending, by trial division with 2 and then the odd numbers: the one
    factorization behind the helpers below."""
    if n < 1:
        raise ValueError("a positive integer only")
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            yield p, k
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, 1


def divisors(n: int) -> list:
    """Sorted list of the positive divisors of n."""
    divs = [1]
    for p, k in _prime_powers(n):
        divs = [d * p ** i for i in range(k + 1) for d in divs]
    return sorted(divs)


def euler_phi(n: int) -> int:
    """Euler's totient, prod p^(k-1) (p - 1) over the prime powers p^k of n."""
    return math.prod(p ** (k - 1) * (p - 1) for p, k in _prime_powers(n))


def is_prime(n: int) -> bool:
    """n is prime when its smallest prime power is n itself; the factorization
    stops there, so a composite costs trial division up to its smallest prime."""
    return n >= 2 and next(_prime_powers(n)) == (n, 1)


def primes_up_to(n: int) -> list:
    return [p for p in range(2, n + 1) if is_prime(p)]


# ---------------------------------------------------------------------------
# The sequences


def exp_series(order: int, sign: int = 1) -> TruncatedSeries:
    """exp(sign x) truncated at the given order, in the divided-power basis
    over Z: F_k = sign^k stands for sign^k x^k/k!."""
    return TruncatedSeries(ZZ, [sign ** k for k in range(order + 1)], math.comb)


@functools.cache
def _e(n: int) -> Fraction:
    if n < 1:
        raise ValueError("index must be >= 1")
    if n == 1:
        return Fraction(1)
    total = Fraction(0)
    for d in divisors(n):
        if d == 1:
            continue
        term = _e(n // d) ** d / d
        total += term if d % 2 == 0 else -term
    return total


@functools.cache
def _c(n: int) -> int:
    value = math.factorial(n) * _e(n)
    if value.denominator != 1:
        raise ConsistencyError(f"c_{n} = n! e_{n} is not an integer: {value}")
    return value.numerator


def _a(n: int) -> Fraction:
    return _e(n) if n % 2 == 0 else -_e(n)


@functools.cache
def _u(n: int) -> int:
    via_gcd = math.prod(math.gcd(k, n) for k in range(1, n + 1))
    via_phi = math.prod(d ** euler_phi(n // d) for d in divisors(n))
    if via_gcd != via_phi:
        raise ConsistencyError(
            f"u_{n}: gcd product {via_gcd} != totient product {via_phi}"
        )
    return via_gcd


@functools.cache
def _r(n: int) -> int:
    if n == 1:
        return 1
    u_n = _u(n)
    total = 0
    for d in divisors(n):
        if d == 1:
            continue
        denom = d * _u(n // d) ** d
        quo, rem = divmod(u_n, denom)
        if rem:
            raise ConsistencyError(
                f"divisibility failed: {d} * u_{n // d}^{d} does not divide u_{n}"
            )
        term = quo * _r(n // d) ** d
        total += term if d % 2 == 0 else -term
    if total * math.factorial(n) != _c(n) * u_n:
        raise ConsistencyError(f"r_{n} n! != c_{n} u_{n}")
    return total


@functools.cache
def _a_oracle_checked(n_max: int) -> bool:
    # The generic expansion of exp(-x) must reproduce a_n = (-1)^n e_n.
    factors = products.expand(exp_series(n_max, -1))
    for n in range(1, n_max + 1):
        if Fraction(factors[n - 1], math.factorial(n)) != _a(n):
            raise ConsistencyError(
                f"a_{n} disagrees with the product-expansion oracle"
            )
    return True


def terms(term, n_max: int) -> list:
    """[term(1), ..., term(N)] for N = n_max >= 1: the body of every *_seq listing."""
    if n_max < 1:
        raise ValueError("need N >= 1")
    return [term(n) for n in range(1, n_max + 1)]


def e_seq(n_max: int) -> list:
    """e_1..e_N of exp(x) = prod (1 + e_n x^n)."""
    return terms(_e, n_max)


def c_seq(n_max: int) -> list:
    """c_n = n! e_n, asserted integral."""
    return terms(_c, n_max)


def a_seq(n_max: int) -> list:
    """a_n = (-1)^n e_n of exp(-x) = prod (1 + a_n x^n), oracle-checked."""
    values = terms(_a, n_max)
    _a_oracle_checked(n_max)
    return values


def u_seq(n_max: int) -> list:
    """u_n = prod gcd(k, n), computed by both closed formulas."""
    return terms(_u, n_max)


def r_seq(n_max: int) -> list:
    """r_n = u_n e_n via the divisor recursion, every division exact."""
    return terms(_r, n_max)


# ---------------------------------------------------------------------------
# Verification suites


def check_kolberg(n_max: int) -> Report:
    """0 < a_n < 2/n and (-1)^n e_n > 0, exactly, for 2 <= n <= N."""
    if n_max < 2:
        raise UsageError("need N >= 2")
    rep = Report("kolberg")
    for n in range(2, n_max + 1):
        a = _a(n)
        rep.add("a-bounds", {"n": n}, 0 < a < Fraction(2, n), f"0 < a_{n} < 2/{n}", str(a))
        rep.add("sign-law", {"n": n}, a > 0, f"(-1)^{n} e_{n} > 0", str(a))
    return rep


def check_borwein_lou(n_max: int) -> Report:
    """|c_n| <= (n-1)! for odd n and c_n >= (n-1)! for even n."""
    if n_max < 2:
        raise UsageError("need N >= 2")
    rep = Report("borwein-lou")
    for n in range(2, n_max + 1):
        c = _c(n)
        bound = math.factorial(n - 1)
        if n % 2 == 1:
            rep.add("odd-upper", {"n": n}, abs(c) <= bound,
                    f"|c_{n}| <= {bound}", str(abs(c)))
        else:
            rep.add("even-lower", {"n": n}, c >= bound,
                    f"c_{n} >= {bound}", str(c))
    return rep


def check_divisibility(n_max: int) -> Report:
    """d * u_{n/d}^d divides u_n for every divisor d > 1 of every n <= N."""
    if n_max < 2:
        raise UsageError("need N >= 2")
    rep = Report("divisibility")
    for n in range(2, n_max + 1):
        u_n = _u(n)
        for d in divisors(n):
            if d == 1:
                continue
            denom = d * _u(n // d) ** d
            rep.add("u-divisibility", {"n": n, "d": d}, u_n % denom == 0,
                    "remainder 0", str(u_n % denom))
    return rep


def check_closed_forms(n_max: int) -> Report:
    """Prime-index closed forms, exactly, for every applicable index <= N.

    e_p = -1/p, c_p = -(p-1)!, r_p = -1, u_p = p for odd primes p;
    r_{p^2} = 1 - p^(p-1) for odd primes; and for distinct odd primes p < q,
    r_{pq} = p^(q-1) + q^(p-1) - p^(q-1) q^(p-1).
    """
    if n_max < 3:
        raise UsageError("need N >= 3")
    rep = Report("closed-forms")
    odd_primes = [p for p in primes_up_to(n_max) if p >= 3]
    for p in odd_primes:
        rep.add("e-prime", {"p": p}, _e(p) == Fraction(-1, p), f"-1/{p}", str(_e(p)))
        rep.add("c-prime", {"p": p}, _c(p) == -math.factorial(p - 1),
                str(-math.factorial(p - 1)), str(_c(p)))
        rep.add("r-prime", {"p": p}, _r(p) == -1, "-1", str(_r(p)))
        rep.add("u-prime", {"p": p}, _u(p) == p, str(p), str(_u(p)))
    for p in odd_primes:
        if p * p > n_max:
            break
        expected = 1 - p ** (p - 1)
        rep.add("r-prime-squared", {"p": p}, _r(p * p) == expected,
                str(expected), str(_r(p * p)))
    for i, p in enumerate(odd_primes):
        for q in odd_primes[i + 1:]:
            if p * q > n_max:
                break
            expected = p ** (q - 1) + q ** (p - 1) - p ** (q - 1) * q ** (p - 1)
            rep.add("r-two-primes", {"p": p, "q": q}, _r(p * q) == expected,
                    str(expected), str(_r(p * q)))
    return rep


def roundtrip_rows(rep: Report, compare, cases) -> Report:
    """The rows of both halves of the roundtrip suite, added to rep: for each
    case (check_id, roundtrip_id, name, f, recursion), one check_id row per
    factor G_n of the unit series f, whose (passed, expected, actual) is
    compare(G_n, n, recursion(n)), then one roundtrip_id row for
    contract(expand(f)) == f."""
    for check_id, roundtrip_id, name, f, recursion in cases:
        factors = products.expand(f)
        for n, g in enumerate(factors, start=1):
            rep.add(check_id, {"n": n}, *compare(g, n, recursion(n)))
        ok = products.contract(factors, f.ring, f.binom) == f
        rep.add(roundtrip_id, {"N": f.order}, ok, f"contract(expand({name})) == {name}",
                "as expected" if ok else "mismatch")
    return rep


def check_oracle_roundtrip(n_max: int) -> Report:
    """The divisor recursions against the generic expansion, plus round trips.

    Covers exp(x) and exp(-x) here (factor n is G_n/n!); the q-analog halves
    of the same suite live in :mod:`ppx.qsequences` and are merged by the CLI.
    """
    if n_max < 1:
        raise UsageError("need N >= 1")
    return roundtrip_rows(
        Report("roundtrip"),
        lambda g, n, e: ((found := Fraction(g, math.factorial(n))) == e, str(e), str(found)), (
            ("e-oracle", "exp-roundtrip", "exp", exp_series(n_max), _e),
            ("a-oracle", "exp-neg-roundtrip", "exp(-x)", exp_series(n_max, -1), _a)))
