"""q-analog sequences of the product expansions of exp_q and Exp_q.

With [n] = 1 + q + ... + q^(n-1) and [n]! = [1][2]...[n], the q-exponential
exp_q(x) = sum x^n/[n]! expands as prod (1 + e_n(q) x^n) where the e_n(q)
are rational functions satisfying

    e_n(q) = sum_{d|n, d>1} (-1)^d e_{n/d}(q)^d / d + (1-q)^(n-1) / (n [n]),

the extra term coming from log exp_q(x) = sum (1-q)^(n-1) x^n / (n [n]).
The companion Exp_q(x) = sum q^C(n,2) x^n/[n]! = 1/exp_q(-x) expands with
E_n(q), same recursion with (q-1)^(n-1) in the tail; for odd n the two
coefficient families agree and are fixed under q -> 1/q.

With u_n(q) = prod_{j<=n} [gcd(j, n)] and m = n/d, n u_n(q) times the recursion
is a sum in Z[q] for r_n(q) = u_n(q) e_n(q), each [a]/[g] in it a polynomial:

    n r_n(q) = sum_{d|n, d>1} (-1)^d m r_m(q)^d prod_{j<=n} [gcd(j, n)]/[gcd(j, m)]
               + prod_{j<n} (1 - q^gcd(j, n)),

as j <= n runs d times through the residues mod m and (1-q)[a] = 1 - q^a.  The sum is
one integer at q = 2^k: r_m(2^k)^d an integer power, each [a]/[g] = [a/g](q^g) a
geometric sum in 2^(gk) by doubling, each 1 - q^a a shift; k is the narrowest whole-byte
width with 2^(k-1) above the sum's L1 bound, so its balanced base-2^k digits, read once
per n, are the coefficients.  u_n(q) is the same sum from 1 with m = 1.  Dividing by n is
the integrality theorem as a postcondition; (-1)^n r_n(q) is asserted monic.  With q-1 the
tail gains (-1)^(n-1) and the sum gives u_n(q) E_n(q); e_n(q), E_n(q) are each one reduced
fraction over u_n(q).  c_n(q) = [n]! e_n(q) is r_n(q) through the passes [j]/[gcd(j, n)],
j <= n, checked at q = 1 and, against integer products, at q = 2 and q = -2.
Setting q = 1 recovers the classical sequences, q = 0 the dyadic
pattern of 1/(1-x) = prod (1 + x^(2^k)), and reduction mod q^2 a closed-form
expansion checked over the ring Z[q]/(q^2) with no division at all.

The suites check e_n(q), E_n(q) and the log with ``TruncatedSeries`` over
Z[q] in the divided-power basis of ``qbinom``, sum F_k x^k/[k]! (Keigher,
Comm. Algebra 25, 1997): F_k = 1 for exp_q, q^C(k,2) for Exp_q, (-1)^k for
exp_q(-x).  There the log, the product expansion (G_n = c_n(q) for exp_q) and
its contraction stay in Z[q], and so does each verdict: G_n/[n]! = a/b is
decided as G_n b == a [n]!, and a/b at q -> 1/q is a reversal of a and b over
their larger degree.  A fraction is reduced only to be printed: the expected
value always, and the actual one only when a row fails.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from . import products, rings, sequences
from .report import Report
from .rings import (
    ConsistencyError,
    IntPoly,
    P_ONE,
    P_ZERO,
    Q,
    ZX,
    ZZ,
    QuotientElem,
    QuotientRing,
    RatFunc,
    UsageError,
)
from .sequences import divisors, euler_phi
from .series import TruncatedSeries


# ---------------------------------------------------------------------------
# q-integers, q-factorials, Gaussian binomials


@functools.cache
def qint(n: int) -> IntPoly:
    """[n] = 1 + q + ... + q^(n-1); [0] = 0."""
    if n < 0:
        raise ValueError("q-integer of a negative index")
    return IntPoly((1,) * n)


def _times_ratio(coeffs, j: int, g: int) -> list:
    """coeffs times [j]/[g] = (1 - q^j)/(1 - q^g): the list less itself shifted by j,
    then running sums of stride g; the last g sums are the remainder, and must be 0."""
    out = list(map(operator.sub, [*coeffs, *[0] * j], [*[0] * j, *coeffs]))
    for r in range(g):
        out[r::g] = itertools.accumulate(out[r::g])
    if any(out[-g:]):
        raise ConsistencyError(f"[{j}]/[{g}] times {len(coeffs)} coefficients is inexact")
    return out[:-g]


def _bottom_up(step):
    """f(n) = step(n, f(n - 1)), f(0) = step(0, None), cached and filled bottom-up, so no
    call recurses deeper than two levels; f reads its cache by closure, not by its name."""
    def fill(n: int):
        if n < 0:
            raise ValueError(f"{step.__name__} of a negative index")
        for k in range(f.cache_info().currsize, n):
            f(k)
        return step(n, f(n - 1) if n else None)

    fill.__name__, fill.__qualname__, fill.__doc__ = step.__name__, step.__qualname__, step.__doc__
    f = functools.cache(fill)
    return f


@_bottom_up
def qfact(n: int, below: IntPoly) -> IntPoly:
    """[n]! = [1][2]...[n]; [0]! = 1.  [n]! is [n-1]! through one pass of
    [n]/[1], running sums over the coefficients and no product."""
    return IntPoly(_times_ratio(below.coeffs, n, 1)) if n else P_ONE


def _q_pascal_step(above: tuple) -> tuple:
    """[n, 0..n] from the row [n-1, 0..n-1] above it by the q-Pascal rule [n, k] =
    [n-1, k-1] + q^k [n-1, k] (Andrews, The Theory of Partitions, 1976, ch. 3):
    additions and shifts only, in the ring of the entries, Z[q] or Z[q]/Phi_m."""
    return (above[0], *(above[k - 1] + above[k].shifted(k) for k in range(1, len(above))),
            above[0])


@_bottom_up
def _q_pascal_row(n: int, above: tuple) -> tuple:
    """[n, 0], ..., [n, n]: the q-Pascal step run n times from (1,)."""
    return _q_pascal_step(above) if n else (P_ONE,)


@functools.cache
def qbinom(n: int, k: int) -> IntPoly:
    """Gaussian binomial [n, k] = [n]!/([k]![n-k]!), from the q-Pascal triangle."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return _q_pascal_row(n)[k]


# ---------------------------------------------------------------------------
# The coefficient sequences


@functools.cache
def _u_q(n: int) -> IntPoly:
    if n < 1:
        raise ValueError("index must be >= 1")
    via_gcd = _u_ratio_sum(n, [(1, P_ONE, 1)])
    via_phi = math.prod((qint(d) ** euler_phi(n // d) for d in divisors(n)), start=P_ONE)
    if via_gcd != via_phi:
        raise ConsistencyError(f"u_{n}(q): gcd product != totient product")
    if via_gcd(1) != sequences._u(n):
        raise ConsistencyError(f"u_{n}(q) at q=1 != u_{n}")
    return via_gcd


def _times_ratio_at(value: int, a: int, g: int, k: int) -> int:
    # value times [a]/[g] = S_r(x) = 1 + x + ... + x^(r-1), r = a/g, x = 2^(gk), by doubling.
    r, rest = divmod(a, g)
    if rest:
        raise ConsistencyError(f"[{a}]/[{g}] is not a polynomial: {g} does not divide {a}")
    out = value
    for i in reversed(range(r.bit_length() - 1)):
        out += out << (r >> i + 1) * g * k  # S_2t = S_t + x^t S_t
        if r >> i & 1:
            out = value + (out << g * k)  # S_(2t+1) = 1 + x S_2t
    return out


def _u_ratio_sum(n: int, terms, tail: int = 0) -> IntPoly:
    # tail prod_{j<n} (1 - q^gcd(j, n)) + sum c p^d u_n/u_m^d, d = n/m, over the terms (c, p, m),
    # at q = 2^k = 2^(8w).  As u_n/u_m^d = prod_{j<=n} [gcd(j, n)]/[gcd(j, m)] has coefficients
    # >= 0, 2^(k-1) > L1 bound makes the balanced digits exact; a spare slot reads back any sum.
    gcds = [math.gcd(j, n) for j in range(1, n + 1)]  # and gcd(j, m) = gcd(gcd(j, n), m)
    pairs = [[(a, g) for a in gcds if a != (g := math.gcd(a, m))] for _, _, m in terms]
    bound = sum(abs(c) * sum(map(abs, p.coeffs)) ** (n // m) * math.prod(a // g for a, g in ags)
                for (c, p, m), ags in zip(terms, pairs)) + (abs(tail) << n - 1)
    w = bound.bit_length() // 8 + 1
    total = functools.reduce(lambda v, a: v - (v << a * 8 * w), gcds[:-1], tail)
    for (c, p, m), ags in zip(terms, pairs):
        total += functools.reduce(lambda v, ag: _times_ratio_at(v, *ag, 8 * w), ags,
                                  c * rings._pack(p.coeffs, w) ** (n // m))
    return IntPoly(rings._unpack(total, abs(total).bit_length() // (8 * w) + 2, w))


def _divisor_sum(base: IntPoly, n: int) -> IntPoly:
    # n R_n; as base = +-(1 - q), base^(n-1) u_n/[n] = base(0)^(n-1) prod_{j<n} (1 - q^gcd(j, n)).
    return _u_ratio_sum(n, [((-1) ** d * (n // d), _r_q_family(base, n // d), n // d)
                            for d in divisors(n)[1:]], base(0) ** (n - 1))


@functools.cache
def _r_q_family(base: IntPoly, n: int) -> IntPoly:
    # R_n = u_n(q) F_n(q) for the expansion whose log has coefficients base^(n-1)/(n [n]):
    # F_n = e_n(q) for base 1-q, E_n(q) for q-1.  Dividing n R_n by n is the integrality theorem.
    total = _divisor_sum(base, n)
    if any(c % n for c in total.coeffs):
        raise ConsistencyError(f"r_{n}(q) did not reduce to a polynomial: ({total})/{n}")
    return IntPoly(tuple(c // n for c in total.coeffs))


@functools.cache
def _factor_q_family(base: IntPoly, n: int) -> RatFunc:
    return RatFunc(_r_q_family(base, n), _u_q(n))


_ONE_MINUS_Q, _Q_MINUS_ONE = IntPoly((1, -1)), IntPoly((-1, 1))
_e_q = functools.partial(_factor_q_family, _ONE_MINUS_Q)
_cap_e_q = functools.partial(_factor_q_family, _Q_MINUS_ONE)


@functools.cache
def _r_q(n: int) -> IntPoly:
    r = _r_q_family(_ONE_MINUS_Q, n)
    if n > 1 and r.lead != (-1) ** n:
        raise ConsistencyError(f"(-1)^{n} r_{n}(q) is not monic: leading coefficient {r.lead}")
    if r(1) != sequences._r(n):
        raise ConsistencyError(f"r_{n}(q) at q=1 != r_{n}")
    return r


@functools.cache
def _c_q(n: int) -> IntPoly:
    # c_n(q) = r_n(q) [n]!/u_n(q), and [n]!/u_n(q) = prod_{j<=n} [j]/[g] with
    # g = gcd(j, n), since gcd([j], [n]) = [gcd(j, n)]: one pass for each j.
    if n < 1:
        raise ValueError("index must be >= 1")
    r = _r_q(n)
    ratios = [(j, g) for j in range(1, n + 1) if (g := math.gcd(j, n)) != j]
    c = IntPoly(functools.reduce(lambda cs, jg: _times_ratio(cs, *jg), ratios, r.coeffs))
    if c(1) != sequences._c(n):
        raise ConsistencyError(f"c_{n}(q) at q=1 != c_{n}")
    for a in (2, -2):  # c_n(a) = r_n(a) prod (a^j - 1)/(a^g - 1), in integers
        if (c(a) * math.prod(a ** g - 1 for _, g in ratios)
                != r(a) * math.prod(a ** j - 1 for j, _ in ratios)):
            raise ConsistencyError(f"c_{n}(q) at q={a} != r_{n}({a}) prod [j]/[gcd(j, {n})]")
    return c


def e_q_seq(n_max: int) -> list:
    """e_1(q)..e_N(q) of exp_q(x) = prod (1 + e_n(q) x^n)."""
    return sequences.terms(_e_q, n_max)


def cap_e_q_seq(n_max: int) -> list:
    """E_1(q)..E_N(q) of Exp_q(x) = prod (1 + E_n(q) x^n)."""
    return sequences.terms(_cap_e_q, n_max)


def u_q_seq(n_max: int) -> list:
    """u_n(q) = prod_{j<=n} [gcd(j, n)], checked against the totient product."""
    return sequences.terms(_u_q, n_max)


def r_q_seq(n_max: int) -> list:
    """r_n(q) = u_n(q) e_n(q), asserted to land in Z[q] monically."""
    return sequences.terms(_r_q, n_max)


def c_q_seq(n_max: int) -> list:
    """c_n(q) = [n]! e_n(q), asserted to land in Z[q]."""
    return sequences.terms(_c_q, n_max)


# ---------------------------------------------------------------------------
# Transcribed first terms (golden data)

# e_n(q) and E_n(q) as (numerator, denominator) pairs, unreduced.  The n = 6 and 7
# entries are kept verbatim from the source lists; the expansion itself is the
# authority if a transcription ever disagrees.

GOLDEN_E_Q = (
    (P_ONE, P_ONE),
    (P_ONE, qint(2)),
    (-Q, qint(3)),
    (IntPoly((1, 0, 1, 1)), qint(2) * qint(4)),
    (-(Q * IntPoly((1, -1, 1))), qint(5)),
    (IntPoly.monomial(1, 2) * IntPoly((1, 3, 2, 2, 2, 2, 1)), qint(2) ** 2 * qint(3) * qint(6)),
    (-(Q * IntPoly((1, -1, 1)) ** 2), qint(7)),
)

GOLDEN_CAP_E_Q = (
    (P_ONE, P_ONE),
    (Q, qint(2)),
    (-Q, qint(3)),
    (Q * IntPoly((1, 1, 0, 1)), qint(2) * qint(4)),
    (-(Q * IntPoly((1, -1, 1))), qint(5)),
    (Q * IntPoly((1, 2, 2, 2, 2, 3, 1)), qint(2) ** 2 * qint(3) * qint(6)),
    (-(Q * IntPoly((1, -1, 1)) ** 2), qint(7)),
)

GOLDEN_R_Q = (
    P_ONE,
    P_ONE,
    -Q,
    IntPoly((1, 0, 1, 1)),
    -(Q * IntPoly((1, -1, 1))),
    IntPoly.monomial(1, 2) * IntPoly((1, 3, 2, 2, 2, 2, 1)),
    -(Q * IntPoly((1, -1, 1)) ** 2),
)


# ---------------------------------------------------------------------------
# Closed forms and specializations


@functools.cache
def mod_q2_ring() -> QuotientRing:
    """The ring Z[q]/(q^2) of dual numbers over Z, one instance."""
    return QuotientRing(IntPoly((0, 0, 1)))


def mod_q2_inverse(a: QuotientElem) -> QuotientElem:
    """(a0 + a1 q)^-1 = a0 - a1 q in Z[q]/(q^2), for a unit a0 = +-1."""
    a0, a1 = (a.rep.coeffs + (0, 0))[:2]
    if a0 not in (1, -1):
        raise ConsistencyError(f"{a} is not a unit in Z[q]/(q^2)")
    inv = a.ring.reduce(IntPoly((a0, -a1)))
    if (inv * a).rep != P_ONE:
        raise ConsistencyError(f"({inv}) ({a}) != 1 in {a.ring!r}")
    return inv


def mod_q2_closed_form(n: int) -> IntPoly:
    """The expansion factor of exp_q(x) over Z[q]/(q^2): 1 for n = 1,
    1 - (n/2) q when n is a power of two, 0 for other even n, -q for
    other odd n."""
    if n < 1:
        raise ValueError("index must be >= 1")
    if n == 1:
        return P_ONE
    if n & (n - 1) == 0:
        return IntPoly((1, -(n // 2)))
    if n % 2 == 0:
        return P_ZERO
    return IntPoly((0, -1))


def expq_series_mod_q2(order: int) -> TruncatedSeries:
    """exp_q(x) with coefficients reduced into Z[q]/(q^2).

    1/[n]! reduces to 1 - (n-1) q there, which is asserted against the
    inverse of the reduced [n]!.
    """
    ring = mod_q2_ring()
    coeffs = [ring.one]
    fact = ring.one
    for n in range(1, order + 1):
        fact = fact * ring.reduce(qint(n))
        inv = mod_q2_inverse(fact)
        if inv != ring.reduce(IntPoly((1, -(n - 1)))):
            raise ConsistencyError(f"1/[{n}]! mod q^2 != 1 - {n - 1} q")
        coeffs.append(inv)
    return TruncatedSeries(ring, coeffs)


def mod_q2_expansion(n_max: int) -> list:
    """Expansion factors of exp_q(x) over Z[q]/(q^2), by pure ring ops."""
    if n_max < 1:
        raise ValueError("need N >= 1")
    return list(products.expand(expq_series_mod_q2(n_max)))


def _expq_series(order: int) -> TruncatedSeries:
    """exp_q(x) = sum x^k/[k]! in the divided-power basis over Z[q]: F_k = 1."""
    return TruncatedSeries(ZX, [P_ONE] * (order + 1), qbinom)


def _cap_expq_series(order: int) -> TruncatedSeries:
    """Exp_q(x) = sum q^C(k,2) x^k/[k]!: F_k = q^C(k,2)."""
    return TruncatedSeries(ZX, [IntPoly.monomial(1, math.comb(k, 2))
                                for k in range(order + 1)], qbinom)


# ---------------------------------------------------------------------------
# Verification suites


def _cross_check(num: IntPoly, den: IntPoly, expected: RatFunc) -> tuple:
    # (passed, expected, actual) for num/den == expected, decided in Z[q].  The
    # reduced form is canonical, so a row that holds prints as expected.
    ok = num * expected.den == expected.num * den
    shown = str(expected)
    return ok, shown, shown if ok else str(RatFunc(num, den))


def _at_inverse_q(num: IntPoly, den: IntPoly) -> tuple:
    # num(1/q)/den(1/q) in Z[q]: q^m num(1/q), q^m den(1/q), m the larger degree.
    m = max(num.degree, den.degree)
    return tuple(IntPoly((0,) * (m - p.degree) + p.coeffs[::-1]) for p in (num, den))


def check_odd_symmetry(n_max: int) -> Report:
    """For odd n: e_n(q) = E_n(q) and e_n(q) is fixed under q -> 1/q."""
    if n_max < 3:
        raise UsageError("need N >= 3")
    rep = Report("odd-symmetry")
    for n in range(3, n_max + 1, 2):
        e, cap = _e_q(n), _cap_e_q(n)
        rep.add("odd-e-equals-E", {"n": n}, *_cross_check(cap.num, cap.den, e))
        rep.add("odd-inversion-fixed", {"n": n},
                *_cross_check(*_at_inverse_q(_r_q_family(_ONE_MINUS_Q, n), _u_q(n)), e))
    return rep


def check_reciprocal_identity(order: int) -> Report:
    """exp_q(-x) * Exp_q(x) = 1, multiplied in the divided-power basis: P_n/[n]!."""
    if order < 1:
        raise UsageError("need N >= 1")
    rep = Report("eq18")
    product = (TruncatedSeries(ZX, [IntPoly((-1) ** k) for k in range(order + 1)], qbinom)
               * _cap_expq_series(order)).coeffs
    for n in range(order + 1):
        rep.add("product-coefficient", {"n": n},
                *_cross_check(product[n], qfact(n), RatFunc(1 if n == 0 else 0)))
    for n in range(order + 1):
        # Exp_q is exp at 1/q: coefficient-wise q^C(n,2)/[n]! = (1/[n]!)(1/q).
        cap = RatFunc(IntPoly.monomial(1, math.comb(n, 2)), qfact(n))
        rep.add("q-inverse-coefficient", {"n": n},
                *_cross_check(*_at_inverse_q(P_ONE, qfact(n)), cap))
    classical = sequences.exp_series(order, -1) * sequences.exp_series(order)
    ok = classical == TruncatedSeries(ZZ, [1] + [0] * order, math.comb)
    rep.add("q1-specialization", {"N": order}, ok, "exp(-x) exp(x) == 1",
            "as expected" if ok else "mismatch")
    return rep


def check_log_coeffs(n_max: int) -> Report:
    """Coefficient n of log exp_q(x), M_n/(n [n]!) from the series log, is (1-q)^(n-1)/(n [n])."""
    if n_max < 1:
        raise UsageError("need N >= 1")
    rep = Report("eq21")
    logs, power = _expq_series(n_max).log().coeffs, P_ONE  # (1-q)^(n-1)
    for n in range(1, n_max + 1):
        expected = RatFunc(power, qint(n) * n)
        rep.add("log-coefficient", {"n": n}, *_cross_check(logs[n], qfact(n) * n, expected))
        power = power * _ONE_MINUS_Q
    return rep


def check_integrality(n_max: int) -> Report:
    """(-1)^n r_n(q) has integer coefficients and leading coefficient 1."""
    if n_max < 2:
        raise UsageError("need N >= 2")
    rep = Report("thm42")
    for n in range(2, n_max + 1):
        r = _r_q(n)  # construction itself raises on a violation
        rep.add("integer-coefficients", {"n": n},
                all(isinstance(c, int) for c in r.coeffs), "Z[q]", str(r))
        lead = r.lead if n % 2 == 0 else -r.lead
        rep.add("monic-leading-coefficient", {"n": n}, lead == 1, "1", str(lead))
    return rep


def check_golden_q_lists() -> Report:
    """The computed e_n(q), E_n(q), r_n(q) against the transcribed lists.

    Entries beyond n = 5 are informational: a mismatch there is
    recorded verbatim but does not fail the suite, since the expansion
    oracle, not the transcription, is the authority.
    """
    rep = Report("thm41")
    tables = (
        ("golden-e", GOLDEN_E_Q, _e_q),
        ("golden-E", GOLDEN_CAP_E_Q, _cap_e_q),
        ("golden-r", GOLDEN_R_Q, _r_q),
    )
    for check_id, golden, func in tables:
        for n, expected in enumerate(golden, start=1):
            computed = func(n)
            # The reduced e_n(q) or E_n(q) prints; a golden pair is reduced only on a FAIL.
            ok, actual, expected = (
                _cross_check(*expected, computed) if isinstance(expected, tuple)
                else (computed == expected, str(computed), str(expected)))
            params = {"n": n, "informational": True} if n > 5 else {"n": n}
            rep.add(check_id, params, ok or n > 5, expected, actual)
    rep.checks.extend(check_odd_symmetry(13).checks)
    return rep


def check_mod_q2(n_max: int) -> Report:
    """Expansion over Z[q]/(q^2) against the closed form and against
    e_n(q) = r_n(q)/u_n(q) reduced mod q^2, where u_n(0) = 1 is a unit."""
    if n_max < 1:
        raise UsageError("need N >= 1")
    rep = Report("thm45")
    ring = mod_q2_ring()
    factors = mod_q2_expansion(n_max)
    for n in range(1, n_max + 1):
        expected = ring.reduce(mod_q2_closed_form(n))
        rep.add("closed-form", {"n": n}, factors[n - 1] == expected,
                str(expected), str(factors[n - 1]))
    for n in range(1, n_max + 1):
        reduced = (ring.reduce(_r_q_family(_ONE_MINUS_Q, n))
                   * mod_q2_inverse(ring.reduce(_u_q(n))))
        rep.add("rational-reduction", {"n": n}, reduced == factors[n - 1],
                str(factors[n - 1]), str(reduced))
    return rep


def check_q_oracle(n_max: int) -> Report:
    """The q-recursions against the expansions of exp_q and Exp_q (factor n is G_n/[n]!)."""
    if n_max < 1:
        raise UsageError("need N >= 1")
    return sequences.roundtrip_rows(
        Report("roundtrip-q"), lambda g, n, expected: _cross_check(g, qfact(n), expected), (
            ("e-q-oracle", "expq-roundtrip", "exp_q", _expq_series(n_max), _e_q),
            ("E-q-oracle", "cap-expq-roundtrip", "Exp_q", _cap_expq_series(n_max), _cap_e_q)))
