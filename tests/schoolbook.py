"""Schoolbook references: for the weighted series kernel of ``ppx.series``
and ``ppx.products``, sharing no code with either, the primitive
pseudo-remainder sequence, for the polynomial gcd of ``ppx.rings``, the
degree-by-degree sum, for ``IntPoly`` + and -, and IntPoly products and exact
quotients, for the sums of ``ppx.qsequences`` evaluated at q = 2^k.

A coefficient F_k of a series in the basis of ``binom`` is turned into the
field element F_k/d_k (a ``Fraction``, or a ``QFrac`` of Q(q)), with
d_k = 1, k! or [k]! for ``binom`` = ``unit_weight``, ``math.comb`` or ``qbinom``.
There series are plain lists multiplied by the Cauchy product, the log is
the O(N^3) power sum, and a product expansion is checked by multiplying its
factors out."""

import functools
import math
import operator
from fractions import Fraction

from ppx.qsequences import qfact, qint
from ppx.rings import IntPoly, P_ONE
import qfunc_series  # which imports this module: each reads the other's names at call time


def unit_weight(n: int, k: int) -> int:
    """binom(n, k) = 1, the weights of the power basis sum F_k x^k, d_k = 1."""
    return 1


def denominator(binom, k: int):
    """d_k of the basis whose weights are binom(n, k) = d_n/(d_k d_(n-k))."""
    if binom is unit_weight:
        return 1
    return math.factorial(k) if binom is math.comb else qfact(k)


def field_values(coeffs, binom, start: int = 0) -> list:
    """F_k/d_k for the coefficients F_start, F_(start+1), ... of a series."""
    out = []
    for k, c in enumerate(coeffs, start=start):
        d = denominator(binom, k)
        if isinstance(c, int):
            out.append(Fraction(c, d) if isinstance(d, int) else qfunc_series.QFrac(c, d))
        else:
            out.append(qfunc_series.QFrac(c, d) if isinstance(c, IntPoly) else c / d)
    return out


def cauchy(f: list, g: list) -> list:
    """sum_k f_k g_(n-k) for n below the common length."""
    return [functools.reduce(operator.add, (f[k] * g[n - k] for k in range(n + 1)))
            for n in range(min(len(f), len(g)))]


def power_sum_log(f: list) -> list:
    """log f = sum_{j>=1} (-1)^(j-1) (f-1)^j / j for f_0 = 1, truncated."""
    zero = f[0] - f[0]
    h = [zero, *f[1:]]
    total, power = [zero] * len(f), h
    for j in range(1, len(f)):
        total = [t + p / j if j % 2 else t - p / j for t, p in zip(total, power)]
        power = cauchy(power, h)
    return total


def multiply_out(g: list, one) -> list:
    """prod_{n=1}^{N} (1 + g_n x^n) truncated at N, for g = [g_1, ..., g_N]."""
    zero = one - one
    product = [one] + [zero] * len(g)
    for n, c in enumerate(g, start=1):
        factor = [one] + [zero] * len(g)
        factor[n] = c
        product = cauchy(product, factor)
    return product


def prs_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """The gcd of primitive a, b with positive leading coefficients, by the
    primitive pseudo-remainder sequence: each pseudo-remainder scales by the
    divisor's leading coefficient so that elimination stays in Z[q], and
    only its primitive part goes on."""
    if a.degree < b.degree:
        a, b = b, a
    while b:
        if b.degree == 0:
            return P_ONE
        r = a
        while r and r.degree >= b.degree:
            r = r * b.lead - b.shifted(r.degree - b.degree) * r.lead
        a, b = b, r.primitive_positive()
    return a


def prs_poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """The gcd of nonzero a, b as ``rings.poly_gcd`` returns it, from
    prs_gcd: q^min(v) times prs_gcd of the two sides with their lowest power
    q^v and their content taken off."""
    v = [next(i for i, x in enumerate(p.coeffs) if x) for p in (a, b)]
    a, b = (IntPoly(p.coeffs[k:]).primitive_positive() for p, k in zip((a, b), v))
    return prs_gcd(a, b).shifted(min(v))


def coefficient_sum(a: tuple, b: tuple, sign: int = 1) -> tuple:
    """The coefficients of a + sign * b, for coefficient tuples a and b
    (lowest degree first), computed degree by degree and with no trailing
    zeros."""
    out = [(a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0)
           for i in range(max(len(a), len(b)))]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@functools.cache
def product_u_q(n: int) -> IntPoly:
    """Reference u_n(q) = prod_{j<=n} [gcd(j, n)] by IntPoly products."""
    return math.prod((qint(math.gcd(j, n)) for j in range(1, n + 1)), start=P_ONE)


def product_u_ratio_sum(n: int, terms, tail: int = 0) -> IntPoly:
    """What ``qsequences._u_ratio_sum`` computes at q = 2^k, by the product
    route: tail (1 - q)^(n-1) u_n(q)/[n] plus c p^d u_n(q)/u_m(q)^d, d = n/m,
    for each term (c, p, m), with IntPoly products and exact quotients."""
    u = product_u_q(n)
    total = tail * IntPoly((1, -1)) ** (n - 1) * u.divexact(qint(n))
    for c, p, m in terms:
        total = total + c * p ** (n // m) * u.divexact(product_u_q(m) ** (n // m))
    return total
