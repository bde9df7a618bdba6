"""Schoolbook references: for the weighted series kernel of ``ppx.series``
and ``ppx.products``, sharing no code with either, and the primitive
pseudo-remainder sequence, for the polynomial gcd of ``ppx.rings``.

A coefficient F_k of a series in the basis of ``binom`` is turned into the
field element F_k/d_k (a ``Fraction``, or a ``QFrac`` of Q(q)), with
d_k = 1, k! or [k]! for ``binom`` = None, ``math.comb`` or ``qbinom``.
There series are plain lists multiplied by the Cauchy product, the log is
the O(N^3) power sum, and a product expansion is checked by multiplying its
factors out."""

import functools
import math
import operator
from fractions import Fraction

from ppx.qsequences import qfact
from ppx.rings import IntPoly, P_ONE
from qfunc_series import QFrac


def denominator(binom, k: int):
    """d_k of the basis whose weights are binom(n, k) = d_n/(d_k d_(n-k))."""
    if binom is None:
        return 1
    return math.factorial(k) if binom is math.comb else qfact(k)


def field_values(coeffs, binom, start: int = 0) -> list:
    """F_k/d_k for the coefficients F_start, F_(start+1), ... of a series."""
    out = []
    for k, c in enumerate(coeffs, start=start):
        d = denominator(binom, k)
        if isinstance(c, int):
            out.append(Fraction(c, d) if isinstance(d, int) else QFrac(c, d))
        else:
            out.append(QFrac(c, d) if isinstance(c, IntPoly) else c / d)
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
    while not b.is_zero:
        if b.degree == 0:
            return P_ONE
        r = a
        while not r.is_zero and r.degree >= b.degree:
            r = r * b.lead - b.shifted(r.degree - b.degree) * r.lead
        a, b = b, r.primitive_positive()
    return a
