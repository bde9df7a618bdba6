"""Power product expansions of unit formal power series.

Every series f with constant term 1 factors uniquely as prod_{n>=1}
(1 + G_n x^n/d_n) in its basis d_n (see :mod:`ppx.series`); truncated at
order N only the first N factors matter.  :func:`expand` extracts the G_n,
:func:`contract` multiplies the factors back out.  Both use ring operations
and the weights binom(k, n) only (no division), so they work over any
commutative ring with identity, including quotient rings.

The extraction maintains the partial product of the factors found so far: if
prod_{k<n} (1 + G_k x^k/d_k) = sum_k B_k x^k/d_k, then the next factor is
forced to be G_n = F_n - B_n, because multiplying by (1 + G_n x^n/d_n) leaves
coefficients below x^n untouched and adds G_n at x^n.

contract(expand(f), f.ring, f.binom) == f for every unit series; the
round-trip suites check it.
"""

from __future__ import annotations

from .series import TruncatedSeries


def _times_factor(partial: list, n: int, g, binom) -> None:
    # partial *= 1 + g x^n/d_n; k descends, so each B_(k-n) read is the old one.
    if not g:
        return
    for k in range(len(partial) - 1, n - 1, -1):
        b = partial[k - n]
        if b:
            partial[k] = partial[k] + (g * b if binom is None else binom(k, n) * g * b)


def expand(f: TruncatedSeries) -> tuple:
    """G_1..G_N with f = prod (1 + G_n x^n/d_n) + O(x^(N+1)) in f's basis."""
    ring = f.ring
    if f.coeffs[0] != ring.one:
        raise ValueError("power product expansion requires constant term 1")
    partial, factors = [ring.one] + [ring.zero] * f.order, []
    for n in range(1, len(partial)):
        factors.append(f.coeffs[n] - partial[n])
        _times_factor(partial, n, factors[-1], f.binom)
    return tuple(factors)


def contract(factors, ring, binom=None) -> TruncatedSeries:
    """prod (1 + G_n x^n/d_n) truncated at N = len(factors), over ``ring`` in
    the basis of ``binom``."""
    partial = [ring.one] + [ring.zero] * len(factors)
    for n, g in enumerate(factors, start=1):
        _times_factor(partial, n, g, binom)
    return TruncatedSeries(ring, partial, binom)
