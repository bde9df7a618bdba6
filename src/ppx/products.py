"""Power product expansions of unit formal power series.

Every series f with constant term 1 factors uniquely as an infinite product
prod_{n>=1} (1 + g_n x^n); truncated at order N only the first N factors
matter.  :func:`expand` extracts the g_n, :func:`contract` multiplies the
factors back out.  Both use ring operations only (no division), so they work
over any commutative ring with identity, including quotient rings.

The extraction maintains the partial product of the factors found so far: if
prod_{k<n} (1 + g_k x^k) = sum_k b_k x^k, then the next factor is forced to
be g_n = a_n - b_n, because multiplying by (1 + g_n x^n) leaves coefficients
below x^n untouched and adds g_n at x^n.

contract(expand(f)) == f for every unit series; the classical suites check against it.
"""

from __future__ import annotations

from .series import TruncatedSeries


class ProductExpansion:
    """Factors g_1..g_N of the product expansion of a unit series."""

    __slots__ = ("ring", "factors")

    def __init__(self, ring, factors: tuple):
        self.ring = ring
        self.factors = factors

    @property
    def order(self) -> int:
        return len(self.factors)

    def factor(self, n: int):
        """The coefficient g_n of the factor 1 + g_n x^n (1-indexed)."""
        if not 1 <= n <= self.order:
            raise IndexError(f"factor index {n} outside 1..{self.order}")
        return self.factors[n - 1]


def expand(f: TruncatedSeries) -> ProductExpansion:
    """Extract the unique g_1..g_N with f = prod (1 + g_n x^n) + O(x^(N+1))."""
    ring = f.ring
    if f.coeffs[0] != ring.one:
        raise ValueError("power product expansion requires constant term 1")
    n_max = f.order
    partial = [ring.one] + [ring.zero] * n_max
    factors = []
    for n in range(1, n_max + 1):
        g = f.coeffs[n] - partial[n]
        factors.append(g)
        if g != ring.zero:
            # partial *= (1 + g x^n); descending index keeps reads pristine
            for k in range(n_max, n - 1, -1):
                partial[k] = partial[k] + g * partial[k - n]
    return ProductExpansion(ring, tuple(factors))


def contract(p: ProductExpansion) -> TruncatedSeries:
    """Multiply out prod_{k=1}^{N} (1 + g_k x^k) truncated at N."""
    ring = p.ring
    n_max = p.order
    coeffs = [ring.one] + [ring.zero] * n_max
    for n, g in enumerate(p.factors, start=1):
        if g != ring.zero:
            for k in range(n_max, n - 1, -1):
                coeffs[k] = coeffs[k] + g * coeffs[k - n]
    return TruncatedSeries(ring, coeffs)
