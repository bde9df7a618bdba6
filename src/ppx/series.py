"""Truncated formal power series over an exact coefficient ring, in a basis.

(F_0, ..., F_N) stands for sum F_k x^k/d_k, and the basis enters only through
the weights binom(n, k) = d_n/(d_k d_(n-k)): all 1 for d_k = 1, ``math.comb``
for k! and ``ppx.qsequences.qbinom`` for [k]!, the last two the divided-power
(Hurwitz series) basis of Keigher (Comm. Algebra 25, 1997).
Every binary operation requires equal orders, rings and bases, so that silent
precision loss cannot happen.  The ring (``ZZ``, ``ZX`` or a ``QuotientRing``
from :mod:`ppx.rings`) gives ``zero`` and ``one``; coefficients do their own
arithmetic through operators and are false exactly when zero.
"""

from __future__ import annotations


class TruncatedSeries:
    """Coefficients F_0..F_N of sum F_k x^k/d_k, exact, truncated at N.

    >>> import math
    >>> from ppx.rings import ZZ
    >>> exp = TruncatedSeries(ZZ, [1, 1, 1, 1], math.comb)
    >>> (exp * exp).coeffs
    (1, 2, 4, 8)
    >>> exp.log().coeffs
    (0, 1, 0, 0)
    """

    __slots__ = ("ring", "coeffs", "binom")

    def __init__(self, ring, coeffs, binom):
        self.ring = ring
        self.coeffs = tuple(coeffs)
        self.binom = binom
        if not self.coeffs:
            raise ValueError("a series carries at least its constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _require_compatible(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        for what, mine, theirs in (("coefficient rings", self.ring, other.ring),
                                   ("bases", self.binom, other.binom),
                                   ("truncation orders", self.order, other.order)):
            if mine != theirs:
                raise ValueError(f"mixing {what} {mine!r} and {theirs!r}")

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other):
        """(F G)_n = sum_k binom(n, k) F_k G_(n-k), truncated at the common order."""
        self._require_compatible(other)
        f, g, binom = self.coeffs, other.coeffs, self.binom
        out = []
        for n in range(len(f)):
            acc = self.ring.zero
            for k in range(n + 1):
                a, b = f[k], g[n - k]
                if a and b:
                    acc = acc + binom(n, k) * a * b
            out.append(acc)
        return TruncatedSeries(self.ring, out, binom)

    def log(self) -> "TruncatedSeries":
        """x (log f)' for a series f with F_0 = 1, in f's ring and basis.

        Its coefficients are M_n = n d_n L_n for log f = sum L_n x^n.  From
        x f' = f x (log f)', they obey
        M_n = n F_n - sum_{0<k<n} binom(n, k) M_k F_(n-k): O(N^2) coefficient
        products (Brent and Kung, JACM 1978) where summing the powers
        (f-1)^j / j takes O(N^3), and no division.
        """
        ring, f, binom = self.ring, self.coeffs, self.binom
        if f[0] != ring.one:
            raise ValueError("log requires constant term 1")
        m = [ring.zero]
        for n in range(1, len(f)):
            acc = f[n] * n
            for k in range(1, n):
                a, b = m[k], f[n - k]
                if a and b:
                    acc = acc - binom(n, k) * a * b
            m.append(acc)
        return TruncatedSeries(ring, m, binom)

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ring is other.ring and self.binom == other.binom
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({self.ring!r}, {list(self.coeffs)!r}, {self.binom!r})"
