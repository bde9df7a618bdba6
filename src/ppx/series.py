"""Truncated formal power series over a pluggable exact coefficient ring.

A series carries its truncation order; every binary operation requires equal
orders so that silent precision loss cannot happen.  The coefficient ring is
one of the protocol objects from :mod:`ppx.rings` (``QQ``, ``QFUNC``, ``ZX``,
``ZZ``, or a ``QuotientRing`` instance); coefficients themselves do their own
arithmetic through operators.
"""

from __future__ import annotations


class TruncatedSeries:
    """Coefficients a_0..a_N of a formal power series, exact, truncated at N.

    >>> from ppx.rings import QQ
    >>> from fractions import Fraction
    >>> f = TruncatedSeries(QQ, [Fraction(1), Fraction(1), Fraction(0)])
    >>> (f * f).coeffs
    (Fraction(1, 1), Fraction(2, 1), Fraction(1, 1))
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a series carries at least its constant term")

    @classmethod
    def one(cls, ring, order: int) -> "TruncatedSeries":
        return cls(ring, [ring.one] + [ring.zero] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _require_compatible(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if self.ring != other.ring:
            raise ValueError(f"mixing coefficient rings {self.ring!r} and {other.ring!r}")
        if self.order != other.order:
            raise ValueError(
                f"mixing truncation orders {self.order} and {other.order}"
            )

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other):
        """Cauchy product truncated at the common order."""
        self._require_compatible(other)
        ring = self.ring
        n = self.order
        out = [ring.zero] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == ring.zero:
                continue
            for j in range(n - i + 1):
                b = other.coeffs[j]
                if b == ring.zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(ring, out)

    def log(self) -> "TruncatedSeries":
        """Logarithm L of a series f with constant term 1.

        From f' = f L', the coefficients obey
        n L_n = n f_n - sum_{k<n} (k L_k) f_(n-k), which takes O(N^2)
        coefficient products (Brent and Kung, JACM 1978) where summing the
        powers (f-1)^d / d takes O(N^3).  Needs exact division by the
        integers 1..N in the coefficient ring, so it is meant for rational
        or rational-function coefficients.
        """
        ring = self.ring
        f = self.coeffs
        if f[0] != ring.one:
            raise ValueError("log requires constant term 1")
        zero = ring.zero
        scaled = [zero]  # k L_k
        total = [zero]
        for n in range(1, len(f)):
            acc = f[n] * n
            for k in range(1, n):
                a, b = scaled[k], f[n - k]
                if a != zero and b != zero:
                    acc = acc - a * b
            scaled.append(acc)
            total.append(ring.div_int(acc, n))
        return TruncatedSeries(ring, total)

    def negate_argument(self) -> "TruncatedSeries":
        """The series f(-x): flip the sign of every odd coefficient."""
        return TruncatedSeries(
            self.ring,
            (c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)),
        )

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries({self.ring!r}, {list(self.coeffs)!r})"
