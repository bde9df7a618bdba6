"""The rational-function field Q(q) and its series path: exp_q and Exp_q as
truncated series over Q(q) in the plain power basis, the coefficient ring
the q-suites used before they moved to the divided-power basis over Z[q].
Every coefficient operation here is a ``RatFunc`` normalisation, so this is
a slow, independent route to the same factors e_n(q) and E_n(q)."""

import math

from ppx.qsequences import qfact
from ppx.rings import IntPoly, RatFunc
from ppx.series import TruncatedSeries

import schoolbook  # which imports this module: each reads the other's names at call time


class QFrac(RatFunc):
    """An element of Q(q): a ``RatFunc`` with the field operations, each
    result reduced by ``RatFunc.__init__``.  ``ppx`` prints fractions and
    never computes with them, so the field lives here, with the tests."""

    __slots__ = ()

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QFrac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QFrac(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int):
        return QFrac(self.num ** k, self.den ** k)


class _QFracField:
    zero = QFrac(0)
    one = QFrac(1)

    def __repr__(self):
        return "QFUNC"


QFUNC = _QFracField()


def expq_series(order: int, sign: int = 1) -> TruncatedSeries:
    """exp_q(sign x) = sum sign^n x^n/[n]! truncated, over rational functions in q."""
    return TruncatedSeries(QFUNC, [QFrac(sign ** n, qfact(n)) for n in range(order + 1)],
                           schoolbook.unit_weight)


def cap_expq_series(order: int) -> TruncatedSeries:
    """Exp_q(x) = sum q^C(n,2) x^n/[n]! truncated."""
    return TruncatedSeries(
        QFUNC,
        [QFrac(IntPoly.monomial(1, math.comb(n, 2)), qfact(n)) for n in range(order + 1)],
        schoolbook.unit_weight,
    )
