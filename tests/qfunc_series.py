"""The rational-function series path: exp_q and Exp_q as truncated series
over Q(q) in the plain power basis, the coefficient ring the q-suites used
before they moved to the divided-power basis over Z[q].  Every coefficient
operation here is a ``RatFunc`` normalisation, so this is a slow,
independent route to the same factors e_n(q) and E_n(q)."""

import math

from ppx.qsequences import qfact
from ppx.rings import RF_ONE, RF_ZERO, IntPoly, RatFunc
from ppx.series import TruncatedSeries


class _RatFuncField:
    zero = RF_ZERO
    one = RF_ONE

    def __repr__(self):
        return "QFUNC"


QFUNC = _RatFuncField()


def expq_series(order: int, sign: int = 1) -> TruncatedSeries:
    """exp_q(sign x) = sum sign^n x^n/[n]! truncated, over rational functions in q."""
    return TruncatedSeries(QFUNC, [RatFunc(sign ** n, qfact(n)) for n in range(order + 1)])


def cap_expq_series(order: int) -> TruncatedSeries:
    """Exp_q(x) = sum q^C(n,2) x^n/[n]! truncated."""
    return TruncatedSeries(
        QFUNC,
        [RatFunc(IntPoly.monomial(1, math.comb(n, 2)), qfact(n)) for n in range(order + 1)],
    )
