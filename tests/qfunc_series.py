"""The rational-function series path: exp_q and Exp_q as truncated series
over Q(q), the coefficient ring the q-suites used before they moved to the
divided-power basis over Z[q].  Every coefficient operation here is a
``RatFunc`` normalisation, so this is the slow, independent reference that
the divided-power kernels of ``ppx.qsequences`` are tested against."""

import math

from ppx.qsequences import qfact
from ppx.rings import RF_ONE, RF_ZERO, IntPoly, P_ONE, RatFunc
from ppx.series import TruncatedSeries


class _RatFuncField:
    zero = RF_ZERO
    one = RF_ONE

    @staticmethod
    def div_int(a: RatFunc, n: int) -> RatFunc:
        return a / n

    def __repr__(self):
        return "QFUNC"


QFUNC = _RatFuncField()


def expq_series(order: int) -> TruncatedSeries:
    """exp_q(x) = sum x^n/[n]! truncated, over rational functions in q."""
    return TruncatedSeries(QFUNC, [RatFunc(P_ONE, qfact(n)) for n in range(order + 1)])


def cap_expq_series(order: int) -> TruncatedSeries:
    """Exp_q(x) = sum q^C(n,2) x^n/[n]! truncated."""
    return TruncatedSeries(
        QFUNC,
        [RatFunc(IntPoly.monomial(1, math.comb(n, 2)), qfact(n)) for n in range(order + 1)],
    )


def as_qfunc_series(dp: tuple) -> TruncatedSeries:
    """The divided-power tuple (F_0, ..., F_N) as the series sum F_k/[k]! x^k."""
    return TruncatedSeries(QFUNC, [RatFunc(c, qfact(k)) for k, c in enumerate(dp)])
