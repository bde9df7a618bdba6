"""Exact power product expansions of the exponential and q-exponential.

Every unit formal power series factors uniquely as prod (1 + g_n x^n); this
package computes those factors exactly for exp(x), exp(-x), exp_q(x), and
Exp_q(x), together with the integer and polynomial sequences they generate
(e_n, c_n, a_n, u_n, r_n and their q-analogs), Pascal-matrix factorizations,
cyclotomic and mod-q^2 specializations, and machine checks of the attached
congruences, inequalities, and divisibility laws.  All arithmetic is exact:
big integers, reduced rationals, integer polynomials, reduced rational
functions, and quotient rings; there is no floating point anywhere.

The ``ppx`` command line exposes the sequences (``ppx seq``), the
verification suites (``ppx verify``), and the matrices (``ppx pascal``).
Every name in ``__all__`` imports from ``ppx``; its submodule loads on first use.
"""

from importlib import import_module

_EXPORTS = {
    "products": ("contract", "expand"),
    "rings": ("ConsistencyError", "InexactDivisionError", "IntPoly", "QuotientElem",
              "QuotientRing", "RatFunc", "UsageError", "cyclotomic"),
    "sequences": ("a_seq", "c_seq", "e_seq", "r_seq", "u_seq"),
    "series": ("TruncatedSeries",),
    "qsequences": ("c_q_seq", "cap_e_q_seq", "e_q_seq", "qbinom", "qfact", "qint", "r_q_seq",
                   "u_q_seq"),
    "pascal": ("SquareMatrix", "factor_pascal", "factor_pascal_m", "factor_q_pascal", "h_m_nk",
               "h_nk", "pascal_m", "pascal_matrix", "q_pascal"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
