"""The fault table: checks that are shown to FAIL.

Each row plants one fault at a seam that a check reads (a sequence builder
or a cached kernel, never the ``Report``), runs the smallest command that
reaches it, and names every FAIL line that the command prints, in order.
The command must exit 1.  The caches of the sequence modules are empty
before and after each row, so a planted value is really computed with and
leaves nothing behind.
"""

from fractions import Fraction

import pytest

from ppx import cli, pascal, qsequences, sequences
from ppx.pascal import SquareMatrix
from ppx.qsequences import qint
from ppx.rings import IntPoly, RatFunc
from ppx.series import TruncatedSeries


def replace_at(monkeypatch, module, name, n, wrong):
    # module.name(n) returns wrong(right) for the right value, every other
    # index the right value.
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda k: wrong(original(k)) if k == n else original(k))


def wrong_cap_e5(monkeypatch):
    # 2q/[5] in place of E_5(q) = -q(1 - q + q^2)/[5].
    replace_at(monkeypatch, qsequences, "_cap_e_q", 5, lambda e: RatFunc(IntPoly((0, 2)), qint(5)))


def r5_plus_one_minus_q(monkeypatch):
    # r_5(q) + 1 - q keeps the leading coefficient -1 and the value r_5(1),
    # so _r_q accepts it and the suite runs to the end.
    original, fault = qsequences._r_q_family, (qsequences._ONE_MINUS_Q, 5)
    monkeypatch.setattr(qsequences, "_r_q_family", lambda base, n: (
        original(base, n) + IntPoly((1, -1)) if (base, n) == fault else original(base, n)))


def skewed_qfact3(monkeypatch):
    # 1 + 2q + 3q^2 + q^3 in place of [3]! = 1 + 2q + 2q^2 + q^3: not fixed
    # under reversal.
    replace_at(monkeypatch, qsequences, "qfact", 3, lambda f: IntPoly((1, 2, 3, 1)))


def negated_e4(monkeypatch):
    # -e_4 = -5/8 breaks both the bound on a_4 and the sign law.
    replace_at(monkeypatch, sequences, "_e", 4, lambda e: -e)


def c4_is_five(monkeypatch):
    # 5 in place of c_4 = 9, below the bound 3! = 6.
    replace_at(monkeypatch, sequences, "_c", 4, lambda c: 5)


def c5_is_25(monkeypatch):
    # 25 in place of c_5 = -24, above the bound 4! = 24.
    replace_at(monkeypatch, sequences, "_c", 5, lambda c: 25)


def r_is_zero(n):
    # 0 in place of r_n: -1 for an odd prime n, 1 - p^(p-1) for n = p^2 and
    # p^(q-1) + q^(p-1) - p^(q-1) q^(p-1) for n = pq.
    return lambda monkeypatch: replace_at(monkeypatch, sequences, "_r", n, lambda r: 0)


def u4_is_seven(monkeypatch):
    # 7 in place of u_4 = 8: neither 2 u_2^2 = 8 nor 4 u_1^4 = 4 divides it.
    replace_at(monkeypatch, sequences, "_u", 4, lambda u: 7)


def doubled_r4(monkeypatch):
    # 2 r_4(q) has integer coefficients but leading coefficient 2.
    replace_at(monkeypatch, qsequences, "_r_q", 4, lambda r: r * 2)


def r4_fraction_lead(monkeypatch):
    # r_4(q) with its leading coefficient 1 given as Fraction(1): still monic,
    # but not in Z[q].
    replace_at(monkeypatch, qsequences, "_r_q", 4,
               lambda r: IntPoly((*r.coeffs[:-1], Fraction(r.lead))))


def closed_form3_is_q(monkeypatch):
    # q in place of the closed form -q of the third factor mod q^2.
    replace_at(monkeypatch, qsequences, "mod_q2_closed_form", 3, lambda f: IntPoly((0, 1)))


def u4_times_one_plus_q(monkeypatch):
    # (1 + q) u_4(q) is still a unit mod q^2, but its inverse has the wrong
    # q-coefficient, so r_4(q)/u_4(q) leaves the expansion's factor.
    replace_at(monkeypatch, qsequences, "_u_q", 4, lambda u: u * IntPoly((1, 1)))


def exp_x2_negated(monkeypatch):
    # exp(+-x) with -x^2/2! in place of x^2/2!: exp(-x) exp(x) is 1 - 4x^2/2! + ...
    original = sequences.exp_series

    def wrong(order, sign=1):
        right = original(order, sign)
        coeffs = [-c if k == 2 else c for k, c in enumerate(right.coeffs)]
        return TruncatedSeries(right.ring, coeffs, right.binom)

    monkeypatch.setattr(sequences, "exp_series", wrong)


def pascal_last_entry_plus_one(monkeypatch):
    # C(n-1, n-2) + 1 at (n-1, n-2) of P_n, the last entry of its band 1: every
    # leading block smaller than n is still right.
    original = pascal.pascal_matrix

    def wrong(n):
        right = original(n)
        bands = dict(right.bands)
        bands[1] = (*bands[1][:-1], bands[1][-1] + 1)
        return SquareMatrix(right.ring, n, bands)

    monkeypatch.setattr(pascal, "pascal_matrix", wrong)


def m_fold_plus_one(monkeypatch):
    # The m-fold P_n with 1 added to the last entry of its band m.
    original = pascal.pascal_m

    def wrong(n, m):
        right = original(n, m)
        bands = dict(right.bands)
        bands[m] = (*bands[m][:-1], bands[m][-1] + 1)
        return SquareMatrix(right.ring, n, bands)

    monkeypatch.setattr(pascal, "pascal_m", wrong)


def zeta_binomial_5_2_plus_one(monkeypatch):
    # [5, 2] + 1 at zeta_m in the Gaussian basis of eq26 and eq28.
    original = pascal._gaussian_basis

    def wrong(n, ring):
        binom = original(n, ring)
        return lambda i, k: binom(i, k) + ring.one if (i, k) == (5, 2) else binom(i, k)

    monkeypatch.setattr(pascal, "_gaussian_basis", wrong)


def dual_binomial_5_4_plus_q(monkeypatch):
    # [5, 4] + q in Z[q]/(q^2) in the Gaussian basis of thm45.  As q^2 = 0, a weight
    # off by q shows only against the factors G_n with a unit constant term, n a power
    # of two: [5, 4] weighs G_4 B_1.  [4, 2] + q meets only B_2 = 0 and changes nothing.
    original = qsequences._gaussian_basis

    def wrong(n, ring):
        binom = original(n, ring)
        return lambda i, k: binom(i, k) + IntPoly((0, 1)) if (i, k) == (5, 4) else binom(i, k)

    monkeypatch.setattr(qsequences, "_gaussian_basis", wrong)


def c1_q_plus_q(monkeypatch):
    # c_1(q) + q = 1 + q in the truncated q-exponential's product.
    replace_at(monkeypatch, qsequences, "_c_q", 1, lambda c: c + IntPoly((0, 1)))


def sum_drops_band_n_minus_1(monkeypatch):
    # A + B without B's band n - 1, the bottom-left entry of an n x n matrix.
    original = SquareMatrix.__add__
    monkeypatch.setattr(SquareMatrix, "__add__", lambda a, b: original(a, SquareMatrix(
        b.ring, b.n, {d: band for d, band in b.bands.items() if d != b.n - 1})))


def e3_after_c3_r3(monkeypatch):
    # 2/3 in place of e_3 = -1/3, once c_3 and r_3 are cached: with them
    # computed from it, r_3 3! != c_3 u_3 would stop the suite.
    sequences._c(3), sequences._r(3)
    replace_at(monkeypatch, sequences, "_e", 3, lambda e: Fraction(2, 3))


def u5_after_r5(monkeypatch):
    # 6 in place of u_5 = 5, once r_5 is cached: with it computed from u_5,
    # 5 u_1^5 not dividing u_5 would stop the suite.
    sequences._r(5)
    replace_at(monkeypatch, sequences, "_u", 5, lambda u: 6)


FAULTS = {
    "wrong-E5": (wrong_cap_e5, "verify thm41",
                 ["FAIL golden-E [n=5]", "FAIL odd-e-equals-E [n=5]"]),
    "r5-plus-one-minus-q": (r5_plus_one_minus_q, "verify thm41",
                            ["FAIL golden-e [n=5]", "FAIL golden-r [n=5]",
                             "FAIL odd-e-equals-E [n=5]", "FAIL odd-inversion-fixed [n=5]"]),
    "skewed-qfact3": (skewed_qfact3, "verify eq18", ["FAIL q-inverse-coefficient [n=3]"]),
    "negated-e4": (negated_e4, "verify kolberg --max-n 4",
                   ["FAIL a-bounds [n=4]", "FAIL sign-law [n=4]"]),
    "c4-is-five": (c4_is_five, "verify borwein-lou --max-n 4", ["FAIL even-lower [n=4]"]),
    "c5-is-25": (c5_is_25, "verify borwein-lou --max-n 5", ["FAIL odd-upper [n=5]"]),
    "r3-is-zero": (r_is_zero(3), "verify closed-forms --max-n 8", ["FAIL r-prime [p=3]"]),
    "r9-is-zero": (r_is_zero(9), "verify closed-forms --max-n 9",
                   ["FAIL r-prime-squared [p=3]"]),
    "r15-is-zero": (r_is_zero(15), "verify closed-forms --max-n 15",
                    ["FAIL r-two-primes [p=3 q=5]"]),
    "u4-is-seven": (u4_is_seven, "verify divisibility --max-n 4",
                    ["FAIL u-divisibility [n=4 d=2]", "FAIL u-divisibility [n=4 d=4]"]),
    "doubled-r4": (doubled_r4, "verify thm42 --max-n 4", ["FAIL monic-leading-coefficient [n=4]"]),
    "r4-fraction-lead": (r4_fraction_lead, "verify thm42 --max-n 4",
                         ["FAIL integer-coefficients [n=4]"]),
    "closed-form3-is-q": (closed_form3_is_q, "verify thm45 --max-n 4", ["FAIL closed-form [n=3]"]),
    "u4-times-one-plus-q": (u4_times_one_plus_q, "verify thm45 --max-n 5",
                            ["FAIL rational-reduction [n=4]"]),
    "exp-x2-negated": (exp_x2_negated, "verify eq18 --max-n 4", ["FAIL q1-specialization [N=4]"]),
    "pascal-last-entry-plus-one": (pascal_last_entry_plus_one, "verify qpascal --max-n 4",
                                   ["FAIL q1-specialization [n=4]"]),
    "m-fold-plus-one": (m_fold_plus_one, "verify eq26 --m 2",
                        ["FAIL quotient-is-m-fold-pascal [n=6 m=2]"]),
    "zeta-binomial-5-2-plus-one": (zeta_binomial_5_2_plus_one, "verify eq26 --m 2",
                                   ["FAIL gaussian-specialization [n=6 m=2]",
                                    "FAIL quotient-is-m-fold-pascal [n=6 m=2]",
                                    "FAIL quotient-factorization [n=6 m=2]"]),
    "dual-binomial-5-4-plus-q": (dual_binomial_5_4_plus_q, "verify thm45 --max-n 6",
                                 ["FAIL closed-form [n=5]", "FAIL closed-form [n=6]",
                                  "FAIL rational-reduction [n=5]",
                                  "FAIL rational-reduction [n=6]"]),
    "c1-q-plus-q": (c1_q_plus_q, "verify eq26 --m 2", ["FAIL sum-equals-product [n=6 m=2]"]),
    "sum-drops-band-n-minus-1-pascal": (sum_drops_band_n_minus_1, "verify pascal --max-n 4",
                                        ["FAIL sum-of-divided-powers [n=4]",
                                         "FAIL matrix-exponential [n=4]"]),
    "sum-drops-band-n-minus-1-qpascal": (sum_drops_band_n_minus_1, "verify qpascal --max-n 4",
                                         ["FAIL q-exp-identity [n=4]"]),
    "e3-after-c3-r3": (e3_after_c3_r3, "verify closed-forms --max-n 3", ["FAIL e-prime [p=3]"]),
    "u5-after-r5": (u5_after_r5, "verify closed-forms --max-n 5", ["FAIL u-prime [p=5]"]),
}


@pytest.fixture
def empty_caches():
    cached = [value for module in (sequences, qsequences) for value in vars(module).values()
              if hasattr(value, "cache_clear")]
    for function in cached:
        function.cache_clear()
    yield
    for function in cached:
        function.cache_clear()


@pytest.mark.parametrize("plant, command, failures", FAULTS.values(), ids=FAULTS)
def test_fault_prints_its_failures(empty_caches, monkeypatch, capsys, plant, command, failures):
    plant(monkeypatch)
    assert cli.main(command.split()) == 1
    assert [line.split(" |")[0].strip() for line in capsys.readouterr().out.splitlines()
            if line.startswith("  FAIL")] == failures
