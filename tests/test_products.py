"""The generic power product expansion and its contraction oracle."""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppx import cli, products
from ppx.products import contract, expand
from ppx.qsequences import qfact
from ppx.rings import P_ONE, ZZ, RatFunc
from ppx.sequences import exp_series
from ppx.series import TruncatedSeries
from qfunc_series import QFUNC, expq_series
from schoolbook import unit_weight


def zz_series(coeffs, binom=unit_weight):
    return TruncatedSeries(ZZ, coeffs, binom)


class TestExpand:
    def test_all_ones_is_dyadic(self):
        f = zz_series([1] * 9)
        assert expand(f) == tuple(1 if n & (n - 1) == 0 else 0 for n in range(1, 9))

    def test_exp_factors(self):
        # In the k! basis the factors of exp(x) are G_n = c_n = n! e_n.
        g = expand(exp_series(8))
        assert tuple(Fraction(c, math.factorial(n)) for n, c in enumerate(g, start=1)) == (
            Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(3, 8),
            Fraction(-1, 5), Fraction(13, 72), Fraction(-1, 7), Fraction(27, 128),
        )

    def test_single_binomial(self):
        assert expand(zz_series([1, 1, 0, 0, 0])) == (1, 0, 0, 0)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            expand(zz_series([2, 1]))


class TestContract:
    def test_dyadic_gives_all_ones(self):
        factors = tuple(1 if n & (n - 1) == 0 else 0 for n in range(1, 9))
        assert contract(factors, ZZ, unit_weight) == zz_series([1] * 9)

    def test_all_zero_gives_one(self):
        assert contract((0,) * 5, ZZ, unit_weight) == zz_series([1, 0, 0, 0, 0, 0])

    def test_expq_roundtrip_recovers_coefficients(self):
        f = expq_series(7)
        assert contract(expand(f), QFUNC, unit_weight) == f
        assert f.coeffs == tuple(RatFunc(P_ONE, qfact(n)) for n in range(8))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=3, max_size=10))
    def test_rational_roundtrip(self, tail):
        # sum F_k x^k/k! over Z: a series with rational coefficients.
        f = zz_series([1] + tail, math.comb)
        assert contract(expand(f), ZZ, math.comb) == f

    def test_ratfunc_roundtrip(self):
        for f in (expq_series(9), expq_series(9, -1)):
            assert contract(expand(f), QFUNC, unit_weight) == f

    def test_perturbing_a_factor_changes_its_coefficient(self):
        factors = list(expand(exp_series(8)))
        factors[3] += 1  # bump G_4
        perturbed = contract(factors, ZZ, math.comb)
        original = exp_series(8)
        assert perturbed.coeffs[4] != original.coeffs[4]
        assert perturbed.coeffs[:4] == original.coeffs[:4]


# ---------------------------------------------------------------------------
# The round trip fails when the expansion loop is wrong: the mutants are
# planted in the source of ppx.products, so a loop that contract shared with
# expand would carry the same fault into both, and the round trip would pass


LOOP_MUTANTS = {
    "shipped": ("", ""),
    "ascending": ("range(len(partial) - 1, n - 1, -1)", "range(n, len(partial))"),
    "last-skipped": ("range(len(partial) - 1, n - 1, -1)", "range(len(partial) - 2, n - 1, -1)"),
    "weight-dropped": ("binom(k, n) * g * b", "g * b"),
    "term-doubled": ("+ binom(k, n) * g * b", "+ binom(k, n) * g * b * 2"),
}
ROUND_TRIPS = ("exp-roundtrip", "exp-neg-roundtrip", "expq-roundtrip", "cap-expq-roundtrip")


@pytest.mark.parametrize("name", LOOP_MUTANTS)
def test_round_trip_fails_a_wrong_expansion_loop(monkeypatch, capsys, name):
    old, new = LOOP_MUTANTS[name]
    source = Path(products.__file__).read_text()
    assert source.count(old) == 1 or not old
    mutant = {"__name__": products.__name__, "__package__": products.__package__}
    exec(compile(source.replace(old, new), products.__file__, "exec"), mutant)
    monkeypatch.setattr(products, "expand", mutant["expand"])
    monkeypatch.setattr(products, "contract", mutant["contract"])
    status = "PASS" if name == "shipped" else "FAIL"
    assert cli.main(["verify", "roundtrip", "--max-n", "8"]) == (status == "FAIL")
    rows = {line.split()[1]: line.split()[0] for line in capsys.readouterr().out.splitlines()
            if line.split()[1:2] and line.split()[1] in ROUND_TRIPS}
    assert rows == dict.fromkeys(ROUND_TRIPS, status)
