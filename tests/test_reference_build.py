"""The ring kernels against their references, end to end.

Every command of COMMANDS must print the same bytes and exit with the same
code when the fast ring kernels of ``ppx.rings`` are replaced by their
references: the schoolbook products for the word-slot (Kronecker) product
kernel, the primitive pseudo-remainder sequence for GCDHEU, dense long
division by q^m - 1 for the fold of ``QuotientRing.reduce``, and the
product route for the q-integer passes of ``qsequences._times_ratio`` and
for the sums at q = 2^k of ``qsequences._u_ratio_sum``, from which r_n(q)
and u_n(q) are read.
Each command runs from empty caches, as in a fresh process, so the
references compute every value it prints.  A planted fault in a word-slot
product or in the fold stride must make the comparison fail."""

import contextlib
import io
import sys

import pytest

from ppx.cli import main
from ppx.qsequences import qint
from ppx.rings import IntPoly, _fold, _unpack  # the planted faults wrap the last two
from schoolbook import product_u_ratio_sum, prs_poly_gcd
from test_rings import clear_caches, long_division_remainder

COMMANDS = [
    "verify all", "verify all --format json",
    # each suite at one small scaled size
    "verify roundtrip --max-n 20", "verify kolberg --max-n 80",
    "verify borwein-lou --max-n 80", "verify divisibility --max-n 80",
    "verify closed-forms --max-n 80", "verify thm41", "verify thm42 --max-n 20",
    "verify thm43 --max-n 30 --m 6", "verify cor44 --max-n 30 --p 7",
    "verify thm45 --max-n 48", "verify eq18 --max-n 20", "verify eq21 --max-n 24",
    "verify eq26 --m 10", "verify eq28 --m 12", "verify pascal --max-n 20",
    "verify qpascal --max-n 18", "verify pascal-m --max-n 20",
    *(f"seq {name} 12" for name in ("e", "c", "a", "u", "r", "eq", "Eq", "uq", "rq", "cq")),
    "pascal 8", "pascal 8 --action factor", "pascal 8 --variant q",
    "pascal 8 --variant q --action factor", "pascal 8 --variant m --m 2",
    "pascal 8 --variant m --m 2 --action factor",
]


def run_commands() -> dict:
    """(exit code, standard output) of each command, each from empty caches."""
    results = {}
    for command in COMMANDS:
        clear_caches()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            results[command] = main(command.split()), out.getvalue()
    clear_caches()
    return results


@pytest.fixture(scope="module")
def reference_build():
    """The outputs of COMMANDS with the ring references swapped in: no
    word-slot kernel pays (``_pack_pays`` is false), so every IntPoly product
    takes the schoolbook loop (exact quotients are always long division);
    ``poly_gcd``, which reduces every RatFunc, is the primitive PRS gcd; the fold
    mod q^m - 1 is dense long division by q^m - 1; a pass of [j]/[g] over a
    coefficient list is the product by [j] and the exact quotient by [g];
    and the sums of r_n(q) and u_n(q), which are never evaluated at 2^k, are
    IntPoly products and exact quotients of the u_n(q) products."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ppx.qsequences._times_ratio", lambda coeffs, j, g: (
            (IntPoly(coeffs) * qint(j)).divexact(qint(g)).coeffs))
        patch.setattr("ppx.qsequences._u_ratio_sum", product_u_ratio_sum)
        patch.setattr("ppx.rings._pack_pays", lambda m, n: False)
        patch.setattr("ppx.rings.poly_gcd", prs_poly_gcd)
        patch.setattr("ppx.rings._fold", lambda coeffs, m: list(
            long_division_remainder(coeffs, (-1,) + (0,) * (m - 1) + (1,))))
        return run_commands()


def test_normal_build_matches_the_reference_build(reference_build):
    assert run_commands() == reference_build


def negate_one_product_digit(monkeypatch):
    # The first word-slot IntPoly product with 16 or more coefficients comes
    # back with its lowest nonzero coefficient negated.
    flipped = []

    def unpack(value, n, w):
        digits = _unpack(value, n, w)
        if (not flipped and w <= 8 and n >= 16 and any(digits)
                and sys._getframe(1).f_code.co_name == "__mul__"):
            flipped.append(next(i for i, d in enumerate(digits) if d))
            digits[flipped[0]] = -digits[flipped[0]]
        return digits

    monkeypatch.setattr("ppx.rings._unpack", unpack)
    return flipped


def fold_with_wrong_stride(monkeypatch):
    # Folding mod q^(m+1) - 1 is not a reduction mod Phi_m.
    monkeypatch.setattr("ppx.rings._fold", lambda coeffs, m: _fold(coeffs, m + 1))


@pytest.mark.parametrize("plant", [negate_one_product_digit, fold_with_wrong_stride])
def test_planted_fault_fails_the_comparison(reference_build, monkeypatch, plant):
    plant(monkeypatch)
    faulty = run_commands()
    assert [command for command in COMMANDS if faulty[command] != reference_build[command]]
