"""The fault table: checks that are shown to FAIL.

Each row plants one fault at a seam that a check reads (a sequence builder
or a cached kernel, never the ``Report``), runs the smallest command that
reaches it, and names every FAIL line that the command prints, in order.
The command must exit 1.  The q-sequence caches are empty before and after
each row, so a planted value is really computed with and leaves nothing
behind.
"""

import pytest

from ppx import cli, qsequences
from ppx.qsequences import qint
from ppx.rings import IntPoly, RatFunc


def wrong_cap_e5(monkeypatch):
    # 2q/[5] in place of E_5(q) = -q(1 - q + q^2)/[5].
    original = qsequences._cap_e_q
    monkeypatch.setattr(qsequences, "_cap_e_q", lambda n: (
        RatFunc(IntPoly((0, 2)), qint(5)) if n == 5 else original(n)))


def r5_plus_one_minus_q(monkeypatch):
    # r_5(q) + 1 - q keeps the leading coefficient -1 and the value r_5(1),
    # so _r_q accepts it and the suite runs to the end.
    original, fault = qsequences._r_q_family, (qsequences._ONE_MINUS_Q, 5)
    monkeypatch.setattr(qsequences, "_r_q_family", lambda base, n: (
        original(base, n) + IntPoly((1, -1)) if (base, n) == fault else original(base, n)))


def skewed_qfact3(monkeypatch):
    # 1 + 2q + 3q^2 + q^3 in place of [3]! = 1 + 2q + 2q^2 + q^3: not fixed
    # under reversal.
    original = qsequences.qfact
    monkeypatch.setattr(qsequences, "qfact", lambda n: (
        IntPoly((1, 2, 3, 1)) if n == 3 else original(n)))


FAULTS = {
    "wrong-E5": (wrong_cap_e5, "verify thm41",
                 ["FAIL golden-E [n=5]", "FAIL odd-e-equals-E [n=5]"]),
    "r5-plus-one-minus-q": (r5_plus_one_minus_q, "verify thm41",
                            ["FAIL golden-e [n=5]", "FAIL golden-r [n=5]",
                             "FAIL odd-e-equals-E [n=5]", "FAIL odd-inversion-fixed [n=5]"]),
    "skewed-qfact3": (skewed_qfact3, "verify eq18", ["FAIL q-inverse-coefficient [n=3]"]),
}


@pytest.fixture
def empty_q_caches():
    cached = [value for value in vars(qsequences).values() if hasattr(value, "cache_clear")]
    for function in cached:
        function.cache_clear()
    yield
    for function in cached:
        function.cache_clear()


@pytest.mark.parametrize("plant, command, failures", FAULTS.values(), ids=FAULTS)
def test_fault_prints_its_failures(empty_q_caches, monkeypatch, capsys, plant, command, failures):
    plant(monkeypatch)
    assert cli.main(command.split()) == 1
    assert [line.split(" |")[0].strip() for line in capsys.readouterr().out.splitlines()
            if line.startswith("  FAIL")] == failures
