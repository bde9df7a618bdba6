"""Acceptance gate: one test per criterion, exact equality throughout.

Every check here is zero-tolerance (the arithmetic is exact); the stated
runtime budgets are asserted as upper bounds.  Each criterion prints a
single PASS/FAIL line (visible with ``pytest -s`` or on failure).
"""

import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ppx import cli, products
from ppx.pascal import (
    SquareMatrix,
    check_carlitz,
    check_cyclotomic_specialization,
    check_root_of_unity_factorization,
    check_truncated_exp_product,
    factor_pascal,
    h_nk,
    pascal_matrix,
)
from ppx.qsequences import (
    GOLDEN_CAP_E_Q,
    GOLDEN_E_Q,
    GOLDEN_R_Q,
    c_q_seq,
    cap_e_q_seq,
    cap_expq_series,
    check_golden_q_lists,
    check_integrality,
    check_log_coeffs,
    check_mod_q2,
    check_reciprocal_identity,
    e_q_seq,
    expq_series,
    mod_q2_expansion,
    mod_q2_ring,
    r_q_seq,
    u_q_seq,
)
from ppx.rings import ZZ, IntPoly
from ppx.sequences import (
    a_seq,
    c_seq,
    check_borwein_lou,
    check_closed_forms,
    check_divisibility,
    check_kolberg,
    e_seq,
    exp_series,
    r_seq,
    u_seq,
)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s / budget {budget_seconds:g}s)",
        file=sys.stderr,
    )
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s exceeds {budget_seconds}s"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_golden_sequences(capsys):
    with criterion(1, "golden-sequences", 1.0):
        expected = {
            ("e",): "1,1/2,-1/3,3/8,-1/5,13/72,-1/7,27/128",
            ("c",): "1,1,-2,9,-24,130,-720,8505",
            ("u",): "1,2,3,8,5,72,7,128",
            ("r",): "1,1,-1,3,-1,13,-1,27",
        }
        for (name,), want in expected.items():
            code, out = run_cli(capsys, "seq", name, "8", "--format", "csv")
            assert code == 0
            assert out.strip() == want


def test_criterion_2_q_golden_lists(capsys):
    with criterion(2, "q-golden-lists", 5.0):
        e, cap_e, r = e_q_seq(7), cap_e_q_seq(7), r_q_seq(7)
        for n in range(1, 6):  # n <= 5 must match the source lists exactly
            assert e[n - 1] == GOLDEN_E_Q[n - 1]
            assert cap_e[n - 1] == GOLDEN_CAP_E_Q[n - 1]
            assert r[n - 1] == GOLDEN_R_Q[n - 1]
        # n = 6, 7 are compared; a mismatch is logged as a transcription
        # discrepancy, with the expansion oracle (criterion 4) as the gate.
        report = check_golden_q_lists()
        for check in report.checks:
            if check.params.get("informational") and check.expected != check.actual:
                print(
                    f"TRANSCRIPTION DISCREPANCY {check.check_id} n={check.params['n']}: "
                    f"printed {check.expected}, computed {check.actual}",
                    file=sys.stderr,
                )
        assert report.passed


def test_criterion_3_p4_factorization(capsys):
    with criterion(3, "p4-factorization", 1.0):
        code, out = run_cli(capsys, "pascal", "4", "--action", "factor")
        assert code == 0
        assert out.strip() == "1, 1, -2"
        cs = factor_pascal(4)
        assert cs == [1, 1, -2]
        product = SquareMatrix.identity(ZZ, 4)
        for k, c in enumerate(cs, start=1):
            product = product * (SquareMatrix.identity(ZZ, 4) + h_nk(4, k).scale(c))
        assert product == pascal_matrix(4)


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle-equivalence", 60.0):
        n = 14
        assert list(products.expand(exp_series(n)).factors) == e_seq(n)
        assert list(products.expand(exp_series(n).negate_argument()).factors) == a_seq(n)
        assert list(products.expand(expq_series(n)).factors) == e_q_seq(n)
        assert list(products.expand(cap_expq_series(n)).factors) == cap_e_q_seq(n)


def test_criterion_5_property_suites():
    with criterion(5, "property-suites", 30.0):
        assert check_kolberg(64).passed
        borwein = check_borwein_lou(64)
        assert borwein.passed
        c = c_seq(9)
        assert abs(c[8]) == 35840 and c[3] == 9 and c[5] == 130
        assert check_divisibility(64).passed
        assert check_closed_forms(64).passed
        assert check_integrality(14).passed
        assert check_reciprocal_identity(10).passed
        assert check_log_coeffs(12).passed


def test_criterion_6_cyclotomic_and_congruences():
    with criterion(6, "cyclotomic-and-congruences", 10.0):
        for m in (2, 3):
            assert check_cyclotomic_specialization(12, m).passed
        for p in (2, 3, 5):
            assert check_carlitz(p, 20).passed


def test_criterion_7_root_of_unity_matrices():
    with criterion(7, "root-of-unity-matrices", 10.0):
        for n, m in ((6, 2), (8, 2), (9, 3)):
            assert check_root_of_unity_factorization(n, m).passed
            assert check_truncated_exp_product(n, m).passed


def test_criterion_8_mod_q2_expansion():
    with criterion(8, "mod-q2-expansion", 5.0):
        assert check_mod_q2(32).passed
        ring = mod_q2_ring()
        factors = mod_q2_expansion(32)
        assert factors[7] == ring.reduce(IntPoly((1, -4)))    # g_8 = 1 - 4q
        assert factors[15] == ring.reduce(IntPoly((1, -8)))   # g_16 = 1 - 8q


def test_criterion_9_q_degenerations():
    with criterion(9, "q-degenerations", 60.0):
        n = 14
        e, u, r, c = e_q_seq(n), u_q_seq(n), r_q_seq(n), c_q_seq(n)
        assert [Fraction(f.num(1), f.den(1)) for f in e] == e_seq(n)
        assert [p(1) for p in u] == u_seq(n)
        assert [p(1) for p in r] == r_seq(n)
        assert [p(1) for p in c] == c_seq(n)
        for k, f in enumerate(e_q_seq(16), start=1):
            assert Fraction(f.num(0), f.den(0)) == (1 if k & (k - 1) == 0 else 0)


def test_verify_all_cli_completes(capsys):
    code, out = run_cli(capsys, "verify", "all")
    assert code == 0
    assert out.count("status: pass") == len(cli.SUITES)
    assert "status: fail" not in out
