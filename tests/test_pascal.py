"""Pascal matrices, factorizations, and root-of-unity specializations."""

import collections
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppx import cli, pascal, qsequences, sequences
from ppx.pascal import (
    SquareMatrix,
    check_carlitz,
    check_cyclotomic_specialization,
    check_pascal,
    check_pascal_m,
    check_q_pascal,
    check_root_of_unity_factorization,
    check_truncated_exp_product,
    exp_nilpotent,
    factor_pascal,
    factor_pascal_m,
    factor_q_pascal,
    h_m_nk,
    h_matrix,
    h_nk,
    pascal_m,
    pascal_matrix,
    q_h,
    q_h_nk,
    q_pascal,
    solve_unit_lower,
)
from ppx.qsequences import c_q_seq, qbinom, qfact, qint
from ppx.rings import (
    ConsistencyError,
    IntPoly,
    P_ONE,
    P_ZERO,
    QuotientRing,
    ZX,
    ZZ,
    cyclotomic,
)
from ppx.sequences import c_seq


class TestClassical:
    def test_p4_rows(self):
        assert pascal_matrix(4).rows == (
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (1, 2, 1, 0),
            (1, 3, 3, 1),
        )

    def test_h_cubed_over_six_is_divided_power(self):
        h = h_matrix(4)
        cubed = h ** 3
        scaled = cubed.map_entries(lambda e: e // 6, ZZ)
        assert scaled == h_nk(4, 3)
        assert h_nk(4, 3).rows[3][0] == 1  # single surviving entry C(3,3)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_nilpotency(self, n):
        assert (h_matrix(n) ** n).is_zero
        assert not (h_matrix(n) ** (n - 1)).is_zero

    def test_exp_is_pascal(self):
        for n in (2, 4, 7):
            assert exp_nilpotent(h_matrix(n)) == pascal_matrix(n)

    def test_factor_p4(self):
        assert factor_pascal(4) == [1, 1, -2]

    def test_factor_p8(self):
        assert factor_pascal(8) == [1, 1, -2, 9, -24, 130, -720]

    def test_factor_p2(self):
        assert factor_pascal(2) == [1]

    def test_factor_product_identity(self):
        n = 5
        cs = factor_pascal(n)
        product = SquareMatrix.identity(ZZ, n)
        for k, c in enumerate(cs, start=1):
            product = product * (SquareMatrix.identity(ZZ, n) + h_nk(n, k).scale(c))
        assert product == pascal_matrix(n)

    def test_prefix_stability(self):
        assert factor_pascal(6) == factor_pascal(7)[:5]

    def test_report(self):
        assert check_pascal(10).passed


class TestMFold:
    def test_m1_reduces_to_classical(self):
        assert pascal_m(5, 1) == pascal_matrix(5)

    def test_doubled_row(self):
        assert pascal_m(6, 2).rows[4] == (1, 0, 2, 0, 1, 0)

    def test_recurrence(self):
        for m in (2, 3):
            for n in range(2, 11):
                generator = h_m_nk(n, m, 1)
                for k in range(2, (n - 1) // m + 1):
                    assert h_m_nk(n, m, k - 1) * generator == h_m_nk(n, m, k).scale(k)

    def test_nilpotency_index(self):
        # the generator steps m rows at a time, so H^k = 0 exactly when mk >= n
        for m in (2, 3):
            for n in range(2, 11):
                generator = h_m_nk(n, m, 1)
                for k in range(1, n + 1):
                    assert (generator ** k).is_zero == (m * k >= n)

    def test_product_identity_n6_m2(self):
        n, m = 6, 2
        cs = c_seq((n - 1) // m)
        product = SquareMatrix.identity(ZZ, n)
        for k, c in enumerate(cs, start=1):
            product = product * (SquareMatrix.identity(ZZ, n) + h_m_nk(n, m, k).scale(c))
        assert product == pascal_m(n, m)

    def test_factor_recovery(self):
        assert factor_pascal_m(7, 2) == [1, 1, -2]
        assert factor_pascal_m(5, 2) == [1, 1]

    def test_report(self):
        assert check_pascal_m(10).passed


class TestQPascal:
    def test_q_pascal_3(self):
        assert q_pascal(3).rows == (
            (P_ONE, P_ZERO, P_ZERO),
            (P_ONE, P_ONE, P_ZERO),
            (P_ONE, IntPoly((1, 1)), P_ONE),
        )

    def test_q_h_squared_entry(self):
        squared = q_h(3) ** 2
        assert squared.entry(2, 0) == qfact(2)  # [2]! [2 choose 2]

    def test_divided_power_identity(self):
        for n in (3, 5):
            h = q_h(n)
            for k in range(n):
                assert h ** k == q_h_nk(n, k).scale(qfact(k))

    def test_q1_specialization(self):
        for n in (3, 6):
            assert q_pascal(n).map_entries(lambda e: e(1), ZZ) == pascal_matrix(n)

    def test_factor_q_p4(self):
        assert factor_q_pascal(4) == [P_ONE, P_ONE, IntPoly((0, -1, -1))]

    def test_factor_q_p2(self):
        assert factor_q_pascal(2) == [P_ONE]

    def test_factors_specialize_at_one(self):
        cs = factor_q_pascal(6)
        assert [c(1) for c in cs] == [1, 1, -2, 9, -24]

    def test_factors_match_sequence(self):
        assert factor_q_pascal(6) == c_q_seq(5)

    def test_report(self):
        assert check_q_pascal(10).passed


class TestCyclotomicSpecialization:
    def test_spot_values_via_evaluation(self):
        # mod Phi_2 is evaluation at q = -1, an independent oracle
        cq = c_q_seq(6)
        assert cq[2](-1) == 0          # c_3(zeta_2) = 0
        assert cq[5](-1) == -2         # c_6(zeta_2) = c_3
        assert cq[1](-1) == 1          # c_2(zeta_2) = c_1

    def test_reduction_route(self):
        ring = QuotientRing(cyclotomic(2))
        cq = c_q_seq(6)
        assert ring.reduce(cq[2]) == ring.zero
        assert ring.reduce(cq[5]) == ring.from_int(-2)

    @pytest.mark.parametrize("m", [2, 3])
    def test_report_to_12(self, m):
        assert check_cyclotomic_specialization(12, m).passed

    def test_validation(self):
        with pytest.raises(ValueError):
            check_cyclotomic_specialization(12, 1)


class TestCarlitz:
    def test_spot_values(self):
        c = c_seq(7)
        assert c[4] % 3 == 0            # c_5 = -24
        assert c[5] % 3 == c[1] % 3     # c_6 = 130 = c_2 = 1 mod 3
        assert c[6] % 5 == 0            # c_7 = -720

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_report_to_20(self, p):
        assert check_carlitz(p, 20).passed

    def test_validation(self):
        with pytest.raises(ValueError):
            check_carlitz(4, 20)
        with pytest.raises(ValueError):
            check_carlitz(5, 5)


class TestRootOfUnity:
    def test_generator_nilpotent_mod_phi2(self):
        ring = QuotientRing(cyclotomic(2))
        h = q_h(6).map_entries(ring.reduce, ring)
        assert (h ** 2).is_zero

    def test_gaussian_binomial_at_minus_one(self):
        # [4 choose 2] at zeta_2 equals C(2, 1) = 2; independent eval oracle
        assert qbinom(4, 2)(-1) == 2
        ring = QuotientRing(cyclotomic(2))
        assert ring.reduce(qbinom(4, 2)) == ring.from_int(2)

    def test_gaussian_specialization_grid(self):
        for m in (2, 3):
            ring = QuotientRing(cyclotomic(m))
            for i in range(11):
                for k in range(i // m + 1):
                    reduced = ring.reduce(qbinom(i, k * m))
                    assert reduced == ring.from_int(math.comb(i // m, k))

    @pytest.mark.parametrize("n,m", [(6, 2), (8, 2), (9, 3)])
    def test_full_factorization(self, n, m):
        assert check_root_of_unity_factorization(n, m).passed

    @pytest.mark.parametrize("n,m", [(6, 2), (8, 2), (9, 3)])
    def test_truncated_exp_product(self, n, m):
        assert check_truncated_exp_product(n, m).passed

    def test_solve_unit_lower_requires_unit_triangular(self):
        ring = QuotientRing(cyclotomic(2))
        bad = SquareMatrix.identity(ring, 3).scale(ring.from_int(2))
        with pytest.raises(ConsistencyError):
            solve_unit_lower(bad, SquareMatrix.identity(ring, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            check_root_of_unity_factorization(3, 4)


class TestSquareMatrix:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            SquareMatrix(ZZ, [[1, 2]])
        a = SquareMatrix(ZZ, [[1, 0], [0, 1]])
        b = SquareMatrix(ZZ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            a * b

    def test_json_shape(self):
        m = q_pascal(2)
        assert m.to_json_obj() == [[["1"], []], [["1"], ["1"]]]


# ---------------------------------------------------------------------------
# The sparse product against a dense schoolbook reference


def dense_product(a, b):
    """Schoolbook reference: every entry sums all n products, zero pairs
    included."""
    ring, n = a.ring, a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for l in range(n):
                acc = acc + a.entry(i, l) * b.entry(l, j)
            row.append(acc)
        rows.append(row)
    return SquareMatrix(ring, rows)


PRODUCT_RINGS = (ZZ, ZX, QuotientRing(cyclotomic(2)), QuotientRing(cyclotomic(5)),
                 QuotientRing(cyclotomic(12)))


def ring_elements(ring):
    ints = st.integers(-20, 20)
    if ring is ZZ:
        return ints
    polys = st.lists(ints, max_size=6).map(IntPoly)
    return polys if ring is ZX else polys.map(ring.reduce)


@st.composite
def square_matrices(draw, ring, n):
    """From all-zero through one band and a Pascal-factor shape (diagonal
    plus one band) to lower triangular, a random pattern and full; bands
    above the diagonal make non-triangular matrices."""
    shape = draw(st.sampled_from(("zero", "band", "factor", "lower", "pattern", "full")))
    d = draw(st.integers(1 - n, n - 1))
    pattern = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    keep = {
        "zero": lambda i, j: False,
        "band": lambda i, j: i - j == d,
        "factor": lambda i, j: i == j or i - j == d,
        "lower": lambda i, j: i >= j,
        "pattern": lambda i, j: pattern[i * n + j],
        "full": lambda i, j: True,
    }[shape]
    nonzero = ring_elements(ring).filter(lambda e: e != ring.zero)
    return SquareMatrix(
        ring, [[draw(nonzero) if keep(i, j) else ring.zero for j in range(n)] for i in range(n)]
    )


@st.composite
def matrix_pairs(draw):
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    n = draw(st.integers(1, 12))
    return draw(square_matrices(ring, n)), draw(square_matrices(ring, n))


class Counted:
    """A ring element that counts every product and sum taken with it."""

    __slots__ = ("value", "log")

    def __init__(self, value, log):
        self.value, self.log = value, log

    def __mul__(self, other):
        self.log["mul"] += 1
        return Counted(self.value * other.value, self.log)

    def __add__(self, other):
        self.log["add"] += 1
        return Counted(self.value + other.value, self.log)

    def __eq__(self, other):
        return self.value == other.value


class CountingRing:
    def __init__(self, ring):
        self.log = collections.Counter()
        self.zero = Counted(ring.zero, self.log)

    def wrap(self, matrix):
        return matrix.map_entries(lambda e: Counted(e, self.log), self)


class DividingRing:
    """ZZ, counting its exact divisions by integers."""

    def __init__(self):
        self.zero, self.calls = ZZ.zero, 0

    def div_int(self, a, n):
        self.calls += 1
        return ZZ.div_int(a, n)


class TestDivScalarExact:
    # Integer matrices are the only ones the program divides.
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: square_matrices(ZZ, n)),
           st.integers(-6, 6).filter(bool))
    def test_one_div_int_per_nonzero_entry(self, matrix, d):
        ring = DividingRing()
        scaled = SquareMatrix(ring, [[e * d for e in row] for row in matrix.rows])
        assert pascal._div_scalar_exact(scaled, d).rows == matrix.rows
        assert ring.calls == sum(e != 0 for row in matrix.rows for e in row)

    def test_inexact_entry_is_a_consistency_error(self):
        with pytest.raises(ConsistencyError, match="not divisible by 2"):
            pascal._div_scalar_exact(h_matrix(4), 2)

    def test_pascal_m_takes_one_product_per_power(self, monkeypatch):
        # k = 2..k_max: H_(k-1) H_1 and H^k = H^(k-1) H_1; exp(H) one more
        # product per nonzero power H^1..H^k_max.
        calls = []
        original = SquareMatrix.__mul__
        monkeypatch.setattr(SquareMatrix, "__mul__",
                            lambda a, b: calls.append(1) or original(a, b))
        n, m = 13, 2
        k_max = (n - 1) // m
        pascal_m(n, m)
        assert len(calls) == 2 * (k_max - 1) + k_max


class TestSparseProduct:
    @settings(max_examples=120, deadline=None)
    @given(matrix_pairs())
    def test_matches_dense_reference(self, pair):
        a, b = pair
        product = a * b
        assert product == dense_product(a, b)
        assert {type(e) for row in product.rows for e in row} == {type(a.ring.zero)}

    @settings(max_examples=60, deadline=None)
    @given(matrix_pairs())
    def test_one_ring_product_per_nonzero_pair(self, pair):
        a, b = pair
        zero, n = a.ring.zero, a.n
        pairs = sum(
            1
            for i in range(n) for l in range(n) for j in range(n)
            if a.entry(i, l) != zero and b.entry(l, j) != zero
        )
        ring = CountingRing(a.ring)
        product = ring.wrap(a) * ring.wrap(b)
        assert ring.log == collections.Counter({"mul": pairs, "add": pairs})
        assert product.map_entries(lambda e: e.value, a.ring) == a * b


# ---------------------------------------------------------------------------
# The unit-band step against the dense product with I + c G


@st.composite
def band_steps(draw):
    """A left factor (any shape of square_matrices, lower triangular and
    full among them), a generator on the band i - j = shift (zeros allowed)
    and a scalar c (zero sometimes)."""
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    n = draw(st.integers(1, 12))
    shift = draw(st.integers(0, n - 1))
    band = {i: draw(ring_elements(ring)) for i in range(shift, n)}
    generator = SquareMatrix(
        ring, [[band[i] if i - j == shift else ring.zero for j in range(n)] for i in range(n)]
    )
    c = draw(st.one_of(st.just(ring.zero), ring_elements(ring)))
    return draw(square_matrices(ring, n)), generator, shift, c


class TestUnitBandStep:
    @settings(max_examples=150, deadline=None)
    @given(band_steps())
    def test_matches_dense_product(self, step):
        matrix, generator, shift, c = step
        identity = SquareMatrix.identity(matrix.ring, matrix.n)
        expected = dense_product(matrix, identity + generator.scale(c))
        assert pascal._unit_band_step(matrix, generator, shift, c) == expected

    @settings(max_examples=60, deadline=None)
    @given(band_steps())
    def test_one_ring_product_per_nonzero_pair(self, step):
        # one product c g_i per nonzero band entry, then one per pair of a
        # nonzero row entry and a nonzero band entry; nothing when c = 0
        matrix, generator, shift, c = step
        zero, n = matrix.ring.zero, matrix.n
        band = [i for i in range(shift, n) if generator.entry(i, i - shift) != zero]
        pairs = sum(1 for r in range(n) for i in band if matrix.entry(r, i) != zero)
        ring = CountingRing(matrix.ring)
        product = pascal._unit_band_step(ring.wrap(matrix), ring.wrap(generator), shift,
                                         Counted(c, ring.log))
        if c == zero:
            assert ring.log == collections.Counter()
        else:
            assert ring.log == collections.Counter({"mul": len(band) + pairs, "add": pairs})
        assert product.map_entries(lambda e: e.value, matrix.ring) == dense_product(
            matrix, SquareMatrix.identity(matrix.ring, n) + generator.scale(c))

    @settings(max_examples=60, deadline=None)
    @given(band_steps(), st.data())
    def test_rejects_entry_off_the_band(self, step, data):
        matrix, generator, shift, c = step
        n, ring = matrix.n, matrix.ring
        cells = [(i, j) for i in range(n) for j in range(n) if i - j != shift]
        if not cells:
            return
        i, j = data.draw(st.sampled_from(cells))
        rows = [list(row) for row in generator.rows]
        rows[i][j] = data.draw(ring_elements(ring).filter(lambda e: e != ring.zero))
        with pytest.raises(ConsistencyError, match="off the band"):
            pascal._unit_band_step(matrix, SquareMatrix(ring, rows), shift, c)

    def test_scale_skips_zero_entries(self):
        ring = CountingRing(ZX)
        scaled = ring.wrap(q_h_nk(6, 2)).scale(Counted(qint(3), ring.log))
        assert ring.log == collections.Counter({"mul": 4})
        assert scaled.map_entries(lambda e: e.value, ZX) == q_h_nk(6, 2).map_entries(
            lambda e: e * qint(3), ZX)

    @settings(max_examples=40, deadline=None)
    @given(matrix_pairs())
    def test_solve_unit_lower_inverts_the_product(self, pair):
        a, b = pair
        n, ring = a.n, a.ring
        unit = SquareMatrix(ring, [[ring.one if i == j else a.entry(i, j) if i > j
                                    else ring.zero for j in range(n)] for i in range(n)])
        assert solve_unit_lower(unit, dense_product(unit, b)) == b


# ---------------------------------------------------------------------------
# Fault injection: the matrix suites notice a wrong product


def _clear_sequence_caches():
    for module in (sequences, qsequences):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def dropped_term(monkeypatch):
    """Every product loses the last nonzero term of its bottom-left entry:
    SquareMatrix.__mul__, and the unit-band step that the factorizations
    and factored products use, whose terms are those of the dense product
    with I + c G.  The caches are empty before and after."""
    original_mul, original_step = SquareMatrix.__mul__, pascal._unit_band_step

    def drop_last_term(product, a, b):
        i, j, zero = a.n - 1, 0, a.ring.zero
        terms = [a.entry(i, l) * b.entry(l, j) for l in range(a.n)
                 if a.entry(i, l) != zero and b.entry(l, j) != zero]
        if not terms:
            return product
        rows = [list(row) for row in product.rows]
        rows[i][j] = rows[i][j] - terms[-1]
        return SquareMatrix(a.ring, rows)

    def mul(self, other):
        return drop_last_term(original_mul(self, other), self, other)

    def band_step(matrix, generator, shift, c):
        factor = SquareMatrix.identity(matrix.ring, matrix.n) + generator.scale(c)
        return drop_last_term(original_step(matrix, generator, shift, c), matrix, factor)

    _clear_sequence_caches()
    monkeypatch.setattr(SquareMatrix, "__mul__", mul)
    monkeypatch.setattr(pascal, "_unit_band_step", band_step)
    yield
    monkeypatch.undo()
    _clear_sequence_caches()


@pytest.fixture
def short_bottom_row(monkeypatch):
    """The unit-band step skips its last term in the bottom row.  The
    bottom-left fault above cannot reach the eq26/eq28 products: their
    bottom-left entry gets no nonzero term at all."""
    original = pascal._unit_band_step

    def band_step(matrix, generator, shift, c):
        product = original(matrix, generator, shift, c)
        last, zero = matrix.n - 1, matrix.ring.zero
        band = [i for i in range(shift, matrix.n)
                if matrix.entry(last, i) != zero and generator.entry(i, i - shift) != zero]
        if c == zero or not band:
            return product
        i = band[-1]
        rows = [list(row) for row in product.rows]
        term = matrix.entry(last, i) * (c * generator.entry(i, i - shift))
        rows[last][i - shift] = rows[last][i - shift] - term
        return SquareMatrix(matrix.ring, rows)

    monkeypatch.setattr(pascal, "_unit_band_step", band_step)


@pytest.fixture
def fresh_caches():
    _clear_sequence_caches()
    yield
    _clear_sequence_caches()


class TestMatrixSuitesCanFail:
    def test_factorizations_raise(self, dropped_term):
        with pytest.raises(ConsistencyError):
            factor_pascal(8)
        with pytest.raises(ConsistencyError):
            factor_q_pascal(6)

    def test_verify_exits_one(self, dropped_term, capsys):
        assert cli.main(["verify", "pascal", "--max-n", "6"]) == 1
        assert cli.main(["verify", "qpascal", "--max-n", "5"]) == 1
        assert "consistency violation" in capsys.readouterr().err

    def test_pascal_m_reports_fail(self, dropped_term, capsys):
        assert cli.main(["verify", "pascal-m", "--max-n", "6"]) == 1
        out = capsys.readouterr().out
        assert "FAIL m1-reduction" in out
        assert "FAIL m-fold-identities" in out
        assert "status: fail" in out

    def test_root_of_unity_suites_fail(self, short_bottom_row, capsys):
        assert cli.main(["verify", "eq28"]) == 1
        assert "FAIL sum-equals-product" in capsys.readouterr().out
        assert cli.main(["verify", "eq26"]) == 1
        assert "consistency violation" in capsys.readouterr().err

    def test_wrong_c3_fails_factor_recovery(self, fresh_caches, monkeypatch, capsys):
        original = sequences._c
        monkeypatch.setattr(sequences, "_c", lambda n: original(n) + (n == 3))
        assert cli.main(["verify", "pascal", "--max-n", "6"]) == 1
        out = capsys.readouterr().out
        assert "FAIL factor-recovery" in out
        assert "status: fail" in out

    def test_wrong_c3_q_fails_q_factor_recovery(self, fresh_caches, monkeypatch, capsys):
        original = qsequences._c_q
        monkeypatch.setattr(qsequences, "_c_q",
                            lambda n: original(n) + IntPoly.monomial(1, 1) * (n == 3))
        assert cli.main(["verify", "qpascal", "--max-n", "6"]) == 1
        out = capsys.readouterr().out
        assert "FAIL q-factor-recovery" in out
        assert "status: fail" in out

    def test_size_dependent_generator_fails_prefix_stability(self, monkeypatch, capsys):
        # C(3, 1) wrong in H_(5,1) alone: factoring P_5 then recovers another
        # c_3 than factoring P_6 does
        original = pascal.h_nk

        def planted(n, k):
            matrix = original(n, k)
            if (n, k) != (5, 1):
                return matrix
            rows = [list(row) for row in matrix.rows]
            rows[3][2] += 1
            return SquareMatrix(ZZ, rows)

        monkeypatch.setattr(pascal, "h_nk", planted)
        assert cli.main(["verify", "pascal", "--max-n", "6"]) == 1
        assert "FAIL factor-prefix-stability" in capsys.readouterr().out

    def test_wrong_gaussian_binomial_fails_qpascal(self, monkeypatch, capsys):
        # [4, 2] sits at (4, 2) of both P_5(q) and H_(5,2)(q); with c_2 = 1
        # the factorization of P_5(q) cannot tell, and q - q^2 vanishes at
        # q = 1.  The q-divided powers, products of [i] entries, do tell.
        def planted(n, k):
            value = qbinom(n, k)
            return value + IntPoly((0, 1, -1)) if (n, k) == (4, 2) else value

        monkeypatch.setattr(pascal, "qbinom", planted)
        assert cli.main(["verify", "qpascal", "--max-n", "5"]) == 1
        out = capsys.readouterr().out
        assert [line.split()[1] for line in out.splitlines() if "FAIL" in line] == [
            "q-divided-powers"]
