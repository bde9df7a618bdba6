"""Pascal matrices, factorizations, and root-of-unity specializations."""

import collections
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppx import cli, pascal, qsequences, rings, sequences
from ppx.pascal import (
    SquareMatrix,
    check_carlitz,
    check_cyclotomic_specialization,
    check_pascal,
    check_pascal_m,
    check_q_pascal,
    check_root_of_unity_factorization,
    check_truncated_exp_product,
    factor_pascal,
    factor_pascal_m,
    factor_q_pascal,
    h_m_nk,
    h_nk,
    pascal_m,
    pascal_matrix,
    q_pascal,
)
from ppx.qsequences import c_q_seq, qbinom, qfact, qint
from ppx.rings import (
    ConsistencyError,
    IntPoly,
    P_ONE,
    P_ZERO,
    QuotientRing,
    UsageError,
    ZX,
    ZZ,
    cyclotomic,
)
from ppx.sequences import c_seq

import pascal_reference as reference
from pascal_reference import from_rows, q_h_nk


class TestClassical:
    def test_p4_rows(self):
        assert pascal_matrix(4).rows == (
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (1, 2, 1, 0),
            (1, 3, 3, 1),
        )

    def test_h_cubed_over_six_is_divided_power(self):
        h = h_nk(4, 1)
        cubed = h ** 3
        scaled = cubed.map_entries(lambda e: e // 6, ZZ)
        assert scaled == h_nk(4, 3)
        assert h_nk(4, 3).rows[3][0] == 1  # single surviving entry C(3,3)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_nilpotency(self, n):
        assert not h_nk(n, 1) ** n
        assert h_nk(n, 1) ** (n - 1)

    def test_exp_is_pascal(self):
        for n in (2, 4, 7):
            assert reference.exp_nilpotent(h_nk(n, 1)) == pascal_matrix(n)

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

    @pytest.mark.parametrize("build, params, line", [
        (pascal_matrix, (0,), "dimension must be >= 1"),
        (q_pascal, (0,), "dimension must be >= 1"),
        (pascal_m, (5, 0), "need n >= 1 and m >= 1"),
        (factor_pascal, (1,), "need n >= 2"),
        (factor_q_pascal, (1,), "need n >= 2"),
        (factor_pascal_m, (1, 2), "need n >= 2 and m >= 1"),
        (factor_pascal_m, (5, 0), "need n >= 2 and m >= 1"),
    ], ids=lambda x: getattr(x, "__name__", None))
    def test_builders_check_the_sizes_pascal_passes(self, build, params, line):
        # ppx pascal hands n and m to these unchecked: a size out of range is
        # a UsageError, which is also a ValueError.
        with pytest.raises(UsageError, match=f"^{line}$") as raised:
            build(*params)
        assert isinstance(raised.value, ValueError)

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
                    assert (not generator ** k) == (m * k >= n)

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

    def test_pascal_m_takes_one_product_per_power(self, product_calls):
        # H^k = H^(k-1) H_1 for k = 2..k_max + 1, the last one H^(k_max + 1) = 0;
        # 2 (k_max - 1) + 1 when H_(k-1) H_1 = k H_k was checked beside it.
        n, m = 13, 2
        k_max = (n - 1) // m
        pascal_m(n, m)
        assert len(product_calls) == k_max == 6

    @pytest.mark.parametrize("n, m", [(7, 2), (12, 3), (5, 1)])
    def test_nonzero_last_power_fails_nilpotency(self, monkeypatch, n, m):
        # Every product that should vanish gets a 1 at its bottom-left entry:
        # only H^(k_max + 1) does, so only the last step of the chain notices.
        original = SquareMatrix.__mul__

        def mul(a, b):
            product = original(a, b)
            return product or SquareMatrix(a.ring, a.n, {a.n - 1: [a.ring.one]})

        monkeypatch.setattr(SquareMatrix, "__mul__", mul)
        with pytest.raises(ConsistencyError, match=rf"H\^k != k! H_k for m={m}, n={n}, "
                                                   rf"k={(n - 1) // m + 1}$"):
            pascal_m(n, m)


class TestQPascal:
    def test_q_pascal_3(self):
        assert q_pascal(3).rows == (
            (P_ONE, P_ZERO, P_ZERO),
            (P_ONE, P_ONE, P_ZERO),
            (P_ONE, IntPoly((1, 1)), P_ONE),
        )

    def test_q_h_squared_entry(self):
        squared = q_h_nk(3, 1) ** 2
        assert squared.entry(2, 0) == qfact(2)  # [2]! [2 choose 2]

    def test_divided_power_identity(self):
        for n in (3, 5):
            h = q_h_nk(n, 1)
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
        assert ring.reduce(cq[5]) == ring.reduce(-2)

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

    def test_bound_is_checked_before_primality(self, monkeypatch):
        # Trial division of a prime near 10^18 would take minutes; n_max <= p
        # is decided first, at constant cost.
        def no_primality_test(p):
            raise AssertionError("is_prime called")

        monkeypatch.setattr(pascal, "is_prime", no_primality_test)
        with pytest.raises(UsageError, match=r"^need n_max > p$"):
            check_carlitz(10 ** 18 + 3, 20)


class TestRootOfUnity:
    def test_generator_nilpotent_mod_phi2(self):
        ring = QuotientRing(cyclotomic(2))
        h = q_h_nk(6, 1).map_entries(ring.reduce, ring)
        assert not h ** 2

    def test_gaussian_binomial_at_minus_one(self):
        # [4 choose 2] at zeta_2 equals C(2, 1) = 2; independent eval oracle
        assert qbinom(4, 2)(-1) == 2
        ring = QuotientRing(cyclotomic(2))
        assert ring.reduce(qbinom(4, 2)) == ring.reduce(2)

    def test_gaussian_specialization_grid(self):
        for m in (2, 3):
            ring = QuotientRing(cyclotomic(m))
            for i in range(11):
                for k in range(i // m + 1):
                    reduced = ring.reduce(qbinom(i, k * m))
                    assert reduced == ring.reduce(math.comb(i // m, k))

    @pytest.mark.parametrize("n,m", [(6, 2), (8, 2), (9, 3)])
    def test_full_factorization(self, n, m):
        assert check_root_of_unity_factorization(n, m).passed

    @pytest.mark.parametrize("n,m", [(6, 2), (8, 2), (9, 3)])
    def test_truncated_exp_product(self, n, m):
        assert check_truncated_exp_product(n, m).passed

    def test_full_factorization_at_every_size(self):
        # 2 <= m <= 12, m <= n <= 3m: the 165 pairs take the shortcut of
        # quotient-factorization, product == P^(m)_n once T P^(m)_n == P_n held
        assert all(check_root_of_unity_factorization(n, m).passed
                   for m in range(2, 13) for n in range(m, 3 * m + 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            check_root_of_unity_factorization(3, 4)


def assert_basis_is_reduced_qbinom(n, ring):
    # [i, 0], ..., [i, i] of the basis, for i < n, are the elements of ring that
    # qbinom's entries reduce to; rows end at the diagonal and the basis at row n - 1
    binom = pascal._gaussian_basis(n, ring)
    for i in range(n):
        row = [binom(i, k) for k in range(i + 1)]
        assert all(e.ring is ring for e in row)
        assert [e.rep for e in row] == [ring.reduce(qbinom(i, k)).rep for k in range(i + 1)]
        with pytest.raises(IndexError):
            binom(i, i + 1)
    with pytest.raises(IndexError):
        binom(n, 0)


class TestGaussianRowsInTheRing:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_rows_match_reduced_gaussian_binomials(self, m):
        assert_basis_is_reduced_qbinom(40, QuotientRing.cyclotomic(m))

    def test_rows_in_the_dual_numbers(self):
        # Z[q]/(q^2): each q^k times an entry is reduced by truncation alone
        assert_basis_is_reduced_qbinom(40, qsequences.mod_q2_ring())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.booleans(), st.integers(1, 60))
    def test_rows_match_reduced_gaussian_binomials_at_any_size(self, m, folded, n):
        # folded: the shared ring of period m, else the same modulus with no period
        ring = QuotientRing.cyclotomic(m) if folded else QuotientRing(cyclotomic(m))
        assert_basis_is_reduced_qbinom(n, ring)

    @pytest.mark.parametrize("n,m", [(6, 2), (8, 2), (9, 3), (12, 4), (18, 6), (30, 10)])
    def test_suite_inputs_match_the_z_q_route(self, n, m):
        # every matrix eq26 and eq28 build in the basis of the rows: H_(n,k)(zeta_m)
        # for j < m and k = m, 2m, ..., H(zeta_m) = H_(n,1) and P_n(zeta_m)
        ring = QuotientRing.cyclotomic(m)
        binom = pascal._gaussian_basis(n, ring)
        for k in range(n + 1):
            assert pascal._divided(ring, binom, n, k) == reference.reduce_matrix(
                q_h_nk(n, k), ring)
        assert pascal._divided(ring, binom, n, 1) == reference.reduce_matrix(
            reference.q_h(n), ring)
        assert pascal._pascal(ring, binom, n) == reference.reduce_matrix(q_pascal(n), ring)


class TestSquareMatrix:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            from_rows(ZZ, [[1, 2]])
        a = from_rows(ZZ, [[1, 0], [0, 1]])
        b = from_rows(ZZ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            a * b

    @pytest.mark.parametrize("ring", [ZZ, ZX, QuotientRing(cyclotomic(2))])
    def test_entry_above_the_diagonal_raises(self, ring):
        # every matrix is lower triangular
        for n in (2, 3, 4):
            for i, j in ((i, j) for i in range(n) for j in range(i + 1, n)):
                rows = [[ring.one if c <= r else ring.zero for c in range(n)] for r in range(n)]
                rows[i][j] = ring.one
                with pytest.raises(ValueError, match="above the diagonal"):
                    from_rows(ring, rows)

    @pytest.mark.parametrize("ring", [ZZ, ZX, QuotientRing(cyclotomic(2))])
    def test_built_from_its_bands(self, ring):
        one, zero = ring.one, ring.zero
        m = SquareMatrix(ring, 3, {0: [one] * 3, 1: (zero, zero), 2: [one]})
        assert m.bands == {0: (one,) * 3, 2: (one,)}
        assert m == from_rows(ring, [[one, zero, zero], [zero, one, zero], [one, zero, one]])
        # all-zero bands are dropped before the checks, wherever they sit
        assert SquareMatrix(ring, 2, {-1: [zero], 1: [zero], 2: [], 5: ()}).bands == {}
        assert not SquareMatrix(ring, 1, {})

    @pytest.mark.parametrize("n, bands", [
        (0, {}), (-1, {}), (0, {0: []}),
        (2, {-1: [1]}), (2, {-1: [1, 1, 1]}), (2, {2: [1]}), (3, {5: [1]}),
        (3, {0: [1, 1]}), (3, {0: [1, 1, 1, 1]}), (3, {1: [1]}), (3, {2: [0, 1]}),
    ])
    def test_band_constructor_rejects(self, n, bands):
        with pytest.raises(ValueError):
            SquareMatrix(ZZ, n, bands)

    def test_json_shape(self):
        m = q_pascal(2)
        assert m.to_json_obj() == [[["1"], []], [["1"], ["1"]]]

    def test_entry_outside_the_grid_raises(self):
        m = from_rows(ZZ, [[1, 0], [2, 3]])
        assert [m.entry(1, 0), m.entry(0, 1)] == [2, 0]
        for i, j in ((-1, 0), (0, -1), (2, 0), (0, 2)):
            with pytest.raises(IndexError):
                m.entry(i, j)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_divided_power_past_the_last_row_is_zero(self, n):
        for ring, binom in ((ZZ, math.comb), (ZX, qbinom)):
            for m in (1, 2, 3):
                for k in range(-(-n // m), n + 2):
                    divided = pascal._divided(ring, binom, n, k, m)
                    assert not divided
                    assert divided.rows == ((ring.zero,) * n,) * n


class TestBandConstructors:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_match_dense_definitions(self, n):
        # every band index k, those at or past the last row included; the two
        # builders in the binomial, m-fold and Gaussian bases, and the public
        # functions that call them (the zeta_m basis is in TestGaussianRowsInTheRing)
        assert h_nk(n, 1) == reference.h_matrix(n)
        assert pascal._divided(ZX, qbinom, n, 1) == reference.q_h(n)
        for k in range(n + 3):
            assert h_nk(n, k) == pascal._divided(ZZ, math.comb, n, k) == reference.h_nk(n, k)
            assert pascal._divided(ZX, qbinom, n, k) == q_h_nk(n, k)
            for m in (1, 2, 3):
                assert h_m_nk(n, m, k) == pascal._divided(ZZ, math.comb, n, k, m) == (
                    reference.h_m_nk(n, m, k))
        for ring, binom, public in ((ZZ, math.comb, pascal_matrix), (ZX, qbinom, q_pascal)):
            dense = from_rows(ring, [[binom(i, j) if j <= i else ring.zero for j in range(n)]
                                     for i in range(n)])
            assert public(n) == pascal._pascal(ring, binom, n) == dense
        for ring in (ZZ, ZX):
            assert SquareMatrix.identity(ring, n).rows == tuple(
                tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# The sparse product against a dense schoolbook reference


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
    """Lower triangular, every one: from all-zero through one band and a
    Pascal-factor shape (diagonal plus one band) to strictly lower (a
    nilpotent generator's shape), full lower and a random pattern."""
    shape = draw(st.sampled_from(("zero", "band", "factor", "strict", "lower", "pattern")))
    d = draw(st.integers(0, n - 1))
    pattern = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    keep = {
        "zero": lambda i, j: False,
        "band": lambda i, j: i - j == d,
        "factor": lambda i, j: i == j or i - j == d,
        "strict": lambda i, j: i > j,
        "lower": lambda i, j: i >= j,
        "pattern": lambda i, j: i >= j and pattern[i * n + j],
    }[shape]
    nonzero = ring_elements(ring).filter(lambda e: e != ring.zero)
    return from_rows(
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

    def __bool__(self):
        return bool(self.value)


class CountingRing:
    def __init__(self, ring):
        self.log = collections.Counter()
        self.zero = Counted(ring.zero, self.log)

    def wrap(self, matrix):
        return matrix.map_entries(lambda e: Counted(e, self.log), self)


@pytest.fixture
def product_calls(monkeypatch):
    """One entry per call of SquareMatrix.__mul__."""
    calls = []
    original = SquareMatrix.__mul__
    monkeypatch.setattr(SquareMatrix, "__mul__",
                        lambda a, b: calls.append(1) or original(a, b))
    return calls


class TestSparseProduct:
    @settings(max_examples=120, deadline=None)
    @given(matrix_pairs())
    def test_matches_dense_reference(self, pair):
        a, b = pair
        product = a * b
        assert product == reference.dense_product(a, b)
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
# rings.power, the one power routine of IntPoly and SquareMatrix


class TestPower:
    @pytest.mark.parametrize("k, products", [(2, 1), (8, 3), (40, 6)])
    def test_matrix_products(self, product_calls, k, products):
        # No product by the identity: 2, 4 and 7 when the loop started from it.
        h_nk(16, 1) ** k
        assert len(product_calls) == products

    @pytest.mark.parametrize("k, products", [(2, 1), (8, 3), (40, 6)])
    def test_polynomial_products(self, monkeypatch, k, products):
        calls, original = [], IntPoly.__mul__
        monkeypatch.setattr(IntPoly, "__mul__", lambda a, b: calls.append(1) or original(a, b))
        IntPoly((1, 1)) ** k
        assert len(calls) == products

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(st.lists(st.integers(-3, 3), max_size=5).map(IntPoly),
                     st.integers(1, 6).flatmap(lambda n: square_matrices(ZZ, n))),
           st.integers(1, 12))
    def test_equals_left_to_right_products(self, x, k):
        product = x
        for _ in range(k - 1):
            product = product * x
        assert x ** k == product

    @pytest.mark.parametrize("x, one", [(IntPoly((2, 1)), P_ONE), (P_ZERO, P_ONE),
                                        (h_nk(4, 1), SquareMatrix.identity(ZZ, 4)),
                                        (q_pascal(3), SquareMatrix.identity(ZX, 3))])
    def test_zeroth_and_negative_powers(self, x, one):
        assert x ** 0 == one
        with pytest.raises(ValueError, match="negative"):
            x ** -1


def dense_grid(fn, *grids):
    """fn applied entry by entry to equally shaped dense grids."""
    return tuple(tuple(map(fn, *rows)) for rows in zip(*grids))


class TestStoredForm:
    """The diagonals against the dense grid they stand for, over every shape
    of square_matrices."""

    @settings(max_examples=150, deadline=None)
    @given(matrix_pairs(), st.data())
    def test_matches_dense_grid(self, pair, data):
        a, b = pair
        ring, n = a.ring, a.n
        c = data.draw(st.one_of(st.just(ring.zero), ring_elements(ring)))
        negated = a.map_entries(lambda e: ring.zero - e, ring)
        for m in (a, b, a + b, a.scale(c), negated, a + negated, a * b):
            assert from_rows(ring, m.rows) == m
            assert [[m.entry(i, j) for j in range(n)] for i in range(n)] == list(map(list, m.rows))
            assert (not m) == all(e == ring.zero for row in m.rows for e in row)
        assert (a + b).rows == dense_grid(lambda x, y: x + y, a.rows, b.rows)
        assert a.scale(c).rows == dense_grid(lambda e: e * c, a.rows)
        assert negated.rows == dense_grid(lambda e: ring.zero - e, a.rows)
        assert not a + negated


# ---------------------------------------------------------------------------
# The unit-band step against the dense product with I + c G


@st.composite
def band_steps(draw):
    """A left factor (any shape of square_matrices), a generator on the band i - j = shift (zeros
    allowed, so sometimes the zero matrix) and a scalar c (zero sometimes)."""
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    n = draw(st.integers(1, 12))
    shift = draw(st.integers(0, n - 1))
    band = {i: draw(ring_elements(ring)) for i in range(shift, n)}
    generator = from_rows(
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
        expected = reference.dense_product(matrix, identity + generator.scale(c))
        assert pascal._unit_band_step(matrix, generator, c) == expected

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
        product = pascal._unit_band_step(ring.wrap(matrix), ring.wrap(generator),
                                         Counted(c, ring.log))
        if c == zero:
            assert ring.log == collections.Counter()
        else:
            assert ring.log == collections.Counter({"mul": len(band) + pairs, "add": pairs})
        assert product.map_entries(lambda e: e.value, matrix.ring) == reference.dense_product(
            matrix, SquareMatrix.identity(matrix.ring, n) + generator.scale(c))

    @settings(max_examples=60, deadline=None)
    @given(band_steps(), st.data())
    def test_rejects_entry_off_the_band(self, step, data):
        # a nonzero entry on the generator's band and one off it, a second band,
        # whatever c is
        matrix, generator, shift, c = step
        n, ring = matrix.n, matrix.ring
        cells = [(i, j) for i in range(n) for j in range(i + 1) if i - j != shift]
        if not cells:
            return
        nonzero = ring_elements(ring).filter(lambda e: e != ring.zero)
        i, j = data.draw(st.sampled_from(cells))
        t = data.draw(st.integers(shift, n - 1))
        rows = [list(row) for row in generator.rows]
        rows[i][j], rows[t][t - shift] = data.draw(nonzero), data.draw(nonzero)
        with pytest.raises(ConsistencyError) as raised:
            pascal._unit_band_step(matrix, from_rows(ring, rows), c)
        bands = sorted({shift, i - j})
        assert str(raised.value) == f"generator has bands i - j in {bands}, not one"

    def test_two_band_generator_raises(self):
        generator = h_nk(5, 1) + h_nk(5, 3)
        with pytest.raises(ConsistencyError, match=r"bands i - j in \[1, 3\], not one"):
            pascal._unit_band_step(pascal_matrix(5), generator, 0)

    def test_scale_skips_zero_entries(self):
        ring = CountingRing(ZX)
        scaled = ring.wrap(q_h_nk(6, 2)).scale(Counted(qint(3), ring.log))
        assert ring.log == collections.Counter({"mul": 4})
        assert scaled.map_entries(lambda e: e.value, ZX) == q_h_nk(6, 2).map_entries(
            lambda e: e * qint(3), ZX)


# ---------------------------------------------------------------------------
# The greedy recovery against the factored product


class TestGreedyRoundTrip:
    """Each generator brings its own band: the greedy reads c_k at the (d, 0)
    entry for the band d of generator(k), and the factored product steps at it."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(PRODUCT_RINGS), st.integers(1, 12), st.integers(1, 4), st.data())
    def test_recovers_the_factors_it_multiplies(self, ring, n, m, data):
        binom = {ZZ: math.comb, ZX: qbinom}.get(ring) or pascal._gaussian_basis(n, ring)
        k_max = (n - 1) // m
        gens = [pascal._divided(ring, binom, n, k, m) for k in range(1, k_max + 1)]
        partial, recovered = pascal._factor_greedily(ring, n, k_max, lambda k: gens[k - 1])
        assert [partial.entry(m * k, 0) for k in range(1, k_max + 1)] == [ring.one] * k_max
        coefficient = st.one_of(st.just(ring.zero), ring_elements(ring))
        cs = data.draw(st.one_of(st.just(recovered),
                                 st.lists(coefficient, min_size=k_max, max_size=k_max)))
        # The band d = mk of H_(n,k) holds 1 at (d, 0) and no later factor
        # reaches it, so a product fixes its coefficients: the greedy returns
        # the same c_k and the same product exactly when they made the target.
        target = pascal._factored(ring, n, zip(gens, cs))
        assert (target == partial) == (cs == recovered)
        assert pascal._factored(ring, n, zip(gens, recovered)) == partial

    def test_zero_generator_raises_naming_k(self):
        generators = {1: h_nk(6, 1), 2: SquareMatrix(ZZ, 6, {}), 3: h_nk(6, 3)}
        with pytest.raises(ConsistencyError,
                           match=r"^generator 2 is zero: no band to read c_2 from$"):
            pascal._factor_greedily(ZZ, 6, 3, generators.get)


# ---------------------------------------------------------------------------
# Reading every n from the leading blocks of the n_max matrices


def leading_block(matrix, n):
    return from_rows(matrix.ring, [row[:n] for row in matrix.rows[:n]])


@st.composite
def lower_triangular_pairs(draw):
    ring = draw(st.sampled_from((ZZ, ZX)))
    n = draw(st.integers(1, 10))
    elements = ring_elements(ring)
    return tuple(
        from_rows(ring, [[draw(elements) if i >= j else ring.zero for j in range(n)]
                         for i in range(n)])
        for _ in range(2)
    )


@st.composite
def nearly_equal_pairs(draw):
    """A matrix and a copy with up to three entries on or below the diagonal
    replaced."""
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    n = draw(st.integers(1, 12))
    a = draw(square_matrices(ring, n))
    rows = [list(row) for row in a.rows]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, i))
        rows[i][j] = draw(ring_elements(ring))
    return a, from_rows(ring, rows)


def plant_wrong_c3(monkeypatch):
    original = sequences._c
    monkeypatch.setattr(sequences, "_c", lambda n: original(n) + (n == 3))


def plant_wrong_c3_q(monkeypatch):
    original = qsequences._c_q
    monkeypatch.setattr(qsequences, "_c_q",
                        lambda n: original(n) + IntPoly.monomial(1, 1) * (n == 3))


def fault_at(i, j, change):
    """Every product changes its entry (i, j), whatever its size.  The fault
    depends on the position alone, so it commutes with taking leading blocks
    and the per-n suites and the block reading see the same FAIL rows."""
    def plant(monkeypatch):
        original = SquareMatrix.__mul__

        def mul(a, b):
            product = original(a, b)
            if product.n <= i:
                return product
            rows = [list(row) for row in product.rows]
            rows[i][j] = change(rows[i][j], a.ring)
            return from_rows(a.ring, rows)

        monkeypatch.setattr(SquareMatrix, "__mul__", mul)
    return plant


def outcome(suite, n_max):
    try:
        return suite(n_max).render_text()
    except ConsistencyError as exc:
        return f"ConsistencyError: {exc}"


class TestBlockReading:
    @settings(max_examples=80, deadline=None)
    @given(lower_triangular_pairs())
    def test_blocks_of_lower_triangular_product_and_sum(self, pair):
        a, b = pair
        for n in range(1, a.n + 1):
            assert leading_block(a * b, n) == leading_block(a, n) * leading_block(b, n)
            assert leading_block(a + b, n) == leading_block(a, n) + leading_block(b, n)

    @settings(max_examples=150, deadline=None)
    @given(nearly_equal_pairs())
    def test_blockwise_matches_sliced_blocks(self, pair):
        a, b = pair
        assert pascal._blockwise(a, b) == [True] + [
            leading_block(a, n) == leading_block(b, n) for n in range(1, a.n + 1)]

    # (4, 0) doubled: of the divided powers only k = 4 fails, first at n = 5.
    # (3, 0) + 6: H^2 gets an entry off its band and H^4 is nonzero in the
    # 4 x 4 block, so divided-powers, nilpotency and matrix-exponential FAIL
    # from n = 4 in both suites (the per-n exp(H) divides H^4 by 4! inexactly
    # and reports that as a mismatch), and the qpascal analogs likewise.
    # (3, 2) + 1: off the band of every product H^k, so the one-pass sum of the
    # (N!/k!) H^k must read the powers off their bands to FAIL matrix-exponential.
    @pytest.mark.parametrize("plant", [
        None, plant_wrong_c3, plant_wrong_c3_q,
        fault_at(4, 0, lambda e, ring: e + e), fault_at(3, 0, lambda e, ring: e + 6 * ring.one),
        fault_at(3, 2, lambda e, ring: e + ring.one),
    ], ids=["shipped", "wrong-c3", "wrong-c3-q", "doubled-4-0", "bumped-3-0", "bumped-3-2"])
    @pytest.mark.parametrize("suite, per_n", [(check_pascal, reference.check_pascal),
                                              (check_q_pascal, reference.check_q_pascal)],
                             ids=["pascal", "qpascal"])
    def test_report_matches_per_n_reference(self, suite, per_n, plant, fresh_caches,
                                            monkeypatch):
        if plant:
            plant(monkeypatch)
        for n_max in range(2, 11):
            assert outcome(suite, n_max) == outcome(per_n, n_max)

    def test_check_pascal_products(self, product_calls):
        # the powers H^2..H^12 at n_max alone, which exp(H) also sums; 22 when
        # exp(H) had a chain of its own, 143 when built per n
        check_pascal(12)
        assert len(product_calls) <= 11

    def test_check_q_pascal_products(self, product_calls):
        # the powers H(q)^2..H(q)^12 at n_max alone; 77 when built per n
        check_q_pascal(12)
        assert len(product_calls) <= 12


@pytest.fixture
def reduce_calls(monkeypatch):
    """One entry per call of QuotientRing.reduce."""
    calls = []
    original = QuotientRing.reduce
    monkeypatch.setattr(QuotientRing, "reduce",
                        lambda ring, f: calls.append(1) or original(ring, f))
    return calls


# 868 and 856 calls with qbinom's q-Pascal step run in the ring, zeros never
# reduced and eq26's quotient rows decided by multiplying back (820 for eq26
# when they solved T X = P_n); 9,208 and 9,480 when every entry of the Z[q]
# matrices, zeros included, was reduced.
@pytest.mark.parametrize("command, bound", [("verify eq26 --m 8", 990),
                                            ("verify eq28 --m 10", 1145)])
def test_root_of_unity_suites_reduce_calls(reduce_calls, capsys, command, bound):
    assert cli.main(command.split()) == 0
    assert len(reduce_calls) <= bound


def test_eq28_sums_its_bands_in_one_pass(monkeypatch):
    # 306 ring additions, all in the unit-band steps of the product; 8,406
    # when the m bands were summed by m - 1 dense matrix additions.  The basis,
    # whose q-Pascal steps add in the ring too, is built before counting.
    ring = QuotientRing.cyclotomic(10)
    binom = pascal._gaussian_basis(30, ring)
    calls = []
    original = rings.QuotientElem.__add__
    monkeypatch.setattr(rings.QuotientElem, "__add__",
                        lambda a, b: calls.append(1) or original(a, b))
    assert pascal._truncated_exp_product(binom, 30, 10, ring)[0].passed
    assert len(calls) <= 400


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
        return from_rows(a.ring, rows)

    def mul(self, other):
        return drop_last_term(original_mul(self, other), self, other)

    def band_step(matrix, generator, c):
        factor = SquareMatrix.identity(matrix.ring, matrix.n) + generator.scale(c)
        return drop_last_term(original_step(matrix, generator, c), matrix, factor)

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

    def band_step(matrix, generator, c):
        product = original(matrix, generator, c)
        if c == matrix.ring.zero or not generator:
            return product
        (shift,), last, zero = generator.bands, matrix.n - 1, matrix.ring.zero
        band = [i for i in range(shift, matrix.n)
                if matrix.entry(last, i) != zero and generator.entry(i, i - shift) != zero]
        if not band:
            return product
        i = band[-1]
        rows = [list(row) for row in product.rows]
        term = matrix.entry(last, i) * (c * generator.entry(i, i - shift))
        rows[last][i - shift] = rows[last][i - shift] - term
        return from_rows(matrix.ring, rows)

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

    @pytest.mark.parametrize("command, failing", [
        ("verify eq26 --m 6", "sum-equals-product"),
        ("verify eq28 --m 6", "sum-equals-product"),
        ("verify thm43", "residue"),
    ])
    def test_fold_with_wrong_stride_fails(self, monkeypatch, capsys, command, failing):
        # Folding mod q^(m+1) - 1 is not a reduction mod Phi_m.  At the default
        # (n, m) pairs of eq26 and eq28 no reduced polynomial reaches degree m,
        # so nothing is folded there; at m = 6, c_5(q) has degree 9.
        original = rings._fold
        monkeypatch.setattr(rings, "_fold", lambda coeffs, m: original(coeffs, m + 1))
        assert cli.main(command.split()) == 1
        out = capsys.readouterr().out
        assert f"FAIL {failing}" in out
        assert "status: fail" in out

    def test_shift_off_by_one_fails_eq26(self, monkeypatch, capsys):
        # q^(k+1) in place of q^k in every q-Pascal step of the zeta_m basis
        original = rings.QuotientElem.shifted
        monkeypatch.setattr(rings.QuotientElem, "shifted", lambda e, k: original(e, k + 1))
        assert cli.main(["verify", "eq26"]) == 1
        out = capsys.readouterr().out
        fails = [line.split(" | ")[0].strip() for line in out.splitlines() if "FAIL" in line]
        assert fails[0] == "FAIL generator-m-nilpotent [n=6 m=2]"
        assert "status: fail" in out

    def test_wrong_product_keeps_the_report(self, monkeypatch, capsys):
        # H^4 / 4! would be inexact here; H^4 is compared with 4! H_4 instead
        fault_at(3, 0, lambda e, ring: e + 6 * ring.one)(monkeypatch)
        assert cli.main(["verify", "pascal", "--max-n", "6"]) == 1
        out = capsys.readouterr().out
        fails = [line.split(" | ")[0].strip() for line in out.splitlines() if "FAIL" in line]
        assert fails[0] == "FAIL divided-powers [n=4]"
        assert out.splitlines()[-1] == "status: fail"

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
            return from_rows(ZZ, rows)

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


# ---------------------------------------------------------------------------
# End to end: the band kernels against the dense references


@pytest.fixture
def dense_kernels(monkeypatch):
    """SquareMatrix.__mul__ and the unit-band step replaced by the schoolbook
    product and the schoolbook product with I + c G."""
    monkeypatch.setattr(SquareMatrix, "__mul__", reference.dense_product)
    monkeypatch.setattr(pascal, "_unit_band_step", reference.dense_band_step)


@pytest.mark.parametrize("command", [
    "verify pascal --max-n 10", "verify qpascal --max-n 8", "verify pascal-m --max-n 10",
    "verify eq26 --m 5", "verify eq28 --m 5", "pascal 10 --action factor",
    "pascal 10 --variant m --m 2 --action factor", "pascal 10 --variant q --action factor",
    "pascal 6", "pascal 6 --format json",
])
def test_cli_matches_the_dense_reference_run(command, request, capsys):
    normal = cli.main(command.split()), capsys.readouterr().out
    request.getfixturevalue("dense_kernels")
    assert normal[0] == 0
    assert (cli.main(command.split()), capsys.readouterr().out) == normal
