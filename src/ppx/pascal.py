"""Pascal matrices, their nilpotent generators, and product factorizations.

The n x n Pascal matrix P_n = (C(i,j)) is exp(H_n) for the strictly lower
triangular H_n with entries i at (i, i-1): the divided powers H_n^k / k! have
entries C(i,k) at (i, i-k) and vanish for k >= n.  The same expansion
coefficients c_k that govern exp(x) factor the matrix,

    P_n = (I + c_1 H_{n,1})(I + c_2 H_{n,2}) ... (I + c_{n-1} H_{n,n-1}),

and the factors can be recovered greedily from the matrix alone: after k-1
factors the (k,0) entry of the partial product forces c_k = 1 - g_{k-1}(k,0).
That recovery is deliberately independent of the sequence recursion, so the
agreement of the two is a genuine cross-check.  Each factor is the identity
plus one band, so it is applied by a unit-band step, not a matrix product.
All these matrices are lower triangular, so the leading n x n block of the
N x N factorization is the n x n one: the suites factor once, at n_max.

An m-fold variant uses entries C(floor(i/m), k) at (i, i-mk) ("doubled"
Pascal triangle for m = 2, OEIS A178112), and a q-variant replaces binomials
with Gaussian binomials; both factor the same way.  Specializing q at a
primitive m-th root of unity zeta_m -- done symbolically in Z[q]/Phi_m(q),
never with complex floats -- collapses the q-Pascal matrix onto the m-fold
one and yields the congruences c_n = 0 resp. c_{pm} = c_m mod p.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import qsequences, sequences
from .qsequences import qbinom, qfact, qint
from .report import Report
from .rings import (
    ConsistencyError,
    P_ZERO,
    QuotientRing,
    ZX,
    ZZ,
    cyclotomic,
    serialize,
)
from .sequences import is_prime


class SquareMatrix:
    """Immutable square matrix over one of the exact coefficient rings."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(row) for row in rows)
        n = len(self.rows)
        if n == 0 or any(len(row) != n for row in self.rows):
            raise ValueError("a nonempty square entry grid is required")

    @classmethod
    def identity(cls, ring, n: int) -> "SquareMatrix":
        one, zero = ring.one, ring.zero
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    @property
    def is_zero(self) -> bool:
        zero = self.ring.zero
        return all(e == zero for row in self.rows for e in row)

    def _require_compatible(self, other: "SquareMatrix"):
        if not isinstance(other, SquareMatrix):
            raise TypeError("expected a SquareMatrix")
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("mixing matrix rings or dimensions")

    def __add__(self, other):
        self._require_compatible(other)
        return SquareMatrix(
            self.ring,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other):
        self._require_compatible(other)
        return SquareMatrix(
            self.ring,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __mul__(self, other):
        """Sparse row-by-row product (Gustavson): row i is the sum of
        a * (row l of other) over the nonzero a = self[i][l].  Every entry
        starts at the ring's zero and adds a * b for each nonzero pair in
        ascending l: the ring operations of the dense definition, in its
        order, without visiting the pairs that have a zero factor."""
        self._require_compatible(other)
        zero = self.ring.zero
        other_terms = [[(j, b) for j, b in enumerate(row) if b != zero] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [zero] * self.n
            for a, terms in zip(row, other_terms):
                if terms and a != zero:
                    for j, b in terms:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return SquareMatrix(self.ring, out)

    def scale(self, c) -> "SquareMatrix":
        """Multiply every nonzero entry by the ring element c."""
        zero = self.ring.zero
        return self.map_entries(lambda e: e if e == zero else e * c, self.ring)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative matrix power")
        result = SquareMatrix.identity(self.ring, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def map_entries(self, fn, ring) -> "SquareMatrix":
        return SquareMatrix(ring, [[fn(e) for e in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        return f"SquareMatrix({self.ring!r}, {self.n}x{self.n})"

    def to_json_obj(self) -> list:
        """Row-major nested array of exact entry serializations."""
        return [[serialize(e) for e in row] for row in self.rows]

    def render_text(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def _div_scalar_exact(matrix: SquareMatrix, d: int) -> SquareMatrix:
    # Divides the nonzero entries only, as scale multiplies them.
    zero = matrix.ring.zero

    def div(e):
        return e if e == zero else matrix.ring.div_int(e, d)

    try:
        return matrix.map_entries(div, matrix.ring)
    except ArithmeticError as exc:
        raise ConsistencyError(f"matrix entries not divisible by {d}") from exc


# ---------------------------------------------------------------------------
# Classical Pascal matrices


def pascal_matrix(n: int) -> SquareMatrix:
    """P_n with entries C(i, j), lower triangular."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return SquareMatrix(ZZ, [[math.comb(i, j) for j in range(n)] for i in range(n)])


def h_matrix(n: int) -> SquareMatrix:
    """The nilpotent generator with entries i at (i, i-1)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return SquareMatrix(ZZ, [[i if i - j == 1 else 0 for j in range(n)] for i in range(n)])


def h_nk(n: int, k: int) -> SquareMatrix:
    """The divided power H_n^k / k!, with entries C(i, k) at (i, i-k)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return SquareMatrix(
        ZZ, [[math.comb(i, k) if i - j == k else 0 for j in range(n)] for i in range(n)]
    )


def exp_nilpotent(matrix: SquareMatrix) -> SquareMatrix:
    """exp(M) = sum M^k / k! for a nilpotent integer matrix, all divisions
    exact."""
    total = SquareMatrix.identity(matrix.ring, matrix.n)
    power = matrix
    k = 1
    while not power.is_zero:
        if k > matrix.n:
            raise ConsistencyError("matrix is not nilpotent")
        total = total + _div_scalar_exact(power, math.factorial(k))
        power = power * matrix
        k += 1
    return total


def _unit_band_step(matrix: SquareMatrix, generator: SquareMatrix, shift: int, c) -> SquareMatrix:
    """matrix * (I + c G) for a generator G that is zero off the band i - j = shift
    (ConsistencyError otherwise).  Column j of I + c G is e_j + c g_i e_i, g_i the band
    entry at (i, j = i - shift), so a row of the product is the row plus row[i] (c g_i)
    at j: the dense product's other terms all have a zero factor, and here every ring
    product has two nonzero ones.  The sums read the row as it was, never an updated entry."""
    matrix._require_compatible(generator)
    zero = matrix.ring.zero
    band = [(i, j, g) for i, row in enumerate(generator.rows) for j, g in enumerate(row)
            if g != zero]
    if any(i - j != shift for i, j, _ in band):
        raise ConsistencyError(f"generator is nonzero off the band i - j = {shift}")
    if c == zero:
        return matrix
    band = [(i, j, c * g) for i, j, g in band]
    rows = [list(row) for row in matrix.rows]
    for row, new in zip(matrix.rows, rows):
        for i, j, cg in band:
            if row[i] != zero:
                new[j] = new[j] + row[i] * cg
    return SquareMatrix(matrix.ring, rows)


def _factor_greedily(ring, n: int, k_max: int, generator, step: int) -> tuple:
    """Greedy recovery: c_k = 1 - (step * k, 0) entry of the partial product,
    which then gets the factor I + c_k generator(k); k = 1..k_max."""
    partial, cs = SquareMatrix.identity(ring, n), []
    for k in range(1, k_max + 1):
        cs.append(ring.one - partial.entry(step * k, 0))
        partial = _unit_band_step(partial, generator(k), step * k, cs[-1])
    return partial, cs


def factor_pascal(n: int) -> list:
    """Recover c_1..c_{n-1} from P_n = prod (I + c_k H_{n,k}) greedily.

    The recovered coefficients are asserted to multiply back to P_n and to
    equal the expansion sequence c_k, making the two derivations of the
    sequence mutually checking.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    partial, cs = _factor_greedily(ZZ, n, n - 1, lambda k: h_nk(n, k), 1)
    if partial != pascal_matrix(n):
        raise ConsistencyError(f"recovered factors do not multiply to P_{n}")
    if cs != sequences.c_seq(n - 1):
        raise ConsistencyError("matrix-recovered c_k != sequence c_k")
    return cs


# ---------------------------------------------------------------------------
# m-fold Pascal matrices


def h_m_nk(n: int, m: int, k: int) -> SquareMatrix:
    """Entries C(floor(i/m), k) at (i, i - mk)."""
    if n < 1 or m < 1 or k < 0:
        raise ValueError("need n, m >= 1 and k >= 0")
    return SquareMatrix(
        ZZ,
        [[math.comb(i // m, k) if i - j == m * k else 0 for j in range(n)] for i in range(n)],
    )


def pascal_m(n: int, m: int) -> SquareMatrix:
    """The m-fold Pascal matrix, with its three constructions asserted equal.

    Sum of the generalized divided powers, exponential of the generator, and
    the factored product with the expansion coefficients c_k must agree; the
    divided powers must satisfy H_{k-1} H_1 = k H_k.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    k_max = (n - 1) // m
    powers = [h_m_nk(n, m, k) for k in range(k_max + 1)]
    generator = powers[1] if k_max >= 1 else h_m_nk(n, m, 1)
    generator_power = generator
    for k in range(2, k_max + 1):
        if powers[k - 1] * generator != powers[k].scale(k):
            raise ConsistencyError(f"H^({m})_({n},{k - 1}) H_1 != {k} H_({n},{k})")
        generator_power = generator_power * generator
        if _div_scalar_exact(generator_power, math.factorial(k)) != powers[k]:
            raise ConsistencyError(f"H^k/k! mismatch for m={m}, n={n}, k={k}")
    total = functools.reduce(SquareMatrix.__add__, powers)
    if total != exp_nilpotent(generator):
        raise ConsistencyError(f"sum of divided powers != exp(H) for m={m}, n={n}")
    if k_max >= 1:
        cs = sequences.c_seq(k_max)
        product = SquareMatrix.identity(ZZ, n)
        for k in range(1, k_max + 1):
            product = _unit_band_step(product, powers[k], m * k, cs[k - 1])
        if product != total:
            raise ConsistencyError(f"factored product != P^({m})_{n}")
    return total


def factor_pascal_m(n: int, m: int) -> list:
    """Recover the c_k from the m-fold Pascal matrix; row mk plays the role
    row k plays in the classical recovery."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    k_max = (n - 1) // m
    partial, cs = _factor_greedily(ZZ, n, k_max, lambda k: h_m_nk(n, m, k), m)
    if partial != pascal_m(n, m):
        raise ConsistencyError(f"recovered factors do not multiply to the {m}-fold P_{n}")
    if k_max >= 1 and cs != sequences.c_seq(k_max):
        raise ConsistencyError("matrix-recovered c_k != sequence c_k")
    return cs


# ---------------------------------------------------------------------------
# q-Pascal matrices


def q_pascal(n: int) -> SquareMatrix:
    """P_n(q) with Gaussian binomial entries."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return SquareMatrix(
        ZX, [[qbinom(i, j) if j <= i else P_ZERO for j in range(n)] for i in range(n)]
    )


def q_h(n: int) -> SquareMatrix:
    """The q-generator with entries [i] at (i, i-1)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return SquareMatrix(
        ZX, [[qint(i) if i - j == 1 else P_ZERO for j in range(n)] for i in range(n)]
    )


def q_h_nk(n: int, k: int) -> SquareMatrix:
    """The q-divided power H_n^k(q)/[k]!, with Gaussian binomial entries at
    (i, i-k)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return SquareMatrix(
        ZX,
        [[qbinom(i, k) if i - j == k and k <= i else P_ZERO for j in range(n)]
         for i in range(n)],
    )


def factor_q_pascal(n: int) -> list:
    """Recover c_1(q)..c_{n-1}(q) from P_n(q) = prod (I + c_k(q) H_{n,k}(q))."""
    if n < 2:
        raise ValueError("need n >= 2")
    partial, cs = _factor_greedily(ZX, n, n - 1, lambda k: q_h_nk(n, k), 1)
    if partial != q_pascal(n):
        raise ConsistencyError(f"recovered q-factors do not multiply to P_{n}(q)")
    if cs != qsequences.c_q_seq(n - 1):
        raise ConsistencyError("matrix-recovered c_k(q) != sequence c_k(q)")
    return cs


# ---------------------------------------------------------------------------
# Verification suites


def check_pascal(n_max: int) -> Report:
    """Divided powers, nilpotency, exp identity, and factor recovery for P_n."""
    if n_max < 2:
        raise ValueError("need n >= 2")
    rep = Report("pascal")
    partial, cs = _factor_greedily(ZZ, n_max, n_max - 1, lambda k: h_nk(n_max, k), 1)
    for n in range(2, n_max + 1):
        h = h_matrix(n)
        powers = list(itertools.accumulate([h] * n, SquareMatrix.__mul__,
                                           initial=SquareMatrix.identity(ZZ, n)))
        ok = all(_div_scalar_exact(powers[k], math.factorial(k)) == h_nk(n, k) for k in range(n))
        rep.add("divided-powers", {"n": n}, ok, "H^k/k! == H_(n,k) for k < n",
                "as expected" if ok else "mismatch")
        ok = powers[n].is_zero
        rep.add("nilpotency", {"n": n}, ok, "H^n == 0", "zero" if ok else "nonzero")
        total = functools.reduce(SquareMatrix.__add__, [h_nk(n, k) for k in range(n)])
        p = pascal_matrix(n)
        rep.add("sum-of-divided-powers", {"n": n}, total == p, "P_n",
                "as expected" if total == p else "mismatch")
        expd = exp_nilpotent(h)
        rep.add("matrix-exponential", {"n": n}, expd == p, "P_n",
                "as expected" if expd == p else "mismatch")
        if tuple(row[:n] for row in partial.rows[:n]) != p.rows:
            raise ConsistencyError(f"recovered factors do not multiply to P_{n}")
        expected = sequences.c_seq(n - 1)
        rep.add("factor-recovery", {"n": n}, cs[: n - 1] == expected,
                ", ".join(map(str, expected)), ", ".join(map(str, cs[: n - 1])))
    prefix_ok = n_max == 2 or _factor_greedily(
        ZZ, n_max - 1, n_max - 2, lambda k: h_nk(n_max - 1, k), 1)[1] == cs[:-1]
    rep.add("factor-prefix-stability", {"n_max": n_max}, prefix_ok,
            "factors independent of matrix size", "as expected" if prefix_ok else "mismatch")
    return rep


def check_pascal_m(n_max: int, m_values=(2, 3)) -> Report:
    """The m-fold Pascal identities; m = 1 must reduce to the classical case."""
    if n_max < 2:
        raise ValueError("need n >= 2")
    rep = Report("pascal-m")
    try:
        reduced = pascal_m(n_max, 1) == pascal_matrix(n_max)
        note = "as expected" if reduced else "mismatch"
    except ConsistencyError as exc:
        reduced, note = False, str(exc)
    rep.add("m1-reduction", {"n": n_max}, reduced, "P_n", note)
    for m in m_values:
        for n in range(2, n_max + 1):
            try:
                pascal_m(n, m)  # carries its own identity assertions
                ok, note = True, "all identities hold"
            except ConsistencyError as exc:
                ok, note = False, str(exc)
            rep.add("m-fold-identities", {"n": n, "m": m}, ok,
                    "sum == exp == product", note)
    return rep


def check_q_pascal(n_max: int) -> Report:
    """q-divided powers, the q-exponential identity, factor recovery, q = 1."""
    if n_max < 2:
        raise ValueError("need n >= 2")
    rep = Report("qpascal")
    partial, cs = _factor_greedily(ZX, n_max, n_max - 1, lambda k: q_h_nk(n_max, k), 1)
    for n in range(2, n_max + 1):
        powers = list(itertools.accumulate([q_h(n)] * n, SquareMatrix.__mul__,
                                           initial=SquareMatrix.identity(ZX, n)))
        ok = all(powers[k] == q_h_nk(n, k).scale(qfact(k)) for k in range(n))
        rep.add("q-divided-powers", {"n": n}, ok, "H^k(q) == [k]! H_(n,k)(q) for k < n",
                "as expected" if ok else "mismatch")
        ok = powers[n].is_zero
        rep.add("q-nilpotency", {"n": n}, ok, "H(q)^n == 0", "zero" if ok else "nonzero")
        total = functools.reduce(SquareMatrix.__add__, [q_h_nk(n, k) for k in range(n)])
        p = q_pascal(n)
        rep.add("q-exp-identity", {"n": n}, total == p, "P_n(q)",
                "as expected" if total == p else "mismatch")
        at_one = p.map_entries(lambda e: e(1), ZZ)
        classical = pascal_matrix(n)
        rep.add("q1-specialization", {"n": n}, at_one == classical, "P_n",
                "as expected" if at_one == classical else "mismatch")
        if tuple(row[:n] for row in partial.rows[:n]) != p.rows:
            raise ConsistencyError(f"recovered q-factors do not multiply to P_{n}(q)")
        expected = qsequences.c_q_seq(n - 1)
        rep.add("q-factor-recovery", {"n": n}, cs[: n - 1] == expected,
                ", ".join(map(str, expected)), ", ".join(map(str, cs[: n - 1])))
    return rep


def check_cyclotomic_specialization(n_max: int, m: int) -> Report:
    """c_n(q) mod Phi_m(q) is c_{n/m} when m | n and 0 otherwise."""
    if m < 2:
        raise ValueError("need m >= 2")
    if n_max < m:
        raise ValueError("need n_max >= m")
    rep = Report("thm43")
    ring = QuotientRing(cyclotomic(m))
    for n in range(m, n_max + 1):
        residue = ring.reduce(qsequences._c_q(n))
        if n % m == 0:
            expected = ring.from_int(sequences._c(n // m))
            label = f"c_{n // m} = {sequences._c(n // m)}"
        else:
            expected = ring.zero
            label = "0"
        rep.add("residue", {"n": n, "m": m}, residue == expected, label, str(residue))
    return rep


def check_carlitz(p: int, n_max: int) -> Report:
    """c_n = 0 mod p for n > p coprime to p; c_{pm} = c_m mod p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if n_max <= p:
        raise ValueError("need n_max > p")
    rep = Report("cor44")
    for n in range(p + 1, n_max + 1):
        c_mod = sequences._c(n) % p
        if n % p == 0:
            expected = sequences._c(n // p) % p
            rep.add("multiple-congruence", {"n": n, "p": p}, c_mod == expected,
                    f"c_{n} == c_{n // p} (mod {p})",
                    f"{c_mod} vs {expected}")
        else:
            rep.add("coprime-congruence", {"n": n, "p": p}, c_mod == 0,
                    f"c_{n} == 0 (mod {p})", str(c_mod))
    return rep


def _embed(matrix: SquareMatrix, ring: QuotientRing) -> SquareMatrix:
    return matrix.map_entries(ring.from_int, ring)


def _reduce_matrix(matrix: SquareMatrix, ring: QuotientRing) -> SquareMatrix:
    return matrix.map_entries(ring.reduce, ring)


def solve_unit_lower(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Solve A X = B by forward substitution for unit lower triangular A.

    Needs only ring multiplication and subtraction, so it stays inside a
    quotient ring; no entry is ever inverted.
    """
    a._require_compatible(b)
    ring = a.ring
    n = a.n
    one, zero, x = ring.one, ring.zero, []
    if any(a.entry(i, j) != (one if i == j else zero) for i in range(n) for j in range(i, n)):
        raise ConsistencyError("matrix is not unit lower triangular")
    for i in range(n):
        acc = list(b.rows[i])
        for a_il, x_l in zip(a.rows[i][:i], x):
            if a_il != zero:
                for j, e in enumerate(x_l):
                    if e != zero:
                        acc[j] = acc[j] - a_il * e
        x.append(acc)
    return SquareMatrix(ring, x)


def _truncated_exp_product(n: int, m: int, ring: QuotientRing) -> tuple:
    """The eq28 report, and the sum_{j<m} H_{n,j}(zeta_m) it checks."""
    powers = [_reduce_matrix(q_h_nk(n, j), ring) for j in range(m)]
    total = functools.reduce(SquareMatrix.__add__, powers)
    product = SquareMatrix.identity(ring, n)
    for j in range(1, m):
        product = _unit_band_step(product, powers[j], j, ring.reduce(qsequences._c_q(j)))
    rep = Report("eq28")
    rep.add("sum-equals-product", {"n": n, "m": m}, total == product,
            "matrix identity", "as expected" if total == product else "mismatch")
    return rep, total


def check_truncated_exp_product(n: int, m: int) -> Report:
    """sum_{j<m} H_{n,j}(zeta_m) equals prod_{j<m} (I + c_j(zeta_m) H_{n,j}(zeta_m)),
    verified symbolically in Z[q]/Phi_m(q)."""
    if m < 2 or n < m:
        raise ValueError("need n >= m >= 2")
    return _truncated_exp_product(n, m, QuotientRing(cyclotomic(m)))[0]


def check_root_of_unity_factorization(n: int, m: int) -> Report:
    """The full root-of-unity factorization of P_n(q) at q = zeta_m.

    Over Z[q]/Phi_m(q): the q-generator is m-step nilpotent, the truncated
    q-exponential factors as in the eq28 suite, the q-divided powers at
    indices km collapse onto the m-fold integer divided powers, and the
    unit-triangular quotient of P_n(zeta_m) is exactly the m-fold Pascal
    matrix with its c_k factorization.
    """
    if m < 2 or n < m:
        raise ValueError("need n >= m >= 2")
    rep = Report("eq26")
    ring = QuotientRing(cyclotomic(m))

    h_reduced = _reduce_matrix(q_h(n), ring)
    ok = (h_reduced ** m).is_zero
    rep.add("generator-m-nilpotent", {"n": n, "m": m}, ok, "H(zeta)^m == 0",
            "zero" if ok else "nonzero")

    eq28, truncated = _truncated_exp_product(n, m, ring)
    rep.checks.extend(eq28.checks)

    k_max = (n - 1) // m
    ok = all(
        _reduce_matrix(q_h_nk(n, k * m), ring) == _embed(h_m_nk(n, m, k), ring)
        for k in range(1, k_max + 1)
    )
    rep.add("gaussian-specialization", {"n": n, "m": m}, ok,
            "H_(n,km)(zeta_m) == m-fold divided power",
            "as expected" if ok else "mismatch")

    quotient = solve_unit_lower(truncated, _reduce_matrix(q_pascal(n), ring))
    m_fold = _embed(pascal_m(n, m), ring)
    rep.add("quotient-is-m-fold-pascal", {"n": n, "m": m}, quotient == m_fold,
            "P^(m)_n", "as expected" if quotient == m_fold else "mismatch")

    cs = sequences.c_seq(k_max) if k_max >= 1 else []
    product = SquareMatrix.identity(ring, n)
    for k in range(1, k_max + 1):
        generator = _reduce_matrix(q_h_nk(n, k * m), ring)
        product = _unit_band_step(product, generator, k * m, ring.from_int(cs[k - 1]))
    rep.add("quotient-factorization", {"n": n, "m": m}, quotient == product,
            "prod (I + c_k H_(n,km)(zeta_m))",
            "as expected" if quotient == product else "mismatch")
    return rep
