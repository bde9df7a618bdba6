"""Per-n references for the pascal and qpascal suites of ``ppx.pascal``.

The band matrices are built by their dense defining comprehensions, one
conditional per entry, and each suite builds every matrix anew at every n
instead of reading the leading blocks of the n_max ones.  Both suites print
the same report as ``check_pascal`` and ``check_q_pascal``, row for row.

``exp_nilpotent`` sums the powers of a nilpotent matrix on a chain of its
own and divides them by k! itself, where the suites divide nowhere: they
compare H^k with k! H_(n,k).  ``reduce_matrix`` is the Z[q] route to the
eq26/eq28 inputs over Z[q]/Phi_m: build the matrix of Gaussian binomials in
Z[q], then reduce every entry, zeros included.

``dense_product`` and ``dense_band_step`` are the schoolbook product and the
product with I + c G, read from the dense grids: the references for the band
kernels ``SquareMatrix.__mul__`` and ``pascal._unit_band_step``.  The suites
recover the c_k with ``factor_greedily``, a loop of their own over
``dense_band_step``, so they share no kernel with what they check."""

import functools
import itertools
import math

from ppx import qsequences, sequences
from ppx.pascal import SquareMatrix, pascal_matrix, q_pascal
from ppx.qsequences import qbinom, qfact, qint
from ppx.report import Report
from ppx.rings import ConsistencyError, P_ZERO, ZX, ZZ


def from_rows(ring, rows) -> SquareMatrix:
    """The matrix with this dense entry grid, row by row: ValueError unless it
    is nonempty, square and zero above the diagonal."""
    rows = tuple(tuple(row) for row in rows)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("a nonempty square entry grid is required")
    if any(any(row[i + 1:]) for i, row in enumerate(rows)):
        raise ValueError("a nonzero entry above the diagonal: not lower triangular")
    return SquareMatrix(ring, n, {d: [rows[t + d][t] for t in range(n - d)] for d in range(n)})


def dense_product(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Schoolbook reference: every entry sums all n products, zero pairs
    included, in ascending l."""
    ring, n, ra, rb = a.ring, a.n, a.rows, b.rows
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for l in range(n):
                acc = acc + ra[i][l] * rb[l][j]
            row.append(acc)
        rows.append(row)
    return from_rows(ring, rows)


def dense_band_step(matrix: SquareMatrix, generator: SquareMatrix, shift: int, c) -> SquareMatrix:
    """matrix * (I + c G) by the schoolbook product, for G zero off the band
    i - j = shift (ConsistencyError otherwise)."""
    ring, n, g = matrix.ring, matrix.n, generator.rows
    if any(g[i][j] and i - j != shift for i in range(n) for j in range(n)):
        raise ConsistencyError(f"generator is nonzero off the band i - j = {shift}")
    factor = from_rows(ring, [[(ring.one if i == j else ring.zero) + c * g[i][j]
                               for j in range(n)] for i in range(n)])
    return dense_product(matrix, factor)


def factor_greedily(ring, n: int, generator) -> tuple:
    """The partial product (I + c_1 G_1)...(I + c_(n-1) G_(n-1)) and its c_k, each
    forced by the (k, 0) entry of the product before it: c_k = 1 - that entry."""
    partial, cs = SquareMatrix.identity(ring, n), []
    for k in range(1, n):
        cs.append(ring.one - partial.rows[k][0])
        partial = dense_band_step(partial, generator(k), k, cs[-1])
    return partial, cs


def divide_exactly(matrix: SquareMatrix, d: int) -> SquareMatrix:
    """M / d for an integer matrix; ConsistencyError when an entry leaves a
    remainder."""
    def quotient(e):
        q, r = divmod(e, d)
        if r:
            raise ConsistencyError(f"{e} is not divisible by {d}")
        return q
    return from_rows(ZZ, [[quotient(e) for e in row] for row in matrix.rows])


def exp_nilpotent(matrix: SquareMatrix) -> SquareMatrix:
    """exp(M) = sum M^k / k! for a nilpotent integer matrix, all divisions
    exact (ConsistencyError otherwise, or when M^n != 0)."""
    total, power = SquareMatrix.identity(matrix.ring, matrix.n), matrix
    for k in range(1, matrix.n + 1):
        if not power:
            return total
        total = total + divide_exactly(power, math.factorial(k))
        power = power * matrix
    raise ConsistencyError("matrix is not nilpotent")


def is_exactly(compute, expected) -> bool:
    """compute() == expected, and False when compute() finds an inexact
    division or a matrix that is not nilpotent."""
    try:
        return compute() == expected
    except ConsistencyError:
        return False


def h_matrix(n: int) -> SquareMatrix:
    return from_rows(ZZ, [[i if i - j == 1 else 0 for j in range(n)] for i in range(n)])


def h_nk(n: int, k: int) -> SquareMatrix:
    return from_rows(
        ZZ, [[math.comb(i, k) if i - j == k else 0 for j in range(n)] for i in range(n)]
    )


def h_m_nk(n: int, m: int, k: int) -> SquareMatrix:
    return from_rows(
        ZZ,
        [[math.comb(i // m, k) if i - j == m * k else 0 for j in range(n)] for i in range(n)],
    )


def q_h(n: int) -> SquareMatrix:
    return from_rows(
        ZX, [[qint(i) if i - j == 1 else P_ZERO for j in range(n)] for i in range(n)]
    )


def q_h_nk(n: int, k: int) -> SquareMatrix:
    return from_rows(
        ZX,
        [[qbinom(i, k) if i - j == k and k <= i else P_ZERO for j in range(n)]
         for i in range(n)],
    )


def check_pascal(n_max: int) -> Report:
    if n_max < 2:
        raise ValueError("need n >= 2")
    rep = Report("pascal")
    partial, cs = factor_greedily(ZZ, n_max, lambda k: h_nk(n_max, k))
    for n in range(2, n_max + 1):
        h = h_matrix(n)
        powers = list(itertools.accumulate([h] * n, SquareMatrix.__mul__,
                                           initial=SquareMatrix.identity(ZZ, n)))
        ok = all(is_exactly(lambda: divide_exactly(powers[k], math.factorial(k)), h_nk(n, k))
                 for k in range(n))
        rep.add("divided-powers", {"n": n}, ok, "H^k/k! == H_(n,k) for k < n",
                "as expected" if ok else "mismatch")
        ok = not powers[n]
        rep.add("nilpotency", {"n": n}, ok, "H^n == 0", "zero" if ok else "nonzero")
        total = functools.reduce(SquareMatrix.__add__, [h_nk(n, k) for k in range(n)])
        p = pascal_matrix(n)
        rep.add("sum-of-divided-powers", {"n": n}, total == p, "P_n",
                "as expected" if total == p else "mismatch")
        ok = is_exactly(lambda: exp_nilpotent(h), p)
        rep.add("matrix-exponential", {"n": n}, ok, "P_n", "as expected" if ok else "mismatch")
        if tuple(row[:n] for row in partial.rows[:n]) != p.rows:
            raise ConsistencyError(f"recovered factors do not multiply to P_{n}")
        expected = sequences.c_seq(n - 1)
        rep.add("factor-recovery", {"n": n}, cs[: n - 1] == expected,
                ", ".join(map(str, expected)), ", ".join(map(str, cs[: n - 1])))
    prefix_ok = n_max == 2 or factor_greedily(
        ZZ, n_max - 1, lambda k: h_nk(n_max - 1, k))[1] == cs[:-1]
    rep.add("factor-prefix-stability", {"n_max": n_max}, prefix_ok,
            "factors independent of matrix size", "as expected" if prefix_ok else "mismatch")
    return rep


def check_q_pascal(n_max: int) -> Report:
    if n_max < 2:
        raise ValueError("need n >= 2")
    rep = Report("qpascal")
    partial, cs = factor_greedily(ZX, n_max, lambda k: q_h_nk(n_max, k))
    for n in range(2, n_max + 1):
        powers = list(itertools.accumulate([q_h(n)] * n, SquareMatrix.__mul__,
                                           initial=SquareMatrix.identity(ZX, n)))
        ok = all(powers[k] == q_h_nk(n, k).scale(qfact(k)) for k in range(n))
        rep.add("q-divided-powers", {"n": n}, ok, "H^k(q) == [k]! H_(n,k)(q) for k < n",
                "as expected" if ok else "mismatch")
        ok = not powers[n]
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


def reduce_matrix(matrix: SquareMatrix, ring) -> SquareMatrix:
    return from_rows(ring, [[ring.reduce(e) for e in row] for row in matrix.rows])
