"""Pascal matrices in a basis, their nilpotent generators, and product factorizations.

Every matrix here is built in a basis, as the series of ``ppx.series`` are: a
ring and the weights ``binom`` of a divided-power basis -- ``math.comb`` over
ZZ, the Gaussian binomials ``qbinom`` over ZX, or their values at a primitive
m-th root of unity zeta_m over Z[q]/Phi_m(q).  Two builders make them all:
``_pascal`` puts binom(i, j) at (i, j), and ``_divided`` puts
binom(floor(i/m), k) at (i, i - mk), the divided power H_{n,k} for m = 1.
Every matrix is lower triangular, stored by its diagonals, the bands i - j =
d >= 0: band k of P_n is H_{n,k}, and a product of two bands is one pass over
their entries into the band at the sum of their offsets.  So a product, a
unit-band step and a solve cost O(n) per pair of bands they multiply; the
dense grid ``rows`` is a view, built only to render.

With binomials, the n x n Pascal matrix P_n = (C(i,j)) is exp(H_n) for
H_n = H_{n,1}, entries i at (i, i-1): its powers are H_n^k = k! H_{n,k} and
vanish for k >= n.  The same expansion coefficients c_k that govern exp(x)
factor the matrix,

    P_n = (I + c_1 H_{n,1})(I + c_2 H_{n,2}) ... (I + c_{n-1} H_{n,n-1}),

and the factors can be recovered greedily from the matrix alone: after k-1
factors the (k,0) entry of the partial product forces c_k = 1 - g_{k-1}(k,0).
That recovery is deliberately independent of the sequence recursion, so the
agreement of the two is a genuine cross-check.  Each factor is the identity
plus one band, so it is applied by a unit-band step, not a matrix product.
The q-basis puts [k]! where k! was, and the m-fold matrices (m = 2 is the
"doubled" Pascal triangle, OEIS A178112) factor the same way, row mk playing
the role of row k.  No matrix code divides: a power is compared with k! (or
[k]!) times a divided power, and exp(H) = P as sum (N!/k!) H^k = N! P.

All these matrices are lower triangular, and the leading n x n block of a
product (sum) of such matrices is the product (sum) of their blocks.  So the
pascal and qpascal suites build the powers of H, the divided powers, their
sum, P and its factorization once, at n_max, and read each n from the leading
blocks.  pascal-m builds each n anew: a fault in the bottom-left entry of a
product must show even where n_max puts that entry off every band.

Specializing q at zeta_m -- done symbolically in Z[q]/Phi_m(q), never with
complex floats -- collapses the q-Pascal matrix onto the m-fold one and
yields the congruences c_n = 0 resp. c_{pm} = c_m mod p.  The Gaussian
binomials of those suites are built in the ring: the q-Pascal rule runs on
length-m coefficient vectors mod q^m - 1, where q^k is a rotation, and each
entry is reduced by Phi_m once; the m-fold side stays on math.comb.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import qsequences, sequences
from .qsequences import qbinom, qfact
from .report import Report
from .rings import ConsistencyError, IntPoly, QuotientRing, ZX, ZZ, serialize
from .sequences import is_prime


class SquareMatrix:
    """Immutable lower triangular n x n matrix over one of the exact coefficient
    rings, stored by its diagonals: ``bands`` maps each offset d = i - j >= 0 to
    the tuple of the entries (i, i - d) in ascending i, n - d of them, and leaves
    out every all-zero diagonal.  Entry (i, j) is at index j of band i - j.  A
    Pascal-type matrix is a few such bands (H_{n,k} is one, P_n one per k), and
    band a of A times band b of B adds into band a + b of A B.  A nonzero entry
    above the diagonal is a ValueError.

    Costs, for s_A and s_B stored bands: a product O(s_A s_B n), a sum, scale or
    map_entries O((s_A + s_B) n), equality O(s_A n), is_zero O(1); ``rows`` is a
    dense view for rendering and tests, built in O(n^2).  Entries are tested for
    zero by truthiness, the ring protocol's zero test."""

    __slots__ = ("ring", "n", "bands")

    def __init__(self, ring, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("a nonempty square entry grid is required")
        if any(any(row[i + 1:]) for i, row in enumerate(rows)):
            raise ValueError("a nonzero entry above the diagonal: not lower triangular")
        self.ring, self.n, self.bands = ring, n, {
            d: band for d in range(n) if any(band := tuple(rows[t + d][t] for t in range(n - d)))}

    @classmethod
    def _of_bands(cls, ring, n: int, bands: dict) -> "SquareMatrix":
        """The matrix with these diagonals d >= 0 (each of length n - d; zero ones dropped)."""
        matrix = cls.__new__(cls)
        matrix.ring, matrix.n = ring, n
        matrix.bands = {d: tuple(band) for d, band in bands.items() if any(band)}
        return matrix

    @classmethod
    def identity(cls, ring, n: int) -> "SquareMatrix":
        # H_(n,0) in any basis
        return _divided(ring, lambda i, k: ring.one, n, 0)

    @property
    def rows(self) -> tuple:
        """The dense entry grid, row by row."""
        return tuple(tuple(self.entry(i, j) for j in range(self.n)) for i in range(self.n))

    def entry(self, i: int, j: int):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) is outside the {self.n} x {self.n} grid")
        band = self.bands.get(i - j)
        return band[j] if band else self.ring.zero

    @property
    def is_zero(self) -> bool:
        return not self.bands

    def _require_compatible(self, other: "SquareMatrix"):
        if not isinstance(other, SquareMatrix):
            raise TypeError("expected a SquareMatrix")
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("mixing matrix rings or dimensions")

    def __add__(self, other):
        self._require_compatible(other)
        bands = dict(self.bands)
        for d, ys in other.bands.items():
            bands[d] = tuple(x + y for x, y in zip(bands[d], ys)) if d in bands else ys
        return SquareMatrix._of_bands(self.ring, self.n, bands)

    def __mul__(self, other):
        """Band-pair product: band a of self times band b of other adds into band
        a + b (see _add_band_product).  Every entry starts at the ring's zero and
        adds x * y for each pair of nonzero factors: the ring operations of the
        dense definition, without the pairs that have a zero factor."""
        self._require_compatible(other)
        n, zero, out = self.n, self.ring.zero, {}
        for a, xs in self.bands.items():
            for b, ys in other.bands.items():
                if a + b < n:
                    acc = out.get(a + b) or out.setdefault(a + b, [zero] * (n - a - b))
                    _add_band_product(acc, xs, b, ys)
        return SquareMatrix._of_bands(self.ring, n, out)

    def scale(self, c) -> "SquareMatrix":
        """Multiply every nonzero entry by the ring element c."""
        return self.map_entries(lambda e: e * c if e else e, self.ring)

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
        """fn applied to every stored entry, over ring; fn must send zero to zero."""
        return SquareMatrix._of_bands(ring, self.n, {d: tuple(map(fn, band))
                                                     for d, band in self.bands.items()})

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.ring == other.ring and self.n == other.n and self.bands == other.bands

    def __repr__(self):
        return f"SquareMatrix({self.ring!r}, {self.n}x{self.n})"

    def to_json_obj(self) -> list:
        """Row-major nested array of exact entry serializations."""
        return [[serialize(e) for e in row] for row in self.rows]

    def render_text(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


def _pascal(ring, binom, n: int) -> SquareMatrix:
    """The n x n matrix with binom(i, j) at (i, j) for j <= i, zeros above: band k
    holds binom(i, i - k), the entries of H_{n,k}."""
    return SquareMatrix._of_bands(ring, n, {k: tuple(binom(i, i - k) for i in range(k, n))
                                            for k in range(n)})


def _divided(ring, binom, n: int, k: int, m: int = 1) -> SquareMatrix:
    """The n x n matrix with binom(floor(i/m), k) at (i, i - mk), zeros elsewhere."""
    return SquareMatrix._of_bands(ring, n, {m * k: tuple(binom(i // m, k)
                                                         for i in range(m * k, n))})


def _blockwise(a: SquareMatrix, b: SquareMatrix) -> list:
    """Entry n (0..a.n) says if the leading n x n blocks of a and b agree: an
    entry (i, j) where a and b differ is in every block of size n > i, which is
    t + d for index t of band d, so the first difference of each band bounds the
    blocks that agree."""
    size, zeros = a.n, itertools.repeat(a.ring.zero)
    for d in a.bands.keys() | b.bands.keys():
        xs, ys = a.bands.get(d), b.bands.get(d)
        if xs != ys:
            t = next(t for t, (x, y) in enumerate(zip(xs or zeros, ys or zeros)) if x != y)
            size = min(size, t + d)
    return [n <= size for n in range(a.n + 1)]


def _add_band_product(acc: list, xs: tuple, b: int, ys: tuple) -> None:
    """Add band a (entries xs) times band b (entries ys) into acc, band a + b:
    entry t of acc, at (t + a + b, t), gets (t + a + b, t + b) times (t + b, t),
    xs[t + b] * ys[t].  One ring product and one sum per pair of nonzero factors,
    one pass over the band."""
    for t, (x, y) in enumerate(zip(xs[b:], ys)):
        if x and y:
            acc[t] = acc[t] + x * y


def _unit_band_step(matrix: SquareMatrix, generator: SquareMatrix, shift: int, c) -> SquareMatrix:
    """matrix * (I + c G) for a generator G that is zero off the band i - j = shift
    (ConsistencyError otherwise): the matrix plus matrix * (c G), where band d of the
    matrix times the one band of c G adds into band d + shift, so each band of the
    result takes one pass.  The dense product's other terms all have a zero factor,
    and here every ring product has two nonzero ones.  The sums read the matrix as
    it was, never an updated entry."""
    matrix._require_compatible(generator)
    if generator.bands.keys() - {shift}:
        raise ConsistencyError(f"generator is nonzero off the band i - j = {shift}")
    if not c or shift not in generator.bands:
        return matrix
    n, zero, bands = matrix.n, matrix.ring.zero, dict(matrix.bands)
    cg = tuple(c * g if g else g for g in generator.bands[shift])
    for d, band in matrix.bands.items():
        if d + shift < n:
            acc = list(matrix.bands.get(d + shift) or [zero] * (n - d - shift))
            _add_band_product(acc, band, shift, cg)
            bands[d + shift] = acc
    return SquareMatrix._of_bands(matrix.ring, n, bands)


def _factored(ring, n: int, steps) -> SquareMatrix:
    """The product (I + c_1 G_1)(I + c_2 G_2)... of n x n matrices over ring, one
    unit-band step per (G, shift, c) of steps, in order."""
    product = SquareMatrix.identity(ring, n)
    for generator, shift, c in steps:
        product = _unit_band_step(product, generator, shift, c)
    return product


def _factor_greedily(ring, n: int, k_max: int, generator, step: int) -> tuple:
    """Greedy recovery: c_k = 1 - (step * k, 0) entry of the partial product,
    which then gets the factor I + c_k generator(k); k = 1..k_max."""
    partial, cs = SquareMatrix.identity(ring, n), []
    for k in range(1, k_max + 1):
        cs.append(ring.one - partial.entry(step * k, 0))
        partial = _unit_band_step(partial, generator(k), step * k, cs[-1])
    return partial, cs


def _unfactored(ring, n: int, m: int = 1) -> ConsistencyError:
    q = ring is ZX
    target = f"the {m}-fold P_{n}" if m > 1 else f"P_{n}(q)" if q else f"P_{n}"
    return ConsistencyError(f"recovered {'q-' * q}factors do not multiply to {target}")


def _factor(ring, binom, n: int, m: int, target: SquareMatrix, sequence) -> list:
    """Recover c_1..c_K, K = floor((n-1)/m), from target = prod (I + c_k H_{n,k}),
    the H_{n,k} m-fold in the basis (ring, binom).

    The recovered coefficients are asserted to multiply back to the target and
    to equal sequence(K), making the two derivations of the sequence mutually
    checking.
    """
    k_max, q = (n - 1) // m, "(q)" if ring is ZX else ""
    partial, cs = _factor_greedily(ring, n, k_max, lambda k: _divided(ring, binom, n, k, m), m)
    if partial != target:
        raise _unfactored(ring, n, m)
    if k_max >= 1 and cs != sequence(k_max):
        raise ConsistencyError(f"matrix-recovered c_k{q} != sequence c_k{q}")
    return cs


# ---------------------------------------------------------------------------
# Classical Pascal matrices


def pascal_matrix(n: int) -> SquareMatrix:
    """P_n with entries C(i, j), lower triangular."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _pascal(ZZ, math.comb, n)


def h_nk(n: int, k: int) -> SquareMatrix:
    """The divided power H_n^k / k!, with entries C(i, k) at (i, i-k)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return _divided(ZZ, math.comb, n, k)


def factor_pascal(n: int) -> list:
    """Recover c_1..c_{n-1} from P_n = prod (I + c_k H_{n,k}) greedily."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _factor(ZZ, math.comb, n, 1, pascal_matrix(n), sequences.c_seq)


# ---------------------------------------------------------------------------
# m-fold Pascal matrices


def h_m_nk(n: int, m: int, k: int) -> SquareMatrix:
    """Entries C(floor(i/m), k) at (i, i - mk)."""
    if n < 1 or m < 1 or k < 0:
        raise ValueError("need n, m >= 1 and k >= 0")
    return _divided(ZZ, math.comb, n, k, m)


def pascal_m(n: int, m: int) -> SquareMatrix:
    """The m-fold Pascal matrix, with its three constructions asserted equal.

    Sum of the generalized divided powers, exponential of the generator, and
    the factored product with the expansion coefficients c_k must agree; the
    divided powers must satisfy H_{k-1} H_1 = k H_k.  exp(H) is the sum of the
    H^k / k! = H_k of the power chain, with one more product for H^(k_max+1) = 0.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    k_max = (n - 1) // m
    powers = [h_m_nk(n, m, k) for k in range(k_max + 1)]
    generator = generator_power = h_m_nk(n, m, 1)
    for k in range(2, k_max + 1):
        if powers[k - 1] * generator != powers[k].scale(k):
            raise ConsistencyError(f"H^({m})_({n},{k - 1}) H_1 != {k} H_({n},{k})")
        generator_power = generator_power * generator
        if generator_power != powers[k].scale(math.factorial(k)):
            raise ConsistencyError(f"H^k != k! H_k for m={m}, n={n}, k={k}")
    if not (generator_power * generator if k_max else generator).is_zero:
        raise ConsistencyError(f"sum of divided powers != exp(H) for m={m}, n={n}")
    total = functools.reduce(SquareMatrix.__add__, powers)
    if k_max >= 1 and _factored(ZZ, n, zip(powers[1:], range(m, n, m),
                                           sequences.c_seq(k_max))) != total:
        raise ConsistencyError(f"factored product != P^({m})_{n}")
    return total


def factor_pascal_m(n: int, m: int) -> list:
    """Recover the c_k from the m-fold Pascal matrix; row mk plays the role
    row k plays in the classical recovery."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    return _factor(ZZ, math.comb, n, m, pascal_m(n, m), sequences.c_seq)


# ---------------------------------------------------------------------------
# q-Pascal matrices


def q_pascal(n: int) -> SquareMatrix:
    """P_n(q) with Gaussian binomial entries."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _pascal(ZX, qbinom, n)


def factor_q_pascal(n: int) -> list:
    """Recover c_1(q)..c_{n-1}(q) from P_n(q) = prod (I + c_k(q) H_{n,k}(q))."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _factor(ZX, qbinom, n, 1, q_pascal(n), qsequences.c_q_seq)


# ---------------------------------------------------------------------------
# Verification suites


_SAME, _ZERO = ("as expected", "mismatch"), ("zero", "nonzero")


def _block_rows(ring, binom, factorial, n_max: int) -> tuple:
    """What the pascal and qpascal suites share, in the basis (ring, binom) with
    factorials factorial(k), all at N = n_max: P_N, the powers H^0..H^N of
    H = H_(N,1), the greedily recovered c_1..c_(N-1), and per n = 0..N (from
    the leading n x n blocks) whether H^k == factorial(k) H_(n,k) for every
    k < n, whether H^n == 0 and whether the H_(n,k) sum to P_n.  The recovered
    factors must multiply back to P (ConsistencyError at the first n where not)."""
    p = _pascal(ring, binom, n_max)
    divided = [_divided(ring, binom, n_max, k) for k in range(n_max)]
    partial, cs = _factor_greedily(ring, n_max, n_max - 1, divided.__getitem__, 1)
    factored = _blockwise(partial, p)
    if not all(factored):
        raise _unfactored(ring, max(2, factored.index(False)))
    powers = [SquareMatrix.identity(ring, n_max),
              *itertools.accumulate([divided[1]] * n_max, SquareMatrix.__mul__)]
    same = [_blockwise(power, d.scale(factorial(k)))
            for k, (power, d) in enumerate(zip(powers, divided))]
    zero = SquareMatrix._of_bands(ring, n_max, {})
    divided_ok = [all(s[n] for s in same[:n]) for n in range(n_max + 1)]
    vanishes = [_blockwise(power, zero)[n] for n, power in enumerate(powers)]
    summed = _blockwise(functools.reduce(SquareMatrix.__add__, divided), p)
    return p, powers, cs, divided_ok, vanishes, summed


def check_pascal(n_max: int) -> Report:
    """Divided powers, nilpotency, exp identity, and factor recovery for P_n,
    each n read from leading blocks at n_max; prefix stability factors n_max - 1."""
    if n_max < 2:
        raise ValueError("need n >= 2")
    rep = Report("pascal")
    p, powers, cs, divided_ok, vanishes, summed = _block_rows(ZZ, math.comb, math.factorial, n_max)
    # exp(H) = P as sum (N!/k!) H^k = N! P, in Z, over every band of the powers:
    # those off a power's band too, so that a wrong product fails this row as it
    # fails the per-n sum of H^k/k!.
    weights = [math.factorial(n_max) // math.factorial(k) for k in range(n_max + 1)]
    total = functools.reduce(SquareMatrix.__add__, map(SquareMatrix.scale, powers, weights))
    expd = _blockwise(total, p.scale(weights[0]))
    for n in range(2, n_max + 1):
        rep.add("divided-powers", {"n": n}, divided_ok[n], "H^k/k! == H_(n,k) for k < n",
                _SAME[not divided_ok[n]])
        rep.add("nilpotency", {"n": n}, vanishes[n], "H^n == 0", _ZERO[not vanishes[n]])
        rep.add("sum-of-divided-powers", {"n": n}, summed[n], "P_n", _SAME[not summed[n]])
        rep.add("matrix-exponential", {"n": n}, expd[n], "P_n", _SAME[not expd[n]])
        expected = sequences.c_seq(n - 1)
        rep.add("factor-recovery", {"n": n}, cs[: n - 1] == expected,
                ", ".join(map(str, expected)), ", ".join(map(str, cs[: n - 1])))
    prefix_ok = n_max == 2 or _factor_greedily(
        ZZ, n_max - 1, n_max - 2, lambda k: h_nk(n_max - 1, k), 1)[1] == cs[:-1]
    rep.add("factor-prefix-stability", {"n_max": n_max}, prefix_ok,
            "factors independent of matrix size", _SAME[not prefix_ok])
    return rep


def check_pascal_m(n_max: int, m_values=(2, 3)) -> Report:
    """The m-fold Pascal identities; m = 1 must reduce to the classical case."""
    if n_max < 2:
        raise ValueError("need n >= 2")
    rep = Report("pascal-m")
    try:
        reduced = pascal_m(n_max, 1) == pascal_matrix(n_max)
        note = _SAME[not reduced]
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
    """q-divided powers, the q-exponential identity, factor recovery, q = 1,
    each n read from leading blocks as in check_pascal."""
    if n_max < 2:
        raise ValueError("need n >= 2")
    rep = Report("qpascal")
    p, _, cs, divided_ok, vanishes, summed = _block_rows(ZX, qbinom, qfact, n_max)
    at_one = _blockwise(p.map_entries(lambda e: e(1), ZZ), pascal_matrix(n_max))
    for n in range(2, n_max + 1):
        rep.add("q-divided-powers", {"n": n}, divided_ok[n],
                "H^k(q) == [k]! H_(n,k)(q) for k < n", _SAME[not divided_ok[n]])
        rep.add("q-nilpotency", {"n": n}, vanishes[n], "H(q)^n == 0", _ZERO[not vanishes[n]])
        rep.add("q-exp-identity", {"n": n}, summed[n], "P_n(q)", _SAME[not summed[n]])
        rep.add("q1-specialization", {"n": n}, at_one[n], "P_n", _SAME[not at_one[n]])
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
    ring = QuotientRing.cyclotomic(m)
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
    return matrix.map_entries(lambda e: ring.from_int(e) if e else ring.zero, ring)


def _rotate(vector: list, k: int) -> list:
    """q^k times a coefficient vector mod q^m - 1, m = len(vector)."""
    s = k % len(vector)
    return vector[-s:] + vector[:-s]


def _gaussian_rows(n: int, ring: QuotientRing) -> list:
    """[i, 0], ..., [i, i] in Z[q]/Phi_m for i < n, built in the ring: the q-Pascal
    rule [i, k] = [i-1, k-1] + q^k [i-1, k] runs on coefficient vectors mod q^m - 1,
    where q^k is a rotation, and each entry is reduced by Phi_m once."""
    vectors, rows = [[1] + [0] * (ring.period - 1)], []
    for i in range(n):
        rows.append([ring.reduce(IntPoly(v)) for v in vectors])
        vectors = [vectors[0], *([a + b for a, b in zip(vectors[k - 1], _rotate(vectors[k], k))]
                                 for k in range(1, i + 1)), vectors[0]]
    return rows


def _gaussian_basis(n: int, ring: QuotientRing):
    """The weights binom(i, k) = [i, k] at zeta_m, k <= i < n, read from _gaussian_rows."""
    rows = _gaussian_rows(n, ring)
    return lambda i, k: rows[i][k]


def solve_unit_lower(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Solve A X = B for unit lower triangular A, band by band in ascending d:
    X = B - (A - I) X, so band d of X is band d of B plus band e of -A times band
    d - e of X, for 0 < e <= d.  Only ring products and sums (each nonzero entry of
    A is negated once): no entry is inverted, so it stays inside a quotient ring."""
    a._require_compatible(b)
    ring, n = a.ring, a.n
    if a.bands.get(0) != (ring.one,) * n:
        raise ConsistencyError("matrix is not unit lower triangular")
    negated = [(e, tuple(ring.zero - v if v else v for v in band))
               for e, band in a.bands.items() if e]
    x = {}
    for d in range(n):
        acc = list(b.bands.get(d) or [ring.zero] * (n - d))
        for e, band in negated:
            if d - e in x:
                _add_band_product(acc, band, d - e, x[d - e])
        if any(acc):
            x[d] = tuple(acc)
    return SquareMatrix._of_bands(ring, n, x)


def _truncated_exp_product(binom, n: int, m: int, ring: QuotientRing) -> tuple:
    """The eq28 report, and the sum_{j<m} H_{n,j}(zeta_m) it checks, in the basis
    (ring, binom) of the Gaussian binomials at zeta_m."""
    # The bands share no entry: (i, i - j) holds [i, j] when j < m, so the sum is one pass.
    total = _pascal(ring, lambda i, j: binom(i, i - j) if i - j < m else ring.zero, n)
    product = _factored(ring, n, ((_divided(ring, binom, n, j), j, ring.reduce(qsequences._c_q(j)))
                                  for j in range(1, m)))
    rep = Report("eq28")
    rep.add("sum-equals-product", {"n": n, "m": m}, total == product,
            "matrix identity", _SAME[total != product])
    return rep, total


def check_truncated_exp_product(n: int, m: int) -> Report:
    """sum_{j<m} H_{n,j}(zeta_m) equals prod_{j<m} (I + c_j(zeta_m) H_{n,j}(zeta_m)),
    verified symbolically in Z[q]/Phi_m(q)."""
    if m < 2 or n < m:
        raise ValueError("need n >= m >= 2")
    ring = QuotientRing.cyclotomic(m)
    return _truncated_exp_product(_gaussian_basis(n, ring), n, m, ring)[0]


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
    ring = QuotientRing.cyclotomic(m)
    binom = _gaussian_basis(n, ring)

    ok = (_divided(ring, binom, n, 1) ** m).is_zero
    rep.add("generator-m-nilpotent", {"n": n, "m": m}, ok, "H(zeta)^m == 0", _ZERO[not ok])

    eq28, truncated = _truncated_exp_product(binom, n, m, ring)
    rep.checks.extend(eq28.checks)

    k_max = (n - 1) // m
    generators = [_divided(ring, binom, n, k * m) for k in range(1, k_max + 1)]
    ok = all(g == _embed(h_m_nk(n, m, k), ring) for k, g in enumerate(generators, 1))
    rep.add("gaussian-specialization", {"n": n, "m": m}, ok,
            "H_(n,km)(zeta_m) == m-fold divided power", _SAME[not ok])

    quotient = solve_unit_lower(truncated, _pascal(ring, binom, n))
    m_fold = _embed(pascal_m(n, m), ring)
    rep.add("quotient-is-m-fold-pascal", {"n": n, "m": m}, quotient == m_fold,
            "P^(m)_n", _SAME[quotient != m_fold])

    cs = sequences.c_seq(k_max) if k_max >= 1 else []
    product = _factored(ring, n, ((g, k * m, ring.from_int(c))
                                  for k, (g, c) in enumerate(zip(generators, cs), 1)))
    rep.add("quotient-factorization", {"n": n, "m": m}, quotient == product,
            "prod (I + c_k H_(n,km)(zeta_m))", _SAME[quotient != product])
    return rep
