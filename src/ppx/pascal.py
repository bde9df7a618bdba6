"""Pascal matrices in a basis, their nilpotent generators, and product factorizations.

Every matrix here is built in a basis, as the series of ``ppx.series`` are: a
ring and the weights ``binom`` of a divided-power basis -- ``math.comb`` over
ZZ, the Gaussian binomials ``qbinom`` over ZX, or their values at a primitive
m-th root of unity zeta_m over Z[q]/Phi_m(q).  Two builders make them all:
``_pascal`` puts binom(i, j) at (i, j), and ``_divided`` puts
binom(floor(i/m), k) at (i, i - mk), the divided power H_{n,k} for m = 1.
Every matrix is lower triangular, stored by its diagonals, the bands i - j =
d >= 0: band k of P_n is H_{n,k}, and a product of two bands is one pass over
their entries into the band at the sum of their offsets.  So a product and a
unit-band step cost O(n) per pair of bands they multiply; the dense grid
``rows`` is a view, built only to render.

With binomials, the n x n Pascal matrix P_n = (C(i,j)) is exp(H_n) for
H_n = H_{n,1}, entries i at (i, i-1): its powers are H_n^k = k! H_{n,k} and
vanish for k >= n.  The same expansion coefficients c_k that govern exp(x)
factor the matrix,

    P_n = (I + c_1 H_{n,1})(I + c_2 H_{n,2}) ... (I + c_{n-1} H_{n,n-1}),

and the factors can be recovered greedily from the matrix alone: after k-1
factors the (k,0) entry of the partial product forces c_k = 1 - g_{k-1}(k,0).
That recovery is deliberately independent of the sequence recursion, so the
agreement of the two is a genuine cross-check.  Each factor is the identity
plus one band, so it is applied by a unit-band step, not a matrix product, at
the offset of its generator's one band: no other input names it.
The q-basis puts [k]! where k! was, and the m-fold matrices (m = 2 is the
"doubled" Pascal triangle, OEIS A178112) factor the same way, row mk playing
the role of row k.  No matrix code divides or inverts: a power is compared
with k! (or [k]!) times a divided power, exp(H) = P as sum (N!/k!) H^k = N! P,
and a quotient by multiplying it back.

All these matrices are lower triangular, and the leading n x n block of a
product (sum) of such matrices is the product (sum) of their blocks.  So the
pascal and qpascal suites build the powers of H, the divided powers, their
sum, P and its factorization once, at n_max, and read each n from the leading
blocks.  pascal-m builds each n anew: a fault in the bottom-left entry of a
product must show even where n_max puts that entry off every band.

Specializing q at zeta_m -- done symbolically in Z[q]/Phi_m(q), never with
complex floats -- collapses the q-Pascal matrix onto the m-fold one and
yields the congruences c_n = 0 resp. c_{pm} = c_m mod p.  The Gaussian
binomials of those suites are built in the ring by qbinom's q-Pascal step,
each q^k times an entry reduced as it is formed; the m-fold side stays on
math.comb.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import qsequences, sequences
from .qsequences import _gaussian_basis, qbinom, qfact
from .report import Report
from .rings import ConsistencyError, QuotientRing, UsageError, ZX, ZZ, power, serialize
from .sequences import is_prime


class SquareMatrix:
    """Immutable lower triangular n x n matrix over one of the exact coefficient
    rings, stored by its diagonals: ``bands`` maps each offset d = i - j >= 0 to
    the tuple of the entries (i, i - d) in ascending i, n - d of them, and leaves
    out every all-zero diagonal.  Entry (i, j) is at index j of band i - j.  A
    Pascal-type matrix is a few such bands (H_{n,k} is one, P_n one per k), and
    band a of A times band b of B adds into band a + b of A B.  The constructor
    takes the bands and drops the all-zero ones; n < 1, or a band kept at d < 0
    (above the diagonal) or d >= n or with other than n - d entries, is a
    ValueError.

    Costs, for s_A and s_B stored bands: a product O(s_A s_B n), a sum, scale or
    map_entries O((s_A + s_B) n), equality O(s_A n), the zero test O(1); ``rows``
    is a dense view for rendering and tests, built in O(n^2).  Entries and
    matrices are tested for zero by truthiness, the ring protocol's zero test: a
    matrix is false exactly when it has no band."""

    __slots__ = ("ring", "n", "bands")

    def __init__(self, ring, n: int, bands: dict):
        self.ring, self.n = ring, n
        self.bands = {d: tuple(band) for d, band in bands.items() if any(band)}
        if n < 1 or any(not 0 <= d < n or len(band) != n - d for d, band in self.bands.items()):
            raise ValueError("need n >= 1 and bands 0 <= d < n of n - d entries each")

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

    def __bool__(self):
        return bool(self.bands)

    def _require_compatible(self, other: "SquareMatrix"):
        if not isinstance(other, SquareMatrix):
            raise TypeError("expected a SquareMatrix")
        if self.ring is not other.ring or self.n != other.n:
            raise ValueError("mixing matrix rings or dimensions")

    def __add__(self, other):
        self._require_compatible(other)
        bands = dict(self.bands)
        for d, ys in other.bands.items():
            bands[d] = tuple(x + y for x, y in zip(bands[d], ys)) if d in bands else ys
        return SquareMatrix(self.ring, self.n, bands)

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
        return SquareMatrix(self.ring, n, out)

    def scale(self, c) -> "SquareMatrix":
        """Multiply every nonzero entry by the ring element c."""
        return self.map_entries(lambda e: e * c if e else e, self.ring)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative matrix power")
        return power(self, k) if k else SquareMatrix.identity(self.ring, self.n)

    def map_entries(self, fn, ring) -> "SquareMatrix":
        """fn applied to every stored entry, over ring; fn must send zero to zero."""
        return SquareMatrix(ring, self.n, {d: tuple(map(fn, band))
                                           for d, band in self.bands.items()})

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.ring is other.ring and self.n == other.n and self.bands == other.bands

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
    return SquareMatrix(ring, n, {k: tuple(binom(i, i - k) for i in range(k, n))
                                  for k in range(n)})


def _divided(ring, binom, n: int, k: int, m: int = 1) -> SquareMatrix:
    """The n x n matrix with binom(floor(i/m), k) at (i, i - mk), zeros elsewhere."""
    return SquareMatrix(ring, n, {m * k: tuple(binom(i // m, k) for i in range(m * k, n))})


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


def _unit_band_step(matrix: SquareMatrix, generator: SquareMatrix, c) -> SquareMatrix:
    """matrix * (I + c G) for a generator G with at most one band, whose offset d
    it takes (ConsistencyError for a second band): the matrix plus matrix * (c G),
    where band e of the matrix times the one band of c G adds into band e + d, so
    each band of the result takes one pass.  A zero G, or c = 0, leaves the matrix
    as it is.  The dense product's other terms all have a zero factor, and here
    every ring product has two nonzero ones.  The sums read the matrix as it was,
    never an updated entry."""
    matrix._require_compatible(generator)
    if len(generator.bands) > 1:
        raise ConsistencyError(f"generator has bands i - j in {sorted(generator.bands)}, not one")
    if not c or not generator:
        return matrix
    ((shift, band),) = generator.bands.items()
    n, zero, bands = matrix.n, matrix.ring.zero, dict(matrix.bands)
    cg = tuple(c * g if g else g for g in band)
    for d, entries in matrix.bands.items():
        if d + shift < n:
            acc = list(matrix.bands.get(d + shift) or [zero] * (n - d - shift))
            _add_band_product(acc, entries, shift, cg)
            bands[d + shift] = acc
    return SquareMatrix(matrix.ring, n, bands)


def _factored(ring, n: int, steps) -> SquareMatrix:
    """The product (I + c_1 G_1)(I + c_2 G_2)... of n x n matrices over ring, one
    unit-band step per (G, c) of steps, in order; each G brings its own band."""
    product = SquareMatrix.identity(ring, n)
    for generator, c in steps:
        product = _unit_band_step(product, generator, c)
    return product


def _factor_greedily(ring, n: int, k_max: int, generator) -> tuple:
    """Greedy recovery, k = 1..k_max: c_k = 1 - (d, 0) entry of the partial
    product, d the band of generator(k), which then gets the factor I + c_k
    generator(k).  A zero generator(k) has no band to read: ConsistencyError."""
    partial, cs = SquareMatrix.identity(ring, n), []
    for k in range(1, k_max + 1):
        g = generator(k)
        if not g:
            raise ConsistencyError(f"generator {k} is zero: no band to read c_{k} from")
        cs.append(ring.one - partial.entry(next(iter(g.bands)), 0))
        partial = _unit_band_step(partial, g, cs[-1])
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
    partial, cs = _factor_greedily(ring, n, k_max, lambda k: _divided(ring, binom, n, k, m))
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
        raise UsageError("dimension must be >= 1")
    return _pascal(ZZ, math.comb, n)


def h_nk(n: int, k: int) -> SquareMatrix:
    """The divided power H_n^k / k!, with entries C(i, k) at (i, i-k)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return _divided(ZZ, math.comb, n, k)


def factor_pascal(n: int) -> list:
    """Recover c_1..c_{n-1} from P_n = prod (I + c_k H_{n,k}) greedily."""
    if n < 2:
        raise UsageError("need n >= 2")
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
    the factored product with the expansion coefficients c_k must agree.  One
    power chain, one product per power, decides exp(H) = sum H_k: H^k == k! H_k
    for k = 2..K+1, K = floor((n-1)/m); H_(K+1) has its band at or past n and
    is zero, so the last step is nilpotency.
    """
    if n < 1 or m < 1:
        raise UsageError("need n >= 1 and m >= 1")
    k_max = (n - 1) // m
    powers = [h_m_nk(n, m, k) for k in range(k_max + 2)]
    generator = generator_power = powers[1]
    for k in range(2, k_max + 2):
        generator_power = generator_power * generator
        if generator_power != powers[k].scale(math.factorial(k)):
            raise ConsistencyError(f"H^k != k! H_k for m={m}, n={n}, k={k}")
    total = functools.reduce(SquareMatrix.__add__, powers)
    if k_max >= 1 and _factored(ZZ, n, zip(powers[1:], sequences.c_seq(k_max))) != total:
        raise ConsistencyError(f"factored product != P^({m})_{n}")
    return total


def factor_pascal_m(n: int, m: int) -> list:
    """Recover the c_k from the m-fold Pascal matrix; row mk plays the role
    row k plays in the classical recovery."""
    if n < 2 or m < 1:
        raise UsageError("need n >= 2 and m >= 1")
    return _factor(ZZ, math.comb, n, m, pascal_m(n, m), sequences.c_seq)


# ---------------------------------------------------------------------------
# q-Pascal matrices


def q_pascal(n: int) -> SquareMatrix:
    """P_n(q) with Gaussian binomial entries."""
    if n < 1:
        raise UsageError("dimension must be >= 1")
    return _pascal(ZX, qbinom, n)


def factor_q_pascal(n: int) -> list:
    """Recover c_1(q)..c_{n-1}(q) from P_n(q) = prod (I + c_k(q) H_{n,k}(q))."""
    if n < 2:
        raise UsageError("need n >= 2")
    return _factor(ZX, qbinom, n, 1, q_pascal(n), qsequences.c_q_seq)


# ---------------------------------------------------------------------------
# Verification suites


_SAME, _ZERO = ("as expected", "mismatch"), ("zero", "nonzero")


def _block_rows(ring, binom, factorial, sequence, n_max: int) -> tuple:
    """What the pascal and qpascal suites share, in the basis (ring, binom) with
    factorials factorial(k), all at N = n_max: P_N, the powers H^0..H^N of
    H = H_(N,1), the greedily recovered c_1..c_(N-1), per n = 0..N (from
    the leading n x n blocks) whether H^k == factorial(k) H_(n,k) for every
    k < n, whether H^n == 0 and whether the H_(n,k) sum to P_n, and per n >= 2
    the factor-recovery row against sequence(n - 1).  The recovered factors
    must multiply back to P (ConsistencyError at the first n where not)."""
    p = _pascal(ring, binom, n_max)
    divided = [_divided(ring, binom, n_max, k) for k in range(n_max)]
    partial, cs = _factor_greedily(ring, n_max, n_max - 1, divided.__getitem__)
    factored = _blockwise(partial, p)
    if not all(factored):
        raise _unfactored(ring, max(2, factored.index(False)))
    powers = [SquareMatrix.identity(ring, n_max),
              *itertools.accumulate([divided[1]] * n_max, SquareMatrix.__mul__)]
    same = [_blockwise(power, d.scale(factorial(k)))
            for k, (power, d) in enumerate(zip(powers, divided))]
    zero = SquareMatrix(ring, n_max, {})
    divided_ok = [all(s[n] for s in same[:n]) for n in range(n_max + 1)]
    vanishes = [_blockwise(power, zero)[n] for n, power in enumerate(powers)]
    summed = _blockwise(functools.reduce(SquareMatrix.__add__, divided), p)
    # The expected factors are rendered once, and a row that holds prints its text twice.
    expected, recovered = sequence(n_max - 1), {}
    for n, text in enumerate(itertools.accumulate(map(str, expected), "{}, {}".format), 2):
        ok = cs[: n - 1] == expected[: n - 1]
        recovered[n] = ok, text, text if ok else ", ".join(map(str, cs[: n - 1]))
    return p, powers, cs, divided_ok, vanishes, summed, recovered


def check_pascal(n_max: int) -> Report:
    """Divided powers, nilpotency, exp identity, and factor recovery for P_n,
    each n read from leading blocks at n_max; prefix stability factors n_max - 1."""
    rep = Report("pascal")
    p, powers, cs, divided_ok, vanishes, summed, recovered = _block_rows(
        ZZ, math.comb, math.factorial, sequences.c_seq, n_max)
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
        rep.add("factor-recovery", {"n": n}, *recovered[n])
    prefix_ok = n_max == 2 or _factor_greedily(
        ZZ, n_max - 1, n_max - 2, lambda k: h_nk(n_max - 1, k))[1] == cs[:-1]
    rep.add("factor-prefix-stability", {"n_max": n_max}, prefix_ok,
            "factors independent of matrix size", _SAME[not prefix_ok])
    return rep


def check_pascal_m(n_max: int, m_values=(2, 3)) -> Report:
    """The m-fold Pascal identities; m = 1 must reduce to the classical case."""
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
    rep = Report("qpascal")
    p, _, _, divided_ok, vanishes, summed, recovered = _block_rows(
        ZX, qbinom, qfact, qsequences.c_q_seq, n_max)
    at_one = _blockwise(p.map_entries(lambda e: e(1), ZZ), pascal_matrix(n_max))
    for n in range(2, n_max + 1):
        rep.add("q-divided-powers", {"n": n}, divided_ok[n],
                "H^k(q) == [k]! H_(n,k)(q) for k < n", _SAME[not divided_ok[n]])
        rep.add("q-nilpotency", {"n": n}, vanishes[n], "H(q)^n == 0", _ZERO[not vanishes[n]])
        rep.add("q-exp-identity", {"n": n}, summed[n], "P_n(q)", _SAME[not summed[n]])
        rep.add("q1-specialization", {"n": n}, at_one[n], "P_n", _SAME[not at_one[n]])
        rep.add("q-factor-recovery", {"n": n}, *recovered[n])
    return rep


def check_cyclotomic_specialization(n_max: int, m: int) -> Report:
    """c_n(q) mod Phi_m(q) is c_{n/m} when m | n and 0 otherwise."""
    if m < 2:
        raise UsageError("need m >= 2")
    if n_max < m:
        raise UsageError("need n_max >= m")
    rep = Report("thm43")
    ring = QuotientRing.cyclotomic(m)
    for n in range(m, n_max + 1):
        residue = ring.reduce(qsequences._c_q(n))
        if n % m == 0:
            expected = ring.reduce(sequences._c(n // m))
            label = f"c_{n // m} = {sequences._c(n // m)}"
        else:
            expected = ring.zero
            label = "0"
        rep.add("residue", {"n": n, "m": m}, residue == expected, label, str(residue))
    return rep


def check_carlitz(p: int, n_max: int) -> Report:
    """c_n = 0 mod p for n > p coprime to p; c_{pm} = c_m mod p."""
    if n_max <= p:
        raise UsageError("need n_max > p")
    if not is_prime(p):
        raise UsageError("p must be prime")
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


def _truncated_exp_product(binom, n: int, m: int, ring: QuotientRing) -> tuple:
    """The eq28 report, and the sum_{j<m} H_{n,j}(zeta_m) it checks, in the basis
    (ring, binom) of the Gaussian binomials at zeta_m."""
    # The bands share no entry: (i, i - j) holds [i, j] when j < m, so the sum is one pass.
    total = _pascal(ring, lambda i, j: binom(i, i - j) if i - j < m else ring.zero, n)
    product = _factored(ring, n, ((_divided(ring, binom, n, j), ring.reduce(qsequences._c_q(j)))
                                  for j in range(1, m)))
    rep = Report("eq28")
    rep.add("sum-equals-product", {"n": n, "m": m}, total == product,
            "matrix identity", _SAME[total != product])
    return rep, total


def check_truncated_exp_product(n: int, m: int) -> Report:
    """sum_{j<m} H_{n,j}(zeta_m) equals prod_{j<m} (I + c_j(zeta_m) H_{n,j}(zeta_m)),
    verified symbolically in Z[q]/Phi_m(q)."""
    if m < 2 or n < m:
        raise UsageError("need n >= m >= 2")
    ring = QuotientRing.cyclotomic(m)
    return _truncated_exp_product(_gaussian_basis(n, ring), n, m, ring)[0]


def check_root_of_unity_factorization(n: int, m: int) -> Report:
    """The full root-of-unity factorization of P_n(q) at q = zeta_m.

    Over Z[q]/Phi_m(q): the q-generator is m-step nilpotent, the truncated
    q-exponential factors as in the eq28 suite, the q-divided powers at
    indices km collapse onto the m-fold integer divided powers, and P_n(zeta_m)
    is the truncated q-exponential T times the m-fold Pascal matrix, and T times
    its c_k factorization: both are decided by multiplying back.
    """
    if m < 2 or n < m:
        raise UsageError("need n >= m >= 2")
    rep = Report("eq26")
    ring = QuotientRing.cyclotomic(m)
    binom = _gaussian_basis(n, ring)

    ok = not _divided(ring, binom, n, 1) ** m
    rep.add("generator-m-nilpotent", {"n": n, "m": m}, ok, "H(zeta)^m == 0", _ZERO[not ok])

    eq28, truncated = _truncated_exp_product(binom, n, m, ring)
    rep.checks.extend(eq28.checks)

    k_max = (n - 1) // m
    generators = [_divided(ring, binom, n, k * m) for k in range(1, k_max + 1)]
    ok = all(g == h_m_nk(n, m, k).map_entries(ring.reduce, ring)
             for k, g in enumerate(generators, 1))
    rep.add("gaussian-specialization", {"n": n, "m": m}, ok,
            "H_(n,km)(zeta_m) == m-fold divided power", _SAME[not ok])

    p, m_fold = _pascal(ring, binom, n), pascal_m(n, m).map_entries(ring.reduce, ring)
    quotient_ok = truncated * m_fold == p
    rep.add("quotient-is-m-fold-pascal", {"n": n, "m": m}, quotient_ok,
            "P^(m)_n", _SAME[not quotient_ok])

    cs = sequences.c_seq(k_max) if k_max >= 1 else []
    product = _factored(ring, n, zip(generators, map(ring.reduce, cs)))
    # T is unit lower triangular, so T X = P has one solution, and T M == P makes it M.
    ok = product == m_fold if quotient_ok else truncated * product == p
    rep.add("quotient-factorization", {"n": n, "m": m}, ok,
            "prod (I + c_k H_(n,km)(zeta_m))", _SAME[not ok])
    return rep
