"""Exact coefficient arithmetic for power product expansion computations.

Value types:

* built-in ``int`` and ``fractions.Fraction`` carry integers and rationals,
* :class:`IntPoly` is a dense polynomial over Z in the indeterminate q,
* :class:`RatFunc` is a reduced quotient of two :class:`IntPoly`,
* :class:`QuotientRing` / :class:`QuotientElem` give arithmetic in
  Z[q]/(m(q)) for a modulus with leading coefficient +-1 (cyclotomic
  polynomials, powers of q).

Everything is immutable and exact; no floating point anywhere.

A :class:`RatFunc` is a value that commands print; the suites decide their
identities in Z[q].  ``__init__`` normalises it once.  Each side is split as
c q^v p (the content signed like the lead, a power of q, and a primitive p
with p(0) != 0), so contents and powers of q cancel with no polynomial work
and only the parts p reach the heuristic gcd GCDHEU of Char, Geddes and
Gonnet: evaluate at a power of two xi > 2 max(|a|, |b|), take the integer
gcd, read a candidate back from its balanced xi-adic digits and keep it only
if it divides both inputs exactly, or else retry at a larger xi.  The exact
quotients of that check are the cofactors that reduce the fraction.
``RatFunc.__add__`` and ``__mul__`` run in no command; they stay because the
benchmark's tracer wraps them by name.

``IntPoly`` products and exact quotients use Kronecker substitution
(Kronecker 1882; see Harvey, JSC 2009) when the two lengths m, n that set
the schoolbook cost (the factors; the divisor and the quotient) have
m n >= 4 (m + n): evaluate at q = 2^k, with k a whole number of bytes wide
enough that every coefficient of the result is one balanced base-2^k digit,
do one C big-integer multiply or ``divmod``, and read the digits back.
Slots of at most 8 bytes are rounded up to 1, 2, 4 or 8 bytes, the machine
integers that ``array`` converts in one C call.  A quotient is accepted only
when a bound on its digits proves it exact; otherwise, and for smaller
operands, the schoolbook loops decide.

The coefficient-ring protocol of the generic series, expansion and matrix
code is ``zero`` and ``one``: the two instances ``ZZ`` and ``ZX`` at the
bottom hold them for ``int`` and :class:`IntPoly`, and a :class:`QuotientRing`
holds them for its own elements.  Elements do the rest through their
operators and are false exactly when zero; none of that code divides.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from fractions import Fraction


class InexactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


class ConsistencyError(RuntimeError):
    """An identity guaranteed by theory failed to hold.

    Raised when a computation contradicts a proven statement (an integrality,
    divisibility, or closed-form cross-check).  It always signals a bug or a
    genuinely broken hypothesis, never bad user input.
    """


# ---------------------------------------------------------------------------
# Integer polynomials


def _as_poly(value) -> "IntPoly":
    if isinstance(value, IntPoly):
        return value
    if isinstance(value, int):
        return IntPoly((value,))
    raise TypeError(f"cannot interpret {value!r} as an integer polynomial")


# Kronecker substitution: a polynomial with coefficients below 2^(8w-1) in
# magnitude is packed into the integer it takes at q = 2^(8w), one w-byte
# slot per coefficient.  The slots hold the coefficients in two's complement;
# XOR with _slot_offset flips the sign bit of every slot, which adds 2^(8w-1)
# to each, and the same offset, summed over the slots, is then taken off.
# Slots of 1, 2, 4 or 8 bytes are machine integers, so ``array`` converts all
# coefficients in one C call each way (in little-endian byte order, swapped
# on big-endian hosts); wider slots take one ``to_bytes``/``from_bytes`` call
# per coefficient.
#
# Packing and unpacking cost about as much per coefficient as _PACK_COST
# schoolbook coefficient products, so the kernel is used when lengths m, n
# with m n schoolbook products have m n >= _PACK_COST (m + n): from 8 x 8
# up for equal lengths, never with a factor of 4 or fewer coefficients.
# Timed call by call on the operands of the perfbench workloads, this rule
# costs at most 3% more than the best single constant and 7% more than
# picking the faster kernel for every call.
_PACK_COST = 4
_WORD_CODES = {array(code).itemsize: code for code in "bhilq"}
_BIG_ENDIAN = sys.byteorder == "big"


def _pack_pays(m: int, n: int) -> bool:
    return m * n >= _PACK_COST * (m + n)


def _slot_bytes(bits_a: int, bits_b: int, count: int) -> int:
    # The fewest bytes w with bits_a + bits_b + bitlen(count) < 8w, rounded
    # up to a machine word width (1, 2, 4 or 8) when w <= 8.
    w = (bits_a + bits_b + count.bit_length() + 8) // 8
    return w if w > 8 else 1 << (w - 1).bit_length()


def _bits(coeffs) -> int:
    # Bit length of the largest coefficient magnitude.
    return max(map(int.bit_length, coeffs))


@functools.lru_cache(maxsize=256)
def _slot_offset(n: int, w: int) -> int:
    # Sum of 2^(8w-1) * 2^(8wi) over the n slots i.
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _pack(coeffs, w: int) -> int:
    code = _WORD_CODES.get(w)
    if code is None:
        data = b"".join(c.to_bytes(w, "little", signed=True) for c in coeffs)
    else:
        data = array(code, coeffs)
        if _BIG_ENDIAN:
            data.byteswap()
    offset = _slot_offset(len(coeffs), w)
    return (int.from_bytes(data, "little") ^ offset) - offset


def _unpack(value: int, n: int, w: int) -> list:
    # The n balanced base-2^(8w) digits of value, in [-2^(8w-1), 2^(8w-1)),
    # lowest first; OverflowError if value has no such expansion.
    offset = _slot_offset(n, w)
    data = ((value + offset) ^ offset).to_bytes(n * w, "little")
    code = _WORD_CODES.get(w)
    if code is None:
        return [int.from_bytes(data[i:i + w], "little", signed=True) for i in range(0, n * w, w)]
    digits = array(code, data)
    if _BIG_ENDIAN:
        digits.byteswap()
    return digits.tolist()


class IntPoly:
    """Dense polynomial over Z in the indeterminate q.

    Coefficients are stored ascending by degree with no trailing zeros; the
    zero polynomial is the empty tuple.

    >>> str(IntPoly((1, 0, -2)))
    '1-2q^2'
    >>> IntPoly((1, 1)) * IntPoly((1, -1))
    IntPoly([1, 0, -1])
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, coeff: int, k: int) -> "IntPoly":
        """The polynomial coeff * q^k."""
        return cls((0,) * k + (coeff,))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def content(self) -> int:
        """Non-negative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs)

    def primitive_positive(self) -> "IntPoly":
        """Divide out the content and normalize the leading coefficient > 0."""
        if self.is_zero:
            return self
        c = self.content
        if self.lead < 0:
            c = -c
        if c == 1:
            return self
        return IntPoly(tuple(x // c for x in self.coeffs))

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by q^k."""
        if self.is_zero or k == 0:
            return self
        return IntPoly((0,) * k + self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        b = _as_poly(other).coeffs
        out = list(self.coeffs) + [0] * (len(b) - len(self.coeffs))
        for i, c in enumerate(b):
            out[i] -= c
        return IntPoly(out)

    def __mul__(self, other):
        """Product in Z[q].

        When the lengths m, n of the factors have m n >= 4 (m + n) the
        kernel is Kronecker substitution: both are evaluated at q = 2^k, the
        two integers are multiplied once (CPython's C big-integer product)
        and the result is read back as balanced base-2^k digits.  The slot
        width k is bits|a| + bits|b| + bitlen(min(m, n)) + 1 rounded up to
        whole bytes, and up to 1, 2, 4 or 8 bytes when it fits in 8, where
        bits|.| is the bit length of the largest coefficient magnitude;
        every product coefficient is below min(m, n) * 2^(bits|a| + bits|b|)
        <= 2^(k-1) in magnitude, so each one is exactly one balanced digit.
        Word-sized slots are packed and unpacked through ``array`` in one
        call each way, with the sign bit of every slot flipped by one XOR
        (see :func:`_pack`).  Smaller factors, for which packing costs more
        than it saves, use the schoolbook loop.

        >>> str(IntPoly((1, -1) * 8) * IntPoly((1,) * 16))
        '1+q^2+q^4+q^6+q^8+q^10+q^12+q^14-q^16-q^18-q^20-q^22-q^24-q^26-q^28-q^30'
        """
        if isinstance(other, int):
            if other == 0:
                return P_ZERO
            return IntPoly(tuple(other * c for c in self.coeffs))
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return P_ZERO
        a, b = self.coeffs, other.coeffs
        if _pack_pays(len(a), len(b)):
            w = _slot_bytes(_bits(a), _bits(b), min(len(a), len(b)))
            pa = _pack(a, w)
            pb = pa if b is a else _pack(b, w)
            return IntPoly(_unpack(pa * pb, len(a) + len(b) - 1, w))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        # Repeated squaring, with no product by one and no square after the
        # last bit of k.
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return P_ONE
        base, result = self, None
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- division -----------------------------------------------------------

    def divexact(self, other) -> "IntPoly":
        """Exact division over Z; raises :class:`InexactDivisionError` if the
        quotient does not exist with integer coefficients.

        When the lengths of the divisor b and of the quotient pass the size
        test of :meth:`__mul__` the kernel is Kronecker substitution: a and
        b are evaluated at q = 2^k, where k is bits|a| + bits|b| +
        bitlen(len b) + 1 rounded up to whole bytes, and to a word width, as
        in :meth:`__mul__`, and divided once with ``divmod``.  A nonzero
        remainder proves b does not divide a, since b | a in Z[q] implies
        b(2^k) | a(2^k).  Otherwise the quotient is read back as balanced
        base-2^k digits q and accepted only if bits|q| + bits|b| +
        bitlen(len b) <= k.  Then q * b = a: both take the value a(2^k) at
        2^k, so where they first differ their coefficients would differ by
        a nonzero multiple of 2^k, yet there |(q b)_j| + |a_j| < 2^k.  If
        the bound holds with equality, |(q b)_j| < 2^k - 2^(bits|q| +
        bits|b|) and, by the choice of k, |a_j| < 2^(bits|q| - 1);
        otherwise |(q b)_j| < 2^(k-1) and |a_j| < 2^(k-2).  One bit looser
        and the check would accept wrong quotients.  The argument only uses
        bits|a| + bits|b| + bitlen(len b) < k, so it holds for any k at least
        that wide, the rounded word widths included.  In every other case
        the schoolbook long division decides.

        >>> (IntPoly((1,) * 16) ** 2).divexact(IntPoly((1,) * 16)) == IntPoly((1,) * 16)
        True
        """
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("exact division by the zero polynomial")
        if self.is_zero:
            return P_ZERO
        da, db = self.degree, other.degree
        if da < db:
            raise InexactDivisionError(f"({self}) is not divisible by ({other})")
        a, b = self.coeffs, other.coeffs
        if _pack_pays(len(b), da - db + 1):
            bits_b = _bits(b)
            w = _slot_bytes(_bits(a), bits_b, len(b))
            quo, leftover = divmod(_pack(a, w), _pack(b, w))
            if leftover:
                raise InexactDivisionError(f"({self}) is not divisible by ({other})")
            try:
                digits = _unpack(quo, da - db + 1, w)
            except OverflowError:  # the quotient needs more digits
                digits = None
            if digits is not None and _bits(digits) + bits_b + len(b).bit_length() <= 8 * w:
                return IntPoly(digits)
        lb = other.lead
        rem = list(a)
        quo = [0] * (da - db + 1)
        for k in range(da - db, -1, -1):
            c = rem[db + k]
            if c == 0:
                continue
            t, leftover = divmod(c, lb)
            if leftover:
                raise InexactDivisionError(f"({self}) is not divisible by ({other})")
            quo[k] = t
            for i, bc in enumerate(b):
                rem[i + k] -= t * bc
        if any(rem):
            raise InexactDivisionError(f"({self}) is not divisible by ({other})")
        return IntPoly(quo)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for int or Fraction arguments.

        >>> IntPoly((1, 1, 1))(1)
        3
        """
        result = x * 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    # -- comparisons and rendering ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                body = mag + ("q" if k == 1 else f"q^{k}")
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("-" if c < 0 else "+") + body)
        return "".join(parts)


P_ZERO = IntPoly()
P_ONE = IntPoly((1,))
Q = IntPoly((0, 1))


def poly_gcd(a, b) -> IntPoly:
    """Primitive gcd of two integer polynomials, positive leading coefficient.

    Each nonzero side is split as c q^v p (see :func:`_split`); the gcd is
    q^min(v) times the heuristic gcd GCDHEU (Char, Geddes and Gonnet, 1989)
    of the two parts p.  For an integer xi >= 2 min(|a|, |b|) + 2, where |.|
    is the largest coefficient magnitude, the primitive part G of the
    polynomial whose symmetric xi-adic digits are gcd(a(xi), b(xi)) is the
    gcd as soon as G divides both a and b; that exact division is the check
    every answer passes.  Here xi is a power of two 2^(8w), above
    2^8 max(|a|, |b|), so a(xi) and b(xi) are Kronecker packings (one word
    slot per coefficient when w <= 8) and the digits of the integer gcd are
    one unpacking.  When the check fails, xi grows and the evaluation is
    repeated until it passes (see :func:`_heu_gcd` for why it does).  The
    result divides both inputs exactly.

    >>> poly_gcd(IntPoly((1, 1)), IntPoly((1, 0, -1)))
    IntPoly([1, 1])
    """
    a, b = _as_poly(a), _as_poly(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).primitive_positive()
    return _gcd_cofactors(a, b)[0].primitive_positive()


def _split(p: IntPoly) -> tuple:
    # (c, v, f) with p = c q^v f for nonzero p: c the content, signed like
    # the leading coefficient, v the lowest degree with a nonzero
    # coefficient, and f primitive with a positive lead and f(0) != 0.
    cs = p.coeffs
    v = next(i for i, x in enumerate(cs) if x)
    c = p.content if cs[-1] > 0 else -p.content
    return c, v, (p if c == 1 and v == 0 else IntPoly(tuple(x // c for x in cs[v:])))


def _join(c: int, v: int, f: IntPoly) -> IntPoly:
    # c q^v f, the inverse of _split.
    return IntPoly((0,) * v + (f.coeffs if c == 1 else tuple(c * x for x in f.coeffs)))


def _heu_gcd(a: IntPoly, b: IntPoly) -> tuple:
    # GCDHEU on primitive a, b with positive leading coefficients:
    # (g, a/g, b/g), where the two exact quotients are the check.  A split
    # part of degree 0 is 1 (from a side c q^k), so the gcd is 1 at once.
    # xi = 2^(8w) with 8w > max(bits|a|, bits|b|) + 8, so a(xi) and
    # b(xi) are one _pack each, and xi > 2 min(|a|, |b|) + 2.  The gcd has at
    # most min(len a, len b) coefficients; a digit expansion that needs more
    # is a failed candidate.  xi grows to about xi^(5/4), as in SymPy's
    # dup_zz_heu_gcd.  The loop ends: gcd(a(xi), b(xi)) = g(xi) s, where the
    # integer s divides Res(a/g, b/g), which does not depend on xi.  Once
    # xi/2 > s |g|, the balanced digits spell s g, whose primitive part is g.
    if a.degree == 0 or b.degree == 0:
        return P_ONE, a, b
    n = min(len(a.coeffs), len(b.coeffs))
    w = _slot_bytes(max(_bits(a.coeffs), _bits(b.coeffs)), 8, 0)
    while True:
        h = math.gcd(_pack(a.coeffs, w), _pack(b.coeffs, w))
        try:
            g = IntPoly(_unpack(h, n, w)).primitive_positive()
            if g.degree == 0:
                return P_ONE, a, b
            return g, a.divexact(g), b.divexact(g)
        except (OverflowError, InexactDivisionError):  # a failed candidate
            w = _slot_bytes(10 * w, 0, 0)


def _gcd_cofactors(a: IntPoly, b: IntPoly) -> tuple:
    # (g, a/g, b/g) for nonzero a, b, where g = gcd(c_a, c_b) q^min(v_a, v_b)
    # GCDHEU(p_a, p_b) is their gcd in Z[q] with a positive lead, for the
    # splits a = c_a q^(v_a) p_a and b = c_b q^(v_b) p_b.
    ca, va, pa = _split(a)
    cb, vb, pb = _split(b)
    c, v = math.gcd(ca, cb), min(va, vb)
    g, fa, fb = _heu_gcd(pa, pb)
    return _join(c, v, g), _join(ca // c, va - v, fa), _join(cb // c, vb - v, fb)


@functools.cache
def cyclotomic(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial, by exact division of q^m - 1.

    >>> str(cyclotomic(6))
    '1-q+q^2'
    """
    if m < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    f = IntPoly((-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            f = f.divexact(cyclotomic(d))
    return f


# ---------------------------------------------------------------------------
# Rational functions


class RatFunc:
    """Reduced quotient of two integer polynomials, as the q-suites print it.

    Invariants: the denominator is nonzero with positive leading coefficient,
    and numerator and denominator share no polynomial or integer content
    factor.  Equality is structural, which the normalization makes canonical.

    >>> str(RatFunc(IntPoly((0, 1)), IntPoly((1, 1))))
    'q/(1+q)'
    >>> RatFunc(IntPoly((0, 2, 2)), IntPoly((2, 2)))
    RatFunc(IntPoly([0, 1]), IntPoly([1]))
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num = P_ZERO
            self.den = P_ONE
            return
        _, num, den = _gcd_cofactors(num, den)
        if den.lead < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    @staticmethod
    def _coerce(value):
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, (IntPoly, int)):
            return RatFunc(value)
        return None

    # Run by no command; perfbench/trace_child.py wraps both by name (ROADMAP item 1).

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    # -- substitution ----------------------------------------------------------

    def subst_inverse(self) -> "RatFunc":
        """The rational function f(1/q), cleared of negative powers.

        >>> str(RatFunc(IntPoly((0, 1)), IntPoly((1, 1))).subst_inverse())
        '1/(1+q)'
        """
        if self.num.is_zero:
            return self
        m = max(self.num.degree, self.den.degree)

        def reverse(p: IntPoly) -> IntPoly:
            return IntPoly((0,) * (m - p.degree) + tuple(reversed(p.coeffs)))

        return RatFunc(reverse(self.num), reverse(self.den))

    # -- comparisons and rendering ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den == P_ONE:
            return str(self.num)

        def wrap(s: str) -> str:
            return f"({s})" if ("+" in s or "-" in s[1:]) else s

        return f"{wrap(str(self.num))}/{wrap(str(self.den))}"


# ---------------------------------------------------------------------------
# Quotient rings Z[q]/(m)


class QuotientRing:
    """Arithmetic in Z[q]/(m(q)) for a modulus with leading coefficient +-1.

    A ring made by :meth:`cyclotomic` knows its period m: Phi_m divides
    q^m - 1, so :meth:`reduce` first folds f mod q^m - 1, adding the
    coefficients whose degrees agree mod m, which leaves degree < m.  What is
    left, or f itself for any other modulus (such as q^2), is long-divided,
    subtracting only the nonzero terms of the modulus (5 of the 17 of
    Phi_40); that stays in Z because the leading coefficient is a unit.
    """

    __slots__ = ("modulus", "period", "zero", "one", "_terms")

    def __init__(self, modulus):
        modulus = _as_poly(modulus)
        if modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if modulus.lead not in (1, -1):
            raise ValueError("modulus must have leading coefficient +-1")
        self.modulus, self.period = modulus, None
        self.zero, self.one = QuotientElem(self, P_ZERO), QuotientElem(self, P_ONE)
        # q^dm = -(lower terms)/lead modulo the modulus, and 1/lead = lead: a
        # coefficient t at degree dm + k moves to t (-c lead) at i + k per term c q^i.
        self._terms = [(i, -c * modulus.lead) for i, c in enumerate(modulus.coeffs[:-1]) if c]

    @classmethod
    @functools.cache
    def cyclotomic(cls, m: int) -> "QuotientRing":
        """Z[q]/Phi_m(q), one instance per m, with period m."""
        ring = cls(cyclotomic(m))
        ring.period = m
        return ring

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QuotientRing):
            return NotImplemented
        return self.modulus == other.modulus

    def __repr__(self):
        return f"QuotientRing({self.modulus!r})"

    def from_int(self, n: int) -> "QuotientElem":
        return QuotientElem(self, IntPoly(n))

    def reduce(self, f) -> "QuotientElem":
        """Canonical representative of f modulo the modulus."""
        f = _as_poly(f)
        dm, p = self.modulus.degree, self.period
        if f.degree < dm:
            return QuotientElem(self, f)
        rem = _fold(f.coeffs, p) if p and f.degree >= p else list(f.coeffs)
        for k in range(len(rem) - 1 - dm, -1, -1):
            t = rem[dm + k]
            if t:
                for i, c in self._terms:
                    rem[i + k] += t * c
        return QuotientElem(self, IntPoly(rem[:dm]))


def _fold(coeffs: tuple, m: int) -> list:
    """The coefficients of f mod q^m - 1: q^m = 1 adds degree d into d mod m."""
    return [sum(coeffs[r::m]) for r in range(m)]


class QuotientElem:
    """An element of a :class:`QuotientRing`, stored by its canonical
    representative of degree below the modulus."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: QuotientRing, rep: IntPoly):
        self.ring = ring
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, QuotientElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixing elements of different quotient rings")
            return other
        if isinstance(other, (int, IntPoly)):
            return self.ring.reduce(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.rep:
            return self
        if not self.rep:
            return other
        return QuotientElem(self.ring, self.rep + other.rep)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuotientElem(self.ring, self.rep - other.rep)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.ring.reduce(self.rep * other.rep)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.rep == other.rep

    def __bool__(self):
        return bool(self.rep)

    def __repr__(self):
        return f"QuotientElem({self.rep!r} mod {self.ring.modulus!r})"

    def __str__(self):
        return str(self.rep)


# ---------------------------------------------------------------------------
# Ring protocol instances


class _Ring:
    """A coefficient ring of the protocol: its zero and its one."""

    __slots__ = ("zero", "one", "name")

    def __init__(self, zero, one, name: str):
        self.zero, self.one, self.name = zero, one, name

    def __repr__(self):
        return self.name


ZZ = _Ring(0, 1, "ZZ")
ZX = _Ring(P_ZERO, P_ONE, "ZX")


# ---------------------------------------------------------------------------
# Serialization used by the CLI layer


def serialize(value):
    """JSON-friendly exact encoding.

    Integers become decimal strings (they can exceed 64 bits), rationals
    "num/den" strings, polynomials arrays of decimal-string coefficients in
    ascending degree, and rational functions {"num": ..., "den": ...}.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not ring values")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, IntPoly):
        return [str(c) for c in value.coeffs]
    if isinstance(value, RatFunc):
        return {"num": [str(c) for c in value.num.coeffs],
                "den": [str(c) for c in value.den.coeffs]}
    raise TypeError(f"cannot serialize {value!r}")
