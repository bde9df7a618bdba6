"""Exact coefficient arithmetic for power product expansion computations.

Value types:

* built-in ``int`` and ``fractions.Fraction`` carry integers and rationals,
* :class:`IntPoly` is a dense polynomial over Z in the indeterminate q,
* :class:`RatFunc` is a reduced quotient of two :class:`IntPoly`,
* :class:`QuotientRing` / :class:`QuotientElem` give arithmetic in
  Z[q]/(m(q)) for a modulus with leading coefficient +-1 (cyclotomic
  polynomials, powers of q).

Everything is immutable and exact; no floating point anywhere.

A parameter out of range is a :class:`UsageError`, raised only by ``cli``
and by the functions that take a number from it, such as the matrix builders,
which check the sizes that ``pascal`` passes them; any other error that a
command meets is a bug.

A :class:`RatFunc` is a value that commands print; no suite computes with one.
``__init__`` normalises it once: it divides both sides by :func:`poly_gcd`,
the one gcd (GCDHEU of Char, Geddes and Gonnet, after powers of q and
contents are taken off), then by their common integer content.
``RatFunc.__add__`` and ``__mul__`` run in no command; they stay because the
benchmark's tracer wraps them by name.

``IntPoly`` products use Kronecker substitution (Kronecker 1882; see
Harvey, JSC 2009) when the lengths m, n of the factors have
m n >= 4 (m + n): evaluate at q = 2^k, with k a whole number of bytes wide
enough that every coefficient of the product is one balanced base-2^k digit,
do one C big-integer multiply, and read the digits back.  Slots of at most
8 bytes are rounded up to 1, 2, 4 or 8 bytes, the machine integers that
``array`` converts in one C call.  Smaller factors use the schoolbook loop.
:func:`poly_gcd` evaluates through the same packing.  Exact quotients are
schoolbook long division.

The coefficient-ring protocol of the generic series, expansion and matrix
code is ``zero`` and ``one``: the two instances ``ZZ`` and ``ZX`` at the
bottom hold them for ``int`` and :class:`IntPoly`, and a :class:`QuotientRing`
holds them for its own elements.  Each ring equals only itself, so elements
of two instances with one modulus do not mix; ``QuotientRing.cyclotomic`` and
``qsequences.mod_q2_ring`` each share one instance.  Elements do the rest
through their operators, are false exactly when zero and, in Z[q] and its
quotients, give q^k times themselves as ``shifted(k)``; none of that code
divides.
:func:`power` is the one power routine, of polynomials and of matrices.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from fractions import Fraction
from operator import add, neg, sub


class InexactDivisionError(ArithmeticError):
    """A division that was required to be exact left a remainder."""


class ConsistencyError(RuntimeError):
    """An identity guaranteed by theory failed to hold.

    Raised when a computation contradicts a proven statement (an integrality,
    divisibility, or closed-form cross-check).  It always signals a bug or a
    genuinely broken hypothesis, never bad user input.
    """


class UsageError(ValueError):
    """A parameter out of range: the one error ``ppx`` reports with exit code 2."""


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
# schoolbook coefficient products, so a product takes the kernel when the
# lengths m, n of its factors have m n >= _PACK_COST (m + n): from 8 x 8 up
# for equal lengths, never with a factor of 4 or fewer coefficients.  Timed
# call by call on the operands of the perfbench workloads, this rule costs
# at most 3% more than the best single constant and 7% more than picking the
# faster kernel for every call.  GCDHEU in poly_gcd packs its inputs at any
# size: the integers a(xi), b(xi) are what it works on.
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


def power(base, k: int):
    """base ** k for k >= 1 by repeated squaring, with no product by one and
    no square after the last bit of k: the one power routine, of
    :class:`IntPoly` and of ``pascal.SquareMatrix``."""
    result = None
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def _aligned(op):
    # IntPoly + or - in one pass: op on each pair of coefficients, the shorter
    # side padded with 0, past which the longer side's tail is kept as a slice
    # (negated on the right of -); IntPoly trims the result.
    def combine(self, other):
        a, b = self.coeffs, _as_poly(other).coeffs
        if len(a) >= len(b):
            return IntPoly([*map(op, a, b), *a[len(b):]])
        tail = b[len(a):]
        return IntPoly([*map(op, a, b), *(tail if op is add else map(neg, tail))])
    return combine


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
        cs = (coeffs,) if isinstance(coeffs, int) else tuple(coeffs)
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        self.coeffs = cs if n == len(cs) else cs[:n]

    @classmethod
    def monomial(cls, coeff: int, k: int) -> "IntPoly":
        """The polynomial coeff * q^k."""
        return cls((0,) * k + (coeff,))

    # -- structure ---------------------------------------------------------

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
        if not self.coeffs:
            return self
        c = self.content
        if self.lead < 0:
            c = -c
        if c == 1:
            return self
        return IntPoly(tuple(x // c for x in self.coeffs))

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by q^k."""
        if not self.coeffs or k == 0:
            return self
        return IntPoly((0,) * k + self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    __add__ = __radd__ = _aligned(add)
    __sub__ = _aligned(sub)

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

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
        than it saves, use the schoolbook loop.  A factor with one coefficient
        c, an int included, scales the other by c, and returns it for c = 1.

        >>> str(IntPoly((1, -1) * 8) * IntPoly((1,) * 16))
        '1+q^2+q^4+q^6+q^8+q^10+q^12+q^14-q^16-q^18-q^20-q^22-q^24-q^26-q^28-q^30'
        """
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return P_ZERO
        a, b = self.coeffs, other.coeffs
        if len(a) == 1 or len(b) == 1:
            (c,), p = (a, other) if len(a) == 1 else (b, self)
            return p if c == 1 else IntPoly(tuple(c * x for x in p.coeffs))
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
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, k) if k else P_ONE

    # -- division -----------------------------------------------------------

    def divexact(self, other) -> "IntPoly":
        """Exact division over Z; raises :class:`InexactDivisionError` if the
        quotient does not exist with integer coefficients.

        Schoolbook long division: each quotient coefficient, from the top,
        is an exact division by the lead of the divisor, and the remainder
        left at the end must be zero.

        >>> (IntPoly((1,) * 16) ** 2).divexact(IntPoly((1,) * 16)) == IntPoly((1,) * 16)
        True
        """
        other = _as_poly(other)
        if not other:
            raise ZeroDivisionError("exact division by the zero polynomial")
        if not self.coeffs:
            return P_ZERO
        da, db = self.degree, other.degree
        if da < db:
            raise InexactDivisionError(f"({self}) is not divisible by ({other})")
        a, b = self.coeffs, other.coeffs
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
        return bool(self.coeffs)

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

    Each nonzero side is written c q^v p, with c its content, v its lowest
    degree and p primitive with p(0) != 0; the gcd is q^min(v) times the gcd
    of the two parts p, which is 1 at once when either has degree 0 (a side
    c q^k).  Otherwise it is the heuristic gcd GCDHEU (Char, Geddes and
    Gonnet, 1989): for an integer xi >= 2 min(|a|, |b|) + 2, where |.| is the
    largest coefficient magnitude, the primitive part G of the polynomial
    whose balanced xi-adic digits are gcd(a(xi), b(xi)) is the gcd as soon as
    G divides both a and b; that exact division is the check every answer
    passes.  Here xi is a power of two 2^(8w), above 2^8 max(|a|, |b|), so
    a(xi) and b(xi) are Kronecker packings (one word slot per coefficient
    when w <= 8) and the digits of the integer gcd are one unpacking of at
    most min(len a, len b) coefficients; a candidate that needs more fails.
    On a failed candidate xi grows to about xi^(5/4), as in SymPy's
    dup_zz_heu_gcd, and the evaluation is repeated.  The loop ends:
    gcd(a(xi), b(xi)) = g(xi) s, where the integer s divides
    Res(a/g, b/g), which does not depend on xi; once xi/2 > s |g|, the
    balanced digits spell s g, whose primitive part is g.

    >>> poly_gcd(IntPoly((1, 1)), IntPoly((1, 0, -1)))
    IntPoly([1, 1])
    """
    a, b = _as_poly(a), _as_poly(b)
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    if not a or not b:
        return (a or b).primitive_positive()
    va, vb = (next(i for i, x in enumerate(p.coeffs) if x) for p in (a, b))
    a, b = (IntPoly(p.coeffs[v:]).primitive_positive() for p, v in ((a, va), (b, vb)))
    g = P_ONE
    if a.degree > 0 and b.degree > 0:
        n = min(len(a.coeffs), len(b.coeffs))
        w = _slot_bytes(max(_bits(a.coeffs), _bits(b.coeffs)), 8, 0)
        while True:
            h = math.gcd(_pack(a.coeffs, w), _pack(b.coeffs, w))
            try:
                g = IntPoly(_unpack(h, n, w)).primitive_positive()
                if g.degree > 0:  # the check: g divides both parts exactly
                    a.divexact(g)
                    b.divexact(g)
                break
            except (OverflowError, InexactDivisionError):  # a failed candidate
                w = _slot_bytes(10 * w, 0, 0)
    return g.shifted(min(va, vb))


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
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num = P_ZERO
            self.den = P_ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, den = num.divexact(g), den.divexact(g)
        c = math.gcd(num.content, den.content)
        if den.lead < 0:
            c = -c
        if c != 1:
            num, den = IntPoly(x // c for x in num.coeffs), IntPoly(x // c for x in den.coeffs)
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
        num, den = str(self.num), str(self.den)
        if "+" in num or "-" in num[1:]:
            num = f"({num})"
        # The lead of den is positive.  A sum, or c q^k with c != 1, is
        # bracketed: 3/2q would read as (3/2)q.
        if "+" in den or "-" in den or "q" in den[1:]:
            den = f"({den})"
        return f"{num}/{den}"


# ---------------------------------------------------------------------------
# Quotient rings Z[q]/(m)


class QuotientRing:
    """Arithmetic in Z[q]/(m(q)) for a modulus with leading coefficient +-1.

    A ring made by :meth:`cyclotomic` knows its period m: Phi_m divides
    q^m - 1, so :meth:`reduce` first folds f mod q^m - 1, adding the
    coefficients whose degrees agree mod m, which leaves degree < m.  What is
    left, or f itself for any other modulus, is long-divided, subtracting only
    the nonzero terms of the modulus (5 of the 17 of Phi_40; none, a truncation,
    for +-q^d); that stays in Z because the leading coefficient is a unit.
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

    def __repr__(self):
        return f"QuotientRing({self.modulus!r})"

    def reduce(self, f) -> "QuotientElem":
        """Canonical representative of f modulo the modulus."""
        f = _as_poly(f)
        dm, p = self.modulus.degree, self.period
        if f.degree < dm:
            return QuotientElem(self, f)
        if not self._terms:
            return QuotientElem(self, IntPoly(f.coeffs[:dm]))
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
            if other.ring is not self.ring:
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

    def shifted(self, k: int) -> "QuotientElem":
        """Multiply by q^k."""
        return self.ring.reduce(self.rep.shifted(k))

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
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, IntPoly):
        return [str(c) for c in value.coeffs]
    if isinstance(value, RatFunc):
        return {"num": serialize(value.num), "den": serialize(value.den)}
    raise TypeError(f"cannot serialize {value!r}")
