"""Exact scalar arithmetic: rationals and real quadratic field elements.

Rational values are plain ``fractions.Fraction`` throughout the package
(always stored reduced, positive denominator).  ``QuadExt`` adds elements
a + b*sqrt(d) of a real quadratic field, with d a squarefree non-negative
integer.  All arithmetic, sign tests and comparisons are exact; nothing in
this module touches floating point except ``QuadExt.__float__``, which
exists only for coordinate emission at the rendering layer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import isqrt
from typing import Union

Rational = Union[int, Fraction]


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 0 as s*s*d with d squarefree; return (s, d).

    Trial division while p^3 <= m, the part still unfactored.  The
    cofactor then has no prime factor below its cube root, so it is 1, a
    prime, a product of two distinct primes or a prime square, and one
    ``isqrt`` tells the square apart.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 1, 0
    s, d, m = 1, 1, n
    p = 2
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        return s * r, d
    return s, d * m


def _sign(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d >= 0: equal signs of a and b decide,
    else the larger of a*a and b*b*d does (zero when they are equal)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    t = a * a - b * b * d
    return sa if sa == sb or t > 0 else (sb if t < 0 else 0)


def _power(x, k: int):
    """x ** k for k >= 1 by square-and-multiply from x itself: one
    squaring per bit after the top one and one product by x per further
    set bit, k.bit_length() + k.bit_count() - 2 products in all.  Both
    exact types, ``QuadExt`` and ``linalg.Matrix``, take their powers here.
    """
    out = x
    for bit in bin(k)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


@total_ordering
class QuadExt:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    The radicand d is kept squarefree and >= 0; purely rational values are
    normalized to d = 0.  Mixing two genuinely irrational values with
    different radicands raises ``ValueError`` -- a single field per
    computation context is all that is ever needed here.  The constructor
    normalizes its input; arithmetic results, whose radicand is already
    squarefree, are built by ``_reduced`` without factoring it again.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational = 0, b: Rational = 0, d: int = 0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("exact scalars do not accept floats")
        a, b = Fraction(a), Fraction(b)
        d = int(d)
        if d < 0:
            raise ValueError("negative radicand")
        if b == 0:
            d = 0
        else:
            s, d = squarefree_decompose(d)
            b *= s
            if d <= 1:
                a += b * d
                b = Fraction(0)
                d = 0
        self.a = a
        self.b = b
        self.d = d

    @classmethod
    def _reduced(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """a + b*sqrt(d) for a squarefree d that is 0 or > 1."""
        q = object.__new__(cls)
        q.a, q.b, q.d = a, b, (d if b else 0)
        return q

    # -- helpers -------------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} is irrational")
        return self.a

    def conjugate(self) -> "QuadExt":
        return QuadExt._reduced(self.a, -self.b, self.d)

    def _lift(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            if self.b != 0 and other.b != 0 and self.d != other.d:
                raise ValueError(f"mixed radicands {self.d} and {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt._reduced(Fraction(other), Fraction(0), 0)
        return None

    def _radicand_with(self, other: "QuadExt") -> int:
        return self.d if self.b != 0 else other.d

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt._reduced(self.a + o.a, self.b + o.b,
                                self._radicand_with(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._reduced(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d = self._radicand_with(o)
        return QuadExt._reduced(self.a * o.a + self.b * o.b * d,
                                self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        nrm = self.a * self.a - self.b * self.b * self.d
        if nrm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        return QuadExt._reduced(self.a / nrm, -self.b / nrm, self.d)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k) if k else QuadExt(1)

    # -- exact ordering (<=, > and >= from __lt__ and __eq__) ----------

    def sign(self) -> int:
        """Exact sign of the real number a + b*sqrt(d)."""
        return _sign(self.a, self.b, self.d)

    def __eq__(self, other):
        try:
            o = self._lift(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and (self.b == 0 or self.d == o.d)

    def __lt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- conversion / display -------------------------------------------

    def __float__(self) -> float:
        # rendering-only escape hatch; core math never calls this
        from math import sqrt
        return float(self.a) + float(self.b) * sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


def sqrt_exact(x: Rational) -> QuadExt:
    """Exact square root of a non-negative rational, as a QuadExt."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    s, d = squarefree_decompose(x.numerator * x.denominator)
    b = Fraction(s, x.denominator)
    return QuadExt(b * d) if d <= 1 else QuadExt._reduced(Fraction(0), b, d)


def quad_roots(b: Rational, c: Rational) -> tuple[QuadExt, QuadExt]:
    """Both roots of x**2 + b*x + c, exactly, larger root first.

    The radicand of the result is the squarefree part of the discriminant;
    a negative discriminant raises ``ValueError``.
    """
    b, c = Fraction(b), Fraction(c)
    disc = b * b - 4 * c
    if disc < 0:
        raise ValueError("negative discriminant")
    root = sqrt_exact(disc)
    half_b = QuadExt(-b / 2)
    half_root = root * Fraction(1, 2)
    return half_b + half_root, half_b - half_root
