"""Exact dense linear algebra over rationals and quadratic field scalars.

Matrices are immutable tuples-of-tuples.  Entries are ``Fraction`` (integer
inputs are promoted) or ``QuadExt``; every operation is exact.  Sizes here
are tiny (the Picard rank m), so two textbook algorithms with exact
division do all the work: Gauss-Jordan elimination (``_row_reduce``) for
``det``, ``inverse`` and ``nullspace_vector``, and the Faddeev-LeVerrier
recursion for ``charpoly``, whose coefficients give ``signature`` by
Descartes' rule of signs.

Products (``Matrix * Matrix`` and ``Matrix * vector``) of rational operands
run on Python ints: ``_scaled`` writes each row of the left operand and
each column of the right one (or the vector) as integer numerators over
one common denominator, so entry (i, j) is a single
``Fraction(sum(a_i * b_j), d_i * d_j)`` instead of about 2k ``Fraction``
operations, each with its own gcd, or ``Fraction(sum)`` when that
denominator is 1.  When some entry is not rational (``QuadExt``) the
product goes through ``dot``.  Products, ``transpose`` and ``columns`` do
not re-normalise entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exact import QuadExt, _sign


def _norm_entry(e):
    if isinstance(e, (Fraction, QuadExt)):
        return e
    if isinstance(e, float):
        raise TypeError("exact matrices do not accept floats")
    return Fraction(e)


def _scaled(vectors):
    """Each vector as (integer numerators, common denominator), or None
    when some entry is not rational."""
    out = []
    for vec in vectors:
        if not all(isinstance(x, (Fraction, int)) for x in vec):
            return None
        d = lcm(*[x.denominator for x in vec])
        if d == 1:
            out.append(([x.numerator for x in vec], 1))
        else:
            out.append(([x.numerator * (d // x.denominator) for x in vec], d))
    return out


def _product(rows, cols):
    """Entry (i, j) is rows[i] . cols[j]: on ints from their ``_scaled``
    forms, or through ``dot`` when some entry is not rational."""
    cols = tuple(cols)
    left = _scaled(rows)
    right = left and _scaled(cols)
    if not right:
        return tuple(tuple(dot(row, col) for col in cols) for row in rows)
    out = []
    for a, da in left:
        row = []
        for b, db in right:
            s, d = sum(map(mul, a, b)), da * db
            row.append(Fraction(s) if d == 1 else Fraction(s, d))
        out.append(tuple(row))
    return tuple(out)


def dot(u, v):
    """Exact inner product of two same-length vectors."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    total = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        total = total + x * y
    return total


class Matrix:
    """Immutable exact matrix."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(_norm_entry(e) for e in row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.rows, self.nrows, self.ncols = rows, len(rows), width

    @classmethod
    def _of(cls, rows) -> "Matrix":
        """A matrix on rows already normalised, taken as is."""
        self = object.__new__(cls)
        self.rows, self.nrows, self.ncols = rows, len(rows), len(rows[0])
        return self

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        return Matrix([[Fraction(0)] * m for _ in range(n)])

    @staticmethod
    def from_columns(cols) -> "Matrix":
        cols = [tuple(c) for c in cols]
        return Matrix([[cols[j][i] for j in range(len(cols))]
                       for i in range(len(cols[0]))])

    # -- structure -------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows) for j in range(i))

    def column(self, j: int) -> tuple:
        """Column j, 1-based."""
        if not 1 <= j <= self.ncols:
            raise IndexError("column index out of range")
        return tuple(row[j - 1] for row in self.rows)

    def columns(self) -> tuple:
        return tuple(zip(*self.rows))

    def transpose(self) -> "Matrix":
        return Matrix._of(tuple(zip(*self.rows)))

    def map(self, f) -> "Matrix":
        return Matrix([[f(e) for e in row] for row in self.rows])

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __neg__(self):
        return self.map(lambda e: -e)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            return Matrix._of(_product(self.rows, zip(*other.rows)))
        if isinstance(other, (tuple, list)):
            if self.ncols != len(other):
                raise ValueError("dimension mismatch")
            if any(isinstance(x, float) for x in other):
                raise TypeError("exact matrices do not accept floats")
            return tuple(row[0] for row in _product(self.rows, (other,)))
        if isinstance(other, (int, Fraction, QuadExt)):
            return self.map(lambda e: e * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            return self.map(lambda e: other * e)
        return NotImplemented

    def __pow__(self, k: int):
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        out = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- elimination-based operations --------------------------------------

    def det(self):
        """Exact determinant: the signed product of the elimination pivots."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, product = _row_reduce(self.rows, self.ncols)
        return product if len(pivots) == self.nrows else Fraction(0)

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan; raises ValueError when singular."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        rows, pivots, _ = _row_reduce(
            [list(r) + [Fraction(int(i == j)) for j in range(n)]
             for i, r in enumerate(self.rows)], n)
        if len(pivots) < n:
            raise ValueError("singular matrix")
        return Matrix([row[n:] for row in rows])

    def charpoly(self) -> tuple:
        """Monic characteristic polynomial, constant coefficient first.

        Faddeev-LeVerrier recursion: exact over the rationals, no
        eigensolves, no fraction-free bookkeeping needed at this size.
        """
        if not self.is_square:
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.nrows
        coeffs = [Fraction(1)]          # descending powers: x^n first
        mk = Matrix.identity(n)
        for k in range(1, n + 1):
            am = self * mk
            trace = am.rows[0][0]
            for i in range(1, n):
                trace = trace + am.rows[i][i]
            ck = -(trace / k)
            coeffs.append(ck)
            if k < n:
                mk = am + Matrix.identity(n) * ck
        return tuple(reversed(coeffs))

    def signature(self) -> tuple[int, int, int]:
        """Exact inertia (positives, negatives, zeros) of a symmetric matrix.

        Descartes' rule of signs on the characteristic polynomial p: the
        sign changes of its non-zero coefficients count the positive
        eigenvalues, those of p(-x) the negative ones.  The count is exact
        because a real symmetric matrix has only real eigenvalues.
        """
        if not self.is_symmetric():
            raise ValueError("signature of a non-symmetric matrix")
        coeffs = self.charpoly()

        def changes(cs):
            signs = [c > 0 for c in cs if c != 0]
            return sum(a != b for a, b in zip(signs, signs[1:]))

        pos = changes(coeffs)
        neg = changes([-c if k % 2 else c for k, c in enumerate(coeffs)])
        return pos, neg, self.nrows - pos - neg

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"


def _row_reduce(rows, ncols):
    """Gauss-Jordan elimination on the first ``ncols`` columns.

    Returns the reduced rows, the pivot column of each leading row, and the
    product of the pivots, negated once per row swap (the determinant when
    every column has a pivot).  Works over any exact field the entries
    support (rationals or a fixed quadratic extension).
    """
    a = [list(r) for r in rows]
    pivots = []
    product = Fraction(1)
    for col in range(ncols):
        row = len(pivots)
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            product = -product
        pv = a[row][col]
        product = product * pv
        a[row] = [x / pv for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return a, pivots, product


def nullspace_vector(mat: Matrix):
    """One nonzero kernel vector of a square matrix, or None if invertible."""
    rows, pivots, _ = _row_reduce(mat.rows, mat.ncols)
    free = [c for c in range(mat.ncols) if c not in pivots]
    if not free:
        return None
    c0 = free[0]
    vec = [Fraction(0)] * mat.ncols
    vec[c0] = Fraction(1)
    for r, pc in enumerate(pivots):
        vec[pc] = -rows[r][c0]
    return tuple(vec)


def primitive_int_vector(vec) -> tuple[int, ...]:
    """Rescale an exact rational vector to coprime integers.

    Direction-preserving: the scaling factor is always positive, so ray
    orientation is never flipped.
    """
    fracs = [Fraction(x) for x in vec]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector has no primitive form")
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _primitive_pair(a, b, d: int) -> tuple[QuadExt, ...]:
    """Primitive form of a + b*sqrt(d), a and b integer lists: divided by
    the gcd of all their entries, signed so the coordinate sum is positive
    (the first nonzero coordinate decides when the sum vanishes)."""
    g = gcd(*a, *b)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    g *= _sign(sum(a), sum(b), d) or next(
        filter(None, map(_sign, a, b, [d] * len(a))))
    return tuple(QuadExt._reduced(Fraction(x // g), Fraction(y // g), d)
                 for x, y in zip(a, b))


def primitive_quad_vector(vec) -> tuple[QuadExt, ...]:
    """Primitive form of a quadratic-field vector: ``_primitive_pair`` of
    its rational and radical coefficients, denominators cleared."""
    vals = [v if isinstance(v, QuadExt) else QuadExt(v) for v in vec]
    radicands = {v.d for v in vals if v.b}
    if len(radicands) > 1:
        raise ValueError(f"mixed radicands {sorted(radicands)}")
    denom = lcm(*(x.denominator for v in vals for x in (v.a, v.b)))
    return _primitive_pair([int(v.a * denom) for v in vals],
                           [int(v.b * denom) for v in vals],
                           max(radicands, default=0))
