"""Reflection groups attached to Calabi-Yau complete intersections.

For parameters (n, m) -- n the dimension of each projective-space factor,
m the number of factors / the Picard rank -- the group is generated by m
involutions whose Gram matrix has unit diagonal and constant off-diagonal
entries -n/2, so the pair (n, m) is the whole system.  This module builds
the Gram matrix, the reflection matrices in both the primal and the dual
basis, permutation matrices, the invariant integral quadric, and the
Lorentzian signature data, the last two in closed form:
G = (1 + n/2)*I - (n/2)*J (J all ones) has eigenvalues 1 + n/2 > 0 and
1 - n(m-1)/2, so it has signature (m-1, 1, 0) iff n(m-1) > 2, is singular iff
n(m-1) = 2, and else has an inverse proportional to (2 - n(m-1))*I + n*J.

t_k is the identity with column k replaced by (n, ..., n, -1, n, ..., n),
so appending t_k to a word rewrites column k of its matrix only, to
n*(rowsum - col_k) - col_k: ``_t_step``, the one construction of t_k,
behind ``CoxeterSystem.t`` and every t-word listing.  These matrices have
determinant +-1, so their columns are primitive rays.

Interfaces are 1-based throughout, matching the hyperplane classes
H_1, ..., H_m; storage is 0-based internally.  Every index taken here or
in ``bir`` passes ``_index``, the one rule (see ``bir`` for its fast path).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .linalg import Matrix


def _index(hi: int, *indices, lo: int = 1, what: str = "generator index"):
    """The one index rule: each an int (not a bool) in lo..hi, none twice."""
    for k, i in enumerate(indices):
        if type(i) is not int or not lo <= i <= hi:
            raise IndexError(f"{what} {i!r} out of range {lo}..{hi}")
        if i in indices[:k]:
            raise ValueError(f"{what} {i!r} given twice")


class Permutation(NamedTuple("Permutation", [("images", tuple[int, ...])])):
    """A permutation of {1, ..., m}, stored by its tuple of images.

    An immutable named tuple of one field; ``*`` is composition, not tuple
    repetition, and the constructor refuses a tuple that is not a
    permutation of 1..m by ints.
    """

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]) -> "Permutation":
        m = len(images)
        if (any(type(x) is not int for x in images)
                or sorted(images) != list(range(1, m + 1))):
            raise ValueError(f"not a permutation of 1..{m}: {images}")
        return cls._of(images)

    @classmethod
    def _of(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation from images that are one by construction,
        built without the check."""
        return tuple.__new__(cls, (images,))

    @staticmethod
    def identity(m: int) -> "Permutation":
        return Permutation._of(tuple(range(1, m + 1)))

    @staticmethod
    def transposition(m: int, i: int, j: int) -> "Permutation":
        """The 2-cycle (i j); i == j raises like ``from_cycle``."""
        return Permutation.from_cycle(m, (i, j))

    @staticmethod
    def from_cycle(m: int, cycle) -> "Permutation":
        """The cycle (c1 c2 ... ck): maps c1 -> c2 -> ... -> ck -> c1."""
        cycle = list(cycle)
        _index(m, *cycle, what="cycle entry")
        imgs = list(range(1, m + 1))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            imgs[a - 1] = b
        return Permutation._of(tuple(imgs))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        images = self.images
        if len(images) != len(other.images):
            raise ValueError("degree mismatch")
        return Permutation._of(tuple([images[k - 1] for k in other.images]))

    def inverse(self) -> "Permutation":
        imgs = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            imgs[img - 1] = i
        return Permutation._of(tuple(imgs))

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.degree + 1))

    def sign(self) -> int:
        """(-1) to the number of inversions."""
        inversions = sum(a > b for a, b in combinations(self.images, 2))
        return -1 if inversions % 2 else 1


def _t_step(n: int, cols, k: int):
    """The columns of W * t_k from those of W (see the module docstring)."""
    rowsums = map(sum, zip(*cols))
    new = tuple(n * (s - c) - c for s, c in zip(rowsums, cols[k - 1]))
    return cols[:k - 1] + (new,) + cols[k:]


def _identity_columns(m: int):
    return tuple(tuple(int(r == c) for r in range(m)) for c in range(m))


def perm_matrix(sigma: Permutation) -> Matrix:
    """Matrix with column l equal to the standard vector e_{sigma(l)}.

    This is the unique convention compatible with both identities
    P(sigma)*P(tau) = P(sigma*tau) and P(sigma)*t_i = t_{sigma(i)}*P(sigma).
    """
    m = sigma.degree
    rows = [[Fraction(0)] * m for _ in range(m)]
    for l in range(1, m + 1):
        rows[sigma(l) - 1][l - 1] = Fraction(1)
    return Matrix(rows)


def reflection_from_gram(gram: Matrix, i: int) -> Matrix:
    """Reflection w -> w - 2*Q(w, alpha_i)*alpha_i in the alpha basis.

    Low-level entry point for an arbitrary Gram matrix Q (unit diagonal,
    off-diagonal entries <= -1 for the infinite-order pairs); the (n, m)
    family is the special case Q_ij = -n/2.
    """
    m = gram.nrows
    _index(m, i)
    rows = [list(r) for r in Matrix.identity(m).rows]
    rows[i - 1] = [(Fraction(int(j == i - 1)) - 2 * gram.rows[i - 1][j])
                   for j in range(m)]
    return Matrix(rows)


def dual_reflection_from_gram(gram: Matrix, i: int) -> Matrix:
    """The same reflection acting on the dual basis: the transpose."""
    return reflection_from_gram(gram, i).transpose()


class CoxeterSystem:
    """The rank-m reflection group of the (n, m) family.

    The pair of ints n >= 1, m >= 2 (else ``ValueError``; a bool is no
    int here) fixes every datum.  The Gram matrix has 1 on the diagonal and
    -n/2 off it; for n = 1 the products of two distinct generators have
    order 3, for n >= 2 infinite order (a free product of m copies of Z/2Z).
    """

    def __init__(self, n: int, m: int):
        if not (type(n) is type(m) is int and n >= 1 and m >= 2):
            raise ValueError(f"need n >= 1 and m >= 2, got ({n}, {m})")
        self.n = n
        self.m = m
        self.lorentzian = n * (m - 1) > 2
        self._dual_cache: dict[int, Matrix] = {}

    def __repr__(self):
        return f"CoxeterSystem(n={self.n}, m={self.m})"

    @cached_property
    def gram(self) -> Matrix:
        """1 on the diagonal, -n/2 off it; built on first read."""
        off, m = Fraction(-self.n, 2), self.m
        return Matrix([[Fraction(1) if i == j else off for j in range(m)]
                       for i in range(m)])

    def tau(self, i: int) -> Matrix:
        """Generator matrix in the primal (simple-root) basis."""
        return reflection_from_gram(self.gram, i)

    def t(self, i: int) -> Matrix:
        """Generator matrix in the dual basis: ``_t_step`` on the
        identity's columns (see the module docstring)."""
        _index(self.m, i)
        if i not in self._dual_cache:
            self._dual_cache[i] = Matrix.from_columns(
                _t_step(self.n, _identity_columns(self.m), i))
        return self._dual_cache[i]

    def quadric_matrix(self) -> Matrix:
        """Primitive integral matrix of the invariant quadric.

        The inverse Gram matrix is a multiple of (2 - n(m-1))*I + n*J, so
        with d = 2 - n(m-2) this is s*(d*I + n*(J - I)) / gcd(d, n), where
        s = -1 if d < 0 and +1 otherwise: the standard basis rays evaluate
        >= 0, and the all-ones vector > 0 when d = 0.  Raises
        ValueError("singular matrix") when n(m-1) = 2, on every call.
        """
        return self._quadric

    @cached_property
    def _quadric(self) -> Matrix:
        n, m = self.n, self.m
        if n * (m - 1) == 2:
            raise ValueError("singular matrix")
        d = 2 - n * (m - 2)
        g = gcd(d, n) * (-1 if d < 0 else 1)
        return Matrix([[(d if r == c else n) // g for c in range(m)]
                       for r in range(m)])

    def gram_eigen_check(self) -> bool:
        """Exact verification of the two eigenvalue families of the Gram
        matrix: 1 + n/2 on the differences e_1 - e_i, and 1 - n(m-1)/2 on
        the all-ones vector."""
        n, m = self.n, self.m
        pairs = [(1 - Fraction(n * (m - 1), 2), (1,) * m)] + [
            (1 + Fraction(n, 2), tuple((k == 0) - (k == i) for k in range(m)))
            for i in range(1, m)]
        return all(self.gram * v == tuple(lam * x for x in v)
                   for lam, v in pairs)


def build_system(n: int, m: int, enforce_dimension_bound: bool = False) -> CoxeterSystem:
    """The system ``CoxeterSystem(n, m)``, which checks the range.

    With ``enforce_dimension_bound`` the parameters must also satisfy
    n*m - (n+1) >= 3, the threefold bound on the dimension of the
    Calabi-Yau complete intersections the group acts for; the range error
    comes first.
    """
    sys = CoxeterSystem(n, m)
    if enforce_dimension_bound and n * m - (n + 1) < 3:
        raise ValueError(f"parameters ({n}, {m}) violate n*m - (n+1) >= 3")
    return sys
