"""The (n, m) = (2, 3) family member cut out by a symmetric form.

When the defining form is invariant under swapping the first two factors,
the map through models 1 and 2 becomes a biregular involution a, and the
group acting on the movable cone is generated by a and the infinite-order
map b through models 1 and 3:  Z/2 * Z, with a b a equal to the map
through models 2 and 3.  The fundamental region is the quadrilateral half
of the general hexagon cut along the symmetry axis, and the
pseudoeffective cone acquires boundary segments tangent to the quadric.

Everything here is hard-coded to (n, m) = (2, 3); no other parameters
produce this picture concretely.  Its fixed data is built once per process,
on first use: the base system and one table of a, b and b^-1; the
fundamental domain and the classes D1, D2 are literal data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import mul
from typing import NamedTuple

from .atlas import Chamber, isotropy_value
from .bir import psi_matrix, reduced_walk
from .coxeter import CoxeterSystem, Permutation, build_system, perm_matrix
from .linalg import Matrix, dot, primitive_int_vector


@cache
def base_system() -> CoxeterSystem:
    return build_system(2, 3)


@cache
def _generator_table() -> dict[str, Matrix]:
    """The matrices of the letters a, b and B = b^-1, built once."""
    base = base_system()
    return {"a": perm_matrix(Permutation.transposition(3, 1, 2)),
            "b": psi_matrix(base, 1, 3), "B": psi_matrix(base, 3, 1)}


def sym_generators() -> tuple[Matrix, Matrix]:
    """The two generators acting on divisor classes: the coordinate swap
    a (order two) and the infinite-order map b through models 1 and 3."""
    table = _generator_table()
    return table["a"], table["b"]


def sym_relation_check() -> bool:
    """a * b * a must equal the map through models 2 and 3 exactly."""
    a, b = sym_generators()
    return a * b * a == psi_matrix(base_system(), 2, 3)


def sym_fundamental_domain() -> tuple[tuple[int, ...], ...]:
    """Rays of the quadrilateral fundamental region, in the cyclic order of
    the affine chart: e3, (-1,2,2), e2, (2,2,-1)."""
    return ((0, 0, 1), (-1, 2, 2), (0, 1, 0), (2, 2, -1))


class TangentLine(NamedTuple):
    """A line p^T * Qhat * x = 0 tangent to the quadric at the point p."""

    coefficients: tuple[int, int, int]

    def evaluate(self, v):
        return dot(self.coefficients, tuple(v))


def tangent_line(p) -> TangentLine:
    """Tangent line to the quadric conic at a point of the conic."""
    sys = base_system()
    p = tuple(Fraction(x) for x in p)
    if isotropy_value(sys, p) != 0:
        raise ValueError(f"{p} is not on the quadric")
    coeffs = primitive_int_vector(sys.quadric_matrix() * p)
    return TangentLine(coeffs)


def d_classes() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two integral divisor classes at the tangent-line crossings:
    D1 = (-2, 2, 6), where the tangents at e3 and at (-1,2,2) meet, and its
    image D2 = (2, -2, 6) under the swap a, each twice its primitive ray.
    Like the fundamental domain they are data; verify's ``tangency`` and
    ``d-outside-quadric`` checks and ``test_d_classes`` confirm that each
    lies on its two tangent lines and outside the quadric."""
    return (-2, 2, 6), (2, -2, 6)


# ---------------------------------------------------------------------------
# words in Z/2 * Z


class SymWord(NamedTuple):
    """Normal form in Z/2 * Z: alternating syllables ('a', 1) / ('b', k)."""

    syllables: tuple[tuple[str, int], ...]

    @staticmethod
    def identity() -> "SymWord":
        return SymWord(())

    @staticmethod
    def from_letters(letters) -> "SymWord":
        """Build from a sequence over {'a', 'b', 'B'} (B the inverse of b)."""
        return reduce(_append, letters, SymWord.identity())

    @property
    def syllable_length(self) -> int:
        return len(self.syllables)

    def matrix(self) -> Matrix:
        gens = _generator_table()
        factors = [gens["a"] if gen == "a"
                   else gens["b" if k > 0 else "B"] ** abs(k)
                   for gen, k in self.syllables]
        return reduce(mul, factors) if factors else Matrix.identity(3)

    def spell(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for gen, k in self.syllables:
            parts.append(gen if k == 1 else f"{gen}^{k}")
        return ".".join(parts)


_SYM_INVERSE = {"a": "a", "b": "B", "B": "b"}


def _append(word: SymWord, ch: str) -> SymWord:
    # right-multiply by one letter of Z/2 * Z, where a*a and b^k*b^-k cancel
    syl = word.syllables
    if ch == "a":
        if syl and syl[-1][0] == "a":
            return SymWord(syl[:-1])
        return SymWord(syl + (("a", 1),))
    if ch not in ("b", "B"):
        raise ValueError(f"unknown letter {ch!r}")
    step = 1 if ch == "b" else -1
    if syl and syl[-1][0] == "b":
        k = syl[-1][1] + step
        return SymWord(syl[:-1] + ((("b", k),) if k else ()))
    return SymWord(syl + (("b", step),))


def sym_words(depth: int):
    """All freely reduced words over {a, b, b^-1} of letter length <= depth,
    as SymWord normal forms, breadth-first."""
    for _, word in reduced_walk("abB", _SYM_INVERSE, _append,
                                SymWord.identity(), depth):
        yield word


def _sym_walk(depth: int):
    """(SymWord, matrix) of every reduced word, in the order of sym_words."""
    gens = _generator_table()

    def step(state, ch):
        word, mat = state
        return _append(word, ch), mat * gens[ch]

    for _, state in reduced_walk("abB", _SYM_INVERSE, step,
                                 (SymWord.identity(), Matrix.identity(3)),
                                 depth):
        yield state


class SymChamber(NamedTuple):
    """A translate of the quadrilateral fundamental region."""

    word: SymWord
    rays: tuple[tuple[int, ...], ...]     # cyclic order preserved

    ray_key = Chamber.ray_key
    interior_point = Chamber.interior_point


def sym_enumerate(depth: int) -> list[SymChamber]:
    """Translates g . Pi of the quadrilateral for all reduced words up to
    the given depth; distinct words give distinct translates, so there are
    3 * 2^depth - 2 of them."""
    base = Matrix.from_columns(sym_fundamental_domain())
    return [SymChamber(word, tuple(map(primitive_int_vector,
                                       (mat * base).columns())))
            for word, mat in _sym_walk(depth)]


# ---------------------------------------------------------------------------
# expected pseudoeffective boundary


class PsefPatch(NamedTuple):
    """A piece of pseudoeffective-boundary data attached to one group
    translate.  ``status`` separates the proven boundary segments from the
    conjectural tangential gluing read off the expected picture."""

    word: SymWord
    label: str
    rays: tuple[tuple[int, ...], ...]
    status: str          # "proven" | "expected"


def psef_patches(depth: int) -> list[PsefPatch]:
    """Boundary data of the expected pseudoeffective cone up to depth.

    Per translate g: the segment [g.D1, g.D2] (tangent to the quadric at
    g.e3) and the two tangent segments [g.D1, g.(-1,2,2)] and
    [g.D2, g.(2,-1,2)] are proven boundary pieces; the filled cones glued
    tangentially at g.D1 and g.D2 are emitted as the expected layer.

    Endpoints are exact images of the integral divisor classes (D1 itself
    is twice its primitive ray generator), not rescaled ray generators.
    The swap a fixes e3 and interchanges D1 with D2 and the two tangency
    points, so a word whose last syllable is a repeats the pieces of its
    parent and is skipped.
    """
    d1, d2 = d_classes()
    touch1 = (-1, 2, 2)          # tangency point shared with D1
    touch2 = (2, -1, 2)          # its swap image, shared with D2
    points = Matrix.from_columns((d1, d2, (0, 0, 1), touch1, touch2))
    out: list[PsefPatch] = []
    for word, mat in _sym_walk(depth):
        if word.syllables and word.syllables[-1][0] == "a":
            continue
        images = (mat * points).columns()
        if any(x.denominator != 1 for col in images for x in col):
            raise ArithmeticError("non-integral image")
        gd1, gd2, ge3, gt1, gt2 = (tuple(x.numerator for x in col)
                                   for col in images)
        out += [PsefPatch(word, "segment-d1-d2", (gd1, gd2), "proven"),
                PsefPatch(word, "segment-d1-tangent", (gd1, gt1), "proven"),
                PsefPatch(word, "segment-d2-tangent", (gd2, gt2), "proven"),
                PsefPatch(word, "glued-cone-d1", (ge3, gd1, gt1), "expected"),
                PsefPatch(word, "glued-cone-d2", (ge3, gd2, gt2), "expected")]
    return out
