"""Chamber geometry of the movable cone.

The nef cone is the standard simplicial cone on the hyperplane classes
H_1, ..., H_m.  Its orbit under the group generated by the t_i tiles the
effective movable cone; chambers are indexed by freely reduced t-words.
This module enumerates that tiling, classifies divisor classes to a marked
minimal model by walking back to the fundamental region, and samples the
boundary; apexes over Q(sqrt(d)) and the sum-one chart run on integer pairs.

Every t-word listing walks the m integer columns of the word matrix, one
``coxeter._t_step`` per letter (the column rule is in ``coxeter``).

``classify`` walks a class as the integer vector D*v, D its common
denominator: t_i negates v_i and adds n*v_i to every other coordinate.

``boundary_patches`` keeps or skips each (word, pair) by its last letter:
for n = 2 a word ending in i or j repeats its parent's pair-{i, j} patch
and is skipped; for n >= 3 every item is kept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from math import lcm
from operator import mul
from typing import NamedTuple

from .bir import (GroupElementNF, PsiWord, _eigen_vectors, _peel,
                  _require_infinite_order, reduced_walk, t_normal_form)
from .coxeter import (CoxeterSystem, Permutation, _identity_columns,
                      _t_step)
from .exact import QuadExt
from .linalg import Matrix, _primitive_pair, dot

DEFAULT_MAX_STEPS = 1000


def word_matrix(sys: CoxeterSystem, letters) -> Matrix:
    factors = [sys.t(k) for k in letters]
    return reduce(mul, factors) if factors else Matrix.identity(sys.m)


def _t_columns(sys: CoxeterSystem, depth: int):
    """``(letters, cols)`` for each reduced t-word of length <= depth, in
    ``reduced_walk`` order: the word matrix's columns, one ``_t_step`` each."""
    letters = range(1, sys.m + 1)
    return reduced_walk(letters, {k: k for k in letters},
                        partial(_t_step, sys.n), _identity_columns(sys.m),
                        depth)


def reduced_words(sys: CoxeterSystem, depth: int):
    """All freely reduced t-words of length <= depth with their matrices,
    in breadth-first order (by length, then lexicographically)."""
    for letters, cols in _t_columns(sys, depth):
        yield letters, Matrix.from_columns(cols)


class Chamber(NamedTuple):
    """A translate of the nef cone: m primitive integer rays plus the
    reduced t-word that produces it.  For a fundamental-region chamber the
    marked minimal model is the word's letter (0 for the empty word)."""

    rays: tuple[tuple[int, ...], ...]
    word: tuple[int, ...]

    def ray_key(self):
        return tuple(sorted(self.rays))

    def interior_point(self) -> tuple[int, ...]:
        return tuple(sum(r[k] for r in self.rays) for k in range(len(self.rays[0])))


def fundamental_domain(sys: CoxeterSystem) -> list[Chamber]:
    """The m+1 chambers whose union is one fundamental region: the nef
    cone (word (), model 0) and its m flop images t_i . Nef (word (i,),
    model i), one ``_t_step`` each, so no walk and no word budget."""
    nef = _identity_columns(sys.m)
    return [Chamber(nef, ())] + [Chamber(_t_step(sys.n, nef, k), (k,))
                                 for k in range(1, sys.m + 1)]


def enumerate_chambers(sys: CoxeterSystem, depth: int) -> list[Chamber]:
    """One chamber per freely reduced t-word of length <= depth."""
    _require_infinite_order(sys)
    return [Chamber(cols, letters) for letters, cols in _t_columns(sys, depth)]


class ClassificationError(Exception):
    """Raised when coordinate reduction fails to reach the nef cone."""

    def __init__(self, message, last_iterate, steps):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.steps = steps


class ClassificationResult(NamedTuple):
    """Where a divisor class lives in the chamber structure.

    Reconstruction contract: with W the matrix of ``t_word``, the input
    class equals W * nef_coords; equivalently it equals
    (psi-word matrix) * t_model * P(perm) * nef_coords, which expresses the
    class as the psi-word translate of a class pulled back from the marked
    minimal model ``model_index``.
    """

    t_word: tuple[int, ...]
    psi_word: PsiWord
    model_index: int
    perm: Permutation
    nef_coords: tuple[Fraction, ...]


def classify(sys: CoxeterSystem, coords, max_steps: int = DEFAULT_MAX_STEPS) -> ClassificationResult:
    """Reduce a divisor class to the nef cone and read off its chamber.

    One integer pass.  While some coordinate is negative, apply the
    generator of the most negative coordinate (smallest index on ties) and
    record the letter.  The walk runs on D*v as Python ints, D the common
    denominator of the input, scaled on integers (entry p/q becomes
    p * (D // q); all-``int`` input skips the rescale): t_i negates v_i
    and adds n*v_i to every other coordinate.  The recorded word is
    reduced, so one ``_peel`` gives the psi-word and the residual marking
    t_model * P(perm); a single normal-form product checks that
    psi-word * residual is the word again, else ``ArithmeticError``.
    Interior points of the tiled cone reach all-nonnegative coordinates in
    exactly the word length of their chamber; points outside oscillate and
    hit the step cap, which raises ``ClassificationError``.  A negative
    cap raises ``ValueError``, a non-int cap or a float class ``TypeError``.
    """
    _require_infinite_order(sys)
    if type(max_steps) is not int:
        raise TypeError(f"max_steps must be an int, got {max_steps!r}")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    vec, denom = list(coords), 1
    if set(map(type, vec)) != {int}:
        if any(isinstance(x, float) for x in vec):
            raise TypeError("exact classes do not accept floats")
        vec = [Fraction(x) for x in vec]
        denom = lcm(*(x.denominator for x in vec))
        vec = [x.numerator * (denom // x.denominator) for x in vec]
    if len(vec) != sys.m:
        raise ValueError(f"expected {sys.m} coordinates")
    if not any(vec):
        raise ValueError("zero vector has no chamber")
    # the iterate is vec + shift: a step adds n*v_i to the shift and sets
    # entry i alone
    n, letters, shift = sys.n, [], 0
    for _ in range(max_steps):
        low = min(vec)
        worst = low + shift
        if worst >= 0:
            break
        i = vec.index(low)
        letters.append(i + 1)
        shift += n * worst
        vec[i] = -worst - shift
    vec = [x + shift for x in vec]
    iterate = (tuple(map(Fraction, vec)) if denom == 1
               else tuple(Fraction(x, denom) for x in vec))
    if min(vec) < 0:
        raise ClassificationError(
            f"no nonnegative iterate within {max_steps} steps "
            "(class outside the tiled cone, or cap too small)",
            iterate, max_steps)
    word = tuple(letters)
    psi_letters, head, sig = _peel(word, sys.m)
    psi = PsiWord(psi_letters)
    residual = GroupElementNF((head,) if head else (),
                              Permutation._of(tuple(sig[1:])))
    check = t_normal_form(sys, psi) * residual
    if check.letters != word or not check.perm.is_identity:
        raise ArithmeticError("residual of the psi-word translation is not "
                              "a single marking")
    return ClassificationResult(word, psi, head or 0, residual.perm, iterate)


class BoundaryPatch(NamedTuple):
    """One translate of a boundary cone: an apex ray over the quadratic
    field (all-zero when n = 2) and the m-2 transported rational rays."""

    pair: tuple[int, int]
    word: tuple[int, ...]
    apex: tuple[QuadExt, ...]
    base_rays: tuple[tuple[int, ...], ...]

    @property
    def has_apex(self) -> bool:
        return any(bool(x) for x in self.apex)


def boundary_patches(sys: CoxeterSystem, depth: int) -> list[BoundaryPatch]:
    """Boundary cones of the movable cone, sampled to word length ``depth``.

    For every reduced t-word w and unordered generator pair (i, j): the
    cone spanned by w.v (v the eigenvector of t_i t_j for the eigenvalue
    > 1; zero for n = 2) and the rays w.H_k for k != i, j.  On ints, with
    v = P + Q*sqrt(d), the apex is ``_primitive_pair`` of (w.P, w.Q).

    Which (word, pair) items are kept is a rule on the last letter.  For
    n = 2, t_i and t_j fix every H_k with k != i, j and the apex is zero,
    so w.t_i and w.t_j repeat the patch of w: a word ending in i or j is
    skipped for that pair.  For n >= 3 every item is kept: t_i t_j v =
    lambda*v and t_j v = lambda*t_i v with lambda an irrational unit, so
    w and w.t_i.t_j (likewise w.t_i and w.t_j) give the same projective
    cone, but their primitive apex vectors differ and both are listed.
    """
    _require_infinite_order(sys)
    n, m = sys.n, sys.m
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    _, d, vectors = (_eigen_vectors(n, m, pairs) if n > 2  # v = P + Q*sqrt(d)
                     else (0, 0, [()] * len(pairs)))        # v = 0
    zero_apex = tuple(QuadExt(0) for _ in range(m))
    out: list[BoundaryPatch] = []
    for letters, cols in _t_columns(sys, depth):
        rows = tuple(zip(*cols))
        for (i, j), v in zip(pairs, vectors):
            if n == 2 and letters and letters[-1] in (i, j):
                continue
            base = tuple(sorted(cols[k - 1]
                                for k in range(1, m + 1) if k not in (i, j)))
            apex = zero_apex if n == 2 else _primitive_pair(*[
                [sum(map(mul, r, u)) for r in rows] for u in v], d)
            out.append(BoundaryPatch((i, j), letters, apex, base))
    return out


def project_affine(v):
    """Scale a vector onto the affine chart of coordinate-sum one.

    On pairs P_k + Q_k*sqrt(d), one radicand, summing to P + Q*sqrt(d): entry k
    is ((P_k*P - d*Q_k*Q) + (Q_k*P - P_k*Q)*sqrt(d)) / (P*P - d*Q*Q)."""
    pairs = [(x.a, x.b) if isinstance(x, QuadExt) else (x, 0) for x in v]
    p, q = map(sum, zip(*pairs))
    if not (p or q):
        raise ValueError("zero coordinate sum: direction at infinity")
    if not any(isinstance(x, QuadExt) for x in v):
        return tuple(Fraction(x, p) for x in v)
    d, *more = sorted({x.d for x in v if isinstance(x, QuadExt) and x.b}) or [0]
    if more:
        raise ValueError(f"mixed radicands {d} and {more[0]}")
    norm = p * p - d * q * q
    return tuple(QuadExt._reduced((a * p - d * b * q) / norm,
                                  (b * p - a * q) / norm, d) for a, b in pairs)


def isotropy_value(sys: CoxeterSystem, v):
    """Evaluate the invariant quadric on a vector: v^T * Qhat * v."""
    qhat = sys.quadric_matrix()
    return dot(v, qhat * tuple(v))
