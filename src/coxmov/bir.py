"""The birational automorphism group as exact matrices and words.

Generators psi_{i,j} (compositions of three flops through the minimal
models X_i and X_j) act on divisor classes by the integer matrix
t_i * t_j * t_i * P(i j).  For n >= 2 every group element factors uniquely
as a freely reduced word in the involutions t_k times a coordinate
permutation, which is the normal form used for all word problems here.
``t_normal_form`` builds it in one pass over the psi-letters, on a stack of
t-letters and the image list of the running permutation; ``_peel``
peels a t-word in one pass, renaming letters through a permutation, and
returns the residual marking with the psi-letters: ``psi_from_t`` keeps
the letters, ``atlas.classify`` both.
Word-level operations reject n = 1, where the braid relation
(t_i t_j)^3 = 1 breaks free reduction; the matrices themselves are fine
for any n.
"""

from __future__ import annotations

import os
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .coxeter import CoxeterSystem, Permutation, perm_matrix
from .exact import QuadExt, squarefree_decompose
from .linalg import Matrix, _primitive_pair

DEFAULT_WORD_BUDGET = 10 ** 6
BUDGET_ENV_VAR = "COXMOV_WORD_BUDGET"
# the largest n whose radicands n - 2 and n + 2 ``_eigen_vectors`` factors:
# trial division to their cube roots, about 2.3 * 10^6 odd divisors each
# at 10^20
MAX_RADICAND_N = 10 ** 20


class BudgetError(ValueError):
    """An enumeration would exceed the configured word-count budget."""


def word_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_WORD_BUDGET
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer: {raw!r}") from exc
    if val <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive")
    return val


def reduced_walk(alphabet, inverse, step, start, depth: int):
    """Breadth-first walk over the reduced words of length <= depth.

    A word is reduced when no letter is followed by ``inverse[letter]``.
    Yields ``(letters, state)`` by length, then in alphabet order, with
    the empty word first; a word's state is ``step(parent_state, letter)``,
    so each word costs one step.  Only the current frontier is kept.
    Raises ``BudgetError`` before the first word when ``_word_count``
    exceeds ``word_budget()``, at once at any depth: past 2^64 words, the
    lower bound 2^depth for 3+ letters stands in for the exact count.
    """
    if depth < 0:
        raise ValueError("negative depth")
    size, cap = len(alphabet), word_budget()
    deep = size > 2 and depth > max(64, cap.bit_length())  # >= 2^depth words
    count = max(cap, 2 ** 64) + 1 if deep else _word_count(size, depth)
    if count > cap:
        shown = "more than 2^64" if count > 2 ** 64 else count
        raise BudgetError(f"{shown} words at depth {depth} exceed the budget {cap}")

    frontier = [((), start)]
    yield frontier[0]
    for _ in range(depth):
        nxt = []
        for letters, state in frontier:
            banned = inverse[letters[-1]] if letters else None
            for x in alphabet:
                if x != banned:
                    item = (letters + (x,), step(state, x))
                    nxt.append(item)
                    yield item
        frontier = nxt


def _word_count(size: int, depth: int) -> int:
    """How many reduced words of length <= depth ``size`` letters give:
    1 + size*((size-1)^depth - 1)/(size-2), 1 + 2*depth for two, 0 below 0."""
    if depth < 0 or size == 2:
        return max(0, 1 + 2 * depth)
    return 1 + size * ((size - 1) ** depth - 1) // (size - 2)


def _word_unrank(alphabet, inverse, index: int) -> tuple:
    """The word at position ``index`` in ``reduced_walk`` order: past the
    shorter words, a mixed-radix number with A = len(alphabet) choices for
    the first letter, then A - 1 that skip the previous letter's inverse."""
    size, length = len(alphabet), 0
    while _word_count(size, length) <= index:
        length += 1
    rest, word = index - _word_count(size, length - 1), []
    for k in reversed(range(length)):
        digit, rest = divmod(rest, (size - 1) ** k)
        if word:
            digit += digit >= alphabet.index(inverse[word[-1]])
        word.append(alphabet[digit])
    return tuple(word)


def _word_rank(alphabet, inverse, word) -> int:
    """The position of a reduced word in ``reduced_walk`` order."""
    rest = 0
    for k, x in enumerate(word):
        digit = alphabet.index(x)
        if k:
            digit -= digit > alphabet.index(inverse[word[k - 1]])
        rest = rest * (len(alphabet) - 1) + digit
    return _word_count(len(alphabet), len(word) - 1) + rest


def _psi_alphabet(m: int):
    """The psi-letters (i, j, +-1), i < j, in walk order, with inverses."""
    gens = [(i, j, s) for i in range(1, m + 1) for j in range(i + 1, m + 1)
            for s in (1, -1)]
    return gens, {(i, j, s): (i, j, -s) for (i, j, s) in gens}


def _require_infinite_order(sys: CoxeterSystem):
    if sys.n < 2:
        raise ValueError("word operations need n >= 2 "
                         "(for n = 1 the generators satisfy (t_i t_j)^3 = 1)")


# ---------------------------------------------------------------------------
# generator matrices


def flop_pullback(sys: CoxeterSystem, i: int, j: int) -> Matrix:
    """Pullback matrix of the flop between minimal models X_i and X_j.

    Model indices run 0..m with 0 the base model; the matrix is expressed
    in the hyperplane bases of the two models.  For i < j it is
    t_j * P(cycle(i+1..j))^{-1}, for i > j it is t_{j+1} * P(cycle(j+1..i)).
    """
    m = sys.m
    if not (0 <= i <= m and 0 <= j <= m):
        raise IndexError(f"model index out of range 0..{m}")
    if i == j:
        raise ValueError("flop needs two distinct models")
    if i < j:
        cyc = Permutation.from_cycle(m, range(i + 1, j + 1)).inverse()
        return sys.t(j) * perm_matrix(cyc)
    cyc = Permutation.from_cycle(m, range(j + 1, i + 1))
    return sys.t(j + 1) * perm_matrix(cyc)


def psi_matrix(sys: CoxeterSystem, i: int, j: int) -> Matrix:
    """Pullback matrix of the birational self-map through models i and j:
    t_i * t_j * t_i * P(i j).  Valid for either order of the indices;
    psi_{j,i} is the inverse of psi_{i,j}."""
    m = sys.m
    if not (1 <= i <= m and 1 <= j <= m):
        raise IndexError(f"generator index out of range 1..{m}")
    if i == j:
        raise ValueError("generator needs two distinct indices")
    swap = perm_matrix(Permutation.transposition(m, i, j))
    return sys.t(i) * sys.t(j) * sys.t(i) * swap


def swap_identity_holds(sys: CoxeterSystem, sigma: Permutation, i: int) -> bool:
    """Exact check of P(sigma) * t_i == t_{sigma(i)} * P(sigma)."""
    p = perm_matrix(sigma)
    return p * sys.t(i) == sys.t(sigma(i)) * p


# ---------------------------------------------------------------------------
# words and normal forms


def free_reduce(letters) -> tuple[int, ...]:
    """Cancel adjacent equal letters (each t_i is an involution)."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class GroupElementNF(NamedTuple):
    """Normal form of a group element: reduced t-word times a permutation.

    The represented matrix is t_{k_1} * ... * t_{k_r} * P(sigma); for
    n >= 2 this factorization is unique.  An immutable named tuple of its
    two fields; ``*`` is the group product, not tuple repetition.
    """

    letters: tuple[int, ...]
    perm: Permutation

    @staticmethod
    def identity(m: int) -> "GroupElementNF":
        return GroupElementNF((), Permutation.identity(m))

    def __mul__(self, other: "GroupElementNF") -> "GroupElementNF":
        # push the left permutation through the right t-word
        images = self.perm.images
        mapped = tuple([images[k - 1] for k in other.letters])
        return GroupElementNF(free_reduce(self.letters + mapped),
                              self.perm * other.perm)

    def inverse(self) -> "GroupElementNF":
        inv = self.perm.inverse()
        return GroupElementNF(
            tuple(inv.images[k - 1] for k in reversed(self.letters)), inv)

    def matrix(self, sys: CoxeterSystem) -> Matrix:
        out = perm_matrix(self.perm)
        for k in reversed(self.letters):
            out = sys.t(k) * out
        return out

    @property
    def t_length(self) -> int:
        return len(self.letters)


class PsiWord(NamedTuple("PsiWord",
                          [("letters", tuple[tuple[int, int, int], ...])])):
    """A freely reduced word in the generators psi_{i,j}.

    Letters are stored as (i, j, exponent) with i < j and nonzero exponent;
    psi_{j,i} is recorded as psi_{i,j}^{-1}.  Adjacent letters never share
    the same index pair.  An immutable named tuple of one field, built
    from any iterable of (i, j, exponent); ``*`` is the word product.
    """

    __slots__ = ()

    def __new__(cls, letters=()) -> "PsiWord":
        merged: list[list[int]] = []
        for (i, j, e) in letters:
            if i == j:
                raise ValueError("generator needs two distinct indices")
            if e == 0:
                continue
            if i > j:
                i, j, e = j, i, -e
            if merged and merged[-1][0] == i and merged[-1][1] == j:
                merged[-1][2] += e
                if merged[-1][2] == 0:
                    merged.pop()
            else:
                merged.append([i, j, e])
        return tuple.__new__(cls, (tuple(map(tuple, merged)),))

    @staticmethod
    def generator(i: int, j: int, exponent: int = 1) -> "PsiWord":
        return PsiWord(((i, j, exponent),))

    @property
    def is_empty(self) -> bool:
        return not self.letters

    @property
    def letter_length(self) -> int:
        return sum(abs(e) for _, _, e in self.letters)

    def single_letters(self):
        """Yield the word spelled out as (i, j, +-1) letters."""
        for (i, j, e) in self.letters:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield (i, j, step)

    def __mul__(self, other: "PsiWord") -> "PsiWord":
        return PsiWord(self.letters + other.letters)

    def inverse(self) -> "PsiWord":
        return PsiWord(tuple((i, j, -e) for (i, j, e) in reversed(self.letters)))

    def __repr__(self):
        if not self.letters:
            return "PsiWord()"
        body = " ".join(f"psi[{i},{j}]^{e}" if e != 1 else f"psi[{i},{j}]"
                        for i, j, e in self.letters)
        return f"PsiWord<{body}>"


def _letter_nf(m: int, i: int, j: int, step: int) -> GroupElementNF:
    # psi_{i,j} = t_i t_j t_i * P(i j); its inverse is t_j t_i t_j * P(i j)
    swap = Permutation.transposition(m, i, j)
    if step > 0:
        return GroupElementNF((i, j, i), swap)
    return GroupElementNF((j, i, j), swap)


def t_normal_form(sys: CoxeterSystem, word: PsiWord) -> GroupElementNF:
    """Expand a psi-word into its canonical (reduced t-word, permutation)
    factorization in one pass, on a list of t-letters and the image list
    of the running permutation sigma: psi_{i,j}^{+-1} = t_a t_b t_a * P(i j)
    with (a, b) = (i, j) or (j, i) appends sigma(a), sigma(b), sigma(a),
    then swaps images i and j; ``free_reduce`` cancels the letters."""
    _require_infinite_order(sys)
    m = sys.m
    letters, images = [], list(range(1, m + 1))
    for (i, j, e) in word.letters:
        if not (1 <= i <= m and 1 <= j <= m):
            raise IndexError(f"generator index out of range 1..{m}")
        a, b = (i - 1, j - 1) if e > 0 else (j - 1, i - 1)
        for _ in range(abs(e)):
            letters += (images[a], images[b], images[a])
            images[a], images[b] = images[b], images[a]
    return GroupElementNF(free_reduce(letters), Permutation._of(tuple(images)))


def psi_word_matrix(sys: CoxeterSystem, word: PsiWord) -> Matrix:
    out = Matrix.identity(sys.m)
    for (i, j, step) in word.single_letters():
        a, b = (i, j) if step > 0 else (j, i)
        out = out * psi_matrix(sys, a, b)
    return out


def _peel(w: tuple[int, ...], m: int):
    """Peel a freely reduced t-word two letters at a time; the one loop
    behind ``psi_from_t`` and ``atlas.classify``.

    For w = t_a t_b (rest), emit psi_{a,b} and go on with the reduced
    word t_b swap(rest), swap = (a b).  The stored word is never
    rewritten: ``sig`` maps each stored letter to its current name and
    ``inv`` back, so a peel swaps two entries of each, and only the first
    letter of swap(rest) can cancel against t_b.

    Returns ``(psi_letters, head, sig)``: the residual
    (psi-word)^{-1} * w is t_head * P(sig[1:]), with no t-letter when
    ``head`` is None.
    """
    sig, inv = list(range(m + 1)), list(range(m + 1))
    out: list[tuple[int, int, int]] = []
    head, pos = (w[0] if w else None), 1
    while pos < len(w):
        a, b = head, sig[w[pos]]
        out.append((a, b, 1))
        xa, xb = inv[a], inv[b]
        sig[xa], sig[xb], inv[a], inv[b] = b, a, xb, xa
        head, pos = b, pos + 1
        if pos < len(w) and sig[w[pos]] == head:
            head = sig[w[pos + 1]] if pos + 1 < len(w) else None
            pos += 2
    return out, head, sig


def psi_from_t(sys: CoxeterSystem, letters) -> PsiWord:
    """Produce a psi-word whose chamber contains the chamber of a t-word.

    The word is freely reduced and peeled by ``_peel``.  The guarantee,
    tested via normal forms, is that the residual (psi-word)^{-1} * w has
    t-length <= 1, i.e. w.D lies inside the image of the fundamental
    region under the psi-word.
    """
    _require_infinite_order(sys)
    w = free_reduce(letters)
    if w and not (1 <= min(w) and max(w) <= sys.m):
        raise IndexError(f"t-letter out of range 1..{sys.m}")
    return PsiWord(_peel(w, sys.m)[0])


def prefix_check(sys: CoxeterSystem, word: PsiWord) -> bool:
    """The first two t-letters of the normal form must spell the leading
    generator: (i, j) for a leading psi_{i,j}, (j, i) for its inverse."""
    if word.is_empty:
        raise ValueError("empty word has no leading generator")
    nf = t_normal_form(sys, word)
    i, j, e = word.letters[0]
    expected = (i, j) if e > 0 else (j, i)
    return nf.letters[:2] == expected


class FreeReport(NamedTuple):
    words_checked: int
    collisions: int


def verify_free(sys: CoxeterSystem, depth: int) -> FreeReport:
    """Enumerate all freely reduced psi-words of length <= depth and check
    pairwise distinctness of their normal forms.

    A free group of rank C(m, 2) admits no collision; the report returns
    the number of nonempty words checked and the number of collisions found.
    """
    _require_infinite_order(sys)
    m = sys.m
    gens, inverse = _psi_alphabet(m)
    nf_gens = {g: _letter_nf(m, *g) for g in gens}
    seen = set()
    collisions = 0
    for _, nf in reduced_walk(gens, inverse, lambda nf, g: nf * nf_gens[g],
                              GroupElementNF.identity(m), depth):
        key = (nf.letters, nf.perm.images)
        if key in seen:
            collisions += 1
        else:
            seen.add(key)
    return FreeReport(len(seen) + collisions - 1, collisions)


# ---------------------------------------------------------------------------
# eigen data of the two-generator products


class PairClass(Enum):
    """Degenerate spectral types of t_i * t_j."""
    FINITE_ORDER = "finite_order"    # n = 1: the product has order 3
    UNIPOTENT = "unipotent"          # n = 2: eigenvalue 1 only, not diagonalizable


class EigenPair(NamedTuple):
    """The eigenvalue > 1 of t_i * t_j together with a primitive exact
    eigenvector over the quadratic field."""
    value: QuadExt
    vector: tuple[QuadExt, ...]


def _eigen_vectors(n: int, m: int, pairs):
    """``(s, d, vectors)`` for n >= 3, the radicand factored once: s*s*d =
    (n-2)(n+2), d > 1 squarefree, and per pair (i, j) integer lists (P, Q)
    with P + Q*sqrt(d) an eigenvector of t_i * t_j for lambda > 1: t_i * t_j
    maps c_i, c_j (c_k = n*ones - (n+2)*e_k) by [[n^2-1, -n], [n, -1]], so
    (lambda+1)*c_i + n*c_j is n/2 times p + q*sqrt(d), p = n*c_i + 2*c_j,
    q = s*c_i, and (P, Q) is that times the conjugate of its last entry.
    Refused for n > MAX_RADICAND_N, before any factoring."""
    if n > MAX_RADICAND_N:
        raise ValueError(
            f"eigenvector data needs n <= {MAX_RADICAND_N}: the radicands "
            "n - 2 and n + 2 are factored by trial division to their cube "
            "roots")
    (s1, d1), (s2, d2) = map(squarefree_decompose, (n - 2, n + 2))
    g = gcd(d1, d2)     # 1 or 2: n-2 and n+2 differ by 4
    s, d = s1 * s2 * g, d1 * d2 // (g * g)
    vectors = []
    for i, j in pairs:
        ci, cj = ([n - (n + 2) * (r == k) for r in range(1, m + 1)]
                  for k in (i, j))
        pq = [(n * x + 2 * y, s * x) for x, y in zip(ci, cj)]
        pm, qm = pq[-1]
        vectors.append(([p * pm - q * qm * d for p, q in pq],
                        [q * pm - p * qm for p, q in pq]))
    return s, d, vectors


def eigen_pair(sys: CoxeterSystem, i: int, j: int):
    """Spectral data of t_i * t_j: for n >= 3 the EigenPair of the root
    lambda = (n^2 - 2 + n*s*sqrt(d))/2 > 1 of x^2 - (n^2 - 2)x + 1 and the
    primitive form of its ``_eigen_vectors`` vector; for n = 2 and n = 1
    the matching PairClass marker (unipotent, finite order)."""
    if i == j:
        raise ValueError("need two distinct indices")
    n, m = sys.n, sys.m
    if not (1 <= i <= m and 1 <= j <= m):
        raise IndexError(f"generator index out of range 1..{m}")
    if n == 1:
        return PairClass.FINITE_ORDER
    if n == 2:
        return PairClass.UNIPOTENT
    s, d, [(p, q)] = _eigen_vectors(n, m, [(i, j)])
    lam = QuadExt._reduced(Fraction(n * n - 2, 2), Fraction(n * s, 2), d)
    return EigenPair(lam, _primitive_pair(p, q, d))


def aut_codimension(n: int, m: int) -> int:
    """Codimension of the locus of forms with extra symmetry:
    (n+1)^m - (m+1)*((n+1)^2 - 1); valid (and increasing) for n, m >= 3."""
    if n < 3 or m < 3:
        raise ValueError("codimension count needs n >= 3 and m >= 3")
    return (n + 1) ** m - (m + 1) * ((n + 1) ** 2 - 1)
