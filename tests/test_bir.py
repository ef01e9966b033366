import random
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxmov import atlas
from coxmov.atlas import (classify, enumerate_chambers, reduced_words,
                          word_matrix)
from coxmov.bir import (BudgetError, GroupElementNF, PairClass, PsiWord,
                        _letter_nf, _peel, _psi_alphabet, _word_count,
                        _word_rank, _word_unrank, aut_codimension, eigen_pair,
                        flop_pullback, free_reduce, prefix_check, psi_from_t,
                        psi_matrix, psi_word_matrix, reduced_walk,
                        swap_identity_holds, t_normal_form, verify_free)
from coxmov.coxeter import Permutation, build_system
from coxmov.exact import QuadExt, quad_roots, squarefree_decompose
from coxmov.linalg import Matrix, nullspace_vector, primitive_quad_vector
from coxmov.symmetric import sym_enumerate

S23 = build_system(2, 3)
S33 = build_system(3, 3)

PSI_23 = {
    (1, 2): Matrix([[-2, -3, 0], [3, 4, 0], [6, 12, 1]]),
    (1, 3): Matrix([[-2, 0, -3], [6, 1, 12], [3, 0, 4]]),
    (2, 3): Matrix([[1, 6, 12], [0, -2, -3], [0, 3, 4]]),
}
PSI_33 = {
    (1, 2): Matrix([[-3, -8, 0], [8, 21, 0], [12, 36, 1]]),
    (1, 3): Matrix([[-3, 0, -8], [12, 1, 36], [8, 0, 21]]),
    (2, 3): Matrix([[1, 12, 36], [0, -3, -8], [0, 8, 21]]),
}


def test_psi_matrices_golden():
    for (i, j), expected in PSI_23.items():
        assert psi_matrix(S23, i, j) == expected
    for (i, j), expected in PSI_33.items():
        assert psi_matrix(S33, i, j) == expected


def test_flop_pullback():
    assert flop_pullback(S23, 0, 1) == S23.t(1)
    f02 = flop_pullback(S23, 0, 2)
    assert f02.column(1) == (2, -1, 2)
    for i in range(0, 4):
        for j in range(0, 4):
            if i != j:
                assert (flop_pullback(S23, i, j) * flop_pullback(S23, j, i)
                        == Matrix.identity(3))
    with pytest.raises(ValueError):
        flop_pullback(S23, 1, 1)
    with pytest.raises(IndexError):
        flop_pullback(S23, 0, 4)


def test_psi_from_flops():
    for s in (S23, S33):
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    composed = (flop_pullback(s, 0, i) * flop_pullback(s, i, j)
                                * flop_pullback(s, j, 0))
                    assert composed == psi_matrix(s, i, j)


def test_psi_group_identities():
    for s in (S23, S33):
        ident = Matrix.identity(3)
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                p = psi_matrix(s, i, j)
                assert p * psi_matrix(s, j, i) == ident
                assert p ** 2 == (s.t(i) * s.t(j)) ** 3
                assert p.det() == 1


def test_swap_identity_exhaustive():
    from itertools import permutations
    for n in (1, 2, 3):
        for m in (2, 3, 4):
            s = build_system(n, m)
            for p in permutations(range(1, m + 1)):
                sigma = Permutation(p)
                for i in range(1, m + 1):
                    assert swap_identity_holds(s, sigma, i)


def test_free_reduce():
    assert free_reduce((1, 2, 2, 1)) == ()
    assert free_reduce((1, 2, 1, 1, 3, 1)) == (1, 2, 3, 1)
    assert free_reduce(()) == ()


def test_psi_word_normalization():
    w = PsiWord(((2, 1, 1),))               # psi_{2,1} = psi_{1,2}^{-1}
    assert w.letters == ((1, 2, -1),)
    merged = PsiWord(((1, 2, 1), (1, 2, 1), (1, 2, -2)))
    assert merged.is_empty
    with pytest.raises(ValueError):
        PsiWord(((1, 1, 1),))
    w2 = PsiWord.generator(1, 2) * PsiWord.generator(2, 3)
    assert w2.letters == ((1, 2, 1), (2, 3, 1))
    assert w2.inverse().letters == ((2, 3, -1), (1, 2, -1))
    assert w2.letter_length == 2


def test_t_normal_form_examples():
    nf = t_normal_form(S23, PsiWord.generator(1, 2))
    assert nf.letters == (1, 2, 1)
    assert nf.perm == Permutation.transposition(3, 1, 2)

    nf2 = t_normal_form(S23, PsiWord.generator(1, 2) * PsiWord.generator(2, 3))
    assert nf2.letters == (1, 2, 3, 1)
    assert nf2.perm == Permutation.transposition(3, 1, 2) * Permutation.transposition(3, 2, 3)

    inv_pair = PsiWord.generator(1, 2) * PsiWord.generator(2, 1)
    nf3 = t_normal_form(S23, inv_pair)
    assert nf3.letters == () and nf3.perm.is_identity


def test_t_normal_form_rejects_n1():
    with pytest.raises(ValueError):
        t_normal_form(build_system(1, 5), PsiWord.generator(1, 2))
    with pytest.raises(ValueError):
        psi_from_t(build_system(1, 5), (1, 2))


def test_normal_form_matches_matrix():
    rng = random.Random(5)
    for s in (S23, S33):
        pairs = [(1, 2), (1, 3), (2, 3)]
        for _ in range(50):
            letters = []
            for _ in range(rng.randint(0, 6)):
                i, j = rng.choice(pairs)
                letters.append((i, j, rng.choice((1, -1))))
            w = PsiWord(letters)
            nf = t_normal_form(s, w)
            assert nf.matrix(s) == psi_word_matrix(s, w)


def test_normal_form_homomorphism():
    rng = random.Random(6)
    pairs = [(1, 2), (1, 3), (2, 3)]
    for _ in range(60):
        u = PsiWord([(i, j, rng.choice((1, -1)))
                     for (i, j) in (rng.choice(pairs) for _ in range(rng.randint(0, 5)))])
        v = PsiWord([(i, j, rng.choice((1, -1)))
                     for (i, j) in (rng.choice(pairs) for _ in range(rng.randint(0, 5)))])
        assert t_normal_form(S23, u * v) == t_normal_form(S23, u) * t_normal_form(S23, v)


@st.composite
def systems_and_elements(draw):
    """A system with n 2-5, m 3-5 and two normal forms: a reduced t-word
    of length <= 5 times a permutation."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(3, 5))

    def element():
        word = []
        for _ in range(draw(st.integers(0, 5))):
            word.append(draw(st.sampled_from(
                [k for k in range(1, m + 1) if not word or k != word[-1]])))
        images = draw(st.permutations(range(1, m + 1)))
        return GroupElementNF(tuple(word), Permutation(tuple(images)))

    return build_system(n, m), element(), element()


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(systems_and_elements())
def test_normal_form_product_is_matrix_product(case):
    s, g, h = case
    assert (g * h).matrix(s) == g.matrix(s) * h.matrix(s)
    assert g.inverse().matrix(s) * g.matrix(s) == Matrix.identity(s.m)


def _nf_by_letter_products(s, word):
    # the normal form as a chain of per-letter products, one GroupElementNF
    # multiplication per psi-letter
    out = GroupElementNF.identity(s.m)
    for (i, j, step) in word.single_letters():
        out = out * _letter_nf(s.m, i, j, step)
    return out


@st.composite
def psi_words_and_perms(draw):
    """A system with n 2-5, m 3-6, a psi-word of up to 6 letters with
    exponents +-1..+-3 (either index order), and two permutations."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(3, 6))
    letters = []
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.lists(st.integers(1, m), min_size=2, max_size=2,
                             unique=True))
        e = draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1)))
        letters.append((i, j, e))
    sigma, tau = (Permutation(tuple(draw(st.permutations(range(1, m + 1)))))
                  for _ in range(2))
    return build_system(n, m), PsiWord(letters), sigma, tau


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(psi_words_and_perms())
def test_one_pass_normal_form_matches_letter_products(case):
    s, word, sigma, tau = case
    nf = t_normal_form(s, word)
    assert nf == _nf_by_letter_products(s, word)
    assert t_normal_form(s, word.inverse()) == nf.inverse()
    assert (nf.inverse() * nf) == GroupElementNF.identity(s.m)
    assert all(a != b for a, b in zip(nf.letters, nf.letters[1:]))
    # permutations compose right to left: (sigma * tau)(i) = sigma(tau(i))
    m = s.m
    assert [(sigma * tau)(i) for i in range(1, m + 1)] == [
        sigma(tau(i)) for i in range(1, m + 1)]
    inv = sigma.inverse()
    assert all(inv(sigma(i)) == i and sigma(inv(i)) == i
               for i in range(1, m + 1))
    assert (inv * sigma).is_identity and (sigma * inv).is_identity


@pytest.mark.parametrize("pair", [(0, 2), (2, 0), (-1, 2), (2, -1),
                                  (1, 4), (4, 1)])
@pytest.mark.parametrize("e", [1, -1])
def test_normal_form_rejects_out_of_range_indices(pair, e):
    i, j = pair
    msg = "^generator index out of range 1..3$"
    for word in (PsiWord(((i, j, e),)),
                 PsiWord(((1, 2, 1), (i, j, e)))):
        with pytest.raises(IndexError, match=msg):
            t_normal_form(S23, word)
        with pytest.raises(IndexError, match=msg):
            prefix_check(S23, word)
    with pytest.raises(IndexError, match=msg):
        psi_matrix(S23, i, j)


def test_psi_from_t_examples():
    assert psi_from_t(S23, (1,)).is_empty
    assert psi_from_t(S23, ()).is_empty
    assert psi_from_t(S23, (1, 2)).letters == ((1, 2, 1),)
    assert psi_from_t(S23, (1, 2, 1)).letters == ((1, 2, 1),)


def _psi_from_t_by_rewriting(letters):
    """The quadratic peel: re-map and re-reduce the whole remaining word
    after each emitted letter."""
    w = free_reduce(letters)
    out = []
    while len(w) >= 2:
        a, b = w[0], w[1]
        out.append((a, b, 1))
        mapped = tuple(b if k == a else (a if k == b else k) for k in w[2:])
        w = free_reduce((b,) + mapped)
    return PsiWord(out)


def _random_reduced_word(rng, m, length):
    word = []
    for _ in range(length):
        word.append(rng.choice([k for k in range(1, m + 1)
                                if not word or k != word[-1]]))
    return tuple(word)


def test_linear_peel_matches_rewriting_peel():
    # every peel that cancels at the junction, and every later peel, reads
    # the letter names through the permutation and its inverse, so a
    # missing cancel or a wrong swap of either changes the psi-word
    rng = random.Random(2024)
    cancels = 0
    for _ in range(3000):
        s = build_system(rng.randint(2, 5), rng.randint(3, 6))
        word = _random_reduced_word(rng, s.m, rng.randint(0, 30))
        want = _psi_from_t_by_rewriting(word)
        assert psi_from_t(s, word) == want
        cancels += len(word) - 1 - want.letter_length > 0
    assert cancels > 1000
    # unreduced input is reduced first, as before
    assert psi_from_t(S33, (1, 1, 2, 3, 3, 1)) == \
        _psi_from_t_by_rewriting((2, 1))


@st.composite
def systems_and_reduced_words(draw):
    """A system with n in {2, 3, 5}, m 3-6 and a reduced t-word of length
    <= 12."""
    n, m = draw(st.sampled_from((2, 3, 5))), draw(st.integers(3, 6))
    word = []
    for _ in range(draw(st.integers(0, 12))):
        word.append(draw(st.sampled_from(
            [k for k in range(1, m + 1) if not word or k != word[-1]])))
    return build_system(n, m), tuple(word)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(systems_and_reduced_words())
def test_peel_residual_is_the_normal_form_quotient(case):
    # the residual _peel returns is (psi-word)^{-1} * w, computed the long
    # way through normal forms; sig goes through the checked constructor
    s, word = case
    letters, head, sig = _peel(word, s.m)
    psi = PsiWord(letters)
    assert psi == psi_from_t(s, word)
    residual = GroupElementNF((head,) if head else (),
                              Permutation(tuple(sig[1:])))
    assert residual == (t_normal_form(s, psi).inverse()
                        * GroupElementNF(word, Permutation.identity(s.m)))


@pytest.mark.parametrize("word", [(), (1,), (1, 2, 3), (2, 1, 4, 3, 1)])
def test_classify_check_catches_a_wrong_residual(monkeypatch, word):
    # a residual marking with two images swapped must fail the one
    # normal-form product that classify checks
    peel = atlas._peel

    def swapped(w, m):
        letters, head, sig = peel(w, m)
        sig = list(sig)
        sig[1], sig[2] = sig[2], sig[1]
        return letters, head, sig

    s = build_system(3, 4)
    coords = _class_of_word(s, word, (1, 2, 1, 3))
    assert classify(s, coords).t_word == word
    monkeypatch.setattr(atlas, "_peel", swapped)
    with pytest.raises(ArithmeticError, match="not a single marking"):
        classify(s, coords)


def _class_of_word(s, word, nef_coords):
    """W * nef_coords for the t-word W, by the integer t-action: t_k negates
    coordinate k and adds n times it to every other coordinate."""
    vec = list(nef_coords)
    for k in reversed(word):
        x = vec[k - 1]
        vec = [y + s.n * x for y in vec]
        vec[k - 1] = -x
    return vec


@pytest.mark.parametrize("n,m", [(3, 4), (2, 5)])
def test_classify_round_trip_at_word_length_3000(n, m):
    s = build_system(n, m)
    rng = random.Random(n * 10 + m)
    word = _random_reduced_word(rng, m, 3000)
    nef = tuple(rng.randint(1, 5) for _ in range(m))
    res = classify(s, _class_of_word(s, word, nef), max_steps=3000)
    assert res.t_word == word and res.nef_coords == nef
    assert res.psi_word == _psi_from_t_by_rewriting(word)
    marking = GroupElementNF((res.model_index,) if res.model_index else (),
                             res.perm)
    assert t_normal_form(s, res.psi_word) * marking == \
        GroupElementNF(word, Permutation.identity(m))


def test_psi_from_t_rejects_out_of_range_letters():
    for word in ((0, 1), (1, 4), (-1, 2)):
        with pytest.raises(IndexError, match="out of range 1..3"):
            psi_from_t(S23, word)


def _all_reduced_words(m, depth):
    level = [()]
    yield ()
    for _ in range(depth):
        nxt = []
        for w in level:
            for k in range(1, m + 1):
                if not w or w[-1] != k:
                    nxt.append(w + (k,))
                    yield w + (k,)
        level = nxt


def test_reduced_walk_matches_brute_force():
    for m in (3, 4):
        letters = range(1, m + 1)
        walk = list(reduced_walk(letters, {k: k for k in letters},
                                 lambda state, k: state + 1, 0, 4))
        assert [w for w, _ in walk] == list(_all_reduced_words(m, 4))
        assert all(state == len(w) for w, state in walk)
    with pytest.raises(ValueError, match="negative depth"):
        next(reduced_walk("ab", {"a": "b", "b": "a"}, None, None, -1))


def test_reduced_walk_states_are_folds():
    for s in (S23, build_system(3, 4)):
        for letters, mat in reduced_words(s, 3):
            assert mat == word_matrix(s, letters)
    gens = [(i, j, e) for (i, j) in ((1, 2), (1, 3), (2, 3)) for e in (1, -1)]
    nf_gens = {g: t_normal_form(S23, PsiWord((g,))) for g in gens}
    walk = list(reduced_walk(gens, {(i, j, e): (i, j, -e) for i, j, e in gens},
                             lambda nf, g: nf * nf_gens[g],
                             GroupElementNF.identity(3), 3))
    assert len(walk) == 1 + 6 + 30 + 150
    for letters, nf in walk:
        assert nf == t_normal_form(S23, PsiWord(letters))


def _t_alphabet(m):
    letters = range(1, m + 1)
    return letters, {k: k for k in letters}


# the t-letters, the psi-letters and the letters a, b, b^-1 of Z/2 * Z
ALPHABETS = st.one_of(st.integers(2, 5).map(_t_alphabet),
                      st.integers(2, 4).map(_psi_alphabet),
                      st.just(("abB", {"a": "a", "b": "B", "B": "b"})))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(ALPHABETS, st.integers(0, 4))
def test_rank_and_unrank_follow_the_walk(alphabet_inverse, depth):
    alphabet, inverse = alphabet_inverse
    walk = [w for w, _ in reduced_walk(alphabet, inverse, lambda s, x: s,
                                       None, depth)]
    assert len(walk) == _word_count(len(alphabet), depth)
    for index, word in enumerate(walk):
        assert _word_rank(alphabet, inverse, word) == index
        assert _word_unrank(alphabet, inverse, index) == word


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(ALPHABETS, st.randoms(use_true_random=False))
def test_unrank_inverts_rank_at_depth_300(alphabet_inverse, rng):
    alphabet, inverse = alphabet_inverse
    word = []
    for _ in range(300):
        word.append(rng.choice([x for x in alphabet
                                if not word or x != inverse[word[-1]]]))
    index = _word_rank(alphabet, inverse, word)
    size = len(alphabet)
    assert _word_count(size, 299) <= index < _word_count(size, 300)
    assert _word_unrank(alphabet, inverse, index) == tuple(word)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(-1, 4))
def test_word_count_is_every_listing_length(n, m, depth):
    count = _word_count(m, depth)
    if depth < 0:
        assert count == 0
        return
    assert count == 1 + m * sum((m - 1) ** k for k in range(depth))
    assert count == len(enumerate_chambers(build_system(n, m), depth))
    assert _word_count(3, depth) == 3 * 2 ** depth - 2 == \
        len(sym_enumerate(depth))
    if m <= 4 and depth <= 3:
        words = verify_free(build_system(n, m), depth).words_checked
        assert _word_count(m * (m - 1), depth) == words + 1


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(st.integers(2, 4), st.integers(3, 5), st.integers(0, 10 ** 200))
def test_chamber_of_a_random_index_at_depth_200(n, m, draw):
    letters, inverse = _t_alphabet(m)
    first, past = _word_count(m, 199), _word_count(m, 200)
    index = first + draw % (past - first)
    word = _word_unrank(letters, inverse, index)
    assert len(word) == 200 and _word_rank(letters, inverse, word) == index
    cols = reduce(partial(atlas._t_step, n), word, atlas._identity_columns(m))
    assert cols == tuple(map(tuple, word_matrix(build_system(n, m),
                                                word).columns()))


def test_psi_from_t_chamber_containment():
    # the residual (psi-word)^{-1} * w must be a marking: t-length <= 1
    for s in (S23, S33):
        for w in _all_reduced_words(s.m, 5):
            psi = psi_from_t(s, w)
            residual = (t_normal_form(s, psi).inverse()
                        * GroupElementNF(w, Permutation.identity(s.m)))
            assert residual.t_length <= 1


def test_prefix_check_examples():
    assert prefix_check(S23, PsiWord.generator(1, 2) * PsiWord.generator(2, 3))
    w = PsiWord.generator(1, 3, -1) * PsiWord.generator(1, 2)
    nf = t_normal_form(S23, w)
    assert nf.letters[:2] == (3, 1)
    assert prefix_check(S23, w)
    with pytest.raises(ValueError):
        prefix_check(S23, PsiWord())


def test_prefix_check_property():
    rng = random.Random(8)
    for (n, m) in ((2, 3), (2, 4), (3, 3), (3, 4)):
        s = build_system(n, m)
        pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
        for _ in range(250):
            letters = []
            prev = None
            for _ in range(rng.randint(1, 8)):
                while True:
                    i, j = rng.choice(pairs)
                    e = rng.choice((1, -1))
                    if prev != (i, j, -e):
                        break
                letters.append((i, j, e))
                prev = (i, j, e)
            assert prefix_check(s, PsiWord(letters))


def test_verify_free_counts(monkeypatch):
    rep = verify_free(S23, 1)
    assert rep == type(rep)(6, 0)
    rep = verify_free(S23, 4)
    assert rep.words_checked == 936
    assert rep.collisions == 0
    rep34 = verify_free(build_system(3, 4), 3)
    assert rep34.collisions == 0
    monkeypatch.setenv("COXMOV_WORD_BUDGET", "1000")
    with pytest.raises(BudgetError):
        verify_free(S23, 12)
    # the budget counts the empty word: 1 + 6 + 30 words at depth 2
    monkeypatch.setenv("COXMOV_WORD_BUDGET", "37")
    assert verify_free(S23, 2).words_checked == 36
    monkeypatch.setenv("COXMOV_WORD_BUDGET", "36")
    with pytest.raises(BudgetError, match="^37 words at depth 2"):
        verify_free(S23, 2)


def test_free_product_by_matrices():
    # independent of the normal forms: enumerate the same reduced words and
    # compare the raw matrices
    gens = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                gens[(min(i, j), max(i, j), 1 if i < j else -1)] = \
                    psi_matrix(S23, i, j)
    seen = {Matrix.identity(3)}
    total = 0
    frontier = [(Matrix.identity(3), None)]
    for _ in range(4):
        nxt = []
        for mat, last in frontier:
            for g, gmat in gens.items():
                if last is not None and g == (last[0], last[1], -last[2]):
                    continue
                child = mat * gmat
                total += 1
                assert child not in seen
                seen.add(child)
                nxt.append((child, g))
        frontier = nxt
    assert total == 936


def test_eigenvalue_by_determinant():
    # independent of the kernel solver: lambda is a root of the
    # characteristic polynomial iff the shifted matrix is singular
    for n in (3, 4, 5):
        s = build_system(n, 3)
        data = eigen_pair(s, 1, 2)
        shifted = Matrix([[QuadExt(e) - data.value if r == c else QuadExt(e)
                           for c, e in enumerate(row)]
                          for r, row in enumerate((s.t(1) * s.t(2)).rows)])
        assert shifted.det() == QuadExt(0)


def test_eigen_pair_markers():
    assert eigen_pair(build_system(1, 3), 1, 2) is PairClass.FINITE_ORDER
    assert eigen_pair(S23, 1, 2) is PairClass.UNIPOTENT
    with pytest.raises(ValueError):
        eigen_pair(S33, 2, 2)
    # the index range is checked before the n <= 2 markers
    for n, i, j in ((1, 0, 1), (2, 1, 7), (2, 4, 1)):
        with pytest.raises(IndexError):
            eigen_pair(build_system(n, 3), i, j)


def test_eigen_pair_factors_the_radicand_once(monkeypatch):
    import coxmov.bir
    import coxmov.exact
    calls = []
    original = coxmov.exact.squarefree_decompose

    def counting(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(coxmov.bir, "squarefree_decompose", counting)
    monkeypatch.setattr(coxmov.exact, "squarefree_decompose", counting)
    for n in (3, 4, 12):
        del calls[:]
        value = eigen_pair(build_system(n, 3), 1, 2).value
        # n-2 and n+2 apart, never their product (quadratic in n)
        assert calls == [n - 2, n + 2], n
        oracle = quad_roots(-(n * n - 2), 1)[0]
        assert (value.a, value.b, value.d) == (oracle.a, oracle.b, oracle.d)


def test_eigen_pair_radicand_matches_product_decomposition():
    # lambda = (n^2 - 2 + n*s*sqrt(d))/2 with (s, d) the decomposition of
    # (n-2)(n+2); n = 10000455 makes n-2 and n+2 both prime
    for n in list(range(3, 3001)) + [10000455]:
        value = eigen_pair(build_system(n, 3), 1, 2).value
        assert (2 * value.b / n, value.d) == squarefree_decompose(
            (n - 2) * (n + 2)), n


def test_eigen_pair_exact():
    # the closed-form eigenvector against a kernel vector of the shifted
    # product, for every ordered pair, including i > j and i = m
    for n in range(3, 8):
        for m in range(3, 6):
            s = build_system(n, m)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    if i == j:
                        continue
                    data = eigen_pair(s, i, j)
                    shifted = Matrix([[QuadExt(e) - data.value if r == c
                                       else QuadExt(e)
                                       for c, e in enumerate(row)]
                                      for r, row in enumerate(
                                          (s.t(i) * s.t(j)).rows)])
                    oracle = primitive_quad_vector(nullspace_vector(shifted))
                    assert data.vector == oracle, (n, m, i, j)
    # the eigenvalue from the radicand (n-2)(n+2) against the larger root
    # of x^2 - (n^2-2)x + 1 from its full discriminant n^2(n^2-4)
    for n in list(range(3, 61)) + [200003, 10000019]:
        value = eigen_pair(build_system(n, 3), 1, 2).value
        oracle = quad_roots(-(n * n - 2), 1)[0]
        assert (value.a, value.b, value.d) == (oracle.a, oracle.b, oracle.d), n
    with pytest.raises(IndexError):
        eigen_pair(S33, 1, 4)
    with pytest.raises(IndexError):
        eigen_pair(S33, 0, 2)
    data = eigen_pair(S33, 1, 2)
    from fractions import Fraction
    assert data.value == QuadExt(Fraction(7, 2), Fraction(3, 2), 5)
    assert data.value > 1
    assert data.value * data.value.conjugate() == QuadExt(1)
    prod = (S33.t(1) * S33.t(2)).map(QuadExt)
    assert prod * data.vector == tuple(data.value * x for x in data.vector)
    # isotropy with respect to the invariant quadric
    qhat = S33.quadric_matrix().map(QuadExt)
    image = qhat * data.vector
    total = QuadExt(0)
    for x, y in zip(data.vector, image):
        total = total + x * y
    assert total == QuadExt(0)


def test_unipotent_structure_n2():
    a = S23.t(1) * S23.t(2)
    ident = Matrix.identity(3)
    assert a.charpoly() == (-1, 3, -3, 1)    # (x-1)^3
    assert a != ident                        # so 1 is a repeated root of
    power = a                                # the minimal polynomial and a
    for _ in range(12):                      # is not diagonalizable
        assert power != ident
        power = power * a


def test_aut_codimension():
    assert aut_codimension(3, 3) == 4
    assert aut_codimension(4, 3) == 29
    assert aut_codimension(3, 4) == 181
    with pytest.raises(ValueError):
        aut_codimension(2, 3)
