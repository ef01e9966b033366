"""The integer engine (column walk, classification walk, integer-pair
apexes) against generic ``Matrix`` products and ``QuadExt`` arithmetic.

Each property draws its cases from a fixed seed (derandomized), so the
suite stays deterministic.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coxmov.atlas import (BoundaryPatch, Chamber, ClassificationError,
                          ClassificationResult, _t_columns, boundary_patches,
                          classify, enumerate_chambers, fundamental_domain,
                          project_affine, word_matrix)
from coxmov.bir import (GroupElementNF, PairClass, eigen_pair, psi_from_t,
                        psi_word_matrix, t_normal_form)
from coxmov.coxeter import Permutation, build_system, perm_matrix
from coxmov.exact import QuadExt
from coxmov.linalg import (Matrix, dot, primitive_int_vector,
                           primitive_quad_vector)

FIXED = settings(derandomize=True, database=None, deadline=None,
                 max_examples=40)


@st.composite
def systems_and_words(draw, n_max=7, m_max=6, length_max=6):
    n = draw(st.integers(2, n_max))
    m = draw(st.integers(3, m_max))
    length = draw(st.integers(0, length_max))
    word = []
    for _ in range(length):
        word.append(draw(st.sampled_from(
            [k for k in range(1, m + 1) if not word or k != word[-1]])))
    return build_system(n, m), tuple(word)


@FIXED
@given(systems_and_words())
def test_t_columns_match_word_matrix(case):
    sys, word = case
    cols = next(c for letters, c in _t_columns(sys, len(word))
                if letters == word)
    assert cols == word_matrix(sys, word).columns()
    assert all(isinstance(x, int) for col in cols for x in col)


def _reduced_words(m, depth):
    # brute force: every word without a repeated letter, by length and
    # then lexicographically
    for k in range(depth + 1):
        for w in product(range(1, m + 1), repeat=k):
            if all(a != b for a, b in zip(w, w[1:])):
                yield w


def _chambers_by_matrices(sys, depth):
    return [Chamber(tuple(primitive_int_vector(c)
                          for c in word_matrix(sys, w).columns()), w)
            for w in _reduced_words(sys.m, depth)]


def _patches_by_matrices(sys, depth):
    # the boundary sampling as matrix products: base rays from the word
    # matrix columns, the apex as the word matrix times the eigenvector,
    # the first (breadth-first) patch of each ray data kept
    m = sys.m
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    vectors = {pair: eigen_pair(sys, *pair) for pair in pairs}
    zero = tuple(QuadExt(0) for _ in range(m))
    seen, out = set(), []
    for w in _reduced_words(m, depth):
        mat = word_matrix(sys, w)
        for i, j in pairs:
            base = tuple(sorted(primitive_int_vector(mat.column(k))
                                for k in range(1, m + 1) if k not in (i, j)))
            data = vectors[(i, j)]
            apex = (zero if isinstance(data, PairClass)
                    else primitive_quad_vector(mat * data.vector))
            key = (tuple((x.a, x.b, x.d) for x in apex), base)
            if key not in seen:
                seen.add(key)
                out.append(BoundaryPatch((i, j), w, apex, base))
    return out


def _fields(patches):
    return [(p.pair, p.word, tuple((x.a, x.b, x.d) for x in p.apex),
             p.base_rays) for p in patches]


@settings(FIXED, max_examples=20)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2))
def test_listings_match_matrix_products(n, m, depth):
    sys = build_system(n, m)
    assert enumerate_chambers(sys, depth) == _chambers_by_matrices(sys, depth)
    assert fundamental_domain(sys) == _chambers_by_matrices(sys, 1)
    assert (_fields(boundary_patches(sys, depth))
            == _fields(_patches_by_matrices(sys, depth)))


def _quad_fields(x):
    return x.a, x.b, x.d


def _normalise_by_field_arithmetic(vec):
    """The primitive form of a Q(sqrt(d)) vector through ``QuadExt``
    arithmetic: scale by denom/gcd, then negate when the coordinate sum (or,
    when that is zero, the first nonzero coordinate) is negative."""
    vals = [v if isinstance(v, QuadExt) else QuadExt(v) for v in vec]
    denom = lcm(*(x.denominator for v in vals for x in (v.a, v.b)))
    g = gcd(*(x.numerator * denom // x.denominator
              for v in vals for x in (v.a, v.b)))
    vals = [v * Fraction(denom, g) for v in vals]
    total = vals[0]
    for v in vals[1:]:
        total = total + v
    s = total.sign() or next(v.sign() for v in vals if v.sign())
    return tuple(-v for v in vals) if s < 0 else tuple(vals)


@settings(FIXED, max_examples=15)
@given(st.sampled_from((3, 4, 5, 6, 9, 10, 101)), st.integers(3, 5),
       st.integers(0, 3))
@example(101, 3, 3)
@example(101, 5, 2)
@example(6, 5, 3)
def test_integer_pair_apexes_match_field_arithmetic(n, m, depth):
    # every apex w.v, with v the QuadExt eigenvector, as a dot over
    # Q(sqrt(d)) made primitive by the adapter and by the reference
    sys = build_system(n, m)
    rows = {w: tuple(zip(*cols)) for w, cols in _t_columns(sys, depth)}
    patches = boundary_patches(sys, depth)
    vectors = {pair: eigen_pair(sys, *pair).vector
               for pair in {p.pair for p in patches}}
    for p in patches:
        image = tuple(dot(row, vectors[p.pair]) for row in rows[p.word])
        want = _normalise_by_field_arithmetic(image)
        assert ([_quad_fields(x) for x in p.apex]
                == [_quad_fields(x) for x in primitive_quad_vector(image)]
                == [_quad_fields(x) for x in want]), (p.pair, p.word)


QUADS = st.builds(lambda a, b, c, e: (Fraction(a, c), Fraction(b, e)),
                  st.integers(-40, 40), st.integers(-40, 40),
                  st.integers(1, 9), st.integers(1, 9))


@settings(FIXED, max_examples=300)
@given(st.lists(QUADS, min_size=1, max_size=6), st.sampled_from((2, 3, 5, 12)))
@example([(0, 0), (-2, 0), (1, 0), (1, 0)], 2)
@example([(1, 1), (-1, -1), (0, 0)], 5)
@example([(-3, 1), (3, -1), (1, 0), (-1, 0)], 12)
def test_primitive_quad_vector_matches_field_arithmetic(coords, d):
    # d = 12 goes through the constructor as 2*sqrt(3); the examples have
    # coordinate sum zero, so the first nonzero coordinate decides the sign
    vec = [QuadExt(a, b, d) for a, b in coords]
    if not any(vec):
        with pytest.raises(ValueError):
            primitive_quad_vector(vec)
        return
    got = primitive_quad_vector(vec)
    assert ([_quad_fields(x) for x in got]
            == [_quad_fields(x) for x in _normalise_by_field_arithmetic(vec)])
    assert all(type(x.a) is type(x.b) is Fraction for x in got)
    if any(x.b for x in vec):
        with pytest.raises(ValueError, match="mixed radicands"):
            primitive_quad_vector(vec + [QuadExt(0, 1, 7)])


def _project_by_field_division(v):
    # the sum-one chart through field arithmetic: one sum, then one
    # division in Q(sqrt(d)) per coordinate
    vals = tuple(Fraction(x) if isinstance(x, int) else x for x in v)
    total = vals[0]
    for x in vals[1:]:
        total = total + x
    if not total:
        raise ValueError("zero coordinate sum: direction at infinity")
    return tuple(x / total for x in vals)


def _typed(vec):
    # each entry's type and value, and each QuadExt field's type and value
    return [(type(x), *(((type(f), f) for f in _quad_fields(x))
                        if isinstance(x, QuadExt) else (x,)))
            for x in vec]


RATIONALS = st.one_of(st.integers(-30, 30),
                      st.builds(Fraction, st.integers(-30, 30),
                                st.integers(1, 9)))


@st.composite
def chart_vectors(draw):
    # rational entries, or QuadExt entries over one radicand mixed with
    # rational ones; d = 12 goes through the constructor as 2*sqrt(3)
    d = draw(st.sampled_from((0, 2, 3, 5, 12)))
    entry = RATIONALS if not d else st.one_of(RATIONALS, st.builds(
        lambda ab: QuadExt(*ab, d), QUADS))
    return draw(st.lists(entry, min_size=1, max_size=5))


@settings(FIXED, max_examples=300)
@given(chart_vectors())
@example([1, -1, 0])
@example([QuadExt(1, 1, 5), QuadExt(-1, -1, 5), 0])
@example([QuadExt(1, 1, 5), Fraction(1, 2), -3])
def test_project_affine_matches_field_division(vec):
    try:
        want = _project_by_field_division(vec)
    except ValueError:
        with pytest.raises(ValueError, match="zero coordinate sum"):
            project_affine(vec)
        return
    assert _typed(project_affine(vec)) == _typed(want)


def test_project_affine_on_boundary_apexes():
    for n, m in product((3, 5, 10), (3, 4, 5)):
        for p in boundary_patches(build_system(n, m), 2):
            assert (_typed(project_affine(p.apex))
                    == _typed(_project_by_field_division(p.apex))), (n, m, p)


def test_project_affine_refuses_zero_sums_and_mixed_radicands():
    root5 = QuadExt(0, 1, 5)
    for vec in ((0,), (1, -1, 0), (Fraction(1, 2), Fraction(-1, 2)),
                (1 + root5, -1 - root5, 0)):
        with pytest.raises(ValueError, match="zero coordinate sum"):
            project_affine(vec)
    for vec in ((root5, QuadExt(0, 1, 2), 1),
                (1, QuadExt(1, 1, 3), QuadExt(2, -1, 7))):
        with pytest.raises(ValueError, match="mixed radicands"):
            project_affine(vec)


def _walk_by_matrices(sys, vec, max_steps):
    # the greedy walk as Fraction matrix products: apply t_i for the most
    # negative coordinate (smallest index on ties) while one is negative
    vec = tuple(Fraction(x) for x in vec)
    word = []
    while len(word) < max_steps and min(vec) < 0:
        i = vec.index(min(vec)) + 1
        word.append(i)
        vec = sys.t(i) * vec
    return tuple(word), vec


@st.composite
def classes(draw):
    # raw coordinates (mostly outside the tiled cone), or a nonnegative
    # class moved by a reduced word (inside it)
    sys, word = draw(systems_and_words(n_max=5, m_max=5, length_max=4))
    moved = draw(st.booleans())
    low = 0 if moved else -12
    coords = tuple(Fraction(draw(st.integers(low, 12)),
                            draw(st.integers(1, 6))) for _ in range(sys.m))
    assume(any(coords))
    return sys, word_matrix(sys, word) * coords if moved else coords


@settings(FIXED, max_examples=150)
@given(classes(), st.integers(0, 8))
def test_classify_matches_matrix_walk(case, max_steps):
    sys, coords = case
    word, vec = _walk_by_matrices(sys, coords, max_steps)
    if min(vec) < 0:
        with pytest.raises(ClassificationError) as err:
            classify(sys, coords, max_steps)
        assert err.value.steps == max_steps
        assert err.value.last_iterate == vec
        return
    res = classify(sys, coords, max_steps)
    assert res.t_word == word and res.nef_coords == vec
    # model and marking: the word matrix factors as psi * t_model * P(perm)
    model = (sys.t(res.model_index) if res.model_index
             else Matrix.identity(sys.m))
    assert (psi_word_matrix(sys, res.psi_word) * model * perm_matrix(res.perm)
            == word_matrix(sys, word))


def _classify_through_fractions(sys, coords, max_steps):
    # every coordinate through Fraction and the walk as matrix products; a
    # failed walk gives (steps, last iterate)
    word, iterate = _walk_by_matrices(sys, coords, max_steps)
    if min(iterate) < 0:
        return max_steps, iterate
    psi = psi_from_t(sys, word)
    residual = (t_normal_form(sys, psi).inverse()
                * GroupElementNF(word, Permutation.identity(sys.m)))
    model = residual.letters[0] if residual.letters else 0
    return ClassificationResult(word, psi, model, residual.perm, iterate)


@st.composite
def typed_classes(draw):
    # rationals with denominators 1-12 and numerators up to 2^70, moved
    # into the tiled cone or not, each coordinate spelled as an int (when
    # integral), a Fraction or a numeric string
    sys, word = draw(systems_and_words(n_max=5, m_max=5, length_max=4))
    big = st.integers(2 ** 64, 2 ** 70) | st.integers(-2 ** 70, -2 ** 64)
    coords = tuple(Fraction(draw(st.integers(-12, 12) | big),
                            draw(st.integers(1, 12))) for _ in range(sys.m))
    if draw(st.booleans()):
        coords = word_matrix(sys, word) * tuple(abs(x) for x in coords)
    assume(any(coords))
    spelled = []
    for x in coords:
        kinds = ["fraction", "str"] + (["int"] if x.denominator == 1 else [])
        kind = draw(st.sampled_from(kinds))
        spelled.append(x if kind == "fraction" else
                       str(x) if kind == "str" else int(x))
    return sys, tuple(spelled)


@settings(FIXED, max_examples=150)
@given(typed_classes(), st.integers(0, 8))
def test_classify_input_types_match_fraction_scaling(case, max_steps):
    sys, coords = case
    want = _classify_through_fractions(sys, coords, max_steps)
    if not isinstance(want, ClassificationResult):
        with pytest.raises(ClassificationError) as err:
            classify(sys, coords, max_steps)
        assert (err.value.steps, err.value.last_iterate) == want
        assert all(type(x) is Fraction for x in err.value.last_iterate)
        return
    res = classify(sys, coords, max_steps)
    assert res == want
    assert all(type(x) is Fraction for x in res.nef_coords)


def test_classify_float_input_goes_through_fraction():
    s = build_system(2, 3)
    for coords in ((-1.0, 4.0, 5.0), (0.1, 0.2, 0.3), (-0.5, 2.25, 3.0),
                   (-1.0, 4, Fraction(5)), (True, 1, 1)):
        res = classify(s, coords)
        assert res == classify(s, tuple(Fraction(x) for x in coords))
        assert all(type(x) is Fraction for x in res.nef_coords)
    assert classify(s, (0.1, 0.2, 0.3)).nef_coords[0] == Fraction(
        3602879701896397, 36028797018963968)
    with pytest.raises(ValueError, match="NaN"):
        classify(s, (float("nan"), 1, 1))
    with pytest.raises(OverflowError):
        classify(s, (float("inf"), 1, 1))
