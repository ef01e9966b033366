import random
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxmov.atlas import isotropy_value
from coxmov.bir import eigen_pair
from coxmov.coxeter import build_system
from coxmov.exact import QuadExt
from coxmov.linalg import (Matrix, nullspace_vector, primitive_int_vector,
                           primitive_quad_vector)


def poly_eval_matrix(coeffs, a: Matrix) -> Matrix:
    """Evaluate a constant-first coefficient sequence at a matrix."""
    n = a.nrows
    out = Matrix.zeros(n)
    power = Matrix.identity(n)
    for c in coeffs:
        out = out + power * c
        power = power * a
    return out


def test_floats_rejected():
    with pytest.raises(TypeError):
        Matrix([[0.5, 1], [1, 0]])


def test_float_vectors_rejected():
    # a float in the vector must not turn an exact product inexact
    msg = "^exact matrices do not accept floats$"
    with pytest.raises(TypeError, match=msg):
        Matrix([[1]]) * (0.5,)
    with pytest.raises(TypeError, match=msg):
        isotropy_value(build_system(2, 3), (0.5, 1, 1))
    with pytest.raises(TypeError, match=msg):
        Matrix([[QuadExt(1, 1, 2)]]) * (0.5,)
    # int, Fraction and QuadExt vectors still multiply exactly
    m = Matrix([[1, 2], [3, 4]])
    assert m * (1, 1) == (3, 7)
    assert m * (Fraction(1, 2), 1) == (Fraction(5, 2), Fraction(11, 2))
    r = QuadExt(0, 1, 2)
    assert m * (r, 1) == (r + 2, 3 * r + 4)
    assert isotropy_value(build_system(2, 3), (Fraction(1, 2), 1, 1)) == 4


def test_mat_mul():
    ident = Matrix.identity(3)
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert ident * m == m
    s = build_system(2, 3)
    assert s.t(1) * s.t(1) == ident
    # hand-multiplied product of the two generator matrices
    assert s.t(1) * s.t(2) == Matrix([[-1, -2, 0], [2, 3, 0], [2, 6, 1]])
    with pytest.raises(ValueError):
        m * Matrix([[1, 2], [3, 4]])


def test_charpoly_golden():
    assert Matrix.identity(3).charpoly() == (-1, 3, -3, 1)
    s = build_system(3, 3)
    # (x - 1)(x^2 - 7x + 1) = x^3 - 8x^2 + 8x - 1
    assert (s.t(1) * s.t(2)).charpoly() == (-1, 8, -8, 1)
    s2 = build_system(2, 3)
    assert (s2.t(1) * s2.t(2)).charpoly() == (-1, 3, -3, 1)


def test_cayley_hamilton():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert poly_eval_matrix(a.charpoly(), a) == Matrix.zeros(n)


def test_signature_golden():
    assert Matrix.identity(4).signature() == (4, 0, 0)
    assert build_system(2, 3).gram.signature() == (2, 1, 0)
    # degenerate boundary case: zero eigenvalue on the ones-vector
    assert build_system(1, 3).gram.signature() == (2, 0, 1)
    with pytest.raises(ValueError):
        Matrix([[0, 1], [2, 0]]).signature()


def test_signature_hyperbolic_blocks():
    # zero diagonal forces the 2x2 off-diagonal pivot path
    assert Matrix([[0, 1], [1, 0]]).signature() == (1, 1, 0)
    quadric = build_system(2, 3).quadric_matrix()
    assert quadric.signature() == (1, 2, 0)
    assert Matrix([[0, 0], [0, 0]]).signature() == (0, 0, 2)
    assert Matrix([[0, 2, 0], [2, 0, 0], [0, 0, 5]]).signature() == (2, 1, 0)


# real quadratic scalars with their signs, checked by hand
QUAD_OF_KNOWN_SIGN = {
    d: tuple((QuadExt(a, b, d), sign) for a, b, sign in table)
    for d, table in {
        2: ((1, 1, 1), (1, -1, -1), (-3, 2, -1), (3, -2, 1),
            (0, Fraction(1, 2), 1), (0, -1, -1)),
        5: ((1, -1, -1), (-2, 1, 1), (9, -4, 1), (-9, 4, -1),
            (Fraction(1, 2), 1, 1)),
    }.items()}


@st.composite
def congruent_diagonals(draw):
    """(A, Q A Q^T, expected inertia) with A = P D P^T, D diagonal of known
    signs and P, Q invertible integer matrices (triangular with a non-zero
    diagonal, times a permutation)."""
    n = draw(st.integers(1, 5))
    quads = QUAD_OF_KNOWN_SIGN[draw(st.sampled_from((2, 5)))]
    entries = draw(st.lists(st.one_of(
        st.integers(-3, 3).map(lambda k: (Fraction(k), (k > 0) - (k < 0))),
        st.sampled_from(quads)), min_size=n, max_size=n))
    diag = Matrix([[entries[i][0] if i == j else 0 for j in range(n)]
                   for i in range(n)])
    signs = [sign for _, sign in entries]
    expected = (signs.count(1), signs.count(-1), signs.count(0))

    def invertible(lower):
        pivot, off = st.sampled_from((-2, -1, 1, 3)), st.integers(-2, 2)
        tri = Matrix([[draw(pivot) if i == j else
                       (draw(off) if (i > j) == lower else 0)
                       for j in range(n)] for i in range(n)])
        perm = draw(st.permutations(range(n)))
        return tri * Matrix([[int(perm[i] == j) for j in range(n)]
                             for i in range(n)])

    p, q = invertible(True), invertible(False)
    a = p * diag * p.transpose()
    return a, q * a * q.transpose(), expected


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(congruent_diagonals())
def test_signature_congruence_invariance(case):
    # Sylvester: P D P^T has the inertia of the diagonal D it is built from,
    # and so has every further congruent Q (P D P^T) Q^T
    a, b, expected = case
    assert a.is_symmetric() and b.is_symmetric()
    assert a.signature() == expected
    assert b.signature() == expected


def test_inverse():
    ident = Matrix.identity(3)
    assert ident.inverse() == ident
    q = build_system(2, 3).gram
    half = Fraction(-1, 2)
    assert q.inverse() == Matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) * half
    assert q * q.inverse() == ident
    t1 = build_system(2, 3).t(1)
    assert t1.inverse() == t1
    with pytest.raises(ValueError):
        build_system(1, 3).gram.inverse()


def test_nullspace_vector():
    q = build_system(1, 3).gram
    v = nullspace_vector(q)
    assert v is not None
    assert q * v == (0, 0, 0)
    assert nullspace_vector(Matrix.identity(3)) is None


def test_nullspace_over_quadratic_field():
    s = build_system(3, 3)
    lam = QuadExt(Fraction(7, 2), Fraction(3, 2), 5)
    prod = s.t(1) * s.t(2)
    shifted = Matrix([[QuadExt(e) - lam if r == c else QuadExt(e)
                       for c, e in enumerate(row)]
                      for r, row in enumerate(prod.rows)])
    v = nullspace_vector(shifted)
    assert v is not None
    assert prod.map(QuadExt) * v == tuple(lam * x for x in v)


def test_primitive_vectors():
    assert primitive_int_vector((Fraction(2, 3), Fraction(-4, 3), 2)) == (1, -2, 3)
    # direction is preserved, never sign-flipped
    assert primitive_int_vector((-2, 4, 4)) == (-1, 2, 2)
    with pytest.raises(ValueError):
        primitive_int_vector((0, 0))
    vec = primitive_quad_vector((QuadExt(Fraction(1, 2), Fraction(-1, 2), 5),
                                 QuadExt(Fraction(1, 2), Fraction(1, 2), 5),
                                 QuadExt(3)))
    assert vec == (QuadExt(1, -1, 5), QuadExt(1, 1, 5), QuadExt(6))
    neg = primitive_quad_vector(tuple(-x for x in vec))
    assert neg == vec          # sum-positive orientation


# -- the elimination oracles against independent definitions -----------------

def leibniz_det(a: Matrix):
    """Sum over permutations of the signed products of entries."""
    n = a.nrows
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for r in range(n):
            term = term * a.rows[r][p[r]]
        total = total + term
    return total


def integer_matrices(seed, count=80):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:
            # a dependent row: a multiple (possibly zero) of another
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            rows[i] = [k * x for x in rows[j]]
        yield Matrix(rows)


def quadratic_matrices():
    """t_i*t_j - mu*I over Q(sqrt(d)): singular at the eigenvalue
    mu = lambda, invertible at mu = lambda + 1."""
    for n, m, i, j in ((3, 3, 1, 2), (3, 4, 2, 4), (5, 3, 3, 1)):
        s = build_system(n, m)
        lam = eigen_pair(s, i, j).value
        prod = (s.t(i) * s.t(j)).map(QuadExt)
        for mu in (lam, lam + 1):
            yield prod - Matrix.identity(m).map(QuadExt) * mu


def oracle_cases(seed):
    yield from integer_matrices(seed)
    yield from quadratic_matrices()


def test_det_matches_leibniz():
    dets = []
    for a in oracle_cases(5):
        dets.append(leibniz_det(a))
        assert a.det() == dets[-1]
    assert dets.count(0) >= 10 and len(dets) - dets.count(0) >= 10


def test_inverse_or_singular():
    for a in oracle_cases(6):
        if leibniz_det(a) != 0:
            assert a * a.inverse() == Matrix.identity(a.nrows)
        else:
            with pytest.raises(ValueError, match="^singular matrix$"):
                a.inverse()


def test_nullspace_vector_iff_singular():
    for a in oracle_cases(7):
        v = nullspace_vector(a)
        assert (v is None) == (leibniz_det(a) != 0)
        if v is not None:
            assert any(v) and a * v == (0,) * a.nrows


# -- the product kernel against a naive sum of entry products -----------------

FIXED = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)

FRACTIONS = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-30, 30),
                                st.integers(1, 12)))
INTS = st.integers(-30, 30)


def naive_product(a_rows, b_rows):
    """Entry (i, j) is the left-to-right sum of a[i][k] * b[k][j]."""
    return [[reduce(add, map(mul, row, col)) for col in zip(*b_rows)]
            for row in a_rows]


def grid(draw, entries, nrows, ncols):
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def operands(draw, entries):
    """A (r x k) and a (k x c) matrix and a length-k vector, sizes 1-5."""
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    vector = [draw(st.one_of(entries, INTS)) for _ in range(k)]
    return grid(draw, entries, r, k), grid(draw, entries, k, c), vector


def quad_entries(d):
    return st.builds(QuadExt, FRACTIONS, FRACTIONS, st.just(d))


@st.composite
def quad_operands(draw):
    """Operands over one Q(sqrt(d)); with ``mixed`` most entries stay
    rational, so the kernel sees rational rows next to radical ones."""
    d = draw(st.sampled_from((2, 5, 21)))
    mixed = draw(st.booleans())
    quad = quad_entries(d)
    entries = st.one_of(FRACTIONS, FRACTIONS, quad) if mixed else quad
    return draw(operands(entries))


def assert_rational_entries(values):
    assert all(type(x) is Fraction for x in values)


@FIXED
@given(operands(FRACTIONS))
def test_rational_products_match_naive_sum(case):
    a, b, vec = case
    prod = Matrix(a) * Matrix(b)
    assert [list(r) for r in prod.rows] == naive_product(a, b)
    assert_rational_entries(x for row in prod.rows for x in row)
    image = Matrix(a) * vec
    assert list(image) == [reduce(add, map(mul, row, vec)) for row in a]
    assert_rational_entries(image)


@FIXED
@given(st.integers(1, 5), st.integers(1, 5),
       st.lists(INTS, min_size=25, max_size=25))
def test_integer_vector_images_are_fractions(r, k, flat):
    a = Matrix([flat[i * k:(i + 1) * k] for i in range(r)])
    vec = tuple(flat[:k])
    image = a * vec
    assert list(image) == [sum(map(mul, row, vec)) for row in a.rows]
    assert_rational_entries(image)


@settings(FIXED, max_examples=60)
@given(quad_operands())
def test_quadratic_and_mixed_products_match_naive_sum(case):
    a, b, vec = case
    assert [list(r) for r in (Matrix(a) * Matrix(b)).rows] == \
        naive_product(a, b)
    assert list(Matrix(a) * vec) == \
        [reduce(add, map(mul, row, vec)) for row in a]


# -- reused operands ----------------------------------------------------------

def matrix_entries(kind, d):
    """Entries of one matrix: all int, all rational, or rational with some
    ``QuadExt`` (then its products go through ``dot``)."""
    if kind == "int":
        return INTS
    if kind == "fraction":
        return st.one_of(FRACTIONS, INTS)
    return st.one_of(FRACTIONS, INTS, quad_entries(d))


@st.composite
def product_sessions(draw):
    """A pool of k x k matrices and a list of products over it: each step
    multiplies two pool members, or a member by an int vector, and may put
    the product back into the pool as a later operand."""
    k = draw(st.integers(1, 4))
    d = draw(st.sampled_from((2, 5)))
    kinds = draw(st.lists(st.sampled_from(("int", "fraction", "mixed")),
                          min_size=2, max_size=4))
    pool = [grid(draw, matrix_entries(kind, d), k, k) for kind in kinds]
    steps = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99),
                                    st.sampled_from(("keep", "drop", "vec"))),
                          min_size=4, max_size=16))
    vectors = draw(st.lists(st.lists(INTS, min_size=k, max_size=k),
                            min_size=1, max_size=3))
    return pool, steps, vectors


def is_rational(rows):
    return all(isinstance(x, (int, Fraction)) for row in rows for x in row)


def assert_entry_types(values, rational):
    for x in values:
        assert type(x) is Fraction if rational else type(x) in (Fraction,
                                                                QuadExt)


@FIXED
@given(product_sessions())
def test_reused_operands_and_results_match_naive_sum(case):
    # the same Matrix objects serve as left and right operands, several
    # times each and in any order, so a product that read the rows of the
    # right operand where it needs its columns, or that let one product
    # change an operand, gives a wrong entry
    pool, steps, vectors = case
    mats = [Matrix(rows) for rows in pool]
    for i, j, action in steps:
        a, b = i % len(pool), j % len(pool)
        if action == "vec":
            vec = tuple(vectors[j % len(vectors)])
            image = mats[a] * vec
            assert list(image) == [reduce(add, map(mul, row, vec))
                                   for row in pool[a]]
            assert_entry_types(image, is_rational(pool[a]))
            continue
        prod = mats[a] * mats[b]
        want = naive_product(pool[a], pool[b])
        assert [list(r) for r in prod.rows] == want
        assert_entry_types((x for r in prod.rows for x in r),
                           is_rational(pool[a]) and is_rational(pool[b]))
        if action == "keep":
            pool.append(want)
            mats.append(prod)


@FIXED
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.lists(INTS, min_size=16, max_size=16),
       st.lists(st.builds(Fraction, INTS, st.integers(2, 12)),
                min_size=16, max_size=16),
       st.booleans())
def test_integral_times_fractional_keeps_denominators(r, k, c, ints, fracs,
                                                      flip):
    # one side has denominator 1 everywhere and the other nowhere, so an
    # entry may take the denominator-free path only when both do
    whole = [ints[i * k:(i + 1) * k] for i in range(r)]
    parts = [fracs[i * c:(i + 1) * c] for i in range(k)]
    if flip:
        whole, parts = ([fracs[i * k:(i + 1) * k] for i in range(r)],
                        [ints[i * c:(i + 1) * c] for i in range(k)])
    prod = Matrix(whole) * Matrix(parts)
    assert [list(row) for row in prod.rows] == naive_product(whole, parts)
    assert_rational_entries(x for row in prod.rows for x in row)
    vec = tuple(fracs[:k]) if not flip else tuple(ints[:k])
    image = Matrix(whole) * vec
    assert list(image) == [reduce(add, map(mul, row, vec)) for row in whole]
    assert_rational_entries(image)


def test_matrix_keeps_no_state_beyond_its_rows():
    assert Matrix.__slots__ == ("rows", "nrows", "ncols")


def test_transpose_and_columns():
    rows = [[1, Fraction(1, 2), 3], [QuadExt(1, 1, 5), 0, -1]]
    mat = Matrix(rows)
    assert mat.columns() == tuple(mat.column(j) for j in (1, 2, 3))
    assert mat.transpose() == Matrix([[r[j] for r in rows] for j in range(3)])
    assert (mat.transpose().nrows, mat.transpose().ncols) == (3, 2)
    assert_entry_types((x for col in mat.columns() for x in col), False)
    assert mat.transpose().transpose() == mat


# -- powers and the characteristic polynomial against repeated products -------

def count_calls(monkeypatch, owner, name, wrap=lambda f: f):
    """Patch ``owner.name`` to count its calls; return the call list."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(owner, name, wrap(counting))
    return calls


def test_power_products_follow_the_bits_of_k(monkeypatch):
    mat = Matrix([[1, Fraction(1, 2)], [-1, 3]])
    scalar = QuadExt(1, 1, 2)
    mat_muls = count_calls(monkeypatch, Matrix, "__mul__")
    quad_muls = count_calls(monkeypatch, QuadExt, "__mul__")
    identities = count_calls(monkeypatch, Matrix, "identity", staticmethod)
    for k in range(1, 41):
        mat_muls.clear()
        quad_muls.clear()
        mat ** k
        scalar ** k
        assert len(mat_muls) == len(quad_muls) == (k.bit_length()
                                                   + k.bit_count() - 2)
    assert not identities
    assert (mat ** 0).rows == ((1, 0), (0, 1)) and len(identities) == 1


def test_charpoly_makes_n_minus_1_products(monkeypatch):
    muls = count_calls(monkeypatch, Matrix, "__mul__")
    identities = count_calls(monkeypatch, Matrix, "identity", staticmethod)
    rng = random.Random(42)
    for n in range(1, 8):
        a = Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        muls.clear()
        a.charpoly()
        assert len(muls) == n - 1
    assert not identities


def test_verify_all_product_count(monkeypatch):
    from coxmov import linalg
    from coxmov.checks import run_suites
    products = count_calls(monkeypatch, linalg, "_product")
    assert run_suites("all")["passed"]
    assert len(products) <= 4114


@st.composite
def power_bases(draw):
    """A rational or quadratic-field scalar or square matrix (size 1-3),
    with the unit of its ring."""
    d = draw(st.sampled_from((2, 5)))
    entries = draw(st.sampled_from((FRACTIONS, quad_entries(d))))
    if draw(st.booleans()):
        x = draw(entries)
        return (x if isinstance(x, QuadExt) else QuadExt(x)), QuadExt(1)
    n = draw(st.integers(1, 3))
    return Matrix(grid(draw, entries, n, n)), Matrix.identity(n)


def is_invertible(x):
    return leibniz_det(x) != 0 if isinstance(x, Matrix) else x != 0


@settings(FIXED, max_examples=40)
@given(power_bases(), st.integers(0, 12))
def test_power_is_the_left_fold_of_its_factors(case, k):
    x, unit = case
    assert x ** k == reduce(mul, [x] * k, unit)
    if is_invertible(x):
        assert x ** -k * x ** k == unit


@st.composite
def square_matrices(draw):
    """An n x n integer or rational matrix, n = 1-6."""
    n = draw(st.integers(1, 6))
    return Matrix(grid(draw, draw(st.sampled_from((INTS, FRACTIONS))), n, n))


@settings(FIXED, max_examples=40)
@given(square_matrices())
def test_charpoly_meets_det_trace_and_cayley_hamilton(a):
    n, coeffs = a.nrows, a.charpoly()
    assert len(coeffs) == n + 1 and coeffs[n] == 1
    assert coeffs[0] == (-1) ** n * leibniz_det(a)
    assert coeffs[n - 1] == -sum(a.rows[i][i] for i in range(n))
    assert poly_eval_matrix(coeffs, a) == Matrix.zeros(n)
