from fractions import Fraction
from itertools import permutations

import pytest

from coxmov.bir import psi_matrix
from coxmov.coxeter import (CoxeterSystem, Permutation, build_system,
                            dual_reflection_from_gram, perm_matrix,
                            reflection_from_gram)
from coxmov.linalg import Matrix, primitive_int_vector

# rank-3 system with all off-diagonal Gram entries -2 and its six
# generator matrices, used as the golden test for the generic constructor
GRAM_C2 = Matrix([[1, -2, -2], [-2, 1, -2], [-2, -2, 1]])
TAUS_C2 = [
    Matrix([[-1, 4, 4], [0, 1, 0], [0, 0, 1]]),
    Matrix([[1, 0, 0], [4, -1, 4], [0, 0, 1]]),
    Matrix([[1, 0, 0], [0, 1, 0], [4, 4, -1]]),
]
TS_C2 = [
    Matrix([[-1, 0, 0], [4, 1, 0], [4, 0, 1]]),
    Matrix([[1, 4, 0], [0, -1, 0], [0, 4, 1]]),
    Matrix([[1, 0, 4], [0, 1, 4], [0, 0, -1]]),
]


def test_build_system_golden():
    s = build_system(2, 3)
    assert s.gram == Matrix([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    assert s.lorentzian
    s3 = build_system(3, 3)
    h = Fraction(-3, 2)
    assert s3.gram == Matrix([[1, h, h], [h, 1, h], [h, h, 1]])
    assert s3.lorentzian


def test_build_system_range():
    with pytest.raises(ValueError):
        build_system(1, 2, enforce_dimension_bound=True)
    build_system(1, 2)      # allowed without the bound
    with pytest.raises(ValueError):
        build_system(0, 3)
    with pytest.raises(ValueError):
        build_system(2, 1)


def test_gram_entrywise():
    for n in range(1, 7):
        for m in range(2, 7):
            g = build_system(n, m).gram
            for i in range(m):
                for j in range(m):
                    expected = Fraction(1) if i == j else Fraction(-n, 2)
                    assert g.rows[i][j] == expected


def test_gram_is_built_on_first_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Matrix was built")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    build_system(2, 2000)
    monkeypatch.undo()
    s = build_system(2, 3)
    assert s.gram is s.gram


def test_generic_reflections_golden():
    for i in range(1, 4):
        assert reflection_from_gram(GRAM_C2, i) == TAUS_C2[i - 1]
        assert dual_reflection_from_gram(GRAM_C2, i) == TS_C2[i - 1]
    with pytest.raises(IndexError):
        reflection_from_gram(GRAM_C2, 4)


def test_family_reflections():
    s = build_system(2, 3)
    assert s.t(1) == Matrix([[-1, 0, 0], [2, 1, 0], [2, 0, 1]])
    ident = Matrix.identity(3)
    for n in range(1, 8):
        for m in range(2, 10):
            sys_ = build_system(n, m)
            for i in range(1, m + 1):
                tau = sys_.tau(i)
                assert tau * tau == Matrix.identity(m)
                assert sys_.t(i) == tau.transpose()
                assert sys_.t(i).det() == -1
                assert tau.transpose() * sys_.gram * tau == sys_.gram
    assert s.tau(2) * s.tau(2) == ident


def test_perm_matrix():
    ident = Permutation.identity(3)
    assert perm_matrix(ident) == Matrix.identity(3)
    swap = Permutation.transposition(3, 1, 2)
    assert perm_matrix(swap) == Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    # columns are e_{sigma(l)}
    cyc = Permutation.from_cycle(3, (1, 2, 3))
    assert perm_matrix(cyc).column(1) == (0, 1, 0)


def test_perm_homomorphism_exhaustive():
    perms = [Permutation(p) for p in permutations((1, 2, 3))]
    for a in perms:
        for b in perms:
            assert perm_matrix(a) * perm_matrix(b) == perm_matrix(a * b)
    for k in (3, 4):
        for a in (Permutation(p) for p in permutations(range(1, k + 1))):
            assert perm_matrix(a).det() == a.sign()


def test_permutation_basics():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    c = Permutation.from_cycle(4, (2, 3, 4))
    assert (c(1), c(2), c(3), c(4)) == (1, 3, 4, 2)
    assert c * c.inverse() == Permutation.identity(4)
    assert Permutation.transposition(4, 1, 3).sign() == -1


def test_permutation_check_and_unchecked_constructions():
    # the public constructor still checks; identity, products and inverses
    # skip the check and give the same values a checked construction does
    for bad in ((1, 1, 3), (0, 1, 2), (1, 2, 4), (2,)):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(bad)
    perms = [Permutation(p) for p in permutations(range(1, 5))]
    checked = [Permutation.identity(4)] + [a * b for a in perms[::5]
                                           for b in perms[::7]]
    checked += [a.inverse() for a in perms]
    for p in checked:
        assert p == Permutation(p.images)
        assert hash(p) == hash(Permutation(p.images))


def _quadric_by_inverse(s):
    """The quadric by elimination: the Gauss-Jordan inverse of the Gram
    matrix, made primitive, with the diagonal >= 0 when it is nonzero and
    the all-ones value > 0 as the tie-break."""
    inv = s.gram.inverse()
    ints = primitive_int_vector([e for row in inv.rows for e in row])
    m = s.m
    mat = [list(ints[r * m:(r + 1) * m]) for r in range(m)]
    diag = next((mat[i][i] for i in range(m) if mat[i][i] != 0), None)
    if diag is not None:
        sign = 1 if diag > 0 else -1
    else:
        ones_val = sum(sum(row) for row in mat)
        if ones_val != 0:
            sign = 1 if ones_val > 0 else -1
        else:
            first = next(e for row in mat for e in row if e != 0)
            sign = 1 if first > 0 else -1
    return Matrix([[sign * e for e in row] for row in mat])


def test_quadric_golden():
    for n in range(1, 8):
        for m in range(2, 10):
            s = build_system(n, m)
            if (n, m) in ((1, 3), (2, 2)):
                with pytest.raises(ValueError, match="singular matrix"):
                    _quadric_by_inverse(s)
                with pytest.raises(ValueError, match="singular matrix"):
                    s.quadric_matrix()
                continue
            assert s.quadric_matrix() == _quadric_by_inverse(s), (n, m)
    s = build_system(2, 3)
    m = s.quadric_matrix()
    assert m == Matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    e1 = (1, 0, 0)
    assert sum(x * y for x, y in zip(e1, m * e1)) == 0
    s3 = build_system(3, 3)
    assert s3.quadric_matrix() == Matrix([[1, -3, -3], [-3, 1, -3], [-3, -3, 1]])
    with pytest.raises(ValueError):
        build_system(1, 3).quadric_matrix()


def test_quadric_invariance():
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            s = build_system(n, m)
            if 1 - Fraction(n * (m - 1), 2) == 0:
                with pytest.raises(ValueError):
                    s.quadric_matrix()
                continue
            qhat = s.quadric_matrix()
            mats = [s.t(i) for i in range(1, m + 1)]
            mats += [perm_matrix(Permutation(p))
                     for p in permutations(range(1, m + 1))]
            mats += [psi_matrix(s, i, j) for i in range(1, m + 1)
                     for j in range(1, m + 1) if i != j]
            for g in mats:
                assert g.transpose() * qhat * g == qhat


def test_gram_eigen_check():
    for (n, m) in ((2, 3), (3, 3), (1, 3), (4, 5), (1, 2)):
        assert build_system(n, m).gram_eigen_check()


def test_lorentzian_condition():
    for n in range(1, 7):
        for m in range(2, 7):
            s = build_system(n, m)
            assert s.lorentzian == (1 - Fraction(n * (m - 1), 2) < 0)
            assert s.lorentzian == (s.gram.signature() == (m - 1, 1, 0))


def test_braid_order_n1():
    for m in range(2, 6):
        s = build_system(1, m)
        ident = Matrix.identity(m)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i != j:
                    assert (s.t(i) * s.t(j)) ** 3 == ident


def test_signature_lorentzian_grid():
    for n in range(2, 7):
        for m in range(2, 7):
            if 1 - Fraction(n * (m - 1), 2) < 0:
                assert build_system(n, m).gram.signature() == (m - 1, 1, 0)


def test_repr():
    assert repr(build_system(2, 3)) == "CoxeterSystem(n=2, m=3)"
    assert isinstance(build_system(2, 3), CoxeterSystem)


def test_system_is_fixed_by_n_and_m():
    # the Gram matrix is built from (n, m), so it cannot disagree with them
    with pytest.raises(TypeError):
        CoxeterSystem(3, 3, build_system(2, 3).gram)
    assert CoxeterSystem(3, 3).gram == build_system(3, 3).gram
    message = "need n >= 1 and m >= 2, got (0, 3)"
    for make in (CoxeterSystem, build_system):
        with pytest.raises(ValueError) as info:
            make(0, 3)
        assert str(info.value) == message
    # the range error comes before the dimension bound
    with pytest.raises(ValueError, match=r"need n >= 1 and m >= 2, got \(2, 1\)"):
        build_system(2, 1, enforce_dimension_bound=True)
