"""Every refusal pinned by its exception type and message, plus the value
contracts of ``QuadExt`` and ``Matrix`` that the arithmetic relies on."""

from fractions import Fraction

import pytest

from coxmov.atlas import classify
from coxmov.bir import psi_matrix
from coxmov.checks import run_suites
from coxmov.coxeter import Permutation, build_system
from coxmov.exact import QuadExt, sqrt_exact
from coxmov.linalg import Matrix, dot
from coxmov.svgplot import fnum

S23 = build_system(2, 3)
WIDE = Matrix([[1, 2, 3], [4, 5, 6]])

REFUSALS = [
    pytest.param(lambda: classify(S23, (1, 2)), ValueError,
                 "expected 3 coordinates", id="classify-length"),
    pytest.param(lambda: psi_matrix(S23, 2, 2), ValueError,
                 "generator needs two distinct indices", id="psi-same-index"),
    pytest.param(lambda: run_suites("nope"), ValueError,
                 "unknown suite 'nope'", id="unknown-suite"),
    pytest.param(lambda: Permutation.from_cycle(3, (1, 2, 1)), ValueError,
                 "repeated entry in cycle", id="cycle-repeat"),
    pytest.param(lambda: Permutation.identity(3) * Permutation.identity(4),
                 ValueError, "degree mismatch", id="perm-degree"),
    pytest.param(lambda: S23.t(0), IndexError,
                 "generator index 0 out of range 1..3", id="t-index"),
    pytest.param(lambda: QuadExt(1, 1, -2), ValueError,
                 "negative radicand", id="quadext-radicand"),
    pytest.param(lambda: QuadExt(0).inverse(), ZeroDivisionError,
                 "division by zero in quadratic field", id="quadext-inverse"),
    pytest.param(lambda: sqrt_exact(-1), ValueError,
                 "negative radicand", id="sqrt-negative"),
    pytest.param(lambda: dot((1, 2), (1, 2, 3)), ValueError,
                 "length mismatch", id="dot-length"),
    pytest.param(lambda: Matrix([]), ValueError, "empty matrix",
                 id="matrix-empty"),
    pytest.param(lambda: Matrix([[1, 2], [3]]), ValueError, "ragged rows",
                 id="matrix-ragged"),
    pytest.param(lambda: WIDE.column(4), IndexError,
                 "column index out of range", id="matrix-column"),
    pytest.param(lambda: WIDE + Matrix.identity(2), ValueError,
                 "dimension mismatch", id="matrix-add"),
    pytest.param(lambda: WIDE * (1, 2), ValueError, "dimension mismatch",
                 id="matrix-vector"),
    pytest.param(lambda: WIDE ** 2, ValueError,
                 "power of a non-square matrix", id="matrix-pow"),
    pytest.param(lambda: WIDE.det(), ValueError,
                 "determinant of a non-square matrix", id="matrix-det"),
    pytest.param(lambda: WIDE.inverse(), ValueError,
                 "inverse of a non-square matrix", id="matrix-inverse"),
    pytest.param(lambda: WIDE.charpoly(), ValueError,
                 "characteristic polynomial of a non-square matrix",
                 id="matrix-charpoly"),
    pytest.param(lambda: fnum(float("nan")), ValueError,
                 "svg coordinate nan is not finite", id="svg-coordinate"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_quadext_hash_matches_equal_rational():
    assert QuadExt(3) == 3 and hash(QuadExt(3)) == hash(3)
    assert hash(QuadExt(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_quadext_mixed_radicands_are_unequal():
    assert (QuadExt(1, 1, 2) == QuadExt(1, 1, 3)) is False
    assert QuadExt(1, 1, 2) != QuadExt(1, 1, 3)


def test_scalar_times_matrix():
    m = Matrix([[1, 2], [3, 4]])
    assert 2 * m == Matrix([[2, 4], [6, 8]])
    assert Fraction(1, 2) * m == m * Fraction(1, 2)


def test_negative_powers():
    m = Matrix([[2, 1], [1, 1]])
    assert m ** -1 == m.inverse()
    assert m ** -3 * m ** 3 == Matrix.identity(2)
    q = QuadExt(1, 1, 2)
    assert q ** -1 == q.inverse()
    assert q ** -2 * q ** 2 == 1


def test_quadext_order_against_rationals_and_other_fields():
    # <=, > and >= are derived from __lt__ and __eq__, on either side
    r5 = QuadExt(0, 1, 5)
    assert 2 <= r5 < 3 and 3 > r5 >= 2 and not r5 <= 2
    assert r5 <= r5 and r5 >= r5 and not r5 > r5
    for compare in (lambda: r5 <= QuadExt(0, 1, 3),
                    lambda: QuadExt(0, 1, 3) > r5):
        with pytest.raises(ValueError, match="mixed radicands"):
            compare()
    with pytest.raises(TypeError):
        r5 >= 2.0
