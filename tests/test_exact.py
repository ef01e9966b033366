import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxmov import exact
from coxmov.exact import QuadExt, quad_roots, sqrt_exact, squarefree_decompose


def test_squarefree_decompose():
    assert squarefree_decompose(45) == (3, 5)
    assert squarefree_decompose(192) == (8, 3)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(0) == (1, 0)
    assert squarefree_decompose(49) == (7, 1)
    with pytest.raises(ValueError):
        squarefree_decompose(-4)


def _squarefree_by_sqrt_division(n):
    # trial division while p*p <= the unfactored part
    s, d, m, p = 1, 1, n, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
        p += 1 if p == 2 else 2
    return s, d * m


def _next_prime(n):
    while any(n % p == 0 for p in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n


def test_squarefree_decompose_matches_sqrt_division_below_200000():
    assert all(squarefree_decompose(n) == _squarefree_by_sqrt_division(n)
               for n in range(1, 200000))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 10 ** 10 - 1))
def test_squarefree_decompose_matches_sqrt_division(n):
    assert squarefree_decompose(n) == _squarefree_by_sqrt_division(n)


@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(st.integers(10 ** 6 - 2000, 10 ** 6 + 2000),
       st.integers(10 ** 6 - 2000, 10 ** 6 + 2000))
def test_squarefree_decompose_prime_square_times_prime(a, b):
    # the cofactor left at the cube-root bound is q, p*p or p*q
    p, q = _next_prime(a), _next_prime(b)
    for n in (p * p * q, p * q):
        assert squarefree_decompose(n) == _squarefree_by_sqrt_division(n)
    assert squarefree_decompose(p * p) == (p, 1)
    assert squarefree_decompose(12 * p * p) == (2 * p, 3)


def test_quadext_normalization():
    # square radicands fold into the rational part
    assert QuadExt(1, 2, 9) == QuadExt(7)
    assert QuadExt(3, 0, 5) == QuadExt(3)
    assert QuadExt(1, 2, 8) == QuadExt(1, 4, 2)
    x = QuadExt(0, 1, 12)
    assert (x.b, x.d) == (Fraction(2), 3)


def test_quadext_arithmetic():
    x = QuadExt(1, 1, 5)
    y = QuadExt(2, -1, 5)
    assert x + y == QuadExt(3, 0, 5) == QuadExt(3)
    assert x * y == QuadExt(2 - 5 + 0, -1 + 2, 5) == QuadExt(-3, 1, 5)
    assert x - x == QuadExt(0)
    assert (x * x.inverse()) == QuadExt(1)
    assert x ** 3 == x * x * x
    assert 2 * x == QuadExt(2, 2, 5)
    assert x / x == QuadExt(1)
    assert 1 / QuadExt(0, 1, 2) == QuadExt(0, Fraction(1, 2), 2)


def test_quadext_mixed_radicand_rejected():
    with pytest.raises(ValueError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    # rational values are compatible with any field
    assert QuadExt(2) + QuadExt(0, 1, 3) == QuadExt(2, 1, 3)


def test_floats_rejected():
    with pytest.raises(TypeError):
        QuadExt(0.5)
    with pytest.raises(TypeError):
        QuadExt(1, 0.25, 5)


def test_quadext_exact_ordering():
    sqrt5 = QuadExt(0, 1, 5)
    # 9/4 < 5 < 94/41... exact comparisons near the value
    assert QuadExt(Fraction(9, 4)) < sqrt5 * sqrt5
    assert sqrt5 > QuadExt(2) and sqrt5 < QuadExt(Fraction(9, 4))
    assert QuadExt(7, -3, 5) > 0        # 7 > 3*sqrt(5)
    assert QuadExt(6, -3, 5) < 0        # 6 < 3*sqrt(5)
    assert QuadExt(-7, 3, 5) < 0
    assert QuadExt(0, 0, 0).sign() == 0


def _sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d), for integers a, b and d >= 0: when a and b
    have opposite signs the larger of a*a and b*b*d wins."""
    sa, sb = (a > 0) - (a < 0), ((b > 0) - (b < 0)) if d else 0
    if sa == 0 or sb == 0 or sa == sb:
        return sa or sb
    lhs, rhs = a * a, b * b * d
    return sa if lhs > rhs else (sb if lhs < rhs else 0)


RATIONALS = st.tuples(st.integers(-60, 60), st.integers(1, 12))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(RATIONALS, RATIONALS, RATIONALS, RATIONALS, st.integers(0, 60))
def test_quadext_ordering_matches_integer_comparison(a, b, c, e, d):
    # x - y = (a - c) + (b - e)*sqrt(d); cross-multiplying by the positive
    # denominators leaves integers, and d need not be squarefree
    x = QuadExt(Fraction(*a), Fraction(*b), d)
    y = QuadExt(Fraction(*c), Fraction(*e), d)
    (pa, qa), (pb, qb), (pc, qc), (pe, qe) = a, b, c, e
    s = _sign((pa * qc - pc * qa) * qb * qe, (pb * qe - pe * qb) * qa * qc, d)
    assert (x < y, x <= y, x == y, x >= y, x > y) == \
        (s < 0, s <= 0, s == 0, s >= 0, s > 0)
    assert (x - y).sign() == s


def _branchy_sign(a, b, d):
    """The case-by-case sign rule ``QuadExt.sign`` used to carry, kept as a
    reference (d > 0 whenever b != 0, as in a ``QuadExt``)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if a > 0:
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return 1 if rhs > lhs else (-1 if rhs < lhs else 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(RATIONALS, RATIONALS, st.integers(0, 60))
# zeros with a non-squarefree d: 2 - sqrt(4), -3 + sqrt(9), 1/2 - sqrt(4)/4
@example((2, 1), (-1, 1), 4)
@example((-3, 1), (1, 1), 9)
@example((6, 1), (-3, 1), 4)
@example((1, 2), (-1, 4), 4)
@example((0, 1), (5, 1), 0)
def test_sign_rule_matches_branchy_reference(a, b, d):
    a, b = Fraction(*a), Fraction(*b)
    expected = _branchy_sign(a, b if d else 0, d)    # sqrt(0) = 0
    assert exact._sign(a, b, d) == expected
    num = a.numerator * b.denominator, b.numerator * a.denominator
    assert exact._sign(*num, d) == _sign(*num, d) == expected
    assert QuadExt(a, b, d).sign() == expected


MIXED = st.one_of(st.integers(-30, 30), RATIONALS.map(lambda t: Fraction(*t)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(RATIONALS, RATIONALS, st.integers(0, 30), MIXED)
def test_rational_operand_lifts_like_the_constructor(a, b, d, x):
    # an int or Fraction operand takes the fast lift; every mixed result
    # equals the one through the public constructor QuadExt(x)
    q, qx = QuadExt(Fraction(*a), Fraction(*b), d), QuadExt(x)
    assert _fields(q._lift(x)) == _fields(qx) == (Fraction(x), 0, 0)
    pairs = [(q + x, q + qx), (x + q, qx + q), (q - x, q - qx),
             (x - q, qx - q), (q * x, q * qx), (x * q, qx * q)]
    if x:
        pairs.append((q / x, q / qx))
    if q:
        pairs.append((x / q, qx / q))
    for got, want in pairs:
        assert type(got.a) is type(got.b) is Fraction
        assert _fields(got) == _fields(want)
    assert ((q < x, q <= x, q == x, q != x, q >= x, q > x)
            == (q < qx, q <= qx, q == qx, q != qx, q >= qx, q > qx))
    assert ((x < q, x <= q, x == q, x >= q, x > q)
            == (qx < q, qx <= q, qx == q, qx >= q, qx > q))


def test_quad_roots_golden():
    big, small = quad_roots(-7, 1)
    assert big == QuadExt(Fraction(7, 2), Fraction(3, 2), 5)
    assert small == QuadExt(Fraction(7, 2), Fraction(-3, 2), 5)
    assert quad_roots(-2, 1) == (QuadExt(1), QuadExt(1))
    big, small = quad_roots(-14, 1)
    assert big == QuadExt(7, 4, 3)
    assert small == QuadExt(7, -4, 3)
    with pytest.raises(ValueError):
        quad_roots(0, 1)


def _fields(x):
    return x.a, x.b, x.d


def test_quad_roots_satisfy_equation():
    rng = random.Random(9)
    for _ in range(200):
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        if b * b - 4 * c < 0:
            continue
        for r in quad_roots(b, c):
            assert r * r + b * r + c == QuadExt(0)
            # arithmetic results carry the fields the constructor would give
            for x in (r * r, r + b, -r, r - r, r.conjugate(), r * r.conjugate(),
                      r / (r + 1) if r + 1 else r, r ** 3):
                assert (x.a, x.b, x.d) == _fields(QuadExt(x.a, x.b, x.d))
    r1, r2 = quad_roots(-7, 1)
    assert r1 * r2 == QuadExt(1)
    assert r1 >= r2


def test_sqrt_exact():
    assert sqrt_exact(Fraction(9, 4)) == QuadExt(Fraction(3, 2))
    v = sqrt_exact(Fraction(45, 4))
    assert v * v == QuadExt(Fraction(45, 4))
    assert v.d == 5
    # the result carries the fields the public constructor would give
    for x in map(Fraction, (0, 1, 4, Fraction(1, 4), Fraction(8, 9), 12,
                            Fraction(45, 7), 10 ** 6)):
        root = sqrt_exact(x)
        assert root * root == QuadExt(x)
        num = x.numerator * x.denominator
        assert _fields(root) == _fields(QuadExt(0, Fraction(1, x.denominator), num))


def test_quad_roots_factor_the_discriminant_once(monkeypatch):
    import coxmov.exact
    calls = []
    original = coxmov.exact.squarefree_decompose

    def counting(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(coxmov.exact, "squarefree_decompose", counting)
    big, _ = quad_roots(-7, 1)
    assert calls == [45]
    assert _fields(big) == (Fraction(7, 2), Fraction(3, 2), 5)
