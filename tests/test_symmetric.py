from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxmov.atlas import fundamental_domain, isotropy_value
from coxmov.bir import psi_matrix
from coxmov.coxeter import Permutation, build_system, perm_matrix
from coxmov.linalg import Matrix, primitive_int_vector
from coxmov.symmetric import (SymWord, _sym_walk, base_system, d_classes,
                              psef_patches, sym_enumerate,
                              sym_fundamental_domain, sym_generators,
                              sym_relation_check, sym_words, tangent_line)

A_GOLDEN = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
B_GOLDEN = Matrix([[-2, 0, -3], [6, 1, 12], [3, 0, 4]])


def test_generators_golden():
    a, b = sym_generators()
    assert a == A_GOLDEN
    assert b == B_GOLDEN
    assert a * a == Matrix.identity(3)


def test_generators_preserve_quadric():
    a, b = sym_generators()
    qhat = base_system().quadric_matrix()
    assert a.transpose() * qhat * a == qhat
    assert b.transpose() * qhat * b == qhat


def test_generator_table_against_oracle():
    # the depth-1 steps of the walk are a, b and b^-1, each built afresh
    # here on its own system
    oracle = build_system(2, 3)
    expected = {"a": perm_matrix(Permutation.transposition(3, 1, 2)),
                "b": psi_matrix(oracle, 1, 3), "b^-1": psi_matrix(oracle, 3, 1)}
    steps = {w.spell(): mat for w, mat in _sym_walk(1) if w.syllables}
    assert steps == expected
    assert SymWord.from_letters("bB").matrix() == Matrix.identity(3)


def test_relation():
    a, b = sym_generators()
    assert sym_relation_check()
    assert a * b * a == psi_matrix(base_system(), 2, 3)
    assert a * b * a != b
    power = a * b
    for _ in range(12):
        assert power != Matrix.identity(3)
        power = power * (a * b)


def test_fundamental_domain_rays():
    quad = sym_fundamental_domain()
    assert quad == ((0, 0, 1), (-1, 2, 2), (0, 1, 0), (2, 2, -1))
    a, _ = sym_generators()
    image = tuple(primitive_int_vector(a * r) for r in quad)
    assert set(image) == {(0, 0, 1), (2, -1, 2), (1, 0, 0), (2, 2, -1)}
    hexagon = {r for ch in fundamental_domain(base_system()) for r in ch.rays}
    assert set(quad) | set(image) == hexagon


def test_symmetry_axis_is_preserved():
    # the two rays on the swap axis stay fixed; the others trade places
    a, _ = sym_generators()
    assert tuple(a * (0, 0, 1)) == (0, 0, 1)
    assert tuple(a * (2, 2, -1)) == (2, 2, -1)
    assert tuple(a * (-1, 2, 2)) == (2, -1, 2)


def test_preserved_subcones():
    # the swap fixes the nef cone and the model-3 flop cone as ray sets and
    # exchanges the model-1 and model-2 flop cones
    a, _ = sym_generators()
    chambers = {c.word: set(c.rays) for c in fundamental_domain(base_system())}
    image = {word: {tuple(int(x) for x in (a * r)) for r in rays}
             for word, rays in chambers.items()}
    assert image[()] == chambers[()]
    assert image[(3,)] == chambers[(3,)]
    assert image[(1,)] == chambers[(2,)]
    assert image[(2,)] == chambers[(1,)]


def test_tangent_lines():
    assert tangent_line((0, 0, 1)).coefficients == (1, 1, 0)
    assert tangent_line((-1, 2, 2)).coefficients == (4, 1, 1)
    assert tangent_line((2, -1, 2)).coefficients == (1, 4, 1)
    with pytest.raises(ValueError):
        tangent_line((1, 1, 1))


def test_d_classes():
    d1, d2 = d_classes()
    assert d1 == (-2, 2, 6)
    assert d2 == (2, -2, 6)
    assert tangent_line((0, 0, 1)).evaluate(d1) == 0
    assert tangent_line((-1, 2, 2)).evaluate(d1) == 0
    assert tangent_line((0, 0, 1)).evaluate(d2) == 0
    assert tangent_line((2, -1, 2)).evaluate(d2) == 0
    # strictly outside the quadric: opposite sign to the cone interior
    s = base_system()
    interior = isotropy_value(s, (1, 1, 1))
    assert isotropy_value(s, d1) * interior < 0
    assert isotropy_value(s, d2) * interior < 0


def test_sym_words():
    words = list(sym_words(1))
    assert len(words) == 4
    spelled = {w.spell() for w in words}
    assert spelled == {"1", "a", "b", "b^-1"}
    w = SymWord.from_letters("abba")
    assert w.syllables == (("a", 1), ("b", 2), ("a", 1))
    assert SymWord.from_letters("bB").syllables == ()
    assert SymWord.from_letters("aa").syllables == ()
    with pytest.raises(ValueError):
        SymWord.from_letters("x")


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.text(alphabet="abB", max_size=12))
def test_from_letters_matches_letter_product(letters):
    # unreduced strings too: the fold must cancel aa, bB and Bb
    a, b = sym_generators()
    gens = {"a": a, "b": b, "B": b.inverse()}
    expected = Matrix.identity(3)
    for ch in letters:
        expected = expected * gens[ch]
    assert SymWord.from_letters(letters).matrix() == expected


def test_sym_walk_matches_letter_words():
    # brute force: every string over a, b, B without aa, bB or Bb, by
    # length and then in alphabet order
    strings = ("".join(w) for k in range(6) for w in product("abB", repeat=k))
    brute = [w for w in strings if not any(p in w for p in ("aa", "bB", "Bb"))]
    words = list(sym_words(5))
    assert words == [SymWord.from_letters(w) for w in brute]
    walk = list(_sym_walk(5))
    assert [w for w, _ in walk] == words
    for word, mat in walk:
        assert mat == word.matrix()


def test_no_collisions_to_depth_six():
    seen = {}
    count = 0
    for w in sym_words(6):
        key = w.matrix()
        assert key not in seen, f"{w.spell()} collides with {seen[key].spell()}"
        seen[key] = w
        count += 1
    # 1 + sum of 3 * 2^(l-1): all reduced words over {a, b, b^-1}
    assert count == 1 + sum(3 * 2 ** (l - 1) for l in range(1, 7))


def test_sym_enumerate():
    cones = sym_enumerate(0)
    assert len(cones) == 1
    assert cones[0].rays == sym_fundamental_domain()
    cones1 = sym_enumerate(1)
    assert len(cones1) == 4
    keys = {c.ray_key() for c in cones1}
    assert len(keys) == 4


def test_sym_enumerate_one_cone_per_word():
    # every reduced word over {a, b, b^-1} gives its own cone: the count is
    # the word count 3 * 2^d - 2 and no two cones share a ray set
    for depth in range(9):
        cones = sym_enumerate(depth)
        assert len(cones) == 3 * 2 ** depth - 2
        assert [c.word for c in cones] == list(sym_words(depth))
        assert len({c.ray_key() for c in cones}) == len(cones)


def test_sym_enumerate_rays_match_word_matrices():
    # oracle: each word's matrix built from its generator powers
    # (SymWord.matrix, not the walk), applied to the base rays one by one
    base = sym_fundamental_domain()
    for depth in range(7):
        for cone in sym_enumerate(depth):
            mat = cone.word.matrix()
            assert cone.rays == tuple(primitive_int_vector(mat * r)
                                      for r in base)


def _psef_by_dedup(depth):
    # oracle: all five pieces of every translate, keeping the first
    # (breadth-first) piece of each ray set
    d1, d2 = d_classes()
    pieces = (("segment-d1-d2", (d1, d2), "proven"),
              ("segment-d1-tangent", (d1, (-1, 2, 2)), "proven"),
              ("segment-d2-tangent", (d2, (2, -1, 2)), "proven"),
              ("glued-cone-d1", ((0, 0, 1), d1, (-1, 2, 2)), "expected"),
              ("glued-cone-d2", ((0, 0, 1), d2, (2, -1, 2)), "expected"))
    seen, out = set(), []
    for word, mat in _sym_walk(depth):
        for label, rays, status in pieces:
            image = tuple(tuple(int(x) for x in mat * r) for r in rays)
            key = tuple(sorted(image))
            if key not in seen:
                seen.add(key)
                out.append((word, label, image, status))
    return out


def test_psef_patches_match_dedup_oracle():
    for depth in range(9):
        patches = psef_patches(depth)
        assert [(p.word, p.label, p.rays, p.status)
                for p in patches] == _psef_by_dedup(depth)
        assert len(patches) == 5 * 2 ** (depth + 1) - 5


def _strictly_inside(point, rays):
    k = len(rays)
    for idx in range(k):
        r1, r2 = rays[idx], rays[(idx + 1) % k]
        normal = (r1[1] * r2[2] - r1[2] * r2[1],
                  r1[2] * r2[0] - r1[0] * r2[2],
                  r1[0] * r2[1] - r1[1] * r2[0])
        ref = next(sum(n * x for n, x in zip(normal, rays[j]))
                   for j in range(k) if j not in (idx, (idx + 1) % k))
        val = sum(n * x for n, x in zip(normal, point))
        if val == 0 or (val > 0) != (ref > 0):
            return False
    return True


def test_disjoint_interiors_to_depth_four():
    cones = sym_enumerate(4)
    points = [(c, c.interior_point()) for c in cones]
    for c, p in points:
        assert _strictly_inside(p, c.rays)
        for other in cones:
            if other is not c:
                assert not _strictly_inside(p, other.rays)


def test_psef_patches_depth0():
    patches = psef_patches(0)
    proven = [p for p in patches if p.status == "proven"]
    expected = [p for p in patches if p.status == "expected"]
    d1, d2 = d_classes()
    assert {p.label for p in proven} == {
        "segment-d1-d2", "segment-d1-tangent", "segment-d2-tangent"}
    # endpoints are the integral divisor classes themselves
    seg = next(p for p in proven if p.label == "segment-d1-d2")
    assert set(seg.rays) == {d1, d2}
    tang = next(p for p in proven if p.label == "segment-d1-tangent")
    assert set(tang.rays) == {d1, (-1, 2, 2)}
    assert all(len(p.rays) == 3 for p in expected)


def test_psef_orbit_properties():
    s = base_system()
    qhat = s.quadric_matrix()
    interior = isotropy_value(s, (1, 1, 1))
    d1, _ = d_classes()
    line_at_touch = tuple(qhat * (-1, 2, 2))
    assert sum(a * b for a, b in zip(line_at_touch, d1)) == 0
    for w in sym_words(3):
        mat = w.matrix()
        gd1 = mat * d1
        # group translates stay strictly outside the quadric
        assert isotropy_value(s, gd1) * interior < 0
        # tangency is preserved because the group fixes the quadric
        moved_line = tuple(qhat * (mat * (-1, 2, 2)))
        assert sum(a * b for a, b in zip(moved_line, gd1)) == 0


def test_psef_vertices_present_at_any_depth():
    patches = psef_patches(2)
    d1, d2 = d_classes()
    rays = {r for p in patches for r in p.rays}
    assert d1 in rays and d2 in rays


def test_psef_patches_refuse_non_integral_images(monkeypatch):
    # an explicit check, not an assert, so it holds under python -O too
    from coxmov import symmetric
    half = Matrix([[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])
    monkeypatch.setattr(symmetric, "_sym_walk",
                        lambda depth: iter([(SymWord.identity(), half)]))
    with pytest.raises(ArithmeticError, match="^non-integral image$"):
        psef_patches(0)
