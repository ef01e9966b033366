import random
from fractions import Fraction
from math import comb

import pytest

from coxmov.atlas import (BoundaryPatch, ClassificationError, boundary_patches,
                          classify, enumerate_chambers, fundamental_domain,
                          isotropy_value, project_affine, word_matrix)
from coxmov.bir import BudgetError, psi_word_matrix
from coxmov.coxeter import build_system
from coxmov.exact import QuadExt

S23 = build_system(2, 3)
S33 = build_system(3, 3)

HEXAGON_23 = {(0, 0, 1), (-1, 2, 2), (0, 1, 0), (2, 2, -1), (1, 0, 0), (2, -1, 2)}


def test_fundamental_domain(monkeypatch):
    # the m + 1 chambers are never refused by the word budget
    monkeypatch.setenv("COXMOV_WORD_BUDGET", "1")
    chambers = fundamental_domain(S23)
    assert len(chambers) == 4
    assert chambers[0].rays == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert chambers[0].model == 0 and chambers[0].word == ()
    assert chambers[2].model == 2 and chambers[2].word == (2,)
    rays = {r for c in chambers for r in c.rays}
    assert rays == HEXAGON_23

    rays33 = {r for c in fundamental_domain(S33) for r in c.rays}
    assert rays33 == {(0, 0, 1), (-1, 3, 3), (0, 1, 0), (3, 3, -1),
                      (1, 0, 0), (3, -1, 3)}


def test_enumerate_chambers_counts():
    assert len(enumerate_chambers(S23, 0)) == 1
    chambers = enumerate_chambers(S23, 2)
    assert len(chambers) == 1 + 3 + 6
    assert len(enumerate_chambers(build_system(2, 4), 2)) == 1 + 4 + 12
    keys = {c.ray_key() for c in chambers}
    assert len(keys) == len(chambers)
    # breadth-first: by length, then lexicographic
    words = [c.word for c in chambers]
    assert words[:4] == [(), (1,), (2,), (3,)]
    assert words[4] == (1, 2)


def test_enumerate_chambers_guards():
    with pytest.raises(ValueError):
        enumerate_chambers(build_system(1, 5), 2)
    with pytest.raises(BudgetError):
        enumerate_chambers(S23, 30, budget=100)
    # m = 3, depth 4: 1 + 3 + 6 + 12 + 24 words
    assert len(enumerate_chambers(S23, 4, budget=46)) == 46
    with pytest.raises(BudgetError, match="^46 words at depth 4"):
        enumerate_chambers(S23, 4, budget=45)


def test_classify_interior_of_nef():
    res = classify(S23, (1, 1, 1))
    assert res.t_word == () and res.psi_word.is_empty
    assert res.model_index == 0
    assert res.nef_coords == (1, 1, 1)


def test_classify_single_flop():
    moved = S23.t(1) * (1, 2, 3)
    assert moved == (-1, 4, 5)
    res = classify(S23, moved)
    assert res.t_word == (1,)
    assert res.psi_word.is_empty
    assert res.model_index == 1
    assert res.nef_coords == (1, 2, 3)


def test_classify_two_letters():
    moved = S23.t(1) * (S23.t(2) * (1, 1, 1))
    res = classify(S23, moved)
    assert res.t_word == (1, 2)
    assert res.psi_word.letters == ((1, 2, 1),)
    assert res.model_index == 2
    # reconstruction through the psi-word and the marking
    from coxmov.coxeter import perm_matrix
    rebuilt = (psi_word_matrix(S23, res.psi_word)
               * S23.t(res.model_index)
               * perm_matrix(res.perm)) * res.nef_coords
    assert rebuilt == moved


def test_classify_errors():
    with pytest.raises(ValueError):
        classify(S23, (0, 0, 0))
    with pytest.raises(ClassificationError) as err:
        classify(S23, (-1, -1, -1), max_steps=60)
    assert err.value.steps == 60
    assert min(err.value.last_iterate) < 0


def test_classify_refuses_negative_cap():
    # refused up front, also for a class that is already nef
    for coords in ((1, 1, 1), (-1, -1, -1)):
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            classify(S23, coords, max_steps=-3)
    assert classify(S23, (1, 1, 1), max_steps=0).t_word == ()


def test_classify_wall_point_owned_by_shortest_word():
    # a wall between the nef cone and t_1 . Nef belongs to the empty word
    res = classify(S23, (0, 1, 1))
    assert res.t_word == ()
    assert res.model_index == 0


def test_tiling_disjointness_by_cone_membership():
    # independent of classify: membership in a simplicial cone is decided
    # by solving for the ray coefficients exactly
    from coxmov.linalg import Matrix
    for s in (S23, S33):
        chambers = enumerate_chambers(s, 3)
        inverses = [Matrix.from_columns([tuple(Fraction(x) for x in r)
                                         for r in c.rays]).inverse()
                    for c in chambers]
        for k, c in enumerate(chambers):
            p = c.interior_point()
            for other_k, inv in enumerate(inverses):
                coeffs = inv * p
                if other_k == k:
                    assert all(x > 0 for x in coeffs)
                else:
                    assert any(x < 0 for x in coeffs)


def test_tiling_and_adjacency():
    for s in (S23, S33):
        chambers = enumerate_chambers(s, 5)
        assert len(chambers) == 1 + 3 + 6 + 12 + 24 + 48
        by_word = {c.word: c for c in chambers}
        for c in chambers:
            res = classify(s, c.interior_point())
            assert res.t_word == c.word
            if c.word:
                parent = by_word[c.word[:-1]]
                assert len(set(c.rays) & set(parent.rays)) == s.m - 1


def test_classification_roundtrip():
    rng = random.Random(123)
    for s in (S23, S33):
        for _ in range(200):
            word = []
            for _ in range(rng.randint(0, 6)):
                choices = [k for k in range(1, s.m + 1)
                           if not word or k != word[-1]]
                word.append(rng.choice(choices))
            word = tuple(word)
            coords = tuple(Fraction(rng.randint(1, 12), rng.randint(1, 5))
                           for _ in range(s.m))
            moved = word_matrix(s, word) * coords
            res = classify(s, moved)
            assert res.t_word == word
            assert res.nef_coords == coords
            assert word_matrix(s, res.t_word) * res.nef_coords == moved


def test_boundary_patches_n2():
    patches = boundary_patches(S23, 0)
    assert len(patches) == 3
    assert all(not p.has_apex for p in patches)
    assert {p.base_rays for p in patches} == {
        ((0, 0, 1),), ((0, 1, 0),), ((1, 0, 0),)}
    # deeper words keep producing new single-ray patches on the quadric
    deeper = boundary_patches(S23, 2)
    assert len(deeper) > 3
    for p in deeper:
        for ray in p.base_rays:
            assert isotropy_value(S23, ray) == 0


def test_boundary_patches_n3():
    patches = boundary_patches(S33, 0)
    assert len(patches) == 3
    for p in patches:
        assert isinstance(p, BoundaryPatch)
        assert p.has_apex
        assert isotropy_value(S33, p.apex) == QuadExt(0)
        assert len(p.base_rays) == 1
    pair12 = next(p for p in patches if p.pair == (1, 2))
    assert pair12.base_rays == ((0, 0, 1),)
    lifted = (S33.t(1) * S33.t(2)).map(QuadExt)
    lam = QuadExt(Fraction(7, 2), Fraction(3, 2), 5)
    assert lifted * pair12.apex == tuple(lam * x for x in pair12.apex)


def test_boundary_factors_radicand_once_per_pair(monkeypatch):
    # arithmetic on apexes never factors the radicand again, so the number
    # of squarefree decompositions does not grow with the depth
    import coxmov
    calls = []
    original = coxmov.exact.squarefree_decompose

    def counting(k):
        calls.append(k)
        return original(k)

    for mod in vars(coxmov).values():
        if getattr(mod, "squarefree_decompose", None) is original:
            monkeypatch.setattr(mod, "squarefree_decompose", counting)
    counts = []
    for depth in (0, 2):
        calls.clear()
        boundary_patches(build_system(6, 3), depth)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_boundary_apexes_isotropic_at_depth():
    for p in boundary_patches(S33, 2):
        assert isotropy_value(S33, p.apex) == QuadExt(0)
    with pytest.raises(ValueError):
        boundary_patches(build_system(1, 5), 0)


def test_boundary_patch_count_closed_form():
    # n = 2 keeps, per pair, the empty word and the words ending in
    # neither i nor j; n >= 3 keeps every (word, pair)
    for n in (2, 3, 5):
        for m in range(2, 6):
            for depth in range(4 if m < 5 else 3):
                tail = sum((m - 1) ** k for k in range(depth))
                if n == 2:
                    expected = comb(m, 2) * (1 + (m - 2) * tail)
                else:
                    expected = (1 + m * tail) * comb(m, 2)
                patches = boundary_patches(build_system(n, m), depth)
                assert len(patches) == expected, (n, m, depth)


@pytest.mark.xfail(strict=True, reason="for n >= 3, w and w.t_i.t_j give "
                   "the same projective cone and both are listed")
def test_boundary_patches_projectively_distinct():
    keys = [(tuple((x.a, x.b, x.d) for x in project_affine(p.apex)),
             p.base_rays) for p in boundary_patches(S33, 2)]
    assert len(set(keys)) == len(keys)


def test_project_affine():
    assert project_affine((1, 1, 1)) == (Fraction(1, 3),) * 3
    assert project_affine((-1, 2, 2)) == (Fraction(-1, 3), Fraction(2, 3),
                                          Fraction(2, 3))
    with pytest.raises(ValueError):
        project_affine((1, -1, 0))


def test_isotropy_value():
    assert isotropy_value(S23, (1, 0, 0)) == 0
    assert isotropy_value(S23, (1, 1, 1)) == 6
    assert isotropy_value(S33, (1, 1, 1)) == -15


def test_chamber_rays_on_nonnegative_side():
    # every ray is a group translate of a standard ray, so it evaluates to
    # the quadric diagonal: zero at (2,3) (rays accumulate on the conic),
    # strictly positive at (3,3)
    for s, expected in ((S23, 0), (S33, 1)):
        for c in enumerate_chambers(s, 4):
            for ray in c.rays:
                assert isotropy_value(s, ray) == expected


def test_shrinking_cones_converge_to_eigendirection():
    from coxmov.bir import eigen_pair, psi_matrix
    data = eigen_pair(S33, 1, 2)
    target = project_affine(data.vector)
    psi = psi_matrix(S33, 1, 2)
    point = (Fraction(1), Fraction(1), Fraction(1))
    prev = None
    for _ in range(5):
        point = psi * point
        hat = project_affine(point)
        dist = QuadExt(0)
        for a, b in zip(hat, target):
            diff = QuadExt(a) - b
            dist = dist + diff * diff
        if prev is not None:
            assert dist < prev
        prev = dist
