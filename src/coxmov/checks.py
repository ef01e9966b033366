"""Property-check suites behind the ``verify`` command.

Each suite runs a family of exact identities on a default parameter grid
and reports one record per identity, carrying the formula being checked,
the parameters, and the outcome.  Everything asserts exact equalities;
there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from . import symmetric as sym
from .atlas import (boundary_patches, classify, enumerate_chambers,
                    fundamental_domain, isotropy_value, project_affine,
                    word_matrix)
from .bir import (PsiWord, eigen_pair, flop_pullback, prefix_check,
                  psi_matrix, swap_identity_holds, verify_free)
from .coxeter import Permutation, build_system, perm_matrix
from .exact import QuadExt
from .linalg import Matrix

GRID_N = (1, 2, 3, 4)
GRID_M = (2, 3, 4, 5)


def _check(name, identity, params, passed):
    return {"name": name, "identity": identity, "params": params,
            "passed": bool(passed)}


def _sandwich(g: Matrix, q: Matrix) -> Matrix:
    return g.transpose() * q * g


def suite_identities(n=None, m=None) -> dict:
    ns = GRID_N if n is None else (n,)
    ms = GRID_M if m is None else (m,)
    checks = []
    for nn in ns:
        for mm in ms:
            s = build_system(nn, mm)
            ident = Matrix.identity(mm)
            pairs = [(i, j) for i in range(1, mm + 1)
                     for j in range(i + 1, mm + 1)]
            params = {"n": nn, "m": mm}

            checks.append(_check(
                "involution", "t_i^2 == I", params,
                all(s.t(i) * s.t(i) == ident for i in range(1, mm + 1))))
            checks.append(_check(
                "dual-transpose", "t_i == tau_i^T", params,
                all(s.t(i) == s.tau(i).transpose() for i in range(1, mm + 1))))
            checks.append(_check(
                "gram-invariance", "tau_i^T * Q * tau_i == Q", params,
                all(_sandwich(s.tau(i), s.gram) == s.gram
                    for i in range(1, mm + 1))))
            checks.append(_check(
                "reflection-determinant", "det(t_i) == -1", params,
                all(s.t(i).det() == -1 for i in range(1, mm + 1))))
            checks.append(_check(
                "charpoly", "charpoly(t_i*t_j) == (x-1)^(m-2)*(x^2-(n^2-2)*x+1)",
                params,
                all((s.t(i) * s.t(j)).charpoly() == _expected_charpoly(nn, mm)
                    for (i, j) in pairs)))
            checks.append(_check(
                "psi-inverse", "psi_{i,j} * psi_{j,i} == I", params,
                all(psi_matrix(s, i, j) * psi_matrix(s, j, i) == ident
                    for (i, j) in pairs)))
            checks.append(_check(
                "psi-square", "psi_{i,j}^2 == (t_i*t_j)^3", params,
                all(psi_matrix(s, i, j) ** 2 == (s.t(i) * s.t(j)) ** 3
                    for (i, j) in pairs)))
            checks.append(_check(
                "psi-determinant", "det(psi_{i,j}) == 1", params,
                all(psi_matrix(s, i, j).det() == 1 for (i, j) in pairs)))
            checks.append(_check(
                "flop-composition",
                "psi_{i,j} == flop(0,i)*flop(i,j)*flop(j,0)", params,
                all(psi_matrix(s, i, j) ==
                    flop_pullback(s, 0, i) * flop_pullback(s, i, j)
                    * flop_pullback(s, j, 0)
                    for (i, j) in pairs) and
                all(psi_matrix(s, j, i) ==
                    flop_pullback(s, 0, j) * flop_pullback(s, j, i)
                    * flop_pullback(s, i, 0)
                    for (i, j) in pairs)))
            checks.append(_check(
                "eigen-data", "Q*(e1-ei) == (1+n/2)*(e1-ei), "
                "Q*ones == (1-n(m-1)/2)*ones", params, s.gram_eigen_check()))
            checks.append(_check(
                "lorentzian-flag", "lorentzian <=> 1 - n*(m-1)/2 < 0", params,
                s.lorentzian == (s.gram.signature() == (mm - 1, 1, 0))))
            if nn == 1:
                checks.append(_check(
                    "braid-order", "(t_i*t_j)^3 == I for n == 1", params,
                    all((s.t(i) * s.t(j)) ** 3 == ident for (i, j) in pairs)))
            try:
                qhat = s.quadric_matrix()
            except ValueError:
                qhat = None      # degenerate Gram matrix (n=1, m=3)
            if qhat is not None:
                gens = [s.t(i) for i in range(1, mm + 1)]
                gens += [psi_matrix(s, i, j) for (i, j) in pairs]
                if mm <= 4:
                    sigmas = [Permutation(p)
                              for p in permutations(range(1, mm + 1))]
                else:
                    sigmas = [Permutation.transposition(mm, i, i + 1)
                              for i in range(1, mm)]
                gens += [perm_matrix(p) for p in sigmas]
                checks.append(_check(
                    "quadric-invariance", "g^T * Qhat * g == Qhat", params,
                    all(_sandwich(g, qhat) == qhat for g in gens)))

    # swap identity, exhaustively on its own small grid
    ok = True
    for nn in (1, 2, 3):
        for mm in (2, 3, 4):
            s = build_system(nn, mm)
            for p in permutations(range(1, mm + 1)):
                sigma = Permutation(p)
                for i in range(1, mm + 1):
                    ok = ok and swap_identity_holds(s, sigma, i)
    checks.append(_check(
        "swap", "Per(s) * t_i == t_{s(i)} * Per(s)",
        {"n": [1, 2, 3], "m": [2, 3, 4]}, ok))

    # the permutation matrices form a homomorphic image of S_3
    s3 = [Permutation(p) for p in permutations((1, 2, 3))]
    checks.append(_check(
        "perm-homomorphism", "Per(s)*Per(t) == Per(s*t)", {"m": 3},
        all(perm_matrix(a) * perm_matrix(b) == perm_matrix(a * b)
            for a in s3 for b in s3)))

    return _suite_report("identities", checks)


def _expected_charpoly(n: int, m: int) -> tuple:
    # (x - 1)^(m-2) * (x^2 - (n^2 - 2)x + 1), constant term first
    coeffs = [Fraction(1), Fraction(-(n * n - 2)), Fraction(1)]  # descending
    for _ in range(m - 2):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c
            nxt[k + 1] -= c
        coeffs = nxt
    return tuple(reversed(coeffs))


def suite_free(n=2, m=3, depth=4) -> dict:
    s = build_system(n, m)
    report = verify_free(s, depth)
    checks = [_check(
        "free-product", "no normal-form collisions among reduced psi-words",
        {"n": n, "m": m, "depth": depth,
         "words_checked": report.words_checked},
        report.collisions == 0)]

    rng = random.Random(20240 + 10 * n + m)
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    ok = True
    for _ in range(300):
        letters = _random_reduced_psi(rng, pairs, rng.randint(1, 6))
        ok = ok and prefix_check(s, PsiWord(letters))
    checks.append(_check(
        "prefix", "normal form of a reduced psi-word starts t_{i_1} t_{j_1}",
        {"n": n, "m": m, "samples": 300}, ok))
    return _suite_report("free", checks)


def _random_reduced_psi(rng, pairs, length):
    letters = []
    prev = None
    for _ in range(length):
        while True:
            pair = rng.choice(pairs)
            step = rng.choice((1, -1))
            if prev != (pair[0], pair[1], -step):
                break
        letters.append((pair[0], pair[1], step))
        prev = letters[-1]
    return letters


def suite_tiling(n=2, m=3, depth=4) -> dict:
    s = build_system(n, m)
    chambers = enumerate_chambers(s, depth)
    checks = []

    by_word = {c.word: c for c in chambers}
    ok = True
    for c in chambers:
        res = classify(s, c.interior_point())
        ok = ok and res.t_word == c.word
    checks.append(_check(
        "tiling", "interior samples classify back to their generating word",
        {"n": n, "m": m, "depth": depth, "chambers": len(chambers)}, ok))

    ok = True
    for c in chambers:
        if not c.word:
            continue
        parent = by_word[c.word[:-1]]
        shared = set(c.rays) & set(parent.rays)
        ok = ok and len(shared) == m - 1
    checks.append(_check(
        "adjacency", "a chamber shares exactly m-1 rays with its parent",
        {"n": n, "m": m, "depth": depth}, ok))

    keys = {c.ray_key() for c in chambers}
    checks.append(_check(
        "distinctness", "chambers of distinct reduced words are distinct",
        {"n": n, "m": m, "depth": depth}, len(keys) == len(chambers)))

    rng = random.Random(777 + 10 * n + m)
    ok = True
    for _ in range(100):
        word = _random_reduced_t(rng, m, rng.randint(0, 6))
        coords = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4))
                       for _ in range(m))
        moved = word_matrix(s, word) * coords
        res = classify(s, moved)
        back = word_matrix(s, res.t_word) * res.nef_coords
        ok = ok and back == moved and res.t_word == word
    checks.append(_check(
        "roundtrip", "classify(w * c) reconstructs w and c exactly",
        {"n": n, "m": m, "samples": 100}, ok))
    return _suite_report("tiling", checks)


def _random_reduced_t(rng, m, length):
    word = []
    for _ in range(length):
        choices = [k for k in range(1, m + 1) if not word or k != word[-1]]
        word.append(rng.choice(choices))
    return tuple(word)


def suite_boundary(n=3, m=3, depth=2) -> dict:
    s = build_system(n, m)
    patches = boundary_patches(s, depth)
    checks = []
    ok = all(isotropy_value(s, p.apex) == 0 for p in patches if p.has_apex)
    checks.append(_check(
        "apex-isotropy", "apex^T * Qhat * apex == 0",
        {"n": n, "m": m, "depth": depth, "patches": len(patches)}, ok))
    if n >= 3:
        lam_ok = True
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                data = eigen_pair(s, i, j)
                prod = s.t(i) * s.t(j)
                lifted = prod.map(QuadExt)
                lam_ok = lam_ok and data.value > 1
                lam_ok = lam_ok and lifted * data.vector == tuple(
                    data.value * x for x in data.vector)
        checks.append(_check(
            "eigen-pair", "(t_i*t_j) v == lambda v with lambda > 1 exactly",
            {"n": n, "m": m}, lam_ok))
        checks.append(_check(
            "shrinking-cones",
            "iterates of psi_{1,2} approach its attracting eigendirection",
            {"n": n, "m": m, "iterates": 5}, _convergence_check(s)))
    if n == 2 and m == 3:
        depth0 = boundary_patches(s, 0)
        basis = {((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)}
        checks.append(_check(
            "rational-boundary", "depth-0 patches are the single rays H_k",
            {"n": n, "m": m},
            len(depth0) == 3 and not any(p.has_apex for p in depth0) and
            {p.base_rays for p in depth0} == basis))
    return _suite_report("boundary", checks)


def _convergence_check(s) -> bool:
    data = eigen_pair(s, 1, 2)
    target = project_affine(data.vector)
    psi = psi_matrix(s, 1, 2)
    point = tuple(Fraction(1) for _ in range(s.m))
    prev = None
    for _ in range(1, 6):
        point = psi * point
        hat = project_affine(point)
        dist = QuadExt(0)
        for a, b in zip(hat, target):
            diff = QuadExt(a) - b
            dist = dist + diff * diff
        if prev is not None and not dist < prev:
            return False
        prev = dist
    return True


def suite_symmetric(depth=6) -> dict:
    checks = []
    a, b = sym.sym_generators()
    ident = Matrix.identity(3)
    checks.append(_check("involution", "a^2 == I", {}, a * a == ident))
    checks.append(_check(
        "relation", "a*b*a equals the map through models 2 and 3", {},
        sym.sym_relation_check()))
    checks.append(_check(
        "infinite-order", "(a*b)^k != I for k <= 12", {},
        all((a * b) ** k != ident for k in range(1, 13))))

    d1, d2 = sym.d_classes()
    l_e3 = sym.tangent_line((0, 0, 1))
    l_t1 = sym.tangent_line((-1, 2, 2))
    l_t2 = sym.tangent_line((2, -1, 2))
    checks.append(_check(
        "tangency", "the four tangent-line pairings with D1, D2 vanish", {},
        l_e3.evaluate(d1) == 0 and l_t1.evaluate(d1) == 0 and
        l_e3.evaluate(d2) == 0 and l_t2.evaluate(d2) == 0))

    s = sym.base_system()
    interior = isotropy_value(s, (1, 1, 1))
    checks.append(_check(
        "d-outside-quadric",
        "D1, D2 take the sign opposite to the cone interior on the quadric",
        {}, isotropy_value(s, d1) * interior < 0
        and isotropy_value(s, d2) * interior < 0))

    quad = sym.sym_fundamental_domain()
    a_quad = {tuple(int(x) for x in (a * r)) for r in quad}
    hexagon = {r for ch in fundamental_domain(s) for r in ch.rays}
    checks.append(_check(
        "half-union", "Pi together with a.Pi spans the hexagon vertex set",
        {}, set(quad) | a_quad == hexagon))

    words = list(sym.sym_words(depth))
    mats = {}
    collide = 0
    for w in words:
        key = tuple(tuple(int(x) for x in row) for row in w.matrix().rows)
        if key in mats:
            collide += 1
        else:
            mats[key] = w
    checks.append(_check(
        "free-product", "distinct reduced words in Z/2 * Z have distinct matrices",
        {"depth": depth, "words": len(words)}, collide == 0))

    cones = sym.sym_enumerate(min(depth, 4))
    ok = True
    for c in cones:
        p = c.interior_point()
        for other in cones:
            if other is c:
                continue
            ok = ok and not _inside_cone(p, other.rays)
    checks.append(_check(
        "disjoint-interiors", "translates of the quadrilateral do not overlap",
        {"depth": min(depth, 4), "cones": len(cones)}, ok))
    return _suite_report("symmetric", checks)


def _inside_cone(point, rays) -> bool:
    """Strict interior test for a convex polygonal cone given by rays in
    cyclic order: the point must sit strictly on the inner side of every
    facet plane."""
    k = len(rays)
    for idx in range(k):
        r1, r2 = rays[idx], rays[(idx + 1) % k]
        normal = (r1[1] * r2[2] - r1[2] * r2[1],
                  r1[2] * r2[0] - r1[0] * r2[2],
                  r1[0] * r2[1] - r1[1] * r2[0])
        ref = next(sum(n * x for n, x in zip(normal, rays[j]))
                   for j in range(k) if j not in (idx, (idx + 1) % k))
        val = sum(n * x for n, x in zip(normal, point))
        if ref == 0:
            return False
        if (val > 0) != (ref > 0) or val == 0:
            return False
    return True


def _suite_report(name: str, checks: list) -> dict:
    return {"suite": name, "passed": all(c["passed"] for c in checks),
            "checks": checks}


# in the run order of "all"; n and m reach a suite only when given, so each
# default lives in the suite's signature, and the symmetric suite takes none
SUITES = {"identities": suite_identities, "free": suite_free,
          "tiling": suite_tiling, "boundary": suite_boundary,
          "symmetric": suite_symmetric}
SUITE_NAMES = tuple(SUITES)


def run_suites(which: str, n=None, m=None) -> dict:
    """Run one named suite, or all of them; returns the combined report."""
    if which not in SUITES and which != "all":
        raise ValueError(f"unknown suite {which!r}")
    given = {k: v for k, v in (("n", n), ("m", m)) if v is not None}
    if which == "symmetric" and given:
        raise ValueError("the symmetric suite takes no n or m")
    reports = [suite(**({} if name == "symmetric" else given))
               for name, suite in SUITES.items() if which in (name, "all")]
    return {"passed": all(r["passed"] for r in reports), "suites": reports}
