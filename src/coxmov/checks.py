"""Property-check suites behind the ``verify`` command.

Each suite runs a family of exact identities on a default parameter grid
and reports one record per identity, carrying the formula being checked,
the parameters, and the outcome.  Everything asserts exact equalities;
there are no tolerances anywhere.  Each suite builds the matrices it checks
once per system, and every identity reads them from its tables.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from . import symmetric as sym
from .atlas import (boundary_patches, classify, enumerate_chambers,
                    fundamental_domain, isotropy_value, project_affine,
                    word_matrix)
from .bir import (PsiWord, _psi_alphabet, _require_infinite_order,
                  _word_count, _word_rank, _word_unrank, eigen_pair,
                  flop_pullback, prefix_check, psi_matrix,
                  swap_identity_holds, verify_free)
from .coxeter import Permutation, build_system, perm_matrix
from .exact import QuadExt
from .linalg import Matrix

GRID_N = (1, 2, 3, 4)
GRID_M = (2, 3, 4, 5)
# enumeration depths of the free, tiling, boundary and symmetric suites
FREE_DEPTH, TILING_DEPTH, BOUNDARY_DEPTH, SYMMETRIC_DEPTH = 4, 4, 2, 6


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
            idx = range(1, mm + 1)
            pairs = [(i, j) for i in idx for j in idx if i < j]
            # every matrix the checks read, built once per system
            t = {i: s.t(i) for i in idx}
            tau = {i: s.tau(i) for i in idx}
            psi = {(i, j): psi_matrix(s, i, j)
                   for i in idx for j in idx if i != j}
            flop = {(a, b): flop_pullback(s, a, b)
                    for a in range(mm + 1) for b in range(mm + 1) if a != b}
            charpoly = _expected_charpoly(nn, mm)
            params = {"n": nn, "m": mm}

            checks.append(_check(
                "involution", "t_i^2 == I", params,
                all(t[i] * t[i] == ident for i in idx)))
            checks.append(_check(
                "dual-transpose", "t_i == tau_i^T", params,
                all(t[i] == tau[i].transpose() for i in idx)))
            checks.append(_check(
                "gram-invariance", "tau_i^T * Q * tau_i == Q", params,
                all(_sandwich(tau[i], s.gram) == s.gram for i in idx)))
            checks.append(_check(
                "reflection-determinant", "det(t_i) == -1", params,
                all(t[i].det() == -1 for i in idx)))
            checks.append(_check(
                "charpoly", "charpoly(t_i*t_j) == (x-1)^(m-2)*(x^2-(n^2-2)*x+1)",
                params,
                all((t[i] * t[j]).charpoly() == charpoly for (i, j) in pairs)))
            checks.append(_check(
                "psi-inverse", "psi_{i,j} * psi_{j,i} == I", params,
                all(psi[i, j] * psi[j, i] == ident for (i, j) in pairs)))
            checks.append(_check(
                "psi-square", "psi_{i,j}^2 == (t_i*t_j)^3", params,
                all(psi[i, j] ** 2 == (t[i] * t[j]) ** 3 for (i, j) in pairs)))
            checks.append(_check(
                "psi-determinant", "det(psi_{i,j}) == 1", params,
                all(psi[i, j].det() == 1 for (i, j) in pairs)))
            checks.append(_check(
                "flop-composition",
                "psi_{i,j} == flop(0,i)*flop(i,j)*flop(j,0)", params,
                all(psi[i, j] == flop[0, i] * flop[i, j] * flop[j, 0]
                    for (i, j) in psi)))
            checks.append(_check(
                "eigen-data", "Q*(e1-ei) == (1+n/2)*(e1-ei), "
                "Q*ones == (1-n(m-1)/2)*ones", params, s.gram_eigen_check()))
            checks.append(_check(
                "lorentzian-flag", "lorentzian <=> 1 - n*(m-1)/2 < 0", params,
                s.lorentzian == (s.gram.signature() == (mm - 1, 1, 0))))
            if nn == 1:
                checks.append(_check(
                    "braid-order", "(t_i*t_j)^3 == I for n == 1", params,
                    all((t[i] * t[j]) ** 3 == ident for (i, j) in pairs)))
            try:
                qhat = s.quadric_matrix()
            except ValueError:
                continue      # degenerate Gram matrix (n=1, m=3)
            sigmas = (map(Permutation, permutations(idx)) if mm <= 4 else
                      (Permutation.transposition(mm, i, i + 1)
                       for i in range(1, mm)))
            gens = [*t.values(), *(psi[p] for p in pairs),
                    *map(perm_matrix, sigmas)]
            checks.append(_check(
                "quadric-invariance", "g^T * Qhat * g == Qhat", params,
                all(_sandwich(g, qhat) == qhat for g in gens)))

    # swap identity, exhaustively on its own small grid
    small = [build_system(nn, mm) for nn in (1, 2, 3) for mm in (2, 3, 4)]
    checks.append(_check(
        "swap", "Per(s) * t_i == t_{s(i)} * Per(s)",
        {"n": [1, 2, 3], "m": [2, 3, 4]},
        all(swap_identity_holds(s, Permutation(p), i) for s in small
            for p in permutations(range(1, s.m + 1))
            for i in range(1, s.m + 1))))

    # the permutation matrices form a homomorphic image of S_3
    per = {a: perm_matrix(a)
           for a in map(Permutation, permutations((1, 2, 3)))}
    checks.append(_check(
        "perm-homomorphism", "Per(s)*Per(t) == Per(s*t)", {"m": 3},
        all(per[a] * per[b] == per[a * b] for a in per for b in per)))

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


def suite_free(n=2, m=3) -> dict:
    s = build_system(n, m)
    report = verify_free(s, FREE_DEPTH)
    checks = [_check(
        "free-product", "no normal-form collisions among reduced psi-words",
        {"n": n, "m": m, "depth": FREE_DEPTH,
         "words_checked": report.words_checked},
        report.collisions == 0)]

    rng = random.Random(20240 + 10 * n + m)
    alphabet, inverse = _psi_alphabet(m)
    checks.append(_check(
        "prefix", "normal form of a reduced psi-word starts t_{i_1} t_{j_1}",
        {"n": n, "m": m, "samples": 300},
        all(prefix_check(s, PsiWord(_random_reduced(
            rng, alphabet, inverse, rng.randint(1, 6)))) for _ in range(300))))
    return _suite_report("free", checks)


def _random_reduced(rng, alphabet, inverse, length):
    """A uniform random word of ``length`` letters in which no letter is
    followed by ``inverse[letter]``, the convention of ``reduced_walk``:
    the word at a uniform walk position among those of that length."""
    first, past = (_word_count(len(alphabet), k) for k in (length - 1, length))
    return _word_unrank(alphabet, inverse, rng.randrange(first, past))


def suite_tiling(n=2, m=3) -> dict:
    s = build_system(n, m)
    chambers = enumerate_chambers(s, TILING_DEPTH)
    checks = []

    ok = True
    for c in chambers:
        res = classify(s, c.interior_point())
        ok = ok and res.t_word == c.word
    checks.append(_check(
        "tiling", "interior samples classify back to their generating word",
        {"n": n, "m": m, "depth": TILING_DEPTH, "chambers": len(chambers)},
        ok))

    letters, inverse = range(1, m + 1), {k: k for k in range(1, m + 1)}
    ok = True
    for c in chambers:
        if not c.word:
            continue
        parent = chambers[_word_rank(letters, inverse, c.word[:-1])]
        shared = set(c.rays) & set(parent.rays)
        ok = ok and len(shared) == m - 1 and parent.word == c.word[:-1]
    checks.append(_check(
        "adjacency", "a chamber shares exactly m-1 rays with its parent",
        {"n": n, "m": m, "depth": TILING_DEPTH}, ok))

    keys = {c.ray_key() for c in chambers}
    checks.append(_check(
        "distinctness", "chambers of distinct reduced words are distinct",
        {"n": n, "m": m, "depth": TILING_DEPTH}, len(keys) == len(chambers)))

    rng = random.Random(777 + 10 * n + m)
    ok = True
    for _ in range(100):
        word = _random_reduced(rng, letters, inverse, rng.randint(0, 6))
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


def suite_boundary(n=3, m=3) -> dict:
    s = build_system(n, m)
    patches = boundary_patches(s, BOUNDARY_DEPTH)
    checks = []
    ok = all(isotropy_value(s, p.apex) == 0 for p in patches if p.has_apex)
    checks.append(_check(
        "apex-isotropy", "apex^T * Qhat * apex == 0",
        {"n": n, "m": m, "depth": BOUNDARY_DEPTH, "patches": len(patches)},
        ok))
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


def suite_symmetric() -> dict:
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

    words = list(sym.sym_words(SYMMETRIC_DEPTH))
    checks.append(_check(
        "free-product", "distinct reduced words in Z/2 * Z have distinct matrices",
        {"depth": SYMMETRIC_DEPTH, "words": len(words)},
        len({w.matrix() for w in words}) == len(words)))

    cones = sym.sym_enumerate(4)  # the overlap test is quadratic in cones
    ok = True
    for c in cones:
        p = c.interior_point()
        for other in cones:
            if other is c:
                continue
            ok = ok and not _inside_cone(p, other.rays)
    checks.append(_check(
        "disjoint-interiors", "translates of the quadrilateral do not overlap",
        {"depth": 4, "cones": len(cones)}, ok))
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
    if which == "all" and n is not None:
        # the free suite's refusal of n = 1, before any suite runs; the system
        # is the identities suite's first, so a bad n or m reads as it would
        _require_infinite_order(build_system(n, GRID_M[0] if m is None else m))
    reports = [suite(**({} if name == "symmetric" else given))
               for name, suite in SUITES.items() if which in (name, "all")]
    return {"passed": all(r["passed"] for r in reports), "suites": reports}
