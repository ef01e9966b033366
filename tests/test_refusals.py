"""Every refusal pinned by its exception type and message, plus the value
contracts of ``QuadExt`` and ``Matrix`` that the arithmetic relies on."""

import json
import signal
from fractions import Fraction

import pytest

from coxmov import bir, checks, cli
from coxmov.atlas import (boundary_patches, classify, enumerate_chambers,
                          word_matrix)
from coxmov.bir import (EigenPair, MAX_RADICAND_N, PsiWord, eigen_pair,
                        flop_pullback, psi_from_t, psi_matrix, t_normal_form,
                        verify_free)
from coxmov.checks import run_suites
from coxmov.cli import main
from coxmov.coxeter import (Permutation, build_system,
                            dual_reflection_from_gram, reflection_from_gram)
from coxmov.exact import QuadExt, sqrt_exact
from coxmov.linalg import Matrix, dot
from coxmov.svgplot import fnum
from coxmov.symmetric import psef_patches, sym_enumerate

S23 = build_system(2, 3)
S33 = build_system(3, 3)
RADICAND_REFUSAL = (f"eigenvector data needs n <= {10 ** 20}: the radicands "
                    "n - 2 and n + 2 are factored by trial division to their "
                    "cube roots")
WIDE = Matrix([[1, 2, 3], [4, 5, 6]])

REFUSALS = [
    pytest.param(lambda: classify(S23, (1, 2)), ValueError,
                 "expected 3 coordinates", id="classify-length"),
    pytest.param(lambda: psi_matrix(S23, 2, 2), ValueError,
                 "generator index 2 given twice", id="psi-same-index"),
    pytest.param(lambda: run_suites("nope"), ValueError,
                 "unknown suite 'nope'", id="unknown-suite"),
    pytest.param(lambda: Permutation.from_cycle(3, (1, 2, 1)), ValueError,
                 "cycle entry 1 given twice", id="cycle-repeat"),
    pytest.param(lambda: Permutation.identity(3) * Permutation.identity(4),
                 ValueError, "degree mismatch", id="perm-degree"),
    pytest.param(lambda: S23.t(0), IndexError,
                 "generator index 0 out of range 1..3", id="t-index"),
    pytest.param(lambda: build_system(2, 3).t(1.5), IndexError,
                 "generator index 1.5 out of range 1..3",
                 id="t-index-non-integer"),
    pytest.param(lambda: Permutation.transposition(3, 2, 2), ValueError,
                 "cycle entry 2 given twice", id="transposition-repeat"),
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
    pytest.param(lambda: eigen_pair(build_system(10 ** 20 + 1, 3), 1, 2),
                 ValueError, RADICAND_REFUSAL, id="eigen-radicand"),
    # a non-integer index or parameter is refused, not read as a position
    pytest.param(lambda: eigen_pair(build_system(3, 3), 1.5, 2), IndexError,
                 "generator index 1.5 out of range 1..3",
                 id="eigen-index-non-integer"),
    pytest.param(lambda: build_system(2.5, 3), ValueError,
                 "need n >= 1 and m >= 2, got (2.5, 3)", id="system-float-n"),
    pytest.param(lambda: build_system(True, 3), ValueError,
                 "need n >= 1 and m >= 2, got (True, 3)", id="system-bool-n"),
    pytest.param(lambda: psi_matrix(S23, 1.5, 2), IndexError,
                 "generator index 1.5 out of range 1..3",
                 id="psi-index-non-integer"),
    pytest.param(lambda: flop_pullback(S23, 0.5, 2), IndexError,
                 "model index 0.5 out of range 0..3",
                 id="flop-index-non-integer"),
    pytest.param(lambda: reflection_from_gram(S23.gram, 1.5), IndexError,
                 "generator index 1.5 out of range 1..3",
                 id="reflection-index-non-integer"),
    # a depth or a step cap is an int, a bool included in the refusal
    pytest.param(lambda: enumerate_chambers(S23, True), TypeError,
                 "depth must be an int, got True", id="chambers-depth-bool"),
    pytest.param(lambda: enumerate_chambers(S23, 2.0), TypeError,
                 "depth must be an int, got 2.0", id="chambers-depth-float"),
    pytest.param(lambda: boundary_patches(S33, 1.5), TypeError,
                 "depth must be an int, got 1.5", id="boundary-depth-float"),
    pytest.param(lambda: verify_free(S23, 2.0), TypeError,
                 "depth must be an int, got 2.0", id="free-depth-float"),
    pytest.param(lambda: sym_enumerate(2.0), TypeError,
                 "depth must be an int, got 2.0", id="symmetric-depth-float"),
    pytest.param(lambda: psef_patches(True), TypeError,
                 "depth must be an int, got True", id="psef-depth-bool"),
    pytest.param(lambda: classify(S23, (1, 2, 3), max_steps=1.5), TypeError,
                 "max_steps must be an int, got 1.5",
                 id="classify-max-steps-float"),
    pytest.param(lambda: classify(S23, (1, 2, 3), max_steps=True), TypeError,
                 "max_steps must be an int, got True",
                 id="classify-max-steps-bool"),
    # exact inputs stay exact
    pytest.param(lambda: classify(S23, (0.1, 2, 3)), TypeError,
                 "exact classes do not accept floats", id="classify-float"),
    pytest.param(lambda: classify(S23, (Fraction(1, 2), 2.0, 3)), TypeError,
                 "exact classes do not accept floats",
                 id="classify-integral-float"),
    pytest.param(lambda: Permutation((1.0, 2, 3)), ValueError,
                 "not a permutation of 1..3: (1.0, 2, 3)", id="perm-float"),
    pytest.param(lambda: Permutation((True, 2)), ValueError,
                 "not a permutation of 1..2: (True, 2)", id="perm-bool"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# Every entry point that takes an index of the (3, 3) system, as a call
# on the index x, with the rule's name for it and its lower bound (the
# upper bound is m = 3); a second index, where one is taken, is 3.
INDEX_ENTRY_POINTS = [
    pytest.param(lambda x: build_system(3, 3).t(x), "generator index", 1,
                 id="t"),
    pytest.param(lambda x: S33.tau(x), "generator index", 1, id="tau"),
    pytest.param(lambda x: reflection_from_gram(S33.gram, x),
                 "generator index", 1, id="reflection_from_gram"),
    pytest.param(lambda x: dual_reflection_from_gram(S33.gram, x),
                 "generator index", 1, id="dual_reflection_from_gram"),
    pytest.param(lambda x: psi_matrix(S33, x, 3), "generator index", 1,
                 id="psi_matrix-i"),
    pytest.param(lambda x: psi_matrix(S33, 3, x), "generator index", 1,
                 id="psi_matrix-j"),
    pytest.param(lambda x: flop_pullback(S33, x, 3), "model index", 0,
                 id="flop_pullback-i"),
    pytest.param(lambda x: flop_pullback(S33, 3, x), "model index", 0,
                 id="flop_pullback-j"),
    pytest.param(lambda x: eigen_pair(S33, x, 3), "generator index", 1,
                 id="eigen_pair-i"),
    pytest.param(lambda x: eigen_pair(S33, 3, x), "generator index", 1,
                 id="eigen_pair-j"),
    pytest.param(lambda x: psi_from_t(S33, (3, x)), "t-letter", 1,
                 id="psi_from_t"),
    pytest.param(lambda x: Permutation.from_cycle(3, (3, x)), "cycle entry", 1,
                 id="from_cycle"),
    pytest.param(lambda x: Permutation.transposition(3, 3, x), "cycle entry",
                 1, id="transposition"),
    pytest.param(lambda x: word_matrix(S33, (3, x)), "generator index", 1,
                 id="word_matrix"),
    pytest.param(lambda x: t_normal_form(S33, PsiWord(((3, x, 1),))),
                 "generator index", 1, id="t_normal_form"),
]


@pytest.mark.parametrize("x", [None, 4, 2.0, Fraction(2), True],
                         ids=["below", "above", "float", "fraction", "bool"])
@pytest.mark.parametrize("call, what, lo", INDEX_ENTRY_POINTS)
def test_index_rule(call, what, lo, x):
    x = lo - 1 if x is None else x
    with pytest.raises(IndexError) as info:
        call(x)
    assert str(info.value) == f"{what} {x!r} out of range {lo}..3"


@pytest.mark.parametrize("call, message", [
    (lambda: psi_matrix(S33, 3, 3), "generator index 3 given twice"),
    (lambda: eigen_pair(S33, 2, 2), "generator index 2 given twice"),
    (lambda: flop_pullback(S33, 0, 0), "model index 0 given twice"),
    (lambda: Permutation.from_cycle(3, (1, 3, 2, 3)),
     "cycle entry 3 given twice"),
], ids=["psi_matrix", "eigen_pair", "flop_pullback", "from_cycle"])
def test_index_rule_refuses_a_repeated_index(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_index_rule_lets_t_letters_repeat():
    assert psi_from_t(S33, (1, 1, 2)) == psi_from_t(S33, (2,))


def test_t_refuses_a_float_index_after_its_int_is_cached():
    s = build_system(3, 3)
    assert s.t(1) == S33.t(1)
    for call in (lambda: s.t(1.0), lambda: word_matrix(s, (1.0,))):
        with pytest.raises(IndexError) as info:
            call()
        assert str(info.value) == "generator index 1.0 out of range 1..3"


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


def test_radicand_bound_admits_ten_to_the_twenty(capsys):
    assert MAX_RADICAND_N == 10 ** 20
    assert isinstance(eigen_pair(build_system(10 ** 20, 3), 1, 2), EigenPair)
    assert main(["boundary", "--n", str(10 ** 20), "--m", "3",
                 "--depth", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["n"] == 10 ** 20


@pytest.mark.parametrize("n", [10 ** 20 + 1, 10 ** 34])
def test_radicand_work_above_the_bound_is_refused_before_factoring(
        monkeypatch, capsys, n):
    def unreachable(_):
        raise AssertionError("factored a radicand above the bound")

    monkeypatch.setattr(bir, "squarefree_decompose", unreachable)
    with pytest.raises(ValueError, match="^eigenvector data needs n <= "):
        eigen_pair(build_system(n, 3), 1, 2)
    assert main(["boundary", "--n", str(n), "--m", "3", "--depth", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"code": 2, "message": RADICAND_REFUSAL}}


INFINITE_ORDER_REFUSAL = ("word operations need n >= 2 (for n = 1 the "
                          "generators satisfy (t_i t_j)^3 = 1)")


@pytest.mark.parametrize("argv,module,name,message", [
    pytest.param(["chambers", "--n", "2", "--m", "6", "--depth", "8",
                  "--format", "svg"], cli, "enumerate_chambers",
                 "svg output needs m = 3", id="chambers-svg"),
    # over the word budget too: the svg rule is checked first
    pytest.param(["chambers", "--n", "2", "--m", "4", "--depth", "1000000000",
                  "--format", "svg"], cli, "enumerate_chambers",
                 "svg output needs m = 3", id="chambers-svg-over-budget"),
    pytest.param(["boundary", "--n", "3", "--m", "6", "--depth", "4",
                  "--format", "svg"], cli, "boundary_patches",
                 "svg output needs m = 3", id="boundary-svg"),
    pytest.param(["verify", "--suite", "all", "--n", "1", "--m", "7"],
                 checks.SUITES, "identities", INFINITE_ORDER_REFUSAL,
                 id="verify-all-n1-m7"),
    pytest.param(["verify", "--suite", "all", "--n", "1"], checks.SUITES,
                 "identities", INFINITE_ORDER_REFUSAL, id="verify-all-n1"),
])
def test_refusal_comes_before_the_work(monkeypatch, capsys, argv, module,
                                       name, message):
    ran = []

    def unreachable(*args, **kwargs):
        ran.append(name)
        raise AssertionError(f"{name} ran before the refusal")

    if isinstance(module, dict):
        monkeypatch.setitem(module, name, unreachable)
    else:
        monkeypatch.setattr(module, name, unreachable)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, ran) == ("", [])
    assert json.loads(captured.err) == {"error": {"code": 2,
                                                  "message": message}}


def test_identities_suite_alone_still_runs_n_1():
    report = run_suites("identities", 1, 3)
    assert report["passed"] and len(report["suites"]) == 1


@pytest.mark.parametrize("cls", ["1,1e-1000000,1", "1E2,1,1", "1,1,2.5e3",
                                 "-1e0,1,1", "1, .5e+1_0,1", "1_0.e3,1,1"])
def test_classify_refuses_exponent_notation_at_once(capsys, cls):
    # Fraction reads 1e-1000000 as a million-digit denominator, past the
    # 4300-digit limit that long digit strings meet
    def too_slow(signum, frame):
        raise TimeoutError("an exponent entry was not refused at once")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        code = main(["classify", "--n", "2", "--m", "3", f"--class={cls}"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err)["error"]["message"] == (
        f"malformed class string: exponent notation in {cls!r}")


def test_classify_reads_integers_fractions_and_decimals(capsys):
    assert main(["classify", "--n", "2", "--m", "3", "--class=2,1/2,0.25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["class"] == ["2", "1/2", "1/4"]
