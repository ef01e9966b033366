"""Every refusal pinned by its exception type and message, plus the value
contracts of ``QuadExt`` and ``Matrix`` that the arithmetic relies on."""

import json
import signal
from fractions import Fraction

import pytest

from coxmov import bir, checks, cli
from coxmov.atlas import classify
from coxmov.bir import EigenPair, MAX_RADICAND_N, eigen_pair, psi_matrix
from coxmov.checks import run_suites
from coxmov.cli import main
from coxmov.coxeter import Permutation, build_system
from coxmov.exact import QuadExt, sqrt_exact
from coxmov.linalg import Matrix, dot
from coxmov.svgplot import fnum

S23 = build_system(2, 3)
RADICAND_REFUSAL = (f"eigenvector data needs n <= {10 ** 20}: the radicands "
                    "n - 2 and n + 2 are factored by trial division to their "
                    "cube roots")
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
    pytest.param(lambda: eigen_pair(build_system(10 ** 20 + 1, 3), 1, 2),
                 ValueError, RADICAND_REFUSAL, id="eigen-radicand"),
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
