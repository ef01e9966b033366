import contextlib
import errno
import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxmov.linalg
from coxmov import checks, cli, coxeter, jsonio
from coxmov.atlas import (ClassificationError, boundary_patches, classify,
                          enumerate_chambers, fundamental_domain)
from coxmov.bir import PsiWord
from coxmov.cli import main
from coxmov.coxeter import CoxeterSystem, build_system
from coxmov.exact import QuadExt
from coxmov.linalg import Matrix
from coxmov.symmetric import SymWord


SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "schema"
                     / "coxmov.schema.json").read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ERROR_DOCUMENT = jsonschema.Draft7Validator(
    {"definitions": SCHEMA["definitions"],
     "$ref": "#/definitions/error_document"})


def error_payload(err):
    """The stderr error JSON of a failed run, checked against the schema."""
    doc = json.loads(err)
    ERROR_DOCUMENT.validate(doc)
    return doc["error"]


def test_schema_is_valid_for_its_draft():
    assert SCHEMA["$schema"] == "http://json-schema.org/draft-07/schema#"
    assert jsonschema.validators.validator_for(SCHEMA) is jsonschema.Draft7Validator
    jsonschema.Draft7Validator.check_schema(SCHEMA)


def test_error_document_schema_rejects_malformed():
    ERROR_DOCUMENT.validate({"error": {"code": 3, "message": "x", "steps": 4,
                                       "last_iterate": ["-1/2", "3"]}})
    for bad in ({"error": {"code": 1, "message": "x"}},
                {"error": {"code": 2}},
                {"error": {"code": 2, "message": "x", "extra": 1}},
                {"error": {"code": 3, "message": "x", "steps": -1}},
                {"error": {"code": 3, "message": "x", "last_iterate": ["0.5"]}},
                {"error": {"code": 2, "message": "x"}, "command": "system"}):
        with pytest.raises(jsonschema.ValidationError):
            ERROR_DOCUMENT.validate(bad)


# -- serialization roundtrips -------------------------------------------------

def test_scalar_roundtrip():
    for f in (Fraction(3), Fraction(-1, 2), Fraction(22, 7)):
        assert jsonio.str_to_frac(jsonio.frac_to_str(f)) == f
    q = QuadExt(Fraction(7, 2), Fraction(-3, 2), 5)
    assert jsonio.obj_to_quad(jsonio.quad_to_obj(q)) == q


def test_matrix_roundtrip():
    s = build_system(3, 3)
    for mat in (s.gram, s.t(2), s.quadric_matrix()):
        assert jsonio.obj_to_matrix(jsonio.matrix_to_obj(mat)) == mat


def test_word_and_aggregate_roundtrips():
    w = PsiWord(((1, 2, 2), (1, 3, -1)))
    assert jsonio.obj_to_psi_word(jsonio.psi_word_to_obj(w)) == w

    s = build_system(2, 3)
    for ch in enumerate_chambers(s, 2):
        assert jsonio.obj_to_chamber(jsonio.chamber_to_obj(ch)) == ch
    for p in boundary_patches(build_system(3, 3), 1):
        assert jsonio.obj_to_patch(jsonio.patch_to_obj(p)) == p
    res = classify(s, (-1, 4, 5))
    back = jsonio.obj_to_classification(jsonio.classification_to_obj(res))
    assert back == res


def _through_json(to_obj, from_obj, x):
    return from_obj(json.loads(jsonio.dumps(to_obj(x))))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(2, 4), st.integers(3, 4), st.integers(0, 2), st.data())
def test_listing_roundtrips(n, m, depth, data):
    # n = 2 gives rational apexes, n >= 3 apexes in Q(sqrt(d))
    sys = build_system(n, m)
    chambers = fundamental_domain(sys) + enumerate_chambers(sys, depth)
    for ch in chambers:
        assert _through_json(jsonio.chamber_to_obj, jsonio.obj_to_chamber,
                             ch) == ch
    for p in boundary_patches(sys, depth):
        assert _through_json(jsonio.patch_to_obj, jsonio.obj_to_patch, p) == p
    # a point inside a listed chamber: positive weights on its rays
    rays = data.draw(st.sampled_from(chambers)).rays
    weights = data.draw(st.lists(
        st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
        min_size=m, max_size=m))
    point = tuple(sum(w * r[k] for w, r in zip(weights, rays))
                  for k in range(m))
    res = classify(sys, point)
    assert _through_json(jsonio.classification_to_obj,
                         jsonio.obj_to_classification, res) == res


_JSON_TEXT = (st.text()
              | st.text(st.characters(max_codepoint=0x1f))
              | st.text(st.characters(min_codepoint=0x80)))
_JSON_INT = st.integers(-2 ** 9, 2 ** 9) | st.integers(-2 ** 200, 2 ** 200)
_JSON_DOC = st.recursive(
    st.none() | st.booleans() | _JSON_INT | _JSON_TEXT
    | st.lists(_JSON_TEXT) | st.lists(_JSON_INT),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=5)),
    max_leaves=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.dictionaries(_JSON_TEXT, _JSON_DOC, max_size=6) | _JSON_DOC)
def test_dumps_matches_json_dumps_indent_2(doc):
    assert jsonio.dumps(doc) == json.dumps(doc, indent=2,
                                           ensure_ascii=True) + "\n"


def test_dumps_layout_examples():
    doc = {"a": [], "b": {}, "c": ["x", "\u00e9\n"], "d": [1, -2, 3 ** 80],
           "e": [None, True, False, 0, "s", [], {"k": [1]}], "f": (1, "x")}
    assert jsonio.dumps(doc) == json.dumps(doc, indent=2) + "\n"
    assert jsonio.dumps({}) == "{}\n"


@pytest.mark.parametrize("value", [1.5, float("nan"), {1, 2}, object(),
                                   Fraction(1, 2), frozenset(), b"x"])
def test_dumps_rejects_other_types(value):
    for doc in ({"x": value}, {"x": [value]}, {"x": [1, value]},
                {"x": ["s", value]}):
        with pytest.raises(TypeError):
            jsonio.dumps(doc)
    with pytest.raises(TypeError, match="keys must be str"):
        jsonio.dumps({1: "a"})


def test_dumps_leaves_no_cyclic_garbage():
    s = build_system(3, 4)
    chambers = enumerate_chambers(s, 2)
    point = chambers[-1].interior_point()
    docs = [jsonio.system_document(s),
            jsonio.chambers_document(s, 2, chambers),
            jsonio.classify_document(s, point, classify(s, point))]
    gc.disable()
    try:
        gc.collect()
        for doc in docs:
            jsonio.dumps(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("layer", ["psef", "movable"])
def test_dumps_peak_memory_is_about_twice_the_text(layer):
    # each array item is joined once written, so the writer never holds
    # every token of a large listing at once
    import tracemalloc

    from coxmov.symmetric import psef_patches, sym_enumerate
    if layer == "psef":
        doc = jsonio.symmetric_document(6, layer, psef_patches(6))
    else:
        doc = jsonio.symmetric_document(8, layer, sym_enumerate(8))
    text = jsonio.dumps(doc)
    tracemalloc.start()
    try:
        jsonio.dumps(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), (peak, len(text))


@pytest.mark.parametrize("kind", ["psef", "movable", "chambers"])
def test_building_and_writing_a_listing_peaks_under_three_times_the_text(kind):
    # the documents hold the records' own tuples, so building one adds
    # only a small dict per record to what the writer needs
    import tracemalloc

    from coxmov.symmetric import psef_patches, sym_enumerate
    if kind == "chambers":
        s = build_system(3, 4)
        build = partial(jsonio.chambers_document, s, 5,
                        enumerate_chambers(s, 5))
    else:
        depth = 6 if kind == "psef" else 8
        items = (psef_patches if kind == "psef" else sym_enumerate)(depth)
        build = partial(jsonio.symmetric_document, depth, kind, items)
    text = jsonio.dumps(build())
    tracemalloc.start()
    try:
        jsonio.dumps(build())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text), (peak, len(text))


def test_system_document_shares_one_string_per_generator_value():
    gens = jsonio.system_document(build_system(2, 40))["generators"]
    assert len({id(x) for g in gens for row in g for x in row}) <= 4


def test_system_document_past_the_int_str_limit():
    n = 10 ** 4400
    sys_ = build_system(n, 3)
    doc = json.loads(jsonio.dumps(jsonio.system_document(sys_)),
                     parse_int=Decimal)
    assert doc["params"]["n"] == Decimal(n)
    expected = [[[str(Decimal(x)) for x in row] for row in zip(*ch.rays)]
                for ch in fundamental_domain(sys_)[1:]]
    assert doc["generators"] == expected
    assert str(Decimal(n)) in {x for g in expected for row in g for x in row}


def test_system_generators_match_matrix_oracle():
    # the generators come from the integer column walk; t(i) builds the
    # same matrices from its own closed form
    for n in range(1, 8):
        for m in range(2, 14):
            if n * (m - 1) == 2:
                continue    # singular quadric
            sys = build_system(n, m)
            assert jsonio.system_document(sys)["generators"] == [
                jsonio.matrix_to_obj(sys.t(i)) for i in range(1, m + 1)]


def test_system_document_builds_no_generator_matrix(monkeypatch):
    sys = build_system(3, 42)
    sys.gram, sys.quadric_matrix()    # cached, so no Matrix is left to build

    def refuse(*args):
        raise AssertionError("a generator went through Matrix")

    converted = []

    def frac_to_str(x):
        converted.append(x)
        return str(Fraction(x))

    monkeypatch.setattr(CoxeterSystem, "t", refuse)
    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(jsonio, "frac_to_str", frac_to_str)
    doc = jsonio.system_document(sys)
    assert len(doc["generators"]) == 42
    t5 = doc["generators"][4]
    assert [row[4] for row in t5] == ["3"] * 4 + ["-1"] + ["3"] * 37
    # only the Gram and quadric entries go through Fraction
    assert len(converted) == 2 * 42 * 42


def _refuse_generic_arithmetic(monkeypatch):
    """Patch in raising stubs for the generic Matrix products, the
    generator matrices, ``QuadExt`` arithmetic and every module binding of
    ``primitive_int_vector``, ``dot`` and ``primitive_quad_vector``."""
    def refuse(*args, **kwargs):
        raise AssertionError("production path reached generic Matrix or "
                             "Q(sqrt(d)) arithmetic")

    monkeypatch.setattr(Matrix, "__mul__", refuse)
    monkeypatch.setattr(Matrix, "__pow__", refuse)
    monkeypatch.setattr(CoxeterSystem, "t", refuse)
    for meth in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                 "__neg__", "inverse"):
        monkeypatch.setattr(QuadExt, meth, refuse)
    originals = (coxmov.linalg.primitive_int_vector, coxmov.linalg.dot,
                 coxmov.linalg.primitive_quad_vector)
    # the CLI imports these on demand; patch their bindings too
    for name in ("coxmov.symmetric", "coxmov.svgplot"):
        importlib.import_module(name)
    bound = []
    for name, module in list(sys.modules.items()):
        if name == "coxmov" or name.startswith("coxmov."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, attr, refuse)
                    bound.append(f"{name}.{attr}")
    assert {"coxmov.primitive_int_vector",
            "coxmov.linalg.primitive_int_vector",
            "coxmov.symmetric.primitive_int_vector",
            "coxmov.dot", "coxmov.linalg.dot", "coxmov.atlas.dot",
            "coxmov.primitive_quad_vector",
            "coxmov.linalg.primitive_quad_vector"} <= set(bound), bound


MATRIX_FREE_RUNS = [
    ("system", "--n", "3", "--m", "5"),
    ("chambers", "--n", "2", "--m", "3", "--depth", "3"),
    ("chambers", "--n", "3", "--m", "4", "--depth", "2"),
    ("chambers", "--n", "2", "--m", "3", "--depth", "3", "--format", "svg"),
    ("classify", "--n", "3", "--m", "4", "--class", "8405,-2254,6160,9207"),
    ("boundary", "--n", "2", "--m", "3", "--depth", "2"),
    ("boundary", "--n", "2", "--m", "3", "--depth", "2", "--format", "svg"),
    ("boundary", "--n", "3", "--m", "4", "--depth", "2"),
    ("boundary", "--n", "3", "--m", "3", "--depth", "2", "--format", "svg"),
    ("boundary", "--n", "5", "--m", "3", "--depth", "2"),
    ("boundary", "--n", "10", "--m", "5", "--depth", "1"),
    ("boundary", "--n", "5", "--m", "3", "--depth", "2", "--format", "svg"),
]
# the symmetric walk (3x3 Matrix products) and sym_enumerate's rescale of
# each ray image (primitive_int_vector) are the only generic-arithmetic
# users left on that path (ROADMAP items 1, 2 and 13): remove the marker
# when both run on ints
SYMMETRIC_WALK = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the symmetric walk and sym_enumerate's rescale still run on "
           "generic arithmetic (ROADMAP items 1, 2 and 13)")


@pytest.mark.parametrize("argv", MATRIX_FREE_RUNS + [
    pytest.param(("symmetric", "--layer", layer, "--depth", "2"),
                 marks=SYMMETRIC_WALK) for layer in ("movable", "psef")])
def test_production_path_is_matrix_free(capsys, monkeypatch, argv):
    _refuse_generic_arithmetic(monkeypatch)
    code, guarded, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.undo()
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0 and guarded == plain


@pytest.mark.parametrize("argv", [
    ("symmetric", "--layer", "psef", "--depth", "3"),
    ("symmetric", "--layer", "psef", "--depth", "3", "--format", "svg",
     "--labels")])
def test_psef_reads_d_classes_as_data(capsys, monkeypatch, argv):
    # D1 and D2 are data: neither the patches nor the labels derive them
    from coxmov import symmetric

    def refuse(*args, **kwargs):
        raise AssertionError("psef path derived D1, D2 again")

    for name in ("tangent_line", "isotropy_value", "primitive_int_vector"):
        monkeypatch.setattr(symmetric, name, refuse)
    code, guarded, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.undo()
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0 and guarded == plain


# -- CLI ---------------------------------------------------------------------

def test_cli_system(capsys):
    code, out, _ = run_cli(capsys, "system", "--n", "2", "--m", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["lorentzian"] is True
    assert doc["generators"][0] == [["-1", "0", "0"], ["2", "1", "0"],
                                    ["2", "0", "1"]]
    assert doc["quadric"] == [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]


@pytest.mark.parametrize("argv", [
    ("system", "--n", "2", "--m", "3"),
    ("chambers", "--n", "2", "--m", "3", "--depth", "3"),
    ("classify", "--n", "2", "--m", "3", "--class", "-1,4,5"),
    ("boundary", "--n", "3", "--m", "3", "--depth", "1"),
    ("symmetric", "--depth", "3"),
    ("symmetric", "--layer", "psef", "--depth", "2"),
    ("verify", "--suite", "symmetric"),
])
def test_cli_json_matches_schema(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    jsonschema.Draft7Validator(SCHEMA).validate(doc)
    body = {"definitions": SCHEMA["definitions"],
            "$ref": f"#/definitions/{argv[0]}_body"}
    jsonschema.Draft7Validator(body).validate(doc)
    if argv[0] == "chambers":
        # the root schema reaches the command's body definition
        doc["count"] = "x"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.Draft7Validator(SCHEMA).validate(doc)


def test_cli_system_range_error(capsys):
    code, out, err = run_cli(capsys, "system", "--n", "1", "--m", "2")
    assert code == 2
    assert out == ""
    assert error_payload(err)["code"] == 2


def test_cli_chambers_json(capsys):
    code, out, _ = run_cli(capsys, "chambers", "--n", "2", "--m", "4",
                           "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 17
    assert len(doc["chambers"]) == 17


def test_cli_chambers_svg(capsys):
    code, out, _ = run_cli(capsys, "chambers", "--n", "2", "--m", "3",
                           "--depth", "4", "--format", "svg", "--labels")
    assert code == 0
    assert out.startswith("<?xml")
    assert "<ellipse" in out and "<polygon" in out and "H3" in out
    code, _, err = run_cli(capsys, "chambers", "--n", "2", "--m", "4",
                           "--depth", "2", "--format", "svg")
    assert code == 2
    assert "m = 3" in error_payload(err)["message"]


def test_chart_renderers_refuse_m_other_than_3():
    from coxmov import svgplot
    sys4 = build_system(2, 4)
    for render in (svgplot.render_chambers, svgplot.render_boundary):
        with pytest.raises(ValueError) as exc:
            render(sys4, [])
        assert str(exc.value) == "svg output needs m = 3"


def test_cli_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "2", "--m", "3",
                           "--class", "1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["model_index"] == 0
    assert doc["result"]["t_word"] == []

    code, out, _ = run_cli(capsys, "classify", "--n", "2", "--m", "3",
                           "--class", "-1,4,5")
    assert code == 0
    assert json.loads(out)["result"]["model_index"] == 1

    code, _, err = run_cli(capsys, "classify", "--n", "2", "--m", "3",
                           "--class", "-1,-1,-1", "--max-steps", "80")
    assert code == 3
    payload = error_payload(err)
    assert payload["code"] == 3
    assert payload["steps"] == 80
    assert len(payload["last_iterate"]) == 3

    for cls in ("1,1,1", "-1,-1,-1"):
        code, out, err = run_cli(capsys, "classify", "--n", "2", "--m", "3",
                                 "--class", cls, "--max-steps", "-3")
        assert code == 2 and out == ""
        assert error_payload(err)["message"] == "max_steps must be >= 0"

    code, _, err = run_cli(capsys, "classify", "--n", "2", "--m", "3",
                           "--class", "1,zebra,1")
    assert code == 2
    code, _, err = run_cli(capsys, "classify", "--n", "2", "--m", "3",
                           "--class", "1,1")
    assert code == 2
    assert error_payload(err)["message"] == "expected 3 coordinates"


@contextlib.contextmanager
def _no_int_str_limit():
    """Convert ints of any length here (Python >= 3.11 caps str and int)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_cli_classify_long_walk_exits_3(capsys):
    # the last iterate of 12000 steps has more digits than str() writes
    # on Python >= 3.11 (4300 by default)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run_cli(capsys, "classify", "--n", "2", "--m", "3",
                             "--class", "-1,-1,-1", "--max-steps", "12000")
    assert (code, out) == (3, "")
    # the limit still guards the parsing of input
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    payload = error_payload(err)
    assert payload["steps"] == 12000
    with pytest.raises(ClassificationError) as exc:
        classify(build_system(2, 3), (-1, -1, -1), max_steps=12000)
    assert max(map(len, payload["last_iterate"])) > 4300
    with _no_int_str_limit():
        assert [Fraction(x) for x in payload["last_iterate"]] == list(
            exc.value.last_iterate)


@pytest.mark.parametrize("bits", [0, 1, 2000, 2001, 15000, 40000])
def test_exact_str_matches_str(bits):
    n = 3 ** (bits * 100 // 158) + bits  # about ``bits`` bits
    values = [n, -n, Fraction(n, 7 ** 2000), Fraction(10 ** (bits // 4)),
              Fraction(1 - 10 ** (bits // 4))]
    ints = [n, -n, 10 ** (bits // 4), 1 - 10 ** (bits // 4)]
    with _no_int_str_limit():
        expected = [str(Fraction(x)) for x in values]
        expected_ints = [str(x) for x in ints]
        expected_doc = json.dumps({"n": n, "ints": ints}, indent=2) + "\n"
    assert [jsonio.frac_to_str(x) for x in values] == expected
    assert [jsonio.int_str(x) for x in ints] == expected_ints
    assert jsonio.dumps({"n": n, "ints": ints}) == expected_doc


def test_cli_chambers_past_the_int_str_limit(capsys):
    # the rays of depth 3 at n = 10^1500 have more than 4300 digits
    n = 10 ** 1500
    code, out, err = run_cli(capsys, "chambers", "--n", str(n), "--m", "3",
                             "--depth", "3")
    assert (code, err) == (0, "")
    # json.loads refuses an int past 4300 digits from Python 3.11
    doc = json.loads(out, parse_int=Decimal)
    chambers = enumerate_chambers(build_system(n, 3), 3)
    assert doc["params"]["n"] == Decimal(n)
    assert [[[Decimal(x) for x in r] for r in ch.rays] for ch in chambers] \
        == [ch["rays"] for ch in doc["chambers"]]
    assert max(len(str(x)) for ch in doc["chambers"] for r in ch["rays"]
               for x in r) > 4300
    code, out, err = run_cli(capsys, "chambers", "--n", str(n), "--m", "3",
                             "--depth", "3", "--format", "svg")
    assert (code, err) == (0, "")
    assert out.count("<ellipse") == 1


@pytest.mark.parametrize("exponent", [20, 300, 309])
def test_svg_draws_the_quadric_at_any_n(exponent):
    # the quadric entries pass 2^53 from n = 10^16 and the largest float
    # from n = 10^309; test_cli_chambers_past_the_int_str_limit draws 10^1500
    from coxmov import svgplot
    sys_ = build_system(10 ** exponent, 3)
    ellipse = svgplot.conic_ellipse(sys_)
    assert ellipse is not None and 'rx="133.333333333"' in ellipse


@pytest.mark.parametrize("n", [2, 3, 10 ** 6, 10 ** 300])
def test_conic_is_one_ellipse(n):
    # every system a picture is drawn for (m = 3, n >= 2) is Lorentzian
    from coxmov import svgplot
    ellipse = svgplot.conic_ellipse(build_system(n, 3))
    assert ellipse.startswith("<ellipse ") and ellipse.count("<") == 1


def test_cli_boundary(capsys):
    code, out, _ = run_cli(capsys, "boundary", "--n", "3", "--m", "3",
                           "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    apexes = [p["apex"] for p in doc["patches"]]
    assert all(set(entry) == {"a", "b", "d"} for apex in apexes
               for entry in apex)
    # isotropy rerun on the serialized values
    from coxmov.atlas import isotropy_value
    s = build_system(3, 3)
    for apex in apexes:
        vec = tuple(jsonio.obj_to_quad(entry) for entry in apex)
        assert isotropy_value(s, vec) == QuadExt(0)

    code, out, _ = run_cli(capsys, "boundary", "--n", "3", "--m", "3",
                           "--depth", "0")
    assert json.loads(out)["count"] == 3

    code, _, err = run_cli(capsys, "boundary", "--n", "1", "--m", "5",
                           "--depth", "0")
    assert code == 2
    assert "n >= 2" in error_payload(err)["message"]

    code, out, _ = run_cli(capsys, "boundary", "--n", "2", "--m", "3",
                           "--depth", "0")
    assert json.loads(out)["count"] == 3


def test_cli_symmetric(capsys):
    code, out, _ = run_cli(capsys, "symmetric", "--depth", "0",
                           "--layer", "psef")
    assert code == 0
    doc = json.loads(out)
    statuses = {p["status"] for p in doc["patches"]}
    assert statuses == {"proven", "expected"}
    rays = {tuple(r) for p in doc["patches"] for r in p["rays"]}
    assert (-2, 2, 6) in rays and (2, -2, 6) in rays
    proven = [p for p in doc["patches"] if p["status"] == "proven"]
    assert {p["label"] for p in proven} == {
        "segment-d1-d2", "segment-d1-tangent", "segment-d2-tangent"}

    code, out, _ = run_cli(capsys, "symmetric", "--depth", "4",
                           "--layer", "movable", "--format", "svg")
    assert code == 0
    assert "<polygon" in out and "H1" not in out
    code, out, _ = run_cli(capsys, "symmetric", "--depth", "1",
                           "--layer", "movable", "--format", "svg", "--labels")
    assert code == 0
    assert all(f">H{k}</text>" in out for k in (1, 2, 3))

    code, out, _ = run_cli(capsys, "symmetric", "--depth", "1",
                           "--layer", "psef", "--format", "svg", "--labels")
    assert code == 0
    assert "D1" in out and "D2" in out and "<ellipse" in out


def test_cli_determinism(capsys):
    runs = [
        ("chambers", "--n", "2", "--m", "3", "--depth", "4", "--format", "svg"),
        ("chambers", "--n", "3", "--m", "3", "--depth", "3"),
        ("boundary", "--n", "3", "--m", "3", "--depth", "2", "--format", "svg"),
        ("boundary", "--n", "2", "--m", "3", "--depth", "2"),
        ("symmetric", "--depth", "3", "--layer", "movable", "--format", "svg"),
        ("symmetric", "--depth", "2", "--layer", "psef"),
    ]
    for argv in runs:
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second and first


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "sys.json"
    code, out, _ = run_cli(capsys, "system", "--n", "2", "--m", "3",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "system"
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "system", "--n", "2", "--m", "3",
                             "--out", str(missing))
    assert code == 2 and out == ""
    assert str(missing) in error_payload(err)["message"]


def test_cli_out_checked_before_computing(tmp_path, capsys, monkeypatch):
    calls = []

    def run_suites(*args):
        calls.append(args)
        raise AssertionError("the suites ran")

    monkeypatch.setattr(checks, "run_suites", run_suites)
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", "--suite", "all",
                             "--out", str(missing))
    assert (code, out, calls) == (2, "", [])
    assert error_payload(err)["message"] == \
        f"cannot write {missing}: No such file or directory"


def test_cli_failed_run_leaves_no_out_file(tmp_path, capsys):
    target = tmp_path / "x.json"
    failing = [(("classify", "--n", "2", "--m", "3", "--class", "-1,-1,-1",
                 "--max-steps", "3"), 3),
               (("chambers", "--n", "2", "--m", "4", "--format", "svg"), 2),
               (("system", "--n", "1", "--m", "2"), 2)]
    for argv, expected in failing:
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (expected, "")
        assert error_payload(err)["code"] == expected
        assert not target.exists()
    # an existing file keeps its bytes when the run fails
    target.write_text("kept\n")
    for argv, expected in failing:
        assert run_cli(capsys, *argv, "--out", str(target))[0] == expected
        assert target.read_text() == "kept\n"
    code, _, _ = run_cli(capsys, "system", "--n", "2", "--m", "3",
                         "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["command"] == "system"


def test_cli_new_out_file_appears_only_whole(tmp_path, capsys, monkeypatch):
    # the claim leaves no file behind, so none exists while the command
    # computes; the file then holds the same bytes as stdout would
    target = tmp_path / "x.json"
    seen, real = [], cli.enumerate_chambers

    def enumerate_chambers(*args):
        seen.append(target.exists())
        return real(*args)

    monkeypatch.setattr(cli, "enumerate_chambers", enumerate_chambers)
    argv = ("chambers", "--n", "2", "--m", "3", "--depth", "2")
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert seen == [False]
    assert target.read_text() == run_cli(capsys, *argv)[1]
    assert list(tmp_path.iterdir()) == [target]


def test_cli_killed_run_leaves_no_out_file(tmp_path):
    # a child killed while it computes had no file to remove
    target = tmp_path / "x.json"
    probe = ("import sys, time, coxmov.cli as cli\n"
             "def stall(*args):\n"
             "    print('computing', file=sys.stderr, flush=True)\n"
             "    time.sleep(60)\n"
             "cli.enumerate_chambers = stall\n"
             "cli.main(sys.argv[1:])\n")
    src = Path(jsonio.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen([sys.executable, "-c", probe, "chambers", "--n",
                           "2", "--m", "3", "--out", str(target)], env=env,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            assert proc.stderr.readline() == "computing\n"
        finally:
            proc.kill()
    assert list(tmp_path.iterdir()) == []


def test_cli_empty_out_is_refused(capsys):
    code, out, err = run_cli(capsys, "system", "--n", "2", "--m", "3",
                             "--out", "")
    assert (code, out) == (2, "")
    assert error_payload(err)["message"] == \
        "cannot write : No such file or directory"


class _DiskFull:
    """A text handle that passes the first 8 characters on to ``fh``, then
    fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:8])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        self.fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_cli_write_failure_is_an_out_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _DiskFull(io.StringIO()))
    code = main(["system", "--n", "2", "--m", "3"])
    assert code == 2
    assert error_payload(capsys.readouterr().err)["message"] == \
        "cannot write stdout: No space left on device"
    monkeypatch.undo()
    # the created file is removed although 8 characters reached it
    target = tmp_path / "x.json"
    _fail_out_writes(monkeypatch)
    code, out, err = run_cli(capsys, "system", "--n", "2", "--m", "3",
                             "--out", str(target))
    assert (code, out) == (2, "")
    assert error_payload(err)["message"] == \
        f"cannot write {target}: No space left on device"
    assert list(tmp_path.iterdir()) == []


def _fail_out_writes(monkeypatch):
    # every handle that writes output (not the append-mode claim) fails
    # after 8 characters
    open_out = cli._open_out
    monkeypatch.setattr(cli, "_open_out", lambda path, mode: (
        open_out(path, mode) if mode == "a"
        else _DiskFull(open_out(path, mode))))


def test_cli_failed_write_keeps_existing_out(tmp_path, capsys, monkeypatch):
    target = tmp_path / "x.json"
    target.write_text("kept\n")
    target.chmod(0o640)
    _fail_out_writes(monkeypatch)
    code, out, err = run_cli(capsys, "system", "--n", "2", "--m", "3",
                             "--out", str(target))
    assert (code, out) == (2, "")
    assert error_payload(err)["message"] == \
        f"cannot write {target}: No space left on device"
    assert target.read_bytes() == b"kept\n"
    assert list(tmp_path.iterdir()) == [target]
    # a write that succeeds replaces the file and keeps its mode bits
    monkeypatch.undo()
    assert run_cli(capsys, "system", "--n", "2", "--m", "3",
                   "--out", str(target))[0] == 0
    assert json.loads(target.read_text())["command"] == "system"
    assert target.stat().st_mode & 0o777 == 0o640
    assert list(tmp_path.iterdir()) == [target]


def test_cli_out_through_symlink_and_device(tmp_path, capsys):
    # a symlink stays a link to the rewritten file; a device is written
    # in place, with no sibling file next to it
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old\n")
    link.symlink_to(real.name)
    assert run_cli(capsys, "system", "--n", "2", "--m", "3",
                   "--out", str(link))[0] == 0
    assert link.is_symlink()
    assert json.loads(real.read_text())["command"] == "system"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json",
                                                          "real.json"]
    assert run_cli(capsys, "system", "--n", "2", "--m", "3",
                   "--out", os.devnull)[:2] == (0, "")


def test_cli_out_in_a_directory_that_refuses_the_sibling(tmp_path, capsys,
                                                         monkeypatch):
    # a writable file in a directory where no new file can be made is
    # written in place, as before the sibling file
    target = tmp_path / "x.json"
    target.write_text("old\n")
    open_out = cli._open_out

    def refuse_new(path, mode):
        if mode == "x":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        return open_out(path, mode)

    monkeypatch.setattr(cli, "_open_out", refuse_new)
    assert run_cli(capsys, "system", "--n", "2", "--m", "3",
                   "--out", str(target))[0] == 0
    assert json.loads(target.read_text())["command"] == "system"
    assert list(tmp_path.iterdir()) == [target]


def test_cli_import_loads_no_subcommand_modules():
    # building the parser needs neither the suites nor the renderers
    src = Path(jsonio.__file__).resolve().parents[1]
    probe = ("import sys, coxmov.cli; coxmov.cli.build_parser(); "
             "print(sorted(m for m in ('coxmov.checks', 'coxmov.svgplot', "
             "'coxmov.symmetric') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_cli_start_loads_no_dataclass_machinery():
    # the result records are named tuples, so building the parser imports
    # neither ``dataclasses`` nor the ``inspect`` it pulls in; modules that
    # ``site`` loaded before the probe ran do not count
    src = Path(jsonio.__file__).resolve().parents[1]
    probe = ("import sys; before = set(sys.modules); import coxmov.cli; "
             "coxmov.cli.build_parser(); "
             "print(sorted(m for m in ('dataclasses', 'inspect') "
             "if m in sys.modules and m not in before))")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_suite_choices_match_checks():
    assert cli.SUITE_CHOICES == checks.SUITE_NAMES + ("all",)


def test_cli_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "symmetric")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["name"] for s in doc["suites"] for c in s["checks"]}
    assert "relation" in names and "tangency" in names
    code, _, err = run_cli(capsys, "verify", "--suite", "free", "--n", "2",
                           "--m", "3")
    assert code == 0


@pytest.mark.parametrize("suite,flag", [("tiling", "--n"), ("tiling", "--m"),
                                        ("free", "--n"), ("boundary", "--m"),
                                        ("identities", "--n"), ("all", "--m")])
def test_cli_verify_rejects_zero(capsys, suite, flag):
    # 0 is a given value, not a request for the default grid
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, "0")
    assert code == 2 and out == ""
    assert error_payload(err)["code"] == 2


@pytest.mark.parametrize("flags", [("--n", "0", "--m", "99"), ("--n", "3"),
                                   ("--m", "4")])
def test_cli_verify_symmetric_refuses_n_m(capsys, flags):
    code, out, err = run_cli(capsys, "verify", "--suite", "symmetric", *flags)
    assert code == 2 and out == ""
    assert error_payload(err)["code"] == 2


def test_cli_verify_all_with_n_m_bytes(capsys):
    # "all" still runs the symmetric suite, without n and m; recorded
    # before the suites were run from one table
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n", "3",
                             "--m", "4")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d08606534351f37d90d1e3e67295854e1e22550260039fb65f7a24b67185b280")


@pytest.mark.parametrize("argv,digest", [
    (("--suite", "identities", "--n", "4", "--m", "7"),
     "6137c706daf73926ebafcc5ebaf8856261eb7e0296c20dece0a31684d7be6946"),
    (("--suite", "symmetric"),
     "348d20da011d9d595810a043f7b636a9ab0546c27928042b28bede40c7082d17"),
])
def test_cli_verify_suite_bytes(capsys, argv, digest):
    # recorded before the suites read their matrices from tables
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_identities_suite_builds_each_matrix_once(monkeypatch):
    # the default grid has 160 ordered psi pairs and 272 ordered model pairs
    calls = {"psi_matrix": 0, "flop_pullback": 0}

    def counted(name):
        oracle = getattr(checks, name)

        def call(*args):
            calls[name] += 1
            return oracle(*args)
        return call

    for name in calls:
        monkeypatch.setattr(checks, name, counted(name))
    assert checks.run_suites("identities")["passed"]
    assert calls["psi_matrix"] <= 160 and calls["flop_pullback"] <= 272, calls


def test_identities_suite_checks_the_production_column_step(monkeypatch):
    # t_k is built only by coxeter._t_step, so a wrong step fails verify
    step = coxeter._t_step

    def flipped(n, cols, k):
        cols = step(n, cols, k)
        col = list(cols[k - 1])
        col[k - 1] = -col[k - 1]
        return cols[:k - 1] + (tuple(col),) + cols[k:]

    monkeypatch.setattr(coxeter, "_t_step", flipped)
    report = checks.run_suites("identities")
    failed = {c["name"] for c in report["suites"][0]["checks"]
              if not c["passed"]}
    assert not report["passed"]
    assert {"involution", "dual-transpose", "reflection-determinant",
            "charpoly", "psi-inverse", "psi-determinant"} <= failed


def test_symmetric_suite_reads_the_production_walk(monkeypatch):
    # the free-product check reads symmetric._sym_walk, not SymWord.matrix
    def refuse(self):
        raise AssertionError("SymWord.matrix called")

    monkeypatch.setattr(SymWord, "matrix", refuse)
    assert checks.run_suites("symmetric")["passed"]


def test_boundary_suite_checks_quadratic_values_without_lifting(monkeypatch):
    # eigen-pair and shrinking-cones multiply the rational matrices by the
    # Q(sqrt(d)) vectors as they are, with no Matrix.map(QuadExt) copy
    def refuse(self, f):
        raise AssertionError("Matrix.map called")

    monkeypatch.setattr(Matrix, "map", refuse)
    assert checks.run_suites("boundary", 3, 4)["passed"]


def test_cli_viewport_and_palette(capsys):
    code, out, _ = run_cli(capsys, "chambers", "--n", "2", "--m", "3",
                           "--depth", "2", "--format", "svg")
    assert code == 0
    assert 'viewBox="0 0 900 800"' in out
    # the canvas and the palette are fixed, so both flags are gone
    for flag, value in (("--viewport", "0,0,450,400"), ("--palette", "default")):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "chambers", "--n", "2", "--m", "3", "--format",
                    "svg", flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("COXMOV_WORD_BUDGET", "10")
    code, _, err = run_cli(capsys, "chambers", "--n", "2", "--m", "3",
                           "--depth", "4")
    assert code == 2
    assert "budget" in error_payload(err)["message"]
    for layer in ("movable", "psef"):
        code, _, err = run_cli(capsys, "symmetric", "--layer", layer,
                               "--depth", "3")
        assert code == 2
        assert "budget" in error_payload(err)["message"]


# -- golden output digests ----------------------------------------------------
# sha256 of stdout, the stderr text and the exit code of each run, recorded
# from the CLI as it stood before the output path was unified; any change to
# an output byte fails here.  Each row: argv, COXMOV_WORD_BUDGET, digest,
# stderr, exit code.

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    ('system --n 2 --m 3', None,
     'a9b097cc7addb7e0833d5cfe6e6da7fc7512114d12f12d617309145d07c4741e',
     '', 0),
    ('system --n 2 --m 4', None,
     '221704d7b341cc56a34f7fbabd7615017821eff18e324abfebd35b7051cf457a',
     '', 0),
    ('system --n 3 --m 3', None,
     'aa1b5dba96e967de3cc4061eb6ea1d4a2c9eaacb14cfa65e4c64dfa3035af3ea',
     '', 0),
    ('system --n 3 --m 4', None,
     'cc91c7c01b56003c882c053a7716d0ab0cea2196b83fa0a63ac00efab4d4e3b5',
     '', 0),
    ('system --n 4 --m 3', None,
     '6ce0ed7375bc4814e5a706b657c70adf388dfdb0b311d4d9baea30028ca74e28',
     '', 0),
    ('system --n 4 --m 4', None,
     '763dd034d26d96124023e76e453a54d85f6e3a727340cee0d627bfc0b5b10101',
     '', 0),
    ('system --n 1 --m 3', None,
     EMPTY,
     ('{"error": {"code": 2, "message": "parameters (1, 3) violate '
      'n*m - (n+1) >= 3"}}\n'), 2),
    ('system --n 2 --m 2', None,
     EMPTY,
     ('{"error": {"code": 2, "message": "parameters (2, 2) violate '
      'n*m - (n+1) >= 3"}}\n'), 2),
    ('chambers --n 2 --m 3 --depth 0', None,
     '249dd2f7d13881cd8eef9096e86a6f3cc27884bc254d0b01c4728c2a26573785',
     '', 0),
    ('chambers --n 2 --m 3 --depth 1', None,
     '1776b2ebc1523e3b094a3e8f997b79de73bcb365d649b60e4aeed181a0e3b85f',
     '', 0),
    ('chambers --n 2 --m 3 --depth 2', None,
     '31cb7f0ac2efe987f9f2d7809f144e73894ef69b02fe4d5257080403b0e3f5f2',
     '', 0),
    ('chambers --n 2 --m 3 --depth 3', None,
     'b9c4891b94da63d86e6b3d455c7c30c5b12bdf4749d7c1f5c9094d27a7d7ebd7',
     '', 0),
    ('chambers --n 2 --m 3 --depth -1', None,
     EMPTY,
     '{"error": {"code": 2, "message": "negative depth"}}\n', 2),
    ('chambers --n 2 --m 3 --depth 3 --format svg', None,
     '89d40ff9b4dcc16cc92fdba0ad2ea6c780de5f5dfced8b915eab0a641b58ee81',
     '', 0),
    ('chambers --n 2 --m 3 --depth 3 --format svg --labels', None,
     '994863ab5098807c17862dd4cb817c6423d00523f9bf98dc2424b51b985d3a5d',
     '', 0),
    ('chambers --n 2 --m 4 --depth 2 --format svg', None,
     EMPTY,
     '{"error": {"code": 2, "message": "svg output needs m = 3"}}\n', 2),
    ('boundary --n 2 --m 3 --depth 2', None,
     '39a9bf7d1bc2a45a7915256b6957b6704787b2e4dca08ec73f89e147921de308',
     '', 0),
    ('boundary --n 2 --m 3 --depth 2 --format svg', None,
     'ceeb883ccecb4c6ac804b75c63da73d038a3c1bdf7a6b1fbe3ca391283731e81',
     '', 0),
    ('boundary --n 3 --m 3 --depth 2', None,
     '41458072e00921a6a63683ce6ab1651c8857c4a0ded139b8ad273bcb40a5f249',
     '', 0),
    ('boundary --n 3 --m 3 --depth 2 --format svg', None,
     '33ffee8e1c8b4362ac073ab718d1c0af58c0bcbfd34c8a314930781c30fa4347',
     '', 0),
    ('boundary --n 5 --m 3 --depth 2', None,
     'c812facd93db45eebb1b16469665cb95d0da022c256430d75a44543e13b70b6c',
     '', 0),
    ('boundary --n 5 --m 3 --depth 2 --format svg', None,
     '4bbdf6b39a5bee5ca1fdba494c1527f551e7ab9392ce64526e0d7f9be8ec6ef2',
     '', 0),
    ('boundary --n 3 --m 3 --depth 2 --format svg --labels', None,
     EMPTY,
     ('usage: coxmov [-h] {system,chambers,classify,boundary,symmetric,verify}'
      ' ...\ncoxmov: error: unrecognized arguments: --labels\n'), 2),
    ('boundary --n 1 --m 5 --depth 0', None,
     EMPTY,
     ('{"error": {"code": 2, "message": "word operations need n >= 2'
      ' (for n = 1 the generators satisfy (t_i t_j)^3 = 1)"}}\n'), 2),
    ('symmetric --layer movable --depth 0', None,
     'ead6b465e855e75b781eb38026ccfb81885ec84a843551f35f6a0d7a0148e99b',
     '', 0),
    ('symmetric --layer movable --depth 0 --format svg', None,
     '31429a401a6c0eedee6ad522da5d0edf9bc8a3e06ff954cca512dc723e7e61b4',
     '', 0),
    ('symmetric --layer movable --depth 0 --format svg --labels', None,
     '92f07f653c96ebeff135a10425be9b1fcf7f73b8c28b8eb3c4088cb2584cf4dd',
     '', 0),
    ('symmetric --layer movable --depth 3', None,
     '2f9bad7545796b223466e5ab094ed428b1319b401987c586e1cdcf1d5eb3f81f',
     '', 0),
    ('symmetric --layer movable --depth 3 --format svg', None,
     '4cde0212bb0059fe9b48f47be0e00d26664855f1d474efa88df355561772e63f',
     '', 0),
    ('symmetric --layer movable --depth 3 --format svg --labels', None,
     '2e99cbd996890b2c3a31383c5bf9756da65945a0b52b6e4e37a57bd0701315ca',
     '', 0),
    ('symmetric --layer psef --depth 0', None,
     'b5f00c488081d5ae16074caf192874dea049ad753a6c39d50f92c3a5ffafab58',
     '', 0),
    ('symmetric --layer psef --depth 0 --format svg', None,
     '203c2eb94e0d46ad84d5a186d7acd2685a4d06dc5715ce4baf17d34759353be4',
     '', 0),
    ('symmetric --layer psef --depth 0 --format svg --labels', None,
     '1b8f53b984750e5b563b89d2856378e337a301e1cf291dcef7d163106bc49287',
     '', 0),
    ('symmetric --layer psef --depth 3', None,
     '3ca3332326327ffcef62aa05fc41432b0744c2351ce91627dc28478472a37598',
     '', 0),
    ('symmetric --layer psef --depth 3 --format svg', None,
     'ecebb0f53fda13c1be5d755345d4d5c53fe54a45a2b9c6489a0157f11e454dbc',
     '', 0),
    ('symmetric --layer psef --depth 3 --format svg --labels', None,
     'c066935aa079c69099aa771bc83cd2ea2b1d4c693529411df4f88e39fe6aecee',
     '', 0),
    ('classify --n 2 --m 3 --class -1,4,5', None,
     'e6a296b241d2d2e984ba4cf13751a32bc135b7164a1a0497eb3d9a7722f0219b',
     '', 0),
    ('classify --n 2 --m 3 --class -1,-1,-1 --max-steps 40', None,
     EMPTY,
     ('{"error": {"code": 3, "message": "classification failed: no '
      'nonnegative iterate within 40 steps (class outside the tiled'
      ' cone, or cap too small)", "steps": 40, "last_iterate": ["25'
      '888898137807319", "-67778015256063421", "-41889117118256101"'
      ']}}\n'), 3),
    ('classify --n 2 --m 3 --class 1,zebra,1', None,
     EMPTY,
     ('{"error": {"code": 2, "message": "malformed class string: In'
      'valid literal for Fraction: \'zebra\'"}}\n'), 2),
    ('verify --suite symmetric', None,
     '348d20da011d9d595810a043f7b636a9ab0546c27928042b28bede40c7082d17',
     '', 0),
    ('verify --suite identities', None,
     '6d4aa78547ed73a4d8bc5a3cb13a6e7c9401ba19675c9d863e692adc5b464ad7',
     '', 0),
    ('verify --suite boundary --n 2 --m 3', None,
     '19c8726072a7e73120eb11a3a51672c5e64233cb096a93c24a3ea47001808c83',
     '', 0),
    ('chambers --n 2 --m 3 --depth 4', '10',
     EMPTY,
     ('{"error": {"code": 2, "message": "46 words at depth 4 exceed'
      ' the budget 10"}}\n'), 2),
    ('chambers --n 2 --m 3 --depth 5', 'abc',
     EMPTY,
     ('{"error": {"code": 2, "message": "COXMOV_WORD_BUDGET must be an'
      ' integer: \'abc\'"}}\n'), 2),
    ('boundary --n 2 --m 3 --depth 3', '0',
     EMPTY,
     '{"error": {"code": 2, "message": "COXMOV_WORD_BUDGET must be positive"}}\n',
     2),
    ('symmetric --layer movable --depth 2', '-3',
     EMPTY,
     '{"error": {"code": 2, "message": "COXMOV_WORD_BUDGET must be positive"}}\n',
     2),
]


@pytest.mark.parametrize("argv,budget,digest,err,code", GOLDEN,
                         ids=[row[0] for row in GOLDEN])
def test_cli_golden_digests(capsys, monkeypatch, argv, budget, digest, err,
                            code):
    if budget is not None:
        monkeypatch.setenv("COXMOV_WORD_BUDGET", budget)
    try:
        got_code, out, got_err = run_cli(capsys, *argv.split())
    except SystemExit as exc:   # argparse refused the command line
        got_code, (out, got_err) = exc.code, capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), got_err, got_code) == \
        (digest, err, code)
