import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from coxmov import jsonio
from coxmov.atlas import boundary_patches, classify, enumerate_chambers
from coxmov.bir import PsiWord
from coxmov.cli import main
from coxmov.coxeter import build_system
from coxmov.exact import QuadExt


SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "schema"
                     / "coxmov.schema.json").read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert json.loads(err)["error"]["code"] == 2


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
    assert "m = 3" in json.loads(err)["error"]["message"]


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
    payload = json.loads(err)["error"]
    assert payload["code"] == 3
    assert payload["steps"] == 80
    assert len(payload["last_iterate"]) == 3

    code, _, err = run_cli(capsys, "classify", "--n", "2", "--m", "3",
                           "--class", "1,zebra,1")
    assert code == 2
    code, _, err = run_cli(capsys, "classify", "--n", "2", "--m", "3",
                           "--class", "1,1")
    assert code == 2


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
    assert "n >= 2" in json.loads(err)["error"]["message"]

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
    assert "<polygon" in out

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


def test_cli_viewport_and_palette(capsys):
    code, out, _ = run_cli(capsys, "chambers", "--n", "2", "--m", "3",
                           "--depth", "2", "--format", "svg",
                           "--viewport", "0,0,450,400")
    assert code == 0
    assert 'viewBox="0 0 450 400"' in out
    code, _, err = run_cli(capsys, "chambers", "--n", "2", "--m", "3",
                           "--format", "svg", "--palette", "nope")
    assert code == 2
    for bad in ("1,2,3", "a,b,c,d", "0,0,0,0", "0,0,nan,5", "0,0,-1,5",
                "0,inf,450,400", "0,0,450,400,1"):
        code, out, err = run_cli(capsys, "chambers", "--n", "2", "--m", "3",
                                 "--format", "svg", "--viewport", bad)
        assert code == 2, bad
        assert out == ""
        assert "viewport" in json.loads(err)["error"]["message"]


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("COXMOV_WORD_BUDGET", "10")
    code, _, err = run_cli(capsys, "chambers", "--n", "2", "--m", "3",
                           "--depth", "4")
    assert code == 2
    assert "budget" in json.loads(err)["error"]["message"]
    for layer in ("movable", "psef"):
        code, _, err = run_cli(capsys, "symmetric", "--layer", layer,
                               "--depth", "3")
        assert code == 2
        assert "budget" in json.loads(err)["error"]["message"]
