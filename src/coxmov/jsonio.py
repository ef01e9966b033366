"""Deterministic JSON serialization for every exported data type.

Rationals are emitted as reduced integer-or-"p/q" strings (never floats),
quadratic scalars as {"a", "b", "d"} objects, words as integer arrays.
Every integer is written in full at any length (``int_str``).
The schema is versioned and documented in ``schema/coxmov.schema.json``.
``dumps`` writes the ``json.dumps(indent=2, ensure_ascii=True)`` layout
from module-level functions appending to one list, so a call leaves no
cyclic garbage for the collector; a value of any other type than str,
int, bool, None, str-keyed dict, list or tuple raises ``TypeError``.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .atlas import (BoundaryPatch, Chamber, ClassificationResult,
                    fundamental_domain)
from .bir import PsiWord
from .coxeter import CoxeterSystem, Permutation
from .exact import QuadExt
from .linalg import Matrix

if TYPE_CHECKING:
    from .symmetric import PsefPatch, SymChamber, SymWord

SCHEMA_VERSION = "1"


# -- scalars ---------------------------------------------------------------

def int_str(n: int) -> str:
    """``str(n)`` at any length: from Python 3.11 ``str`` refuses an int
    past ``sys.get_int_max_str_digits()`` digits (4300 by default), while
    ``Decimal`` converts it without a limit."""
    try:
        return int.__repr__(n)
    except ValueError:
        return str(Decimal(n))


def frac_to_str(x) -> str:
    """``str(Fraction(x))`` at any length."""
    x = Fraction(x)
    text = int_str(x.numerator)
    return text if x.denominator == 1 else f"{text}/{int_str(x.denominator)}"


def str_to_frac(s: str) -> Fraction:
    return Fraction(s)


def quad_to_obj(x: QuadExt) -> dict:
    return {"a": frac_to_str(x.a), "b": frac_to_str(x.b), "d": x.d}


def obj_to_quad(obj: dict) -> QuadExt:
    return QuadExt(str_to_frac(obj["a"]), str_to_frac(obj["b"]), obj["d"])


# -- aggregates -------------------------------------------------------------

def matrix_to_obj(mat: Matrix) -> list:
    return [[frac_to_str(e) for e in row] for row in mat.rows]


def obj_to_matrix(obj) -> Matrix:
    return Matrix([[str_to_frac(e) for e in row] for row in obj])


def frac_vec_to_obj(vec) -> list:
    return [frac_to_str(x) for x in vec]


def quad_vec_to_obj(vec) -> list:
    return [quad_to_obj(x) for x in vec]


def psi_word_to_obj(word: PsiWord) -> list:
    return [[i, j, e] for (i, j, e) in word.letters]


def obj_to_psi_word(obj) -> PsiWord:
    return PsiWord(tuple((i, j, e) for i, j, e in obj))


def chamber_to_obj(ch: Chamber) -> dict:
    return {"word": list(ch.word), "rays": [list(r) for r in ch.rays]}


def obj_to_chamber(obj) -> Chamber:
    return Chamber(tuple(tuple(r) for r in obj["rays"]), tuple(obj["word"]))


def patch_to_obj(p: BoundaryPatch) -> dict:
    return {
        "pair": list(p.pair),
        "word": list(p.word),
        "apex": quad_vec_to_obj(p.apex),
        "base_rays": [list(r) for r in p.base_rays],
    }


def obj_to_patch(obj) -> BoundaryPatch:
    return BoundaryPatch(tuple(obj["pair"]), tuple(obj["word"]),
                         tuple(obj_to_quad(a) for a in obj["apex"]),
                         tuple(tuple(r) for r in obj["base_rays"]))


def classification_to_obj(res: ClassificationResult) -> dict:
    return {
        "t_word": list(res.t_word),
        "psi_word": psi_word_to_obj(res.psi_word),
        "model_index": res.model_index,
        "perm": list(res.perm.images),
        "nef_coords": frac_vec_to_obj(res.nef_coords),
    }


def obj_to_classification(obj) -> ClassificationResult:
    return ClassificationResult(tuple(obj["t_word"]),
                                obj_to_psi_word(obj["psi_word"]),
                                obj["model_index"],
                                Permutation(tuple(obj["perm"])),
                                tuple(str_to_frac(x) for x in obj["nef_coords"]))


def sym_word_to_obj(word: SymWord) -> list:
    return [[gen, k] for gen, k in word.syllables]


def sym_chamber_to_obj(ch: SymChamber) -> dict:
    return {"word": sym_word_to_obj(ch.word),
            "rays": [list(r) for r in ch.rays]}


def psef_patch_to_obj(p: PsefPatch) -> dict:
    return {"word": sym_word_to_obj(p.word), "label": p.label,
            "status": p.status, "rays": [list(r) for r in p.rays]}


# -- documents ---------------------------------------------------------------

def document(command: str, params: dict, body: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "params": params}
    doc.update(body)
    return doc


def system_document(sys: CoxeterSystem) -> dict:
    # chamber k of the fundamental domain is t_k . Nef, rays = columns of t_k
    body = {
        "gram": matrix_to_obj(sys.gram),
        "lorentzian": sys.lorentzian,
        "generators": [[[str(x) for x in row] for row in zip(*ch.rays)]
                       for ch in fundamental_domain(sys)[1:]],
        "quadric": matrix_to_obj(sys.quadric_matrix()),
    }
    return document("system", {"n": sys.n, "m": sys.m}, body)


def chambers_document(sys: CoxeterSystem, depth: int, chambers) -> dict:
    return document("chambers", {"n": sys.n, "m": sys.m, "depth": depth},
                    {"count": len(chambers),
                     "chambers": [chamber_to_obj(c) for c in chambers]})


def classify_document(sys: CoxeterSystem, coords, res: ClassificationResult) -> dict:
    return document("classify",
                    {"n": sys.n, "m": sys.m, "class": frac_vec_to_obj(coords)},
                    {"result": classification_to_obj(res)})


def boundary_document(sys: CoxeterSystem, depth: int, patches) -> dict:
    return document("boundary", {"n": sys.n, "m": sys.m, "depth": depth},
                    {"count": len(patches),
                     "patches": [patch_to_obj(p) for p in patches]})


def symmetric_document(depth: int, layer: str, items) -> dict:
    if layer == "movable":
        body = {"count": len(items),
                "cones": [sym_chamber_to_obj(c) for c in items]}
    else:
        body = {"count": len(items),
                "patches": [psef_patch_to_obj(p) for p in items]}
    return document("symmetric", {"depth": depth, "layer": layer}, body)


# -- writer ------------------------------------------------------------------

_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write_json(obj, out: list, level: int):
    """Append the pieces of ``obj`` at nesting ``level`` to ``out``."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        try:
            out.append(int.__repr__(obj))
        except ValueError:  # past the int-to-str digit limit
            out.append(str(Decimal(obj)))
    elif obj is None or kind is bool:
        out.append(_CONSTANTS[obj])
    elif kind is dict or kind is list or kind is tuple:
        if not obj:
            out.append("{}" if kind is dict else "[]")
            return
        pad = "\n" + "  " * (level + 1)
        close = "\n" + "  " * level + ("}" if kind is dict else "]")
        if kind is dict:
            sep = "{" + pad
            for key, value in obj.items():
                if type(key) is not str:
                    raise TypeError(
                        f"keys must be str, not {type(key).__name__}")
                out.append(sep + encode_basestring_ascii(key) + ": ")
                _write_json(value, out, level + 1)
                sep = "," + pad
            out.append(close)
            return
        kinds = set(map(type, obj))
        if kinds == {str} or kinds == {int}:
            scalar = encode_basestring_ascii if str in kinds else int.__repr__
            try:
                items = ("," + pad).join(map(scalar, obj))
            except ValueError:  # an int past the int-to-str digit limit
                items = ("," + pad).join(map(int_str, obj))
            out.append("[" + pad + items + close)
            return
        sep = "[" + pad
        for item in obj:
            out.append(sep)
            _write_json(item, out, level + 1)
            sep = "," + pad
        out.append(close)
    else:
        raise TypeError(
            f"Object of type {kind.__name__} is not JSON serializable")


def dumps(doc: dict) -> str:
    """The text of ``json.dumps(doc, indent=2, ensure_ascii=True)`` plus a
    newline, from a recursive writer that leaves no cyclic garbage.

    Accepted: ``str``, plain ``int``, ``bool``, ``None``, dicts with
    ``str`` keys, lists and tuples (written as arrays); anything else,
    floats included, raises ``TypeError``.  A list of only strings or only
    ints is joined in one piece.
    """
    out: list[str] = []
    _write_json(doc, out, 0)
    out.append("\n")
    return "".join(out)
