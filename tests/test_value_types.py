"""The contract of the eleven immutable result records and of ``PsiWord``.

Each record is built by keyword from its fields in declaration order; the
checks hold for any implementation of the records as frozen value types.
"""

from fractions import Fraction

import pytest

from coxmov import (BoundaryPatch, Chamber, ClassificationResult, EigenPair,
                    FreeReport, GroupElementNF, Permutation, PsiWord, QuadExt)
from coxmov.symmetric import PsefPatch, SymChamber, SymWord, TangentLine


def _records():
    """(class, fields) pairs: each record's field names and values, in
    declaration order."""
    perm = Permutation((2, 1, 3))
    sym = SymWord((("a", 1), ("b", -2)))
    return [
        (Permutation, {"images": (2, 1, 3)}),
        (GroupElementNF, {"letters": (1, 3), "perm": perm}),
        (FreeReport, {"words_checked": 936, "collisions": 0}),
        (EigenPair, {"value": QuadExt(Fraction(7, 2), Fraction(3, 2), 5),
                     "vector": (QuadExt(1), QuadExt(0, 1, 5))}),
        (Chamber, {"rays": ((1, 0, 0), (0, 1, 0), (2, 2, -1)),
                   "word": (3,)}),
        (ClassificationResult, {"t_word": (1,),
                                "psi_word": PsiWord(((1, 2, 1),)),
                                "model_index": 1, "perm": perm,
                                "nef_coords": (Fraction(1), Fraction(4, 3),
                                               Fraction(5))}),
        (BoundaryPatch, {"pair": (1, 2), "word": (),
                         "apex": (QuadExt(0), QuadExt(1, -1, 5)),
                         "base_rays": ((0, 0, 1),)}),
        (TangentLine, {"coefficients": (1, 2, -3)}),
        (SymWord, {"syllables": (("a", 1), ("b", -2))}),
        (SymChamber, {"word": sym, "rays": ((0, 0, 1), (-1, 2, 2))}),
        (PsefPatch, {"word": sym, "label": "segment-d1-d2",
                     "rays": ((-2, 2, 6), (2, -2, 6)), "status": "proven"}),
    ]


def _copy(value):
    # an equal value that is not the same object
    if type(value) is tuple:
        return tuple(_copy(x) for x in value)
    if isinstance(value, Fraction):
        return Fraction(value.numerator, value.denominator)
    return value


RECORDS = _records()


@pytest.mark.parametrize("cls,fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_value_type_contract(cls, fields):
    rec = cls(**fields)
    assert type(rec) is cls
    assert [getattr(rec, name) for name in fields] == list(fields.values())
    assert rec == cls(*fields.values())
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(rec) == f"{cls.__name__}({body})"
    twin = cls(**{name: _copy(value) for name, value in fields.items()})
    assert twin == rec and hash(twin) == hash(rec)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert [getattr(rec, name) for name in fields] == list(fields.values())


def test_permutation_checks_unless_built_by_of():
    with pytest.raises(ValueError) as info:
        Permutation((1, 1))
    assert str(info.value) == "not a permutation of 1..2: (1, 1)"
    with pytest.raises(ValueError, match="not a permutation of 1..3"):
        Permutation(images=(0, 1, 2))
    unchecked = Permutation._of((1, 1))
    assert type(unchecked) is Permutation and unchecked.images == (1, 1)
    assert Permutation._of((2, 1)) == Permutation((2, 1))


def test_records_are_named_tuples():
    # the tuple protocol: length, indexing, unpacking and comparison with a
    # plain tuple of the fields
    for cls, fields in RECORDS:
        rec = cls(**fields)
        values = tuple(fields.values())
        assert isinstance(rec, tuple) and len(rec) == len(fields)
        assert tuple(rec) == values == rec and rec[0] == values[0]
        assert cls._fields == tuple(fields)


def test_psi_word_is_an_immutable_named_tuple():
    # a hashable word that could be changed would leave a set or dict that
    # holds it unable to find it
    w = PsiWord(letters=[(2, 1, 1), (1, 3, 2)])
    held = {w}
    for setter in (lambda: setattr(w, "letters", ((1, 3, 1),)),
                   lambda: delattr(w, "letters")):
        with pytest.raises(AttributeError):
            setter()
    assert w in held and w.letters == ((1, 2, -1), (1, 3, 2))
    assert type(w) is PsiWord and PsiWord._fields == ("letters",)
    assert w == (w.letters,) and hash(w) == hash(PsiWord(w.letters))
    assert PsiWord() == PsiWord(()) and repr(PsiWord()) == "PsiWord()"
    assert w * w.inverse() == PsiWord()
    res = ClassificationResult(**dict(RECORDS)[ClassificationResult])
    with pytest.raises(AttributeError):
        res.psi_word.letters = ()
