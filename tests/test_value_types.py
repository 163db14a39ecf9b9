"""Equality, hashing, repr and immutability of the package's value types.

Records are typing.NamedTuple: they compare and hash as the tuple of their
fields, so they also equal a plain tuple with the same fields, and they
iterate and unpack.  NeuralCode, Interval and Polygon are plain classes:
equal only to an instance of the same class with equal fields, hashed as
the tuple of their fields, and closed to assignment and deletion.
CodeStructure compares by identity.
"""

from fractions import Fraction

import pytest

from convexcodes import (
    AtlasRow,
    Certificate,
    Interval,
    NeuralCode,
    Polygon,
    Realization,
    Report,
    SprocketCandidate,
    Verdict,
)
from convexcodes.realize.geometry import VerifyDiff
from convexcodes.topology import ClassifiedNerve, CodeStructure

from conftest import fs

CANDIDATE_FIELDS = (fs("3"), fs("6"), fs("5"), fs("1"), fs("12"), fs("14"))
REPORT_FIELDS = (
    1, (frozenset(), fs("1")), (fs("1"),), None, None, (), None, (), (), None,
    Verdict.CONVEX, (Certificate("MaxIntersectionComplete"),), None,
)

# (type, field values, repr), one row per record type
RECORDS = [
    (
        Certificate,
        ("LocalObstruction", fs("1"), None, None, None, None),
        "Certificate(kind='LocalObstruction', face=frozenset({1}), candidate=None, "
        "class_id=None, components=None, faces=None)",
    ),
    (
        Report,
        REPORT_FIELDS,
        "Report(neurons=1, codewords=(frozenset(), frozenset({1})), facets=(frozenset({1}),), "
        "nerve_class=None, nerve_relabeling=None, mandatory_faces=(), minimal_code=None, "
        "missing_max_intersections=(), path_of_facets=(), sprocket=None, "
        "verdict=<Verdict.CONVEX: 'CONVEX'>, certificates=(Certificate(kind="
        "'MaxIntersectionComplete', face=None, candidate=None, class_id=None, "
        "components=None, faces=None),), realization=None)",
    ),
    (
        SprocketCandidate,
        CANDIDATE_FIELDS,
        "SprocketCandidate(sigma1=frozenset({3}), sigma2=frozenset({6}), "
        "sigma3=frozenset({5}), tau=frozenset({1}), rho1=frozenset({1, 2}), "
        "rho3=frozenset({1, 4}))",
    ),
    (
        ClassifiedNerve,
        ("L22", ((1, 2), (2, 1)), True),
        "ClassifiedNerve(class_id='L22', relabeling=((1, 2), (2, 1)), contractible=True)",
    ),
    (
        VerifyDiff,
        ((fs("12"),), (), ("neuron 1: empty interval",)),
        "VerifyDiff(missing=(frozenset({1, 2}),), extra=(), "
        "validation=('neuron 1: empty interval',))",
    ),
    (
        AtlasRow,
        ("12,23,2", 3, 2, "L2", True, "CONVEX", "TheoremNoLocalObstruction", ""),
        "AtlasRow(code='12,23,2', neurons=3, facet_count=2, nerve_class='L2', minimal=True, "
        "verdict='CONVEX', certificate='TheoremNoLocalObstruction', sprocket='')",
    ),
]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_semantics(cls, fields, text):
    a, b = cls(*fields), cls(*fields)
    assert a == b and a is not b
    assert hash(a) == hash(fields)
    assert repr(a) == text
    # a record is its field tuple: it equals one, iterates and unpacks
    assert a == fields
    assert tuple(a) == fields
    *_, last = a
    assert last == fields[-1]
    with pytest.raises(AttributeError):
        a.extra = 1


def test_realization_record():
    regions = {1: Interval(0, 1)}
    r = Realization(1, regions)
    assert r == Realization(dimension=1, regions={1: Interval(0, 1)})
    assert r == (1, regions)
    dimension, rows = r
    assert (dimension, rows) == (1, regions)
    assert repr(r) == (
        "Realization(dimension=1, regions={1: Interval(lo=Fraction(0, 1), hi=Fraction(1, 1))})"
    )
    # the regions dict makes it unhashable, as its field tuple is
    with pytest.raises(TypeError):
        hash(r)


# (instance, equal instance, field tuple, repr, a field name), one row per plain class
VALUES = [
    (
        NeuralCode([{1, 2}, {2}]),
        NeuralCode([{2}, {2, 1}, ()]),
        (frozenset({frozenset(), fs("2"), fs("12")}),),
        "NeuralCode(codewords=frozenset({frozenset(), frozenset({2}), frozenset({1, 2})}))",
        "codewords",
    ),
    (
        Interval(Fraction(1, 2), 2),
        Interval(Fraction(2, 4), Fraction(2)),
        (Fraction(1, 2), Fraction(2)),
        "Interval(lo=Fraction(1, 2), hi=Fraction(2, 1))",
        "lo",
    ),
    (
        Polygon([(0, 0), (1, 0), (0, 1)]),
        Polygon([(Fraction(0), 0), (Fraction(2, 2), 0), (0, 1)]),
        (((0, 0), (1, 0), (0, 1)),),
        "Polygon(vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(0, 1), Fraction(1, 1))))",
        "vertices",
    ),
]


@pytest.mark.parametrize(
    "value,equal,fields,text,name", VALUES, ids=[type(row[0]).__name__ for row in VALUES]
)
def test_plain_class_semantics(value, equal, fields, text, name):
    assert value == equal and value is not equal
    assert hash(value) == hash(equal) == hash(fields)
    # not even its own field tuple: equality is only within the class
    assert value.__eq__(fields) is NotImplemented
    assert value != fields and fields != value
    assert value != object()
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == equal


def test_code_structure_compares_by_identity():
    code = NeuralCode([{1, 2}, {2, 3}, {2}])
    s, t = CodeStructure(code), CodeStructure(code)
    assert s == s and s != t
    assert len({s, t}) == 2
    assert s.facets == t.facets == [fs("12"), fs("23")]
