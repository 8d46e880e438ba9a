"""The contract every record class keeps: a fixed repr, equality and hashing by
its fields and class, copies equal to the original, no assignment after
construction, and the constructors' refusals."""
from __future__ import annotations

import copy
import math
import pickle

import pytest

from pseudoeuclid._value import _rebuild
from pseudoeuclid.angle import ExtendedAngle, KleinIndex
from pseudoeuclid.errors import DegenerateTriangle, InvalidInput, NullDirection
from pseudoeuclid.euclid import euclid_angle
from pseudoeuclid.geometry import Motion, PELine, PointP
from pseudoeuclid.hyperbola import EquilateralHyperbola
from pseudoeuclid.hypnum import HyperbolicNumber
from pseudoeuclid.triangle import Triangle

P = PointP


def _values():
    tri = Triangle(P(0, 0), P(5, 0), P(5, 3))
    hyp = EquilateralHyperbola(P(2.5, 1.5), 4.0)
    return [
        (HyperbolicNumber(2.5, 1.5), "HyperbolicNumber(x=2.5, y=1.5)"),
        (ExtendedAngle(0.5), "ExtendedAngle(theta=0.5, k=<KleinIndex.P1: '+1'>)"),
        (ExtendedAngle(-1.25, KleinIndex.MH), "ExtendedAngle(theta=-1.25, k=<KleinIndex.MH: '-h'>)"),
        (PELine(P(1.0, 2.0), HyperbolicNumber(3.0, 1.0)),
         "PELine(anchor=HyperbolicNumber(x=1.0, y=2.0), "
         "direction=HyperbolicNumber(x=1.0606601717798212, y=0.35355339059327373))"),
        (Motion(ExtendedAngle(1.1, KleinIndex.M1), HyperbolicNumber(3.0, -2.0)),
         "Motion(rotation=ExtendedAngle(theta=1.1, k=<KleinIndex.M1: '-1'>), "
         "offset=HyperbolicNumber(x=3.0, y=-2.0))"),
        (hyp.chord(P(4.5, 1.5), P(0.5, 1.5)),
         "Chord(a=HyperbolicNumber(x=4.5, y=1.5), b=HyperbolicNumber(x=0.5, y=1.5), "
         "chord_class=<ChordClass.INTERNAL: 'internal'>, D=16.0)"),
        (hyp, "EquilateralHyperbola(center=HyperbolicNumber(x=2.5, y=1.5), P=4.0)"),
        (euclid_angle(HyperbolicNumber(1.0, 0.0), HyperbolicNumber(0.0, 2.0)),
         "EuclideanAngleValues(cos=0.0, sin=1.0, radians=1.5707963267948966)"),
        (tri.elements(),
         "TriangleElements(D=(-9.0, 16.0, 25.0), d=(3.0, 4.0, 5.0), "
         "angles=(ExtendedAngle(theta=0.6931471805599453, k=<KleinIndex.P1: '+1'>), "
         "ExtendedAngle(theta=-0.0, k=<KleinIndex.H: '+h'>), "
         "ExtendedAngle(theta=-0.6931471805599453, k=<KleinIndex.H: '+h'>)), S=7.5)"),
        (tri, "Triangle(p1=HyperbolicNumber(x=0.0, y=0.0), p2=HyperbolicNumber(x=5.0, y=0.0), "
              "p3=HyperbolicNumber(x=5.0, y=3.0))"),
    ]


VALUES = _values()
# built again by the same calls: equal to VALUES, item by item, but not the same objects
TWINS = [v for v, _ in _values()]
IDS = [f"{type(v).__name__}-{i}" for i, (v, _) in enumerate(VALUES)]


def test_every_record_class_is_covered():
    assert {type(v).__name__ for v, _ in VALUES} == {
        "HyperbolicNumber", "ExtendedAngle", "PELine", "Motion", "Chord", "EquilateralHyperbola",
        "EuclideanAngleValues", "TriangleElements", "Triangle"}


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr_is_pinned(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, twin", [(v, t) for (v, _), t in zip(VALUES, TWINS)], ids=IDS)
def test_equality_and_hash_go_by_class_and_fields(value, twin):
    cls = type(value)
    assert twin is not value
    assert twin == value and value == twin and hash(twin) == hash(value)
    assert hash(value) == hash(value._values())
    # a subclass instance with the same fields, and the bare field tuple, differ
    other = _rebuild(type("Other", (cls,), {"__slots__": ()}), value._values())
    assert other._values() == value._values()
    assert value != other and other != value
    assert value != value._values()


@pytest.mark.parametrize("clone", [
    *(lambda v, p=p: pickle.loads(pickle.dumps(v, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy, copy.deepcopy,
], ids=[*(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)), "copy", "deepcopy"])
@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_copies_are_equal_to_the_original(value, text, clone):
    other = clone(value)
    assert type(other) is type(value)
    assert other == value and hash(other) == hash(value)
    assert repr(other) == text


def test_copied_line_keeps_its_direction_bits():
    line = PELine(P(1.0, 2.0), HyperbolicNumber(3.0, 1.0))
    # normalizing the unit direction again moves its last bit here, so a copy
    # made through the constructor would not be equal
    assert PELine(line.anchor, line.direction) != line
    for other in (pickle.loads(pickle.dumps(line)), copy.copy(line), copy.deepcopy(line)):
        assert other.direction == line.direction


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, text):
    name = value._fields[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    assert getattr(value, name) is before
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("make, exc, message", [
    (lambda: HyperbolicNumber(math.inf, 0), ValueError, "components must be finite, got (inf, 0.0)"),
    (lambda: ExtendedAngle(math.nan), ValueError, "theta must be finite, got nan"),
    (lambda: ExtendedAngle(1.0, "+1"), ValueError, "k must be a KleinIndex, got '+1'"),
    (lambda: EquilateralHyperbola(P(1, 1), 0), InvalidInput,
     "P = 0 degenerates to the pair of null lines"),
    (lambda: EquilateralHyperbola(P(1, 1), math.inf), InvalidInput, "P must be finite, got inf"),
    (lambda: PELine(P(0, 0), HyperbolicNumber(1, 1)), NullDirection,
     "(1.0, 1.0) is a null direction; a line needs a non-null one"),
    (lambda: Triangle(P(0, 0), P(1, 2), P(2, 4)), DegenerateTriangle, "vertices are collinear"),
], ids=["number-inf", "angle-nan", "angle-index", "hyperbola-zero", "hyperbola-inf", "line-null",
        "triangle-collinear"])
def test_constructors_refuse_with_their_types_and_messages(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc and str(info.value) == message

