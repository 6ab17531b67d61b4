"""Point and line value types, the coordinate reader and the infinity gate."""
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from minconic import ConicMatrix, HomogeneousPoint, ProjectiveLine
from minconic.errors import MalformedCoordinates, NonFiniteInput
from minconic.projective import _finite, _vec


def test_point_roundtrip_and_finiteness():
    p = HomogeneousPoint(3.0, -2.0)
    assert p.vec() == (3.0, -2.0, 1.0)
    assert _finite(p.vec())
    assert not _finite(HomogeneousPoint(1.0, 0.0, 0.0).vec())


def test_line_through_two_points():
    l = ProjectiveLine.through(HomogeneousPoint(0.0, 0.0), HomogeneousPoint(1.0, 1.0))
    # x = y up to scale
    assert l.a * 1.0 + l.b * 1.0 == pytest.approx(0.0)
    assert l.c == pytest.approx(0.0)
    # (2, 2, 1) lies on it: the dot product is exactly zero
    assert 2.0 * l.a + 2.0 * l.b + 1.0 * l.c == 0.0


def test_zero_and_far_triples_are_not_finite():
    # the zero triple represents no point, and |w| below INFINITY times the
    # norm has no finite representative
    assert not _finite((0.0, 0.0, 0.0))
    assert not _finite((1.0, 1.0, 0.0))
    assert not _finite((1.0, 1.0, 1e-15))
    assert _finite((2.0, 4.0, 2.0))


@pytest.mark.parametrize(
    "v", [(math.nan, 0.0, 1.0), (0.0, math.nan, 1.0), (1.0, 1.0, math.nan),
          (math.inf, 0.0, 1.0), (0.0, 0.0, math.inf), (-math.inf, 1.0, 1.0)]
)
def test_non_finite_triple_is_not_finite(v):
    # an inf or NaN coordinate gives no finite representative
    assert not _finite(v)


def test_every_reader_takes_an_object_or_a_triple():
    # one coordinate reader: each function takes a HomogeneousPoint or
    # ProjectiveLine and a 3-sequence alike, as three Python floats
    v = _vec(HomogeneousPoint(2, 4, 2))
    assert v == _vec([2, 4, 2]) == (2.0, 4.0, 2.0)
    assert all(type(x) is float for x in v)
    through = ProjectiveLine.through((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))
    assert through == ProjectiveLine.through(HomogeneousPoint(0.0, 0.0), HomogeneousPoint(1.0, 1.0))
    circle = ConicMatrix(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
    assert circle.point_value([2, 0, 1]) == circle.point_value(HomogeneousPoint(2.0, 0.0)) == 3.0


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 5e-324])
def test_finite_point_at_an_extreme_homogeneous_scale(scale):
    # (s, 0, s) is the point (1, 0) for every s: the infinity gate takes the
    # norm of the triple scaled by a power of two, which neither overflows
    # nor underflows
    assert _finite((scale, 0.0, scale))
    assert not _finite((scale, 0.0, 0.0))


#: coordinates written as decimal strings, read by each number type
ROWS = (("0.1", "-2.5", "3"), ("7.25", "-0.3", "1"), ("2", "0.001", "-4.5"))


@pytest.mark.parametrize("number", [Fraction, Decimal], ids=["Fraction", "Decimal"])
def test_line_through_reads_any_number_type_as_its_float_twin(number):
    # the join reads its points through the one coordinate reader, so a
    # Fraction or Decimal triple computes as its float twin, alone or
    # beside a float triple
    rows = [tuple(map(number, r)) for r in ROWS]
    twins = [tuple(map(float, r)) for r in ROWS]
    want = ProjectiveLine.through(twins[0], twins[1])
    for a, b in ((rows[0], rows[1]), (rows[0], twins[1]), (twins[0], rows[1])):
        out = ProjectiveLine.through(a, b)
        assert out == want
        assert all(type(v) is float for v in out.vec())
    assert _vec(rows[2]) == twins[2]


def ref_vec(p):
    """_vec as every value was read through vec(): the reader the package's
    own types now bypass."""
    v = p.vec() if hasattr(p, "vec") else p
    try:
        x, y, w = v
    except (TypeError, ValueError):
        raise MalformedCoordinates(f"not three real coordinates: {p!r}") from None
    if type(x) is float and type(y) is float and type(w) is float:
        return (x, y, w)
    if any(isinstance(u, (str, bytes, bytearray)) for u in (v, x, y, w)):
        raise MalformedCoordinates(f"not three real coordinates: {p!r}")
    try:
        return (float(x), float(y), float(w))
    except (OverflowError, ValueError) as exc:
        raise NonFiniteInput(f"a coordinate no float can hold: {exc}") from None
    except TypeError:
        raise MalformedCoordinates(f"not three real coordinates: {p!r}") from None


def read(fn, p):
    try:
        out = fn(p)
    except Exception as exc:  # the error is the outcome compared
        return type(exc).__name__, str(exc)
    return repr(out), [type(x).__name__ for x in out]


#: coordinates of every kind the reader meets in a value type's fields
FIELDS = [
    (1.5, -2.0, 0.25),
    (-0.0, 0.0, float("inf")),
    (float("nan"), 1.0, 1.0),
    (2, 4, 2),
    (Fraction(1, 3), Fraction(-7, 2), 1),
    (True, False, True),
    (10**400, 1, 1),
    (Fraction(10**400, 3), 1.0, 1.0),
    ("1", 2.0, 3.0),
    (b"1", 2.0, 3.0),
    (1.0, None, 3.0),
    (Decimal("0.1"), Decimal("sNaN"), 1),
    ([1.0], 2.0, 3.0),
]


@pytest.mark.parametrize("fields", FIELDS, ids=repr)
@pytest.mark.parametrize("cls", [HomogeneousPoint, ProjectiveLine])
def test_value_types_read_off_their_fields_as_through_vec(cls, fields):
    # the package's own point and line are read off their fields without a
    # vec() call: the same triple, of the same types, or the same error with
    # the same message, whatever the fields hold
    p = cls(*fields)
    assert read(_vec, p) == read(ref_vec, p)


def test_a_subclass_is_read_through_its_vec():
    class Doubled(HomogeneousPoint):
        def vec(self):
            return (2.0 * self.x, 2.0 * self.y, 2.0 * self.w)

    class Named(ProjectiveLine):
        def vec(self):
            return "abc"

    assert _vec(Doubled(1.0, 2.0)) == (2.0, 4.0, 2.0)
    with pytest.raises(MalformedCoordinates, match="not three real coordinates"):
        _vec(Named(1.0, 2.0, 3.0))
