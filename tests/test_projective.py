"""Point and line value types, the coordinate reader and the infinity gate."""
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from minconic import ConicMatrix, HomogeneousPoint, ProjectiveLine
from minconic.errors import NonFiniteInput, PointAtInfinity
from minconic.projective import normalize_point


def test_point_roundtrip_and_finiteness():
    p = HomogeneousPoint(3.0, -2.0)
    assert p.vec() == (3.0, -2.0, 1.0)
    assert p.is_finite()
    assert not HomogeneousPoint(1.0, 0.0, 0.0).is_finite()


def test_line_through_two_points():
    l = ProjectiveLine.through(HomogeneousPoint(0.0, 0.0), HomogeneousPoint(1.0, 1.0))
    # x = y up to scale
    assert l.a * 1.0 + l.b * 1.0 == pytest.approx(0.0)
    assert l.c == pytest.approx(0.0)
    # (2, 2, 1) lies on it: the dot product is exactly zero
    assert 2.0 * l.a + 2.0 * l.b + 1.0 * l.c == 0.0


def test_normalize_point():
    p = normalize_point((2.0, 4.0, 2.0))
    assert (p.x, p.y, p.w) == (1.0, 2.0, 1.0)
    with pytest.raises(PointAtInfinity):
        normalize_point((1.0, 1.0, 0.0))
    with pytest.raises(PointAtInfinity):
        normalize_point((1.0, 1.0, 1e-15))
    with pytest.raises(PointAtInfinity):
        normalize_point((0.0, 0.0, 0.0))


def test_zero_triple_is_not_finite_for_either_gate():
    # the zero triple represents no point: is_finite and normalize_point
    # read one gate and agree on it
    assert not HomogeneousPoint(0.0, 0.0, 0.0).is_finite()
    with pytest.raises(PointAtInfinity):
        normalize_point((0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "v", [(math.nan, 0.0, 1.0), (0.0, math.nan, 1.0), (1.0, 1.0, math.nan),
          (math.inf, 0.0, 1.0), (0.0, 0.0, math.inf), (-math.inf, 1.0, 1.0)]
)
def test_non_finite_triple_is_neither_finite_nor_normalized(v):
    # an inf or NaN coordinate is refused as solve refuses it, never turned
    # into a point with a NaN coordinate
    assert not HomogeneousPoint(*v).is_finite()
    with pytest.raises(NonFiniteInput):
        normalize_point(v)


def test_every_reader_takes_an_object_or_a_triple():
    # one coordinate reader: each function takes a HomogeneousPoint or
    # ProjectiveLine and a 3-sequence alike, as three Python floats
    p = normalize_point(HomogeneousPoint(2, 4, 2))
    assert (p.x, p.y, p.w) == (1.0, 2.0, 1.0)
    assert all(type(v) is float for v in p.vec())
    through = ProjectiveLine.through((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))
    assert through == ProjectiveLine.through(HomogeneousPoint(0.0, 0.0), HomogeneousPoint(1.0, 1.0))
    circle = ConicMatrix(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
    assert circle.point_value([2, 0, 1]) == circle.point_value(HomogeneousPoint(2.0, 0.0)) == 3.0


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e308, 5e-324])
def test_finite_point_at_an_extreme_homogeneous_scale(scale):
    # (s, 0, s) is the point (1, 0) for every s: the infinity gate takes the
    # norm of the triple scaled by a power of two, which neither overflows
    # nor underflows
    assert HomogeneousPoint(scale, 0.0, scale).is_finite()
    assert normalize_point((scale, 0.0, scale)) == HomogeneousPoint(1.0, 0.0, 1.0)
    assert not HomogeneousPoint(scale, 0.0, 0.0).is_finite()


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
    assert normalize_point(rows[2]) == normalize_point(twins[2])
