"""Point/line primitives and their sign predicates."""
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from minconic import HomogeneousPoint, Orientation, ProjectiveLine
from minconic.errors import NonFiniteInput, PointAtInfinity
from minconic.projective import (
    cross,
    det3,
    normalize_point,
    orientation,
    side_sign,
)


def test_point_roundtrip_and_finiteness():
    p = HomogeneousPoint.from_xy(3.0, -2.0)
    assert p.vec() == (3.0, -2.0, 1.0)
    assert p.is_finite()
    assert not HomogeneousPoint(1.0, 0.0, 0.0).is_finite()


def test_line_through_two_points():
    l = ProjectiveLine.through(HomogeneousPoint(0.0, 0.0), HomogeneousPoint(1.0, 1.0))
    # x = y up to scale
    assert l.a * 1.0 + l.b * 1.0 == pytest.approx(0.0)
    assert l.c == pytest.approx(0.0)
    assert side_sign(HomogeneousPoint(2.0, 2.0), l) == 0


def test_cross_is_meet_and_join():
    # join of (1, 0) and (0, 1) is x + y = 1; meet of that with y = 0 is (1, 0)
    j = cross((1.0, 0.0, 1.0), (0.0, 1.0, 1.0))
    assert j[0] * 1.0 + j[1] * 0.0 + j[2] == pytest.approx(0.0)
    m = cross(j, (0.0, 1.0, 0.0))
    assert m[0] / m[2] == pytest.approx(1.0)
    assert m[1] / m[2] == pytest.approx(0.0)


def test_det3_row_convention():
    assert det3(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))) == 1.0
    assert det3(((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))) == -1.0


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


def test_orientation_signs():
    a = HomogeneousPoint(0.0, 0.0)
    b = HomogeneousPoint(1.0, 0.0)
    c = HomogeneousPoint(0.0, 1.0)
    assert orientation(a, b, c) is Orientation.ANTICLOCKWISE
    assert orientation(a, c, b) is Orientation.CLOCKWISE
    assert orientation(a, b, HomogeneousPoint(2.0, 0.0)) is Orientation.COLLINEAR


def test_orientation_tolerance_scales_with_coordinates():
    # the same near-collinear shape must classify identically at any scale
    for scale in (1.0, 1e6, 1e-6):
        a = HomogeneousPoint(0.0, 0.0)
        b = HomogeneousPoint(scale, 0.0)
        c = HomogeneousPoint(2.0 * scale, scale * 1e-14)
        assert orientation(a, b, c) is Orientation.COLLINEAR


def test_side_sign():
    l = ProjectiveLine(1.0, 0.0, -1.0)  # x = 1
    assert side_sign(HomogeneousPoint(2.0, 5.0), l) == 1
    assert side_sign(HomogeneousPoint(0.0, -3.0), l) == -1
    assert side_sign(HomogeneousPoint(1.0, 7.0), l) == 0


def test_side_sign_relative_tolerance():
    l = ProjectiveLine(1.0, 0.0, -1e8)
    assert side_sign(HomogeneousPoint(1e8 * (1.0 + 1e-14), 0.0), l) == 0
    assert side_sign(HomogeneousPoint(1e8 * 1.1, 0.0), l) == 1


def test_every_reader_takes_an_object_or_a_triple():
    # one coordinate reader: each function takes a HomogeneousPoint or
    # ProjectiveLine and a 3-sequence alike, as three Python floats
    p = normalize_point(HomogeneousPoint(2, 4, 2))
    assert (p.x, p.y, p.w) == (1.0, 2.0, 1.0)
    assert all(type(v) is float for v in p.vec())
    through = ProjectiveLine.through((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))
    assert through == ProjectiveLine.through(HomogeneousPoint(0.0, 0.0), HomogeneousPoint(1.0, 1.0))
    assert orientation((0.0, 0.0, 1.0), (1.0, 0.0, 1.0), [0, 1, 1]) is Orientation.ANTICLOCKWISE
    assert side_sign((2.0, 5.0, 1.0), (1.0, 0.0, -1.0)) == 1
    assert side_sign((1.0, 7.0, 1.0), ProjectiveLine(1.0, 0.0, -1.0)) == 0


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
def test_cross_and_det3_read_any_number_type_as_their_float_twins(number):
    # both read their triples through the one coordinate reader, so a
    # Fraction or Decimal triple computes as its float twin, alone or
    # beside a float triple
    rows = [tuple(map(number, r)) for r in ROWS]
    twins = [tuple(map(float, r)) for r in ROWS]
    for a, b in ((rows[0], rows[1]), (rows[0], twins[1]), (twins[0], rows[1])):
        out = cross(a, b)
        assert out == cross(twins[0], twins[1])
        assert all(type(v) is float for v in out)
    for m in (rows, [rows[0], twins[1], rows[2]]):
        d = det3(m)
        assert d == det3(twins) and type(d) is float
