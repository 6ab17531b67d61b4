"""Projective-plane primitives: points, lines, and sign predicates.

Points and lines live in homogeneous coordinates. A finite point is
normalized to w = 1 so that orientation and side-of-line predicates have
well-defined signs; every predicate here compares against a relative
tolerance so that later stages can dispatch on exact special cases.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from . import _kernels as _k
from ._frozen import fast_init
from .errors import MalformedCoordinates, NonFiniteInput, PointAtInfinity
from .tolerances import DEFAULT, INFINITY

Vec3 = tuple[float, float, float]


class Orientation(enum.Enum):
    ANTICLOCKWISE = "anticlockwise"
    CLOCKWISE = "clockwise"
    COLLINEAR = "collinear"


@fast_init
@dataclass(frozen=True)
class HomogeneousPoint:
    """Point (x, y, w) of the real projective plane.

    Finite points produced by :func:`normalize_point` carry w = 1. The class
    does not forbid other scales; predicates that need normalized input say
    so in their contracts.
    """

    x: float
    y: float
    w: float = 1.0

    @classmethod
    def from_xy(cls, x: float, y: float) -> "HomogeneousPoint":
        return cls(float(x), float(y), 1.0)

    def vec(self) -> Vec3:
        return (self.x, self.y, self.w)

    def is_finite(self) -> bool:
        return _finite(_vec(self))


@fast_init
@dataclass(frozen=True)
class ProjectiveLine:
    """Line a x + b y + c w = 0 given by its coefficient triple."""

    a: float
    b: float
    c: float

    @classmethod
    def through(cls, p, q) -> "ProjectiveLine":
        """The join of two points, each a HomogeneousPoint or a 3-sequence."""
        return cls(*_k.cross(_vec(p), _vec(q)))

    def vec(self) -> Vec3:
        return (self.a, self.b, self.c)


def _vec(p) -> Vec3:
    """Coordinate triple of a point, a line or any 3-sequence as Python floats,
    whatever real number type it holds: the one reader of caller input.
    MalformedCoordinates for anything that is not exactly three real
    coordinates; NonFiniteInput for a coordinate no float can hold (an int or
    Fraction beyond the float range, a signaling NaN)."""
    try:
        x, y, w = p.vec() if hasattr(p, "vec") else p
    except (TypeError, ValueError):
        raise MalformedCoordinates(f"not three real coordinates: {p!r}") from None
    try:
        return (float(x), float(y), float(w))
    except (OverflowError, ValueError) as exc:
        raise NonFiniteInput(f"a coordinate no float can hold: {exc}") from None
    except TypeError:
        raise MalformedCoordinates(f"not three real coordinates: {p!r}") from None


def _incident(x: Vec3, l: Vec3, geometry: float) -> bool:
    """Whether a point triple lies on a line triple: |x . l| within the
    geometric tolerance times the product of the two norms."""
    return abs(_k.dot3(x, l)) <= geometry * _k.norm3(x) * _k.norm3(l)


def cross(a: Sequence[float], b: Sequence[float]) -> Vec3:
    """Cross product of two homogeneous triples, each read through _vec.

    Join of two points or meet of two lines, depending on what the inputs
    represent.
    """
    return _k.cross(_vec(a), _vec(b))


def det3(m: Sequence[Sequence[float]]) -> float:
    """Determinant of a 3x3 matrix given as three rows, each read through _vec."""
    r0, r1, r2 = _vec(m[0]), _vec(m[1]), _vec(m[2])
    return _k.det3((r0[0], r1[0], r2[0]), (r0[1], r1[1], r2[1]), (r0[2], r1[2], r2[2]))


def _finite(v: Vec3) -> bool:
    """Whether a homogeneous triple has a finite representative: |w| at
    least INFINITY times its norm. False for the zero triple and for an inf
    or NaN coordinate. The triple is first divided by the power of two of its
    largest |coordinate|, exactly, so the norm neither overflows nor underflows."""
    e = -math.frexp(max(abs(v[0]), abs(v[1]), abs(v[2])))[1]  # 0 for 0, inf and NaN
    u = (math.ldexp(v[0], e), math.ldexp(v[1], e), math.ldexp(v[2], e))
    n = _k.norm3(u)
    return 0.0 < n < math.inf and abs(u[2]) >= INFINITY * n


def normalize_point(v) -> HomogeneousPoint:
    """Scale a point, a HomogeneousPoint or a 3-sequence, to w = 1.

    Raises NonFiniteInput for an inf or NaN coordinate, and PointAtInfinity
    when the triple is zero or |w| falls below INFINITY times its norm, in
    which case no finite representative exists.
    """
    vec = _vec(v)
    if not all(map(math.isfinite, vec)):
        raise NonFiniteInput(f"homogeneous point {vec} has a non-finite coordinate")
    if not _finite(vec):
        raise PointAtInfinity(f"homogeneous point {vec} has no finite representative")
    return HomogeneousPoint(vec[0] / vec[2], vec[1] / vec[2], 1.0)


def orientation(p1, p2, p3) -> Orientation:
    """Turn direction of the ordered triple of normalized finite points,
    each a HomogeneousPoint or a 3-sequence.

    The sign of det([p1 p2 p3]) with the points as columns: positive means
    anticlockwise. Determinants smaller than the geometric tolerance times
    the product of the three norms report COLLINEAR.
    """
    u, v, w = _vec(p1), _vec(p2), _vec(p3)
    det = _k.det3(u, v, w)
    if abs(det) <= DEFAULT.geometry * (_k.norm3(u) * _k.norm3(v) * _k.norm3(w)):
        return Orientation.COLLINEAR
    return Orientation.ANTICLOCKWISE if det > 0.0 else Orientation.CLOCKWISE


def side_sign(p, l) -> int:
    """Which side of l the normalized finite point p lies on: -1, 0, or +1.
    p and l are a HomogeneousPoint and a ProjectiveLine or 3-sequences.

    Zero means incident within the relative geometric tolerance.
    """
    u, lv = _vec(p), _vec(l)
    if _incident(u, lv, DEFAULT.geometry):
        return 0
    return 1 if _k.dot3(u, lv) > 0.0 else -1
