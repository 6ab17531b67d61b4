"""Projective-plane primitives: points, lines, and sign predicates.

Points and lines live in homogeneous coordinates. A finite point is
normalized to w = 1 so that orientation and side-of-line predicates have
well-defined signs; every predicate here compares against a relative
tolerance so that later stages can dispatch on exact special cases.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from . import _kernels as _k
from .errors import PointAtInfinity
from .tolerances import DEFAULT, Tolerances

Vec3 = tuple[float, float, float]


class Orientation(enum.Enum):
    ANTICLOCKWISE = "anticlockwise"
    CLOCKWISE = "clockwise"
    COLLINEAR = "collinear"


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

    def is_finite(self, tol: Tolerances = DEFAULT) -> bool:
        return abs(self.w) >= tol.infinity * _k.norm3(self.vec())


@dataclass(frozen=True)
class ProjectiveLine:
    """Line a x + b y + c w = 0 given by its coefficient triple."""

    a: float
    b: float
    c: float

    @classmethod
    def through(cls, p: HomogeneousPoint, q: HomogeneousPoint) -> "ProjectiveLine":
        return cls(*_k.cross(p.vec(), q.vec()))

    def vec(self) -> Vec3:
        return (self.a, self.b, self.c)


def _vec(p) -> Vec3:
    """Coordinate triple of a point, a line or any 3-sequence, as floats."""
    return p.vec() if hasattr(p, "vec") else (float(p[0]), float(p[1]), float(p[2]))


def _collinear(u: Vec3, v: Vec3, w: Vec3, tol: Tolerances) -> bool:
    """Whether three homogeneous triples are dependent (collinear points or
    concurrent lines)."""
    return _dependent(_k.det3(u, v, w), _k.norm3(u) * _k.norm3(v) * _k.norm3(w), tol)


def _dependent(det: float, norms: float, tol: Tolerances) -> bool:
    """Whether a triple's determinant is zero within the collinearity
    tolerance times norms, the product of the three norms."""
    return abs(det) <= tol.collinearity * norms


def _incident(x: Vec3, l: Vec3, tol: Tolerances) -> bool:
    """Whether a point triple lies on a line triple: |x . l| within the
    incidence tolerance times the product of the two norms."""
    return _incident_dot(_k.dot3(x, l), _k.norm3(x), _k.norm3(l), tol)


def _incident_dot(dot: float, nx: float, nl: float, tol: Tolerances) -> bool:
    """_incident from the dot product x . l and the norms |x| and |l|, for
    callers that hold them already."""
    return abs(dot) <= tol.incidence * nx * nl


def cross(a: Sequence[float], b: Sequence[float]) -> Vec3:
    """Cross product of two homogeneous triples.

    Join of two points or meet of two lines, depending on what the inputs
    represent.
    """
    return _k.cross((a[0], a[1], a[2]), (b[0], b[1], b[2]))


def det3(m: Sequence[Sequence[float]]) -> float:
    """Determinant of a 3x3 matrix given as three rows."""
    c0 = (m[0][0], m[1][0], m[2][0])
    c1 = (m[0][1], m[1][1], m[2][1])
    c2 = (m[0][2], m[1][2], m[2][2])
    return _k.det3(c0, c1, c2)


def normalize_point(v: Sequence[float], tol: Tolerances = DEFAULT) -> HomogeneousPoint:
    """Scale a homogeneous triple to w = 1.

    Raises PointAtInfinity when |w| falls below the infinity tolerance times
    the norm of the triple, in which case no finite representative exists.
    """
    vec = (float(v[0]), float(v[1]), float(v[2]))
    n = _k.norm3(vec)
    if n == 0.0 or abs(vec[2]) < tol.infinity * n:
        raise PointAtInfinity(f"homogeneous point {vec} has no finite representative")
    return HomogeneousPoint(vec[0] / vec[2], vec[1] / vec[2], 1.0)


def orientation(
    p1: HomogeneousPoint,
    p2: HomogeneousPoint,
    p3: HomogeneousPoint,
    tol: Tolerances = DEFAULT,
) -> Orientation:
    """Turn direction of the ordered triple of normalized finite points.

    The sign of det([p1 p2 p3]) with the points as columns: positive means
    anticlockwise. Determinants smaller than the collinearity tolerance times
    the product of the three norms report COLLINEAR.
    """
    u, v, w = p1.vec(), p2.vec(), p3.vec()
    if _collinear(u, v, w, tol):
        return Orientation.COLLINEAR
    return Orientation.ANTICLOCKWISE if _k.det3(u, v, w) > 0.0 else Orientation.CLOCKWISE


def side_sign(p: HomogeneousPoint, l: ProjectiveLine, tol: Tolerances = DEFAULT) -> int:
    """Which side of l the normalized finite point p lies on: -1, 0, or +1.

    Zero means incident within the relative incidence tolerance.
    """
    u, lv = p.vec(), l.vec()
    if _incident(u, lv, tol):
        return 0
    return 1 if _k.dot3(u, lv) > 0.0 else -1
