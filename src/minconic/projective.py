"""Homogeneous points and lines, and the one reader of caller coordinates.

Points and lines live in homogeneous coordinates. `_vec` turns a point, a
line or any 3-sequence into three Python floats, and `_finite` decides
whether a point has a finite representative. The sign tests on these
triples (collinearity, incidence) are made once, in the family analyses
that `solve` and `predict` share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels as _k
from ._frozen import fast_init
from .errors import MalformedCoordinates, NonFiniteInput
from .tolerances import INFINITY

Vec3 = tuple[float, float, float]

#: sequences of characters or bytes, never read as coordinates
_TEXT = (str, bytes, bytearray)


@fast_init
@dataclass(frozen=True)
class HomogeneousPoint:
    """Point (x, y, w) of the real projective plane; w = 1 by default."""

    x: float
    y: float
    w: float = 1.0

    def vec(self) -> Vec3:
        return (self.x, self.y, self.w)


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
    coordinates, text included; NonFiniteInput for a coordinate no float can
    hold (an int or Fraction beyond the float range, a signaling NaN)."""
    v = p.vec() if hasattr(p, "vec") else p
    try:
        x, y, w = v
    except (TypeError, ValueError):
        raise MalformedCoordinates(f"not three real coordinates: {p!r}") from None
    if type(x) is float and type(y) is float and type(w) is float:
        return (x, y, w)  # the common case: three floats already
    if isinstance(v, _TEXT) or isinstance(x, _TEXT) or isinstance(y, _TEXT) or isinstance(w, _TEXT):
        raise MalformedCoordinates(f"not three real coordinates: {p!r}")
    try:
        return (float(x), float(y), float(w))
    except (OverflowError, ValueError) as exc:
        raise NonFiniteInput(f"a coordinate no float can hold: {exc}") from None
    except TypeError:
        raise MalformedCoordinates(f"not three real coordinates: {p!r}") from None


def _named_vec(item, kind: str, idx: int) -> Vec3:
    """_vec(item) for the element `kind idx` of a configuration, with every
    refusal naming it: an inf or NaN coordinate raises NonFiniteInput too."""
    try:
        v = _vec(item)
    except NonFiniteInput as exc:  # too large, or a signaling NaN
        raise NonFiniteInput(f"{kind} {idx} has {exc}") from None
    except MalformedCoordinates as exc:  # not a 3-sequence of reals
        raise MalformedCoordinates(f"{kind} {idx} is {exc}") from None
    if not (math.isfinite(v[0]) and math.isfinite(v[1]) and math.isfinite(v[2])):
        raise NonFiniteInput(f"{kind} {idx} has a non-finite coordinate: {v!r}")
    return v


def _finite(v: Vec3) -> bool:
    """Whether a homogeneous triple has a finite representative: |w| at
    least INFINITY times its norm. False for the zero triple and for an inf
    or NaN coordinate. The triple is first divided by the power of two of its
    largest |coordinate|, exactly, so the norm neither overflows nor underflows."""
    e = -math.frexp(max(abs(v[0]), abs(v[1]), abs(v[2])))[1]  # 0 for 0, inf and NaN
    u = (math.ldexp(v[0], e), math.ldexp(v[1], e), math.ldexp(v[2], e))
    n = _k.norm3(u)
    return 0.0 < n < math.inf and abs(u[2]) >= INFINITY * n
