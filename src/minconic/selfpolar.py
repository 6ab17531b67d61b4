"""Diagonal triangles of complete quadrangles and the conic pencils they carry.

Four points in general position span a pencil of conics; the diagonal
triangle of the quadrangle is self-polar for every member, which reduces the
pencil to a diagonal form in the triangle's coordinate frame. That reduction
is what the minimal solvers exploit.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

from . import _kernels as _k
from .conics import ConicMatrix
from .errors import DegenerateCase, DegenerateParameter, GeneralPositionError, UnsupportedCount
from .projective import Vec3, _dependent, _vec
from .tolerances import DEFAULT, Tolerances


def require_no_collinear_triple(points: Sequence, tol: Tolerances = DEFAULT) -> list[float]:
    """Raise GeneralPositionError naming the first collinear triple found.

    Otherwise return the determinants of the triples i < j < k in
    lexicographic order, (0, 1, 2), (0, 1, 3), ...
    """
    vecs = [_vec(p) for p in points]
    norms = [_k.norm3(v) for v in vecs]
    dets = []
    for i, j, k in combinations(range(len(vecs)), 3):
        d = _k.det3(vecs[i], vecs[j], vecs[k])
        if _dependent(d, norms[i] * norms[j] * norms[k], tol):
            raise GeneralPositionError(f"points {i}, {j}, {k} are collinear", (i, j, k))
        dets.append(d)
    return dets


@dataclass(frozen=True)
class DiagonalTriangle:
    """Diagonal triangle of a complete quadrangle.

    Vertex i is the intersection of the two quadrangle sides that do not meet
    in a quadrangle point; vertices are kept at their natural construction
    scale (each is degree one in each source point), never renormalized.
    `deviation` is the relative disagreement between the two equivalent
    constructions of the vertices and serves as a numeric health check.
    """

    xi1: Vec3
    xi2: Vec3
    xi3: Vec3
    source: tuple[Vec3, Vec3, Vec3, Vec3]
    deviation: float

    def vertices(self) -> tuple[Vec3, Vec3, Vec3]:
        return (self.xi1, self.xi2, self.xi3)

    def det(self) -> float:
        return _k.det3(self.xi1, self.xi2, self.xi3)

    def adjugate_rows(self) -> tuple[Vec3, Vec3, Vec3]:
        """Rows of the adjugate of the vertex matrix: the triangle's sides."""
        return (
            _k.cross(self.xi2, self.xi3),
            _k.cross(self.xi3, self.xi1),
            _k.cross(self.xi1, self.xi2),
        )


def diagonal_triangle(
    p1, p2, p3, p4, tol: Tolerances = DEFAULT
) -> DiagonalTriangle:
    """Diagonal triangle of the quadrangle p1 p2 p3 p4.

    The four points must be in general position (no three collinear); the
    offending triple is named in the error otherwise.
    """
    pts = [_vec(p) for p in (p1, p2, p3, p4)]
    require_no_collinear_triple(pts, tol)
    xi1, xi2, xi3, dev = _k.diag_triangle(*pts)
    return DiagonalTriangle(xi1, xi2, xi3, tuple(pts), dev)


class TriangleCoords(NamedTuple):
    """Coordinates of a point in a diagonal-triangle basis.

    The scale is tied to the triangle's vertex scale; ratios and ties are the
    meaningful quantities.
    """

    beta1: float
    beta2: float
    beta3: float


def triangle_coords(tri: DiagonalTriangle, p, tol: Tolerances = DEFAULT) -> TriangleCoords:
    """Expand p in the vertex basis: p = beta1*xi1 + beta2*xi2 + beta3*xi3."""
    v = _vec(p)
    (sol, det) = _k.solve3(tri.xi1, tri.xi2, tri.xi3, v)
    scale = _k.norm3(tri.xi1) * _k.norm3(tri.xi2) * _k.norm3(tri.xi3)
    if abs(det) <= tol.collinearity * scale:
        raise GeneralPositionError("diagonal triangle is numerically flat", (0, 1, 2))
    return TriangleCoords(*sol)


def lies_on_quadrangle_side(tri: DiagonalTriangle, p, tol: Tolerances = DEFAULT) -> bool:
    """True when p sits on one of the six lines through pairs of quadrangle points.

    In triangle coordinates the quadrangle sides are the loci where two
    coordinates agree up to sign, so the test is a magnitude tie. A point on
    a side makes the five-point problem degenerate.
    """
    b = triangle_coords(tri, p, tol)
    mags = [abs(b.beta1), abs(b.beta2), abs(b.beta3)]
    top = max(mags)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(mags[i] - mags[j]) <= tol.coordinate_tie * top:
                return True
    return False


def self_polar_basis(tri: DiagonalTriangle) -> tuple[ConicMatrix, ConicMatrix, ConicMatrix]:
    """Rank-one generators of the conics self-polar with respect to the triangle.

    Every conic for which the triangle is self-polar is a combination of the
    three returned matrices (the outer products of the triangle's sides).
    """
    out = []
    for r in tri.adjugate_rows():
        out.append(
            ConicMatrix.from_sym6(
                (r[0] * r[0], r[0] * r[1], r[1] * r[1], r[0] * r[2], r[1] * r[2], r[2] * r[2])
            )
        )
    return (out[0], out[1], out[2])


def pencil_conic(tri: DiagonalTriangle, s: float, tol: Tolerances = DEFAULT) -> ConicMatrix:
    """Member of the conic pencil through the quadrangle at parameter s.

    Every member passes through all four source points and is self-polar with
    respect to the triangle. Parameters 0 and 1 give the degenerate line-pair
    members and are rejected.
    """
    if abs(s) <= tol.parameter or abs(s - 1.0) <= tol.parameter:
        raise DegenerateParameter(
            f"pencil parameter {s!r} gives a degenerate line-pair member"
        )
    return ConicMatrix.from_sym6(_k.conic_from_pencil(tri.xi1, tri.xi2, tri.xi3, s))


def conic_through_five_points(points: Sequence, tol: Tolerances = DEFAULT) -> ConicMatrix:
    """The unique conic through five points, no three collinear."""
    vecs = [_vec(p) for p in points]
    if len(vecs) != 5:
        raise UnsupportedCount("exactly five points required")
    require_no_collinear_triple(vecs, tol)
    m6 = _k.conic_from_five_points(*vecs)[0]
    if m6 is None:
        raise DegenerateCase("five-point fit: the diagonal triangle's determinant is exactly 0.0")
    return ConicMatrix.from_sym6(m6)
