"""Diagonal triangle, self-polar basis, and the quadrangle pencil."""
import itertools
import math

import pytest

import minconic._kernels
from minconic import (
    ConicClass,
    classify,
    conic_through_five_points,
    diagonal_triangle,
    lies_on_quadrangle_side,
    pencil_conic,
    point_residual,
    self_polar_basis,
    triangle_coords,
)
from minconic.errors import DegenerateParameter, GeneralPositionError
from minconic.selfpolar import require_no_collinear_triple


def test_square_diagonal_triangle_is_the_coordinate_triangle(square):
    tri = diagonal_triangle(*square)
    # the square's diagonals meet at the origin, its side pairs at the two
    # points at infinity, so the vertices are the coordinate triangle up to
    # scale and order
    verts = [tuple(v) for v in tri.vertices()]
    for v in verts:
        nz = [i for i, x in enumerate(v) if abs(x) > 1e-12]
        assert len(nz) == 1
    axes = {max(range(3), key=lambda i: abs(v[i])) for v in verts}
    assert axes == {0, 1, 2}
    assert tri.deviation < 1e-12


def test_vertices_lie_on_no_side_but_on_both_diagonals(square):
    # each vertex is the meet of two opposite quadrangle sides
    tri = diagonal_triangle(*square)
    import minconic._kernels as k

    pts = [p.vec() for p in square]
    x1, x2, x3, x4 = pts
    assert abs(k.dot3(tri.xi1, k.cross(x1, x2))) < 1e-12
    assert abs(k.dot3(tri.xi1, k.cross(x3, x4))) < 1e-12
    assert abs(k.dot3(tri.xi2, k.cross(x1, x3))) < 1e-12
    assert abs(k.dot3(tri.xi2, k.cross(x2, x4))) < 1e-12
    assert abs(k.dot3(tri.xi3, k.cross(x1, x4))) < 1e-12
    assert abs(k.dot3(tri.xi3, k.cross(x2, x3))) < 1e-12


def test_collinear_triple_is_named():
    pts = [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (0.0, 5.0, 1.0)]
    with pytest.raises(GeneralPositionError) as err:
        require_no_collinear_triple(pts)
    assert err.value.indices == (0, 1, 2)
    with pytest.raises(GeneralPositionError):
        diagonal_triangle(*pts)


def test_no_collinear_triple_returns_the_triple_determinants_in_order():
    pts = [(0.0, 0.0, 1.0), (1.0, 0.5, 1.0), (2.0, 3.0, 1.0), (0.0, 5.0, 1.0), (-3.0, 1.0, 2.0)]
    # bit for bit: the 4p1l sign product multiplies exactly these values
    det3 = minconic._kernels.det3
    expected = [det3(pts[i], pts[j], pts[m]) for i, j, m in itertools.combinations(range(5), 3)]
    assert require_no_collinear_triple(pts) == expected


def test_triangle_coords_reproduce_the_point(square):
    tri = diagonal_triangle(*square)
    p = (0.3, -1.7, 1.0)
    b = triangle_coords(tri, p)
    rebuilt = tuple(
        b.beta1 * u + b.beta2 * v + b.beta3 * w
        for u, v, w in zip(tri.xi1, tri.xi2, tri.xi3)
    )
    for got, want in zip(rebuilt, p):
        assert got == pytest.approx(want, abs=1e-12)


def test_quadrangle_side_detection(square):
    tri = diagonal_triangle(*square)
    # midpoint structure: a point on the side through the first two corners
    assert lies_on_quadrangle_side(tri, (0.0, 1.0, 1.0))
    # on a diagonal
    assert lies_on_quadrangle_side(tri, (0.5, 0.5, 1.0))
    assert not lies_on_quadrangle_side(tri, (0.3, -1.7, 1.0))


def test_self_polar_basis_is_rank_one_and_conjugate(square):
    tri = diagonal_triangle(*square)
    basis = self_polar_basis(tri)
    verts = tri.vertices()
    for m in basis:
        assert m.det() == pytest.approx(0.0, abs=1e-9)
    # polarity: vertex i maps to the opposite side, so x_i^T M x_j = 0 for
    # every basis member and every pair of distinct vertices
    for m in basis:
        mat = m.matrix()
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                vi, vj = verts[i], verts[j]
                val = sum(vi[r] * mat[r][c] * vj[c] for r in range(3) for c in range(3))
                assert val == pytest.approx(0.0, abs=1e-9)


def test_pencil_members_pass_through_the_quadrangle(square):
    tri = diagonal_triangle(*square)
    for s in (-3.0, 0.25, 0.5, 2.0, 17.0):
        conic = pencil_conic(tri, s)
        for p in square:
            assert point_residual(conic, p) < 1e-14


def test_pencil_degenerate_parameters_rejected(square):
    tri = diagonal_triangle(*square)
    for s in (0.0, 1.0, 1e-13, 1.0 - 1e-13):
        with pytest.raises(DegenerateParameter):
            pencil_conic(tri, s)


def test_five_point_conic_through_inputs(square):
    pts = [p.vec() for p in square] + [(math.sqrt(2.0), 0.0, 1.0)]
    conic = conic_through_five_points(pts)
    for p in pts:
        assert point_residual(conic, p) < 1e-14
    assert classify(conic) is ConicClass.REAL_ELLIPSE


def test_five_point_conic_rejects_bad_input(square):
    pts = [p.vec() for p in square]
    with pytest.raises(ValueError):
        conic_through_five_points(pts)  # only four
    with pytest.raises(GeneralPositionError):
        conic_through_five_points(pts + [(1.0, 0.0, 1.0)])  # on a side
