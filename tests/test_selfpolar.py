"""Diagonal triangle, the quadrangle pencil and the general-position guard,
as the solvers build them."""
import itertools
import math

import pytest

import minconic._kernels as _k
from minconic import ConicClass, ConicMatrix, classify, point_residual, solve
from minconic.conics import _normalized6
from minconic.errors import DegenerateCase, GeneralPositionError, NonFiniteInput, UnsupportedCount
from minconic.oracle import dualize_input
from minconic.selfpolar import require_no_collinear_triple

from conftest import conic_rows


def square_triangle(square):
    return _k.diag_triangle(*[p.vec() for p in square])


def test_square_diagonal_triangle_is_the_coordinate_triangle(square):
    *verts, deviation = square_triangle(square)
    # the square's diagonals meet at the origin, its side pairs at the two
    # points at infinity, so the vertices are the coordinate triangle up to
    # scale and order
    for v in verts:
        nz = [i for i, x in enumerate(v) if abs(x) > 1e-12]
        assert len(nz) == 1
    axes = {max(range(3), key=lambda i: abs(v[i])) for v in verts}
    assert axes == {0, 1, 2}
    assert deviation < 1e-12


def test_vertices_lie_on_no_side_but_on_both_diagonals(square):
    # each vertex is the meet of two opposite quadrangle sides
    xi1, xi2, xi3, _ = square_triangle(square)
    x1, x2, x3, x4 = [p.vec() for p in square]
    assert abs(_k.dot3(xi1, _k.cross(x1, x2))) < 1e-12
    assert abs(_k.dot3(xi1, _k.cross(x3, x4))) < 1e-12
    assert abs(_k.dot3(xi2, _k.cross(x1, x3))) < 1e-12
    assert abs(_k.dot3(xi2, _k.cross(x2, x4))) < 1e-12
    assert abs(_k.dot3(xi3, _k.cross(x1, x4))) < 1e-12
    assert abs(_k.dot3(xi3, _k.cross(x2, x3))) < 1e-12


def test_collinear_triple_is_named():
    pts = [(0.0, 0.0, 1.0), (1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (0.0, 5.0, 1.0)]
    with pytest.raises(GeneralPositionError) as err:
        require_no_collinear_triple(pts)
    assert err.value.indices == (0, 1, 2)
    with pytest.raises(GeneralPositionError) as err:
        solve(pts, [(1.0, 0.0, -7.0)])
    assert err.value.indices == (0, 1, 2)


@pytest.mark.parametrize(
    "points, index",
    [
        ([(math.inf, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 5.0, 1.0)], 0),
        ([(math.nan, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0)], 0),
        ([(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 5.0, -math.inf)], 2),
    ],
)
def test_a_non_finite_point_is_named_and_not_called_collinear(points, index):
    # an inf point once read as collinear with two others, and a NaN triple
    # returned its NaN determinant
    with pytest.raises(NonFiniteInput, match=rf"^point {index} has a non-finite coordinate"):
        require_no_collinear_triple(points)


def test_collinearity_tolerance_scales_with_coordinates():
    # the band is relative to the three norms: a near-collinear triple is
    # refused, and one bent further accepted, at every homogeneous scale
    for scale in (1.0, 1e6, 1e-6):
        near = [(0.0, 0.0, scale), (scale, 0.0, scale), (2.0 * scale, scale * 1e-14, scale)]
        with pytest.raises(GeneralPositionError):
            require_no_collinear_triple(near)
        bent = near[:2] + [(2.0 * scale, scale * 1e-3, scale)]
        assert len(require_no_collinear_triple(bent)) == 1


def test_no_collinear_triple_returns_the_triple_determinants_in_order():
    pts = [(0.0, 0.0, 1.0), (1.0, 0.5, 1.0), (2.0, 3.0, 1.0), (0.0, 5.0, 1.0), (-3.0, 1.0, 2.0)]
    # bit for bit: the 4p1l sign product multiplies exactly these values
    expected = [_k.det3(pts[i], pts[j], pts[m]) for i, j, m in itertools.combinations(range(5), 3)]
    assert require_no_collinear_triple(pts) == expected


def test_pencil_members_pass_through_the_quadrangle(square):
    xi1, xi2, xi3, _ = square_triangle(square)
    verts = (xi1, xi2, xi3)
    for s in (-3.0, 0.25, 0.5, 2.0, 17.0):
        conic = ConicMatrix(*_normalized6(*_k.conic_from_pencil(xi1, xi2, xi3, s)))
        for p in square:
            assert point_residual(conic, p) < 1e-14
        # polarity: vertex i maps to the opposite side, so x_i^T C x_j = 0
        # for every pair of distinct vertices
        mat = conic_rows(conic)
        for i, j in itertools.permutations(range(3), 2):
            vi, vj = verts[i], verts[j]
            val = sum(vi[r] * mat[r][c] * vj[c] for r in range(3) for c in range(3))
            assert val == pytest.approx(0.0, abs=1e-9)


def test_pencil_degenerate_parameters_rejected(square):
    # a line this close to the origin, the diagonal vertex where the
    # square's diagonals meet, pins its tangent member within PARAMETER of
    # the line pair at s = 1, primal and dual
    for eps in (1e-8, 1e-7, 1e-6):
        line = (2.0, -1.0, eps)
        for points, lines in ((square, [line]), dualize_input(square, [line])):
            with pytest.raises(DegenerateCase, match=r"^pencil member at s=.* is degenerate$"):
                solve(points, lines)


def test_five_point_conic_through_inputs(square):
    pts = [p.vec() for p in square] + [(math.sqrt(2.0), 0.0, 1.0)]
    (conic,) = solve(pts).real_conics
    for p in pts:
        assert point_residual(conic, p) < 1e-14
    assert classify(conic) is ConicClass.REAL_ELLIPSE


def test_five_point_conic_rejects_bad_input(square):
    pts = [p.vec() for p in square]
    with pytest.raises(UnsupportedCount):
        solve(pts)  # only four
    with pytest.raises(GeneralPositionError):
        solve(pts + [(1.0, 0.0, 1.0)])  # on a side
