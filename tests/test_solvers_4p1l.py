"""Four points + one tangent line: branches, anchors, invariances."""
import itertools
import math
from fractions import Fraction

import pytest

from minconic import (
    ConicMatrix,
    HomogeneousPoint,
    ProjectiveLine,
    point_residual,
    predict_count_4p1l,
    solve,
    solve_four_points_line,
    tangency_residual,
)
from minconic.errors import DegenerateCase, GeneralPositionError, UnsupportedCount

from conftest import six_vector_angle


def test_vertex_line_gives_the_known_member(square):
    # x = 2 passes through a diagonal-triangle vertex of the square: one
    # solution at s = -1/3, the ellipse x^2 + 3 y^2 = 4
    line = ProjectiveLine(1.0, 0.0, -2.0)
    sol = solve_four_points_line(square, line)
    assert sol.case_label == "4p1l/diagonal-vertex"
    assert sol.real_count == 1
    assert sol.complex_count == 0
    s = sol.diagnostics.parameters[0][0]
    assert s == pytest.approx(-1.0 / 3.0, abs=1e-14)
    want = ConicMatrix.from_coefficients((1.0, 0.0, 3.0, 0.0, 0.0, -4.0))
    assert six_vector_angle(sol.real_conics[0], want) < 1e-14
    pred = predict_count_4p1l(square, line)
    assert pred.rule == "unique: line through a diagonal-triangle vertex"
    assert (pred.predicted_real, pred.predicted_complex) == (1, 0)


#: a quadrangle without symmetry, so the lines through its three diagonal
#: vertices exercise three different root formulas; every coordinate,
#: vertex and incidence here is an exact integer
SKEW_QUADRANGLE = [(0, 0, 1), (5, 1, 1), (4, 4, 1), (1, 3, 1)]


def int_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def exact_free_root(xi, line):
    """The tangency root other than the pinned s = 0, 1 or infinity, read off
    the exact quadratic q2 s^2 + q1 s + q0 of the squared vertex incidences."""
    L1, L2, L3 = (sum(u * v for u, v in zip(x, line)) ** 2 for x in xi)
    q2, q1, q0 = L3, -(L1 - L2 + L3), L1
    if q2 == 0:
        return Fraction(-q0, q1)
    disc = q1 * q1 - 4 * q2 * q0
    rt = math.isqrt(disc)
    assert rt * rt == disc  # one root is rational, so both are
    roots = {Fraction(-q1 + sign * rt, 2 * q2) for sign in (1, -1)} - {0, 1}
    assert len(roots) == 1
    return roots.pop()


@pytest.mark.parametrize("k, other", [(0, (2, 0, 1)), (1, (3, 0, 1)), (2, (0, 2, 1))])
def test_line_through_each_vertex_gives_the_exact_root(k, other):
    p1, p2, p3, p4 = SKEW_QUADRANGLE
    xi = (
        int_cross(int_cross(p1, p2), int_cross(p3, p4)),
        int_cross(int_cross(p1, p3), int_cross(p2, p4)),
        int_cross(int_cross(p1, p4), int_cross(p2, p3)),
    )
    line = int_cross(xi[k], other)
    points = [tuple(map(float, p)) for p in SKEW_QUADRANGLE]
    sol = solve_four_points_line(points, tuple(map(float, line)))
    assert sol.case_label == "4p1l/diagonal-vertex"
    assert (sol.real_count, sol.complex_count) == (1, 0)
    want = exact_free_root(xi, line)
    assert sol.diagnostics.parameters[0][0] == pytest.approx(float(want), rel=1e-15)
    conic = sol.real_conics[0]
    for p in points:
        assert point_residual(conic, p) < 1e-14
    assert tangency_residual(conic, line) < 1e-12
    pred = predict_count_4p1l(points, line)
    assert (pred.predicted_real, pred.predicted_complex) == (1, 0)


def test_generic_two_real_anchor(square):
    # x + y = 3 misses the square: two real tangents at s = (-7 +- 3 sqrt 5)/2
    line = ProjectiveLine(1.0, 1.0, -3.0)
    sol = solve_four_points_line(square, line)
    assert sol.case_label == "4p1l/generic"
    assert sol.real_count == 2
    assert sol.complex_count == 0
    got = sorted(p[0] for p in sol.diagnostics.parameters)
    want = sorted([(-7.0 + 3.0 * math.sqrt(5.0)) / 2.0, (-7.0 - 3.0 * math.sqrt(5.0)) / 2.0])
    assert got == pytest.approx(want, abs=1e-12)
    for conic in sol:
        for p in square:
            assert point_residual(conic, p) < 1e-12
        assert tangency_residual(conic, line) < 1e-10
    assert sol.diagnostics.prediction.rule == "orientation/side sign product positive"


def test_generic_complex_pair():
    pts = [
        HomogeneousPoint(1.0, 1.0),
        HomogeneousPoint(-1.0, 1.0),
        HomogeneousPoint(-1.0, -1.0),
        HomogeneousPoint(0.0, 0.2),
    ]
    line = ProjectiveLine(1.0, 1.0, -3.0)
    sol = solve_four_points_line(pts, line)
    assert sol.case_label == "4p1l/generic"
    assert (sol.real_count, sol.complex_count) == (0, 2)
    assert sol.diagnostics.prediction.rule == "orientation/side sign product negative"
    assert sol.diagnostics.discriminant < 0.0


def test_point_on_line_branch(square):
    # x + y = 2 touches the quadrangle at its first corner
    line = ProjectiveLine(1.0, 1.0, -2.0)
    sol = solve_four_points_line(square, line)
    assert sol.case_label == "4p1l/point-on-line"
    assert (sol.real_count, sol.complex_count) == (1, 0)
    assert sol.diagnostics.double_root
    conic = sol.real_conics[0]
    for p in square:
        assert point_residual(conic, p) < 1e-12
    assert tangency_residual(conic, line) < 1e-10
    pred = predict_count_4p1l(square, line)
    assert pred.rule == "unique: line through a quadrangle point"


def test_line_through_two_points_rejected(square):
    # x = 1 is a side; the diagonal y = x joins two opposite corners
    for line in (ProjectiveLine(1.0, 0.0, -1.0), ProjectiveLine(1.0, -1.0, 0.0)):
        with pytest.raises(GeneralPositionError) as err:
            solve_four_points_line(square, line)
        assert "side of the quadrangle" in str(err.value)


def test_line_through_two_vertices_rejected(square):
    # x = 0 carries two vertices of the square's diagonal triangle
    with pytest.raises(GeneralPositionError) as err:
        solve_four_points_line(square, ProjectiveLine(1.0, 0.0, 0.0))
    assert "diagonal triangle" in str(err.value)


def test_wrong_count_rejected(square):
    with pytest.raises(UnsupportedCount):
        solve_four_points_line(square[:3], ProjectiveLine(1.0, 1.0, -3.0))


def test_collinear_points_rejected():
    pts = [
        HomogeneousPoint(0.0, 0.0),
        HomogeneousPoint(1.0, 0.0),
        HomogeneousPoint(2.0, 0.0),
        HomogeneousPoint(0.0, 1.0),
    ]
    with pytest.raises(GeneralPositionError):
        solve_four_points_line(pts, ProjectiveLine(1.0, 1.0, -9.0))


def test_point_permutation_invariance():
    pts = [
        HomogeneousPoint(1.2, 0.9),
        HomogeneousPoint(-1.0, 1.1),
        HomogeneousPoint(-0.8, -1.0),
        HomogeneousPoint(1.0, -1.3),
    ]
    line = ProjectiveLine(1.0, 0.7, -3.1)
    base = solve_four_points_line(pts, line)
    assert base.real_count == 2

    def signature(sol):
        return sorted(tuple(c.normalized().sym6()) for c in sol)

    want = signature(base)
    for perm in itertools.permutations(range(4)):
        got = solve_four_points_line([pts[i] for i in perm], line)
        assert got.real_count == 2
        for u, v in zip(signature(got), want):
            assert u == pytest.approx(v, abs=1e-9)


def test_solution_parameters_are_sorted_and_t_free(square):
    sol = solve_four_points_line(square, ProjectiveLine(1.0, 1.0, -3.0))
    ss = [p[0] for p in sol.diagnostics.parameters]
    assert ss == sorted(ss)
    assert all(math.isnan(p[1]) for p in sol.diagnostics.parameters)


def test_dispatcher_routes_here(square):
    line = ProjectiveLine(1.0, 1.0, -3.0)
    via_solve = solve(square, [line])
    direct = solve_four_points_line(square, line)
    assert via_solve.case_label == direct.case_label
    assert via_solve.real_count == direct.real_count
    for u, v in zip(via_solve, direct):
        assert six_vector_angle(u, v) < 1e-15


def test_prediction_matches_solution_across_branches(square):
    lines = [
        ProjectiveLine(1.0, 0.0, -2.0),  # vertex
        ProjectiveLine(1.0, 1.0, -2.0),  # corner
        ProjectiveLine(1.0, 1.0, -3.0),  # generic two real
        ProjectiveLine(-0.5, 1.0, -0.1),  # crosses the square: two real
    ]
    for line in lines:
        pred = predict_count_4p1l(square, line)
        sol = solve_four_points_line(square, line)
        assert pred.predicted_real == sol.real_count
        assert pred.predicted_complex == sol.complex_count
