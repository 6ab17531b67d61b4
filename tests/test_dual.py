"""Lines-heavy configurations through duality."""
import math

import pytest

from minconic import (
    ConicMatrix,
    HomogeneousPoint,
    ProjectiveLine,
    point_residual,
    predict,
    solve,
    solve_dual,
    tangency_residual,
)
from minconic.errors import GeneralPositionError, UnsupportedCount

from conftest import six_vector_angle

CIRCLE = ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))


def circle_tangents(n=5, phase=0.0):
    """Tangent lines of the unit circle at n evenly spaced contact points."""
    out = []
    for k in range(n):
        a = phase + 2.0 * math.pi * k / n
        out.append(ProjectiveLine(math.cos(a), math.sin(a), -1.0))
    return out


def test_five_tangent_lines_give_the_circle():
    sol = solve([], circle_tangents())
    assert sol.case_label == "dual:5p"
    assert (sol.real_count, sol.complex_count) == (1, 0)
    assert len(sol) == 1
    assert solve_dual([], circle_tangents()).real_conics == sol.real_conics
    assert six_vector_angle(sol.real_conics[0], CIRCLE) < 1e-9
    for l in circle_tangents():
        assert tangency_residual(sol.real_conics[0], l) < 1e-12


def test_four_lines_one_point():
    lines = circle_tangents(4, phase=0.3)
    point = HomogeneousPoint(1.0, 0.0)  # on the circle
    sol = solve([point], lines)
    assert sol.case_label.startswith("dual:4p1l")
    assert sol.real_count >= 1
    best = min(six_vector_angle(c, CIRCLE) for c in sol)
    assert best < 1e-9
    for conic in sol:
        assert point_residual(conic, point) < 1e-10
        for l in lines:
            assert tangency_residual(conic, l) < 1e-10


def test_three_lines_two_points():
    lines = circle_tangents(3, phase=0.7)
    pts = [HomogeneousPoint(0.0, 1.0), HomogeneousPoint(0.0, -1.0)]
    sol = solve(pts, lines)
    assert sol.case_label.startswith("dual:3p2l")
    assert sol.real_count >= 1
    best = min(six_vector_angle(c, CIRCLE) for c in sol)
    assert best < 1e-9
    for conic in sol:
        for p in pts:
            assert point_residual(conic, p) < 1e-10
        for l in lines:
            assert tangency_residual(conic, l) < 1e-10


def test_dual_counts_match_primal_structure():
    # four tangents of a conic plus a separate point mirrors 4p1l counting
    lines = circle_tangents(4, phase=0.3)
    outside = HomogeneousPoint(3.0, 0.1)
    pred = predict([outside], lines)
    sol = solve([outside], lines)
    assert pred.rule.startswith("dual: ")
    assert pred.predicted_real == sol.real_count
    assert pred.predicted_complex == sol.complex_count


def test_dual_general_position_error_is_rewrapped():
    # three concurrent lines dualize to three collinear points
    lines = [
        ProjectiveLine(1.0, 0.0, 0.0),
        ProjectiveLine(0.0, 1.0, 0.0),
        ProjectiveLine(1.0, 1.0, 0.0),
        ProjectiveLine(1.0, 2.0, -5.0),
        ProjectiveLine(2.0, -1.0, -4.0),
    ]
    with pytest.raises(GeneralPositionError) as err:
        solve([], lines)
    assert "dual configuration degenerate" in str(err.value)


def test_solve_dual_rejects_points_heavy():
    pts = [HomogeneousPoint(float(i), float(i * i)) for i in range(4)]
    with pytest.raises(UnsupportedCount):
        solve_dual(pts, [ProjectiveLine(1.0, 0.0, -9.0)])


def test_unsupported_totals():
    with pytest.raises(UnsupportedCount):
        solve([HomogeneousPoint(0.0, 0.0)], [ProjectiveLine(1.0, 0.0, -9.0)])
    with pytest.raises(UnsupportedCount):
        predict([], [])
