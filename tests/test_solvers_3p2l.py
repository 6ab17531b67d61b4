"""Three points + two tangent lines: all five cases and their guards."""
import math
import random

import numpy as np
import pytest

import minconic._kernels as _k
from minconic import (
    ConicMatrix,
    HomogeneousPoint,
    ProjectiveLine,
    classify_3p2l_case,
    intersect_conic_pencil,
    pencil_eigenvalues,
    point_residual,
    predict,
    predict_count_3p2l,
    solve,
    solve_three_points_two_lines,
    tangency_residual,
)
from minconic.errors import (
    CaseDegeneracy,
    DegenerateCase,
    GeneralPositionError,
    NonFiniteInput,
    UnsupportedCount,
)
from minconic.oracle import dualize_input, random_3p2l_case

from conftest import (
    NEAR_TIE_LINES,
    NEAR_TIE_POINTS,
    gallery_names,
    load_gallery_case,
    six_vector_angle,
)

X_EQ_1 = ProjectiveLine(1.0, 0.0, -1.0)
Y_EQ_1 = ProjectiveLine(0.0, 1.0, -1.0)


def check_solutions(sol, points, lines, bound=1e-9):
    for conic in sol:
        for p in points:
            assert point_residual(conic, p) < bound
        for l in lines:
            assert tangency_residual(conic, l) < bound


def test_case1_unit_circle():
    pts = [HomogeneousPoint(1.0, 0.0), HomogeneousPoint(0.0, 1.0), HomogeneousPoint(0.0, -1.0)]
    l1 = ProjectiveLine(0.0, 1.0, -1.0)
    l2 = ProjectiveLine(0.0, 1.0, 1.0)
    alloc = classify_3p2l_case(pts, l1, l2)
    assert (alloc.case, alloc.order, alloc.swap_lines) == (1, (0, 1, 2), False)
    sol = solve_three_points_two_lines(pts, l1, l2)
    assert sol.case_label == "3p2l/Case1"
    assert (sol.real_count, sol.complex_count) == (1, 0)
    assert sol.diagnostics.parameters[0] == pytest.approx((0.5, -1.0), abs=1e-14)
    circle = ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    assert six_vector_angle(sol.real_conics[0], circle) < 1e-14
    check_solutions(sol, pts, (l1, l2))


def test_case2_collinear_pair_with_rider():
    pts = [HomogeneousPoint(1.0, 1.0), HomogeneousPoint(2.0, 2.0), HomogeneousPoint(2.0, 0.0)]
    l1 = ProjectiveLine(0.0, 1.0, 0.0)  # y = 0, carries the third point
    l2 = ProjectiveLine(1.0, 0.0, 0.0)  # x = 0
    alloc = classify_3p2l_case(pts, l1, l2)
    assert (alloc.case, alloc.order, alloc.swap_lines) == (2, (0, 1, 2), False)
    sol = solve_three_points_two_lines(pts, l1, l2)
    assert sol.case_label == "3p2l/Case2"
    assert (sol.real_count, sol.complex_count) == (1, 0)
    s, t = sol.diagnostics.parameters[0]
    assert s == pytest.approx(2.0, abs=1e-14)
    assert t == pytest.approx(0.25, abs=1e-13)
    check_solutions(sol, pts, (l1, l2))
    assert sol.diagnostics.prediction.rule == (
        "case 2: collinear pair with the crossing, third point incident"
    )


def test_case3_two_real():
    pts = [HomogeneousPoint(-1.0, -2.0), HomogeneousPoint(0.0, 0.0), HomogeneousPoint(2.0, 2.0)]
    alloc = classify_3p2l_case(pts, X_EQ_1, Y_EQ_1)
    assert alloc.case == 3
    sol = solve_three_points_two_lines(pts, X_EQ_1, Y_EQ_1)
    assert sol.case_label == "3p2l/Case3"
    assert (sol.real_count, sol.complex_count) == (2, 0)
    # symmetric parameterization: the two moving points are mirror images
    t1, t2 = sorted(p[1] for p in sol.diagnostics.parameters)
    assert t1 == pytest.approx(-t2, rel=1e-12)
    check_solutions(sol, pts, (X_EQ_1, Y_EQ_1))
    assert sol.diagnostics.prediction.rule == "case 3: side products agree in sign"


def test_case3_complex_pair():
    pts = [HomogeneousPoint(2.0, 0.0), HomogeneousPoint(0.0, 0.0), HomogeneousPoint(2.0, 2.0)]
    sol = solve_three_points_two_lines(pts, X_EQ_1, Y_EQ_1)
    assert sol.case_label == "3p2l/Case3"
    assert (sol.real_count, sol.complex_count) == (0, 2)
    assert sol.diagnostics.prediction.rule == "case 3: side products differ in sign"


def test_case4_two_real_and_swap():
    pts = [HomogeneousPoint(0.0, 2.0), HomogeneousPoint(2.0, 1.0), HomogeneousPoint(1.0, 0.0)]
    l1 = ProjectiveLine(0.0, 1.0, 0.0)  # y = 0, carries the third point
    l2 = ProjectiveLine(1.0, 0.0, -3.0)  # x = 3
    alloc = classify_3p2l_case(pts, l1, l2)
    assert (alloc.case, alloc.order, alloc.swap_lines) == (4, (0, 1, 2), False)
    sol = solve_three_points_two_lines(pts, l1, l2)
    assert sol.case_label == "3p2l/Case4"
    assert (sol.real_count, sol.complex_count) == (2, 0)
    check_solutions(sol, pts, (l1, l2))
    # the same configuration with the lines swapped solves identically
    swapped_alloc = classify_3p2l_case(pts, l2, l1)
    assert swapped_alloc.swap_lines
    swapped = solve_three_points_two_lines(pts, l2, l1)
    assert swapped.real_count == 2
    a = sorted(tuple(c.normalized().sym6()) for c in sol)
    b = sorted(tuple(c.normalized().sym6()) for c in swapped)
    for u, v in zip(a, b):
        assert u == pytest.approx(v, abs=1e-10)


def test_case4_complex_pair():
    pts = [HomogeneousPoint(0.0, 2.0), HomogeneousPoint(4.0, 1.0), HomogeneousPoint(1.0, 0.0)]
    l1 = ProjectiveLine(0.0, 1.0, 0.0)
    l2 = ProjectiveLine(1.0, 0.0, -3.0)
    sol = solve_three_points_two_lines(pts, l1, l2)
    assert sol.case_label == "3p2l/Case4"
    assert (sol.real_count, sol.complex_count) == (0, 2)
    assert sol.diagnostics.discriminant < 0.0


def test_case5_four_real_with_unit_circle():
    pts = [
        HomogeneousPoint(-1.0, 0.0),
        HomogeneousPoint(0.0, -1.0),
        HomogeneousPoint(0.6, -0.8),
    ]
    sol = solve_three_points_two_lines(pts, X_EQ_1, Y_EQ_1)
    assert sol.case_label == "3p2l/Case5"
    assert (sol.real_count, sol.complex_count) == (4, 0)
    lams = sorted(sol.diagnostics.eigenvalues)
    assert lams == pytest.approx([1.0, 2.25, 9.0], abs=1e-12)
    circle = ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    angles = [six_vector_angle(c, circle) for c in sol]
    assert min(angles) < 1e-9
    check_solutions(sol, pts, (X_EQ_1, Y_EQ_1))
    assert sol.diagnostics.prediction.rule == "case 5: all side products share a sign"


def test_case5_all_complex():
    pts = [HomogeneousPoint(3.0, 2.0), HomogeneousPoint(0.0, 0.0), HomogeneousPoint(0.0, 2.0)]
    sol = solve_three_points_two_lines(pts, X_EQ_1, Y_EQ_1)
    assert sol.case_label == "3p2l/Case5"
    assert (sol.real_count, sol.complex_count) == (0, 4)
    assert sol.diagnostics.prediction.rule == "case 5: side products have mixed signs"


def test_near_degenerate_crossing_raises_not_lies():
    # crossing (1, 1) almost on the side through the last two points: too far
    # for the collinearity gate, inside the eigenvalue-tie gate, so the
    # generic path must refuse rather than return garbage
    delta = 1.8e-9
    pts = [
        HomogeneousPoint(-1.0, 0.0),
        HomogeneousPoint(0.0, 3.0),
        HomogeneousPoint(2.0, -1.0 + delta),
    ]
    alloc = classify_3p2l_case(pts, X_EQ_1, Y_EQ_1)
    assert alloc.case == 5
    with pytest.raises(DegenerateCase):
        solve_three_points_two_lines(pts, X_EQ_1, Y_EQ_1)
    with pytest.raises(CaseDegeneracy):
        solve_three_points_two_lines(pts, X_EQ_1, Y_EQ_1)


def tangency_form(A, B, C, D, ai, bi, ci):
    """Tangency to one line as a quadratic form in (s, t, 1)."""
    return ConicMatrix(
        A * A * ai * ai, D * ai * (C * ci - B * bi), D * D * ai * ai,
        A * C * ai * ci, -C * D * ai * ci, C * C * ci * ci,
    )


def scalars_3p2l(x1, x2, x3, l1, l2):
    """The determinant and incidence scalars of the 3-point/2-line formulas."""
    p = _k.cross(l1, l2)
    A = _k.det3(p, x2, x3)
    B = _k.det3(x1, p, x3)
    C = _k.det3(x1, x2, p)
    D = _k.det3(x1, x2, x3)
    a = (_k.dot3(x1, l1), _k.dot3(x1, l2))
    b = (_k.dot3(x2, l1), _k.dot3(x2, l2))
    c = (_k.dot3(x3, l1), _k.dot3(x3, l2))
    return p, A, B, C, D, a, b, c


def test_case5_closed_form_matches_the_pencil_intersection():
    # the line-pair split of the pencil of the two tangency forms is an
    # independent route to the same four roots
    rng = random.Random(8)
    real = 0
    for _ in range(60):
        pts, l1, l2 = random_3p2l_case(rng, 5)
        sol = solve_three_points_two_lines(pts, l1, l2)
        _, A, B, C, D, a, b, c = scalars_3p2l(*(p.vec() for p in pts), l1.vec(), l2.vec())
        inter = intersect_conic_pencil(
            tangency_form(A, B, C, D, a[0], b[0], c[0]),
            tangency_form(A, B, C, D, a[1], b[1], c[1]),
            sol.diagnostics.eigenvalues,
        )
        assert (len(inter.real_points), inter.complex_count) == (sol.real_count, sol.complex_count)
        for st, ref in zip(sol.diagnostics.parameters, sorted(inter.real_points)):
            assert st == pytest.approx(ref, rel=1e-9)
        real += sol.real_count
    assert real > 0


def test_case5_member_that_does_not_split_is_a_case_degeneracy():
    assert classify_3p2l_case(NEAR_TIE_POINTS, *NEAR_TIE_LINES).case == 5
    pencil_eigenvalues(NEAR_TIE_POINTS, *NEAR_TIE_LINES)  # no tie inside the band
    # one root lies 1.5e-12 from s = 0: outside the parameter gate, inside
    # the rounding band eps / gap of the 3.3e-9 eigenvalue gap
    with pytest.raises(CaseDegeneracy, match=r"root s=-1\.4\d*e-12 lies within 6\.7\de-08 of") as err:
        solve(NEAR_TIE_POINTS, NEAR_TIE_LINES)
    assert "degenerate member (s = 0 or 1)" in str(err.value)
    with pytest.raises(CaseDegeneracy):
        solve_three_points_two_lines(NEAR_TIE_POINTS, *NEAR_TIE_LINES)


def test_general_position_guards():
    pts = [HomogeneousPoint(-1.0, 0.0), HomogeneousPoint(0.0, -1.0), HomogeneousPoint(0.6, -0.8)]
    # coincident lines
    with pytest.raises(GeneralPositionError):
        solve_three_points_two_lines(pts, X_EQ_1, ProjectiveLine(2.0, 0.0, -2.0))
    # collinear points
    coll = [HomogeneousPoint(0.0, 0.0), HomogeneousPoint(1.0, 1.0), HomogeneousPoint(2.0, 2.0)]
    with pytest.raises(GeneralPositionError):
        solve_three_points_two_lines(coll, X_EQ_1, Y_EQ_1)
    # a point at the line crossing
    at_p = [HomogeneousPoint(1.0, 1.0), HomogeneousPoint(0.0, -1.0), HomogeneousPoint(0.6, -0.8)]
    with pytest.raises(GeneralPositionError) as err:
        solve_three_points_two_lines(at_p, X_EQ_1, Y_EQ_1)
    assert "intersection" in str(err.value)
    # two points on one line
    two_on = [HomogeneousPoint(1.0, 0.0), HomogeneousPoint(1.0, 2.0), HomogeneousPoint(0.6, -0.8)]
    with pytest.raises(GeneralPositionError) as err:
        solve_three_points_two_lines(two_on, X_EQ_1, Y_EQ_1)
    assert "same line" in str(err.value)


def test_wrong_count_rejected():
    pts = [HomogeneousPoint(-1.0, 0.0), HomogeneousPoint(0.0, -1.0)]
    with pytest.raises(UnsupportedCount):
        solve_three_points_two_lines(pts, X_EQ_1, Y_EQ_1)


def test_dispatcher_and_prediction_agreement():
    configs = [
        ([(-1.0, -2.0), (0.0, 0.0), (2.0, 2.0)], X_EQ_1, Y_EQ_1),
        ([(3.0, 4.0), (0.0, 0.0), (2.0, 2.0)], X_EQ_1, Y_EQ_1),
        ([(0.0, 1.0), (1.0, 2.0), (1.0, 0.0)], ProjectiveLine(0.0, 1.0, 0.0), ProjectiveLine(1.0, 0.0, -3.0)),
        ([(-1.0, 0.0), (0.0, -1.0), (0.6, -0.8)], X_EQ_1, Y_EQ_1),
        ([(0.0, 0.0), (-2.0, 0.0), (0.0, -2.0)], X_EQ_1, Y_EQ_1),
    ]
    for coords, l1, l2 in configs:
        pts = [HomogeneousPoint(x, y) for x, y in coords]
        pred = predict_count_3p2l(pts, l1, l2)
        sol = solve(pts, [l1, l2])
        assert pred.predicted_real == sol.real_count
        assert pred.predicted_complex == sol.complex_count
        assert sol.diagnostics.parameters == tuple(sorted(sol.diagnostics.parameters))


def case5_inputs():
    """Gallery and oracle case-5 inputs, each with its 2-point/3-line dual."""
    out = [load_gallery_case(name)[:2] for name in gallery_names() if "case5" in name]
    rng = random.Random(5)
    for _ in range(40):
        pts, l1, l2 = random_3p2l_case(rng, 5)
        out.append((pts, [l1, l2]))
    return out + [dualize_input(pts, lines) for pts, lines in out]


def test_case5_needs_no_numpy_eigensolver(monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvalsh called on the solve path")

    monkeypatch.setattr(np.linalg, "eigvalsh", unavailable)
    real = 0
    for points, lines in case5_inputs():
        sol = solve(points, lines)
        assert sol.case_label.endswith("3p2l/Case5")
        assert sol.total_count == 4
        real += sol.real_count
    assert real > 0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_coordinates_are_rejected_up_front(bad):
    # one NaN or inf coordinate used to fail every incidence test, reach the
    # case-5 pencil and surface as numpy's LinAlgError
    pts, l1, l2 = random_3p2l_case(random.Random(3), 5)
    for points, lines in ((pts, [l1, l2]), dualize_input(pts, [l1, l2])):
        items = [list(x.vec()) for x in points + lines]
        for k in range(len(items)):
            spoiled = [list(v) for v in items]
            spoiled[k][k % 3] = bad
            args = (spoiled[: len(points)], spoiled[len(points):])
            with pytest.raises(NonFiniteInput, match="non-finite"):
                solve(*args)
            with pytest.raises(NonFiniteInput, match="non-finite"):
                predict(*args)
