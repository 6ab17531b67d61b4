"""Acceptance gate: one test per shipping criterion, run with -v for the list.

Each test pins its tolerances to the agreed limits; the bulk tests draw from
the margin-rejection samplers so near-degenerate inputs are excluded by
construction.
"""
import math
import random
import time

import pytest

import minconic._kernels as _k
from minconic import (
    ConicMatrix,
    HomogeneousPoint,
    ProjectiveLine,
    pencil_eigenvalues,
    point_residual,
    predict,
    predict_count_3p2l,
    predict_count_4p1l,
    solve,
    solve_five_points,
    solve_four_points_line,
    solve_three_points_two_lines,
    tangency_residual,
)
from minconic.errors import DegenerateCase
from minconic.oracle import (
    nullspace_five_point,
    random_3p2l_case,
    random_4p1l,
    random_five_points,
)
from minconic.solvers import _tangency_quadratic

from conftest import gallery_names, load_gallery_case, six_vector_angle

X_EQ_1 = ProjectiveLine(1.0, 0.0, -1.0)
Y_EQ_1 = ProjectiveLine(0.0, 1.0, -1.0)


def components_match(got: ConicMatrix, want: ConicMatrix, bound: float) -> None:
    u = got.normalized().sym6()
    v = want.normalized().sym6()
    for a, b in zip(u, v):
        assert abs(a - b) <= bound, (u, v)


def test_criterion_01_five_point_closed_form(square):
    pts = list(square) + [HomogeneousPoint(math.sqrt(2.0), 0.0)]
    conic = solve_five_points(pts)
    want = ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, -2.0))
    components_match(conic, want, 1e-12)
    # closed form must be fast: best observed call well under a millisecond
    best = math.inf
    for _ in range(200):
        t0 = time.perf_counter()
        solve_five_points(pts)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3


def test_criterion_02_vertex_line_unique_branch(square):
    line = ProjectiveLine(1.0, 0.0, -2.0)
    sol = solve_four_points_line(square, line)
    assert sol.real_count == 1
    s = sol.diagnostics.parameters[0][0]
    assert abs(s - (-1.0 / 3.0)) <= 1e-12
    want = ConicMatrix.from_coefficients((1.0, 0.0, 3.0, 0.0, 0.0, -4.0))
    components_match(sol.real_conics[0], want, 1e-12)
    pred = predict_count_4p1l(square, line)
    assert (pred.predicted_real, pred.predicted_complex) == (1, 0)
    assert pred.rule == "unique: line through a diagonal-triangle vertex"


def test_criterion_03_generic_branch_roots(square):
    line = ProjectiveLine(1.0, 1.0, -3.0)
    sol = solve_four_points_line(square, line)
    assert (sol.real_count, sol.complex_count) == (2, 0)
    got = sorted(p[0] for p in sol.diagnostics.parameters)
    want = sorted(((-7.0 - 3.0 * math.sqrt(5.0)) / 2.0, (-7.0 + 3.0 * math.sqrt(5.0)) / 2.0))
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-12
    for conic in sol:
        assert tangency_residual(conic, line) <= 1e-10


def test_criterion_04_discriminant_identity_bulk(square):
    # hand anchor at raw homogeneous scale
    vecs = [p.vec() for p in square]
    lv = (1.0, 1.0, -3.0)
    xi = _k.diag_triangle(*vecs)[:3]
    q2, q1, q0 = _tangency_quadratic([_k.dot3(x, lv) for x in xi])
    assert q1 * q1 - 4.0 * q2 * q0 == 184320.0
    prod = 16.0
    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        prod *= _k.det3(vecs[i], vecs[j], vecs[k])
    for v in vecs:
        prod *= _k.dot3(v, lv)
    assert prod == 184320.0

    rng = random.Random(20260814)
    worst = 0.0
    for _ in range(10_000):
        pts, line = random_4p1l(rng)
        pv = [p.vec() for p in pts]
        lv = line.vec()
        xi = _k.diag_triangle(*pv)[:3]
        q2, q1, q0 = _tangency_quadratic([_k.dot3(x, lv) for x in xi])
        disc = q1 * q1 - 4.0 * q2 * q0
        prod = 16.0
        for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            prod *= _k.det3(pv[i], pv[j], pv[k])
        for v in pv:
            prod *= _k.dot3(v, lv)
        rel = abs(disc - prod) / max(abs(disc), abs(prod))
        worst = max(worst, rel)
    assert worst <= 1e-9, worst


def test_criterion_05_oracle_equivalence_bulk():
    rng = random.Random(5)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(10_000):
        pts = random_five_points(rng)
        a = solve_five_points(pts)
        b = nullspace_five_point(pts)
        worst = max(worst, six_vector_angle(a, b))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-7, worst
    # the dominant bulk test must leave the full suite far inside its minute
    assert elapsed < 30.0


def test_criterion_06_case5_end_to_end():
    pts = [
        HomogeneousPoint(-1.0, 0.0),
        HomogeneousPoint(0.0, -1.0),
        HomogeneousPoint(0.6, -0.8),
    ]
    lams = pencil_eigenvalues(pts, X_EQ_1, Y_EQ_1)
    for got, want in zip(sorted(lams), (1.0, 2.25, 9.0)):
        assert abs(got - want) <= 1e-12
    sol = solve_three_points_two_lines(pts, X_EQ_1, Y_EQ_1)
    assert (sol.real_count, sol.complex_count) == (4, 0)
    circle = ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    assert min(six_vector_angle(c, circle) for c in sol) <= 1e-9
    for conic in sol:
        for p in pts:
            assert point_residual(conic, p) <= 1e-9
        for l in (X_EQ_1, Y_EQ_1):
            assert tangency_residual(conic, l) <= 1e-9


def test_criterion_07_prediction_realization_bulk():
    rng = random.Random(777)
    mismatches = []
    for _ in range(10_000):
        pts, line = random_4p1l(rng)
        pred = predict_count_4p1l(pts, line)
        sol = solve_four_points_line(pts, line)
        if (pred.predicted_real, pred.predicted_complex) != (sol.real_count, sol.complex_count):
            mismatches.append(("4p1l", pts, line, pred, sol.case_label))
    for case in (1, 2, 3, 4, 5):
        for _ in range(2_000):
            pts, l1, l2 = random_3p2l_case(rng, case)
            pred = predict_count_3p2l(pts, l1, l2)
            sol = solve_three_points_two_lines(pts, l1, l2)
            if (pred.predicted_real, pred.predicted_complex) != (sol.real_count, sol.complex_count):
                mismatches.append((f"3p2l/{case}", pts, (l1, l2), pred, sol.case_label))
    assert mismatches == [], mismatches[:3]


def test_criterion_08_duality_round_trip():
    lines = []
    for k in range(5):
        a = 2.0 * math.pi * k / 5.0
        lines.append(ProjectiveLine(math.cos(a), math.sin(a), -1.0))
    sol = solve([], lines)
    assert sol.real_count == 1
    want = ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    components_match(sol.real_conics[0], want, 1e-9)

    rng = random.Random(88)
    for _ in range(500):
        cm = ConicMatrix(*(rng.uniform(-1.0, 1.0) for _ in range(6)))
        back = _k.sym_adjugate(_k.sym_adjugate(cm.sym6()))
        d = _k.sym_det(cm.sym6())
        for got, wanted in zip(back, cm.sym6()):
            assert abs(got - d * wanted) <= 1e-10


def test_criterion_09_degenerate_crossing_guard():
    # crossing (1, 1) lies exactly on the side through the second and third
    # points: two pencil eigenvalue formulas coincide
    pts = [
        HomogeneousPoint(-1.0, 0.0),
        HomogeneousPoint(0.0, 3.0),
        HomogeneousPoint(2.0, -1.0),
    ]
    incs = [(p.x * 1.0 - 1.0, p.y * 1.0 - 1.0) for p in pts]
    (a1, a2), (b1, b2), (c1, c2) = incs
    lam1 = (a2 * b2) / (a1 * b1)
    lam2 = (a2 * c2) / (a1 * c1)
    assert abs(lam1 - lam2) <= 1e-9 * max(abs(lam1), abs(lam2))
    with pytest.raises(DegenerateCase):
        pencil_eigenvalues(pts, X_EQ_1, Y_EQ_1)
    # nudged barely past the exact-collinearity gate the full solver must
    # still refuse rather than emit a wrong four-solution answer
    nudged = [
        HomogeneousPoint(-1.0, 0.0),
        HomogeneousPoint(0.0, 3.0),
        HomogeneousPoint(2.0, -1.0 + 1.8e-9),
    ]
    with pytest.raises(DegenerateCase):
        solve_three_points_two_lines(nudged, X_EQ_1, Y_EQ_1)


def test_criterion_10_gallery_family_counts():
    assert len(gallery_names()) == 38
    for name in gallery_names():
        points, lines, expected = load_gallery_case(name)
        sol = solve(points, lines)
        assert sol.real_count == expected["real"], name
        pred = predict(points, lines)
        assert pred.predicted_real == expected["real"], name
