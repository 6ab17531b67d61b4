"""Conic matrix layer: construction, classification, degeneracy handling."""
import math

import pytest

from minconic import (
    ConicClass,
    ConicMatrix,
    classify,
    pencil_eigenvalues,
    point_residual,
    rank,
    split_line_pair,
    tangency_residual,
)
from minconic.conics import adjugate
from minconic.errors import ComplexLinePair, DegenerateCase, GeneralPositionError, RankOne
from minconic.projective import HomogeneousPoint, ProjectiveLine

CIRCLE = ConicMatrix(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)


def conic_close(c1: ConicMatrix, c2: ConicMatrix, tol=1e-12) -> bool:
    u = c1.normalized().sym6()
    v = c2.normalized().sym6()
    return all(abs(a - b) <= tol for a, b in zip(u, v))


def test_constructors_agree():
    by_matrix = ConicMatrix.from_matrix(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)))
    by_sym6 = ConicMatrix.from_sym6((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    by_coeffs = ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    assert by_matrix == CIRCLE
    assert by_sym6 == CIRCLE
    assert by_coeffs == CIRCLE
    assert CIRCLE.six_vector() == (1.0, 0.0, 1.0, 0.0, 0.0, -1.0)


def test_coefficients_halve_the_cross_terms():
    c = ConicMatrix.from_coefficients((0.0, 2.0, 0.0, 4.0, 6.0, 1.0))
    assert (c.b, c.d, c.e) == (1.0, 2.0, 3.0)


def test_point_and_line_values():
    assert CIRCLE.point_value((1.0, 0.0, 1.0)) == 0.0
    assert CIRCLE.point_value((2.0, 0.0, 1.0)) == 3.0
    # x = 1 touches the unit circle
    assert CIRCLE.line_value((1.0, 0.0, -1.0)) == 0.0
    assert CIRCLE.line_value((1.0, 0.0, -2.0)) != 0.0


def test_normalized_is_unit_scale_with_positive_lead():
    c = CIRCLE.scaled(-7.0).normalized()
    n = math.sqrt(sum(x * x for x in c.sym6()))
    assert n == pytest.approx(1.0)
    assert c.a > 0.0
    assert conic_close(c, CIRCLE)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_normalized_rejects_non_finite_entries(bad):
    for i in range(6):
        entries = list(CIRCLE.sym6())
        entries[i] = bad
        with pytest.raises(DegenerateCase, match="non-finite"):
            ConicMatrix.from_sym6(entries).normalized()


def test_normalized_rejects_the_zero_matrix():
    with pytest.raises(DegenerateCase, match="zero conic"):
        ConicMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0).normalized()


def test_adjugate_involution():
    c = ConicMatrix(2.0, 1.0, -3.0, 0.5, 4.0, 1.0)
    back = adjugate(adjugate(c))
    d = c.det()
    for got, want in zip(back.sym6(), c.sym6()):
        assert got == pytest.approx(d * want, rel=1e-12)


@pytest.mark.parametrize(
    "coeffs, cls",
    [
        ((1.0, 0.0, 1.0, 0.0, 0.0, -1.0), ConicClass.REAL_ELLIPSE),
        ((1.0, 0.0, 1.0, 0.0, 0.0, 1.0), ConicClass.IMAGINARY_ELLIPSE),
        ((1.0, 0.0, 0.0, 0.0, -1.0, 0.0), ConicClass.PARABOLA),
        ((0.0, 1.0, 0.0, 0.0, 0.0, -1.0), ConicClass.HYPERBOLA),
        ((1.0, 0.0, -1.0, 0.0, 0.0, 0.0), ConicClass.LINE_PAIR),
        ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), ConicClass.DOUBLE_LINE),
        ((1.0, 0.0, 1.0, 0.0, 0.0, 0.0), ConicClass.POINT),
    ],
)
def test_classify(coeffs, cls):
    assert classify(ConicMatrix.from_coefficients(coeffs)) is cls


def test_classify_is_scale_blind():
    for k in (3.0, -3.0, 1e-8, 1e8):
        assert classify(CIRCLE.scaled(k)) is ConicClass.REAL_ELLIPSE


def test_rank():
    assert rank(CIRCLE) == 3
    assert rank(ConicMatrix.from_coefficients((1.0, 0.0, -1.0, 0.0, 0.0, 0.0))) == 2
    assert rank(ConicMatrix.from_coefficients((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))) == 1


def test_residuals_vanish_exactly_on_the_locus():
    p = HomogeneousPoint(math.cos(0.7), math.sin(0.7))
    assert point_residual(CIRCLE, p) < 1e-15
    assert point_residual(CIRCLE, HomogeneousPoint(2.0, 0.0)) > 0.1
    l = ProjectiveLine(1.0, 0.0, -1.0)
    assert tangency_residual(CIRCLE, l) < 1e-15
    assert tangency_residual(CIRCLE, ProjectiveLine(1.0, 0.0, -2.0)) > 0.1


def test_residuals_are_scale_invariant():
    p = (6.0, 0.0, 2.0)  # the point (3, 0) at a non-unit scale
    r1 = point_residual(CIRCLE, p)
    r2 = point_residual(CIRCLE.scaled(100.0), (3.0, 0.0, 1.0))
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_pencil_eigenvalues_known_ratios():
    pts = [
        HomogeneousPoint(-1.0, 0.0),
        HomogeneousPoint(0.0, -1.0),
        HomogeneousPoint(0.6, -0.8),
    ]
    l1 = ProjectiveLine(1.0, 0.0, -1.0)
    l2 = ProjectiveLine(0.0, 1.0, -1.0)
    lams = pencil_eigenvalues(pts, l1, l2)
    assert sorted(lams) == pytest.approx([1.0, 2.25, 9.0], abs=1e-12)


def test_pencil_eigenvalue_tie_raises():
    # line crossing (1, 1) sits on the side through (0, 3) and (2, -1)
    pts = [
        HomogeneousPoint(-1.0, 0.0),
        HomogeneousPoint(0.0, 3.0),
        HomogeneousPoint(2.0, -1.0),
    ]
    l1 = ProjectiveLine(1.0, 0.0, -1.0)
    l2 = ProjectiveLine(0.0, 1.0, -1.0)
    with pytest.raises(DegenerateCase):
        pencil_eigenvalues(pts, l1, l2)


def test_pencil_eigenvalues_incident_point_raises():
    pts = [
        HomogeneousPoint(1.0, 5.0),  # on x = 1
        HomogeneousPoint(0.0, -1.0),
        HomogeneousPoint(0.6, -0.8),
    ]
    l1 = ProjectiveLine(1.0, 0.0, -1.0)
    l2 = ProjectiveLine(0.0, 1.0, -1.0)
    with pytest.raises(GeneralPositionError):
        pencil_eigenvalues(pts, l1, l2)


def outer_sym(l1, l2):
    u, v = l1.vec(), l2.vec()
    return ConicMatrix.from_matrix(
        tuple(
            tuple(0.5 * (u[i] * v[j] + u[j] * v[i]) for j in range(3))
            for i in range(3)
        )
    )


def test_split_line_pair_recovers_both_lines():
    cases = [
        (ProjectiveLine(1.0, 1.0, 0.0), ProjectiveLine(1.0, -1.0, 0.0)),
        (ProjectiveLine(1.0, 0.0, -1.0), ProjectiveLine(0.0, 1.0, 2.0)),
        (ProjectiveLine(2.0, -3.0, 0.5), ProjectiveLine(-1.0, 0.25, 4.0)),
    ]
    for la, lb in cases:
        pair = outer_sym(la, lb)
        g1, g2 = split_line_pair(pair)
        rebuilt = outer_sym(g1, g2)
        assert conic_close(rebuilt, pair, tol=1e-10)


def test_split_line_pair_rejects_other_ranks():
    with pytest.raises(ValueError):
        split_line_pair(CIRCLE)
    with pytest.raises(RankOne):
        split_line_pair(ConicMatrix.from_coefficients((1.0, 0.0, 0.0, 0.0, 0.0, 0.0)))
    with pytest.raises(ComplexLinePair):
        split_line_pair(ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, 0.0)))
