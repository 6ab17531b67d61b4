"""Conic matrix layer: construction, classification, degeneracy handling."""
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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


def test_normalized_survives_overflowing_squares():
    # every entry is finite but their squares overflow: the norm is taken
    # after an exact power-of-two rescale instead of returning a zero conic
    c = ConicMatrix(1e200, 0.0, 1e200, 0.0, 0.0, -1e200).normalized()
    assert conic_close(c, CIRCLE, tol=1e-15)
    assert math.fsum(x * x for x in c.sym6()) == pytest.approx(1.0)
    big = ConicMatrix(-3e300, 1e299, 2e300, 0.0, 5.0, 1e299).normalized()
    assert big.c < 0.0 < big.a  # the first largest entry, -3e300, turns positive
    assert conic_close(big, ConicMatrix(-3.0, 0.1, 2.0, 0.0, 0.0, 0.1), tol=1e-15)


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


@pytest.mark.parametrize("k", [1e-200, 1.0, 1e200])
def test_classify_full_rank_is_blind_to_extreme_scales(k):
    # the leading minor k^2 would underflow or overflow unscaled
    assert classify(ConicMatrix(k, 0.0, k, 0.0, 0.0, -k)) is ConicClass.REAL_ELLIPSE


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


def test_pencil_eigenvalues_accept_plain_triples():
    pts = [HomogeneousPoint(-1.0, 0.0), HomogeneousPoint(0.0, -1.0), HomogeneousPoint(0.6, -0.8)]
    l1 = ProjectiveLine(1.0, 0.0, -1.0)
    l2 = ProjectiveLine(0.0, 1.0, -1.0)
    as_tuples = pencil_eigenvalues([p.vec() for p in pts], l1.vec(), l2.vec())
    assert as_tuples == pencil_eigenvalues(pts, l1, l2)
    assert pencil_eigenvalues([list(p.vec()) for p in pts], list(l1.vec()), l2) == as_tuples


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


def test_split_line_pair_rejects_non_finite_entries():
    for bad in (math.inf, math.nan):
        entries = list(outer_sym(ProjectiveLine(1.0, 1.0, 0.0), ProjectiveLine(1.0, -1.0, 0.0)).sym6())
        entries[4] = bad
        with pytest.raises(DegenerateCase, match="non-finite"):
            split_line_pair(ConicMatrix.from_sym6(entries))


def eigvalsh_decision(c: ConicMatrix, rank_zero=1e-9) -> str:
    """The split's rank and sign decision, read off numpy's eigenvalues of
    the same equilibrated matrix, or "tie" when an eigenvalue is within
    numpy's own rounding (a few eps times the spectral radius) of the gate.

    Such a tie has no reference answer: for ConicMatrix(0, 1, 0, 0, 1e-9,
    1e-18) numpy puts the small eigenvalue 2.7e-16 above the gate, while its
    exact value (9.99999999e-10, against a gate of 1.0000000005e-9) is below.
    """
    raw = c.matrix()
    scales = [max(abs(x) for x in row) for row in raw]
    scales = [1.0 / math.sqrt(t) if t > 0.0 else 1.0 for t in scales]
    balanced = [[raw[r][s] * scales[r] * scales[s] for s in range(3)] for r in range(3)]
    w = np.linalg.eigvalsh(np.array(balanced))
    top = float(np.abs(w).max())
    if top == 0.0:
        return "RankOne"
    gate = rank_zero * top
    if any(abs(abs(x) - gate) <= 64.0 * sys.float_info.epsilon * top for x in w):
        return "tie"
    nonzero = [float(x) for x in w if abs(x) > gate]
    if len(nonzero) == 3:
        return "ValueError"
    if len(nonzero) <= 1:
        return "RankOne"
    return "ComplexLinePair" if nonzero[0] * nonzero[1] > 0.0 else "split"


def split_decision(c: ConicMatrix) -> str:
    try:
        split_line_pair(c)
    except (RankOne, ComplexLinePair) as exc:
        return type(exc).__name__
    except ValueError:
        return "ValueError"
    return "split"


unit = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
direction = st.tuples(unit, unit, unit).filter(lambda v: max(map(abs, v)) > 1e-3)
# a diagonal congruence diag(10^k) keeps rank and inertia and spreads the
# entries over 1e-200 to 1e200
exponents = st.tuples(*[st.integers(min_value=-100, max_value=100)] * 3)


def congruent(m6, ks):
    s = [10.0 ** k for k in ks]
    a, b, c, d, e, f = m6
    return ConicMatrix(
        a * s[0] * s[0], b * s[0] * s[1], c * s[1] * s[1],
        d * s[0] * s[2], e * s[1] * s[2], f * s[2] * s[2],
    )


@st.composite
def conics_of_each_kind(draw):
    kind = draw(st.sampled_from(["real pair", "complex pair", "double line", "full rank"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "full rank":
        m6 = draw(st.tuples(*[unit] * 6))
    else:
        l, m = ProjectiveLine(*draw(direction)), ProjectiveLine(*draw(direction))
        if kind == "real pair":
            m6 = outer_sym(l, m).sym6()
        elif kind == "complex pair":
            m6 = tuple(x + y for x, y in zip(outer_sym(l, l).sym6(), outer_sym(m, m).sym6()))
        else:
            m6 = outer_sym(l, l).sym6()
    return congruent(tuple(sign * x for x in m6), draw(exponents))


@settings(max_examples=400, deadline=None)
@given(conics_of_each_kind())
def test_split_decisions_agree_with_eigvalsh(c):
    want = eigvalsh_decision(c)
    assume(want != "tie")
    assert split_decision(c) == want


@pytest.mark.parametrize("ratio", [1e-3, 1e-6, 1e-8, 3e-9, 2e-9, 5e-10, 1e-12, 0.0])
def test_split_decisions_agree_with_eigvalsh_near_the_rank_gate(ratio):
    # rank-2 matrices whose second eigenvalue is close to the 1e-9 gate: the
    # determinant is read through the singular point, so the zero eigenvalue
    # stays below the gate even when the second one barely clears it
    rng = np.random.default_rng(11)
    for _ in range(60):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        for second in (ratio, -ratio):
            m = q @ np.diag([1.0, second, 0.0]) @ q.T
            c = ConicMatrix.from_matrix(((m + m.T) / 2.0).tolist())
            assert split_decision(c) == eigvalsh_decision(c)


def eigvalsh_rank_and_class(c: ConicMatrix, rank_zero=1e-9):
    """rank() and the degenerate classes of classify(), read off numpy's
    eigenvalues of the raw matrix: (rank, class), with class None at rank
    3, or None when an eigenvalue is within numpy's own rounding of the gate
    (the skip rule of eigvalsh_decision)."""
    w = np.linalg.eigvalsh(np.array(c.matrix()))
    top = float(np.abs(w).max())
    gate = rank_zero * top
    if any(abs(abs(x) - gate) <= 64.0 * sys.float_info.epsilon * top for x in w):
        return None
    nonzero = [float(x) for x in w if abs(x) > gate]
    if len(nonzero) <= 1:
        return len(nonzero), ConicClass.DOUBLE_LINE
    if len(nonzero) == 2:
        pair = ConicClass.LINE_PAIR if nonzero[0] * nonzero[1] < 0.0 else ConicClass.POINT
        return 2, pair
    return 3, None


def rotation(quaternion):
    w, x, y, z = (v / math.sqrt(sum(u * u for u in quaternion)) for v in quaternion)
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )


quaternions = st.tuples(unit, unit, unit, unit).filter(lambda q: max(map(abs, q)) > 1e-2)
#: log10 of the eigenvalue magnitudes beside the leading 1: both in the band
#: around the 1e-9 rank gate, one of them, or neither
spectra = st.one_of(
    st.tuples(st.floats(-11.0, -7.0), st.floats(-11.0, -7.0)),
    st.tuples(st.floats(-7.0, 0.0), st.floats(-11.0, -7.0)),
    st.tuples(st.floats(-7.0, 0.0), st.floats(-7.0, 0.0)),
)


@settings(max_examples=600, deadline=None)
@given(
    quaternions,
    spectra,
    st.tuples(*[st.sampled_from([1.0, -1.0])] * 3),
    st.integers(min_value=-100, max_value=100),
)
def test_rank_and_classify_agree_with_eigvalsh(q, logs, signs, k):
    # rotations of diag(1, +-r, +-s) times 10^k; rank and classify read their
    # eigenvalues off the closed form, and two eigenvalues at the gate are
    # where the cubic alone resolves them only to about sqrt(eps)
    d = (signs[0], signs[1] * 10.0 ** logs[0], signs[2] * 10.0 ** logs[1])
    r = rotation(q)
    scale = 10.0 ** k
    # from_matrix reads the upper triangle, so c.matrix() is symmetric
    c = ConicMatrix.from_matrix([
        [scale * sum(r[i][n] * d[n] * r[j][n] for n in range(3)) for j in range(3)]
        for i in range(3)
    ])
    want = eigvalsh_rank_and_class(c)
    assume(want is not None)
    assert rank(c) == want[0]
    if want[1] is None:
        assert not classify(c).is_degenerate
    else:
        assert classify(c) is want[1]
