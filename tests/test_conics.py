"""Conic matrix layer: construction, classification, degeneracy handling."""
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from minconic import (
    ConicClass,
    ConicMatrix,
    MinconicError,
    classify,
    pencil_eigenvalues,
    point_residual,
    rank,
    solve,
    tangency_residual,
)
from minconic import _kernels as _k
from minconic import conics
from minconic.conics import split_line_pair
from minconic.errors import (
    ComplexLinePair,
    DegenerateCase,
    GeneralPositionError,
    NonFiniteInput,
    RankOne,
    UnsupportedCount,
)
from minconic.projective import HomogeneousPoint, ProjectiveLine

from conftest import conic_from_rows, conic_rows
from test_single_pass import _benchmark_workloads

CIRCLE = ConicMatrix(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)


def scaled(c: ConicMatrix, k: float) -> ConicMatrix:
    return ConicMatrix(*(k * v for v in c.sym6()))


def conic_close(c1: ConicMatrix, c2: ConicMatrix, tol=1e-12) -> bool:
    u = c1.normalized().sym6()
    v = c2.normalized().sym6()
    return all(abs(a - b) <= tol for a, b in zip(u, v))


def test_constructors_agree():
    by_sym6 = ConicMatrix.from_sym6((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    by_coeffs = ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))
    assert by_sym6 == CIRCLE
    assert by_coeffs == CIRCLE
    assert CIRCLE.sym6() == (1.0, 0.0, 1.0, 0.0, 0.0, -1.0)


def test_coefficients_halve_the_cross_terms():
    c = ConicMatrix.from_coefficients((0.0, 2.0, 0.0, 4.0, 6.0, 1.0))
    assert (c.b, c.d, c.e) == (1.0, 2.0, 3.0)


def test_point_and_line_values():
    assert CIRCLE.point_value((1.0, 0.0, 1.0)) == 0.0
    assert CIRCLE.point_value((2.0, 0.0, 1.0)) == 3.0
    # x = 1 touches the unit circle: l^T adj(C) l is zero
    adj = _k.sym_adjugate(CIRCLE.sym6())
    assert _k.sym_eval(adj, (1.0, 0.0, -1.0)) == 0.0
    assert _k.sym_eval(adj, (1.0, 0.0, -2.0)) != 0.0


def test_normalized_is_unit_scale_with_positive_lead():
    c = scaled(CIRCLE, -7.0).normalized()
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
    back = _k.sym_adjugate(_k.sym_adjugate(c.sym6()))
    d = _k.sym_det(c.sym6())
    for got, want in zip(back, c.sym6()):
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
        assert classify(scaled(CIRCLE, k)) is ConicClass.REAL_ELLIPSE


@pytest.mark.parametrize("k", [1e-200, 1.0, 1e200])
def test_classify_full_rank_is_blind_to_extreme_scales(k):
    # the leading minor k^2 would underflow or overflow unscaled
    assert classify(ConicMatrix(k, 0.0, k, 0.0, 0.0, -k)) is ConicClass.REAL_ELLIPSE


def test_rank():
    assert rank(CIRCLE) == 3
    assert rank(ConicMatrix.from_coefficients((1.0, 0.0, -1.0, 0.0, 0.0, 0.0))) == 2
    assert rank(ConicMatrix.from_coefficients((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))) == 1


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rank_and_classify_refuse_a_non_finite_entry(bad):
    # the oracle's rank gives such a conic rank 0; the public rank refuses it
    for i in range(6):
        c = ConicMatrix(*(bad if j == i else x for j, x in enumerate(CIRCLE.sym6())))
        for fn in (rank, classify):
            with pytest.raises(ValueError, match="non-finite entry"):
                fn(c)


def test_rank_and_classify_sweep_only_the_conics_the_bound_cannot_clear(monkeypatch):
    # |det| > 2 RANK_ZERO F^3 proves rank 3; the Jacobi sweep sees only the
    # conics it does not clear, once each for rank, and once more for
    # classify's signs of a line pair or point
    m6s = []
    for _, points, lines in _benchmark_workloads().mixed_corpus(random.Random(1), 20):
        try:
            m6s += [cm.sym6() for cm in solve(points, lines).real_conics]
        except MinconicError:
            pass
    uncleared = []
    for m6 in m6s:
        a, b, c, d, e, f = m6
        fro = math.sqrt(a * a + c * c + f * f + 2.0 * (b * b + d * d + e * e))
        ratio = abs(np.linalg.det(np.array([[a, b, d], [b, c, e], [d, e, f]]))) / fro**3
        assert not 1.99e-9 < ratio < 2.01e-9  # clear of the bound's own rounding
        if ratio < 2e-9:
            uncleared.append(m6)
    assert len(m6s) > 200 and 0 < len(uncleared) < len(m6s) // 10

    sent = []
    sweep = conics._sweep

    def counted(*m6):
        sent.append(m6)
        return sweep(*m6)

    monkeypatch.setattr(conics, "_sweep", counted)
    ranks = [rank(ConicMatrix(*m6)) for m6 in m6s]
    assert sent == uncleared
    sent.clear()
    for m6 in m6s:
        classify(ConicMatrix(*m6))
    twice = [m6 for m6, r in zip(m6s, ranks) if r == 2]
    assert twice and sorted(sent) == sorted(uncleared + twice)


def test_residuals_vanish_exactly_on_the_locus():
    p = HomogeneousPoint(math.cos(0.7), math.sin(0.7))
    assert point_residual(CIRCLE, p) < 1e-15
    assert point_residual(CIRCLE, HomogeneousPoint(2.0, 0.0)) > 0.1
    l = ProjectiveLine(1.0, 0.0, -1.0)
    assert tangency_residual(CIRCLE, l) < 1e-15
    assert tangency_residual(CIRCLE, ProjectiveLine(1.0, 0.0, -2.0)) > 0.1


@pytest.mark.parametrize(
    "residual, conic, element",
    [
        (point_residual, CIRCLE, (0.0, 0.0, 0.0)),  # a zero element
        (tangency_residual, CIRCLE, (0.0, 0.0, 0.0)),
        (point_residual, ConicMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.0)),  # a zero conic
        (tangency_residual, ConicMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.0)),
        (tangency_residual, ConicMatrix(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),  # rank 1: adj = 0
    ],
)
def test_a_residual_with_a_zero_divisor_is_nan(residual, conic, element):
    # NaN, as certify reads the same divisors, and not a bare ZeroDivisionError
    assert math.isnan(residual(conic, element))


def test_residuals_are_scale_invariant():
    p = (6.0, 0.0, 2.0)  # the point (3, 0) at a non-unit scale
    r1 = point_residual(CIRCLE, p)
    r2 = point_residual(scaled(CIRCLE, 100.0), (3.0, 0.0, 1.0))
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


@pytest.mark.parametrize("count", [2, 4])
def test_pencil_eigenvalues_names_a_wrong_point_count(count):
    pts = [(-1.0, 0.0, 1.0), (0.0, -1.0, 1.0), (0.6, -0.8, 1.0), (-0.6, 0.8, 1.0)][:count]
    with pytest.raises(UnsupportedCount, match="exactly three points required"):
        pencil_eigenvalues(pts, (1.0, 0.0, -1.0), (0.0, 1.0, -1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["point 0", "point 2", "line 0", "line 1"])
def test_pencil_eigenvalues_names_a_non_finite_coordinate(where, bad):
    # named as solve() names it, not returned as NaN eigenvalues or met as
    # a point "on an input line"
    pts = [(-1.0, 0.0, 1.0), (0.0, -1.0, 1.0), (0.6, -0.8, 1.0)]
    lines = [(1.0, 0.0, -1.0), (0.0, 1.0, -1.0)]
    kind, idx = where.split()
    elements = pts if kind == "point" else lines
    elements[int(idx)] = (bad, 0.0, 1.0)
    with pytest.raises(NonFiniteInput, match=f"^{where} has a non-finite coordinate: "):
        pencil_eigenvalues(pts, *lines)


def test_pencil_eigenvalues_incidence_tolerance_is_relative():
    # a point 1e-6 off the line x = 1e8 is on it at the relative tolerance;
    # one 1e7 off is not
    l1 = ProjectiveLine(1.0, 0.0, -1e8)
    l2 = ProjectiveLine(0.0, 1.0, -1.0)
    rest = [HomogeneousPoint(0.0, -1.0), HomogeneousPoint(0.6, -0.8)]
    with pytest.raises(GeneralPositionError):
        pencil_eigenvalues([HomogeneousPoint(1e8 * (1.0 + 1e-14), 0.0)] + rest, l1, l2)
    assert len(pencil_eigenvalues([HomogeneousPoint(1e8 * 1.1, 0.0)] + rest, l1, l2)) == 3


def outer_sym(l1, l2):
    u, v = l1.vec(), l2.vec()
    return conic_from_rows(
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
    with pytest.raises(RankOne, match="zero matrix"):
        split_line_pair(ConicMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))


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
    raw = conic_rows(c)
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
            c = conic_from_rows(((m + m.T) / 2.0).tolist())
            assert split_decision(c) == eigvalsh_decision(c)


def eigvalsh_rank_and_class(c: ConicMatrix, rank_zero=1e-9):
    """rank() and the degenerate classes of classify(), read off numpy's
    eigenvalues of the raw matrix: (rank, class), with class None at rank
    3, or None when an eigenvalue is within numpy's own rounding of the gate
    (the skip rule of eigvalsh_decision)."""
    w = np.linalg.eigvalsh(np.array(conic_rows(c)))
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
    # conic_from_rows reads the upper triangle, so conic_rows(c) is symmetric
    c = conic_from_rows([
        [scale * sum(r[i][n] * d[n] * r[j][n] for n in range(3)) for j in range(3)]
        for i in range(3)
    ])
    want = eigvalsh_rank_and_class(c)
    assume(want is not None)
    assert rank(c) == want[0]
    if want[1] is None:
        assert classify(c) not in (ConicClass.LINE_PAIR, ConicClass.DOUBLE_LINE, ConicClass.POINT)
    else:
        assert classify(c) is want[1]
