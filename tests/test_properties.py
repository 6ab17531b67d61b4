"""Property-based invariants over randomized configurations.

Example counts are kept modest; the heavy statistical sweeps live in the
acceptance tests.
"""
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import minconic._kernels as _k
from minconic import (
    ConicMatrix,
    HomogeneousPoint,
    ProjectiveLine,
    classify,
    point_residual,
    solve_four_points_line,
    tangency_residual,
)
from minconic.errors import DegenerateCase, MinconicError
from minconic.solvers import _tangency_quadratic

from conftest import six_vector_angle

coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False)


def quadrangle_ok(pts, margin=1e-3):
    vecs = [(x, y, 1.0) for x, y in pts]
    for i in range(2):
        for j in range(i + 1, 3):
            for k in range(j + 1, 4):
                d = _k.det3(vecs[i], vecs[j], vecs[k])
                scale = _k.norm3(vecs[i]) * _k.norm3(vecs[j]) * _k.norm3(vecs[k])
                if abs(d) <= margin * scale:
                    return False
    return True


def line_ok(pts, line, margin=1e-3):
    for x, y in pts:
        v = (x, y, 1.0)
        if abs(_k.dot3(v, line)) <= margin * _k.norm3(v) * _k.norm3(line):
            return False
    return True


points4 = st.tuples(
    st.tuples(coord, coord), st.tuples(coord, coord),
    st.tuples(coord, coord), st.tuples(coord, coord),
).filter(quadrangle_ok)

line3 = st.tuples(coord, coord, st.floats(min_value=-50.0, max_value=50.0)).filter(
    lambda l: math.hypot(l[0], l[1]) > 1e-2
)


@settings(max_examples=60, deadline=None)
@given(points4, line3)
def test_discriminant_identity_floats(pts, line):
    # quadratic discriminant == 16 * (det product) * (incidence product),
    # both computed from the same raw homogeneous data
    vecs = [(x, y, 1.0) for x, y in pts]
    xi1, xi2, xi3, _ = _k.diag_triangle(*vecs)
    q2, q1, q0 = _tangency_quadratic([_k.dot3(x, line) for x in (xi1, xi2, xi3)])
    disc = q1 * q1 - 4.0 * q2 * q0
    prod = 16.0
    for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        prod *= _k.det3(vecs[i], vecs[j], vecs[k])
    for v in vecs:
        prod *= _k.dot3(v, line)
    # compare against the size of the terms before cancellation: at a special
    # position both sides shrink to rounding noise of this magnitude
    lmax = max(_k.dot3(x, line) ** 2 for x in (xi1, xi2, xi3))
    scale = max(lmax * lmax, abs(prod), 1e-30)
    assert abs(disc - prod) <= 1e-9 * scale


@settings(max_examples=40, deadline=None)
@given(points4, line3)
def test_solutions_satisfy_all_constraints(pts, line):
    points = [HomogeneousPoint(x, y) for x, y in pts]
    pl = ProjectiveLine(*line)
    if not line_ok(pts, line):
        return
    try:
        sol = solve_four_points_line(points, pl)
    except MinconicError:
        return
    assert sol.total_count in (1, 2)
    for conic in sol:
        for p in points:
            assert point_residual(conic, p) < 1e-7
        assert tangency_residual(conic, pl) < 1e-6


@settings(max_examples=40, deadline=None)
@given(points4, line3, st.permutations(range(4)))
def test_point_order_is_irrelevant(pts, line, perm):
    if not line_ok(pts, line):
        return
    points = [HomogeneousPoint(x, y) for x, y in pts]
    pl = ProjectiveLine(*line)
    try:
        base = solve_four_points_line(points, pl)
    except MinconicError:
        return
    shuffled = solve_four_points_line([points[i] for i in perm], pl)
    assert shuffled.real_count == base.real_count
    assert shuffled.complex_count == base.complex_count
    for got in shuffled:
        assert min((six_vector_angle(got, w) for w in base), default=1.0) < 1e-7


affine = st.tuples(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
).filter(lambda m: abs(m[0] * m[3] - m[1] * m[2]) > 1e-2)


@settings(max_examples=40, deadline=None)
@given(points4, line3, affine)
def test_affine_equivariance(pts, line, m):
    """Transforming the input transforms the solutions: H^-T C H^-1."""
    if not line_ok(pts, line):
        return
    a, b, c, d, e, f = m
    points = [HomogeneousPoint(x, y) for x, y in pts]
    pl = ProjectiveLine(*line)
    try:
        base = solve_four_points_line(points, pl)
    except MinconicError:
        return
    if base.real_count == 0:
        return

    moved_pts = [HomogeneousPoint(a * x + b * y + e, c * x + d * y + f) for x, y in pts]
    # the line maps by the inverse transpose of H
    det = a * d - b * c
    inv = ((d / det, -b / det, (b * f - d * e) / det),
           (-c / det, a / det, (c * e - a * f) / det),
           (0.0, 0.0, 1.0))
    la = line[0] * inv[0][0] + line[1] * inv[1][0] + line[2] * inv[2][0]
    lb = line[0] * inv[0][1] + line[1] * inv[1][1] + line[2] * inv[2][1]
    lc = line[0] * inv[0][2] + line[1] * inv[1][2] + line[2] * inv[2][2]
    moved_line = ProjectiveLine(la, lb, lc)
    try:
        moved = solve_four_points_line(moved_pts, moved_line)
    except MinconicError:
        return
    assert moved.real_count == base.real_count

    def push(cm: ConicMatrix) -> ConicMatrix:
        cmat = cm.matrix()
        left = [[sum(inv[i][r] * cmat[i][j] for i in range(3)) for j in range(3)] for r in range(3)]
        full = [[sum(left[r][j] * inv[j][s] for j in range(3)) for s in range(3)] for r in range(3)]
        return ConicMatrix.from_matrix(full).normalized()

    want = [push(cm) for cm in base]
    assert len(moved.real_conics) == len(want)
    for got in moved:
        assert min(six_vector_angle(got, w) for w in want) < 1e-6


@settings(max_examples=60, deadline=None)
@given(st.tuples(*(st.floats(min_value=-5.0, max_value=5.0) for _ in range(6))))
def test_classify_total_on_nonzero_matrices(m6):
    if all(abs(x) < 1e-6 for x in m6):
        return
    cm = ConicMatrix.from_sym6(m6)
    assert classify(cm) is not None


def reference_normalized(v):
    """ConicMatrix.normalized as it was written with generator expressions,
    kept here as the yardstick of the unrolled form: the sum of squares, the
    first largest-magnitude entry as the lead, and the scale sign / n."""
    n = math.sqrt(sum(x * x for x in v))
    if n == 0.0:
        raise DegenerateCase("zero conic matrix cannot be normalized")
    if not n < math.inf:
        if not all(map(math.isfinite, v)):
            raise DegenerateCase(
                "conic matrix has a non-finite entry (overflow or NaN); it "
                "cannot be normalized"
            )
        _, exp = math.frexp(max(abs(x) for x in v))
        return reference_normalized(tuple(math.ldexp(x, -exp) for x in v))
    top = max(abs(x) for x in v)
    lead = next(x for x in v if abs(x) == top)
    k = (1.0 if lead > 0.0 else -1.0) / n
    return tuple(k * x for x in v)


def outcome(fn, v):
    """The bits of fn(v), or the type and message of what it raised."""
    try:
        return tuple(x.hex() for x in fn(v))
    except MinconicError as exc:
        return type(exc), str(exc)


def six(entries):
    return st.tuples(*([entries] * 6))


def magnitudes(lo, hi):
    return st.builds(
        lambda m, s: s * m, st.floats(min_value=lo, max_value=hi), st.sampled_from((1.0, -1.0))
    )


#: random entries; huge ones whose squares overflow; tiny ones whose squares
#: underflow, alone or beside a normal lead; entries tied in magnitude with
#: mixed signs, so that the first of the tie decides the sign
sym6_vectors = st.one_of(
    six(st.floats(allow_nan=False, allow_infinity=False, width=64)),
    six(st.floats(min_value=-1e6, max_value=1e6)),
    six(st.one_of(magnitudes(1e155, 1.7e308), st.just(0.0))),
    six(st.one_of(magnitudes(5e-324, 1e-150), st.just(0.0), st.just(-0.0))),
    st.tuples(magnitudes(1e-3, 1e3), six(magnitudes(5e-324, 1e-160))).map(
        lambda lv: (lv[1][0], lv[0]) + lv[1][2:]
    ),
    st.tuples(magnitudes(1e-300, 1e300), six(st.sampled_from((1.0, -1.0, 0.0, 0.5)))).map(
        lambda mv: tuple(mv[0] * s for s in mv[1])
    ),
)


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="from Python 3.12 sum() adds floats with compensation, so the "
    "generator-form reference no longer sums left to right",
)
@settings(max_examples=400, deadline=None)
@given(sym6_vectors)
def test_normalized_matches_the_generator_form_bit_for_bit(v):
    assert outcome(lambda m: ConicMatrix(*m).normalized().sym6(), v) == outcome(
        reference_normalized, v
    )


@pytest.mark.parametrize(
    "v",
    [(0.0,) * 6, (-0.0, 0.0, -0.0, 0.0, 0.0, -0.0), (1.0, math.inf, 0.0, 0.0, 0.0, 1.0),
     (math.nan, 1.0, 1.0, 0.0, 0.0, 1.0), (1e300, 0.0, -math.inf, 0.0, 0.0, 0.0)],
)
def test_normalized_refuses_zero_and_non_finite_with_the_reference_message(v):
    with pytest.raises(DegenerateCase) as exc:
        ConicMatrix(*v).normalized()
    assert outcome(reference_normalized, v) == (DegenerateCase, str(exc.value))
