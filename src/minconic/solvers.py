"""Closed-form conic solvers for five-element point/line configurations.

Every solver reduces its input to a conic pencil over a complete quadrangle:
three or four of the quadrangle points are given, the remaining one moves
along a line with parameter t, and the pencil parameter s picks the member.
Tangency constraints then become low-degree polynomial equations in (s, t)
that are solved in closed form, with at most three square roots and no
eigenvalue solve: the generic three-point/two-line case eliminates one
unknown between its two tangency quadratics. Configurations with more lines
than points are handled through duality.

Solution counts are exact: `real_count + complex_count` equals the number of
non-degenerate solutions of the underlying polynomial system over the
complex numbers for the detected case.

Each family is an analysis and a builder. The analysis reads only the input:
it raises every refusal that needs nothing more (collinear points, a line
through two quadrangle points or two diagonal-triangle vertices, the
three-point/two-line special positions, a sign product that underflows to
exactly 0.0, the case-2 and case-3 denominators, the case-5 eigenvalue tie)
and returns the family's count prediction, made from sign products, with the
state the builder needs. The builder finds the pencil roots and members and
takes its real and complex counts from that prediction; a divisor of its own
that underflows to exactly 0.0 raises a named DegenerateCase. One front door
dualizes a lines-heavy input and runs the analysis for predict() and solve()
alike, so predict() refuses every input that solve()'s analysis refuses, and
prediction and realization agree by construction.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _kernels as _k
from ._frozen import fast_init
from .conics import (
    ConicMatrix,
    PencilEigenvalues,
    _normalized_conic,
    _pencil_eigenvalues,
    _residual,
    _stable_roots,
    _sym6_frobenius,
)
from .errors import (
    CaseDegeneracy,
    DegenerateCase,
    GeneralPositionError,
    MalformedCoordinates,
    NonFiniteInput,
    UnsupportedCount,
)
from .projective import Vec3, _vec
from .selfpolar import _no_collinear_triple
from .tolerances import DEFAULT, PARAMETER, Tolerances

KINDS = {
    (5, 0): "5p",
    (4, 1): "4p1l",
    (3, 2): "3p2l",
    (2, 3): "2p3l",
    (1, 4): "1p4l",
    (0, 5): "5l",
}

#: the count errors of the families whose functions take a fixed number of lines
_FOUR_POINTS = "exactly four points required"
_THREE_POINTS = "exactly three points required"


@fast_init
@dataclass(frozen=True)
class CountPrediction:
    """Solution count predicted from sign predicates alone, without solving."""

    predicted_real: int
    predicted_complex: int
    rule: str
    predicate: Optional[float] = None

    @property
    def total(self) -> int:
        return self.predicted_real + self.predicted_complex


@fast_init
@dataclass(frozen=True)
class CaseContext:
    """How the moving quadrangle point was parameterized.

    `anchor` is the point the parameter multiplies and `offset` the added
    vector, so the moving point of the root (s, t) is t*anchor + offset. For
    most cases anchor is the off-line point and offset the line intersection;
    case 2 walks the moving point along the second line instead.
    """

    anchor: Vec3
    offset: Vec3


@dataclass
class SolveDiagnostics:
    case_label: str
    backend: str = _k.BACKEND
    allocation: tuple[int, ...] = (0, 1, 2)
    lines_swapped: bool = False
    discriminant: Optional[float] = None
    eigenvalues: Optional[PencilEigenvalues] = None
    parameters: tuple[tuple[float, float], ...] = ()
    prediction: Optional[CountPrediction] = None
    context: Optional[CaseContext] = None
    #: the cancellation alarm of one diagonal triangle (see
    #: _kernels.diag_triangle): for 4p1l that of the four points, for 5p that
    #: of the first four points, for 3p2l that of the quadrangle of the last
    #: root built (None when no conic is real); a dual family reports the
    #: triangle of its dual-plane problem
    triangle_deviation: Optional[float] = None
    double_root: bool = False
    max_incidence_residual: float = 0.0
    max_tangency_residual: float = 0.0


@fast_init
@dataclass(frozen=True)
class SolutionSet:
    """Non-degenerate real conics satisfying a minimal configuration."""

    real_conics: tuple[ConicMatrix, ...]
    complex_count: int
    case_label: str
    diagnostics: SolveDiagnostics

    @property
    def real_count(self) -> int:
        return len(self.real_conics)

    @property
    def total_count(self) -> int:
        return len(self.real_conics) + self.complex_count

    def __iter__(self):
        return iter(self.real_conics)

    def __len__(self) -> int:
        return len(self.real_conics)


_FIVE_POINT_PREDICTION = CountPrediction(1, 0, "unique conic through five points")


def _with_residuals(sol: SolutionSet, vecs: Sequence[Vec3], lvs: Sequence[Vec3]) -> SolutionSet:
    """Record the worst incidence and tangency residuals of sol's conics.

    The solver cores leave the residuals at zero: the dual path measures its
    adjugated conics against the original input instead of measuring the
    dual-plane conics it never returns. vecs and lvs are the triples _vec
    read, as point_residual and tangency_residual read them. Each conic's
    norm and adjugate are computed once.
    """
    pin = 0.0
    tan = 0.0
    for cm in sol.real_conics:
        m = cm.sym6()
        norm = _sym6_frobenius(m)
        for v in vecs:
            pin = max(pin, _residual(m, norm, v))
        if lvs:
            adj = _k.sym_adjugate(m)
            adj_norm = _sym6_frobenius(adj)
            for v in lvs:
                tan = max(tan, _residual(adj, adj_norm, v))
    sol.diagnostics.max_incidence_residual = pin
    sol.diagnostics.max_tangency_residual = tan
    return sol


# ---------------------------------------------------------------------------
# five points


def solve_five_points(points: Sequence) -> ConicMatrix:
    """The unique conic through five points in general position.

    Returns the normalized conic matrix; use solve() for the SolutionSet
    wrapper with diagnostics.
    """
    vecs, lvs = _triples(points, (), "exactly five points required")
    return _solve(vecs, lvs, DEFAULT.geometry).real_conics[0]


def _analyse_5p(vecs: Sequence[Vec3], lvs: Sequence[Vec3], geometry: float):
    _no_collinear_triple(vecs, geometry)
    return _FIVE_POINT_PREDICTION, vecs


def _build_5p(vecs: Sequence[Vec3], prediction: CountPrediction) -> SolutionSet:
    # the conic is fitted on the diagonal triangle of the first four points
    m6, dev = _k.conic_from_five_points(*vecs)
    if m6 is None:
        raise DegenerateCase("five-point fit: the diagonal triangle's determinant is exactly 0.0")
    diag = SolveDiagnostics(case_label="5p", triangle_deviation=dev, prediction=prediction)
    return SolutionSet((_normalized_conic(m6),), 0, "5p", diag)


# ---------------------------------------------------------------------------
# four points + one line


def _tangency_quadratic(d: Vec3) -> tuple[float, float, float]:
    """Coefficients (q2, q1, q0) of the pencil-parameter tangency quadratic.

    Roots are the pencil parameters of members tangent to a line l; only the
    three squared vertex incidences d = (xi1 . l, xi2 . l, xi3 . l) enter.
    """
    d1, d2, d3 = d
    return (d3 * d3, -(d1 * d1 - d2 * d2 + d3 * d3), d1 * d1)


def _pencil_member(xi1: Vec3, xi2: Vec3, xi3: Vec3, s: float) -> ConicMatrix:
    """The normalized pencil member at parameter s of the diagonal triangle
    (xi1, xi2, xi3); DegenerateCase within PARAMETER of the line pairs at
    s = 0 and s = 1."""
    if abs(s) <= PARAMETER or abs(s - 1.0) <= PARAMETER:
        raise DegenerateCase(f"pencil member at s={s!r} is degenerate")
    return _normalized_conic(_k.conic_from_pencil(xi1, xi2, xi3, s))


def _undecided(what: str) -> DegenerateCase:
    """The error for a sign product that came out exactly zero: one of its
    factors is zero or underflowed, so its sign decides nothing."""
    return DegenerateCase(
        f"{what} is exactly 0.0: a factor vanished or underflowed, so the "
        "real/complex count is undecided"
    )


def predict_count_4p1l(points: Sequence, line) -> CountPrediction:
    """Real-count prediction for four points and a line from sign tests only.

    The product of the four point-triple determinants and the four
    point-line incidences has the sign of the tangency discriminant: the
    parity of orientation flips times the parity of side flips decides
    between two and zero real solutions. A line through one of the seven
    special points (four quadrangle points, three diagonal-triangle
    vertices) forces a unique solution.
    """
    return _front_door(*_triples(points, (line,), _FOUR_POINTS), DEFAULT.geometry)[0]


def solve_four_points_line(points: Sequence, line) -> SolutionSet:
    """Conics through four points tangent to a line.

    Generic position gives two solutions (real or a complex pair); a line
    through one of the points or through a vertex of the diagonal triangle
    gives exactly one. A line through two points or two triangle vertices
    admits no non-degenerate solution and is rejected as a general-position
    failure.
    """
    return _solve(*_triples(points, (line,), _FOUR_POINTS), DEFAULT.geometry)


def _analyse_4p1l(vecs: Sequence[Vec3], lvs: Sequence[Vec3], geometry: float):
    lv = lvs[0]
    dets = _no_collinear_triple(vecs, geometry)

    # each point-line and vertex-line dot, and each norm, once; a point or
    # vertex is on the line when |dot| is within the geometric tolerance
    # times the two norms: the 4p1l family's one incidence band test
    nl = _k.norm3(lv)
    dots = [_k.dot3(v, lv) for v in vecs]
    on_line = [i for i, v in enumerate(vecs) if abs(dots[i]) <= geometry * _k.norm3(v) * nl]
    if len(on_line) >= 2:
        raise GeneralPositionError(
            f"line is a side of the quadrangle: it contains points "
            f"{on_line[0]} and {on_line[1]}",
            tuple(on_line[:2]),
        )

    *xi, dev = _k.diag_triangle(*vecs)
    vdots = tuple(_k.dot3(x, lv) for x in xi)
    on_vertex = [j for j, x in enumerate(xi) if abs(vdots[j]) <= geometry * _k.norm3(x) * nl]
    if len(on_vertex) >= 2:
        raise GeneralPositionError(
            "line is a side of the diagonal triangle (through two of its "
            "vertices); only degenerate pencil members touch it",
            tuple(on_vertex[:2]),
        )

    # the product of the four point-triple determinants and the four
    # incidences
    pred = 1.0
    for d in dets:
        pred *= d
    for d in dots:
        pred *= d
    if on_line:
        prediction = CountPrediction(1, 0, "unique: line through a quadrangle point", pred)
    elif on_vertex:
        prediction = CountPrediction(1, 0, "unique: line through a diagonal-triangle vertex", pred)
    elif pred == 0.0:
        raise _undecided("orientation/side sign product")
    elif pred > 0.0:
        prediction = CountPrediction(2, 0, "orientation/side sign product positive", pred)
    else:
        prediction = CountPrediction(0, 2, "orientation/side sign product negative", pred)
    return prediction, (vdots, xi, dev, on_line, on_vertex)


def _build_4p1l(state, prediction: CountPrediction) -> SolutionSet:
    vdots, xi, dev, on_line, on_vertex = state
    q2, q1, q0 = _tangency_quadratic(vdots)
    if on_line:
        # tangency is pinned at the incident point: the two roots coincide
        scale = max(abs(q2), abs(q1), abs(q0))
        num, den = (-q0, q1) if abs(q2) <= 1e-14 * scale else (-q1, 2.0 * q2)
        if den == 0.0:
            raise DegenerateCase(
                "line through a quadrangle point: the tangency quadratic's "
                "coefficients are exactly 0.0 (underflow)"
            )
        roots = [num / den]
        disc = 0.0
        label = "4p1l/point-on-line"
    elif on_vertex:
        # the line through vertex k pins one root at the degenerate member
        # s = 0, 1 or infinity; the other follows from the roots' sum or
        # product
        k = on_vertex[0]
        disc = q1 * q1 if k == 2 else q1 * q1 - 4.0 * q2 * q0
        num, den = ((-q1, q2), (q0, q2), (-q0, q1))[k]
        if den == 0.0:
            raise DegenerateCase(
                "line through a triangle vertex did not leave exactly one "
                "non-degenerate tangent member"
            )
        roots = [num / den]
        label = "4p1l/diagonal-vertex"
    else:
        # the discriminant equals 16 times the determinant/incidence product
        # exactly, so the prediction's sign decides real versus complex
        disc = 16.0 * prediction.predicate
        roots = sorted(_stable_roots(q2, q1, q0, disc)) if prediction.predicted_real else []
        label = "4p1l/generic"

    conics = [_pencil_member(*xi, s) for s in roots]
    diag = SolveDiagnostics(
        case_label=label,
        allocation=(0, 1, 2, 3),
        discriminant=disc,
        parameters=tuple((s, math.nan) for s in roots),
        prediction=prediction,
        triangle_deviation=dev,
        double_root=bool(on_line),
    )
    return SolutionSet(tuple(conics), prediction.predicted_complex, label, diag)


# ---------------------------------------------------------------------------
# three points + two lines


@fast_init
@dataclass(frozen=True)
class CaseAllocation:
    """Relabeling that brings a 3-point/2-line input into case normal form.

    `order[k]` is the original index of the point used as point k+1 of the
    normal form; `swap_lines` swaps the two lines. The solved conics do not
    depend on the relabeling, only the intermediate formulas do.
    """

    case: int
    order: tuple[int, int, int]
    swap_lines: bool

    @property
    def label(self) -> str:
        return f"3p2l/Case{self.case}"


def classify_3p2l_case(points: Sequence, l1, l2) -> CaseAllocation:
    """Detect which special-position case a 3-point/2-line input falls in.

    Cases, mutually exclusive under the general-position preconditions:

    1. two of the points lie on the two lines, one on each;
    2. two points are collinear with the line intersection point and the
       third point lies on one of the lines;
    3. two points are collinear with the line intersection point and the
       third point lies on neither line;
    4. exactly one point lies on exactly one line, no such collinearity;
    5. no incidence and no such collinearity (the generic case).

    Raises GeneralPositionError for collinear points, coincident lines, a
    point at the line intersection, or two points on one line, and reads its
    input as solve() does.
    """
    vecs, (lv1, lv2) = _triples(points, (l1, l2), _THREE_POINTS)
    return _classify_3p2l(vecs, lv1, lv2, DEFAULT.geometry)[0]


def _classify_3p2l(vecs: Sequence[Vec3], lv1: Vec3, lv2: Vec3, geometry: float):
    """classify_3p2l_case of the triples _vec read, with the geometric
    tolerance: (allocation, the line meet p = lv1 x lv2, the six incidences
    ((x . lv1, x . lv2) for each point x)). Every dependence and incidence
    band test of the 3p2l family is made here, once: |value| within the
    geometric tolerance times the product of the norms."""
    v0, v1, v2 = vecs
    m = (_k.norm3(v0), _k.norm3(v1), _k.norm3(v2))
    n1, n2 = _k.norm3(lv1), _k.norm3(lv2)
    p = _k.cross(lv1, lv2)
    np_ = _k.norm3(p)
    if np_ <= geometry * n1 * n2:
        raise GeneralPositionError("the two lines coincide", (0, 1))
    if abs(_k.det3(v0, v1, v2)) <= geometry * (m[0] * m[1] * m[2]):
        raise GeneralPositionError("the three points are collinear", (0, 1, 2))

    incs = (
        (_k.dot3(v0, lv1), _k.dot3(v0, lv2)),
        (_k.dot3(v1, lv1), _k.dot3(v1, lv2)),
        (_k.dot3(v2, lv1), _k.dot3(v2, lv2)),
    )
    on1 = [i for i in range(3) if abs(incs[i][0]) <= geometry * m[i] * n1]
    on2 = [i for i in range(3) if abs(incs[i][1]) <= geometry * m[i] * n2]
    for i in on1:
        if i in on2:
            raise GeneralPositionError(
                f"point {i} coincides with the intersection of the lines", (i,)
            )
    for riders in (on1, on2):
        if len(riders) >= 2:
            raise GeneralPositionError(
                f"points {riders[0]} and {riders[1]} lie on the same line; no "
                "conic through both can be tangent to it",
                tuple(riders[:2]),
            )

    def collinear_with_p(i: int, j: int) -> bool:
        return abs(_k.det3(vecs[i], vecs[j], p)) <= geometry * (m[i] * m[j] * np_)

    if on1 and on2:
        i1, i2 = on1[0], on2[0]
        return CaseAllocation(1, (3 - i1 - i2, i1, i2), False), p, incs
    if on1 or on2:
        rider = (on1 or on2)[0]
        i, j = (k for k in range(3) if k != rider)
        case = 2 if collinear_with_p(i, j) else 4
        return CaseAllocation(case, (i, j, rider), not on1), p, incs  # swap: rider on line 2
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if collinear_with_p(i, j):
            return CaseAllocation(3, (3 - i - j, i, j), False), p, incs
    return CaseAllocation(5, (0, 1, 2), False), p, incs


def _case5_roots(A, B, C, D, a, b, c) -> list[tuple[float, float]]:
    """The four real pencil roots (s, t) of a generic input predicted real.

    With X = A s, Y = D t, U = X - Y and P = X Y, tangency to line j reads
    a_j^2 [(U + g_j)^2 - beta_j P] = 0, where g_j = C c_j / a_j and
    beta_j = 4 B b_j / (A a_j); this uses A a_j + B b_j + C c_j = 0.
    Eliminating P leaves a quadratic in U whose discriminant is exactly
    4 beta_0 beta_1 (g_0 - g_1)^2; each U then gives P, and X and -Y are the
    two roots of z^2 - U z - P. Three square roots in all.
    """
    if A * a[0] == 0.0 or A * a[1] == 0.0:
        raise CaseDegeneracy(
            "generic case: a denominator A*a_j of beta_j is exactly 0.0 (underflow)"
        )
    g = (C * c[0] / a[0], C * c[1] / a[1])
    beta = (4.0 * B * b[0] / (A * a[0]), 4.0 * B * b[1] / (A * a[1]))
    q2 = beta[1] - beta[0]
    q1 = 2.0 * (beta[1] * g[0] - beta[0] * g[1])
    q0 = beta[1] * g[0] * g[0] - beta[0] * g[1] * g[1]
    dg = g[0] - g[1]
    disc = 4.0 * beta[0] * beta[1] * (dg * dg)
    # P from the tangency with the larger |beta|, the safer divisor
    j = 0 if abs(beta[0]) >= abs(beta[1]) else 1
    roots = []
    for u in _stable_roots(q2, q1, q0, disc):
        w = u + g[j]
        pp = w * w / beta[j]
        dz = max(u * u + 4.0 * pp, 0.0)
        # the larger root's magnitude, by which _stable_roots divides
        if (abs(u) + math.sqrt(dz)) / 2.0 == 0.0:
            raise CaseDegeneracy(
                "generic case: both roots of z^2 - U z - P are exactly 0.0 (underflow)"
            )
        z1, z2 = _stable_roots(1.0, -u, -pp, dz)
        roots.append((z1 / A, -z2 / D))
        roots.append((z2 / A, -z1 / D))
    return roots


def _smallest_gap(lams: PencilEigenvalues) -> float:
    """The smallest relative gap between two pencil eigenvalues."""
    l1, l2, l3 = lams
    return min(
        abs(u - v) / max(abs(u), abs(v)) for u, v in ((l1, l2), (l1, l3), (l2, l3))
    )


def predict_count_3p2l(points: Sequence, l1, l2) -> CountPrediction:
    """Real-count prediction for three points and two lines from sign tests.

    Cases 1 and 2 always have one real conic. Case 3 has two real conics
    exactly when the free point and the on-neither-line point have matching
    side products; case 4 when the mixed determinant/incidence product is
    negative; case 5 has four real conics exactly when all three points see
    the two lines with the same side-product sign, and none otherwise.
    """
    return _front_door(*_triples(points, (l1, l2), _THREE_POINTS), DEFAULT.geometry)[0]


def _analyse_3p2l(vecs: Sequence[Vec3], lvs: Sequence[Vec3], geometry: float):
    """Classify the triples, relabel them into their case's normal form and
    predict; the state is (allocation, (x1, x2, x3, l1, l2), the scalars
    (p, A, B, C, D, a, b, c), the case-5 pencil eigenvalues or None). The
    line meet p = l1 x l2 and the incidences a, b, c = (x . l1, x . l2) of
    x1, x2, x3 are the classification's, read in normal-form order."""
    lv1, lv2 = lvs
    alloc, p, incs = _classify_3p2l(vecs, lv1, lv2, geometry)
    i, j, k = alloc.order
    x1, x2, x3 = vecs[i], vecs[j], vecs[k]
    a, b, c = incs[i], incs[j], incs[k]
    if alloc.swap_lines:
        lv1, lv2 = lv2, lv1
        p = _k.cross(lv1, lv2)
        a, b, c = a[::-1], b[::-1], c[::-1]
    A = _k.det3(p, x2, x3)
    B = _k.det3(x1, p, x3)
    C = _k.det3(x1, x2, p)
    D = _k.det3(x1, x2, x3)
    prediction = _prediction_3p2l(alloc.case, A, B, a, b, c)
    if alloc.case == 2 and 2.0 * B * b[1] == 0.0:
        raise CaseDegeneracy("collinear-pair case denominator vanished")
    if alloc.case == 3 and D * D * a[0] * a[1] == 0.0:
        raise CaseDegeneracy(
            "case 3 denominator D*D*a0*a1 is exactly 0.0: a factor underflowed"
        )
    lams = None
    if alloc.case == 5:
        try:
            lams = _pencil_eigenvalues((a, b, c))
        except DegenerateCase as exc:
            raise CaseDegeneracy(
                "generic-case pencil is degenerate: the line intersection "
                "point lies on a side of the point triangle"
            ) from exc
    return prediction, (alloc, (x1, x2, x3, lv1, lv2), (p, A, B, C, D, a, b, c), lams)


def _prediction_3p2l(case: int, A, B, a, b, c) -> CountPrediction:
    """The count prediction of a classified input from its scalars."""
    if case == 1:
        return CountPrediction(1, 0, "case 1: one point on each line")
    if case == 2:
        return CountPrediction(
            1, 0, "case 2: collinear pair with the crossing, third point incident"
        )
    if case == 3:
        pred = (a[0] * c[0]) * (a[1] * c[1])
        if pred == 0.0:
            raise _undecided("case 3 side-product product")
        if pred > 0.0:
            return CountPrediction(2, 0, "case 3: side products agree in sign", pred)
        return CountPrediction(0, 2, "case 3: side products differ in sign", pred)
    if case == 4:
        pred = -A * B * a[1] * b[1]
        if pred == 0.0:
            raise _undecided("case 4 determinant/incidence product")
        if pred > 0.0:
            return CountPrediction(
                2, 0, "case 4: determinant/incidence product negative", pred
            )
        return CountPrediction(
            0, 2, "case 4: determinant/incidence product positive", pred
        )
    sides = (a[0] * a[1], b[0] * b[1], c[0] * c[1])
    if 0.0 in sides:
        raise _undecided("a case 5 side product")
    pred = sides[0] * sides[1] * sides[2]
    same = all(s > 0.0 for s in sides) or all(s < 0.0 for s in sides)
    if same:
        return CountPrediction(4, 0, "case 5: all side products share a sign", pred)
    return CountPrediction(0, 4, "case 5: side products have mixed signs", pred)


def solve_three_points_two_lines(points: Sequence, l1, l2) -> SolutionSet:
    """Conics through three points tangent to two lines.

    The input is classified into one of five special-position cases; each
    case has its own closed form. Counts are one (cases 1 and 2), two or a
    complex pair (cases 3 and 4), and four or two complex pairs (case 5).
    """
    return _solve(*_triples(points, (l1, l2), _THREE_POINTS), DEFAULT.geometry)


def _build_3p2l(state, prediction: CountPrediction) -> SolutionSet:
    alloc, (x1, x2, x3, lv1, lv2), (p, A, B, C, D, a, b, c), lams = state
    diag = SolveDiagnostics(
        case_label=alloc.label,
        allocation=alloc.order,
        lines_swapped=alloc.swap_lines,
        eigenvalues=lams,
        prediction=prediction,
    )

    # each case yields its pencil roots (s, t); the moving quadrangle point
    # is x4 = t*anchor + offset
    anchor, offset = x1, p
    roots: list[tuple[Optional[float], float]] = []

    if alloc.case == 1:
        # tangency is pinned at the two incident points
        roots = [(0.5, -A / (2.0 * D))]

    elif alloc.case == 2:
        q = _k.cross(p, lv2)
        anchor, offset = p, q
        t = (_k.det3(q, x2, x3) * a[1] - _k.det3(x1, q, x3) * b[1]) / (2.0 * B * b[1])
        roots = [(2.0, t)]

    elif alloc.case == 3:
        # second and third points are collinear with the line crossing; s is
        # read off the triangle of each root t below. t^2 = rhs, whose sign
        # is that of the prediction's side-product product
        rhs = (C * C * c[0] * c[1]) / (D * D * a[0] * a[1])
        diag.discriminant = rhs
        if prediction.predicted_real:
            roots = [(None, math.sqrt(rhs)), (None, -math.sqrt(rhs))]

    elif alloc.case == 4:
        # third point rides the first line; tangency to the second is quadratic
        # in t, and its discriminant reduces exactly to 16 D^2 times the
        # prediction's sign product, so the prediction decides its reality
        q2 = 4.0 * D * D * a[1]
        q1 = 4.0 * D * A * a[1]
        q0 = -A * C * c[1]
        disc = -16.0 * D * D * A * B * a[1] * b[1]
        diag.discriminant = disc
        if prediction.predicted_real:
            roots = [(-(D / A) * t, t) for t in _stable_roots(q2, q1, q0, disc)]

    else:
        # the generic family has four real solutions or none, and which is
        # decided by the side-product signs, as the prediction reads them
        if prediction.predicted_real:
            roots = _case5_roots(A, B, C, D, a, b, c)
            # a root this close to a degenerate member is rounding off a
            # near tie of the eigenvalues, whose gap bounds its accuracy
            band = sys.float_info.epsilon / _smallest_gap(lams)
            s = min((s for s, _ in roots), key=lambda s: min(abs(s), abs(1.0 - s)))
            if min(abs(s), abs(1.0 - s)) <= band:
                raise CaseDegeneracy(
                    f"generic-case pencil is degenerate: root s={s!r} lies "
                    f"within {band:.3g} of a degenerate member (s = 0 or 1), "
                    "the rounding band of the nearest pencil eigenvalue tie"
                )

    diag.context = CaseContext(anchor, offset)
    conics: list[ConicMatrix] = []
    params: list[tuple[float, float]] = []
    last = len(roots) - 1
    for k, (s, t) in enumerate(roots):
        x4 = tuple(t * u + v for u, v in zip(anchor, offset))
        if k < last:
            xi1, xi2, xi3 = _k.diag_vertices(x1, x2, x3, x4)
        else:
            # the cancellation alarm once, for the last root's quadrangle
            xi1, xi2, xi3, diag.triangle_deviation = _k.diag_triangle(x1, x2, x3, x4)
        if s is None:
            d1, d2 = _k.dot3(xi1, lv1), _k.dot3(xi2, lv1)
            den = d1 * d1 - d2 * d2
            if den == 0.0:
                raise CaseDegeneracy(
                    f"case 3 root t={t!r}: the denominator of s is exactly 0.0 "
                    "(underflow)"
                )
            s = d1 * d1 / den
        conics.append(_pencil_member(xi1, xi2, xi3, s))
        params.append((s, t))

    order = sorted(range(len(conics)), key=lambda i: params[i])
    diag.parameters = tuple(params[i] for i in order)
    complex_count = prediction.predicted_complex
    return SolutionSet(tuple(conics[i] for i in order), complex_count, alloc.label, diag)


# ---------------------------------------------------------------------------
# entry points

#: the family a configuration belongs to, by its number of points once a
#: lines-heavy one is dualized: (analysis, builder). The analysis takes
#: (point triples, line triples, geometric tolerance), makes every general-position
#: decision and returns (prediction, state); the builder takes (state,
#: prediction), reads no tolerance setting, and returns the SolutionSet
_FAMILIES = {
    5: (_analyse_5p, _build_5p),
    4: (_analyse_4p1l, _build_4p1l),
    3: (_analyse_3p2l, _build_3p2l),
}


def _triples(
    points: Sequence, lines: Sequence, wrong_count: Optional[str] = None
) -> tuple[list[Vec3], list[Vec3]]:
    """The coordinate triples of a five-element configuration, each element
    read once through _vec as three Python floats.

    Raises UnsupportedCount when the total is not five, with the message
    wrong_count if given; for the first element that is not three real
    coordinates or has one that is inf, NaN or beyond the float range,
    MalformedCoordinates or NonFiniteInput naming it.
    """
    if (len(points), len(lines)) not in KINDS:
        raise UnsupportedCount(
            wrong_count
            or f"{len(points)} points and {len(lines)} lines do not form a "
            "five-element minimal configuration"
        )
    vecs: list[Vec3] = []
    lvs: list[Vec3] = []
    for kind, items, out in (("point", points, vecs), ("line", lines, lvs)):
        for idx, item in enumerate(items):
            try:
                v = _vec(item)
            except NonFiniteInput as exc:  # too large, or a signaling NaN
                raise NonFiniteInput(f"{kind} {idx} has {exc}") from None
            except MalformedCoordinates as exc:  # not a 3-sequence of reals
                raise MalformedCoordinates(f"{kind} {idx} is {exc}") from None
            if not (math.isfinite(v[0]) and math.isfinite(v[1]) and math.isfinite(v[2])):
                raise NonFiniteInput(f"{kind} {idx} has a non-finite coordinate: {v!r}")
            out.append(v)
    return vecs, lvs


def _front_door(vecs: list[Vec3], lvs: list[Vec3], geometry: float):
    """The family analysis of the triples that _triples read: (prediction,
    state, builder, dual).

    A lines-heavy input is analysed as its dual, with lines as points and
    points as lines; its prediction's rule and any GeneralPositionError of
    the dual say so.
    """
    dual = len(vecs) < len(lvs)
    if dual:
        vecs, lvs = lvs, vecs
    analyse, build = _FAMILIES[len(vecs)]
    try:
        prediction, state = analyse(vecs, lvs, geometry)
    except GeneralPositionError as exc:
        if not dual:
            raise
        raise GeneralPositionError(
            f"dual configuration degenerate (lines and points exchanged): {exc}",
            exc.indices,
        ) from exc
    if dual:
        prediction = CountPrediction(
            prediction.predicted_real,
            prediction.predicted_complex,
            "dual: " + prediction.rule,
            prediction.predicate,
        )
    return prediction, state, build, dual


def _solve(vecs: list[Vec3], lvs: list[Vec3], geometry: float) -> SolutionSet:
    prediction, state, build, dual = _front_door(vecs, lvs, geometry)
    sol = build(state, prediction)
    if dual:
        # the dual solutions are conics in the dual plane; their adjugates
        # are the answers in the original plane
        label = "dual:" + sol.case_label
        sol.diagnostics.case_label = label
        conics = tuple(_normalized_conic(_k.sym_adjugate(cm.sym6())) for cm in sol.real_conics)
        sol = SolutionSet(conics, sol.complex_count, label, sol.diagnostics)
    return _with_residuals(sol, vecs, lvs)


def solve_dual(points: Sequence, lines: Sequence) -> SolutionSet:
    """Solve a lines-heavy configuration through the dual problem.

    Lines become points and points become lines; the dual solutions are
    conics in the dual plane and their adjugates are the answers in the
    original plane. Counts and case structure carry over unchanged. Raises
    UnsupportedCount and NonFiniteInput as solve() does.
    """
    vecs, lvs = _triples(points, lines)
    if len(vecs) >= len(lvs):
        raise UnsupportedCount("dual configuration is not lines-heavy")
    return _solve(vecs, lvs, DEFAULT.geometry)


def solve(points: Sequence, lines: Sequence = (), tol: Tolerances = DEFAULT) -> SolutionSet:
    """Solve any five-element point/line configuration.

    Dispatches on the point/line split; raises UnsupportedCount when the
    total is not five, MalformedCoordinates for an element that is not three
    real coordinates and NonFiniteInput for an inf or NaN coordinate.
    tol.geometry is the general-position tolerance of every decision.
    """
    return _solve(*_triples(points, lines), tol.geometry)


def predict(points: Sequence, lines: Sequence = (), tol: Tolerances = DEFAULT) -> CountPrediction:
    """Predict real/complex solution counts without solving.

    Runs the analysis that solve() runs, so it raises every error that
    solve() raises before finding the pencil roots, UnsupportedCount and
    NonFiniteInput included.
    """
    return _front_door(*_triples(points, lines), tol.geometry)[0]
