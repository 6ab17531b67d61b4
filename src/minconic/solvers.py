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

The analyses are straight-line float code on unpacked scalars: every norm,
triple determinant, incidence and line meet is written out in the float
operations, and in the order, of _kernels.norm3, det3, dot3 and cross, and
each band test keeps its expression, so predict() pays for arithmetic and
not for one call per value. The 5p and 4p1l analyses test collinearity
themselves; the 4p1l one hands the builder its diagonal-triangle vertices.

The input reader (_triples) reads the input in one pass, the package's own
points and lines off their fields. Each builder returns the normalized sym6
tuples of its real conics, one _k.conic_from_pencil call per pencil member
or one _k.conic_from_five_points fit for five points, and _solve adjugates
those of a dual family with _k.sym_adjugate and wraps each returned conic in
one ConicMatrix; conics._normalized6 normalizes every one. The 4p1l builder
reuses the diagonal triangle its analysis built with _k.diag_vertices. The
3p2l builder computes the three quadrangle sides through the given points
once per input and, per root, only the three sides through the moving point
and the three meets, in the float operations of _k.diag_vertices. No builder
takes a diagonal triangle's cancellation alarm.
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
    _normalized6,
    _pencil_eigenvalues,
    _stable_roots,
)
from .errors import (
    CaseDegeneracy,
    DegenerateCase,
    GeneralPositionError,
    UnsupportedCount,
)
from .projective import HomogeneousPoint, ProjectiveLine, Vec3, _named_vec, _vec
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
    allocation: tuple[int, ...] = (0, 1, 2)
    lines_swapped: bool = False
    discriminant: Optional[float] = None
    eigenvalues: Optional[PencilEigenvalues] = None
    parameters: tuple[tuple[float, float], ...] = ()
    prediction: Optional[CountPrediction] = None
    context: Optional[CaseContext] = None
    double_root: bool = False


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


# ---------------------------------------------------------------------------
# five points


def solve_five_points(points: Sequence) -> ConicMatrix:
    """The unique conic through five points in general position.

    Returns the normalized conic matrix; use solve() for the SolutionSet
    wrapper with diagnostics.
    """
    vecs, lvs = _triples(points, (), "exactly five points required")
    return _solve(vecs, lvs, DEFAULT.geometry).real_conics[0]


def _collinear(i: int, j: int, k: int) -> GeneralPositionError:
    return GeneralPositionError(f"points {i}, {j}, {k} are collinear", (i, j, k))


def _analyse_5p(vecs: Sequence[Vec3], lvs: Sequence[Vec3], geometry: float):
    # every triple i < j < k in lexicographic order is collinear when
    # |det3(xi, xj, xk)| is within the geometric tolerance times the product
    # of the three norms. det3(xi, xj, xk) = xi0 mjk - xj0 mik + xk0 mij in
    # the minors mij = xi1 xj2 - xi2 xj1, the float operations of _k.det3
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2), (e0, e1, e2) = vecs
    na = (a0 * a0 + a1 * a1 + a2 * a2) ** 0.5
    nb = (b0 * b0 + b1 * b1 + b2 * b2) ** 0.5
    nc = (c0 * c0 + c1 * c1 + c2 * c2) ** 0.5
    nd = (d0 * d0 + d1 * d1 + d2 * d2) ** 0.5
    ne = (e0 * e0 + e1 * e1 + e2 * e2) ** 0.5
    mab, mac, mad, mae = a1 * b2 - a2 * b1, a1 * c2 - a2 * c1, a1 * d2 - a2 * d1, a1 * e2 - a2 * e1
    mbc, mbd, mbe = b1 * c2 - b2 * c1, b1 * d2 - b2 * d1, b1 * e2 - b2 * e1
    mcd, mce, mde = c1 * d2 - c2 * d1, c1 * e2 - c2 * e1, d1 * e2 - d2 * e1
    if abs(a0 * mbc - b0 * mac + c0 * mab) <= geometry * (na * nb * nc):
        raise _collinear(0, 1, 2)
    if abs(a0 * mbd - b0 * mad + d0 * mab) <= geometry * (na * nb * nd):
        raise _collinear(0, 1, 3)
    if abs(a0 * mbe - b0 * mae + e0 * mab) <= geometry * (na * nb * ne):
        raise _collinear(0, 1, 4)
    if abs(a0 * mcd - c0 * mad + d0 * mac) <= geometry * (na * nc * nd):
        raise _collinear(0, 2, 3)
    if abs(a0 * mce - c0 * mae + e0 * mac) <= geometry * (na * nc * ne):
        raise _collinear(0, 2, 4)
    if abs(a0 * mde - d0 * mae + e0 * mad) <= geometry * (na * nd * ne):
        raise _collinear(0, 3, 4)
    if abs(b0 * mcd - c0 * mbd + d0 * mbc) <= geometry * (nb * nc * nd):
        raise _collinear(1, 2, 3)
    if abs(b0 * mce - c0 * mbe + e0 * mbc) <= geometry * (nb * nc * ne):
        raise _collinear(1, 2, 4)
    if abs(b0 * mde - d0 * mbe + e0 * mbd) <= geometry * (nb * nd * ne):
        raise _collinear(1, 3, 4)
    if abs(c0 * mde - d0 * mce + e0 * mcd) <= geometry * (nc * nd * ne):
        raise _collinear(2, 3, 4)
    return _FIVE_POINT_PREDICTION, vecs


def _build_5p(vecs: Sequence[Vec3], prediction: CountPrediction):
    # the conic is fitted on the diagonal triangle of the first four points
    m6 = _k.conic_from_five_points(*vecs)
    if m6 is None:
        raise DegenerateCase("five-point fit: the diagonal triangle's determinant is exactly 0.0")
    return (_normalized6(*m6),), "5p", SolveDiagnostics(prediction=prediction)


# ---------------------------------------------------------------------------
# four points + one line


def _tangency_quadratic(d: Vec3) -> tuple[float, float, float]:
    """Coefficients (q2, q1, q0) of the pencil-parameter tangency quadratic.

    Roots are the pencil parameters of members tangent to a line l; only the
    three squared vertex incidences d = (xi1 . l, xi2 . l, xi3 . l) enter.
    """
    d1, d2, d3 = d
    return (d3 * d3, -(d1 * d1 - d2 * d2 + d3 * d3), d1 * d1)


def _degenerate_member(s: float) -> DegenerateCase:
    """The error for a pencil root within PARAMETER of the line pairs at
    s = 0 and s = 1."""
    return DegenerateCase(f"pencil member at s={s!r} is degenerate")


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
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) = vecs
    l0, l1, l2 = lvs[0]
    na = (a0 * a0 + a1 * a1 + a2 * a2) ** 0.5
    nb = (b0 * b0 + b1 * b1 + b2 * b2) ** 0.5
    nc = (c0 * c0 + c1 * c1 + c2 * c2) ** 0.5
    nd = (d0 * d0 + d1 * d1 + d2 * d2) ** 0.5

    # the four point-triple determinants and their collinearity tests, as
    # in _analyse_5p
    mab, mac, mad = a1 * b2 - a2 * b1, a1 * c2 - a2 * c1, a1 * d2 - a2 * d1
    mbc, mbd, mcd = b1 * c2 - b2 * c1, b1 * d2 - b2 * d1, c1 * d2 - c2 * d1
    d012 = a0 * mbc - b0 * mac + c0 * mab
    if abs(d012) <= geometry * (na * nb * nc):
        raise _collinear(0, 1, 2)
    d013 = a0 * mbd - b0 * mad + d0 * mab
    if abs(d013) <= geometry * (na * nb * nd):
        raise _collinear(0, 1, 3)
    d023 = a0 * mcd - c0 * mad + d0 * mac
    if abs(d023) <= geometry * (na * nc * nd):
        raise _collinear(0, 2, 3)
    d123 = b0 * mcd - c0 * mbd + d0 * mbc
    if abs(d123) <= geometry * (nb * nc * nd):
        raise _collinear(1, 2, 3)

    # each point-line and vertex-line dot, and each norm, once; a point or
    # vertex is on the line when |dot| is within the geometric tolerance
    # times the two norms: the 4p1l family's one incidence band test
    nl = (l0 * l0 + l1 * l1 + l2 * l2) ** 0.5
    ea = a0 * l0 + a1 * l1 + a2 * l2
    eb = b0 * l0 + b1 * l1 + b2 * l2
    ec = c0 * l0 + c1 * l1 + c2 * l2
    ed = d0 * l0 + d1 * l1 + d2 * l2
    oa = abs(ea) <= geometry * na * nl
    ob = abs(eb) <= geometry * nb * nl
    oc = abs(ec) <= geometry * nc * nl
    od = abs(ed) <= geometry * nd * nl
    on_line = [i for i, on in enumerate((oa, ob, oc, od)) if on] if oa or ob or oc or od else []
    if len(on_line) >= 2:
        raise GeneralPositionError(
            f"line is a side of the quadrangle: it contains points "
            f"{on_line[0]} and {on_line[1]}",
            tuple(on_line[:2]),
        )

    xi = _k.diag_vertices(*vecs)
    (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = xi
    vu = u0 * l0 + u1 * l1 + u2 * l2
    vv = v0 * l0 + v1 * l1 + v2 * l2
    vw = w0 * l0 + w1 * l1 + w2 * l2
    ou = abs(vu) <= geometry * (u0 * u0 + u1 * u1 + u2 * u2) ** 0.5 * nl
    ov = abs(vv) <= geometry * (v0 * v0 + v1 * v1 + v2 * v2) ** 0.5 * nl
    ow = abs(vw) <= geometry * (w0 * w0 + w1 * w1 + w2 * w2) ** 0.5 * nl
    on_vertex = [j for j, on in enumerate((ou, ov, ow)) if on] if ou or ov or ow else []
    if len(on_vertex) >= 2:
        raise GeneralPositionError(
            "line is a side of the diagonal triangle (through two of its "
            "vertices); only degenerate pencil members touch it",
            tuple(on_vertex[:2]),
        )

    # the product of the four point-triple determinants and the four
    # incidences
    pred = 1.0 * d012 * d013 * d023 * d123 * ea * eb * ec * ed
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
    return prediction, ((vu, vv, vw), on_line, on_vertex, xi)


def _build_4p1l(state, prediction: CountPrediction):
    vdots, on_line, on_vertex, (xi1, xi2, xi3) = state
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

    conics = []
    for s in roots:
        if abs(s) <= PARAMETER or abs(s - 1.0) <= PARAMETER:
            raise _degenerate_member(s)
        conics.append(_normalized6(*_k.conic_from_pencil(xi1, xi2, xi3, s)))
    diag = SolveDiagnostics(
        allocation=(0, 1, 2, 3),
        discriminant=disc,
        parameters=tuple((s, math.nan) for s in roots),
        prediction=prediction,
        double_root=bool(on_line),
    )
    return conics, label, diag


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
    geometric tolerance times the product of the norms. The values are
    those of _k.norm3, cross, det3 and dot3, in their float operations."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = vecs
    h0, h1, h2 = lv1
    k0, k1, k2 = lv2
    ma = (a0 * a0 + a1 * a1 + a2 * a2) ** 0.5
    mb = (b0 * b0 + b1 * b1 + b2 * b2) ** 0.5
    mc = (c0 * c0 + c1 * c1 + c2 * c2) ** 0.5
    n1 = (h0 * h0 + h1 * h1 + h2 * h2) ** 0.5
    n2 = (k0 * k0 + k1 * k1 + k2 * k2) ** 0.5
    p = (h1 * k2 - h2 * k1, h2 * k0 - h0 * k2, h0 * k1 - h1 * k0)
    p0, p1, p2 = p
    np_ = (p0 * p0 + p1 * p1 + p2 * p2) ** 0.5
    if np_ <= geometry * n1 * n2:
        raise GeneralPositionError("the two lines coincide", (0, 1))
    # det3 in the minors mij = xi1 xj2 - xi2 xj1, as in _analyse_5p
    mab, mac, mbc = a1 * b2 - a2 * b1, a1 * c2 - a2 * c1, b1 * c2 - b2 * c1
    if abs(a0 * mbc - b0 * mac + c0 * mab) <= geometry * (ma * mb * mc):
        raise GeneralPositionError("the three points are collinear", (0, 1, 2))

    ia = (a0 * h0 + a1 * h1 + a2 * h2, a0 * k0 + a1 * k1 + a2 * k2)
    ib = (b0 * h0 + b1 * h1 + b2 * h2, b0 * k0 + b1 * k1 + b2 * k2)
    ic = (c0 * h0 + c1 * h1 + c2 * h2, c0 * k0 + c1 * k1 + c2 * k2)
    incs = (ia, ib, ic)
    ga, gb, gc = geometry * ma, geometry * mb, geometry * mc
    oa1, ob1, oc1 = abs(ia[0]) <= ga * n1, abs(ib[0]) <= gb * n1, abs(ic[0]) <= gc * n1
    oa2, ob2, oc2 = abs(ia[1]) <= ga * n2, abs(ib[1]) <= gb * n2, abs(ic[1]) <= gc * n2
    on1 = on2 = None
    if oa1 or ob1 or oc1 or oa2 or ob2 or oc2:
        on1 = [i for i, on in enumerate((oa1, ob1, oc1)) if on]
        on2 = [i for i, on in enumerate((oa2, ob2, oc2)) if on]
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
        if on1 and on2:
            i1, i2 = on1[0], on2[0]
            return CaseAllocation(1, (3 - i1 - i2, i1, i2), False), p, incs

    # a pair xi, xj is collinear with p when |det3(xi, xj, p)| is within the
    # tolerance times the three norms; det3(xi, xj, p) = xi0 qj - xj0 qi +
    # p0 mij in the minors qi = xi1 p2 - xi2 p1
    qa, qb, qc = a1 * p2 - a2 * p1, b1 * p2 - b2 * p1, c1 * p2 - c2 * p1
    col01 = abs(a0 * qb - b0 * qa + p0 * mab) <= geometry * (ma * mb * np_)
    col02 = abs(a0 * qc - c0 * qa + p0 * mac) <= geometry * (ma * mc * np_)
    col12 = abs(b0 * qc - c0 * qb + p0 * mbc) <= geometry * (mb * mc * np_)
    if on1 is not None:
        rider = (on1 or on2)[0]
        i, j = ((1, 2), (0, 2), (0, 1))[rider]
        case = 2 if (col12, col02, col01)[rider] else 4
        return CaseAllocation(case, (i, j, rider), not on1), p, incs  # swap: rider on line 2
    if col01:
        return CaseAllocation(3, (2, 0, 1), False), p, incs
    if col02:
        return CaseAllocation(3, (1, 0, 2), False), p, incs
    if col12:
        return CaseAllocation(3, (0, 1, 2), False), p, incs
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
    (p, A, B, D, a, b, c), the case-5 pencil eigenvalues or None). The
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
    # det3(p, x2, x3), det3(x1, p, x3) and det3(x1, x2, x3) in the float
    # operations of _k.det3, sharing their 2x2 minors of the last two
    # coordinates
    (e0, e1, e2), (f0, f1, f2), (g0, g1, g2) = x1, x2, x3
    p0, p1, p2 = p
    mfg, meg = f1 * g2 - f2 * g1, e1 * g2 - e2 * g1
    mpg = p1 * g2 - p2 * g1
    A = p0 * mfg - f0 * mpg + g0 * (p1 * f2 - p2 * f1)
    B = e0 * mpg - p0 * meg + g0 * (e1 * p2 - e2 * p1)
    D = e0 * mfg - f0 * meg + g0 * (e1 * f2 - e2 * f1)
    case = alloc.case
    prediction = _prediction_3p2l(case, A, B, a, b, c)
    if case == 2 and 2.0 * B * b[1] == 0.0:
        raise CaseDegeneracy("collinear-pair case denominator vanished")
    if case == 3 and D * D * a[0] * a[1] == 0.0:
        raise CaseDegeneracy(
            "case 3 denominator D*D*a0*a1 is exactly 0.0: a factor underflowed"
        )
    lams = None
    if case == 5:
        try:
            lams = _pencil_eigenvalues((a, b, c))
        except CaseDegeneracy:  # an incidence product underflowed
            raise
        except DegenerateCase as exc:  # two eigenvalues tie
            raise CaseDegeneracy(
                "generic-case pencil is degenerate: the line intersection "
                "point lies on a side of the point triangle"
            ) from exc
    return prediction, (alloc, (x1, x2, x3, lv1, lv2), (p, A, B, D, a, b, c), lams)


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
    sa, sb, sc = a[0] * a[1], b[0] * b[1], c[0] * c[1]
    if sa == 0.0 or sb == 0.0 or sc == 0.0:
        raise _undecided("a case 5 side product")
    pred = sa * sb * sc
    if (sa > 0.0 and sb > 0.0 and sc > 0.0) or (sa < 0.0 and sb < 0.0 and sc < 0.0):
        return CountPrediction(4, 0, "case 5: all side products share a sign", pred)
    return CountPrediction(0, 4, "case 5: side products have mixed signs", pred)


def solve_three_points_two_lines(points: Sequence, l1, l2) -> SolutionSet:
    """Conics through three points tangent to two lines.

    The input is classified into one of five special-position cases; each
    case has its own closed form. Counts are one (cases 1 and 2), two or a
    complex pair (cases 3 and 4), and four or two complex pairs (case 5).
    """
    return _solve(*_triples(points, (l1, l2), _THREE_POINTS), DEFAULT.geometry)


def _build_3p2l(state, prediction: CountPrediction):
    alloc, (x1, x2, x3, lv1, lv2), (p, A, B, D, a, b, c), lams = state
    (e0, e1, e2), (f0, f1, f2), (g0, g1, g2) = x1, x2, x3
    p0, p1, p2 = p
    # the quadrangle side x1 x2, whose first entry is also the last minor of
    # C = det3(x1, x2, p), read by cases 3-5 and not by the prediction
    j0, j1, j2 = e1 * f2 - e2 * f1, e2 * f0 - e0 * f2, e0 * f1 - e1 * f0
    C = e0 * (f1 * p2 - f2 * p1) - f0 * (e1 * p2 - e2 * p1) + p0 * j0
    diag = SolveDiagnostics(
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
        # q = p x l2, and det3(q, x2, x3) and det3(x1, q, x3) sharing the
        # minor q1 g2 - q2 g1, in the float operations of _k.cross and det3
        z0, z1, z2 = lv2
        q0, q1, q2 = p1 * z2 - p2 * z1, p2 * z0 - p0 * z2, p0 * z1 - p1 * z0
        anchor, offset = p, (q0, q1, q2)
        mq = q1 * g2 - q2 * g1
        dq23 = q0 * (f1 * g2 - f2 * g1) - f0 * mq + g0 * (q1 * f2 - q2 * f1)
        d1q3 = e0 * mq - q0 * (e1 * g2 - e2 * g1) + g0 * (e1 * q2 - e2 * q1)
        roots = [(2.0, (dq23 * a[1] - d1q3 * b[1]) / (2.0 * B * b[1]))]

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
            # near tie of the eigenvalues, whose gap bounds its accuracy;
            # s is the first root nearest to s = 0 or 1
            band = sys.float_info.epsilon / _smallest_gap(lams)
            s = near = None
            for r, _ in roots:
                x, y = abs(r), abs(1.0 - r)
                dist = y if y < x else x
                if near is None or dist < near:
                    s, near = r, dist
            if near <= band:
                raise CaseDegeneracy(
                    f"generic-case pencil is degenerate: root s={s!r} lies "
                    f"within {band:.3g} of a degenerate member (s = 0 or 1), "
                    "the rounding band of the nearest pencil eigenvalue tie"
                )

    diag.context = CaseContext(anchor, offset)
    if not roots:
        return [], alloc.label, diag

    # the diagonal triangle of x1 x2 x3 x4 per root, in the float operations
    # of _k.diag_vertices: the sides x1 x3 and x2 x3 are fixed like x1 x2,
    # and only the three sides through x4 and the three meets move with t
    k0, k1, k2 = e1 * g2 - e2 * g1, e2 * g0 - e0 * g2, e0 * g1 - e1 * g0
    m0, m1, m2 = f1 * g2 - f2 * g1, f2 * g0 - f0 * g2, f0 * g1 - f1 * g0
    (n0, n1, n2), (o0, o1, o2) = anchor, offset
    h0, h1, h2 = lv1
    conics = []
    params: list[tuple[float, float]] = []
    for s, t in roots:
        y0, y1, y2 = t * n0 + o0, t * n1 + o1, t * n2 + o2
        # the sides x3 x4, x2 x4 and x1 x4
        q0, q1, q2 = g1 * y2 - g2 * y1, g2 * y0 - g0 * y2, g0 * y1 - g1 * y0
        r0, r1, r2 = f1 * y2 - f2 * y1, f2 * y0 - f0 * y2, f0 * y1 - f1 * y0
        w0, w1, w2 = e1 * y2 - e2 * y1, e2 * y0 - e0 * y2, e0 * y1 - e1 * y0
        # the meets x1x2 / x3x4, x1x3 / x2x4 and x1x4 / x2x3
        u0, u1, u2 = j1 * q2 - j2 * q1, j2 * q0 - j0 * q2, j0 * q1 - j1 * q0
        v0, v1, v2 = k1 * r2 - k2 * r1, k2 * r0 - k0 * r2, k0 * r1 - k1 * r0
        if s is None:
            d1 = u0 * h0 + u1 * h1 + u2 * h2
            d2 = v0 * h0 + v1 * h1 + v2 * h2
            den = d1 * d1 - d2 * d2
            if den == 0.0:
                raise CaseDegeneracy(
                    f"case 3 root t={t!r}: the denominator of s is exactly 0.0 "
                    "(underflow)"
                )
            s = d1 * d1 / den
        if abs(s) <= PARAMETER or abs(s - 1.0) <= PARAMETER:
            raise _degenerate_member(s)
        conics.append(_normalized6(*_k.conic_from_pencil(
            (u0, u1, u2),
            (v0, v1, v2),
            (w1 * m2 - w2 * m1, w2 * m0 - w0 * m2, w0 * m1 - w1 * m0),
            s,
        )))
        params.append((s, t))

    if len(roots) > 1:
        order = sorted(range(len(params)), key=params.__getitem__)
        conics = [conics[i] for i in order]
        params = [params[i] for i in order]
    diag.parameters = tuple(params)
    return conics, alloc.label, diag


# ---------------------------------------------------------------------------
# entry points

#: the family a configuration belongs to, by its number of points once a
#: lines-heavy one is dualized: (analysis, builder). The analysis takes
#: (point triples, line triples, geometric tolerance), makes every general-position
#: decision and returns (prediction, state); the builder takes (state,
#: prediction), reads no tolerance setting, and returns (the normalized sym6
#: of each real conic, case label, diagnostics), which _solve wraps
_FAMILIES = {
    5: (_analyse_5p, _build_5p),
    4: (_analyse_4p1l, _build_4p1l),
    3: (_analyse_3p2l, _build_3p2l),
}


def _triples(
    points: Sequence, lines: Sequence, wrong_count: Optional[str] = None
) -> tuple[list[Vec3], list[Vec3]]:
    """The coordinate triples of a five-element configuration, each element
    read once as three Python floats, in one pass: an exact HomogeneousPoint
    or ProjectiveLine off its fields, a plain tuple by unpacking, anything
    else through _vec, and so is a triple that is not three floats. Only an
    input with a faulty element is read again, to name the first one.

    Raises UnsupportedCount when the total is not five, with the message
    wrong_count if given; for the first element that is not three real
    coordinates or has one that is inf, NaN or beyond the float range,
    MalformedCoordinates or NonFiniteInput naming it.
    """
    n = len(points)
    if (n, len(lines)) not in KINDS:
        raise UnsupportedCount(
            wrong_count
            or f"{n} points and {len(lines)} lines do not form a "
            "five-element minimal configuration"
        )
    out = []
    for item in (*points, *lines):
        kind = type(item)
        if kind is HomogeneousPoint:
            x, y, w = item.x, item.y, item.w
        elif kind is ProjectiveLine:
            x, y, w = item.a, item.b, item.c
        elif kind is tuple and len(item) == 3:
            x, y, w = item
        else:
            x = None  # not a float: read through _vec below
        if not (type(x) is float and type(y) is float and type(w) is float):
            try:
                x, y, w = _vec(item)
            except Exception:  # the named reads below raise what a read of this input raises
                break
        # x - x is 0.0 exactly when x is finite (inf - inf and nan - nan are nan)
        if not (x - x == 0.0 and y - y == 0.0 and w - w == 0.0):
            break
        out.append((x, y, w))
    else:
        return out[:n], out[n:]
    # read again to name the first faulty element
    vecs = [_named_vec(item, "point", idx) for idx, item in enumerate(points)]
    lvs = [_named_vec(item, "line", idx) for idx, item in enumerate(lines)]
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
    conics, label, diag = build(state, prediction)
    if dual:
        # the dual solutions are conics in the dual plane; their adjugates
        # are the answers in the original plane
        conics = [_normalized6(*_k.sym_adjugate(m)) for m in conics]
        label = "dual:" + label
    real = tuple([ConicMatrix(*m) for m in conics])
    return SolutionSet(real, prediction.predicted_complex, label, diag)


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
