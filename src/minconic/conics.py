"""Conic matrices and the analysis tools the solvers lean on.

A conic is stored by the six independent entries of its symmetric matrix.
Everything here is scale-invariant; reported conics are normalized to a unit
six-vector with a deterministic sign.

Everything is plain float arithmetic: rank, classify and split_line_pair
read their rank and sign decisions off one closed-form eigenvalue helper.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from . import _kernels as _k
from ._frozen import fast_init
from .errors import (
    CaseDegeneracy,
    ComplexLinePair,
    DegenerateCase,
    GeneralPositionError,
    InconsistentPencil,
    RankOne,
    UnsupportedCount,
)
from .projective import ProjectiveLine, Vec3, _finite, _named_vec, _vec
from .tolerances import DEFAULT, DISCRIMINANT, EIGENVALUE_TIE, RANK_ZERO, RESIDUAL


def _sym6_frobenius(m: Sequence[float]) -> float:
    a, b, c, d, e, f = m
    return math.sqrt(a * a + c * c + f * f + 2.0 * (b * b + d * d + e * e))


class ConicClass(enum.Enum):
    REAL_ELLIPSE = "real_ellipse"
    IMAGINARY_ELLIPSE = "imaginary_ellipse"
    PARABOLA = "parabola"
    HYPERBOLA = "hyperbola"
    LINE_PAIR = "line_pair"
    DOUBLE_LINE = "double_line"
    POINT = "point"


@fast_init
@dataclass(frozen=True)
class ConicMatrix:
    """Symmetric conic matrix.

    Fields are the upper-triangle entries (a, b, c, d, e, f) of

        [[a, b, d],
         [b, c, e],
         [d, e, f]]

    so the point equation reads a x^2 + 2b xy + c y^2 + 2d xw + 2e yw + f w^2.
    Conics are projective: any nonzero scalar multiple is the same conic.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    @classmethod
    def from_sym6(cls, m: Sequence[float]) -> "ConicMatrix":
        """Build from the kernel layout (m11, m12, m22, m13, m23, m33)."""
        return cls(m[0], m[1], m[2], m[3], m[4], m[5])

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[float]) -> "ConicMatrix":
        """From polynomial coefficients (A, B, C, D, E, F) of
        A x^2 + B xy + C y^2 + D xw + E yw + F w^2."""
        A, B, C, D, E, F = coeffs
        return cls(A, B / 2.0, C, D / 2.0, E / 2.0, F)

    def sym6(self) -> tuple[float, float, float, float, float, float]:
        """The six-vector (a, b, c, d, e, f), in the kernel layout."""
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def point_value(self, p) -> float:
        return _k.sym_eval(self.sym6(), _vec(p))

    def normalized(self) -> "ConicMatrix":
        """Unit six-vector scale with the first largest-magnitude entry positive.

        Raises DegenerateCase for a zero matrix or one with an inf or NaN
        entry (an overflowed construction).
        """
        return ConicMatrix(*_normalized6(self.a, self.b, self.c, self.d, self.e, self.f))


def _normalized6(
    a: float, b: float, c: float, d: float, e: float, f: float
) -> tuple[float, float, float, float, float, float]:
    """The entries of ConicMatrix.normalized for the six entries of a sym6,
    unrolled: the sum of squares left to right, the first largest-magnitude
    entry as the lead, and one scale sign / n times each entry."""
    n = math.sqrt(a * a + b * b + c * c + d * d + e * e + f * f)
    if n == 0.0:
        raise DegenerateCase("zero conic matrix cannot be normalized")
    if not n < math.inf:
        if not (
            math.isfinite(a) and math.isfinite(b) and math.isfinite(c)
            and math.isfinite(d) and math.isfinite(e) and math.isfinite(f)
        ):
            raise DegenerateCase(
                "conic matrix has a non-finite entry (overflow or NaN); it "
                "cannot be normalized"
            )
        # finite entries whose squares overflow: bring the largest to
        # [0.5, 1) by a power of two, which is exact and keeps the lead
        _, exp = math.frexp(max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f)))
        return _normalized6(
            math.ldexp(a, -exp), math.ldexp(b, -exp), math.ldexp(c, -exp),
            math.ldexp(d, -exp), math.ldexp(e, -exp), math.ldexp(f, -exp),
        )
    lead, top = a, abs(a)
    if abs(b) > top:
        lead, top = b, abs(b)
    if abs(c) > top:
        lead, top = c, abs(c)
    if abs(d) > top:
        lead, top = d, abs(d)
    if abs(e) > top:
        lead, top = e, abs(e)
    if abs(f) > top:
        lead = f
    k = (1.0 if lead > 0.0 else -1.0) / n
    return (k * a, k * b, k * c, k * d, k * e, k * f)


def _nonzero(w: Sequence[float]) -> list[float]:
    """The eigenvalues w that clear the rank cut: above RANK_ZERO times the
    spectral radius in magnitude. None of them does when all are zero."""
    top = max(abs(w[0]), abs(w[1]), abs(w[2]))
    return [x for x in w if abs(x) > RANK_ZERO * top]


def rank(c: ConicMatrix) -> int:
    """Numeric rank: eigenvalues below RANK_ZERO times the spectral radius are zero."""
    w = _spectrum(_equilibrated(c))
    if w is None:
        return 3
    return len(_nonzero(w))


def classify(c: ConicMatrix) -> ConicClass:
    """Affine class of a conic.

    Degenerate cases are split by rank and by the signs of the nonzero
    eigenvalues; non-degenerate ones by the leading 2x2 minor. Both read the
    equilibrated entries, so huge and tiny matrices neither overflow nor
    underflow.
    """
    m = _equilibrated(c)
    w = _spectrum(m)
    if w is not None:
        nonzero = _nonzero(w)
        if not nonzero:
            raise ValueError("zero conic matrix has no class")
        if len(nonzero) == 1:
            return ConicClass.DOUBLE_LINE
        if len(nonzero) == 2:
            return ConicClass.LINE_PAIR if nonzero[0] * nonzero[1] < 0.0 else ConicClass.POINT

    # full rank: ellipse / parabola / hyperbola via the leading block
    a, b, cc = m[0], m[1], m[2]
    mean = 0.5 * (a + cc)
    rad = math.hypot(0.5 * (a - cc), b)
    big = max(abs(mean) + rad, 1e-300)
    minor = a * cc - b * b
    if abs(minor) <= RANK_ZERO * big * big:
        return ConicClass.PARABOLA
    if minor < 0.0:
        return ConicClass.HYPERBOLA
    return ConicClass.REAL_ELLIPSE if _k.sym_det(m) * (a + cc) < 0.0 else ConicClass.IMAGINARY_ELLIPSE


def _residual(m6: Sequence[float], norm: float, v: Vec3) -> float:
    """|v^T M v| / (norm ||v||^2) for the symmetric matrix m6 of Frobenius
    norm `norm`: the one residual expression behind both public residuals."""
    n2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    return abs(_k.sym_eval(m6, v)) / (norm * n2)


def point_residual(c: ConicMatrix, p) -> float:
    """Normalized incidence residual |x^T C x| / (||C||_F ||x||^2)."""
    m = c.sym6()
    return _residual(m, _sym6_frobenius(m), _vec(p))


def tangency_residual(c: ConicMatrix, l) -> float:
    """Normalized tangency residual |l^T adj(C) l| / (||adj(C)||_F ||l||^2)."""
    adj = _k.sym_adjugate(c.sym6())
    return _residual(adj, _sym6_frobenius(adj), _vec(l))


class PencilEigenvalues(NamedTuple):
    lam1: float
    lam2: float
    lam3: float


def pencil_eigenvalues(points: Sequence, l1, l2) -> PencilEigenvalues:
    """Eigenvalues of the conic pencil behind a generic 3-point/2-line problem.

    Points and lines are HomogeneousPoint/ProjectiveLine objects or any
    coordinate 3-sequences. The three values are ratios of incidence
    products; they are the generalized eigenvalues of the two tangency forms
    in pencil coordinates. Two of them coincide exactly when the line
    intersection point sits on a side of the point triangle, which breaks the
    generic 4-solution case, so a near-tie raises DegenerateCase instead of
    returning garbage, as does an incidence product that underflows to
    exactly 0.0 (CaseDegeneracy, a DegenerateCase). UnsupportedCount unless
    there are exactly three points; NonFiniteInput for an inf or NaN
    coordinate, naming the point or line.
    """
    if len(points) != 3:
        raise UnsupportedCount("exactly three points required")
    lv1, lv2 = _named_vec(l1, "line", 0), _named_vec(l2, "line", 1)
    geometry, n1, n2 = DEFAULT.geometry, _k.norm3(lv1), _k.norm3(lv2)
    incs = []
    for idx, pt in enumerate(points):
        v = _named_vec(pt, "point", idx)
        n = _k.norm3(v)
        inc = (_k.dot3(v, lv1), _k.dot3(v, lv2))
        # incident: |x . l| within the geometric tolerance times |x| |l|
        if abs(inc[0]) <= geometry * n * n1 or abs(inc[1]) <= geometry * n * n2:
            raise GeneralPositionError(
                f"point {idx} lies on an input line; the generic pencil "
                "construction does not apply",
                (idx,),
            )
        incs.append(inc)
    return _pencil_eigenvalues(incs)


def _pencil_eigenvalues(incs: Sequence) -> PencilEigenvalues:
    """pencil_eigenvalues from the incidences (x . l1, x . l2) of the three
    points, none of them zero; CaseDegeneracy when a divisor underflows to
    exactly 0.0, DegenerateCase on a near-tie."""
    (a1, a2), (b1, b2), (c1, c2) = incs
    ab, ac, bc = a1 * b1, a1 * c1, b1 * c1
    if ab == 0.0 or ac == 0.0 or bc == 0.0:
        raise CaseDegeneracy(
            "generic case: an incidence product a1*b1, a1*c1 or b1*c1 of the "
            "pencil eigenvalues is exactly 0.0 (underflow)"
        )
    lam1 = (a2 * b2) / ab
    lam2 = (a2 * c2) / ac
    lam3 = (b2 * c2) / bc
    # a tie is |u - v| within EIGENVALUE_TIE times max(|u|, |v|), written
    # out as max() picks: |v| when |v| > |u|, else |u|
    u1, u2, u3 = abs(lam1), abs(lam2), abs(lam3)
    if (
        abs(lam1 - lam2) <= EIGENVALUE_TIE * (u2 if u2 > u1 else u1)
        or abs(lam1 - lam3) <= EIGENVALUE_TIE * (u3 if u3 > u1 else u1)
        or abs(lam2 - lam3) <= EIGENVALUE_TIE * (u3 if u3 > u2 else u2)
    ):
        raise DegenerateCase(
            "two pencil eigenvalues coincide; the line intersection point "
            "lies on a side of the point triangle"
        )
    return PencilEigenvalues(lam1, lam2, lam3)


#: sym6 index of the matrix entry (row, column)
_SYM6 = ((0, 1, 3), (1, 2, 4), (3, 4, 5))

#: Newton steps allowed for one eigenvalue. An isolated one settles in one
#: or two; a double eigenvalue away from zero (rank 3) is approached
#: linearly, halving the distance each step, and may use them all.
_NEWTON_STEPS = 100

#: bound on ||adj M||_F / ||M||_F^2 below which the two smaller eigenvalues
#: are read off the adjugate. The ratio is within a factor 3 of
#: |lam2 / lam1| (eigenvalues by decreasing magnitude), so below it lam1
#: dominates the trace, and above it only lam3 can be near zero, isolated.
_TWO_SMALL = 1e-3


def _sym6_combo(k1: float, m1: Sequence[float], k2: float, m2: Sequence[float]):
    return tuple(k1 * a + k2 * b for a, b in zip(m1, m2))


def _stable_roots(q2: float, q1: float, q0: float, disc: float) -> tuple[float, float]:
    """Both roots of q2 x^2 + q1 x + q0 = 0 for a positive discriminant.

    The root whose formula adds same-signed terms is computed first and the
    other follows from the product of the roots, so neither suffers
    cancellation. The roots come back unsorted.
    """
    qq = -(q1 + math.copysign(math.sqrt(disc), q1)) / 2.0
    return qq / q2, q0 / qq


def _cubic_root(x: float, e1: float, e2: float, e3: float) -> Optional[float]:
    """A root of x^3 - e1 x^2 + e2 x - e3 by Newton steps from x, or None if
    the steps do not settle. The coefficients are those of a matrix with
    entries at most 1 in magnitude, whose rounding level is an absolute one."""
    settled = 8.0 * sys.float_info.epsilon * (1.0 + abs(e1))
    for _ in range(_NEWTON_STEPS):
        slope = (3.0 * x - 2.0 * e1) * x + e2
        if slope == 0.0:
            return None
        step = (((x - e1) * x + e2) * x - e3) / slope
        x -= step
        if abs(step) <= settled:
            return x
    return None


def _adjugate_column(adj) -> tuple[Vec3, int]:
    """The largest column of an adjugate and its index. When the matrix is
    near rank 2 this column is, to first order, a multiple of its singular
    point."""
    a11, a12, a22, a13, a23, a33 = adj
    cols = ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))
    norms = [_k.norm3(v) for v in cols]
    j = norms.index(max(norms))
    return cols[j], j


def _eigenvalues(m, adj, norm: float) -> Optional[tuple[float, float, float]]:
    """The three eigenvalues of a symmetric matrix, or None if none is near zero.

    m is the matrix in sym6 layout with entries at most 1 in magnitude and
    the largest at least 1/2, adj its adjugate and norm its Frobenius norm.
    The eigenvalues are the roots of x^3 - e1 x^2 + e2 x - e3 (trace, trace
    of the adjugate, determinant); one root is found by Newton steps and the
    other two solve the deflated quadratic x^2 - s x + p. None means the
    steps found no eigenvalue near zero: the matrix has rank 3.
    """
    m11, m12, m22, m13, m23, m33 = m
    a11, a12, a22, a13, a23, a33 = adj
    e1 = m11 + m22 + m33
    e2 = a11 + a22 + a33
    if _sym6_frobenius(adj) <= _TWO_SMALL * norm * norm:
        # two eigenvalues near zero, which the cubic resolves only to about
        # sqrt(eps). With lam1 dominant they are the nonzero eigenvalues of
        # adj(M) / lam1, so read them off the adjugate: its principal 2x2
        # minors sum to det(M) tr(M), and that sum keeps its relative
        # accuracy where the plain determinant's rounding (about eps) would
        # swamp lam1 lam2 lam3.
        e3 = ((a11 * a22 - a12 * a12) + (a11 * a33 - a13 * a13) + (a22 * a33 - a23 * a23)) / e1
        # lam1, a simple root within 6e-3 of e1 relative: the steps settle
        x = _cubic_root(e1, e1, e2, e3)
        p = e3 / x
        s = (e2 - p) / x
    else:
        if e2 == 0.0:
            return None
        q, j = _adjugate_column(adj)
        if 2.0 * abs(q[j]) >= _k.norm3(q):
            # M q = det e_j, so q^T M q = det q_j. Read this way the
            # determinant of a nearly singular matrix keeps its relative
            # accuracy, because the rounding of the cofactors in q enters
            # only to second order; the plain cofactor expansion below
            # leaves an absolute error of about eps, which puts the near-zero
            # eigenvalue about eps/e2 off. Near rank 2 the adjugate is close
            # to a multiple of q q^T, and its largest column has
            # q_j >= |q| / sqrt(3).
            e3 = _k.sym_eval(m, q) / q[j]
        else:
            e3 = _k.dot3((m[_SYM6[j][0]], m[_SYM6[j][1]], m[_SYM6[j][2]]), q)
        # det/e2 is the root nearest zero to first order when it is isolated
        x = _cubic_root(e3 / e2, e1, e2, e3)
        if x is None:
            return None
        s = e1 - x
        # the product of the other two: from e2 when x is the small root,
        # from the determinant when x is the large one
        p = e3 / x if x * x > abs(e2) else e2 - x * s
    disc = s * s - 4.0 * p
    if disc <= 0.0:
        # a symmetric matrix has real eigenvalues: a negative discriminant
        # is rounding around a double root
        return x, 0.5 * s, 0.5 * s
    y1, y2 = _stable_roots(1.0, -s, p, disc)
    return x, y1, y2


def _equilibrated(c: ConicMatrix) -> tuple[float, ...]:
    """c's entries times the power of two that brings the largest into
    [1/2, 1); a zero matrix stays zero.

    The scale is exact, so the signs and the ratios to the spectral radius,
    which decide rank and class, are those of c itself. Raises ValueError
    for an inf or NaN entry.
    """
    v = c.sym6()
    if not all(map(math.isfinite, v)):
        raise ValueError("conic matrix has a non-finite entry; it has no rank")
    top = max(abs(x) for x in v)
    if top == 0.0:
        return v
    exp = math.frexp(top)[1]
    return tuple(math.ldexp(x, -exp) for x in v)


def _spectrum(m) -> Optional[tuple[float, float, float]]:
    """Eigenvalues of an equilibrated matrix m (see _equilibrated), or None
    if none is near zero (see _eigenvalues)."""
    if not any(m):
        return 0.0, 0.0, 0.0
    return _eigenvalues(m, _k.sym_adjugate(m), _sym6_frobenius(m))


def split_line_pair(c: ConicMatrix) -> tuple[ProjectiveLine, ProjectiveLine]:
    """Split a rank-2 conic into its two real lines.

    The singular point is read off the adjugate (which is a rank-1 outer
    product of that point with itself); completing it to a basis removes one
    coordinate and leaves a binary quadratic that factors directly.

    The rank and sign decisions use closed-form eigenvalues of the
    equilibrated matrix (see _eigenvalues), gated by the rank cut of rank
    and classify (see _nonzero).

    Raises ComplexLinePair when the two lines are complex conjugates, RankOne
    for a double line, ValueError if the matrix is not degenerate, and
    DegenerateCase for an inf or NaN entry.
    """
    # symmetric equilibration: pencil members can span many orders of
    # magnitude across coordinates, which would hide a genuine small
    # eigenvalue under the rank gate and misread the pair as a double line
    a, b, cc, d, e, f = c.sym6()
    scales = []
    for row in ((a, b, d), (b, cc, e), (d, e, f)):
        top = max(abs(row[0]), abs(row[1]), abs(row[2]))
        scales.append(1.0 / math.sqrt(top) if top > 0.0 else 1.0)
    s1, s2, s3 = scales
    m = (a * s1 * s1, b * s1 * s2, cc * s2 * s2, d * s1 * s3, e * s2 * s3, f * s3 * s3)
    norm = _sym6_frobenius(m)
    if not norm < math.inf:
        raise DegenerateCase(
            "conic matrix has a non-finite entry (overflow or NaN); it cannot "
            "be split into lines"
        )
    if norm == 0.0:
        raise RankOne("zero matrix")
    adj = _k.sym_adjugate(m)
    w = _eigenvalues(m, adj, norm)
    if w is None:
        raise ValueError("conic is not degenerate; it does not split into lines")
    nonzero = _nonzero(w)
    if len(nonzero) == 3:
        raise ValueError("conic is not degenerate; it does not split into lines")
    if len(nonzero) <= 1:
        raise RankOne("conic is a double line (rank 1)")
    if nonzero[0] * nonzero[1] > 0.0:
        raise ComplexLinePair("degenerate conic has no real line split")

    # the singular point q spans the adjugate; eliminate its largest coordinate
    q, _ = _adjugate_column(adj)
    k = max(range(3), key=lambda i: abs(q[i]))
    i, j = [idx for idx in range(3) if idx != k]
    alpha, gamma, beta = m[_SYM6[i][i]], m[_SYM6[i][j]], m[_SYM6[j][j]]
    disc = gamma * gamma - alpha * beta
    if disc < 0.0:
        disc = 0.0
    rt = math.sqrt(disc)
    scale = max(abs(alpha), abs(beta), abs(gamma), 1e-300)
    if abs(alpha) >= abs(beta) and abs(alpha) > RANK_ZERO * scale:
        pairs2 = ((alpha, gamma - rt), (alpha, gamma + rt))
    elif abs(beta) > RANK_ZERO * scale:
        pairs2 = ((gamma - rt, beta), (gamma + rt, beta))
    else:
        pairs2 = ((1.0, 0.0), (0.0, 2.0 * gamma))
    lines = []
    for cu, cv in pairs2:
        l = [0.0, 0.0, 0.0]
        l[i], l[j] = cu, cv
        l[k] = -(q[i] * cu + q[j] * cv) / q[k]
        # undo the equilibration: balanced lines are S * l_original
        lines.append(ProjectiveLine(l[0] / s1, l[1] / s2, l[2] / s3))
    return lines[0], lines[1]


class PencilIntersection(NamedTuple):
    real_points: tuple[tuple[float, float], ...]
    complex_count: int


def _line_points(l: Vec3) -> tuple[Vec3, Vec3]:
    basis = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    cands = sorted(basis, key=lambda e: abs(_k.dot3(l, e)))
    p0 = _k.cross(l, cands[0])
    p1 = _k.cross(l, cands[1])
    return p0, p1


def _intersect_line_conic(l: Vec3, m6):
    """Intersections of one line with a conic: (real pts, complex count)."""
    p0, p1 = _line_points(l)
    q2 = _k.sym_eval(m6, p1)
    q0 = _k.sym_eval(m6, p0)
    m11, m12, m22, m13, m23, m33 = m6
    q1 = 2.0 * (
        m11 * p0[0] * p1[0]
        + m22 * p0[1] * p1[1]
        + m33 * p0[2] * p1[2]
        + m12 * (p0[0] * p1[1] + p0[1] * p1[0])
        + m13 * (p0[0] * p1[2] + p0[2] * p1[0])
        + m23 * (p0[1] * p1[2] + p0[2] * p1[1])
    )
    scale = max(abs(q2), abs(q1), abs(q0), 1e-300)
    pts: list[Vec3] = []
    if abs(q2) <= 1e-14 * scale:
        # p1 itself is (numerically) on the conic
        pts.append(p1)
        if abs(q1) > 1e-14 * scale:
            th = -q0 / q1
            pts.append(tuple(a + th * b for a, b in zip(p0, p1)))
        return pts, 0
    disc = q1 * q1 - 4.0 * q2 * q0
    # the zero band must be relative to the two cancelling terms, not to the
    # raw coefficients: an unbalanced quadratic (|q0| >> |q1|) would otherwise
    # swallow a decisively negative discriminant
    band = DISCRIMINANT * max(q1 * q1, abs(4.0 * q2 * q0))
    if disc < -band:
        return [], 2
    if disc <= band:
        th = -q1 / (2.0 * q2)
        pts.append(tuple(a + th * b for a, b in zip(p0, p1)))
        return pts, 0
    for th in _stable_roots(q2, q1, q0, disc):
        pts.append(tuple(a + th * b for a, b in zip(p0, p1)))
    return pts, 0


def intersect_conic_pencil(
    c1: ConicMatrix, c2: ConicMatrix, lams: PencilEigenvalues
) -> PencilIntersection:
    """Common points of two conics via the degenerate pencil members.

    Each eigenvalue gives a line pair lam*c1 - c2; two real pairs are crossed
    to produce the four intersections and any further real pair serves as a
    consistency check. With a single real pair its lines are cut against c1
    directly, which also yields the complex count.
    """
    m1, m2 = c1.sym6(), c2.sym6()
    pairs = []
    for lam in lams:
        member = ConicMatrix.from_sym6(_sym6_combo(lam, m1, -1.0, m2))
        try:
            pairs.append(split_line_pair(member))
        except ComplexLinePair:
            pairs.append(None)
    real_pairs = [p for p in pairs if p is not None]
    if not real_pairs:
        raise InconsistentPencil(
            "no pencil member splits into real lines; eigenvalue signs are inconsistent"
        )

    raw_pts: list[Vec3] = []
    complex_count = 0
    if len(real_pairs) >= 2:
        (a1, a2), (b1, b2) = real_pairs[0], real_pairs[1]
        for la in (a1, a2):
            for lb in (b1, b2):
                raw_pts.append(_k.cross(la.vec(), lb.vec()))
        checker = real_pairs[2] if len(real_pairs) > 2 else None
        if checker is not None:
            for pt in raw_pts:
                v1 = _k.dot3(checker[0].vec(), pt)
                v2 = _k.dot3(checker[1].vec(), pt)
                n = _k.norm3(pt)
                ok1 = abs(v1) <= math.sqrt(RESIDUAL) * _k.norm3(checker[0].vec()) * n
                ok2 = abs(v2) <= math.sqrt(RESIDUAL) * _k.norm3(checker[1].vec()) * n
                if not (ok1 or ok2):
                    raise InconsistentPencil(
                        "third line pair does not pass through a computed intersection"
                    )
    else:
        la, lb = real_pairs[0]
        for l in (la, lb):
            pts, cc = _intersect_line_conic(l.vec(), m1)
            raw_pts.extend(pts)
            complex_count += cc

    out: list[tuple[float, float]] = []
    for pt in raw_pts:
        if not _finite(pt):
            raise DegenerateCase("pencil intersection escaped to infinity")
        st = (pt[0] / pt[2], pt[1] / pt[2])
        if not any(math.hypot(st[0] - o[0], st[1] - o[1]) <= 1e-9 * max(1.0, abs(st[0]), abs(st[1])) for o in out):
            out.append(st)
    return PencilIntersection(tuple(out), complex_count)
