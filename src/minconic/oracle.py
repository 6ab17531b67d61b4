"""Independent brute-force verifiers and random configuration generators.

Nothing here shares formulas with the closed-form solvers: the five-point
fit goes through a null-space computation on the design matrix, tangency
roots are isolated by sign-change bisection on the actual matrix pencil, and
certification recomputes every constraint residual itself. Its count judge
reads only the points and lines: four points and a line through the pencil
of the quadrangle's line pairs restricted to the line, three points and two
lines through the Cremona frame that sends the points to the coordinate
triangle. Its self-polar check builds each diagonal triangle from its own
meets of opposite sides. Its nondegenerate check is the rank decision of
conics.rank itself (conics._rank): a determinant bound proves a conic's rank
3, leaving to the eigenvalues of a cyclic Jacobi sweep only the conics it
cannot clear, so certify and rank cannot disagree on a conic's rank.
Certification is straight-line float code on unpacked scalars, with no call
per cross product, dot product or residual, and it calls nothing in the
solvers' kernels. These are the ground truth the solver tests compare
against.

The generators draw points from the square [-BOX, BOX]^2 and accept a draw
by one rule (_clear): each incidence or collinearity the draw constructs
holds within the default geometric tolerance, and every other dispatch
predicate stays MARGIN such tolerances clear of zero.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from . import _kernels as _k
from ._frozen import fast_init
from .conics import ConicMatrix, _rank, _sym6_frobenius
from .errors import RankDeficient, UnsupportedCount
from .projective import HomogeneousPoint, ProjectiveLine, Vec3, _named_vec, _vec
from .solvers import SolutionSet, _triples
from .tolerances import DEFAULT, DISCRIMINANT, RESIDUAL, Tolerances


# ---------------------------------------------------------------------------
# five-point null-space fit


def _design_row(v: Vec3) -> list[float]:
    x, y, w = v
    return [x * x, x * y, y * y, x * w, y * w, w * w]


def nullspace_five_point(points: Sequence) -> ConicMatrix:
    """Classical five-point conic fit via the null space of the design matrix.

    Rows are the monomial vectors (x^2, xy, y^2, xw, yw, w^2); the one
    remaining direction after orthogonalizing the five rows is the conic.
    Implemented locally with modified Gram-Schmidt (run twice per vector for
    orthogonality at working precision) so the oracle does not share code
    with anything it checks. NonFiniteInput names a point with an inf or
    NaN coordinate.
    """
    if len(points) != 5:
        raise UnsupportedCount("exactly five points required")
    basis: list[list[float]] = []

    def reduce(v: list[float]) -> tuple[list[float], float]:
        """v less its projections on the basis, taken twice, and its norm."""
        for _ in range(2):
            for q in basis:
                d = sum(a * b for a, b in zip(v, q))
                v = [a - d * b for a, b in zip(v, q)]
        return v, math.sqrt(sum(x * x for x in v))

    for idx, p in enumerate(points):
        row = _design_row(_named_vec(p, "point", idx))
        scale = math.sqrt(sum(x * x for x in row))
        if scale == 0.0:
            raise RankDeficient(f"point {idx} produced a zero design row")
        v, n = reduce([x / scale for x in row])
        if n <= 1e-12:
            raise RankDeficient(
                f"design matrix rank fell below five at point {idx} "
                "(degenerate point set)"
            )
        basis.append([x / n for x in v])

    best: Optional[list[float]] = None
    best_norm = -1.0
    for i in range(6):
        v, n = reduce([1.0 if j == i else 0.0 for j in range(6)])
        if n > best_norm:
            best, best_norm = v, n
    assert best is not None
    coeffs = [x / best_norm for x in best]
    return ConicMatrix.from_coefficients(coeffs).normalized()


# ---------------------------------------------------------------------------
# tangency root scanning


def scan_tangency_roots(points: Sequence, line) -> list[float]:
    """Pencil parameters s in [-50, 50] of the members tangent to the line,
    in the pencil of conics through the four points, no three collinear.

    Evaluates the tangency form l^T adj(C(s)) l on a grid of 4096 steps,
    brackets sign changes, and bisects each bracket down to 1e-12. Purely
    numeric; roots that the grid steps over (double roots, sub-grid pairs)
    are missed, which is acceptable for an oracle that cross-checks simple
    roots. NonFiniteInput names a point or the line with an inf or NaN
    coordinate.
    """
    if len(points) != 4:
        raise UnsupportedCount("exactly four points required")
    lo, hi, samples = -50.0, 50.0, 4096
    xi1, xi2, xi3 = _k.diag_vertices(*(_named_vec(p, "point", i) for i, p in enumerate(points)))
    lv = _named_vec(line, "line", 0)

    def g(s: float) -> float:
        m6 = _k.conic_from_pencil(xi1, xi2, xi3, s)
        return _k.sym_eval(_k.sym_adjugate(m6), lv)

    xs = [lo + (hi - lo) * i / samples for i in range(samples + 1)]
    vals = [g(x) for x in xs]
    roots: list[float] = []
    for i in range(samples):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            roots.append(xs[i])
            continue
        if va * vb < 0.0:
            a, b = xs[i], xs[i + 1]
            fa = va
            while b - a > 1e-12:
                mid = 0.5 * (a + b)
                fm = g(mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return roots


# ---------------------------------------------------------------------------
# the count judge


def _real_pair(t1: float, t2: float) -> Optional[int]:
    """The real roots, 2 or 0, of a quadratic whose discriminant is t1 - t2,
    or None within DISCRIMINANT of the larger of |t1| and |t2|."""
    disc = t1 - t2
    if not math.isfinite(disc):
        raise OverflowError("the count judge's discriminant is not finite")
    if abs(disc) <= DISCRIMINANT * max(abs(t1), abs(t2)):
        return None
    return 2 if disc > 0.0 else 0


def _judge_4p1l(xs: list[Vec3], l: Vec3, band: float):
    """The pencil (x1x2)(x3x4) + lam (x1x3)(x2x4) restricted to the line is
    a binary quadratic with coefficients linear in lam; its members tangent
    to the line are the roots of that quadratic's discriminant,
    k2 lam^2 + k1 lam + k0."""
    l0, l1, l2 = l
    for x, y, w in xs:
        if abs(x * l0 + y * l1 + w * l2) <= band:
            return None  # a point on the line
    # a side restricts to the linear form of its meet with the line, read
    # on the two coordinates other than the one where |l| is 1
    k = (abs(l0), abs(l1), abs(l2)).index(1.0)
    i, j = k - 2, k - 1
    x1, x2, x3, x4 = xs
    pairs = []
    for (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) in (
        (x1, x2, x3, x4), (x1, x3, x2, x4), (x1, x4, x2, x3)
    ):
        s0, s1, s2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0  # the side
        o0, o1, o2 = c1 * d2 - c2 * d1, c2 * d0 - c0 * d2, c0 * d1 - c1 * d0  # its opposite
        u = (s1 * l2 - s2 * l1, s2 * l0 - s0 * l2, s0 * l1 - s1 * l0)
        v = (o1 * l2 - o2 * l1, o2 * l0 - o0 * l2, o0 * l1 - o1 * l0)
        u0, u1, v0, v1 = u[i], u[j], v[i], v[j]
        det = u0 * v1 - u1 * v0  # 0: the forms share a root, the sides' meet on the line
        if det * det <= band * band * (s0 * s0 + s1 * s1 + s2 * s2) * (o0 * o0 + o1 * o1 + o2 * o2):
            return None
        pairs.append((u0 * v0, u0 * v1 + u1 * v0, u1 * v1, det))
    (a0, b0, c0, d0), (a1, b1, c1, d1), _ = pairs
    # a line pair's restriction has discriminant det^2: k0 = d0^2, k2 = d1^2
    k1 = 2.0 * b0 * b1 - 4.0 * (a0 * c1 + a1 * c0)
    real = _real_pair(k1 * k1, 4.0 * (d0 * d0) * (d1 * d1))
    return None if real is None else (real, 2 - real)


def _judge_3p2l(xs: list[Vec3], l1: Vec3, l2: Vec3, band: float):
    """A Cremona change of frame sends the points to the coordinate triangle
    and the lines to alpha and beta, alpha_i = x_i . l1 and beta_i = x_i . l2.
    The conics a yz + b xz + c xy through the triangle tangent to l1 are
    (a, b, c) = (s^2 / alpha_1, t^2 / alpha_2, (s + t)^2 / alpha_3). With
    r_i = beta_i / alpha_i, tangency to l2 splits into the quadratics
    (r1 - r3) z^2 - 2 (r3 +- sqrt(r1 r2)) z + (r2 - r3) = 0 in z = s / t,
    complex conjugates with no real root when r1 r2 < 0; each real root is
    one real conic."""
    f0, f1, f2 = l1
    g0, g1, g2 = l2
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = xs
    al1, be1 = x0 * f0 + x1 * f1 + x2 * f2, x0 * g0 + x1 * g1 + x2 * g2
    al2, be2 = y0 * f0 + y1 * f1 + y2 * f2, y0 * g0 + y1 * g1 + y2 * g2
    al3, be3 = z0 * f0 + z1 * f1 + z2 * f2, z0 * g0 + z1 * g1 + z2 * g2
    if (
        abs(al1) <= band or abs(al2) <= band or abs(al3) <= band
        or abs(be1) <= band or abs(be2) <= band or abs(be3) <= band
    ):
        return None  # a point on a line
    m0, m1, m2 = f1 * g2 - f2 * g1, f2 * g0 - f0 * g2, f0 * g1 - f1 * g0  # the lines' meet
    limit = band * band * (m0 * m0 + m1 * m1 + m2 * m2)
    # (x_i x x_j) . meet: 0 when x_i, x_j and the meet of the lines are collinear
    for det in (al1 * be2 - al2 * be1, al1 * be3 - al3 * be1, al2 * be3 - al3 * be2):
        if det * det <= limit:
            return None
    r1, r2, r3 = be1 / al1, be2 / al2, be3 / al3
    if r1 * r2 < 0.0:
        return 0, 4
    root = math.sqrt(r1 * r2)
    real = 0
    for q in (r3 + root, r3 - root):
        n = _real_pair(4.0 * q * q, 4.0 * (r1 - r3) * (r2 - r3))
        if n is None:
            return None
        real += n
    return real, 4 - real


def _judged_count(vecs: list[Vec3], lvs: list[Vec3], band: float):
    """(real, complex) conic counts of the triples of a configuration, from
    formulas the solvers do not use, or None (not judged) within band of a
    special position. Each element is first scaled to largest coordinate
    magnitude 1, so a band relative to the norms of points and lines is band
    itself. A lines-heavy input is judged as its dual. Raises
    ArithmeticError for a zero element or a discriminant beyond the float
    range."""
    if len(vecs) < len(lvs):
        vecs, lvs = lvs, vecs
    if not lvs:
        return 1, 0
    # each element over its largest coordinate magnitude: a zero vector,
    # which is no point or line, divides by zero
    units = []
    for x, y, w in vecs + lvs:
        m, ay, aw = abs(x), abs(y), abs(w)
        if ay > m:
            m = ay
        if aw > m:
            m = aw
        units.append((x / m, y / m, w / m))
    xs = units[: len(vecs)]
    if len(lvs) == 1:
        return _judge_4p1l(xs, units[-1], band)
    return _judge_3p2l(xs, units[-2], units[-1], band)


# ---------------------------------------------------------------------------
# certification


@fast_init
@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    magnitude: float
    limit: float


@fast_init
@dataclass(frozen=True)
class Certification:
    checks: tuple[CheckResult, ...]
    #: names of the checks that were not judged (the count of a special
    #: position input); ok does not read them
    not_judged: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _check_names(i: int) -> tuple[str, str, str, str]:
    """The names of the checks of conic i."""
    return f"incidence[{i}]", f"tangency[{i}]", f"nondegenerate[{i}]", f"self-polar[{i}]"


#: the check names of the first conics of a set; a solve returns at most four
_CHECK_NAMES = [_check_names(i) for i in range(4)]


def _conic_residuals(m6, fro: float, vecs: list[Vec3], lvs: list[Vec3]):
    """(worst incidence, worst tangency) of the sym6 conic m6 of Frobenius
    norm fro: the largest |v^T M v| / (||M||_F ||v||^2) over the points vecs,
    and over the lines lvs with M the adjugate of m6. The worst is NaN when
    one residual is NaN, or when a divisor is zero (a zero conic, the
    adjugate of a conic of rank 1 or 0, entries whose squares underflow, or a
    zero element): a failed check. No points, or no lines, give 0.0."""
    a, b, c, d, e, f = m6
    pin = 0.0
    for x, y, w in vecs:
        div = fro * (x * x + y * y + w * w)
        if div == 0.0:
            pin = math.nan
            break
        r = abs(a * x * x + c * y * y + f * w * w + 2.0 * (b * x * y + d * x * w + e * y * w)) / div
        if r > pin:
            pin = r
        elif r != r:
            pin = math.nan
            break
    if not lvs:
        return pin, 0.0
    # the adjugate, in the same sym6 layout
    A, B, C = c * f - e * e, d * e - b * f, a * f - d * d
    D, E, F = b * e - c * d, b * d - a * e, a * c - b * b
    adj_fro = math.sqrt(A * A + C * C + F * F + 2.0 * (B * B + D * D + E * E))
    tan = 0.0
    for x, y, w in lvs:
        div = adj_fro * (x * x + y * y + w * w)
        if div == 0.0:
            tan = math.nan
            break
        r = abs(A * x * x + C * y * y + F * w * w + 2.0 * (B * x * y + D * x * w + E * y * w)) / div
        if r > tan:
            tan = r
        elif r != r:
            tan = math.nan
            break
    return pin, tan


def _triangle(x1: Vec3, x2: Vec3, x3: Vec3, x4: Vec3):
    """The diagonal triangle of a quadrangle, its vertices the meets of the
    opposite sides x1x2 / x3x4, x1x3 / x2x4 and x1x4 / x2x3, and their
    norms."""
    a0, a1, a2 = x1
    b0, b1, b2 = x2
    c0, c1, c2 = x3
    d0, d1, d2 = x4
    p0, p1, p2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    q0, q1, q2 = c1 * d2 - c2 * d1, c2 * d0 - c0 * d2, c0 * d1 - c1 * d0
    r0, r1, r2 = a1 * c2 - a2 * c1, a2 * c0 - a0 * c2, a0 * c1 - a1 * c0
    s0, s1, s2 = b1 * d2 - b2 * d1, b2 * d0 - b0 * d2, b0 * d1 - b1 * d0
    t0, t1, t2 = a1 * d2 - a2 * d1, a2 * d0 - a0 * d2, a0 * d1 - a1 * d0
    u0, u1, u2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    e0, e1, e2 = p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0
    f0, f1, f2 = r1 * s2 - r2 * s1, r2 * s0 - r0 * s2, r0 * s1 - r1 * s0
    g0, g1, g2 = t1 * u2 - t2 * u1, t2 * u0 - t0 * u2, t0 * u1 - t1 * u0
    return ((e0, e1, e2), (f0, f1, f2), (g0, g1, g2)), (
        (e0 * e0 + e1 * e1 + e2 * e2) ** 0.5,
        (f0 * f0 + f1 * f1 + f2 * f2) ** 0.5,
        (g0 * g0 + g1 * g1 + g2 * g2) ** 0.5,
    )


def _self_polar(m6, fro: float, triangle) -> float:
    """The largest |u^T M v| / (||M||_F |u| |v|) over the vertex pairs u, v of
    the triangle, vertices and their norms as _triangle gives them, for the
    sym6 conic m6 of Frobenius norm fro: 0 when the triangle is self-polar.
    NaN when one value is NaN, or when a divisor is zero (a zero conic or
    vertex: a zero or repeated point, or an underflow), as for the
    residuals: a failed check."""
    a, b, c, d, e, f = m6
    ((p0, p1, p2), (q0, q1, q2), (r0, r1, r2)), (n1, n2, n3) = triangle
    f1 = fro * n1
    d12, d13, d23 = f1 * n2, f1 * n3, fro * n2 * n3
    if d12 == 0.0 or d13 == 0.0 or d23 == 0.0:
        return math.nan
    w12 = abs(
        a * p0 * q0 + c * p1 * q1 + f * p2 * q2
        + b * (p0 * q1 + p1 * q0) + d * (p0 * q2 + p2 * q0) + e * (p1 * q2 + p2 * q1)
    ) / d12
    w13 = abs(
        a * p0 * r0 + c * p1 * r1 + f * p2 * r2
        + b * (p0 * r1 + p1 * r0) + d * (p0 * r2 + p2 * r0) + e * (p1 * r2 + p2 * r1)
    ) / d13
    w23 = abs(
        a * q0 * r0 + c * q1 * r1 + f * q2 * r2
        + b * (q0 * r1 + q1 * r0) + d * (q0 * r2 + q2 * r0) + e * (q1 * r2 + q2 * r1)
    ) / d23
    if math.isnan(w12 + w13 + w23):  # magnitudes: NaN exactly when one is
        return math.nan
    return max(w12, w13, w23)


def certify(
    points: Sequence, lines: Sequence, sol: SolutionSet, tol: Tolerances = DEFAULT
) -> Certification:
    """Recompute every constraint on a solution set from scratch.

    Covers incidence and tangency residuals, non-degeneracy of each conic,
    self-polarity of the diagonal triangle of each rebuilt quadrangle where
    the diagnostics allow it, and count consistency against the count
    judge, which reads only the points and lines. The judge leaves a
    special-position input (within MARGIN times tol.geometry of a point on a
    line, or of a line through the meet of two opposite quadrangle sides,
    or of two points collinear with the meet of the lines, or with a
    discriminant within DISCRIMINANT of its terms) not judged: its count
    check is named in `not_judged` and not run. An input that the solvers'
    reads refuse, or a zero element, fails the count check with NaN. Each
    point, line and conic is read once, a conic's norm and adjugate serve
    all its residuals, and Jacobi sweeps rank only the conics that the
    determinant bound cannot prove rank 3.
    """
    try:
        vecs, lvs = _triples(points, lines)
        read = True
    except Exception:  # the solvers refuse the input, so the count check fails
        vecs = [_vec(p) for p in points]
        lvs = [_vec(l) for l in lines]
        read = False

    n = len(sol.real_conics)
    names = _CHECK_NAMES if n <= len(_CHECK_NAMES) else [_check_names(i) for i in range(n)]
    limit = RESIDUAL
    checks: list[CheckResult] = []
    m6s: list = []
    fros: list[float] = []
    for cm, (inc_name, tan_name, rank_name, _) in zip(sol.real_conics, names):
        m6 = cm.sym6()
        fro = _sym6_frobenius(m6)
        pin, tan = _conic_residuals(m6, fro, vecs, lvs)
        r = _rank(m6, fro)
        m6s.append(m6)
        fros.append(fro)
        checks.append(CheckResult(inc_name, pin <= limit, pin, limit))
        checks.append(CheckResult(tan_name, tan <= limit, tan, limit))
        checks.append(CheckResult(rank_name, r == 3, float(r), 3.0))

    # the diagonal triangle behind each conic, when its quadrangle can be
    # rebuilt from the diagnostics: one triangle for every conic of a 5p or
    # 4p1l set, one per root for 3p2l
    tris = []
    if not sol.case_label.startswith("dual:"):
        if len(vecs) >= 4:
            tris = [_triangle(*vecs[:4])] * n if n else []
        elif len(vecs) == 3:  # the allocation names points 0, 1 and 2
            diag = sol.diagnostics
            ctx = diag.context
            if ctx is not None and len(diag.parameters) == n:
                x1, x2, x3 = (vecs[i] for i in diag.allocation)
                (g0, g1, g2), (h0, h1, h2) = ctx.anchor, ctx.offset
                tris = [
                    _triangle(x1, x2, x3, (t * g0 + h0, t * g1 + h1, t * g2 + h2))
                    for _, t in diag.parameters
                ]
    for m6, fro, tri, (_, _, _, polar_name) in zip(m6s, fros, tris, names):
        polar = _self_polar(m6, fro, tri)
        checks.append(CheckResult(polar_name, polar <= limit, polar, limit))

    not_judged: tuple[str, ...] = ()
    count: Optional[tuple[int, int]] = None
    refused = not read
    if read:
        try:
            count = _judged_count(vecs, lvs, MARGIN * tol.geometry)
        except ArithmeticError:  # a zero element, or a discriminant beyond the float range
            refused = True
    if refused:
        checks.append(CheckResult("count-consistency", False, math.nan, math.nan))
    elif count is None:
        not_judged = ("count-consistency",)
    else:
        agree = count == (sol.real_count, sol.complex_count)
        checks.append(
            CheckResult("count-consistency", agree, float(sol.real_count), float(count[0]))
        )

    return Certification(tuple(checks), not_judged)


# ---------------------------------------------------------------------------
# random configuration generators (margin-rejection sampled)


#: distance, in geometric tolerances, of every inexact dispatch predicate from 0
MARGIN = 10.0
MAX_TRIES = 20000
#: random points are drawn from the square [-BOX, BOX]^2
BOX = 10.0


def _rand_point(rng: random.Random) -> HomogeneousPoint:
    return HomogeneousPoint(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX), 1.0)


def _rand_line(rng: random.Random) -> ProjectiveLine:
    while True:
        l = _k.cross(_rand_point(rng).vec(), _rand_point(rng).vec())
        if _k.norm3(l) > 1e-6:
            return ProjectiveLine(*l)


def _point_on_line(rng: random.Random, l: Vec3) -> Optional[HomogeneousPoint]:
    a, b, c = l
    for _ in range(64):
        if abs(b) >= abs(a):
            x = rng.uniform(-BOX, BOX)
            y = -(a * x + c) / b
        else:
            y = rng.uniform(-BOX, BOX)
            x = -(b * y + c) / a
        if abs(x) <= 2 * BOX and abs(y) <= 2 * BOX:
            return HomogeneousPoint(x, y, 1.0)
    return None


def _rel_inc(v: Vec3, l: Vec3) -> float:
    return abs(_k.dot3(v, l)) / (_k.norm3(v) * _k.norm3(l))


def _rel_det(u: Vec3, v: Vec3, w: Vec3) -> float:
    return abs(_k.det3(u, v, w)) / (_k.norm3(u) * _k.norm3(v) * _k.norm3(w))


def _clear(margins, exact=frozenset()) -> bool:
    """The generators' one acceptance rule, on (predicate, relative
    magnitude) pairs read in order: a predicate in exact, which the draw
    makes hold, is within DEFAULT.geometry of 0, and every other is at least
    MARGIN times that away from it. A NaN magnitude passes either test."""
    floor = MARGIN * DEFAULT.geometry
    for name, m in margins:
        if (m > DEFAULT.geometry) if name in exact else (m < floor):
            return False
    return True


def random_five_points(rng: random.Random) -> list[HomogeneousPoint]:
    for _ in range(MAX_TRIES):
        pts = [_rand_point(rng) for _ in range(5)]
        if _clear(enumerate(_rel_det(*t) for t in combinations([p.vec() for p in pts], 3))):
            return pts
    raise RuntimeError("five-point sampling failed to meet margins")


def random_4p1l(rng: random.Random) -> tuple[list[HomogeneousPoint], ProjectiveLine]:
    """Generic four-point/one-line input away from every special incidence."""
    for _ in range(MAX_TRIES):
        pts = [_rand_point(rng) for _ in range(4)]
        vecs = [p.vec() for p in pts]
        if not _clear(enumerate(_rel_det(*t) for t in combinations(vecs, 3))):
            continue  # the line is drawn only for a quadrangle
        line = _rand_line(rng)
        lv = line.vec()
        # the points, then the diagonal vertices, off the line
        if _clear(enumerate(_rel_inc(v, lv) for v in vecs + list(_k.diag_vertices(*vecs)))):
            return pts, line
    raise RuntimeError("4p1l sampling failed to meet margins")


def random_3p2l_case(
    rng: random.Random, case: int
) -> tuple[list[HomogeneousPoint], ProjectiveLine, ProjectiveLine]:
    """Random input that classifies as the requested 3-point/2-line case,
    unambiguously: the case's constructed predicates hold, the rest are clear."""
    for _ in range(MAX_TRIES):
        l1, l2 = _rand_line(rng), _rand_line(rng)
        lv1, lv2 = l1.vec(), l2.vec()
        p = _k.cross(lv1, lv2)
        # the lines apart, and their crossing finite and well inside the box,
        # before any point is drawn
        sep = _k.norm3(p) / (_k.norm3(lv1) * _k.norm3(lv2))
        if not sep > MARGIN * DEFAULT.geometry or abs(p[2]) < 1e-3 * _k.norm3(p):
            continue
        pa = (p[0] / p[2], p[1] / p[2])
        if max(abs(pa[0]), abs(pa[1])) > 50.0:
            continue

        if case == 1:
            x2 = _point_on_line(rng, lv1)
            x3 = _point_on_line(rng, lv2)
            x1 = _rand_point(rng)
            if x2 is None or x3 is None:
                continue
            exact = {"x2 on l1", "x3 on l2"}
        elif case == 2:
            x3 = _point_on_line(rng, lv1)
            x1 = _rand_point(rng)
            if x3 is None:
                continue
            u = rng.uniform(-2.0, 2.0)
            x2 = HomogeneousPoint(x1.x + u * (pa[0] - x1.x), x1.y + u * (pa[1] - x1.y), 1.0)
            exact = {"x3 on l1", "x1 x2 p"}
        elif case == 3:
            x2 = _rand_point(rng)
            u = rng.uniform(-2.0, 2.0)
            x3 = HomogeneousPoint(x2.x + u * (pa[0] - x2.x), x2.y + u * (pa[1] - x2.y), 1.0)
            x1 = _rand_point(rng)
            exact = {"x2 x3 p"}
        elif case == 4:
            x3 = _point_on_line(rng, lv1)
            if x3 is None:
                continue
            x1, x2 = _rand_point(rng), _rand_point(rng)
            exact = {"x3 on l1"}
        elif case == 5:
            x1, x2, x3 = _rand_point(rng), _rand_point(rng), _rand_point(rng)
            exact = set()
        else:
            raise ValueError(f"unknown case {case}")

        pts = [x1, x2, x3]
        vecs = [pt.vec() for pt in pts]
        # the points apart, each point on each line, then each pair collinear
        # with the crossing p
        margins = [("x1 x2 x3", _rel_det(*vecs))]
        margins += [(f"x{i} on l{j}", _rel_inc(v, l))
                    for i, v in enumerate(vecs, 1) for j, l in ((1, lv1), (2, lv2))]
        margins += [(f"x{i + 1} x{j + 1} p", _rel_det(vecs[i], vecs[j], p))
                    for i, j in ((0, 1), (0, 2), (1, 2))]
        if _clear(margins, exact):
            return pts, l1, l2
    raise RuntimeError(f"3p2l case-{case} sampling failed to meet margins")


def dualize_input(points: Sequence, lines: Sequence):
    """Swap the roles of points and lines to build the dual configuration."""
    new_points = [HomogeneousPoint(*_vec(l)) for l in lines]
    new_lines = [ProjectiveLine(*_vec(p)) for p in points]
    return new_points, new_lines
