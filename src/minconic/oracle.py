"""Independent brute-force verifiers and random configuration generators.

Nothing here shares formulas with the closed-form solvers: the five-point
fit goes through a null-space computation on the design matrix, tangency
roots are isolated by sign-change bisection on the actual matrix pencil,
the ranks of a solution set's conics come from LAPACK's eigenvalues, one
numpy call on the stacked matrices per set, not from the solvers'
closed-form ones, and certification recomputes every constraint residual
itself. These are the ground truth the solver tests compare against.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels as _k
from .conics import ConicMatrix, _residual, _sym6_frobenius
from .errors import RankDeficient
from .projective import HomogeneousPoint, ProjectiveLine, Vec3, _vec
from .selfpolar import DiagonalTriangle
from .solvers import SolutionSet, predict
from .tolerances import DEFAULT, Tolerances


# ---------------------------------------------------------------------------
# five-point null-space fit


def _design_row(v: Vec3) -> list[float]:
    x, y, w = v
    return [x * x, x * y, y * y, x * w, y * w, w * w]


def nullspace_five_point(points: Sequence, tol: Tolerances = DEFAULT) -> ConicMatrix:
    """Classical five-point conic fit via the null space of the design matrix.

    Rows are the monomial vectors (x^2, xy, y^2, xw, yw, w^2); the one
    remaining direction after orthogonalizing the five rows is the conic.
    Implemented locally with modified Gram-Schmidt (run twice per vector for
    orthogonality at working precision) so the oracle does not share code
    with anything it checks.
    """
    if len(points) != 5:
        raise ValueError("exactly five points required")
    basis: list[list[float]] = []
    for idx, p in enumerate(points):
        row = _design_row(_vec(p))
        scale = math.sqrt(sum(x * x for x in row))
        if scale == 0.0:
            raise RankDeficient(f"point {idx} produced a zero design row")
        v = [x / scale for x in row]
        for _ in range(2):
            for q in basis:
                d = sum(a * b for a, b in zip(v, q))
                v = [a - d * b for a, b in zip(v, q)]
        n = math.sqrt(sum(x * x for x in v))
        if n <= 1e-12:
            raise RankDeficient(
                f"design matrix rank fell below five at point {idx} "
                "(degenerate point set)"
            )
        basis.append([x / n for x in v])

    best: Optional[list[float]] = None
    best_norm = -1.0
    for i in range(6):
        v = [0.0] * 6
        v[i] = 1.0
        for _ in range(2):
            for q in basis:
                d = sum(a * b for a, b in zip(v, q))
                v = [a - d * b for a, b in zip(v, q)]
        n = math.sqrt(sum(x * x for x in v))
        if n > best_norm:
            best_norm = n
            best = v
    assert best is not None
    coeffs = [x / best_norm for x in best]
    return ConicMatrix.from_coefficients(coeffs).normalized()


# ---------------------------------------------------------------------------
# tangency root scanning


def scan_tangency_roots(
    tri: DiagonalTriangle,
    line,
    s_range: tuple[float, float] = (-50.0, 50.0),
    samples: int = 4096,
    refine: float = 1e-12,
) -> list[float]:
    """Pencil parameters where the pencil member is tangent to the line.

    Evaluates the tangency form l^T adj(C(s)) l on a sample grid, brackets
    sign changes, and bisects each bracket down to `refine`. Purely numeric;
    roots that the grid steps over (double roots, sub-grid pairs) are missed,
    which is acceptable for an oracle that cross-checks simple roots.
    """
    lv = _vec(line)

    def g(s: float) -> float:
        m6 = _k.conic_from_pencil(tri.xi1, tri.xi2, tri.xi3, s)
        return _k.sym_eval(_k.sym_adjugate(m6), lv)

    lo, hi = s_range
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
            while b - a > refine:
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
# certification


def _ranks(m6s: Sequence[Sequence[float]], tol: Tolerances) -> list[int]:
    """Numeric rank of each sym6 conic from one LAPACK call on the stacked
    matrices: eigenvalues below rank_zero times the spectral radius are zero.

    The thresholds run on plain floats. A NaN eigenvalue makes the spectral
    radius NaN, as ndarray.max does, so no eigenvalue clears it: rank 0.
    An unconverged eigenvalue problem raises numpy's LinAlgError.
    """
    if not m6s:
        return []
    flat = [x for a, b, c, d, e, f in m6s for x in (a, b, d, b, c, e, d, e, f)]
    mats = np.array(flat, dtype=float).reshape(len(m6s), 3, 3)
    ranks = []
    for w in np.linalg.eigvalsh(mats).tolist():
        x, y, z = abs(w[0]), abs(w[1]), abs(w[2])
        top = max(x, y, z)
        if top == 0.0 or math.isnan(x + y + z):
            ranks.append(0)
        else:
            limit = tol.rank_zero * top
            ranks.append((x > limit) + (y > limit) + (z > limit))
    return ranks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    magnitude: float
    limit: float


@dataclass(frozen=True)
class Certification:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _triangle(x1: Vec3, x2: Vec3, x3: Vec3, x4: Vec3):
    """Diagonal-triangle vertices of a quadrangle and their norms."""
    xi = _k.diag_vertices(x1, x2, x3, x4)
    return xi, (_k.norm3(xi[0]), _k.norm3(xi[1]), _k.norm3(xi[2]))


def _self_polar_triangles(vecs: list[Vec3], sol: SolutionSet):
    """The diagonal triangle behind each solution, when its quadrangle can be
    rebuilt from the diagnostics: one triangle for every conic of a 5p or
    4p1l set, one per root for 3p2l."""
    diag = sol.diagnostics
    n = len(sol.real_conics)
    if sol.case_label.startswith("dual:"):
        return None
    if len(vecs) >= 4:
        return [_triangle(*vecs[:4])] * n if n else []
    ctx = diag.context
    if ctx is None or len(diag.parameters) != n:
        return None
    x1, x2, x3 = (vecs[i] for i in diag.allocation)
    tris = []
    for s, t in diag.parameters:
        if ctx.parameterization == "t*p+q":
            x4 = tuple(t * u + v for u, v in zip(ctx.p, ctx.q))
        else:
            x4 = tuple(t * u + v for u, v in zip(x1, ctx.p))
        tris.append(_triangle(x1, x2, x3, x4))
    return tris


def certify(
    points: Sequence, lines: Sequence, sol: SolutionSet, tol: Tolerances = DEFAULT
) -> Certification:
    """Recompute every constraint on a solution set from scratch.

    Covers incidence and tangency residuals, non-degeneracy of each conic,
    self-polarity of the reconstructed quadrangle triangle where the
    diagnostics allow it, and count consistency against the sign predictors.
    Each point, line and conic is read once: a conic's norm and adjugate
    serve all its residuals, and the ranks of the whole set come from one
    LAPACK call.
    """
    checks: list[CheckResult] = []
    vecs = [_vec(p) for p in points]
    lvs = [_vec(l) for l in lines]
    limit = tol.residual

    rows = []  # per conic: sym6, Frobenius norm, worst incidence, worst tangency
    try:
        for cm in sol.real_conics:
            m6 = cm.sym6()
            fro = _sym6_frobenius(m6)
            pin = max([_residual(m6, fro, v) for v in vecs], default=0.0)
            tan = 0.0
            if lvs:
                adj = _k.sym_adjugate(m6)
                adj_fro = _sym6_frobenius(adj)
                tan = max([_residual(adj, adj_fro, l) for l in lvs], default=0.0)
            rows.append((m6, fro, pin, tan))
    except Exception:
        # checked conic by conic, every earlier conic's rank came first
        _ranks([row[0] for row in rows], tol)
        raise
    ranks = _ranks([row[0] for row in rows], tol)
    for i, ((_, _, pin, tan), r) in enumerate(zip(rows, ranks)):
        checks.append(CheckResult(f"incidence[{i}]", pin <= limit, pin, limit))
        checks.append(CheckResult(f"tangency[{i}]", tan <= limit, tan, limit))
        checks.append(CheckResult(f"nondegenerate[{i}]", r == 3, float(r), 3.0))

    tris = _self_polar_triangles(vecs, sol)
    if tris is not None:
        for i, ((m6, fro, _, _), ((u1, u2, u3), (n1, n2, n3))) in enumerate(zip(rows, tris)):
            f1 = fro * n1
            worst = 0.0
            worst = max(worst, abs(_sym_bilinear(m6, u1, u2)) / (f1 * n2))
            worst = max(worst, abs(_sym_bilinear(m6, u1, u3)) / (f1 * n3))
            worst = max(worst, abs(_sym_bilinear(m6, u2, u3)) / (fro * n2 * n3))
            checks.append(CheckResult(f"self-polar[{i}]", worst <= limit, worst, limit))

    try:
        pred = predict(points, lines, tol)
        agree = (
            pred.predicted_real == sol.real_count
            and pred.predicted_complex == sol.complex_count
        )
        checks.append(
            CheckResult("count-consistency", agree, float(sol.real_count), float(pred.predicted_real))
        )
    except Exception:
        checks.append(CheckResult("count-consistency", False, math.nan, math.nan))

    return Certification(tuple(checks))


def _sym_bilinear(m6, u: Vec3, v: Vec3) -> float:
    m11, m12, m22, m13, m23, m33 = m6
    return (
        m11 * u[0] * v[0]
        + m22 * u[1] * v[1]
        + m33 * u[2] * v[2]
        + m12 * (u[0] * v[1] + u[1] * v[0])
        + m13 * (u[0] * v[2] + u[2] * v[0])
        + m23 * (u[1] * v[2] + u[2] * v[1])
    )


# ---------------------------------------------------------------------------
# random configuration generators (margin-rejection sampled)


MARGIN = 10.0
MAX_TRIES = 20000


def _rand_point(rng: random.Random, lim: float = 10.0) -> HomogeneousPoint:
    return HomogeneousPoint(rng.uniform(-lim, lim), rng.uniform(-lim, lim), 1.0)


def _rand_line(rng: random.Random, lim: float = 10.0) -> ProjectiveLine:
    while True:
        p = _rand_point(rng, lim)
        q = _rand_point(rng, lim)
        l = _k.cross(p.vec(), q.vec())
        if _k.norm3(l) > 1e-6:
            return ProjectiveLine(*l)


def _rel_inc(v: Vec3, l: Vec3) -> float:
    return abs(_k.dot3(v, l)) / (_k.norm3(v) * _k.norm3(l))


def _rel_det(u: Vec3, v: Vec3, w: Vec3) -> float:
    return abs(_k.det3(u, v, w)) / (_k.norm3(u) * _k.norm3(v) * _k.norm3(w))


def _triples_ok(vecs, tol: Tolerances, margin: float) -> bool:
    n = len(vecs)
    floor = margin * tol.collinearity
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                if _rel_det(vecs[i], vecs[j], vecs[k]) < floor:
                    return False
    return True


def random_five_points(
    rng: random.Random, tol: Tolerances = DEFAULT, margin: float = MARGIN
) -> list[HomogeneousPoint]:
    for _ in range(MAX_TRIES):
        pts = [_rand_point(rng) for _ in range(5)]
        if _triples_ok([p.vec() for p in pts], tol, margin):
            return pts
    raise RuntimeError("five-point sampling failed to meet margins")


def random_4p1l(
    rng: random.Random, tol: Tolerances = DEFAULT, margin: float = MARGIN
) -> tuple[list[HomogeneousPoint], ProjectiveLine]:
    """Generic four-point/one-line input away from every special incidence."""
    floor = margin * tol.incidence
    for _ in range(MAX_TRIES):
        pts = [_rand_point(rng) for _ in range(4)]
        vecs = [p.vec() for p in pts]
        if not _triples_ok(vecs, tol, margin):
            continue
        line = _rand_line(rng)
        lv = line.vec()
        if any(_rel_inc(v, lv) < floor for v in vecs):
            continue
        xi1, xi2, xi3, _ = _k.diag_triangle(*vecs)
        if any(_rel_inc(x, lv) < floor for x in (xi1, xi2, xi3)):
            continue
        return pts, line
    raise RuntimeError("4p1l sampling failed to meet margins")


def _lines_ok(l1: Vec3, l2: Vec3, tol: Tolerances, margin: float) -> bool:
    sep = _k.norm3(_k.cross(l1, l2)) / (_k.norm3(l1) * _k.norm3(l2))
    return sep > margin * tol.collinearity


def _point_on_line(rng: random.Random, l: Vec3, lim: float = 10.0) -> Optional[HomogeneousPoint]:
    a, b, c = l
    for _ in range(64):
        if abs(b) >= abs(a):
            x = rng.uniform(-lim, lim)
            y = -(a * x + c) / b
        else:
            y = rng.uniform(-lim, lim)
            x = -(b * y + c) / a
        if abs(x) <= 2 * lim and abs(y) <= 2 * lim:
            return HomogeneousPoint(x, y, 1.0)
    return None


def _margins_3p2l(vecs, l1: Vec3, l2: Vec3, tol: Tolerances, margin: float):
    """Relative magnitudes of every dispatch predicate for a 3p2l input."""
    p = _k.cross(l1, l2)
    incs = [[_rel_inc(v, l1), _rel_inc(v, l2)] for v in vecs]
    colls = [
        _rel_det(vecs[i], vecs[j], p)
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    return p, incs, colls


def random_3p2l_case(
    rng: random.Random,
    case: int,
    tol: Tolerances = DEFAULT,
    margin: float = MARGIN,
) -> tuple[list[HomogeneousPoint], ProjectiveLine, ProjectiveLine]:
    """Random input that classifies as the requested 3-point/2-line case.

    Constructed incidences/collinearities are exact to rounding; every other
    dispatch predicate is kept at least `margin` times its tolerance away
    from zero so classification is unambiguous.
    """
    inc_floor = margin * tol.incidence
    coll_floor = margin * tol.collinearity
    for _ in range(MAX_TRIES):
        l1 = _rand_line(rng)
        l2 = _rand_line(rng)
        lv1, lv2 = l1.vec(), l2.vec()
        if not _lines_ok(lv1, lv2, tol, margin):
            continue
        p = _k.cross(lv1, lv2)
        if abs(p[2]) < 1e-3 * _k.norm3(p):
            continue  # keep the crossing finite and well inside the box
        pa = (p[0] / p[2], p[1] / p[2])
        if max(abs(pa[0]), abs(pa[1])) > 50.0:
            continue

        if case == 1:
            x2 = _point_on_line(rng, lv1)
            x3 = _point_on_line(rng, lv2)
            x1 = _rand_point(rng)
            if x2 is None or x3 is None:
                continue
            pts = [x1, x2, x3]
            exact_inc = {(1, 0), (2, 1)}
            exact_coll: set[tuple[int, int]] = set()
        elif case == 2:
            x3 = _point_on_line(rng, lv1)
            x1 = _rand_point(rng)
            if x3 is None:
                continue
            u = rng.uniform(-2.0, 2.0)
            x2 = HomogeneousPoint(
                x1.x + u * (pa[0] - x1.x), x1.y + u * (pa[1] - x1.y), 1.0
            )
            pts = [x1, x2, x3]
            exact_inc = {(2, 0)}
            exact_coll = {(0, 1)}
        elif case == 3:
            x2 = _rand_point(rng)
            u = rng.uniform(-2.0, 2.0)
            x3 = HomogeneousPoint(
                x2.x + u * (pa[0] - x2.x), x2.y + u * (pa[1] - x2.y), 1.0
            )
            x1 = _rand_point(rng)
            pts = [x1, x2, x3]
            exact_inc = set()
            exact_coll = {(1, 2)}
        elif case == 4:
            x3 = _point_on_line(rng, lv1)
            if x3 is None:
                continue
            pts = [_rand_point(rng), _rand_point(rng), x3]
            exact_inc = {(2, 0)}
            exact_coll = set()
        elif case == 5:
            pts = [_rand_point(rng) for _ in range(3)]
            exact_inc = set()
            exact_coll = set()
        else:
            raise ValueError(f"unknown case {case}")

        vecs = [pt.vec() for pt in pts]
        if _rel_det(*vecs) < coll_floor:
            continue
        _, incs, colls = _margins_3p2l(vecs, lv1, lv2, tol, margin)
        ok = True
        for i in range(3):
            for j in range(2):
                if (i, j) in exact_inc:
                    if incs[i][j] > tol.incidence:
                        ok = False
                elif incs[i][j] < inc_floor:
                    ok = False
        pair_order = [(0, 1), (0, 2), (1, 2)]
        for idx, pr in enumerate(pair_order):
            if pr in exact_coll:
                if colls[idx] > tol.collinearity:
                    ok = False
            elif colls[idx] < coll_floor:
                ok = False
        if not ok:
            continue
        return pts, l1, l2
    raise RuntimeError(f"3p2l case-{case} sampling failed to meet margins")


def dualize_input(points: Sequence, lines: Sequence):
    """Swap the roles of points and lines to build the dual configuration."""
    new_points = [HomogeneousPoint(*_vec(l)) for l in lines]
    new_lines = [ProjectiveLine(*_vec(p)) for p in points]
    return new_points, new_lines
