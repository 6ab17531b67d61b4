"""The builders' sym6 route gives what the ConicMatrix route gave.

The builders return the normalized sym6 tuple of each real conic, and
`solve` wraps each returned conic in one ConicMatrix after the dual
adjugation. The references below keep the route that wrapped every
pencil member and five-point conic in a ConicMatrix as it was built, and a
dual solution in a SolutionSet of dual-plane conics that was then re-wrapped
around their adjugates, with the normalization written out as it was. Both
routes run after the same family analysis, so outcomes are compared by repr
of the SolutionSet (conics, counts, case label and diagnostics) or of
(error type, message, indices). The inputs are those of
tests/test_analyses.py: drawn (the kernel tests' kinds, 1e-40, 1e40 and
mixed scales) and built within each band, each as given and with points and
lines exchanged. Needs only the standard library.
"""
import math
import sys

import pytest

from minconic import _kernels as _k
from minconic import solvers
from minconic.conics import ConicMatrix, _stable_roots
from minconic.errors import CaseDegeneracy, DegenerateCase
from minconic.solvers import CaseContext, SolutionSet, SolveDiagnostics
from minconic.tolerances import PARAMETER

from test_analyses import FAMILIES, KINDS, inputs, outcome


def ref_normalized_conic(m):
    a, b, c, d, e, f = m
    n = math.sqrt(a * a + b * b + c * c + d * d + e * e + f * f)
    if n == 0.0:
        raise DegenerateCase("zero conic matrix cannot be normalized")
    if not n < math.inf:
        if not all(map(math.isfinite, m)):
            raise DegenerateCase(
                "conic matrix has a non-finite entry (overflow or NaN); it "
                "cannot be normalized"
            )
        _, exp = math.frexp(max(abs(x) for x in m))
        return ref_normalized_conic([math.ldexp(x, -exp) for x in m])
    lead = a
    for x in (b, c, d, e, f):
        if abs(x) > abs(lead):
            lead = x
    k = (1.0 if lead > 0.0 else -1.0) / n
    return ConicMatrix(k * a, k * b, k * c, k * d, k * e, k * f)


def ref_pencil_member(xi1, xi2, xi3, s):
    if abs(s) <= PARAMETER or abs(s - 1.0) <= PARAMETER:
        raise DegenerateCase(f"pencil member at s={s!r} is degenerate")
    return ref_normalized_conic(_k.conic_from_pencil(xi1, xi2, xi3, s))


def ref_build_5p(vecs, prediction):
    m6 = _k.conic_from_five_points(*vecs)
    if m6 is None:
        raise DegenerateCase("five-point fit: the diagonal triangle's determinant is exactly 0.0")
    return SolutionSet((ref_normalized_conic(m6),), 0, "5p", SolveDiagnostics(prediction=prediction))


def ref_build_4p1l(state, prediction):
    vdots, on_line, on_vertex, (xi1, xi2, xi3) = state
    q2, q1, q0 = solvers._tangency_quadratic(vdots)
    if on_line:
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
        disc = 16.0 * prediction.predicate
        roots = sorted(_stable_roots(q2, q1, q0, disc)) if prediction.predicted_real else []
        label = "4p1l/generic"
    conics = [ref_pencil_member(xi1, xi2, xi3, s) for s in roots]
    diag = SolveDiagnostics(
        allocation=(0, 1, 2, 3),
        discriminant=disc,
        parameters=tuple((s, math.nan) for s in roots),
        prediction=prediction,
        double_root=bool(on_line),
    )
    return SolutionSet(tuple(conics), prediction.predicted_complex, label, diag)


def ref_build_3p2l(state, prediction):
    alloc, (x1, x2, x3, lv1, lv2), (p, A, B, D, a, b, c), lams = state
    C = _k.det3(x1, x2, p)
    diag = SolveDiagnostics(
        allocation=alloc.order,
        lines_swapped=alloc.swap_lines,
        eigenvalues=lams,
        prediction=prediction,
    )
    anchor, offset = x1, p
    roots = []
    if alloc.case == 1:
        roots = [(0.5, -A / (2.0 * D))]
    elif alloc.case == 2:
        q = _k.cross(p, lv2)
        anchor, offset = p, q
        t = (_k.det3(q, x2, x3) * a[1] - _k.det3(x1, q, x3) * b[1]) / (2.0 * B * b[1])
        roots = [(2.0, t)]
    elif alloc.case == 3:
        rhs = (C * C * c[0] * c[1]) / (D * D * a[0] * a[1])
        diag.discriminant = rhs
        if prediction.predicted_real:
            roots = [(None, math.sqrt(rhs)), (None, -math.sqrt(rhs))]
    elif alloc.case == 4:
        q2 = 4.0 * D * D * a[1]
        q1 = 4.0 * D * A * a[1]
        q0 = -A * C * c[1]
        disc = -16.0 * D * D * A * B * a[1] * b[1]
        diag.discriminant = disc
        if prediction.predicted_real:
            roots = [(-(D / A) * t, t) for t in _stable_roots(q2, q1, q0, disc)]
    elif prediction.predicted_real:
        roots = solvers._case5_roots(A, B, C, D, a, b, c)
        band = sys.float_info.epsilon / solvers._smallest_gap(lams)
        s = min((s for s, _ in roots), key=lambda s: min(abs(s), abs(1.0 - s)))
        if min(abs(s), abs(1.0 - s)) <= band:
            raise CaseDegeneracy(
                f"generic-case pencil is degenerate: root s={s!r} lies "
                f"within {band:.3g} of a degenerate member (s = 0 or 1), "
                "the rounding band of the nearest pencil eigenvalue tie"
            )
    diag.context = CaseContext(anchor, offset)
    conics, params = [], []
    for s, t in roots:
        x4 = tuple(t * g + h for g, h in zip(anchor, offset))
        xi1, xi2, xi3 = _k.diag_vertices(x1, x2, x3, x4)
        if s is None:
            d1, d2 = _k.dot3(xi1, lv1), _k.dot3(xi2, lv1)
            den = d1 * d1 - d2 * d2
            if den == 0.0:
                raise CaseDegeneracy(
                    f"case 3 root t={t!r}: the denominator of s is exactly 0.0 "
                    "(underflow)"
                )
            s = d1 * d1 / den
        conics.append(ref_pencil_member(xi1, xi2, xi3, s))
        params.append((s, t))
    order = sorted(range(len(conics)), key=lambda i: params[i])
    diag.parameters = tuple(params[i] for i in order)
    return SolutionSet(
        tuple(conics[i] for i in order), prediction.predicted_complex, alloc.label, diag
    )


REF_BUILDERS = {5: ref_build_5p, 4: ref_build_4p1l, 3: ref_build_3p2l}


def ref_solve(vecs, lvs, geometry):
    prediction, state, _, dual = solvers._front_door(vecs, lvs, geometry)
    sol = REF_BUILDERS[max(len(vecs), len(lvs))](state, prediction)
    if dual:
        conics = tuple(ref_normalized_conic(_k.sym_adjugate(cm.sym6())) for cm in sol.real_conics)
        sol = SolutionSet(conics, sol.complex_count, "dual:" + sol.case_label, sol.diagnostics)
    return sol


def cases(family, kind, seed):
    """The inputs of tests/test_analyses.py, as drawn and dualized."""
    for vecs, lvs, geometry in inputs(family, kind, seed):
        yield vecs, lvs, geometry
        yield lvs, vecs, geometry


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_solve_matches_the_conic_matrix_route(family, kind):
    for vecs, lvs, geometry in cases(family, kind, 4):
        assert outcome(solvers._solve, vecs, lvs, geometry) == outcome(ref_solve, vecs, lvs, geometry)


def test_the_inputs_reach_every_builder_with_real_conics():
    # the comparison above sees real conics from every label, primal and dual
    labels = set()
    for family in FAMILIES:
        for kind in KINDS:
            for vecs, lvs, geometry in cases(family, kind, 4):
                try:
                    sol = ref_solve(vecs, lvs, geometry)
                except Exception:  # a refusal builds no conic
                    continue
                if sol.real_count:
                    labels.add(sol.case_label)
    primal = {"5p", "4p1l/generic", "4p1l/point-on-line", "4p1l/diagonal-vertex"}
    primal |= {f"3p2l/Case{case}" for case in range(1, 6)}
    assert labels >= primal | {"dual:" + label for label in primal}
