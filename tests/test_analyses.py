"""The straight-line family analyses give bit for bit what their
compositions of kernel calls gave.

The references below are the analyses that `predict` and `solve` share,
written as compositions of `det3`, `norm3`, `dot3` and `cross` calls, with
the collinearity test as a loop over index triples, the case-5 rule and the
pencil-eigenvalue tie as generator tests, and the incidences collected in
list comprehensions. The analyses must make the same float operations in the
same order and raise the same error first, so outcomes are compared by repr
of (prediction, state), or of (error type, message, indices), which tells
-0.0 from 0.0 and shows inf and nan. The inputs are those of the kernel
tests (uniform, small integers, axes, 1e150, 1e-160, signed zeros, inf and
nan), and inputs built within and just outside each band the analyses
test: collinear triples, points and diagonal-triangle vertices on the line,
coincident lines, points on the lines or at their meet, and pairs collinear
with the meet. Needs only the standard library.
"""
import random
import re
from itertools import combinations

import pytest

from minconic import MinconicError, predict, solve, solvers
from minconic.conics import PencilEigenvalues, _pencil_eigenvalues
from minconic.errors import CaseDegeneracy, DegenerateCase, GeneralPositionError
from minconic.solvers import CaseAllocation, CountPrediction
from minconic.tolerances import DEFAULT, EIGENVALUE_TIE

from test_kernels import KINDS as KERNEL_KINDS, cross, dot3, ref_diag_vertices, scaled


def det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - b[0] * (a[1] * c[2] - a[2] * c[1])
        + c[0] * (a[1] * b[2] - a[2] * b[1])
    )


def norm3(a):
    return (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]) ** 0.5


# ---------------------------------------------------------------------------
# the composed analyses


def ref_no_collinear_triple(vecs, norms, geometry):
    dets = []
    for i, j, k in combinations(range(len(vecs)), 3):
        d = det3(vecs[i], vecs[j], vecs[k])
        if abs(d) <= geometry * (norms[i] * norms[j] * norms[k]):
            raise GeneralPositionError(f"points {i}, {j}, {k} are collinear", (i, j, k))
        dets.append(d)
    return dets


def ref_analyse_5p(vecs, lvs, geometry):
    ref_no_collinear_triple(vecs, [norm3(v) for v in vecs], geometry)
    return solvers._FIVE_POINT_PREDICTION, vecs


def ref_analyse_4p1l(vecs, lvs, geometry):
    l0, l1, l2 = lv = lvs[0]
    norms = [norm3(v) for v in vecs]
    dets = ref_no_collinear_triple(vecs, norms, geometry)
    nl = norm3(lv)
    dots = [x * l0 + y * l1 + w * l2 for x, y, w in vecs]
    on_line = [i for i in range(4) if abs(dots[i]) <= geometry * norms[i] * nl]
    if len(on_line) >= 2:
        raise GeneralPositionError(
            f"line is a side of the quadrangle: it contains points "
            f"{on_line[0]} and {on_line[1]}",
            tuple(on_line[:2]),
        )
    xi = ref_diag_vertices(*vecs)
    vdots = tuple(x * l0 + y * l1 + w * l2 for x, y, w in xi)
    on_vertex = [j for j in range(3) if abs(vdots[j]) <= geometry * norm3(xi[j]) * nl]
    if len(on_vertex) >= 2:
        raise GeneralPositionError(
            "line is a side of the diagonal triangle (through two of its "
            "vertices); only degenerate pencil members touch it",
            tuple(on_vertex[:2]),
        )
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
        raise solvers._undecided("orientation/side sign product")
    elif pred > 0.0:
        prediction = CountPrediction(2, 0, "orientation/side sign product positive", pred)
    else:
        prediction = CountPrediction(0, 2, "orientation/side sign product negative", pred)
    return prediction, (vdots, on_line, on_vertex)


def ref_classify_3p2l(vecs, lv1, lv2, geometry):
    v0, v1, v2 = vecs
    m = (norm3(v0), norm3(v1), norm3(v2))
    n1, n2 = norm3(lv1), norm3(lv2)
    p = cross(lv1, lv2)
    np_ = norm3(p)
    if np_ <= geometry * n1 * n2:
        raise GeneralPositionError("the two lines coincide", (0, 1))
    if abs(det3(v0, v1, v2)) <= geometry * (m[0] * m[1] * m[2]):
        raise GeneralPositionError("the three points are collinear", (0, 1, 2))
    incs = (
        (dot3(v0, lv1), dot3(v0, lv2)),
        (dot3(v1, lv1), dot3(v1, lv2)),
        (dot3(v2, lv1), dot3(v2, lv2)),
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

    def collinear_with_p(i, j):
        return abs(det3(vecs[i], vecs[j], p)) <= geometry * (m[i] * m[j] * np_)

    if on1 and on2:
        i1, i2 = on1[0], on2[0]
        return CaseAllocation(1, (3 - i1 - i2, i1, i2), False), p, incs
    if on1 or on2:
        rider = (on1 or on2)[0]
        i, j = (k for k in range(3) if k != rider)
        case = 2 if collinear_with_p(i, j) else 4
        return CaseAllocation(case, (i, j, rider), not on1), p, incs
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if collinear_with_p(i, j):
            return CaseAllocation(3, (3 - i - j, i, j), False), p, incs
    return CaseAllocation(5, (0, 1, 2), False), p, incs


def ref_pencil_eigenvalues(incs):
    (a1, a2), (b1, b2), (c1, c2) = incs
    divisors = (a1 * b1, a1 * c1, b1 * c1)
    if 0.0 in divisors:
        raise CaseDegeneracy(
            "generic case: an incidence product a1*b1, a1*c1 or b1*c1 of the "
            "pencil eigenvalues is exactly 0.0 (underflow)"
        )
    lams = PencilEigenvalues(
        (a2 * b2) / divisors[0],
        (a2 * c2) / divisors[1],
        (b2 * c2) / divisors[2],
    )
    pairs = ((lams.lam1, lams.lam2), (lams.lam1, lams.lam3), (lams.lam2, lams.lam3))
    for u, v in pairs:
        if abs(u - v) <= EIGENVALUE_TIE * max(abs(u), abs(v)):
            raise DegenerateCase(
                "two pencil eigenvalues coincide; the line intersection point "
                "lies on a side of the point triangle"
            )
    return lams


def ref_prediction_3p2l(case, A, B, a, b, c):
    if case == 1:
        return CountPrediction(1, 0, "case 1: one point on each line")
    if case == 2:
        return CountPrediction(
            1, 0, "case 2: collinear pair with the crossing, third point incident"
        )
    if case == 3:
        pred = (a[0] * c[0]) * (a[1] * c[1])
        if pred == 0.0:
            raise solvers._undecided("case 3 side-product product")
        if pred > 0.0:
            return CountPrediction(2, 0, "case 3: side products agree in sign", pred)
        return CountPrediction(0, 2, "case 3: side products differ in sign", pred)
    if case == 4:
        pred = -A * B * a[1] * b[1]
        if pred == 0.0:
            raise solvers._undecided("case 4 determinant/incidence product")
        if pred > 0.0:
            return CountPrediction(2, 0, "case 4: determinant/incidence product negative", pred)
        return CountPrediction(0, 2, "case 4: determinant/incidence product positive", pred)
    sides = (a[0] * a[1], b[0] * b[1], c[0] * c[1])
    if 0.0 in sides:
        raise solvers._undecided("a case 5 side product")
    pred = sides[0] * sides[1] * sides[2]
    same = all(s > 0.0 for s in sides) or all(s < 0.0 for s in sides)
    if same:
        return CountPrediction(4, 0, "case 5: all side products share a sign", pred)
    return CountPrediction(0, 4, "case 5: side products have mixed signs", pred)


def ref_analyse_3p2l(vecs, lvs, geometry):
    lv1, lv2 = lvs
    alloc, p, incs = ref_classify_3p2l(vecs, lv1, lv2, geometry)
    i, j, k = alloc.order
    x1, x2, x3 = vecs[i], vecs[j], vecs[k]
    a, b, c = incs[i], incs[j], incs[k]
    if alloc.swap_lines:
        lv1, lv2 = lv2, lv1
        p = cross(lv1, lv2)
        a, b, c = a[::-1], b[::-1], c[::-1]
    A = det3(p, x2, x3)
    B = det3(x1, p, x3)
    D = det3(x1, x2, x3)
    prediction = ref_prediction_3p2l(alloc.case, A, B, a, b, c)
    if alloc.case == 2 and 2.0 * B * b[1] == 0.0:
        raise CaseDegeneracy("collinear-pair case denominator vanished")
    if alloc.case == 3 and D * D * a[0] * a[1] == 0.0:
        raise CaseDegeneracy(
            "case 3 denominator D*D*a0*a1 is exactly 0.0: a factor underflowed"
        )
    lams = None
    if alloc.case == 5:
        try:
            lams = ref_pencil_eigenvalues((a, b, c))
        except CaseDegeneracy:
            raise
        except DegenerateCase as exc:
            raise CaseDegeneracy(
                "generic-case pencil is degenerate: the line intersection "
                "point lies on a side of the point triangle"
            ) from exc
    return prediction, (alloc, (x1, x2, x3, lv1, lv2), (p, A, B, D, a, b, c), lams)


def live_analyse_4p1l(vecs, lvs, geometry):
    """solvers._analyse_4p1l with the state of the reference: the analysis
    also hands the builder the diagonal-triangle vertices it built, as the
    last entry of its state, and those must be the composed vertices."""
    prediction, state = solvers._analyse_4p1l(vecs, lvs, geometry)
    assert repr(state[3:]) == repr((ref_diag_vertices(*vecs),))
    return prediction, state[:3]


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the error is the outcome compared
        return repr((type(exc).__name__, str(exc), getattr(exc, "indices", None)))


# ---------------------------------------------------------------------------
# inputs


def nudged(rng, v, geometry):
    """v moved by a random vector of up to 0, 0.3, 1 or 3 times the
    geometric tolerance times its norm: on its band's edge, either side."""
    size = rng.choice((0.0, 0.3, 1.0, 3.0)) * geometry * norm3(v)
    return tuple(x + size * rng.uniform(-1.0, 1.0) for x in v)


def combo(rng, u, v):
    s, t = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    return tuple(s * x + t * y for x, y in zip(u, v))


def on(rng, line):
    """A point on the line: its meet with a random line."""
    return cross(line, tuple(rng.uniform(-1.0, 1.0) for _ in range(3)))


def through(rng, point):
    """A line through the point."""
    return cross(point, tuple(rng.uniform(-1.0, 1.0) for _ in range(3)))


def banded_points(rng, vecs, geometry):
    """The points with a random third one made collinear with two others."""
    vecs = list(vecs)
    i, j, k = rng.sample(range(len(vecs)), 3)
    vecs[k] = nudged(rng, combo(rng, vecs[i], vecs[j]), geometry)
    return vecs


def banded_4p1l(rng, geometry):
    vecs = [KERNEL_KINDS["uniform"](rng) for _ in range(4)]
    if rng.random() < 0.2:
        vecs = banded_points(rng, vecs, geometry)
    xi = ref_diag_vertices(*vecs)
    i, j = rng.sample(range(4), 2)
    a, b = rng.sample(range(3), 2)
    line = rng.choice((
        lambda: through(rng, vecs[i]),
        lambda: cross(vecs[i], vecs[j]),
        lambda: through(rng, xi[a]),
        lambda: cross(xi[a], xi[b]),
    ))()
    return vecs, [nudged(rng, line, geometry)]


def banded_3p2l(rng, geometry):
    vecs = [KERNEL_KINDS["uniform"](rng) for _ in range(3)]
    l1, l2 = (KERNEL_KINDS["uniform"](rng) for _ in range(2))
    p = cross(l1, l2)
    i, j, k = rng.sample(range(3), 3)
    for _ in range(rng.choice((1, 1, 2))):
        move = rng.randrange(7)
        if move == 0:  # coincident lines
            l2 = tuple(rng.uniform(0.5, 2.0) * x for x in l1)
        elif move == 1:  # three collinear points
            vecs[k] = combo(rng, vecs[i], vecs[j])
        elif move == 2:  # a point at the meet
            vecs[i] = p
        elif move == 3:  # a point on a line (cases 2 and 4), two on one line
            vecs[i] = on(rng, rng.choice((l1, l2)))
            if rng.random() < 0.2:
                vecs[j] = on(rng, rng.choice((l1, l2)))
        elif move == 4:  # one point on each line (case 1)
            vecs[i], vecs[j] = on(rng, l1), on(rng, l2)
        elif move == 5:  # a pair collinear with the meet (case 3)
            vecs[j] = combo(rng, vecs[i], p)
        else:  # a pair collinear with the meet, the third point on a line (case 2)
            vecs[j] = combo(rng, vecs[i], p)
            vecs[k] = on(rng, rng.choice((l1, l2)))
    vecs = [nudged(rng, v, geometry) for v in vecs]
    return vecs, [nudged(rng, l1, geometry), nudged(rng, l2, geometry)]


def banded_5p(rng, geometry):
    return banded_points(rng, [KERNEL_KINDS["uniform"](rng) for _ in range(5)], geometry), []


#: the analysis, its reference and the banded inputs of each family
FAMILIES = {
    "5p": (solvers._analyse_5p, ref_analyse_5p, banded_5p, 5, 0),
    "4p1l": (live_analyse_4p1l, ref_analyse_4p1l, banded_4p1l, 4, 1),
    "3p2l": (solvers._analyse_3p2l, ref_analyse_3p2l, banded_3p2l, 3, 2),
}

#: geometric tolerances: the default, none, and a wide one that many of the
#: drawn inputs fall within
GEOMETRIES = (DEFAULT.geometry, 0.0, 1e-3)


def inputs(family, kind, seed):
    """400 inputs (points, lines, geometry) of the family, drawn as kind."""
    _, _, banded, n_points, n_lines = FAMILIES[family]
    rng = random.Random(seed)
    out = []
    for _ in range(400):
        geometry = rng.choice(GEOMETRIES)
        if kind == "within bands":
            vecs, lvs = banded(rng, DEFAULT.geometry if geometry == 0.0 else geometry)
        else:
            make = DRAWN[kind]
            vecs = [make(rng) for _ in range(n_points)]
            lvs = [make(rng) for _ in range(n_lines)]
        out.append((vecs, lvs, geometry))
    return out


def mixed_scales(rng):
    # a uniform triple at 1, 1e-100 or 1e-170: a product of the incidences
    # of two far-apart elements underflows while each passes its band
    return tuple(rng.choice((1.0, 1e-100, 1e-170)) * x for x in KERNEL_KINDS["uniform"](rng))


#: the kernel tests' kinds of triple; triples near 1e-40 and 1e40, whose sign
#: products underflow to exactly 0.0 or overflow to inf while their factors
#: pass their bands; and triples of mixed scales
DRAWN = dict(
    KERNEL_KINDS, **{"1e-40": scaled(1e-40), "1e40": scaled(1e40), "mixed scales": mixed_scales}
)

KINDS = sorted(DRAWN) + ["within bands"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_analysis_matches_its_composition(family, kind):
    analyse, reference, *_ = FAMILIES[family]
    for vecs, lvs, geometry in inputs(family, kind, 1):
        assert outcome(analyse, vecs, lvs, geometry) == outcome(reference, vecs, lvs, geometry)


@pytest.mark.parametrize("kind", KINDS)
def test_3p2l_classification_matches_its_composition(kind):
    # the classification is also a function of its own: classify_3p2l_case
    # returns its allocation
    for vecs, (lv1, lv2), geometry in inputs("3p2l", kind, 2):
        live = outcome(solvers._classify_3p2l, vecs, lv1, lv2, geometry)
        assert live == outcome(ref_classify_3p2l, vecs, lv1, lv2, geometry)


@pytest.mark.parametrize("kind", KINDS)
def test_pencil_eigenvalues_match_their_composition(kind):
    # the incidences of drawn points and lines, and near ties: a third pair
    # that makes two eigenvalue ratios agree to within about the tie band
    rng = random.Random(3)
    for vecs, (lv1, lv2), _ in inputs("3p2l", kind, 3):
        incs = [(dot3(v, lv1), dot3(v, lv2)) for v in vecs]
        (a1, a2), (b1, b2), _ = incs
        tie = rng.choice((0.0, 0.3, 1.0, 3.0)) * EIGENVALUE_TIE
        near = [incs, incs[:2] + [(b1, b2 * (1.0 + tie))], [(a1, a2 * (1.0 - tie))] + incs[1:]]
        for triple in near:
            assert outcome(_pencil_eigenvalues, triple) == outcome(ref_pencil_eigenvalues, triple)


def decision(analyse, *args) -> str:
    """The rule of the prediction, or the error type and message with its
    numbers replaced by #."""
    try:
        prediction, _ = analyse(*args)
    except Exception as exc:  # the refusal is the decision
        return f"{type(exc).__name__}: " + re.sub(r"\d+", "#", str(exc))
    return prediction.rule


#: every rule and refusal of the three analyses, numbers replaced by #, but
#: the case-2 denominator, which underflows only beyond the inputs drawn here
DECISIONS = {
    "unique conic through five points",
    "unique: line through a quadrangle point",
    "unique: line through a diagonal-triangle vertex",
    "orientation/side sign product positive",
    "orientation/side sign product negative",
    "case 1: one point on each line",
    "case 2: collinear pair with the crossing, third point incident",
    "case 3: side products agree in sign",
    "case 3: side products differ in sign",
    "case 4: determinant/incidence product negative",
    "case 4: determinant/incidence product positive",
    "case 5: all side products share a sign",
    "case 5: side products have mixed signs",
    "GeneralPositionError: points #, #, # are collinear",
    "GeneralPositionError: line is a side of the quadrangle: it contains points # and #",
    "GeneralPositionError: line is a side of the diagonal triangle (through two of its "
    "vertices); only degenerate pencil members touch it",
    "GeneralPositionError: the two lines coincide",
    "GeneralPositionError: the three points are collinear",
    "GeneralPositionError: point # coincides with the intersection of the lines",
    "GeneralPositionError: points # and # lie on the same line; no conic through both "
    "can be tangent to it",
    "CaseDegeneracy: case # denominator D*D*a#*a# is exactly #.#: a factor underflowed",
    "CaseDegeneracy: generic-case pencil is degenerate: the line intersection point "
    "lies on a side of the point triangle",
    "CaseDegeneracy: generic case: an incidence product a#*b#, a#*c# or b#*c# of the "
    "pencil eigenvalues is exactly #.# (underflow)",
} | {
    f"DegenerateCase: {what} is exactly #.#: a factor vanished or underflowed, so the "
    "real/complex count is undecided"
    for what in (
        "orientation/side sign product",
        "case # side-product product",
        "case # determinant/incidence product",
        "a case # side product",
    )
}


def test_the_inputs_reach_every_decision():
    # the comparisons above see every rule and every refusal of the analyses
    seen = set()
    for family, (_, reference, *_) in FAMILIES.items():
        for kind in KINDS:
            for vecs, lvs, geometry in inputs(family, kind, 1):
                seen.add(decision(reference, vecs, lvs, geometry))
    assert DECISIONS <= seen


def test_mixed_scale_3p2l_inputs_raise_only_named_errors():
    # an incidence product a1*b1, a1*c1 or b1*c1 that the generic case
    # divides by can underflow to exactly 0.0 while the side products the
    # prediction reads do not; predict and solve then refuse the input with
    # a CaseDegeneracy, never a bare ZeroDivisionError
    underflows = 0
    for seed in range(1, 40):
        for vecs, lvs, _ in inputs("3p2l", "mixed scales", seed):
            outcomes = []
            for fn in (predict, solve):
                try:
                    fn(vecs, lvs)
                    outcomes.append(None)
                except MinconicError as exc:
                    outcomes.append(str(exc))
            if "exactly 0.0 (underflow)" in (outcomes[0] or ""):
                underflows += 1
                assert outcomes[1] == outcomes[0]
    assert underflows > 0
