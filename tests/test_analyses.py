"""Inputs for the golden digests of the family analyses and builders.

The inputs below are drawn for the blocks of tests/golden_repr.tsv that
record, by repr, the outcome of the analyses `predict` and `solve` share and
of the builders behind `solve`: `analyse_<family>_<kind>` (the three
`solvers._analyse_*`), `classify_3p2l_<kind>` (`solvers._classify_3p2l`),
`pencil_eigenvalues_<kind>` (`conics._pencil_eigenvalues` on the incidences
and on near ties) and `solve_<family>_<kind>` (`solvers._solve`, as drawn
and with points and lines exchanged). repr tells -0.0 from 0.0 and shows inf
and nan, and an error is recorded as its type, message and indices. The
kinds are those of the kernel blocks (uniform, small integers, axes, 1e150,
1e-160, signed zeros, inf and nan), 1e-40, 1e40, mixed scales, and inputs
built within and just outside each band the analyses test: collinear
triples, points and diagonal-triangle vertices on the line, coincident
lines, points on the lines or at their meet, and pairs collinear with the
meet. The tests here check that the inputs reach every decision of the
analyses and real conics from every builder. Needs only the standard
library.
"""
import random
import re

from minconic import MinconicError, predict, solve, solvers
from minconic._kernels import cross, diag_vertices, dot3, norm3
from minconic.tolerances import DEFAULT, EIGENVALUE_TIE

from test_kernels import KINDS as KERNEL_KINDS, scaled


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
    xi = diag_vertices(*vecs)
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


#: the analysis and the banded inputs of each family
FAMILIES = {
    "5p": (solvers._analyse_5p, banded_5p, 5, 0),
    "4p1l": (solvers._analyse_4p1l, banded_4p1l, 4, 1),
    "3p2l": (solvers._analyse_3p2l, banded_3p2l, 3, 2),
}

#: geometric tolerances: the default, none, and a wide one that many of the
#: drawn inputs fall within
GEOMETRIES = (DEFAULT.geometry, 0.0, 1e-3)


def inputs(family, kind, seed):
    """400 inputs (points, lines, geometry) of the family, drawn as kind."""
    _, banded, n_points, n_lines = FAMILIES[family]
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


def classify_inputs(kind):
    """(points, line 1, line 2, geometry) for `_classify_3p2l`."""
    for vecs, (lv1, lv2), geometry in inputs("3p2l", kind, 2):
        yield vecs, lv1, lv2, geometry


def near_ties(kind):
    """(incidences,) for `_pencil_eigenvalues`: the incidences of drawn
    points and lines, and near ties, a third pair that makes two eigenvalue
    ratios agree to within about the tie band."""
    rng = random.Random(3)
    for vecs, (lv1, lv2), _ in inputs("3p2l", kind, 3):
        incs = [(dot3(v, lv1), dot3(v, lv2)) for v in vecs]
        (a1, a2), (b1, b2), _ = incs
        tie = rng.choice((0.0, 0.3, 1.0, 3.0)) * EIGENVALUE_TIE
        yield (incs,)
        yield (incs[:2] + [(b1, b2 * (1.0 + tie))],)
        yield ([(a1, a2 * (1.0 - tie))] + incs[1:],)


def cases(family, kind, seed):
    """The inputs of the family, as drawn and dualized."""
    for vecs, lvs, geometry in inputs(family, kind, seed):
        yield vecs, lvs, geometry
        yield lvs, vecs, geometry


def mixed_scales(rng):
    # a uniform triple at 1, 1e-100 or 1e-170: a product of the incidences
    # of two far-apart elements underflows while each passes its band
    return tuple(rng.choice((1.0, 1e-100, 1e-170)) * x for x in KERNEL_KINDS["uniform"](rng))


#: the kernel blocks' kinds of triple; triples near 1e-40 and 1e40, whose
#: sign products underflow to exactly 0.0 or overflow to inf while their
#: factors pass their bands; and triples of mixed scales
DRAWN = dict(
    KERNEL_KINDS, **{"1e-40": scaled(1e-40), "1e40": scaled(1e40), "mixed scales": mixed_scales}
)

KINDS = sorted(DRAWN) + ["within bands"]


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
    # the analysis blocks see every rule and every refusal of the analyses
    seen = set()
    for family, (analyse, *_) in FAMILIES.items():
        for kind in KINDS:
            for vecs, lvs, geometry in inputs(family, kind, 1):
                seen.add(decision(analyse, vecs, lvs, geometry))
    assert DECISIONS <= seen


def test_the_inputs_reach_every_builder_with_real_conics():
    # the solve blocks see real conics from every label, primal and dual
    labels = set()
    for family in FAMILIES:
        for kind in KINDS:
            for vecs, lvs, geometry in cases(family, kind, 4):
                try:
                    sol = solvers._solve(vecs, lvs, geometry)
                except Exception:  # a refusal builds no conic
                    continue
                if sol.real_count:
                    labels.add(sol.case_label)
    primal = {"5p", "4p1l/generic", "4p1l/point-on-line", "4p1l/diagonal-vertex"}
    primal |= {f"3p2l/Case{case}" for case in range(1, 6)}
    assert labels >= primal | {"dual:" + label for label in primal}


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
