"""Each solver family analyses its input once, and solve() reports exactly
the prediction that predict() gives for the same input; predict() runs the
analysis that solve() runs, so it refuses every special-position input that
solve() refuses; the residuals solve() reports are those of the public
residual functions, computed once per conic; solve() and predict() read each
input element once, and the public family functions pass the same front
door."""
import dataclasses
import math
import random
import re
from collections import Counter

import pytest

import minconic._kernels as _k
from minconic import (
    CaseDegeneracy,
    DegenerateCase,
    GeneralPositionError,
    HomogeneousPoint,
    MinconicError,
    NonFiniteInput,
    ProjectiveLine,
    UnsupportedCount,
    pencil_eigenvalues,
    point_residual,
    predict,
    solve,
    solvers,
    tangency_residual,
)
from minconic.oracle import dualize_input, random_3p2l_case, random_4p1l, random_five_points

from conftest import gallery_names, load_gallery_case


def counted(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("case", range(1, 6))
def test_3p2l_solve_classifies_once(monkeypatch, case):
    pts, l1, l2 = random_3p2l_case(random.Random(case), case)
    calls = counted(monkeypatch, solvers, "classify_3p2l_case")
    solve(pts, [l1, l2])
    assert len(calls) == 1


def one_input(family):
    rng = random.Random(7)
    if family == "4p1l":
        pts, line = random_4p1l(rng)
        return pts, [line]
    pts = random_five_points(rng)
    return (pts, []) if family == "5p" else dualize_input(pts, [])


#: 3-point/2-line families of one case each, primal and dual
CASES_3P2L = [f"{kind}_c{case}" for kind in ("3p2l", "2p3l") for case in range(1, 6)]


def inputs_of(family):
    """The one input of one_input for 4p1l, 5p and 5l; twelve inputs of one
    3-point/2-line case, primal or dual, otherwise."""
    if family not in CASES_3P2L:
        return [one_input(family)]
    case = int(family[-1])
    rng = random.Random(case)
    out = []
    for _ in range(12):
        pts, l1, l2 = random_3p2l_case(rng, case)
        out.append(dualize_input(pts, [l1, l2]) if family[0] == "2" else (pts, [l1, l2]))
    return out


@pytest.mark.parametrize("family", ["4p1l", "5p", "5l"] + CASES_3P2L)
def test_solve_builds_one_diagonal_triangle(monkeypatch, family):
    # the reported deviation is that of the one triangle whose alarm is
    # taken: for 5p and 5l the triangle of the first four points the conic
    # is fitted on; for 3p2l and 2p3l every root gets its vertices and the
    # alarm runs once, on the quadrangle of the last root built, whose fourth
    # point is one that the context and parameters give, and with no real
    # root there is neither
    calls = counted(monkeypatch, _k, "diag_triangle")
    real = []
    for points, lines in inputs_of(family):
        calls.clear()
        sol = solve(points, lines)
        real.append(sol.real_count > 0)
        if family in CASES_3P2L and sol.real_count == 0:
            assert calls == [] and sol.diagnostics.triangle_deviation is None
            continue
        assert len(calls) == 1
        quad = calls[0]
        assert sol.diagnostics.triangle_deviation == _k.diag_triangle(*quad)[3]
        if family in CASES_3P2L:
            ctx = sol.diagnostics.context
            anchor, offset = (quad[0], ctx.p) if ctx.q is None else (ctx.p, ctx.q)
            ts = [t for _, t in sol.diagnostics.parameters]
            assert quad[3] in [tuple(t * u + v for u, v in zip(anchor, offset)) for t in ts]
    if family in CASES_3P2L:
        # cases 3-5 have inputs with and without real conics
        assert any(real) and (family[-1] in "12" or not all(real))


def test_predict_computes_each_norm_once(monkeypatch):
    # each point, line, vertex and line meet has its norm taken once per
    # predict (the four point norms of require_no_collinear_triple aside); the
    # single-pass analyses took 18 on a 4p1l input and 27 on a 3p2l one
    rng = random.Random(3)
    pts, line = random_4p1l(rng)
    generic = [random_3p2l_case(rng, 5) for _ in range(3)]
    calls = counted(monkeypatch, _k, "norm3")
    predict(pts, [line])
    assert len(calls) <= 12
    for pts, l1, l2 in generic:
        calls.clear()
        predict(pts, [l1, l2])
        assert len(calls) <= 6


def corpus(seed=20):
    rng = random.Random(seed)
    out = []
    for _ in range(40):
        out.append((random_five_points(rng), []))
        pts, line = random_4p1l(rng)
        out.append((pts, [line]))
        for case in range(1, 6):
            pts, l1, l2 = random_3p2l_case(rng, case)
            out.append((pts, [l1, l2]))
        out.append(dualize_input(random_five_points(rng), []))
        pts, line = random_4p1l(rng)
        out.append(dualize_input(pts, [line]))
        pts, l1, l2 = random_3p2l_case(rng, 5)
        out.append(dualize_input(pts, [l1, l2]))
    for name in gallery_names():
        points, lines, _ = load_gallery_case(name)
        out.append((points, lines))
    return out


def test_solve_reports_the_prediction_of_predict(monkeypatch):
    # solve() derives its prediction from its own analysis, not by calling
    # the predictors, and the two still agree field for field; on a dual
    # input predict() prefixes the rule with "dual: " and solve() does not
    calls = counted(monkeypatch, solvers, "predict_count_4p1l")
    calls += counted(monkeypatch, solvers, "predict_count_3p2l")
    primal = dual = 0
    for points, lines in corpus():
        n = len(calls)
        sol = solve(points, lines)
        assert len(calls) == n
        expected = sol.diagnostics.prediction
        if len(points) < len(lines):
            dual += 1
            expected = dataclasses.replace(expected, rule="dual: " + expected.rule)
        else:
            primal += 1
        assert predict(points, lines) == expected
    assert primal >= 7 * 40
    assert dual >= 3 * 40


SQUARE = [(1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (-1.0, -1.0, 1.0), (1.0, -1.0, 1.0)]

#: special-position inputs that solve() refuses on the input alone: points
#: 0, 2 and 4 collinear, the line y = 1 through points 0 and 1, and y = 0
#: through two vertices of the square's diagonal triangle, (1, 0, 0),
#: (0, 0, 1) and (0, 1, 0). predict() used to answer "1 real" for each of
#: them and for each of their duals
REFUSED = {
    "5p_collinear": (SQUARE + [(0.0, 0.0, 1.0)], []),
    "4p1l_quadrangle_side": (SQUARE, [(0.0, 1.0, -1.0)]),
    "4p1l_diagonal_side": (SQUARE, [(0.0, 1.0, 0.0)]),
}


@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("name", sorted(REFUSED))
def test_predict_refuses_what_solve_refuses(name, dual):
    points, lines = REFUSED[name]
    if dual:
        points, lines = lines, points  # 5l and 1p4l
    with pytest.raises(GeneralPositionError) as from_solve:
        solve(points, lines)
    with pytest.raises(GeneralPositionError) as from_predict:
        predict(points, lines)
    assert type(from_predict.value) is type(from_solve.value)
    assert str(from_predict.value) == str(from_solve.value)
    assert str(from_solve.value).startswith("dual configuration") == dual


def test_case5_eigenvalues_are_those_of_pencil_eigenvalues():
    # the analysis reads the pencil eigenvalues off the incidences it holds,
    # through the core that the public function calls after its own checks
    rng = random.Random(5)
    for _ in range(20):
        pts, l1, l2 = random_3p2l_case(rng, 5)
        sol = solve(pts, [l1, l2])
        assert sol.diagnostics.eigenvalues == pencil_eigenvalues(pts, l1, l2)


def residuals_match(points, lines) -> bool:
    """Assert that solve() reports the public functions' residuals; return
    whether it found a real conic."""
    sol = solve(points, lines)
    pin = max((point_residual(c, p) for c in sol for p in points), default=0.0)
    tan = max((tangency_residual(c, l) for c in sol for l in lines), default=0.0)
    assert sol.diagnostics.max_incidence_residual == pin
    assert sol.diagnostics.max_tangency_residual == tan
    return len(sol.real_conics) > 0


def as_ints(items, scale):
    """Copies of points or lines with each coordinate scaled and rounded to
    a Python int."""
    return [type(x)(*(round(v * scale) for v in x.vec())) for x in items]


def test_reported_residuals_are_those_of_the_public_functions():
    # bit for bit: the per-conic norm and adjugate are hoisted out of the
    # loops over the input elements, and nothing else about the arithmetic
    # changes
    solved = sum(residuals_match(points, lines) for points, lines in corpus(seed=1))
    assert solved >= 250
    # Python-int coordinates reach the public functions as ints, and so
    # must reach the reported residuals: a float() on the way rounds them
    solved = 0
    for points, lines in corpus(seed=3):
        for scale in (10**6, 10**12, 10**20):
            try:
                solved += residuals_match(as_ints(points, scale), as_ints(lines, scale))
            except MinconicError:
                pass  # scaled inputs some families reject (ROADMAP item 3)
    assert solved >= 500


#: .vec() calls per object id, counted by the two classes below
READS: Counter = Counter()


class CountedPoint(HomogeneousPoint):
    def vec(self):
        READS[id(self)] += 1
        return super().vec()


class CountedLine(ProjectiveLine):
    def vec(self):
        READS[id(self)] += 1
        return super().vec()


def one_per_category():
    """One input of each of the ten categories: 5p, 4p1l, 3p2l cases 1-5
    and the duals 5l, 1p4l, 2p3l."""
    rng = random.Random(11)
    pts, line = random_4p1l(rng)
    out = [(random_five_points(rng), []), (pts, [line])]
    for case in range(1, 6):
        pts, l1, l2 = random_3p2l_case(rng, case)
        out.append((pts, [l1, l2]))
    return out + [dualize_input(*out[k]) for k in (0, 1, 6)]


@pytest.mark.parametrize("api", [solve, predict])
def test_each_element_is_read_once(api):
    # one front door converts every point and line once; the cores, the
    # dual swap and the residuals reuse its coordinate triples
    inputs = one_per_category()
    assert sorted((len(p), len(l)) for p, l in inputs) == [
        (0, 5), (1, 4), (2, 3), (3, 2), (3, 2), (3, 2), (3, 2), (3, 2), (4, 1), (5, 0)
    ]
    for points, lines in inputs:
        points = [CountedPoint(*p.vec()) for p in points]
        lines = [CountedLine(*l.vec()) for l in lines]
        READS.clear()
        api(points, lines)
        assert [READS[id(x)] for x in points + lines] == [1] * 5


FIVE = [(1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (-1.0, -1.0, 1.0), (1.0, -1.0, 1.0), (2.0, 3.0, 1.0)]
NAN_POINT = (math.nan, 0.5, 1.0)
INF_LINE = (math.inf, 1.0, -3.0)
L1, L2, L3, L4 = (1.0, 0.0, -3.0), (0.0, 1.0, -3.0), (1.0, 1.0, -7.0), (1.0, -1.0, 9.0)

#: function, arguments with a wrong count, arguments with a non-finite
#: coordinate, and the family's count message
FAMILY_CALLS = {
    "solve_five_points": (
        solvers.solve_five_points,
        (FIVE[:4],),
        (FIVE[:4] + [NAN_POINT],),
        "exactly five points required",
    ),
    "solve_four_points_line": (
        solvers.solve_four_points_line,
        (FIVE, L1),
        (FIVE[:3] + [NAN_POINT], L1),
        "exactly four points required",
    ),
    "predict_count_4p1l": (
        solvers.predict_count_4p1l,
        (FIVE, L1),
        (FIVE[:3] + [NAN_POINT], L1),
        "exactly four points required",
    ),
    "solve_three_points_two_lines": (
        solvers.solve_three_points_two_lines,
        (FIVE[:4], L1, L2),
        (FIVE[:2] + [NAN_POINT], L1, L2),
        "exactly three points required",
    ),
    "predict_count_3p2l": (
        solvers.predict_count_3p2l,
        (FIVE[:4], L1, L2),
        (FIVE[:2] + [NAN_POINT], L1, L2),
        "exactly three points required",
    ),
    "solve_dual": (
        solvers.solve_dual,
        ([], [L1, L2, L3, L4]),
        (FIVE[:1], [L1, L2, L3, INF_LINE]),
        "do not form a five-element",
    ),
}


@pytest.mark.parametrize("fault", ["wrong count", "non-finite"])
@pytest.mark.parametrize("name", sorted(FAMILY_CALLS))
def test_public_family_functions_pass_the_front_door(name, fault):
    # a wrong count or an inf/NaN coordinate is named, as solve() names it,
    # and not met later as a bare TypeError/IndexError, a wrong-case error or
    # a prediction made from NaN signs
    fn, wrong_count, non_finite, message = FAMILY_CALLS[name]
    if fault == "wrong count":
        with pytest.raises(UnsupportedCount, match=message):
            fn(*wrong_count)
    else:
        with pytest.raises(NonFiniteInput):
            fn(*non_finite)


def scaled_gallery_case(name, scale):
    """A gallery input with every homogeneous coordinate multiplied by scale."""
    points, lines, _ = load_gallery_case(name)
    return (
        [tuple(scale * v for v in p.vec()) for p in points],
        [tuple(scale * v for v in l.vec()) for l in lines],
    )


@pytest.mark.parametrize(
    "name, scale",
    [("4p1l_generic_real_a", 1e-40), ("3p2l_case3_real_a", 1e-50), ("3p2l_case4_real_a", 1e-40)],
)
def test_underflowed_sign_product_fails_predict_and_solve_alike(name, scale):
    # scaled down until the prediction's sign product underflows to 0.0: its
    # sign then decides nothing, so both entry points refuse the input with
    # the same named error instead of a count or a bare ZeroDivisionError
    points, lines = scaled_gallery_case(name, scale)
    with pytest.raises(DegenerateCase) as from_predict:
        predict(points, lines)
    with pytest.raises(DegenerateCase) as from_solve:
        solve(points, lines)
    assert str(from_predict.value) == str(from_solve.value)
    assert "exactly 0.0" in str(from_solve.value)


def test_case5_prediction_reads_its_side_products_not_their_product():
    # at 1e-40 the product of the three side products underflows to 0.0, but
    # each side product is still a normal float whose sign decides the count
    points, lines = scaled_gallery_case("3p2l_case5_real_a", 1e-40)
    pred = predict(points, lines)
    assert pred.predicate == 0.0
    assert (pred.predicted_real, pred.predicted_complex) == (4, 0)


SQUARE_FIFTH_POINT = SQUARE + [(2.0, 0.5, 1.0)]

#: inputs whose scaling underflows a denominator the builder divides by: the
#: five-point fit's diagonal-triangle determinant, the case-3 s of each root,
#: the case-5 quadratic for X and -Y and the case-5 beta_j divisors A*a_j;
#: (name, scale, dual, message fragment)
BUILDER_UNDERFLOWS = [
    ("5p", 1e-30, False, "five-point fit"),
    ("5p", 1e-30, True, "five-point fit"),
    ("3p2l_case3_real_a", 1e-30, False, "the denominator of s is exactly 0.0"),
    ("3p2l_case5_real_a", 1e-50, False, "both roots of z^2 - U z - P"),
    ("3p2l_case5_real_a", 1e-60, False, "beta_j is exactly 0.0"),
    ("4p1l_point_on_line", 1e-40, False, "coefficients are exactly 0.0"),
]


def underflow_input(name, scale, dual):
    if name == "5p":
        points, lines = [tuple(scale * v for v in p) for p in SQUARE_FIFTH_POINT], []
    else:
        points, lines = scaled_gallery_case(name, scale)
    return (lines, points) if dual else (points, lines)


@pytest.mark.parametrize("name, scale, dual, message", BUILDER_UNDERFLOWS)
def test_underflowed_builder_denominator_is_a_named_error(name, scale, dual, message):
    # the analysis still decides the count, so predict answers; the builder
    # meets a denominator that underflowed to 0.0 and names it, instead of
    # dividing by it and raising a bare ZeroDivisionError
    points, lines = underflow_input(name, scale, dual)
    assert predict(points, lines).total > 0
    with pytest.raises(DegenerateCase, match=re.escape(message)):
        solve(points, lines)


@pytest.mark.parametrize("name", ["3p2l_case3_real_a", "3p2l_case3_complex"])
def test_underflowed_case3_denominator_fails_predict_and_solve_alike(name):
    # D*D*a0*a1 reads only the input, so the analysis gates it, beside the
    # case-2 denominator: both entry points refuse with one CaseDegeneracy
    points, lines = scaled_gallery_case(name, 1e-35)
    with pytest.raises(CaseDegeneracy) as from_predict:
        predict(points, lines)
    with pytest.raises(CaseDegeneracy) as from_solve:
        solve(points, lines)
    assert str(from_predict.value) == str(from_solve.value)
    assert "D*D*a0*a1 is exactly 0.0" in str(from_solve.value)
