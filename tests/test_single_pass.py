"""Each solver family analyses its input once, and solve() reports exactly
the prediction that predict() gives for the same input; predict() runs the
analysis that solve() runs, so it refuses every special-position input that
solve() refuses; solve() and predict() read each input element once, and the
public family functions pass the same front door."""
import math
import random
import re
from collections import Counter
from decimal import Decimal

import pytest

import minconic._kernels as _k
from minconic import (
    CaseDegeneracy,
    DegenerateCase,
    GeneralPositionError,
    HomogeneousPoint,
    MalformedCoordinates,
    MinconicError,
    NonFiniteInput,
    ProjectiveLine,
    UnsupportedCount,
    pencil_eigenvalues,
    predict,
    require_no_collinear_triple,
    solve,
    solvers,
)
from minconic.conics import ConicMatrix, _normalized6
from minconic.oracle import (
    certify,
    dualize_input,
    nullspace_five_point,
    random_3p2l_case,
    random_4p1l,
    random_five_points,
    scan_tangency_roots,
)
from minconic.tolerances import DEFAULT

from conftest import benchmark_workloads, gallery_names, load_gallery_case


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
    calls = counted(monkeypatch, solvers, "_classify_3p2l")
    solve(pts, [l1, l2])
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_classify_3p2l_case_returns_the_allocation_of_the_analysis(seed):
    # the public classifier wraps the one the analysis runs: on objects and
    # on coordinate tuples alike, with either line first, it returns the
    # analysis's allocation; the line meet and the six incidences the
    # analysis hands on are the plain cross and dot products
    rng = random.Random(seed)
    for case in range(1, 6):
        for _ in range(8):
            pts, l1, l2 = random_3p2l_case(rng, case)
            for first, second in ((l1, l2), (l2, l1)):
                vecs = [p.vec() for p in pts]
                lv1, lv2 = first.vec(), second.vec()
                alloc, p, incs = solvers._classify_3p2l(vecs, lv1, lv2, DEFAULT.geometry)
                assert alloc.case == case
                assert solvers.classify_3p2l_case(pts, first, second) == alloc
                assert solvers.classify_3p2l_case(vecs, lv1, lv2) == alloc
                assert p == _k.cross(lv1, lv2)
                assert incs == tuple((_k.dot3(v, lv1), _k.dot3(v, lv2)) for v in vecs)


def one_input(family):
    rng = random.Random(7)
    if family in ("4p1l", "1p4l"):
        pts, line = random_4p1l(rng)
        return (pts, [line]) if family == "4p1l" else dualize_input(pts, [line])
    pts = random_five_points(rng)
    return (pts, []) if family == "5p" else dualize_input(pts, [])


#: 3-point/2-line families of one case each, primal and dual
CASES_3P2L = [f"{kind}_c{case}" for kind in ("3p2l", "2p3l") for case in range(1, 6)]


def inputs_of(family):
    """The one input of one_input for 4p1l, 1p4l, 5p and 5l; twelve inputs of one
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


@pytest.mark.parametrize("family", ["4p1l", "1p4l", "5p", "5l"] + CASES_3P2L)
def test_solve_builds_one_diagonal_triangle(monkeypatch, family):
    # every triangle a solve builds is bare, and none is built twice: for
    # 4p1l and 1p4l the analysis builds the vertices of the four points (the
    # four lines of a dual input) once and the builder reuses them; for 5p
    # and 5l the five-point fit builds the triangle of the first four points.
    # For 3p2l and 2p3l the builder builds the triangle of each root itself,
    # and each conic is, repr for repr, the composed pencil member at its
    # (s, t) on the triangle of x1 x2 x3, in the allocation's order, and
    # x4 = t*anchor + offset, adjugated and normalized again for a dual
    # input. No solve takes the cancellation alarm
    inputs = inputs_of(family)
    vertices = counted(monkeypatch, _k, "diag_vertices")
    alarms = counted(monkeypatch, _k, "diag_triangle")
    real = []
    for points, lines in inputs:
        vertices.clear()
        sol = solve(points, lines)
        real.append(sol.real_count > 0)
        if family in CASES_3P2L:
            diag, ctx = sol.diagnostics, sol.diagnostics.context
            vecs = [e.vec() for e in max(points, lines, key=len)]
            x1, x2, x3 = (vecs[i] for i in diag.allocation)
            assert len(diag.parameters) == sol.real_count
            for conic, (s, t) in zip(sol.real_conics, diag.parameters):
                x4 = tuple(t * u + v for u, v in zip(ctx.anchor, ctx.offset))
                m6 = _normalized6(*_k.conic_from_pencil(*_k.diag_vertices(x1, x2, x3, x4), s))
                if family[0] == "2":
                    m6 = _normalized6(*_k.sym_adjugate(m6))
                assert repr(conic) == repr(ConicMatrix(*m6))
        else:
            # the first four points, or the lines of a dual input
            assert sol.real_count > 0 and len(vertices) == 1
            assert vertices[0] == tuple(e.vec() for e in max(points, lines, key=len)[:4])
    assert alarms == []
    if family in CASES_3P2L:
        # cases 3-5 have inputs with and without real conics
        assert any(real) and (family[-1] in "12" or not all(real))


@pytest.mark.parametrize("family", ["4p1l", "1p4l", "5p", "5l"] + CASES_3P2L)
def test_solve_builds_each_conic_with_one_kernel_call(monkeypatch, family):
    # every pencil member a solve returns is one _k.conic_from_pencil call,
    # and the five-point fit makes none; a dual family adjugates each
    # returned conic with one _k.sym_adjugate call, a primal one with none
    members = counted(monkeypatch, _k, "conic_from_pencil")
    adjugates = counted(monkeypatch, _k, "sym_adjugate")
    dual = family in ("1p4l", "5l") or family.startswith("2p3l")
    for points, lines in inputs_of(family):
        members.clear()
        adjugates.clear()
        n = solve(points, lines).real_count
        assert len(members) == (0 if family in ("5p", "5l") else n)
        assert len(adjugates) == (n if dual else 0)


@pytest.mark.parametrize("name", gallery_names())
def test_predict_takes_no_cancellation_alarm(monkeypatch, name):
    # the alarm is taken by neither predict nor solve
    # (test_solve_builds_one_diagonal_triangle)
    points, lines, _ = load_gallery_case(name)
    calls = counted(monkeypatch, _k, "diag_triangle")
    predict(points, lines)
    assert calls == []


def test_predict_builds_the_diagonal_triangle_once(monkeypatch):
    # a 4p1l predict builds the diagonal triangle of its four points (of the
    # four lines of a 1p4l input) once, and its vertex tests read that one
    # triangle; a 3p2l predict builds none. The analyses write their norms
    # out inline, so the vertices are the one kernel call left to count;
    # the analyse_<family>_<kind> blocks of tests/golden_repr.tsv pin their
    # arithmetic
    rng = random.Random(3)
    pts, line = random_4p1l(rng)
    inputs = [(pts, [line], 1), (*dualize_input(pts, [line]), 1)]
    inputs += [(p, [l1, l2], 0) for p, l1, l2 in (random_3p2l_case(rng, 5) for _ in range(3))]
    calls = counted(monkeypatch, _k, "diag_vertices")
    for points, lines, built in inputs:
        calls.clear()
        predict(points, lines)
        assert len(calls) == built


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
    # the predictors, and the two still agree field for field, the "dual: "
    # prefix of a lines-heavy input's rule included
    calls = counted(monkeypatch, solvers, "predict_count_4p1l")
    calls += counted(monkeypatch, solvers, "predict_count_3p2l")
    primal = dual = 0
    for points, lines in corpus():
        n = len(calls)
        sol = solve(points, lines)
        assert len(calls) == n
        if len(points) < len(lines):
            dual += 1
            assert sol.diagnostics.prediction.rule.startswith("dual: ")
        else:
            primal += 1
        assert predict(points, lines) == sol.diagnostics.prediction
    assert primal >= 7 * 40
    assert dual >= 3 * 40


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_records_the_prediction_predict_returns_on_the_benchmark_corpus(seed):
    # every family of the solve_mix corpus, the dual ones included
    families = Counter()
    for category, points, lines in benchmark_workloads().mixed_corpus(random.Random(seed), 200):
        try:
            sol = solve(points, lines)
        except MinconicError:  # refused inputs are compared elsewhere
            continue
        assert sol.diagnostics.prediction == predict(points, lines)
        families[category] += 1
    assert len(families) == 10


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


@pytest.mark.parametrize("api", [solve, predict, certify])
def test_each_element_is_read_once(api):
    # one front door converts every point and line once; the cores and the
    # dual swap reuse its coordinate triples, and certify's residuals and
    # count check share the triples it read
    inputs = one_per_category()
    assert sorted((len(p), len(l)) for p, l in inputs) == [
        (0, 5), (1, 4), (2, 3), (3, 2), (3, 2), (3, 2), (3, 2), (3, 2), (4, 1), (5, 0)
    ]
    for points, lines in inputs:
        points = [CountedPoint(*p.vec()) for p in points]
        lines = [CountedLine(*l.vec()) for l in lines]
        sol = solve(points, lines)
        READS.clear()
        if api is certify:
            assert certify(points, lines, sol).ok
        else:
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
    "classify_3p2l_case": (
        solvers.classify_3p2l_case,
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


#: the non-finite elements of FAMILY_CALLS with an int beyond the float range
HUGE = {NAN_POINT: (10**400, 0.5, 1.0), INF_LINE: (1.0, -(10**400), -3.0)}


@pytest.mark.parametrize("fault", ["wrong count", "non-finite", "huge"])
@pytest.mark.parametrize("name", sorted(FAMILY_CALLS))
def test_public_family_functions_pass_the_front_door(name, fault):
    # a wrong count or an inf/NaN coordinate is named, as solve() names it,
    # and not met later as a bare TypeError/IndexError, a wrong-case error or
    # a prediction made from NaN signs; an int no float can hold is named
    # too, not met as a bare OverflowError
    fn, wrong_count, non_finite, message = FAMILY_CALLS[name]
    if fault == "wrong count":
        with pytest.raises(UnsupportedCount, match=message):
            fn(*wrong_count)
    elif fault == "non-finite":
        with pytest.raises(NonFiniteInput):
            fn(*non_finite)
    else:
        huge = [
            [HUGE.get(x, x) for x in arg] if isinstance(arg, list) else HUGE.get(arg, arg)
            for arg in non_finite
        ]
        with pytest.raises(NonFiniteInput, match="no float can hold"):
            fn(*huge)


@pytest.mark.parametrize("api", [solve, predict])
@pytest.mark.parametrize("value", [10**400, Decimal("sNaN")], ids=["int 10**400", "sNaN"])
@pytest.mark.parametrize("element", ["point 0", "line 1"])
def test_coordinate_no_float_can_hold_is_named(api, value, element):
    # float() raises OverflowError or ValueError for these; the front door
    # names the element instead
    points = [HomogeneousPoint(*p) for p in FIVE[:3]]
    lines = [ProjectiveLine(*L1), ProjectiveLine(*L2)]
    if element == "point 0":
        points[0] = HomogeneousPoint(value, 1, 1)
    else:
        lines[1] = ProjectiveLine(1, 0, value)
    with pytest.raises(NonFiniteInput, match=f"{element} has a coordinate no float can hold"):
        api(points, lines)


@pytest.mark.parametrize("api", [solve, predict])
@pytest.mark.parametrize(
    "value, shown",
    [
        ((1.0, 2.0), "(1.0, 2.0)"),
        ((1.0, 2.0, 1.0, 7.0), "(1.0, 2.0, 1.0, 7.0)"),
        (None, "None"),
        ((1.0, None, 1.0), "(1.0, None, 1.0)"),
        ("123", "'123'"),
        ("abc", "'abc'"),
        (b"123", "b'123'"),
        (bytearray(b"123"), "bytearray(b'123')"),
        (("2", "3", "1"), "('2', '3', '1')"),
        ((1.0, b"2", 1.0), "(1.0, b'2', 1.0)"),
    ],
    ids=["2-sequence", "4-sequence", "None", "None coordinate", "str", "str of letters",
         "bytes", "bytearray", "str coordinates", "bytes coordinate"],
)
@pytest.mark.parametrize("element", ["point 0", "line 1"])
def test_an_element_that_is_not_three_coordinates_is_named(api, value, shown, element):
    # a 2-sequence raised a bare IndexError, a None coordinate a bare
    # TypeError, and a 4-sequence was cut to its first three coordinates;
    # text was read character by character ('123' as (1, 2, 3), b'123' as
    # (49, 50, 51)) and 'abc' refused as a coordinate no float can hold
    points, lines = list(FIVE[:3]), [L1, L2]
    if element == "point 0":
        points[0] = value
    else:
        lines[1] = value
    with pytest.raises(MalformedCoordinates) as exc:
        api(points, lines)
    assert isinstance(exc.value, MinconicError) and isinstance(exc.value, ValueError)
    assert str(exc.value) == f"{element} is not three real coordinates: {shown}"


#: a reader outside the front door, called with a 10**400 coordinate
HUGE_READERS = {
    "certify": lambda huge: certify(
        [huge] + FIVE[1:3], [L1, L2], solve(FIVE[:3], [L1, L2])
    ),
    "classify_3p2l_case": lambda huge: solvers.classify_3p2l_case([huge] + FIVE[1:3], L1, L2),
    "nullspace_five_point": lambda huge: nullspace_five_point([huge] + FIVE[1:]),
    "pencil_eigenvalues": lambda huge: pencil_eigenvalues(FIVE[:3], L1, huge),
    "ProjectiveLine.through": lambda huge: ProjectiveLine.through(huge, FIVE[1]),
    "require_no_collinear_triple": lambda huge: require_no_collinear_triple([huge] + FIVE[1:4]),
    "scan_tangency_roots": lambda huge: scan_tangency_roots([huge] + FIVE[1:4], L1),
}


@pytest.mark.parametrize("reader", sorted(HUGE_READERS))
def test_every_reader_names_a_coordinate_no_float_can_hold(reader):
    # the one coordinate reader raises NonFiniteInput itself, so the
    # readers outside the front door refuse such a coordinate with the
    # package's error and not a bare OverflowError
    with pytest.raises(NonFiniteInput, match="a coordinate no float can hold"):
        HUGE_READERS[reader](HUGE[NAN_POINT])


#: a reader outside the front door that names the elements it reads, called
#: with a bad element, and the name it gives that element; pencil_eigenvalues
#: and require_no_collinear_triple have their own such tests
NAMING_READERS = {
    "nullspace_five_point": (lambda bad: nullspace_five_point(FIVE[:4] + [bad]), "point 4"),
    "ProjectiveLine.through": (lambda bad: ProjectiveLine.through(FIVE[0], bad), "point 1"),
    "scan_tangency_roots, point": (lambda bad: scan_tangency_roots([*FIVE[:2], bad, FIVE[3]], L1), "point 2"),
    "scan_tangency_roots, line": (lambda bad: scan_tangency_roots(FIVE[:4], bad), "line 0"),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("reader", sorted(NAMING_READERS))
def test_every_naming_reader_names_an_inf_or_nan_coordinate(reader, value):
    # nullspace_five_point raised a bare AssertionError for an inf point,
    # scan_tangency_roots returned no roots and ProjectiveLine.through a
    # line of inf and NaN coefficients
    call, element = NAMING_READERS[reader]
    with pytest.raises(NonFiniteInput, match=f"^{element} has a non-finite coordinate: "):
        call((1.0, value, 1.0))


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


NAN, INF = (math.nan, 1.0, 1.0), (1.0, -math.inf, 2.0)
TEXT, PAIR, BEYOND = "abc", (1.0, 2.0), (1, 10**400, 1)
COUNT = "4 points and 0 lines do not form a five-element minimal configuration"


def put(seq, **faults):
    """seq with element k replaced by faults[f"e{k}"]."""
    out = list(seq)
    for key, value in faults.items():
        out[int(key[1:])] = value
    return out


def checks(*rows):
    """A certification's checks as (name, passed, magnitude, limit) rows;
    residual checks give a limit of 1e-9, the count check nan, nan."""
    out = [(name, passed, magnitude, 3.0 if name[:3] == "non" else 1e-09) for name, passed, magnitude in rows]
    return out + [("count-consistency", False, math.nan, math.nan)]


#: the five-point certification of FIVE, read from its first four points
#: only (a wrong count)
FOUR_OF_FIVE = checks(
    ("incidence[0]", True, 0.0), ("tangency[0]", True, 0.0),
    ("nondegenerate[0]", True, 3.0), ("self-polar[0]", True, 0.0),
)
#: a non-finite coordinate in the fifth point, which the diagonal triangle
#: of the first four does not read: its residual, and so the incidence
#: check, is NaN wherever the point comes
NAN_RESIDUAL = checks(
    ("incidence[0]", False, math.nan), ("tangency[0]", True, 0.0),
    ("nondegenerate[0]", True, 3.0), ("self-polar[0]", True, 0.0),
)
#: a non-finite coordinate in the first point: the triangle is NaN too
NAN_TRIANGLE = checks(
    ("incidence[0]", False, math.nan), ("tangency[0]", True, 0.0),
    ("nondegenerate[0]", True, 3.0), ("self-polar[0]", False, math.nan),
)

#: faulty inputs and what each of solve and predict, and certify of the
#: solution of the clean input (FIVE, or FIVE[:3] with L1 and L2), give:
#: an error as (type, message), or the certification's checks. Fast reads
#: of the whole input that fail hand over to reads that name the first
#: faulty element, which may be an earlier one of another kind; certify
#: reads the elements as they are, fails its count check with NaN when the
#: solvers' reads refuse them, and fails with NaN every residual check that
#: a non-finite element enters
READ_FAULTS = {
    "nan point": (
        put(FIVE, e4=NAN), [],
        (NonFiniteInput, "point 4 has a non-finite coordinate: (nan, 1.0, 1.0)"),
        NAN_RESIDUAL,
    ),
    "inf point": (
        put(FIVE, e0=INF), [],
        (NonFiniteInput, "point 0 has a non-finite coordinate: (1.0, -inf, 2.0)"),
        NAN_TRIANGLE,
    ),
    "inf line": (
        FIVE[:3], [L1, INF],
        (NonFiniteInput, "line 1 has a non-finite coordinate: (1.0, -inf, 2.0)"),
        checks(
            ("incidence[0]", True, 1.9843520581146609e-16), ("tangency[0]", False, math.nan),
            ("nondegenerate[0]", True, 3.0),
            ("incidence[1]", True, 5.4832009854009485e-17),
            ("tangency[1]", False, math.nan), ("nondegenerate[1]", True, 3.0),
            ("self-polar[0]", True, 1.4439993146279287e-17),
            ("self-polar[1]", True, 1.8151717695632523e-17),
        ),
    ),
    "text point": (
        put(FIVE, e4=TEXT), [],
        (MalformedCoordinates, "point 4 is not three real coordinates: 'abc'"),
        (MalformedCoordinates, "not three real coordinates: 'abc'"),
    ),
    "2-sequence point": (
        put(FIVE, e2=PAIR), [],
        (MalformedCoordinates, "point 2 is not three real coordinates: (1.0, 2.0)"),
        (MalformedCoordinates, "not three real coordinates: (1.0, 2.0)"),
    ),
    "int beyond the float range, point": (
        put(FIVE, e3=BEYOND), [],
        (NonFiniteInput, "point 3 has a coordinate no float can hold: int too large to convert to float"),
        (NonFiniteInput, "a coordinate no float can hold: int too large to convert to float"),
    ),
    "int beyond the float range, line": (
        FIVE[:3], [BEYOND, L2],
        (NonFiniteInput, "line 0 has a coordinate no float can hold: int too large to convert to float"),
        (NonFiniteInput, "a coordinate no float can hold: int too large to convert to float"),
    ),
    "nan before text": (
        put(FIVE, e1=NAN, e3=TEXT), [],
        (NonFiniteInput, "point 1 has a non-finite coordinate: (nan, 1.0, 1.0)"),
        (MalformedCoordinates, "not three real coordinates: 'abc'"),
    ),
    "text before nan": (
        put(FIVE, e1=TEXT, e3=NAN), [],
        (MalformedCoordinates, "point 1 is not three real coordinates: 'abc'"),
        (MalformedCoordinates, "not three real coordinates: 'abc'"),
    ),
    "int beyond the float range before inf": (
        put(FIVE, e0=BEYOND, e2=INF), [],
        (NonFiniteInput, "point 0 has a coordinate no float can hold: int too large to convert to float"),
        (NonFiniteInput, "a coordinate no float can hold: int too large to convert to float"),
    ),
    "nan point before text line": (
        put(FIVE[:3], e2=NAN), [TEXT, L2],
        (NonFiniteInput, "point 2 has a non-finite coordinate: (nan, 1.0, 1.0)"),
        (MalformedCoordinates, "not three real coordinates: 'abc'"),
    ),
    "wrong count": (FIVE[:4], [], (UnsupportedCount, COUNT), FOUR_OF_FIVE),
    "wrong count with nan": (put(FIVE[:4], e0=NAN), [], (UnsupportedCount, COUNT), NAN_TRIANGLE),
}


def outcome(fn, *args):
    """An error as (type, message), or a certification's checks as rows."""
    try:
        out = fn(*args)
    except MinconicError as exc:
        return type(exc), str(exc)
    return [(c.name, c.passed, c.magnitude, c.limit) for c in out.checks]


@pytest.mark.parametrize("fault", sorted(READ_FAULTS))
def test_faulty_input_meets_the_errors_and_certification_of_named_reads(fault):
    points, lines, error, certification = READ_FAULTS[fault]
    assert outcome(solve, points, lines) == error
    assert outcome(predict, points, lines) == error
    sol = solve(FIVE, []) if not lines else solve(FIVE[:3], [L1, L2])
    # repr tells nan apart, which == does not
    assert repr(outcome(certify, points, lines, sol)) == repr(certification)
