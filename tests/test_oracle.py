"""Independent cross-checks: nullspace fit, root scan, certification, generators."""
import math
import random
from dataclasses import replace
from functools import partial
from itertools import combinations

import pytest

from minconic import (
    ConicMatrix,
    HomogeneousPoint,
    ProjectiveLine,
    solve,
    solve_five_points,
)
from minconic import _kernels as _k
from minconic import conics, oracle
from minconic.errors import RankDeficient, UnsupportedCount
from minconic.oracle import (
    certify,
    dualize_input,
    nullspace_five_point,
    random_3p2l_case,
    random_4p1l,
    random_five_points,
    scan_tangency_roots,
)
from minconic.solvers import classify_3p2l_case
from minconic.tolerances import DEFAULT

from conftest import gallery_names, load_gallery_case, six_vector_angle


def test_nullspace_matches_closed_form(square):
    pts = list(square) + [HomogeneousPoint(math.sqrt(2.0), 0.0)]
    via_nullspace = nullspace_five_point(pts)
    via_pencil = solve_five_points(pts)
    assert six_vector_angle(via_nullspace, via_pencil) < 1e-12
    want = ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, -2.0))
    assert six_vector_angle(via_nullspace, want) < 1e-12


def test_nullspace_matches_closed_form_randomized():
    rng = random.Random(42)
    for _ in range(200):
        pts, = (random_five_points(rng),)
        a = nullspace_five_point(pts)
        b = solve_five_points(pts)
        assert six_vector_angle(a, b) < 1e-7


def test_nullspace_rejects_duplicate_point(square):
    pts = list(square) + [square[0]]
    with pytest.raises(RankDeficient):
        nullspace_five_point(pts)
    with pytest.raises(RankDeficient, match="point 0 produced a zero design row"):
        nullspace_five_point([(0.0, 0.0, 0.0)] + list(square))


@pytest.mark.parametrize("count", [3, 4, 5, 6])
def test_fixed_count_functions_name_a_wrong_point_count(square, count):
    # an UnsupportedCount, which is a ValueError, and not a bare TypeError
    # from a kernel or an unnamed ValueError
    pts = (list(square) + [HomogeneousPoint(math.sqrt(2.0), 0.0), HomogeneousPoint(3.0, 5.0)])[:count]
    line = ProjectiveLine(1.0, 1.0, -3.0)
    if count != 5:
        with pytest.raises(UnsupportedCount, match="exactly five points required"):
            nullspace_five_point(pts)
    if count != 4:
        with pytest.raises(UnsupportedCount, match="exactly four points required"):
            scan_tangency_roots(pts, line)
    assert issubclass(UnsupportedCount, ValueError)


def test_scan_finds_the_known_roots(square):
    # x + y = 3: roots (-7 +- 3 sqrt 5) / 2
    roots = scan_tangency_roots(square, ProjectiveLine(1.0, 1.0, -3.0))
    want = sorted([(-7.0 - 3.0 * math.sqrt(5.0)) / 2.0, (-7.0 + 3.0 * math.sqrt(5.0)) / 2.0])
    got = sorted(r for r in roots if abs(r) > 1e-9 and abs(r - 1.0) > 1e-9)
    assert got == pytest.approx(want, abs=1e-9)


def test_scan_finds_the_vertex_line_root(square):
    # x = 2 passes through a triangle vertex: single non-degenerate root -1/3
    roots = scan_tangency_roots(square, ProjectiveLine(1.0, 0.0, -2.0))
    got = [r for r in roots if abs(r) > 1e-9 and abs(r - 1.0) > 1e-9]
    assert len(got) == 1
    assert got[0] == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_certify_green_on_good_solutions(square):
    line = ProjectiveLine(1.0, 1.0, -3.0)
    sol = solve(square, [line])
    cert = certify(square, [line], sol)
    assert cert.ok, cert.failures()
    assert any(c.name.startswith("self-polar") for c in cert.checks)
    assert any(c.name == "count-consistency" for c in cert.checks)


def test_certify_catches_a_corrupted_solution(square):
    line = ProjectiveLine(1.0, 1.0, -3.0)
    sol = solve(square, [line])
    bad_conic = ConicMatrix.from_coefficients((1.0, 0.1, 1.1, 0.0, 0.05, -0.9))
    corrupted = replace(sol, real_conics=(bad_conic,) + sol.real_conics[1:])
    cert = certify(square, [line], corrupted)
    assert not cert.ok
    names = {c.name for c in cert.failures()}
    assert any(n.startswith("incidence") or n.startswith("tangency") for n in names)


def test_certify_catches_a_count_lie(square):
    line = ProjectiveLine(1.0, 1.0, -3.0)
    sol = solve(square, [line])
    lied = replace(sol, real_conics=sol.real_conics[:1], complex_count=0)
    cert = certify(square, [line], lied)
    assert not cert.ok
    assert any(c.name == "count-consistency" for c in cert.failures())


@pytest.mark.parametrize(
    "name, k",
    [(n, k) for n in gallery_names() if n[:4] in ("3p2l", "2p3l") for k in range(int(n[0]))],
)
def test_certify_against_too_few_points_fails_only_its_count(name, k):
    # as for a 5p set checked against four points: the residuals are taken
    # on the points given, no self-polar triangle is built from a point that
    # is not there, and the count check fails with NaN
    points, lines, _ = load_gallery_case(name)
    sol = solve(points, lines)
    cert = certify(points[:k], lines, sol)
    (failed,) = cert.failures()
    assert failed.name == "count-consistency"
    assert math.isnan(failed.magnitude) and math.isnan(failed.limit)
    assert len(cert.checks) == 3 * sol.real_count + 1 and cert.not_judged == ()


def _kernel_triangle(x1, x2, x3, x4):
    """The diagonal triangle and its norms as the solvers' kernels build it."""
    xi = _k.diag_vertices(x1, x2, x3, x4)
    return xi, tuple(_k.norm3(v) for v in xi)


@pytest.mark.parametrize("name", gallery_names())
def test_self_polar_triangle_is_the_kernels_bit_for_bit(name, monkeypatch):
    # the oracle builds the triangle from its own meets of opposite sides,
    # with the kernel's float operations in the kernel's order, so every
    # self-polar magnitude is the one the kernel's triangle gives
    points, lines, _ = load_gallery_case(name)
    sol = solve(points, lines)
    own = certify(points, lines, sol)
    monkeypatch.setattr(oracle, "_triangle", _kernel_triangle)
    assert repr(certify(points, lines, sol)) == repr(own)
    polar = [c for c in own.checks if c.name.startswith("self-polar")]
    assert len(polar) == (0 if sol.case_label.startswith("dual:") else sol.real_count)


def _case5_four_real():
    points, lines, _ = load_gallery_case("3p2l_case5_real_a")
    sol = solve(points, lines)
    assert sol.real_count == 4
    return points, lines, sol


def _with_conic(sol, i, conic):
    conics = list(sol.real_conics)
    conics[i] = conic
    return replace(sol, real_conics=tuple(conics))


def _rank_magnitudes(cert):
    return [c.magnitude for c in cert.checks if c.name.startswith("nondegenerate")]


def test_stacked_rank_flags_only_the_degenerate_conic():
    # the line pair x^2 - y^2 in slot 2 must be the only rank failure, and the other conics stay certified (its
    # own residuals fail too: no line pair through three points of a case-5
    # input is tangent to both lines)
    points, lines, sol = _case5_four_real()
    line_pair = ConicMatrix(1.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    cert = certify(points, lines, _with_conic(sol, 2, line_pair))
    assert _rank_magnitudes(cert) == [3.0, 3.0, 2.0, 3.0]
    failed = [c.name for c in cert.failures()]
    assert "nondegenerate[2]" in failed
    assert all("[2]" in name for name in failed), failed


def test_the_sweep_ranks_only_the_conics_the_determinant_bound_cannot_clear(monkeypatch):
    # |det| > 2 RANK_ZERO F^3 proves rank 3, so a solved set runs no Jacobi
    # sweep; each conic the bound cannot clear runs one
    calls = []
    sweep = conics._sweep

    def counted(*m6):
        calls.append(m6)
        return sweep(*m6)

    monkeypatch.setattr(conics, "_sweep", counted)
    points, lines, sol = _case5_four_real()
    assert certify(points, lines, sol).ok
    assert calls == []

    line_pair = ConicMatrix(1.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    cert = certify(points, lines, _with_conic(_with_conic(sol, 1, line_pair), 3, line_pair))
    assert calls == [line_pair.sym6()] * 2
    assert _rank_magnitudes(cert) == [3.0, 2.0, 3.0, 2.0]

    calls.clear()
    points, lines, _ = load_gallery_case("4p1l_generic_complex")
    sol = solve(points, lines)
    assert sol.real_count == 0
    assert certify(points, lines, sol).ok
    assert calls == []


def test_rank_of_non_finite_conics():
    # a conic with an inf or NaN entry has rank 0 and fails nondegenerate,
    # beside off-diagonal zeros or not
    points, lines, sol = _case5_four_real()
    inf, nan = math.inf, math.nan
    conics = (
        ConicMatrix(inf, 0.0, 1.0, 0.0, 0.0, 1.0),
        ConicMatrix(nan, 0.0, 1.0, 0.0, 0.0, 1.0),
        ConicMatrix(nan, 0.5, 1.0, 0.25, 0.0, -3.0),
    ) + sol.real_conics[3:]
    cert = certify(points, lines, replace(sol, real_conics=conics))
    assert _rank_magnitudes(cert) == [0.0, 0.0, 0.0, 3.0]
    failed = {c.name for c in cert.failures()}
    assert {"nondegenerate[0]", "nondegenerate[1]", "nondegenerate[2]"} <= failed
    assert "nondegenerate[3]" not in failed


def test_a_residual_failure_raises_beside_any_rank(monkeypatch):
    # a residual that raises is not caught, whichever conic it belongs to,
    # beside a conic that the determinant bound clears or one that the
    # Jacobi sweep ranks (the line pair)
    points, lines, sol = _case5_four_real()
    marked = ConicMatrix(2.0, 0.0, 1.0, 0.0, 0.0, -1.0)
    line_pair = ConicMatrix(1.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    residuals = oracle._conic_residuals

    def failing(m6, norm, vecs, lvs):
        if tuple(m6) == marked.sym6():
            raise ArithmeticError("residual failed")
        return residuals(m6, norm, vecs, lvs)

    monkeypatch.setattr(oracle, "_conic_residuals", failing)
    with pytest.raises(ArithmeticError):
        certify(points, lines, _with_conic(sol, 0, marked))
    with pytest.raises(ArithmeticError):
        certify(points, lines, _with_conic(_with_conic(sol, 0, line_pair), 1, marked))
    with pytest.raises(ArithmeticError):
        certify(points, lines, _with_conic(sol, 1, marked))


def _checks_by_slot(cert, slot):
    mine = {c.name: c for c in cert.checks if c.name.endswith(f"[{slot}]")}
    others = [c for c in cert.checks if c.name not in mine]
    return mine, others


@pytest.mark.parametrize("slot", [0, 3])
@pytest.mark.parametrize(
    "conic, rank, undefined",
    [
        # the double line x^2 = 0: rank 1 and a zero adjugate, so its
        # tangency residuals would divide 0 by 0
        (ConicMatrix(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 1.0, ("tangency",)),
        (ConicMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0, ("incidence", "tangency", "self-polar")),
    ],
    ids=["double_line", "zero"],
)
def test_rank_deficient_conic_fails_its_checks_instead_of_raising(conic, rank, undefined, slot):
    # the undefined residuals fail as NaN, and the checks of the other
    # conics are those of the untouched set
    points, lines, sol = _case5_four_real()
    mine, others = _checks_by_slot(certify(points, lines, _with_conic(sol, slot, conic)), slot)
    _, untouched = _checks_by_slot(certify(points, lines, sol), slot)
    assert others == untouched and all(c.passed for c in untouched)
    for name in ("incidence", "tangency", "nondegenerate"):
        assert not mine[f"{name}[{slot}]"].passed, name
    assert mine[f"nondegenerate[{slot}]"].magnitude == rank
    for name in undefined:
        check = mine[f"{name}[{slot}]"]
        assert not check.passed and math.isnan(check.magnitude), name


def test_random_generators_produce_the_requested_case():
    rng = random.Random(7)
    for case in (1, 2, 3, 4, 5):
        for _ in range(20):
            pts, l1, l2 = random_3p2l_case(rng, case)
            alloc = classify_3p2l_case(pts, l1, l2)
            assert alloc.case == case
    with pytest.raises(ValueError, match="unknown case 6"):
        random_3p2l_case(rng, 6)


#: the seven generators by name, each a function of a Random
GENERATORS = {
    "five_points": random_five_points,
    "4p1l": random_4p1l,
    **{f"3p2l_case_{case}": partial(random_3p2l_case, case=case) for case in (1, 2, 3, 4, 5)},
}
#: margins, in geometric tolerances, at which the generators reject draws
#: (the default margin of 10 almost never does)
REJECTING_MARGINS = (1e7, 3e8)
#: shares of the _point_on_line calls made to fail
FAILING = (0.0, 0.4)
#: the 3p2l predicates each case makes exact: ("inc", point, line) and
#: ("coll", point, point), the latter collinear with the meet of the lines
EXACT_3P2L = {
    1: {("inc", 1, 0), ("inc", 2, 1)},
    2: {("inc", 2, 0), ("coll", 0, 1)},
    3: {("coll", 1, 2)},
    4: {("inc", 2, 0)},
    5: set(),
}


def margin_draw(name, seed, margin, failing):
    """(what generator `name` returns for Random(seed), or the RuntimeError
    it raises; the rng's final state), with oracle.MARGIN set to margin and,
    when failing is not 0, _point_on_line first drawing one rng.random() and
    returning None when it falls below failing."""
    rng = random.Random(seed)
    place, saved = oracle._point_on_line, oracle.MARGIN

    def failing_place(rng, l):
        return None if rng.random() < failing else place(rng, l)

    oracle.MARGIN = margin
    if failing:
        oracle._point_on_line = failing_place
    try:
        drawn = GENERATORS[name](rng)
    except RuntimeError as exc:
        drawn = exc
    finally:
        oracle.MARGIN, oracle._point_on_line = saved, place
    return drawn, rng.getstate()


def margin_draws():
    """The argument tuples of margin_draw that run the rejection paths."""
    for name in GENERATORS:
        for margin in REJECTING_MARGINS:
            for failing in FAILING:
                for seed in range(1, 21):
                    yield name, seed, margin, failing


def _inc(v, l):
    return abs(_k.dot3(v, l)) / (_k.norm3(v) * _k.norm3(l))


def _det(u, v, w):
    return abs(_k.det3(u, v, w)) / (_k.norm3(u) * _k.norm3(v) * _k.norm3(w))


def predicate_margins(name, drawn):
    """(exact, clear): the relative magnitudes of the predicates that the
    generator `name` makes exact, and of every other dispatch predicate of
    the input it drew."""
    if name == "five_points":
        return [], [_det(*t) for t in combinations([p.vec() for p in drawn], 3)]
    if name == "4p1l":
        pts, line = drawn
        vecs, lv = [p.vec() for p in pts], line.vec()
        clear = [_det(*t) for t in combinations(vecs, 3)]
        clear += [_inc(v, lv) for v in vecs + list(_k.diag_vertices(*vecs))]
        return [], clear
    pts, l1, l2 = drawn
    vecs, lvs = [p.vec() for p in pts], (l1.vec(), l2.vec())
    meet = _k.cross(*lvs)
    margins = {("inc", i, j): _inc(v, lvs[j]) for i, v in enumerate(vecs) for j in (0, 1)}
    margins.update({("coll", i, j): _det(vecs[i], vecs[j], meet) for i, j in combinations(range(3), 2)})
    exact = EXACT_3P2L[int(name[-1])]
    clear = [m for key, m in margins.items() if key not in exact]
    clear += [_k.norm3(meet) / (_k.norm3(lvs[0]) * _k.norm3(lvs[1])), _det(*vecs)]
    return [margins[key] for key in exact], clear


@pytest.mark.parametrize("margin", REJECTING_MARGINS)
@pytest.mark.parametrize("failing", FAILING)
@pytest.mark.parametrize("name", list(GENERATORS))
def test_generators_keep_constructed_predicates_exact_and_the_rest_clear(name, failing, margin):
    floor = margin * DEFAULT.geometry
    for seed in range(1, 21):
        drawn, _ = margin_draw(name, seed, margin, failing)
        assert not isinstance(drawn, RuntimeError), (seed, drawn)
        exact, clear = predicate_margins(name, drawn)
        assert all(m <= DEFAULT.geometry for m in exact), (seed, exact)
        assert min(clear) >= floor, (seed, min(clear))
    assert (oracle.MARGIN, oracle._point_on_line.__name__) == (10.0, "_point_on_line")


def test_random_4p1l_is_solvable_and_certified():
    rng = random.Random(8)
    for _ in range(50):
        pts, line = random_4p1l(rng)
        sol = solve(pts, [line])
        assert sol.total_count == 2 or sol.real_count == 1
        cert = certify(pts, [line], sol)
        assert cert.ok, cert.failures()


def test_dualize_roundtrip(square):
    line = ProjectiveLine(1.0, 1.0, -3.0)
    d_pts, d_lines = dualize_input(square, [line])
    assert len(d_pts) == 1
    assert len(d_lines) == 4
    assert d_pts[0].vec() == line.vec()
    back_pts, back_lines = dualize_input(d_pts, d_lines)
    assert [p.vec() for p in back_pts] == [p.vec() for p in square]
    assert back_lines[0].vec() == line.vec()
