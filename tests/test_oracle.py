"""Independent cross-checks: nullspace fit, root scan, certification, generators."""
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from minconic import (
    ConicMatrix,
    HomogeneousPoint,
    ProjectiveLine,
    diagonal_triangle,
    solve,
    solve_five_points,
)
from minconic.errors import RankDeficient
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

from conftest import load_gallery_case, six_vector_angle


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


def test_scan_finds_the_known_roots(square):
    tri = diagonal_triangle(*square)
    # x + y = 3: roots (-7 +- 3 sqrt 5) / 2
    roots = scan_tangency_roots(tri, ProjectiveLine(1.0, 1.0, -3.0))
    want = sorted([(-7.0 - 3.0 * math.sqrt(5.0)) / 2.0, (-7.0 + 3.0 * math.sqrt(5.0)) / 2.0])
    got = sorted(r for r in roots if abs(r) > 1e-9 and abs(r - 1.0) > 1e-9)
    assert got == pytest.approx(want, abs=1e-9)


def test_scan_finds_the_vertex_line_root(square):
    tri = diagonal_triangle(*square)
    # x = 2 passes through a triangle vertex: single non-degenerate root -1/3
    roots = scan_tangency_roots(tri, ProjectiveLine(1.0, 0.0, -2.0))
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
    # one LAPACK call ranks the whole set; the line pair x^2 - y^2 in slot 2
    # must be the only rank failure, and the other conics stay certified (its
    # own residuals fail too: no line pair through three points of a case-5
    # input is tangent to both lines)
    points, lines, sol = _case5_four_real()
    line_pair = ConicMatrix(1.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    cert = certify(points, lines, _with_conic(sol, 2, line_pair))
    assert _rank_magnitudes(cert) == [3.0, 3.0, 2.0, 3.0]
    failed = [c.name for c in cert.failures()]
    assert "nondegenerate[2]" in failed
    assert all("[2]" in name for name in failed), failed


def test_certify_makes_one_eigenvalue_call_per_set(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    points, lines, sol = _case5_four_real()
    assert certify(points, lines, sol).ok
    assert calls == [(4, 3, 3)]

    calls.clear()
    points, lines, _ = load_gallery_case("4p1l_generic_complex")
    sol = solve(points, lines)
    assert sol.real_count == 0
    assert certify(points, lines, sol).ok
    assert calls == []


def test_rank_of_non_finite_conics():
    # as with ndarray.max, a NaN eigenvalue makes the spectral radius NaN and
    # the rank 0: an inf entry gives NaN eigenvalues; LAPACK's eigenvalues of
    # a NaN diagonal entry are (0, -0, 1), rank 1
    points, lines, sol = _case5_four_real()
    inf, nan = math.inf, math.nan
    conics = (
        ConicMatrix(inf, 0.0, 1.0, 0.0, 0.0, 1.0),
        ConicMatrix(nan, 0.0, 1.0, 0.0, 0.0, 1.0),
    ) + sol.real_conics[2:]
    cert = certify(points, lines, replace(sol, real_conics=conics))
    assert _rank_magnitudes(cert) == [0.0, 1.0, 3.0, 3.0]


def test_eigenvalue_failure_keeps_its_place_in_the_check_order(monkeypatch):
    # conic by conic, conic 0's rank came before conic 1's residuals: an
    # unconverged eigenvalue problem raises LinAlgError, even when a later
    # conic's residual would divide by zero
    def unconverged(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    points, lines, sol = _case5_four_real()
    zero = ConicMatrix(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        certify(points, lines, _with_conic(sol, 0, zero))
    monkeypatch.setattr(np.linalg, "eigvalsh", unconverged)
    with pytest.raises(np.linalg.LinAlgError):
        certify(points, lines, _with_conic(sol, 1, zero))
    with pytest.raises(ZeroDivisionError):
        certify(points, lines, _with_conic(sol, 0, zero))


def test_random_generators_produce_the_requested_case():
    rng = random.Random(7)
    for case in (1, 2, 3, 4, 5):
        for _ in range(20):
            pts, l1, l2 = random_3p2l_case(rng, case)
            alloc = classify_3p2l_case(pts, l1, l2)
            assert alloc.case == case


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
