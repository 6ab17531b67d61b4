"""SVG rendering: geometric fidelity and byte stability."""
import math

import pytest

from minconic import ConicMatrix, HomogeneousPoint, ProjectiveLine, solve
from minconic.conics import _sym6_frobenius
from minconic.plotting import DEFAULT_VIEWPORT, render_svg, sample_conic

CIRCLE = ConicMatrix.from_coefficients((1.0, 0.0, 1.0, 0.0, 0.0, -1.0))


def on_conic(cm, x, y, tol=1e-9):
    v = cm.point_value((x, y, 1.0))
    return abs(v) <= tol * _sym6_frobenius(cm.sym6()) * (x * x + y * y + 1.0)


def test_ellipse_is_one_closed_loop():
    branches = sample_conic(CIRCLE, DEFAULT_VIEWPORT)
    assert len(branches) == 1
    loop = branches[0]
    assert math.hypot(loop[0][0] - loop[-1][0], loop[0][1] - loop[-1][1]) < 1e-12
    for x, y in loop[:: len(loop) // 50]:
        assert on_conic(CIRCLE, x, y)


def test_hyperbola_has_two_branches():
    hyp = ConicMatrix.from_coefficients((0.0, 1.0, 0.0, 0.0, 0.0, -1.0))  # xy = 1
    branches = sample_conic(hyp, DEFAULT_VIEWPORT)
    assert len(branches) == 2
    for branch in branches:
        assert branch[0] != branch[-1]
        signs = {1 if x > 0 else -1 for x, _ in branch}
        assert len(signs) == 1  # a branch never crosses the asymptote
        for x, y in branch[:: max(1, len(branch) // 25)]:
            assert on_conic(hyp, x, y)


def test_parabola_samples_lie_on_it():
    par = ConicMatrix.from_coefficients((1.0, 0.0, 0.0, 0.0, -1.0, 0.0))  # y = x^2
    branches = sample_conic(par, DEFAULT_VIEWPORT)
    assert len(branches) == 1
    for x, y in branches[0][:: max(1, len(branches[0]) // 25)]:
        assert on_conic(par, x, y)


def test_svg_structure(square):
    line = ProjectiveLine(1.0, 1.0, -3.0)
    sol = solve(square, [line])
    svg = render_svg(square, [line], sol.real_conics)
    assert svg.startswith('<?xml version="1.0"')
    assert svg.rstrip().endswith("</svg>")
    assert svg.count('class="conic"') >= 2
    assert svg.count('class="input-point"') == 4
    assert svg.count('class="input-line"') == 1
    assert "P1" in svg and "P4" in svg
    assert "banner" not in svg


def test_svg_zero_solution_banner():
    pts = [
        HomogeneousPoint(1.0, 1.0),
        HomogeneousPoint(-1.0, 1.0),
        HomogeneousPoint(-1.0, -1.0),
        HomogeneousPoint(0.0, 0.2),
    ]
    line = ProjectiveLine(1.0, 1.0, -3.0)
    sol = solve(pts, [line])
    assert sol.real_count == 0
    svg = render_svg(pts, [line], sol.real_conics)
    assert "0 real solutions" in svg
    assert 'class="conic"' not in svg


def test_svg_is_byte_stable(square):
    line = ProjectiveLine(1.0, 1.0, -3.0)
    sol = solve(square, [line])
    a = render_svg(square, [line], sol.real_conics)
    b = render_svg(square, [line], solve(square, [line]).real_conics)
    assert a == b


def test_point_at_infinity_is_skipped():
    pts = [HomogeneousPoint(1.0, 0.0, 0.0)]
    svg = render_svg(pts, [], [])
    assert 'class="input-point"' not in svg


def test_a_viewport_of_no_extent_is_refused():
    with pytest.raises(ValueError, match="viewport must have positive extent"):
        render_svg([], [], [], (1, 1, 0, 0))


def test_tuple_line_draws_as_its_object(square):
    line = ProjectiveLine(1.0, 1.0, -3.0)
    assert render_svg(square, [(1.0, 1.0, -3.0)], []) == render_svg(square, [line], [])


@pytest.mark.parametrize(
    "points, dots",
    [
        ([(1e-13, 0.0, 1e-13), (1.0, 0.0, 1.0)], 2),  # small w, finite point
        ([(math.nan, 0.0, 1.0), (1.0, 0.0, 1.0)], 1),  # NaN: no dot
        ([[1.0, 2.0], HomogeneousPoint(3.0, 0.0, 1.0)], 2),  # [x, y] reads as (x, y, 1)
    ],
)
def test_a_dot_for_every_finite_point(points, dots):
    # the dot is decided by the one infinity gate, relative to the norm
    svg = render_svg(points, [], [])
    assert svg.count('class="input-point"') == dots
    assert "nan" not in svg
