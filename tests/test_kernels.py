"""The straight-line kernels give bit for bit what their compositions of
cross and dot products gave.

The references below are the kernels written as compositions of `cross`,
`dot3` and a weighted outer-product accumulation. The rewritten kernels must
make the same float operations in the same order, so the two are compared by
repr, which tells -0.0 from 0.0 and shows inf and nan. The inputs include
small integers, whose products cancel exactly and leave signed zeros, and
coordinates near 1e150 and 1e-160, whose products overflow to inf and
underflow to zero. Needs only the standard library.
"""
import math
import random

import pytest

import minconic._kernels as _k


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def axpy_outer(acc, k, v):
    return (
        acc[0] + k * v[0] * v[0],
        acc[1] + k * v[0] * v[1],
        acc[2] + k * v[1] * v[1],
        acc[3] + k * v[0] * v[2],
        acc[4] + k * v[1] * v[2],
        acc[5] + k * v[2] * v[2],
    )


def ref_diag_vertices(x1, x2, x3, x4):
    return (
        cross(cross(x1, x2), cross(x3, x4)),
        cross(cross(x1, x3), cross(x2, x4)),
        cross(cross(x1, x4), cross(x2, x3)),
    )


def ref_diag_triangle(x1, x2, x3, x4):
    xi1, xi2, xi3 = ref_diag_vertices(x1, x2, x3, x4)
    s12 = cross(x1, x2)
    s13 = cross(x1, x3)
    d123 = dot3(s12, x3)
    d124 = dot3(s12, x4)
    d134 = dot3(s13, x4)
    dev = 0.0
    for xi, (ka, va, kb, vb) in (
        (xi1, (d124, x3, -d123, x4)),
        (xi2, (d134, x2, d123, x4)),
        (xi3, (d124, x3, -d134, x2)),
    ):
        scale = max(abs(xi[0]), abs(xi[1]), abs(xi[2]), 1e-300)
        for i in range(3):
            alt = ka * va[i] + kb * vb[i]
            err = abs(xi[i] - alt) / scale
            if err > dev:
                dev = err
    return xi1, xi2, xi3, dev


def ref_conic_from_pencil(xi1, xi2, xi3, s):
    u = cross(xi2, xi3)
    v = cross(xi3, xi1)
    w = cross(xi1, xi2)
    m = (0.0,) * 6
    m = axpy_outer(m, -s, u)
    m = axpy_outer(m, s - 1.0, v)
    m = axpy_outer(m, 1.0, w)
    return m


def ref_conic_from_five_points(x1, x2, x3, x4, x5):
    xi1, xi2, xi3, dev = ref_diag_triangle(x1, x2, x3, x4)
    u = cross(xi2, xi3)
    v = cross(xi3, xi1)
    w = cross(xi1, xi2)
    d = dot3(u, xi1)
    if d == 0.0:
        return None, dev
    b1 = dot3(u, x5) / d
    b2 = dot3(v, x5) / d
    b3 = dot3(w, x5) / d
    m = (0.0,) * 6
    m = axpy_outer(m, b3 * b3 - b2 * b2, u)
    m = axpy_outer(m, b1 * b1 - b3 * b3, v)
    m = axpy_outer(m, b2 * b2 - b1 * b1, w)
    return m, dev


def small_int(rng):
    return (float(rng.randint(-2, 2)), float(rng.randint(-2, 2)), float(rng.choice((0, 1, 1))))


def uniform(rng):
    return (rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10))


def scaled(scale):
    def make(rng):
        return tuple(scale * rng.uniform(-1, 1) * 2.0 ** rng.randint(-20, 20) for _ in range(3))

    return make


def special(rng):
    # a small-integer triple with one coordinate replaced by a zero of
    # either sign, an inf or a nan
    v = list(small_int(rng))
    v[rng.randrange(3)] = rng.choice((0.0, -0.0, -0.0, math.inf, -math.inf, math.nan))
    return tuple(v)


def axis(rng):
    # a coordinate axis of either direction, its zeros of either sign: the
    # cross products of such triples are mostly zeros of either sign
    v = [rng.choice((0.0, -0.0)) for _ in range(3)]
    v[rng.randrange(3)] = rng.choice((1.0, -1.0, 2.0))
    return tuple(v)


#: how each kind of input triple is drawn
KINDS = {
    "uniform": uniform,
    "small integers": small_int,
    "axes": axis,
    "1e150": scaled(1e150),
    "1e-160": scaled(1e-160),
    "signed zeros, inf and nan": special,
}


def triples(kind, seed, n):
    rng = random.Random(seed)
    make = KINDS[kind]
    return [tuple(make(rng) for _ in range(n)) for _ in range(400)], rng


def pencil_parameters(rng):
    return (0.0, -0.0, 1.0, 2.0, -1.0, 0.5, rng.uniform(-3, 3), rng.uniform(-1e-3, 1e-3))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_diag_vertices_and_triangle_match_their_compositions(kind):
    quads, _ = triples(kind, 1, 4)
    for quad in quads:
        assert repr(_k.diag_vertices(*quad)) == repr(ref_diag_vertices(*quad))
        assert repr(_k.diag_triangle(*quad)) == repr(ref_diag_triangle(*quad))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_triangle_deviation_is_the_alarm_of_the_composed_triangle(kind):
    # the alarm of vertices built beforehand, as the 4p1l builder takes it
    # from the analysis's vertices
    quads, _ = triples(kind, 4, 4)
    for quad in quads:
        xi1, xi2, xi3, dev = ref_diag_triangle(*quad)
        assert repr(_k.triangle_deviation(*quad, xi1, xi2, xi3)) == repr(dev)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_conic_from_pencil_matches_its_composition(kind):
    quads, rng = triples(kind, 2, 4)
    for quad in quads:
        xi = ref_diag_vertices(*quad)
        for s in pencil_parameters(rng):
            assert repr(_k.conic_from_pencil(*xi, s)) == repr(ref_conic_from_pencil(*xi, s))
        # vertices that are themselves small integers, zeros of either sign
        # included, as the raw triples are
        for s in pencil_parameters(rng):
            assert repr(_k.conic_from_pencil(*quad[:3], s)) == repr(ref_conic_from_pencil(*quad[:3], s))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_conic_from_five_points_matches_its_composition(kind):
    fives, _ = triples(kind, 3, 5)
    for five in fives:
        assert repr(_k.conic_from_five_points(*five)) == repr(ref_conic_from_five_points(*five))


def test_the_inputs_reach_signed_zeros_overflow_and_underflow():
    # the comparisons above see what they are meant to: -0.0 entries,
    # inf and nan results, and five-point fits with an exactly zero divisor
    seen = set()
    for kind in KINDS:
        fives, rng = triples(kind, 3, 5)
        for five in fives:
            m, dev = ref_conic_from_five_points(*five)
            xi = ref_diag_vertices(*five[:4])
            out = [x for v in xi for x in v] + list(ref_conic_from_pencil(*xi, -0.5)) + [dev]
            if m is None:
                seen.add("zero divisor")
            else:
                out += list(m)
            for x in out:
                if x == 0.0 and math.copysign(1.0, x) < 0.0:
                    seen.add("-0.0")
                elif math.isinf(x):
                    seen.add("inf")
                elif math.isnan(x):
                    seen.add("nan")
            if kind == "1e-160" and any(x == 0.0 for v in xi for x in v):
                seen.add("underflow")
    assert seen == {"-0.0", "inf", "nan", "zero divisor", "underflow"}
