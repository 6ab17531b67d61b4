"""Inputs for the golden digests of the straight-line kernels.

The kinds of input triple below are drawn for the `diag_triangle_<kind>`,
`conic_from_pencil_<kind>` and `conic_from_five_points_<kind>` blocks of
tests/golden_repr.tsv, which record the repr of `_k.diag_vertices`,
`_k.diag_triangle`, `_k.conic_from_pencil` and `_k.conic_from_five_points`
on them: repr tells -0.0 from 0.0 and shows inf and nan. The inputs include
small integers, whose products cancel exactly and leave signed zeros, and
coordinates near 1e150 and 1e-160, whose products overflow to inf and
underflow to zero; the one test here checks that they do. Needs only the
standard library.
"""
import math
import random

import minconic._kernels as _k


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


def pencil_inputs(kind):
    """(xi1, xi2, xi3, s) for `conic_from_pencil`: the diagonal triangle of
    each quadrangle, and its first three points as vertices themselves
    (small integers, zeros of either sign included), at eight parameters."""
    quads, rng = triples(kind, 2, 4)
    for quad in quads:
        xi = _k.diag_vertices(*quad)
        for s in pencil_parameters(rng):
            yield (*xi, s)
        for s in pencil_parameters(rng):
            yield (*quad[:3], s)


def test_the_inputs_reach_signed_zeros_overflow_and_underflow():
    # the kernel blocks see what they are meant to: -0.0 entries, inf and
    # nan results, and five-point fits with an exactly zero divisor
    seen = set()
    for kind in KINDS:
        fives, _ = triples(kind, 3, 5)
        for five in fives:
            m = _k.conic_from_five_points(*five)
            *xi, dev = _k.diag_triangle(*five[:4])
            out = [x for v in xi for x in v] + list(_k.conic_from_pencil(*xi, -0.5)) + [dev]
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
