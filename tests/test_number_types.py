"""Every point and line is read once as three Python floats, whatever real
number type its coordinates are written in: int, Fraction, Decimal and numpy
objects solve, predict and certify exactly as their float-tuple twins do."""
import random
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from minconic import ConicMatrix, HomogeneousPoint, MinconicError, ProjectiveLine, classify, predict, rank, solve
from minconic.oracle import (
    certify,
    dualize_input,
    random_3p2l_case,
    random_4p1l,
    random_five_points,
)


def mixed_corpus(rng, per_category):
    """per_category inputs of each of the ten categories (5p, 4p1l, 3p2l
    cases 1-5 and the duals 5l, 1p4l, 2p3l), drawn in the order of the
    benchmark's mixed corpus."""
    out = []
    for k in range(per_category):
        out.append((random_five_points(rng), []))
        pts, line = random_4p1l(rng)
        out.append((pts, [line]))
        for case in range(1, 6):
            pts, l1, l2 = random_3p2l_case(rng, case)
            out.append((pts, [l1, l2]))
        out.append(dualize_input(random_five_points(rng), []))
        pts, line = random_4p1l(rng)
        out.append(dualize_input(pts, [line]))
        pts, l1, l2 = random_3p2l_case(rng, 1 + k % 5)
        out.append(dualize_input(pts, [l1, l2]))
    return out


def integer_corpus():
    """The seed-3 corpus with every coordinate times 1e6, rounded to an int."""
    return [
        (
            [tuple(round(1e6 * v) for v in p.vec()) for p in points],
            [tuple(round(1e6 * v) for v in l.vec()) for l in lines],
        )
        for points, lines in mixed_corpus(random.Random(3), 30)
    ]


INTEGER_CORPUS = integer_corpus()


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message below
        assert isinstance(exc, MinconicError), repr(exc)
        return exc


def same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return repr(a) == repr(b)


@pytest.mark.parametrize(
    "number", [int, Fraction, Decimal, np.float64], ids=["int", "Fraction", "Decimal", "float64"]
)
def test_objects_of_any_number_type_answer_as_their_float_twins(number):
    differences = []
    for k, (point_ints, line_ints) in enumerate(INTEGER_CORPUS):
        points = [HomogeneousPoint(*map(number, p)) for p in point_ints]
        lines = [ProjectiveLine(*map(number, l)) for l in line_ints]
        twin_points = [tuple(map(float, p)) for p in point_ints]
        twin_lines = [tuple(map(float, l)) for l in line_ints]

        sol = outcome(solve, points, lines)
        twin_sol = outcome(solve, twin_points, twin_lines)
        pred = outcome(predict, points, lines)
        twin_pred = outcome(predict, twin_points, twin_lines)
        results = [(sol, twin_sol), (pred, twin_pred)]
        if not isinstance(sol, Exception):
            cert = certify(points, lines, sol)
            results.append((cert, certify(twin_points, twin_lines, twin_sol)))
            assert all(type(v) is float for cm in sol.real_conics for v in cm.sym6())
            assert all(type(check.passed) is bool for check in cert.checks)
        differences += [k for a, b in results if not same(a, b)]
    assert differences == []


@pytest.mark.parametrize(
    "number", [int, Fraction, Decimal, np.float64], ids=["int", "Fraction", "Decimal", "float64"]
)
def test_rank_and_classify_of_any_number_type_answer_as_their_float_twins(number):
    # a circle, a line pair, a point (x^2 + y^2) and a double line, also at a scale
    # whose Frobenius norm overflows; numpy must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m6 in ((1, 0, 1, 0, 0, -1), (1, 0, -1, 0, 0, 0), (1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0)):
            for scale in (1, 10**300):
                c = ConicMatrix(*(number(scale * x) for x in m6))
                twin = ConicMatrix(*(float(scale * x) for x in m6))
                assert (rank(c), classify(c)) == (rank(twin), classify(twin))
