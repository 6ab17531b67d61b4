"""The input reader gives what a named read of each element gives.

`solvers._triples` reads a configuration in one pass and reads it again,
element by element, only to name the first faulty element. The reference
below is that named read alone: the count check, then `_named_vec` per
element. Both must return the same triples, as Python floats, or raise the
same error type with the same message. Each element kind is placed at every
one of the five positions of each point/line split, so it is read as a
point and as a line. Needs only the standard library.
"""
import json
import math
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from minconic import HomogeneousPoint, ProjectiveLine
from minconic.errors import UnsupportedCount
from minconic.projective import _named_vec
from minconic.solvers import KINDS, _triples

GALLERY = Path(__file__).parent / "fixtures" / "gallery"


class SubPoint(HomogeneousPoint):
    pass


class SubLine(ProjectiveLine):
    pass


class ListPoint(HomogeneousPoint):
    """A subclass whose vec() is a list."""

    def vec(self):
        return [self.x, self.y, self.w]


class HasVec:
    """Not a package type, but read through its vec() all the same."""

    def vec(self):
        return (1.5, -2.5, 1.0)

    def __repr__(self):
        return "HasVec()"


class Real(float):
    pass


Triple = namedtuple("Triple", "x y z")

#: one element of each kind the reader meets, by name
ELEMENTS = {
    # the package's exact types, holding each kind of number
    "point floats": HomogeneousPoint(1.5, -2.0, 3.0),
    "line floats": ProjectiveLine(0.5, 1.25, -3.0),
    "point signed zero": HomogeneousPoint(-0.0, 0.0, 1.0),
    "point ints": HomogeneousPoint(2, -3, 1),
    "line ints": ProjectiveLine(1, 2, -7),
    "point mixed": HomogeneousPoint(2, -3.5),
    "point Fraction": HomogeneousPoint(Fraction(1, 3), Fraction(-5, 7), 1),
    "line Fraction": ProjectiveLine(Fraction(2, 3), 1, Fraction(-9, 4)),
    "point bool": HomogeneousPoint(True, False, True),
    "line bool": ProjectiveLine(False, True, True),
    "point Decimal": HomogeneousPoint(Decimal("1.5"), 2, 1),
    "point float subclass": HomogeneousPoint(Real(1.5), 2.0, 1.0),
    "point 10**400": HomogeneousPoint(10**400, 1.0, 1.0),
    "line 10**400": ProjectiveLine(1.0, -(10**400), 2.0),
    "point sNaN": HomogeneousPoint(Decimal("sNaN"), 1.0, 1.0),
    "point inf": HomogeneousPoint(1.0, math.inf, 1.0),
    "line inf": ProjectiveLine(-math.inf, 1.0, 2.0),
    "point nan": HomogeneousPoint(math.nan, 0.5, 1.0),
    "line nan": ProjectiveLine(1.0, 0.5, math.nan),
    "point text field": HomogeneousPoint("1", 2.0, 1.0),
    "line None field": ProjectiveLine(1.0, None, 1.0),
    # subclasses, read through their vec()
    "subclass point floats": SubPoint(1.5, -2.0, 3.0),
    "subclass line ints": SubLine(1, 2, -7),
    "subclass point nan": SubPoint(1.0, math.nan, 1.0),
    "subclass with list vec": ListPoint(0.25, 4.0, 1.0),
    "object with vec": HasVec(),
    # tuples and lists
    "tuple of 2": (1.5, 2.5),
    "tuple of 3": (1.5, 2.5, 1.0),
    "tuple of 4": (1.5, 2.5, 1.0, 7.0),
    "tuple of ints": (3, -1, 2),
    "tuple with Fraction": (Fraction(1, 2), 2.0, 1.0),
    "tuple with bool": (True, 2.0, 1.0),
    "tuple with float subclass": (Real(1.5), 2.0, 1.0),
    "tuple with inf": (math.inf, 1.0, 1.0),
    "tuple with nan": (1.0, math.nan, 1.0),
    "tuple with 10**400": (1, 10**400, 1),
    "tuple with None": (1.0, None, 1.0),
    "tuple of text": ("2", "3", "1"),
    "namedtuple": Triple(1.5, 2.5, 1.0),
    "list of 2": [1.5, 2.5],
    "list of 3": [1.5, 2.5, 1.0],
    "list of 4": [1.5, 2.5, 1.0, 7.0],
    "list of ints": [2, 3, 1],
    "list with inf": [1.0, -math.inf, 1.0],
    # neither
    "str": "abc",
    "str of digits": "123",
    "bytes": b"123",
    "bytearray": bytearray(b"123"),
    "None": None,
    "int": 5,
}

#: a clean input of each point/line split, from the gallery
BASE_FILES = {
    (5, 0): "5p_circle",
    (4, 1): "4p1l_generic_real_a",
    (3, 2): "3p2l_case5_real_a",
    (2, 3): "2p3l_case5_real_a",
    (1, 4): "1p4l_generic_real_a",
    (0, 5): "5l_circle",
}


def base(split):
    """The gallery input of a point/line split as float tuples, a point of
    two coordinates with w = 1."""
    doc = json.loads((GALLERY / f"{BASE_FILES[split]}.json").read_text())
    points = [tuple(float(x) for x in (p if len(p) == 3 else p + [1])) for p in doc["points"]]
    lines = [tuple(float(x) for x in l) for l in doc["lines"]]
    return points, lines


def placed(element):
    """(points, lines) for the element at each of the five positions of each
    split: as a point at a point's position, as a line at a line's."""
    for split in BASE_FILES:
        points, lines = base(split)
        for k in range(5):
            items = points + lines
            items[k] = element
            yield items[: split[0]], items[split[0]:]


#: faulty elements of different kinds, for inputs with two of them
FAULTS = {
    "nan": (math.nan, 1.0, 1.0),
    "inf": (1.0, -math.inf, 2.0),
    "text": "abc",
    "pair": (1.0, 2.0),
    "beyond": (1, 10**400, 1),
}


def fault_pairs():
    """Two faulty elements of different kinds at every two positions of the
    3p2l and 5p inputs, in both orders: the first one is named."""
    for split in ((3, 2), (5, 0)):
        points, lines = base(split)
        for first in FAULTS.values():
            for second in FAULTS.values():
                if first is second:
                    continue
                for i in range(5):
                    for j in range(i + 1, 5):
                        items = points + lines
                        items[i], items[j] = first, second
                        yield items[: split[0]], items[split[0]:]


def wrong_counts():
    """Splits of other sizes, clean and with a NaN point, as lists and tuples."""
    points, lines = base((3, 2))
    more = points + [(0.5, 0.25, 1.0), (-3.0, 1.0, 1.0), (4.0, 4.0, 1.0)]
    for n_points, n_lines in ((4, 0), (3, 1), (6, 0), (0, 0), (2, 2), (5, 1), (0, 6)):
        pts = more[:n_points]
        lns = (lines * 3)[:n_lines]
        yield pts, lns
        yield tuple(pts), tuple(lns)
        if pts:
            yield [FAULTS["nan"]] + pts[1:], lns


def ref_triples(points, lines, wrong_count=None):
    if (len(points), len(lines)) not in KINDS:
        raise UnsupportedCount(
            wrong_count
            or f"{len(points)} points and {len(lines)} lines do not form a "
            "five-element minimal configuration"
        )
    vecs = [_named_vec(item, "point", idx) for idx, item in enumerate(points)]
    lvs = [_named_vec(item, "line", idx) for idx, item in enumerate(lines)]
    return vecs, lvs


def read(fn, *args):
    """The triples with the type of each container and coordinate, or the
    error's type and message."""
    try:
        vecs, lvs = fn(*args)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)
    return [
        (type(seq), [(type(v), [(type(x), repr(x)) for x in v]) for v in seq])
        for seq in (vecs, lvs)
    ]


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_reader_matches_the_named_reads(name):
    for points, lines in placed(ELEMENTS[name]):
        assert read(_triples, points, lines) == read(ref_triples, points, lines)


def test_reader_names_the_first_of_two_faults():
    for points, lines in fault_pairs():
        assert read(_triples, points, lines) == read(ref_triples, points, lines)


@pytest.mark.parametrize("wrong_count", [None, "exactly three points required"])
def test_reader_checks_the_count_first(wrong_count):
    for points, lines in wrong_counts():
        got = read(_triples, points, lines, wrong_count)
        assert got == read(ref_triples, points, lines, wrong_count)
        assert got[0] is UnsupportedCount


def test_the_elements_reach_every_outcome():
    # each error the reader can raise, and a clean read, are met
    outcomes = set()
    for element in ELEMENTS.values():
        points, lines = next(placed(element))
        got = read(ref_triples, points, lines)
        outcomes.add(got[0] if isinstance(got, tuple) else list)
    assert {o.__name__ for o in outcomes} == {"list", "MalformedCoordinates", "NonFiniteInput"}
