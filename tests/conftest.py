import json
import math
import pathlib

import pytest

from minconic.projective import HomogeneousPoint, ProjectiveLine

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SQUARE = [
    HomogeneousPoint(1, 1),
    HomogeneousPoint(-1, 1),
    HomogeneousPoint(-1, -1),
    HomogeneousPoint(1, -1),
]

# a 3-point/2-line case-5 input (a noisy RANSAC sample) whose pencil
# eigenvalues lam2 and lam3 differ by 3.3e-9 relative, just outside
# eigenvalue_tie: one root lies 1.5e-12 from the degenerate member s = 0,
# inside the rounding band that gap leaves
NEAR_TIE_POINTS = [
    (-2.331610130967922, -3.553281695738844, 1.0),
    (-2.2417921437161192, -3.7005489688357103, 1.0),
    (-4.456643704888074, -1.5103904063674725, 1.0),
]
NEAR_TIE_LINES = [
    (-0.28378421185434366, 0.9588881692367517, 4.813118419746332),
    (-0.3251790610879466, 0.9456524616527795, 4.69151017053323),
]


def load_gallery_case(name):
    doc = json.loads((FIXTURES / "gallery" / f"{name}.json").read_text())
    points = [HomogeneousPoint(*p) for p in doc["points"]]
    lines = [ProjectiveLine(*l) for l in doc["lines"]]
    return points, lines, doc["expected"]


def gallery_names():
    return sorted(p.stem for p in (FIXTURES / "gallery").glob("*.json"))


def six_vector_angle(c1, c2):
    """Angular distance between two conics as normalized 6-vectors (sign-blind)."""
    u = c1.normalized().six_vector()
    v = c2.normalized().six_vector()
    dot = abs(sum(a * b for a, b in zip(u, v)))
    return math.sqrt(max(0.0, 2.0 - 2.0 * min(dot, 1.0)))


@pytest.fixture
def square():
    return list(SQUARE)
