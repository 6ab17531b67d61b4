"""The public surface is pinned: what `minconic` exports and what its value
types offer. A change to either has to change this file as well."""
import dataclasses

import pytest

import minconic
from minconic import ConicMatrix, HomogeneousPoint, ProjectiveLine, SolveDiagnostics

EXPORTS = [
    "BACKEND",
    "CaseAllocation",
    "CaseContext",
    "CaseDegeneracy",
    "ConicClass",
    "ConicMatrix",
    "CountPrediction",
    "DEFAULT",
    "DegenerateCase",
    "GeneralPositionError",
    "HomogeneousPoint",
    "MalformedCoordinates",
    "MinconicError",
    "NonFiniteInput",
    "PencilEigenvalues",
    "ProjectiveLine",
    "RankDeficient",
    "RankOne",
    "SolutionSet",
    "SolveDiagnostics",
    "Tolerances",
    "UnsupportedCount",
    "__version__",
    "classify",
    "classify_3p2l_case",
    "pencil_eigenvalues",
    "point_residual",
    "predict",
    "predict_count_3p2l",
    "predict_count_4p1l",
    "rank",
    "require_no_collinear_triple",
    "solve",
    "solve_dual",
    "solve_five_points",
    "solve_four_points_line",
    "solve_three_points_two_lines",
    "tangency_residual",
]

#: fields and public class attributes of each value type
MEMBERS = {
    ConicMatrix: [
        "a", "b", "c", "d", "e", "f",
        "from_coefficients", "from_sym6", "normalized", "point_value", "sym6",
    ],
    HomogeneousPoint: ["vec", "w", "x", "y"],
    ProjectiveLine: ["a", "b", "c", "through", "vec"],
    SolveDiagnostics: [
        "allocation", "context", "discriminant", "double_root", "eigenvalues",
        "lines_swapped", "parameters", "prediction", "triangle_deviation",
    ],
}


def test_package_exports_exactly_the_solving_surface():
    assert sorted(minconic.__all__) == EXPORTS
    assert len(set(minconic.__all__)) == len(minconic.__all__)
    assert all(hasattr(minconic, name) for name in minconic.__all__)


@pytest.mark.parametrize("cls", list(MEMBERS), ids=lambda c: c.__name__)
def test_value_type_members(cls):
    fields = {f.name for f in dataclasses.fields(cls)}
    public = {name for name in vars(cls) if not name.startswith("_")}
    assert sorted(fields | public) == MEMBERS[cls]
