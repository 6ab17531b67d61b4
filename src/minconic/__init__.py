"""Closed-form conic solvers for minimal point/line configurations.

Five constraints determine a pencil-length family of conics; this package
solves every mix of points and tangent lines (5 points through 5 lines) in
closed form, built on the self-polar triangle of the quadrangle spanned by
four of the points. Sign tests on the input predict how many solutions are
real before anything is solved.
"""
from ._kernels import BACKEND
from .conics import (
    ConicClass,
    ConicMatrix,
    PencilEigenvalues,
    classify,
    pencil_eigenvalues,
    point_residual,
    rank,
    tangency_residual,
)
from .errors import (
    CaseDegeneracy,
    DegenerateCase,
    GeneralPositionError,
    MalformedCoordinates,
    MinconicError,
    NonFiniteInput,
    RankDeficient,
    RankOne,
    UnsupportedCount,
)
from .projective import HomogeneousPoint, ProjectiveLine
from .selfpolar import require_no_collinear_triple
from .solvers import (
    CaseAllocation,
    CaseContext,
    CountPrediction,
    SolutionSet,
    SolveDiagnostics,
    classify_3p2l_case,
    predict,
    predict_count_3p2l,
    predict_count_4p1l,
    solve,
    solve_dual,
    solve_five_points,
    solve_four_points_line,
    solve_three_points_two_lines,
)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
