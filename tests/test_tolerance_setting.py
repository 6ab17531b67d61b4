"""The general-position tolerance is a setting of solve, predict and certify
only: every other public function decides with DEFAULT's, and a setting no
band test can honour (negative, inf or NaN) is refused where it is made."""
import inspect
import math

import pytest

import minconic
from minconic import DEFAULT, GeneralPositionError, Tolerances, conics, oracle, projective
from minconic import selfpolar, solve, solvers

MODULES = (minconic, oracle, projective, conics, selfpolar, solvers)

#: the public functions that take the setting, by qualified name
TAKERS = ["minconic.oracle.certify", "minconic.solvers.predict", "minconic.solvers.solve"]


def public_callables() -> dict:
    """Every public function and class of MODULES that minconic defines, and
    every public method of those classes, once each, by qualified name."""
    found = {}
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("minconic"):
                continue  # an imported helper such as typing.Sequence
            found[f"{obj.__module__}.{obj.__qualname__}"] = obj
            if inspect.isclass(obj):
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if not attr.startswith("_") and inspect.isroutine(member):
                        found[f"{obj.__module__}.{member.__qualname__}"] = member
    return found


def parameters(fn) -> list[str]:
    try:
        return list(inspect.signature(fn).parameters)
    except ValueError:  # an exception class: no signature to read
        return []


def test_only_solve_predict_and_certify_take_a_tolerance():
    callables = public_callables()
    assert "minconic.solvers.solve_dual" in callables  # the walk reaches the wrappers
    takers = sorted(name for name, fn in callables.items() if "tol" in parameters(fn))
    assert takers == TAKERS
    for name in TAKERS:
        assert inspect.signature(callables[name]).parameters["tol"].default is DEFAULT


@pytest.mark.parametrize("geometry", [-1.0, -1e-300, math.inf, -math.inf, math.nan])
def test_a_negative_or_non_finite_geometry_is_refused(geometry):
    # below zero no band test fires, so a collinear triple would pass as
    # general position
    with pytest.raises(ValueError, match="geometry tolerance must be a finite number >= 0"):
        Tolerances(geometry)


def test_a_zero_geometry_still_refuses_exact_special_position():
    collinear = [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1), (0, 0, 1)]
    with pytest.raises(GeneralPositionError, match="points 0, 2, 4 are collinear"):
        solve(collinear, (), Tolerances(0.0))
