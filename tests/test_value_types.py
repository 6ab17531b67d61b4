"""The value types are frozen dataclasses built by one shared __init__:
construction, defaults, equality, hashing, repr, the refusal of assignment,
fields, replace, asdict and pickling are the dataclass's own."""
import dataclasses
import inspect
import pickle

import pytest

from minconic import ConicMatrix, HomogeneousPoint, ProjectiveLine
from minconic.oracle import Certification, CheckResult
from minconic.solvers import (
    CaseAllocation,
    CaseContext,
    CountPrediction,
    SolutionSet,
    SolveDiagnostics,
)

UNIT_CIRCLE = ConicMatrix(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
CHECK = CheckResult("incidence[0]", True, 1e-16, 1e-9)

#: a sample of each value type, with its fields in order and the defaults
SAMPLES = {
    "ConicMatrix": (UNIT_CIRCLE, "a b c d e f", {}),
    "HomogeneousPoint": (HomogeneousPoint(1.0, 2.0, 0.5), "x y w", {"w": 1.0}),
    "ProjectiveLine": (ProjectiveLine(1.0, 0.0, -3.0), "a b c", {}),
    "CountPrediction": (
        CountPrediction(2, 0, "case 4: determinant/incidence product negative", -3.5),
        "predicted_real predicted_complex rule predicate",
        {"predicate": None},
    ),
    "CaseAllocation": (CaseAllocation(4, (0, 2, 1), True), "case order swap_lines", {}),
    "CaseContext": (CaseContext((1.0, 0.0, 1.0), (0.0, 1.0, 0.0)), "anchor offset", {}),
    "SolutionSet": (
        SolutionSet((UNIT_CIRCLE,), 0, "5p", SolveDiagnostics()),
        "real_conics complex_count case_label diagnostics",
        {},
    ),
    "CheckResult": (CHECK, "name passed magnitude limit", {}),
    "Certification": (
        Certification((CHECK,), ("count-consistency",)),
        "checks not_judged",
        {"not_judged": ()},
    ),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_type_is_a_frozen_dataclass(name):
    x, names, defaults = SAMPLES[name]
    names = names.split()
    cls = type(x)
    assert cls.__name__ == name
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    assert [f.name for f in dataclasses.fields(x)] == names
    values = tuple(getattr(x, n) for n in names)

    # construction: the dataclass's parameters and defaults
    params = inspect.signature(cls).parameters
    assert list(params) == names
    assert {n: p.default for n, p in params.items() if p.default is not p.empty} == defaults
    assert cls(*values) == x
    assert cls(**dict(zip(names, values))) == x
    required = [v for n, v in zip(names, values) if n not in defaults]
    assert all(getattr(cls(*required), n) == d for n, d in defaults.items())
    with pytest.raises(TypeError):
        cls(*values, None)

    # equality, hashing and repr over the fields in order
    assert cls(*values) is not x
    changed = dataclasses.replace(x, **{names[-1]: "other"})
    assert changed != x and type(changed) is cls
    assert tuple(getattr(changed, n) for n in names) == values[:-1] + ("other",)
    try:
        expected = hash(values)
    except TypeError:  # a SolveDiagnostics field is mutable, so unhashable
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected
    assert repr(x) == f"{name}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"

    # frozen: no field can be assigned or deleted
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(x, names[0], values[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(x, names[0])
    assert tuple(getattr(x, n) for n in names) == values

    # asdict keys in field order; pickling round-trips at every protocol
    assert list(dataclasses.asdict(x)) == names
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        y = pickle.loads(pickle.dumps(x, protocol))
        assert type(y) is cls and y == x
