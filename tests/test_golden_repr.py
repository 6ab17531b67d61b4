"""Golden outcomes: a sha256 per block of inputs.

A block names its inputs and the functions whose outcomes it records: each
input gives one line per function, the repr of its outcome; an error is
written as its type, message and indices. golden_repr.tsv holds, per block,
the line count, the sha256 of the lines and the sha256 of the inputs' reprs,
so a change to the generators shows as a changed corpus and not as changed
outputs. The blocks:

- `solve` and `predict`:
  - `mixed_<form>_<seed>`: perfbench's solve_mix corpus, `mixed_corpus`
    at seeds 1-3 with 100 inputs per category, as HomogeneousPoint and
    ProjectiveLine objects and as float tuples;
  - `ransac_<seed>`: `ransac_samples(Random(seed), 20, 50)` at seeds 1-3;
  - `fixtures`: every file of tests/fixtures, as its JSON numbers, as float
    tuples and as objects, at geometry tolerances 1e-10, 0 and 1e-3;
  - `elements`, `fault_pairs` and `counts`: the faulty and unusual reads of
    tests/test_reader.py;
- the kernels, on the kinds of triple of tests/test_kernels.py:
  - `diag_triangle_<kind>`: `_k.diag_vertices` and `_k.diag_triangle`;
  - `conic_from_pencil_<kind>`: `_k.conic_from_pencil`;
  - `conic_from_five_points_<kind>`: `_k.conic_from_five_points`;
- the analyses and builders, on the inputs of tests/test_analyses.py:
  - `analyse_<family>_<kind>`: `solvers._analyse_5p`, `_analyse_4p1l` and
    `_analyse_3p2l`;
  - `classify_3p2l_<kind>`: `solvers._classify_3p2l`;
  - `pencil_eigenvalues_<kind>`: `conics._pencil_eigenvalues`;
  - `solve_<family>_<kind>`: `solvers._solve`, as drawn and dualized;
- `certify_<corpus>`: `oracle.certify` of the `solve` outcome, every check's
  name, verdict, magnitude and limit and the checks not judged, on the
  `mixed_objects` and `ransac` corpora; an input that `solve` refuses
  records its error;
- `generators_rejecting`: `test_oracle.margin_draw`, what each of the
  oracle's seven generators returns (or its RuntimeError) and the rng's
  final state, at seeds 1-20, at oracle.MARGIN 1e7 and 3e8, with
  `_point_on_line` as it is and failing on 40% of its calls: the margin
  rejection paths, which the default margin almost never runs.

The kernel, analysis and builder inputs are built with the live
`_k.cross`, `_k.dot3`, `_k.norm3` and `_k.diag_vertices`, so a change to
those can also show as changed inputs. Every block needs only the standard
library. An intended output change rewrites the file with

    PYTHONPATH=src python tests/test_golden_repr.py

and the change log names each block that changed.
"""
import hashlib
import json
import random
import sys
from functools import partial
from pathlib import Path

import pytest

import minconic._kernels as _k
from minconic import HomogeneousPoint, ProjectiveLine, Tolerances, oracle, predict, solve, solvers
from minconic.conics import _pencil_eigenvalues

from conftest import benchmark_workloads
import test_analyses as analyses
import test_kernels as kernels
import test_oracle as generators
from test_reader import ELEMENTS, fault_pairs, placed, wrong_counts

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_repr.tsv"
SEEDS = (1, 2, 3)
TOLERANCES = (Tolerances(), Tolerances(0.0), Tolerances(1e-3))


def as_tuples(items):
    return [x.vec() for x in items]


def mixed(seed, form):
    for _, points, lines in benchmark_workloads().mixed_corpus(random.Random(seed), 100):
        if form == "tuples":
            points, lines = as_tuples(points), as_tuples(lines)
        yield points, lines, Tolerances()


def ransac(seed):
    for (points, lines), _ in benchmark_workloads().ransac_samples(random.Random(seed), 20, 50):
        yield points, lines, Tolerances()


def fixtures():
    for path in sorted((HERE / "fixtures").glob("*/*.json")):
        doc = json.loads(path.read_text())
        numbers = [p if len(p) == 3 else p + [1] for p in doc["points"]], doc["lines"]
        floats = [[tuple(float(x) for x in v) for v in seq] for seq in numbers]
        objects = [HomogeneousPoint(*v) for v in floats[0]], [ProjectiveLine(*v) for v in floats[1]]
        for points, lines in (numbers, floats, objects):
            for tol in TOLERANCES:
                yield points, lines, tol


def elements():
    for name in sorted(ELEMENTS):
        for points, lines in placed(ELEMENTS[name]):
            yield points, lines, Tolerances()


def certify(points, lines, tol):
    """The oracle's certificate of the solution set that solve returns."""
    return oracle.certify(points, lines, solve(points, lines, tol), tol)


def slug(kind):
    return kind.replace(", ", "_").replace(" ", "_")


SOLVE_PREDICT = (solve, predict)

#: block name -> (the functions recorded, a function of no arguments that
#: yields the argument tuples they are called with)
BLOCKS = {f"mixed_{form}_{seed}": (SOLVE_PREDICT, partial(mixed, seed, form))
          for form in ("objects", "tuples") for seed in SEEDS}
BLOCKS.update({f"ransac_{seed}": (SOLVE_PREDICT, partial(ransac, seed)) for seed in SEEDS})
BLOCKS["fixtures"] = SOLVE_PREDICT, fixtures
BLOCKS["elements"] = SOLVE_PREDICT, elements
BLOCKS["fault_pairs"] = SOLVE_PREDICT, lambda: ((p, l, Tolerances()) for p, l in fault_pairs())
BLOCKS["counts"] = SOLVE_PREDICT, lambda: ((p, l, Tolerances()) for p, l in wrong_counts())
for kind in kernels.KINDS:
    BLOCKS[f"diag_triangle_{slug(kind)}"] = (
        (_k.diag_vertices, _k.diag_triangle), lambda kind=kind: kernels.triples(kind, 1, 4)[0])
for kind in kernels.KINDS:
    BLOCKS[f"conic_from_pencil_{slug(kind)}"] = (
        (_k.conic_from_pencil,), partial(kernels.pencil_inputs, kind))
for kind in kernels.KINDS:
    BLOCKS[f"conic_from_five_points_{slug(kind)}"] = (
        (_k.conic_from_five_points,), lambda kind=kind: kernels.triples(kind, 3, 5)[0])
for family, (analyse, *_) in analyses.FAMILIES.items():
    for kind in analyses.KINDS:
        BLOCKS[f"analyse_{family}_{slug(kind)}"] = (
            (analyse,), partial(analyses.inputs, family, kind, 1))
for kind in analyses.KINDS:
    BLOCKS[f"classify_3p2l_{slug(kind)}"] = (
        (solvers._classify_3p2l,), partial(analyses.classify_inputs, kind))
for kind in analyses.KINDS:
    BLOCKS[f"pencil_eigenvalues_{slug(kind)}"] = (
        (_pencil_eigenvalues,), partial(analyses.near_ties, kind))
for family in analyses.FAMILIES:
    for kind in analyses.KINDS:
        BLOCKS[f"solve_{family}_{slug(kind)}"] = (
            (solvers._solve,), partial(analyses.cases, family, kind, 4))
BLOCKS.update({f"certify_mixed_objects_{seed}": ((certify,), partial(mixed, seed, "objects"))
               for seed in SEEDS})
BLOCKS.update({f"certify_ransac_{seed}": ((certify,), partial(ransac, seed)) for seed in SEEDS})
BLOCKS["generators_rejecting"] = (generators.margin_draw,), generators.margin_draws


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the error is the outcome recorded
        return repr((type(exc).__name__, str(exc), getattr(exc, "indices", None)))


def digest(name):
    """(line count, sha256 of the outcome lines, sha256 of the inputs)."""
    functions, draw = BLOCKS[name]
    outputs, inputs = hashlib.sha256(), hashlib.sha256()
    count = 0
    for args in draw():
        inputs.update((" ".join(map(repr, args)) + "\n").encode())
        for fn in functions:
            outputs.update(f"{fn.__name__}: {outcome(fn, *args)}\n".encode())
            count += 1
    return count, outputs.hexdigest(), inputs.hexdigest()


def golden():
    rows = (line.split("\t") for line in GOLDEN.read_text().splitlines())
    return {name: (int(count), out, inp) for name, count, out, inp in rows}


def test_golden_file_lists_every_block():
    assert list(golden()) == list(BLOCKS)


@pytest.mark.parametrize("name", list(BLOCKS))
def test_block_matches_golden(name):
    count, out, inp = digest(name)
    want_count, want_out, want_inp = golden()[name]
    names = "/".join(fn.__name__ for fn in BLOCKS[name][0])
    assert (count, inp) == (want_count, want_inp), f"block {name}: the inputs changed"
    assert out == want_out, f"block {name}: the {names} outcomes changed"


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{name}\t{count}\t{out}\t{inp}\n"
                              for name in BLOCKS for count, out, inp in [digest(name)]))
    print(f"wrote {len(BLOCKS)} blocks to {GOLDEN}", file=sys.stderr)
