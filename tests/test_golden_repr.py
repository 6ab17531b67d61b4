"""Golden `solve` and `predict` outcomes: a sha256 per block of inputs.

Each input gives two lines, the repr of its `solve` outcome and of its
`predict` outcome; an error is written as its type, message and indices.
golden_repr.tsv holds, per block, the line count, the sha256 of the lines
and the sha256 of the inputs' reprs, so a change to the generators shows as
a changed corpus and not as changed outputs. The blocks:

- `mixed_<form>_<seed>`: perfbench's solve_mix corpus, `mixed_corpus`
  at seeds 1-3 with 100 inputs per category, as HomogeneousPoint and
  ProjectiveLine objects and as float tuples;
- `ransac_<seed>`: `ransac_samples(Random(seed), 20, 50)` at seeds 1-3;
- `fixtures`: every file of tests/fixtures, as its JSON numbers, as float
  tuples and as objects, at geometry tolerances 1e-10, 0 and 1e-3;
- `elements`, `fault_pairs` and `counts`: the faulty and unusual reads of
  tests/test_reader.py.

The `mixed` and `ransac` blocks draw their inputs with the oracle's
generators, and `minconic.oracle` imports numpy, so they skip without it;
the other blocks need only the standard library. An intended output change
rewrites the file with

    PYTHONPATH=src python tests/test_golden_repr.py

and the change log names each block that changed.
"""
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from minconic import HomogeneousPoint, ProjectiveLine, Tolerances, predict, solve

from test_reader import ELEMENTS, fault_pairs, placed, wrong_counts

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_repr.tsv"
SEEDS = (1, 2, 3)
TOLERANCES = (Tolerances(), Tolerances(0.0), Tolerances(1e-3))


def workloads():
    """perfbench/workloads.py, loaded by path: the benchmark's corpora."""
    path = HERE.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def as_tuples(items):
    return [x.vec() for x in items]


def mixed(seed, form):
    for _, points, lines in workloads().mixed_corpus(random.Random(seed), 100):
        if form == "tuples":
            points, lines = as_tuples(points), as_tuples(lines)
        yield points, lines, Tolerances()


def ransac(seed):
    for (points, lines), _ in workloads().ransac_samples(random.Random(seed), 20, 50):
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


#: block name -> a function of no arguments yielding (points, lines, tol)
BLOCKS = {f"mixed_{form}_{seed}": (lambda s=seed, f=form: mixed(s, f))
          for form in ("objects", "tuples") for seed in SEEDS}
BLOCKS.update({f"ransac_{seed}": (lambda s=seed: ransac(s)) for seed in SEEDS})
BLOCKS["fixtures"] = fixtures
BLOCKS["elements"] = elements
BLOCKS["fault_pairs"] = lambda: ((p, l, Tolerances()) for p, l in fault_pairs())
BLOCKS["counts"] = lambda: ((p, l, Tolerances()) for p, l in wrong_counts())

#: blocks whose inputs come from the oracle's generators
NEEDS_NUMPY = {name for name in BLOCKS if name.startswith(("mixed", "ransac"))}


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the error is the outcome recorded
        return repr((type(exc).__name__, str(exc), getattr(exc, "indices", None)))


def digest(name):
    """(line count, sha256 of the outcome lines, sha256 of the inputs)."""
    outputs, inputs = hashlib.sha256(), hashlib.sha256()
    count = 0
    for points, lines, tol in BLOCKS[name]():
        inputs.update(f"{points!r} {lines!r} {tol!r}\n".encode())
        for fn in (solve, predict):
            outputs.update(f"{fn.__name__}: {outcome(fn, points, lines, tol)}\n".encode())
            count += 1
    return count, outputs.hexdigest(), inputs.hexdigest()


def golden():
    rows = (line.split("\t") for line in GOLDEN.read_text().splitlines())
    return {name: (int(count), out, inp) for name, count, out, inp in rows}


def test_golden_file_lists_every_block():
    assert list(golden()) == list(BLOCKS)


@pytest.mark.parametrize("name", list(BLOCKS))
def test_block_matches_golden(name):
    if name in NEEDS_NUMPY:
        pytest.importorskip("numpy")
    count, out, inp = digest(name)
    want_count, want_out, want_inp = golden()[name]
    assert (count, inp) == (want_count, want_inp), f"block {name}: the inputs changed"
    assert out == want_out, f"block {name}: the solve/predict outcomes changed"


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{name}\t{count}\t{out}\t{inp}\n"
                              for name in BLOCKS for count, out, inp in [digest(name)]))
    print(f"wrote {len(BLOCKS)} blocks to {GOLDEN}", file=sys.stderr)
