"""Span tracing of minconic's layers without editing the package.

The traced run replaces each layer's public functions, as attributes of the
modules that look them up at call time, with wrappers that record a span:
name, start, end, parent span and the id of the configuration being served.
Spans stay in memory as parallel arrays and are written out at the end of
the run.

Calls inside the kernel backend module itself (the pure-Python backend's
`conic_from_five_points` calling its own `diag_triangle`) are not spans:
only calls that cross into the `_kernels` package are, so the counts mean
the same thing whichever backend is loaded.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: layer module -> public functions wrapped as spans named "<layer>.<function>"
LAYERS = {
    "solvers": (
        "solve",
        "predict",
        "solve_five_points",
        "solve_four_points_line",
        "solve_three_points_two_lines",
        "solve_dual",
        "predict_count_4p1l",
        "predict_count_3p2l",
        "classify_3p2l_case",
    ),
    "conics": (
        "pencil_eigenvalues",
        "intersect_conic_pencil",
        "split_line_pair",
        "point_residual",
        "tangency_residual",
    ),
    "selfpolar": ("require_no_collinear_triple",),
    "_kernels": (
        "diag_triangle",
        "conic_from_pencil",
        "conic_from_five_points",
        "sym_adjugate",
    ),
    "oracle": ("certify",),
    "cli": ("load_config", "cmd_batch"),
}

#: modules whose attributes are patched: the package and its layer modules,
#: not the kernel backend modules behind `minconic._kernels`
NAMESPACES = (
    "minconic",
    "minconic.projective",
    "minconic.conics",
    "minconic.selfpolar",
    "minconic.solvers",
    "minconic.oracle",
    "minconic.cli",
    "minconic.plotting",
    "minconic._kernels",
)


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    Span i has name id `name[i]` (an index into `names`), parent span index
    `parent[i]` (-1 at top level), configuration id `cfg[i]` and
    perf_counter_ns timestamps `start[i]`, `end[i]`.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.cfg = array("i")
        self.start = array("q")
        self.end = array("q")
        self.cfg_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, span_name: str, fn):
        """`fn` wrapped to record one span named `span_name` per call."""
        nid = len(self.names)
        self.names.append(span_name)
        name, parent, cfg = self.name, self.parent, self.cfg
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            cfg.append(tracer.cfg_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every layer function in every namespace that holds it.

        The wrappers are built on the first call; later calls re-apply them,
        so a run can switch tracing on and off between passes.
        """
        if not self._patches:
            modules = [sys.modules[m] for m in NAMESPACES]
            for layer, funcs in LAYERS.items():
                home = sys.modules[f"minconic.{layer}"]
                for fname in funcs:
                    orig = getattr(home, fname)
                    wrapper = self.wrap(f"{layer}.{fname}", orig)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                self._patches.append((mod, attr, orig, wrapper))
        for mod, attr, _orig, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _wrapper in self._patches:
            setattr(mod, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "cfg": np.frombuffer(self.cfg, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so children of a span never overlap each
    other and lie inside their parent.
    """
    dur = (end - start).astype(np.float64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered


def summarize(tracer: Tracer, n: int) -> tuple[dict[str, int], dict[str, float]]:
    """Per span name: the call count, and the self time in ns summed over the
    n inputs of a pass, taking each input's smallest value over the traced
    passes.

    Configuration ids run 1, 2, ... over whole traced passes, so id k served
    input (k - 1) % n.
    """
    a = tracer.arrays()
    own = self_times(a["parent"], a["start"], a["end"])
    names = len(tracer.names)
    passes = -(-int(a["cfg"].max(initial=0)) // n)
    calls = np.bincount(a["name"], minlength=names)
    slot = a["name"].astype(np.int64) * passes * n + (a["cfg"] - 1)
    per = np.bincount(slot, weights=own, minlength=names * passes * n)
    best = per.reshape(names, passes, n).min(axis=1).sum(axis=1)
    return (
        {tracer.names[i]: int(calls[i]) for i in range(names)},
        {tracer.names[i]: float(best[i]) for i in range(names)},
    )
