"""The four benchmark workloads: inputs made from a seed, one operation, one check.

Every workload is a closed loop with one caller. An operation is one call
into the public API; for `cli_batch` it is the `minconic batch` command,
`cli.cmd_batch`, over one directory. It gets parsed arguments, since argument
parsing is paid once per process, and prints its report into memory, since
rewriting a report file measured mostly the host's file-system journal.

`op(i)` is the only code inside the timed interval. `check(i, out)` runs
right after it, outside that interval, and returns how many of the
operation's units failed. `finish()` runs after the timed loop and returns,
per input, the units failed in checks too costly to run per call.

Failures are counted, never filtered: the generators are the package's own
margin-sampled ones, and whatever they produce at a seed is what is timed and
checked.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import shutil
from pathlib import Path

from minconic import cli, oracle, solvers
from minconic.errors import (
    DegenerateCase,
    DegenerateParameter,
    GeneralPositionError,
    MinconicError,
    PointAtInfinity,
    UnsupportedCount,
)
from minconic.projective import HomogeneousPoint, ProjectiveLine

#: corpus categories of `solve_mix` and `certify_mix`, equal shares, and the
#: family each reports its latency under
CATEGORIES = {
    "5p": "5p",
    "4p1l": "4p1l",
    "3p2l_c1": "3p2l_c1-4",
    "3p2l_c2": "3p2l_c1-4",
    "3p2l_c3": "3p2l_c1-4",
    "3p2l_c4": "3p2l_c1-4",
    "3p2l_c5": "3p2l_c5",
    "5l": "dual",
    "1p4l": "dual",
    "2p3l": "dual",
}


def _vecs(items) -> list[tuple[float, float, float]]:
    return [x.vec() for x in items]


def one_of_each(rng: random.Random, k: int):
    """One (category, points, lines) triple per category, from the oracle
    generators. The dual families are duals of generated primal inputs, and
    the `2p3l` input is of 3-point/2-line case 1 + k % 5."""
    out = [("5p", oracle.random_five_points(rng), [])]
    pts, line = oracle.random_4p1l(rng)
    out.append(("4p1l", pts, [line]))
    for case in range(1, 6):
        pts, l1, l2 = oracle.random_3p2l_case(rng, case)
        out.append((f"3p2l_c{case}", pts, [l1, l2]))
    out.append(("5l", *oracle.dualize_input(oracle.random_five_points(rng), [])))
    pts, line = oracle.random_4p1l(rng)
    out.append(("1p4l", *oracle.dualize_input(pts, [line])))
    pts, l1, l2 = oracle.random_3p2l_case(rng, 1 + k % 5)
    out.append(("2p3l", *oracle.dualize_input(pts, [l1, l2])))
    return out


def mixed_corpus(rng: random.Random, per_category: int):
    """`per_category` inputs of every category, shuffled."""
    out = [item for k in range(per_category) for item in one_of_each(rng, k)]
    rng.shuffle(out)
    return out


def _caught(exc: Exception) -> Exception:
    """The exception without tracebacks: kept as an output, a traceback would
    keep the frames that raised it, and the workload they hold, alive."""
    e = exc
    while e is not None:
        e.__traceback__ = None
        e = e.__cause__ or e.__context__
    return exc


def _solve(points, lines):
    try:
        return solvers.solve(points, lines)
    except Exception as exc:  # every outcome is returned and judged by check()
        return _caught(exc)


def _same(a, b) -> bool:
    """Outputs of two calls on the same input agree exactly."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return (
        a.case_label == b.case_label
        and a.complex_count == b.complex_count
        and a.real_conics == b.real_conics
    )


def _outcome(out) -> tuple[bool, bool]:
    """(survivor, rejected): a real conic predicted, or a MinconicError."""
    if isinstance(out, MinconicError):
        return False, True
    if isinstance(out, Exception):
        return False, False
    return out.diagnostics.prediction.predicted_real > 0, False


class Workload:
    """Defaults of the interface described at the top of this module."""

    units_per_op = 1

    def finish(self) -> list[int]:
        return [0] * self.n

    def close(self) -> None:
        pass


class SolveMix(Workload):
    """`solve()` over a shuffled mix of every family on the clean corpus."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.n = len(corpus)
        self.family = [CATEGORIES[c] for c, _, _ in self.corpus]
        self.ref = [_solve(p, l) for _, p, l in self.corpus]

    def op(self, i):
        _, points, lines = self.corpus[i]
        return _solve(points, lines)

    def check(self, i, out) -> int:
        return 0 if _same(out, self.ref[i]) else 1

    def finish(self) -> list[int]:
        """An input fails when its reference output is an exception other
        than a MinconicError or is not certified."""
        return [
            0
            if isinstance(ref, MinconicError)
            else int(isinstance(ref, Exception) or not oracle.certify(points, lines, ref).ok)
            for (_, points, lines), ref in zip(self.corpus, self.ref)
        ]

    def outcomes(self):
        return [_outcome(r) for r in self.ref]


class CertifyMix(SolveMix):
    """`solve()` then `oracle.certify()`: the `minconic check` path."""

    def op(self, i):
        _, points, lines = self.corpus[i]
        sol = _solve(points, lines)
        if isinstance(sol, Exception):
            return sol
        try:
            return oracle.certify(points, lines, sol)
        except Exception as exc:
            return _caught(exc)

    def check(self, i, out) -> int:
        if isinstance(out, MinconicError):
            return 0
        if isinstance(out, Exception):
            return 1
        return 0 if out.ok else 1

    finish = Workload.finish


# ---------------------------------------------------------------------------
# RANSAC pre-filter over noisy scenes


def _ellipse_point(c, t):
    cx, cy, a, b, th = c
    x, y = a * math.cos(t), b * math.sin(t)
    return (
        cx + x * math.cos(th) - y * math.sin(th),
        cy + x * math.sin(th) + y * math.cos(th),
    )


def noisy_scene(rng: random.Random, n_points: int, n_lines: int, outliers: float, noise: float):
    """Points near an ellipse and lines near its tangents, with outliers.

    A share `outliers` of the points and of the lines is replaced by uniform
    random ones; the rest carry Gaussian noise of `noise` times the ellipse
    size on positions and on tangent directions.
    """
    c = (
        rng.uniform(-3, 3),
        rng.uniform(-3, 3),
        rng.uniform(3, 7),
        rng.uniform(1.5, 4),
        rng.uniform(0, math.pi),
    )
    size = c[2]
    points = []
    for k in range(n_points):
        if k < round(outliers * n_points):
            x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
        else:
            x, y = _ellipse_point(c, rng.uniform(0, 2 * math.pi))
            x += rng.gauss(0, noise * size)
            y += rng.gauss(0, noise * size)
        points.append(HomogeneousPoint(x, y, 1.0))
    lines = []
    for k in range(n_lines):
        if k < round(outliers * n_lines):
            u = (rng.uniform(-10, 10), rng.uniform(-10, 10), 1.0)
            v = (rng.uniform(-10, 10), rng.uniform(-10, 10), 1.0)
        else:
            t = rng.uniform(0, 2 * math.pi)
            x, y = _ellipse_point(c, t)
            _, _, a, b, th = c
            ang = th + math.atan2(b * math.cos(t), -a * math.sin(t)) + rng.gauss(0, noise)
            x += rng.gauss(0, noise * size)
            y += rng.gauss(0, noise * size)
            u = (x, y, 1.0)
            v = (x + math.cos(ang), y + math.sin(ang), 1.0)
        lines.append(
            ProjectiveLine(
                u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]
            )
        )
    rng.shuffle(points)
    rng.shuffle(lines)
    return points, lines


#: share of scene points and of scene lines that are outliers
OUTLIERS = 0.25
#: noise on inlier positions (times the ellipse size) and tangent angles
NOISE = 0.01


def ransac_samples(rng: random.Random, scenes: int, per_scene: int):
    """Raw minimal samples of noisy scenes, alternating 4p1l and 3p2l, with
    no margin rejection: ((points, lines), family) pairs."""
    out = []
    for _ in range(scenes):
        points, lines = noisy_scene(rng, 12, 8, OUTLIERS, NOISE)
        for k in range(per_scene):
            n_lines = 1 + k % 2
            sample = (rng.sample(points, 5 - n_lines), rng.sample(lines, n_lines))
            out.append((sample, ("4p1l", "3p2l")[n_lines - 1]))
    return out


class RansacPrefilter(Workload):
    """`predict()` on raw minimal samples, `solve()` only on predicted-real ones."""

    def __init__(self, samples):
        self.samples = [s for s, _ in samples]
        self.family = [f for _, f in samples]
        self.n = len(self.samples)
        self.ref = [self.op(i) for i in range(self.n)]

    def op(self, i):
        points, lines = self.samples[i]
        try:
            pred = solvers.predict(points, lines)
        except Exception as exc:
            return _caught(exc), None
        if pred.predicted_real == 0:
            return pred, None
        return pred, _solve(points, lines)

    def check(self, i, out) -> int:
        pred, sol = out
        if isinstance(pred, MinconicError):
            return 0  # a rejected raw sample, not a failure
        if isinstance(pred, Exception) or isinstance(sol, Exception):
            return 1
        if sol is not None and sol.real_count != pred.predicted_real:
            return 1
        ref_pred, ref_sol = self.ref[i]
        same = type(pred) is type(ref_pred) and (sol is None) == (ref_sol is None)
        return 0 if same and (sol is None or _same(sol, ref_sol)) else 1

    def outcomes(self):
        out = []
        for pred, sol in self.ref:
            rejected = isinstance(pred, MinconicError)
            out.append((sol is not None and not rejected, rejected))
        return out


# ---------------------------------------------------------------------------
# in-process `minconic batch` over a directory of JSON configurations


SPECIAL_KINDS = ("5p_collinear", "4p1l_side", "3p2l_crossing", "3p2l_coincident")


def special_position(rng: random.Random, kind: str):
    """An input in special position that the solvers must refuse."""
    if kind == "5p_collinear":
        pts = oracle.random_five_points(rng)
        p0, p1 = pts[0], pts[1]
        u = rng.uniform(-2.0, 2.0)
        pts[2] = HomogeneousPoint(p0.x + u * (p1.x - p0.x), p0.y + u * (p1.y - p0.y), 1.0)
        return pts, []
    if kind == "4p1l_side":
        pts, _ = oracle.random_4p1l(rng)
        return pts, [ProjectiveLine.through(pts[0], pts[1])]
    pts, l1, l2 = oracle.random_3p2l_case(rng, 5)
    if kind == "3p2l_crossing":
        a, b = l1.vec(), l2.vec()
        x = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        pts[0] = HomogeneousPoint(x[0] / x[2], x[1] / x[2], 1.0)
        return pts, [l1, l2]
    return pts, [l1, ProjectiveLine(*(2.0 * v for v in l1.vec()))]


#: exit code per error class, as documented for the command line
EXIT_CODES = (
    (UnsupportedCount, 4),
    ((GeneralPositionError, PointAtInfinity, DegenerateCase, DegenerateParameter), 3),
)


def expected_row(name: str, out) -> tuple[str, int]:
    """The report row and exit code a direct API call implies for one file."""
    if isinstance(out, Exception):
        code = next((c for cls, c in EXIT_CODES if isinstance(out, cls)), 1)
        return f"{name}: error[{code}] {out}", code
    return (
        f"{name}: ok case={out.case_label} real={out.real_count} "
        f"complex={out.complex_count}",
        0,
    )


def cli_inputs(rng: random.Random, rounds: int, special: int):
    """`rounds` times one input of each corpus category plus `special`
    inputs in special position, shuffled, as one-input directories of
    (kind, points, lines)."""
    inputs = []
    for r in range(rounds):
        inputs += one_of_each(rng, r)
        for j in range(special):
            kind = SPECIAL_KINDS[(r * special + j) % len(SPECIAL_KINDS)]
            inputs.append((kind, *special_position(rng, kind)))
    rng.shuffle(inputs)
    return [[x] for x in inputs]


class CliBatch(Workload):
    """`minconic batch <dir>` in process, one directory per call, with the
    report that the command prints captured in memory.

    A call is as short as a solve when its directory holds one file, which
    keeps its fastest time over the passes steady on a machine whose speed
    drifts, and a run then has enough calls for a 99th percentile.

    Set-up writes each directory's inputs as JSON files and derives the
    report rows and exit code the command must produce from direct API calls.
    """

    def __init__(self, dirs, workdir: Path):
        self.units_per_op = len(dirs[0])
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        self.args = []
        self.expected = []
        self.refs = []
        for d, inputs in enumerate(dirs):
            ddir = workdir / f"d{d:04d}"
            ddir.mkdir(parents=True)
            rows, worst = [], 0
            for k, (kind, points, lines) in enumerate(inputs):
                name = f"{k:02d}_{kind}.json"
                doc = {"points": _vecs(points), "lines": _vecs(lines)}
                (ddir / name).write_text(json.dumps(doc))
                ref = _solve(points, lines)
                self.refs.append(ref)
                row, code = expected_row(name, ref)
                rows.append(row)
                worst = max(worst, code)
            self.args.append(argparse.Namespace(directory=str(ddir), tolerance=None, out=None))
            self.expected.append(("\n".join(rows) + "\n", worst))
        self.n = len(dirs)
        for i in range(self.n):  # warm-up pass
            self.op(i)

    def op(self, i):
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = cli.cmd_batch(self.args[i])
        return code, report.getvalue()

    def check(self, i, out) -> int:
        code, report = out
        want_report, want_code = self.expected[i]
        if code != want_code:
            return self.units_per_op
        got, want = report.splitlines(), want_report.splitlines()
        return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))

    def outcomes(self):
        return [_outcome(r) for r in self.refs]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = ("solve_mix", "ransac_prefilter", "certify_mix", "cli_batch")


def build(name: str, seed: int, workdir: Path):
    """Make a workload's inputs from the seed and set it up."""
    rng = random.Random(seed)
    if name == "solve_mix":
        return SolveMix(mixed_corpus(rng, per_category=200))
    if name == "certify_mix":
        return CertifyMix(mixed_corpus(rng, per_category=200))
    if name == "ransac_prefilter":
        return RansacPrefilter(ransac_samples(rng, scenes=40, per_scene=50))
    if name == "cli_batch":
        return CliBatch(cli_inputs(rng, rounds=84, special=2), workdir)
    raise ValueError(f"unknown workload {name!r}")
