"""Benchmark of the minconic solvers, end to end and by layer.

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 28 --trace 0

Runs from the root of a checkout with no install and no PYTHONPATH: the
package is imported from the `src/` directory beside this one, and the run
exits with code 2 when it is not there. One process, one thread and one
caller in a closed loop.

Set-up makes the workload's inputs from the seed and one untimed warm-up
pass over them. `setup_s` is the median of `SETUPS` set-ups: the one whose
inputs are then timed, and further ones run between passes across the run.

The timed loop makes whole passes over the inputs until `--seconds` have
gone. Only the call is timed; its output is checked right after it. An
input fails when any of its calls fails a check, so the failure count is
the same for a seed however many passes a run makes.

A shared machine switches between speeds up to 2x apart, in spells from a
tenth of a second to minutes. So a fixed reference loop runs between every
`CHUNK` calls, and each call's time is scaled by how much slower than
nominal the reference ran on either side of its chunk: the times then read
as on a machine running at the reference speed throughout. Each input's time
is the median of its scaled calls over the passes; throughput is units done
per summed time, and the latency percentiles are over the inputs' times.
Set-up times are scaled the same way, by reference runs around each set-up.

With `--trace 0` the run prints the end-to-end metrics, the failure share
with its base and, where the inputs fall into families, each family's
median latency. With `--trace 1` it alternates untraced and traced passes,
prints the per-layer metrics from the spans and the cost of tracing, and
writes the spans to `perfbench/out/`. An environment line follows the
metrics, and the last line is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
#: timed calls between two runs of the reference loop: some milliseconds,
#: shorter than most spells of one machine speed
CHUNK = 64
#: the reference loop's time, in ns, on the machine speed that reported
#: times are scaled to
REFERENCE_NS = 300_000
#: share of failed units above which the run reports `correct: false`; the
#: known defects of the seed program stay below it and are counted, not hidden
FAIL_CEILING = 0.02
#: the backend the baseline was measured with; others are flagged
BASELINE_BACKEND = "python"


def load_program():
    """Import minconic from this checkout's `src/`, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import minconic
    except ImportError as exc:
        print(f"error: cannot import minconic from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(minconic.__file__).resolve().is_relative_to(src):
        print(f"error: minconic was imported from {minconic.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return minconic


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(minconic, seed: int) -> dict:
    import numpy

    return {
        "backend": minconic.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
    }


#: per-layer metric -> the spans it sums: calls per configuration for the
#: `calls_per_cfg` metrics, best self time per configuration (or per file)
#: for the others. Metrics of the `_kernels` layer are named `kernels.*`
#: because metric names start with a letter.
LAYER_METRICS = {
    "conics.split_line_pair.calls_per_cfg": ("conics.split_line_pair",),
    "conics.split_line_pair.self_us_per_cfg": ("conics.split_line_pair",),
    "conics.intersect_conic_pencil.self_us_per_cfg": ("conics.intersect_conic_pencil",),
    "conics.pencil_eigenvalues.self_us_per_cfg": ("conics.pencil_eigenvalues",),
    "conics.residuals.calls_per_cfg": ("conics.point_residual", "conics.tangency_residual"),
    "conics.residuals.self_us_per_cfg": ("conics.point_residual", "conics.tangency_residual"),
    "solvers.classify_3p2l_case.calls_per_cfg": ("solvers.classify_3p2l_case",),
    "solvers.classify_3p2l_case.self_us_per_cfg": ("solvers.classify_3p2l_case",),
    "solvers.predict.self_us_per_cfg": (
        "solvers.predict",
        "solvers.predict_count_4p1l",
        "solvers.predict_count_3p2l",
    ),
    "solvers.solve.self_us_per_cfg": (
        "solvers.solve",
        "solvers.solve_five_points",
        "solvers.solve_four_points_line",
        "solvers.solve_three_points_two_lines",
        "solvers.solve_dual",
    ),
    "kernels.diag_triangle.calls_per_cfg": ("_kernels.diag_triangle",),
    "kernels.diag_triangle.self_us_per_cfg": ("_kernels.diag_triangle",),
    "kernels.conic_from_pencil.calls_per_cfg": ("_kernels.conic_from_pencil",),
    "kernels.conic_from_five_points.self_us_per_cfg": ("_kernels.conic_from_five_points",),
    "selfpolar.require_no_collinear_triple.self_us_per_cfg": (
        "selfpolar.require_no_collinear_triple",
    ),
    "oracle.certify.self_us_per_cfg": ("oracle.certify",),
    "cli.load_config.self_us_per_file": ("cli.load_config",),
    "cli.cmd_batch.self_us_per_file": ("cli.cmd_batch",),
}


def one_pass(wl, lat: array, worst: list[int], tracer=None, ref: array | None = None) -> int:
    """Run every operation once, appending call times and keeping in
    `worst[i]` the most units input i failed in any call; return the units
    failed in this pass. With `ref`, the reference loop runs before every
    `CHUNK` calls and after the last, and its times are appended to `ref`."""
    op, check, clock = wl.op, wl.check, time.perf_counter_ns
    failed = 0
    for i in range(wl.n):
        if ref is not None and i % CHUNK == 0:
            ref.append(time_reference())
        if tracer is not None:
            tracer.cfg_id += 1
        t0 = clock()
        out = op(i)
        lat.append(clock() - t0)
        bad = check(i, out)
        if bad > worst[i]:
            worst[i] = bad
        failed += bad
    if ref is not None:
        ref.append(time_reference())
    return failed


def judged(wl, worst: list[int]) -> tuple[int, int]:
    """(attempted, failed) units over the distinct inputs: an input's failed
    units are the most it failed in any call or in the workload's final
    checks, so both numbers depend on the seed and not on the pass count."""
    final = wl.finish()
    return wl.n * wl.units_per_op, sum(max(a, b) for a, b in zip(worst, final))


def best_times(lat: array, n: int) -> list[int]:
    """Each input's fastest call over the passes (call k served input k % n)."""
    return [min(lat[i::n]) for i in range(n)]


_REFERENCE_CONICS = [
    np.array([[1.0, 0.2 * k, 0.1], [0.2 * k, 2.0, 0.3 - 0.1 * k], [0.1, 0.3 - 0.1 * k, -1.0]])
    for k in range(8)
]


def reference() -> float:
    """Fixed work of the kind the solvers do, calling nothing in the package:
    eigenvalues of small symmetric matrices in numpy, and Python float
    arithmetic on them. When a shared machine slows down, this loop slows by
    about as much as the solvers do: closer than a pure-Python loop or a
    memory walk does."""
    acc = 0.0
    for _ in range(5):
        for m in _REFERENCE_CONICS:
            w = np.linalg.eigvalsh(m)
            acc += math.sqrt(float(np.abs(w).max()) + acc * 1e-9)
    return acc


def time_reference() -> int:
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0


def scaled_setup(setup) -> float:
    """Run `setup()`; return its seconds scaled by the median of three
    reference runs before it and three after it."""
    ref = [time_reference() for _ in range(3)]
    t0 = time.perf_counter()
    setup()
    seconds = time.perf_counter() - t0
    ref += [time_reference() for _ in range(3)]
    return seconds * REFERENCE_NS / statistics.median(ref)


def input_times(n: int, lat: array, ref: array) -> np.ndarray:
    """Each input's median call time, in ns at the reference speed.

    Call k served input k % n, in chunk (k % n) // CHUNK of its pass, and
    `ref` holds per pass one reference time before each chunk and one after
    the last. A call is scaled by the faster of the two reference times on
    either side of its chunk: a reference run that was interrupted then
    does not make its chunk's calls read fast.
    """
    t = np.frombuffer(lat, dtype=np.int64).reshape(-1, n).astype(float)
    r = np.frombuffer(ref, dtype=np.int64).reshape(t.shape[0], -1).astype(float)
    scale = REFERENCE_NS / np.minimum(r[:, :-1], r[:, 1:])
    for c in range(scale.shape[1]):  # in place: the peak memory stays that of one copy
        t[:, c * CHUNK : (c + 1) * CHUNK] *= scale[:, c : c + 1]
    return np.median(t, axis=0, overwrite_input=True)


def end_to_end(wl, seconds: float, first_setup_s: float, setup_again):
    """Timed passes; returns (metrics, extra lines, attempted, failed, calls).

    The further set-ups behind `setup_s` run between passes, spread over the
    run, so that their median samples the machine over the whole run.
    """
    lat, ref = array("q"), array("q")
    worst = [0] * wl.n
    passes = 0
    start = time.perf_counter()
    deadline = start + seconds
    setups = [first_setup_s]
    while not passes or time.perf_counter() < deadline:
        one_pass(wl, lat, worst, ref=ref)
        passes += 1
        if len(setups) < SETUPS and time.perf_counter() - start >= len(setups) * seconds / SETUPS:
            setups.append(setup_again())
    while len(setups) < SETUPS:
        setups.append(setup_again())
    attempted, failed = judged(wl, worst)
    n = wl.n
    times = input_times(n, lat, ref)
    metrics = {
        "throughput_cfg_per_s": (n * wl.units_per_op * 1e9 / float(times.sum()), "cfg/s"),
        "latency_us_p50": (float(np.median(times)) / 1e3, "us"),
        "latency_us_p99": (float(np.quantile(times, 0.99)) / 1e3, "us"),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {
        "samples": f"{len(lat)} calls: {passes} passes over {n} inputs",
        "reference_us": (
            f"median {statistics.median(ref) / 1e3:.6g}, fastest {min(ref) / 1e3:.6g} "
            f"over {len(ref)} runs (nominal {REFERENCE_NS / 1e3:.6g})"
        ),
    }
    family = getattr(wl, "family", None)
    if family is not None:
        for fam in sorted(set(family)):
            vals = times[[f == fam for f in family]]
            extra[f"latency_us_p50.{fam}"] = f"{float(np.median(vals)) / 1e3:.6g} us (n={len(vals)})"
    return metrics, extra, attempted, failed, len(lat)


def per_layer(wl, seconds: float, spans_path: Path) -> tuple[dict, int, int, int]:
    """Alternating untraced and traced passes; per-layer metrics from spans.

    Self times, like the end-to-end times, take each input's smallest value
    over the traced passes; `trace.overhead_share` compares the inputs' best
    traced and untraced call times.
    """
    from spans import Tracer, summarize

    tracer = Tracer()
    plain, traced = array("q"), array("q")
    worst = [0] * wl.n
    traced_passes = 0
    deadline = time.perf_counter() + seconds
    while not traced_passes or time.perf_counter() < deadline:
        one_pass(wl, plain, worst)
        tracer.install()
        try:
            one_pass(wl, traced, worst, tracer)
        finally:
            tracer.uninstall()
        traced_passes += 1
    attempted, failed = judged(wl, worst)
    tracer.write(spans_path)

    counts, best = summarize(tracer, wl.n)
    overhead = sum(best_times(traced, wl.n)) / sum(best_times(plain, wl.n)) - 1.0
    cfgs = wl.n * wl.units_per_op

    m = {}
    for name, span_names in LAYER_METRICS.items():
        if name.endswith(".calls_per_cfg"):
            calls = sum(counts[n] for n in span_names)
            m[name] = (calls / (traced_passes * cfgs), "calls/cfg")
        else:
            unit = "us/file" if name.endswith("_per_file") else "us/cfg"
            m[name] = (sum(best[n] for n in span_names) / 1e3 / cfgs, unit)
    outcomes = wl.outcomes()
    m["solvers.predict.survivor_share"] = (sum(s for s, _ in outcomes) / len(outcomes), "ratio")
    m["solvers.reject_share"] = (sum(r for _, r in outcomes) / len(outcomes), "ratio")
    m["trace.overhead_share"] = (overhead, "ratio")
    return m, attempted, failed, len(plain) + len(traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    minconic = load_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env = environment(minconic, args.seed)

    built = []

    def setup():
        """Build the workload from the seed into `built`."""
        built.append(build(args.workload, args.seed, OUT / f"work_{os.getpid()}_{len(built)}"))

    def setup_again() -> float:
        seconds = scaled_setup(setup)
        built.pop().close()
        return seconds

    for _ in range(3):  # warm-up of the reference loop
        time_reference()
    first_setup_s = scaled_setup(setup)
    wl = built[0]
    try:
        if args.trace:
            spans = OUT / f"spans_{args.workload}_seed{args.seed}.npz"
            metrics, attempted, failed, calls = per_layer(wl, args.seconds, spans)
            extra = {"spans": os.path.relpath(spans, ROOT)}
        else:
            metrics, extra, attempted, failed, calls = end_to_end(
                wl, args.seconds, first_setup_s, setup_again
            )
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
    finally:
        wl.close()

    share = failed / attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_share {share:.6g} ({failed}/{attempted} inputs, {calls} calls checked)")
    for name, value in extra.items():
        print(f"{name} {value}")
    print("env " + json.dumps(env, sort_keys=True))
    if env["backend"] != BASELINE_BACKEND:
        print(
            f"warning: backend {env['backend']!r} differs from the baseline's "
            f"{BASELINE_BACKEND!r}; do not compare these figures with it"
        )
    result = {
        "correct": share <= FAIL_CEILING,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
