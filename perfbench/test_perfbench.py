"""Self-tests of the benchmark: metric names, a live correctness gate, exact
counts and the self-time arithmetic.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from minconic import cli, solvers  # noqa: E402
from minconic.conics import ConicMatrix  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(name, seed, workdir):
    """The workload with a handful of inputs in place of thousands."""
    rng = random.Random(seed)
    if name == "solve_mix":
        return workloads.SolveMix(workloads.mixed_corpus(rng, 2))
    if name == "certify_mix":
        return workloads.CertifyMix(workloads.mixed_corpus(rng, 2))
    if name == "ransac_prefilter":
        return workloads.RansacPrefilter(workloads.ransac_samples(rng, 2, 10))
    return workloads.CliBatch(workloads.cli_inputs(rng, 1, 2), workdir)


def corrupted(sol):
    """The solution set with its first conic moved off the solution."""
    if isinstance(sol, Exception) or not sol.real_conics:
        return sol
    first = ConicMatrix(*(v + 0.25 for v in sol.real_conics[0].sym6()))
    return dataclasses.replace(sol, real_conics=(first,) + sol.real_conics[1:])


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_named_metric(name, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "build", lambda n, seed, workdir: small(n, seed, workdir))
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in declared:
        assert f"\n{m['name']} " in "\n" + out
    assert "fail_share " in out and '"backend": ' in out
    if name in ("solve_mix", "certify_mix") and not trace:
        for fam in set(workloads.CATEGORIES.values()):
            assert f"latency_us_p50.{fam} " in out


@pytest.mark.parametrize("name", ["solve_mix", "certify_mix", "ransac_prefilter"])
def test_corrupted_conics_are_counted(name, monkeypatch, tmp_path):
    wl = small(name, 5, tmp_path)
    lat, worst = run.array("q"), [0] * wl.n
    clean = run.one_pass(wl, lat, worst)
    orig = solvers.solve
    monkeypatch.setattr(solvers, "solve", lambda p, l: corrupted(orig(p, l)))
    failed = run.one_pass(wl, lat, worst)
    assert failed > clean
    assert run.judged(wl, worst)[1] > clean


def test_corrupted_report_rows_are_counted(monkeypatch, tmp_path):
    wl = small("cli_batch", 5, tmp_path)
    lat, worst = run.array("q"), [0] * wl.n
    assert run.one_pass(wl, lat, worst) == 0
    orig = cli.solve
    monkeypatch.setattr(
        cli, "solve", lambda p, l, tol: dataclasses.replace(s := orig(p, l, tol), complex_count=9)
    )
    ok_files = sum(not isinstance(r, Exception) for r in wl.refs)
    assert run.one_pass(wl, lat, worst) == ok_files
    assert run.judged(wl, worst) == (wl.n, ok_files)
    wl.close()


def test_failure_count_does_not_grow_with_passes(monkeypatch):
    wl = small("solve_mix", 5, None)
    orig = solvers.solve
    monkeypatch.setattr(solvers, "solve", lambda p, l: corrupted(orig(p, l)))
    lat, once, thrice = run.array("q"), [0] * wl.n, [0] * wl.n
    run.one_pass(wl, lat, once)
    for _ in range(3):
        run.one_pass(wl, lat, thrice)
    assert run.judged(wl, once) == run.judged(wl, thrice)
    assert 0 < run.judged(wl, once)[1] <= wl.n


def test_kept_errors_hold_no_frames():
    points, lines = workloads.special_position(random.Random(2), "3p2l_crossing")
    exc = workloads._solve(points, lines)
    assert isinstance(exc, workloads.MinconicError)
    while exc is not None:
        assert exc.__traceback__ is None
        exc = exc.__cause__ or exc.__context__


def test_call_times_are_scaled_by_the_reference_around_their_chunk(monkeypatch):
    monkeypatch.setattr(run, "CHUNK", 2)
    # three inputs in chunks [0, 1] and [2]: three reference runs a pass; the
    # second pass runs at half speed, and its middle reference run was cut into
    lat = run.array("q", [100, 200, 300, 200, 400, 600])
    ref = run.array("q", [10, 10, 10, 20, 50, 20])
    unit = run.REFERENCE_NS / 10
    assert run.input_times(3, lat, ref).tolist() == [100 * unit, 200 * unit, 300 * unit]


def test_self_time_of_nested_spans():
    # a: 0..100 holds b: 10..30 and c: 40..90; c holds d: 50..60
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0, 10, 40, 50])
    end = np.array([100, 30, 90, 60])
    assert spans.self_times(parent, start, end).tolist() == [30.0, 20.0, 40.0, 10.0]


def test_summary_takes_each_inputs_best_self_time():
    tracer = spans.Tracer()
    tracer.names += ["outer", "inner"]
    rows = [  # (name, parent, cfg, start, end): two passes over two inputs
        (0, -1, 1, 0, 100), (1, 0, 1, 10, 30),  # input 0: outer 80, inner 20
        (0, -1, 2, 100, 150), (1, 2, 2, 110, 120),  # input 1: outer 40, inner 10
        (0, -1, 3, 200, 260), (1, 4, 3, 210, 250),  # input 0: outer 20, inner 40
        (0, -1, 4, 300, 400), (1, 6, 4, 310, 315),  # input 1: outer 95, inner 5
    ]
    for row in rows:
        for column, value in zip((tracer.name, tracer.parent, tracer.cfg, tracer.start, tracer.end), row):
            column.append(value)
    counts, best = spans.summarize(tracer, 2)
    assert counts == {"outer": 4, "inner": 4}
    assert best == {"outer": 20 + 40, "inner": 20 + 5}


def test_tracer_records_parents_and_configuration():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    tracer.cfg_id = 7
    assert outer(1) == 4
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name"]] == ["outer", "inner", "inner"]
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["cfg"].tolist() == [7, 7, 7]
    own = spans.self_times(a["parent"], a["start"], a["end"])
    assert own.sum() == a["end"][0] - a["start"][0]
    assert (own >= 0).all()


def test_tracer_uninstall_restores_the_package():
    tracer = spans.Tracer()
    before = (solvers.solve, cli.solve, solvers.intersect_conic_pencil)
    tracer.install()
    assert solvers.solve is not before[0] and cli.solve is solvers.solve
    tracer.uninstall()
    assert (solvers.solve, cli.solve, solvers.intersect_conic_pencil) == before


def counts(metrics):
    return {k: v for k, (v, _) in metrics.items() if k.endswith(".calls_per_cfg")}


def test_call_counts_repeat_exactly_for_a_seed(tmp_path):
    first = counts(run.per_layer(small("solve_mix", 9, None), 0, tmp_path / "a.npz")[0])
    again = counts(run.per_layer(small("solve_mix", 9, None), 0.2, tmp_path / "b.npz")[0])
    assert first == again
    assert first["solvers.classify_3p2l_case.calls_per_cfg"] > 0


def test_seed_call_counts_per_family(tmp_path):
    rng = random.Random(4)
    corpus = workloads.mixed_corpus(rng, 3)
    only = lambda *cats: workloads.SolveMix([c for c in corpus if c[0] in cats])  # noqa: E731
    m3 = counts(run.per_layer(only("3p2l_c1", "3p2l_c5"), 0, tmp_path / "a.npz")[0])
    assert m3["solvers.classify_3p2l_case.calls_per_cfg"] == 2.0
    m4 = counts(run.per_layer(only("4p1l"), 0, tmp_path / "b.npz")[0])
    assert m4["kernels.diag_triangle.calls_per_cfg"] == 2.0


def checkout_copy(dest, with_src=True):
    """A directory laid out like a checkout: the benchmark and, optionally,
    the package sources."""
    for path in BENCH["paths"]:
        shutil.copytree(
            run.ROOT / path,
            dest / path,
            ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
        )
    shutil.copy(run.ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(run.ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def bench_command(cwd, workload="solve_mix"):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, *BENCH["command"][1:]]
    cmd += ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def test_runs_from_a_clean_checkout_without_pythonpath(tmp_path):
    checkout_copy(tmp_path)
    proc = bench_command(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc.stdout)["attempted"] >= 1
    assert not (tmp_path / "perfbench" / "out").exists() or not any(
        p.name.startswith("work_") for p in (tmp_path / "perfbench" / "out").iterdir()
    )


def test_fails_without_the_program(tmp_path):
    checkout_copy(tmp_path, with_src=False)
    proc = bench_command(tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
