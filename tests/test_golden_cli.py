"""Golden CLI reports: the exit code and the sha256 of every fixture's report.

Each row of golden_cli.tsv is one `minconic` call, its exit code and the
sha256 of its stdout, a NUL byte, then its stderr. The calls are `solve` and
`predict` (text and JSON), `check` and `plot` on every file of
tests/fixtures, and `batch` on every fixture directory, run in tests/fixtures
on relative paths.

An intended report change rewrites the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and the change log names each row that changed.
"""
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import pytest

from minconic import cli

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).with_name("golden_cli.tsv")


def calls():
    """Every golden call, as the argv after `minconic`, in a fixed order."""
    dirs = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())
    out = []
    for d in dirs:
        for f in sorted(p.name for p in (FIXTURES / d).glob("*.json")):
            path = f"{d}/{f}"
            for command in ("solve", "predict"):
                out.append([command, path])
                out.append([command, path, "--format", "json"])
            out.append(["check", path])
            out.append(["plot", path])
    out += [["batch", d] for d in dirs]
    return out


def run(argv):
    """The exit code, stdout and stderr of `minconic argv` in tests/fixtures."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def entry(code, out, err):
    """A golden row's value: the exit code and the report's sha256."""
    digest = hashlib.sha256(out.encode() + b"\0" + err.encode()).hexdigest()
    return f"{code}\t{digest}"


def golden():
    rows = GOLDEN.read_text().splitlines()
    return dict(r.split("\t", 1) for r in rows)


def test_golden_file_lists_every_call():
    assert sorted(golden()) == sorted(" ".join(argv) for argv in calls())


@pytest.mark.parametrize("argv", calls(), ids=" ".join)
def test_report_matches_golden(argv):
    key = " ".join(argv)
    want = golden().get(key)
    code, out, err = run(argv)
    got = entry(code, out, err)
    if got != want:
        pytest.fail(
            f"minconic {key}: exit/sha256 {got!r}, golden {want!r}\n"
            f"exit code {code}\n--- stdout ---\n{out}--- stderr ---\n{err}"
        )


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{' '.join(argv)}\t{entry(*run(argv))}\n" for argv in calls()))
    print(f"wrote {len(calls())} rows to {GOLDEN}", file=sys.stderr)
