"""Command-line interface: formats, exit codes, batch isolation."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import minconic
from minconic import cli

from conftest import FIXTURES, NEAR_TIE_LINES, NEAR_TIE_POINTS


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


SQUARE_TANGENT = {
    "points": [[1, 1], [-1, 1], [-1, -1], [1, -1]],
    "lines": [[1, 1, -3]],
}


@pytest.fixture()
def square_cfg(tmp_path):
    return write_config(tmp_path / "sq.json", SQUARE_TANGENT)


def test_solve_text_output(square_cfg, capsys):
    assert cli.main(["solve", square_cfg]) == 0
    out = capsys.readouterr().out
    assert "case: 4p1l/generic" in out
    assert "solutions: 2 real, 0 complex" in out
    assert "prediction: 2 real, 0 complex" in out
    assert out.count("conic[") == 2
    assert "six-vector:" in out
    assert "residuals: max incidence=" in out
    assert "backend:" in out


def test_solve_json_output(square_cfg, capsys):
    assert cli.main(["solve", square_cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "4p1l/generic"
    assert doc["real_count"] == 2
    assert doc["complex_count"] == 0
    assert len(doc["conics"]) == 2
    for entry in doc["conics"]:
        assert len(entry["six_vector"]) == 6
        assert entry["class"] in ("real_ellipse", "hyperbola", "parabola")
    assert doc["residuals"]["max_incidence"] < 1e-9
    assert doc["residuals"]["max_tangency"] < 1e-9
    assert doc["backend"] == minconic.BACKEND == "python"


def test_solve_output_is_byte_stable(square_cfg, capsys):
    cli.main(["solve", square_cfg, "--format", "json"])
    first = capsys.readouterr().out
    cli.main(["solve", square_cfg, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    assert "-0," not in first and "-0]" not in first  # canonical zero


def test_predict_without_solving(square_cfg, capsys):
    assert cli.main(["predict", square_cfg]) == 0
    out = capsys.readouterr().out
    assert "2 real, 0 complex" in out
    assert "orientation/side sign product positive" in out


def test_check_passes_on_good_input(square_cfg, capsys):
    assert cli.main(["check", square_cfg]) == 0
    out = capsys.readouterr().out
    assert "result: all checks passed" in out
    assert "FAIL" not in out


def test_check_exit_code_on_failure(square_cfg, capsys, monkeypatch):
    import minconic.oracle
    from minconic.oracle import Certification, CheckResult

    def fake_certify(points, lines, sol, tol):
        return Certification((CheckResult("incidence[0]", False, 1.0, 1e-9),))

    monkeypatch.setattr(minconic.oracle, "certify", fake_certify)
    assert cli.main(["check", square_cfg]) == 5
    out = capsys.readouterr().out
    assert "FAIL incidence[0]" in out
    assert "CERTIFICATION FAILED" in out


def test_parse_errors_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert cli.main(["solve", str(bad_json)]) == 2

    bad_point = write_config(tmp_path / "pt.json", {"points": [[1]], "lines": []})
    assert cli.main(["solve", bad_point]) == 2

    bad_value = write_config(
        tmp_path / "nan.json",
        {"points": [["nan", 1], [0, 1], [1, 0], [2, 2], [3, 5]], "lines": []},
    )
    assert cli.main(["solve", bad_value]) == 2


@pytest.mark.parametrize(
    "payload",
    [{"points": 5, "lines": []}, {"points": SQUARE_TANGENT["points"], "lines": None}],
    ids=["points", "lines"],
)
def test_points_or_lines_that_are_not_a_list_exit_2(tmp_path, capsys, payload):
    cfg = write_config(tmp_path / "notlist.json", payload)
    assert cli.main(["solve", cfg]) == 2
    err = capsys.readouterr().err
    key = "points" if payload["points"] == 5 else "lines"
    assert err == f"error: {key} must be a list\n"
    # batch reports the file with the parse code, not as an unexpected error
    assert cli.main(["batch", str(tmp_path)]) == 2
    assert capsys.readouterr().out == f"notlist.json: error[2] {key} must be a list\n"


def test_viewport_that_is_not_numbers_exits_2(square_cfg, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert cli.main(["plot", square_cfg, "--viewport=a,b,c,d", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: viewport must be four numbers")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["5p_collinear", "4p1l_side"])
def test_predict_refuses_what_solve_refuses(capsys, name):
    # predict runs solve's analysis, so a special-position input exits 3
    # from both with the same error line instead of a count from predict
    cfg = FIXTURES / "special" / f"{name}.json"
    expected = json.loads(cfg.read_text())["expected"]["error"]
    for command in ("solve", "predict"):
        assert cli.main([command, str(cfg)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {expected}\n")


def test_general_position_exit_3(tmp_path):
    cfg = write_config(
        tmp_path / "gp.json",
        {"points": [[1, 1], [-1, 1], [-1, -1], [1, -1]], "lines": [[1, 0, -1]]},
    )
    assert cli.main(["solve", cfg]) == 3


def test_unsupported_count_exit_4(tmp_path):
    cfg = write_config(tmp_path / "uc.json", {"points": [[1, 1], [2, 0]], "lines": []})
    assert cli.main(["solve", cfg]) == 4


def test_any_solver_error_exits_1_without_traceback(square_cfg, capsys, monkeypatch):
    from minconic.errors import InconsistentPencil

    def failing_solve(points, lines, tol):
        raise InconsistentPencil("third line pair does not pass through a computed intersection")

    monkeypatch.setattr(cli, "solve", failing_solve)
    assert cli.main(["solve", square_cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


SQUARE_FIFTH_POINT = {"points": SQUARE_TANGENT["points"] + [[2, 0.5]]}

#: the gallery's 3p2l_case5_real_b, four real conics at unit scale
CASE5_REAL = {"points": [[0, 0], [-2, 0], [0, -2]], "lines": [[1, 0, -1], [0, 1, -1]]}


@pytest.mark.parametrize(
    "config", [SQUARE_TANGENT, SQUARE_FIFTH_POINT, CASE5_REAL], ids=["4p1l", "5p", "3p2l_c5"]
)
def test_overflowing_input_exits_nonzero_without_traceback(tmp_path, capsys, config):
    # the input with every homogeneous coordinate scaled by 1e40: the README
    # square with its tangent reads as special position, with a fifth point
    # the five-point conic overflows to non-finite entries, and the case-5
    # eliminant's squares overflow to inf, which must end in the same named
    # error and not in an OverflowError
    scaled = {
        "points": [[1e40 * x for x in p + [1]] for p in config["points"]],
        "lines": [[1e40 * x for x in l] for l in config.get("lines", [])],
    }
    assert cli.main(["solve", write_config(tmp_path / "big.json", scaled)]) != 0
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


UNDERFLOW = FIXTURES / "underflow" / "5p_square_1e-40.json"


def test_underflowing_five_point_fit_exits_3_without_traceback(capsys):
    # SQUARE_FIFTH_POINT scaled by 1e-40: the five-point fit's divisor
    # underflows to 0.0, which solve names as a degenerate case (exit 3)
    # instead of dividing by it
    expected = json.loads(UNDERFLOW.read_text())["expected"]["error"]
    assert cli.main(["solve", str(UNDERFLOW)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {expected}\n")
    # and batch reports it with that code, not as an unexpected error[1]
    assert cli.main(["batch", str(UNDERFLOW.parent)]) == 3
    assert capsys.readouterr().out == f"{UNDERFLOW.name}: error[3] {expected}\n"


def test_non_finite_input_exits_nonzero_without_traceback(tmp_path, capsys):
    # json.dumps writes inf as the JSON extension literal Infinity
    cfg = {"points": [[0, 0], [4, 1], [1, 3]], "lines": [[1, 0, 5], [0, 1, float("inf")]]}
    assert cli.main(["solve", write_config(tmp_path / "inf.json", cfg)]) != 0
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_case5_member_that_does_not_split_exits_3_without_traceback(tmp_path, capsys):
    # a near-tie case-5 pencil, with a root inside the rounding band of a
    # degenerate member, is a case degeneracy, reported like any other
    # special position
    cfg = {"points": NEAR_TIE_POINTS, "lines": NEAR_TIE_LINES}
    assert cli.main(["solve", write_config(tmp_path / "tie.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_tolerance_flag_overrides(tmp_path):
    # one corner nudged 1e-8 off y = 1: by default only the exact corner is
    # on the line (one-solution branch); a loose tolerance sees two incident
    # points and rejects the configuration
    cfg = write_config(
        tmp_path / "tl.json",
        {"points": [[1, 1 + 1e-8], [-1, 1], [-1, -1], [1, -1]], "lines": [[0, 1, -1]]},
    )
    assert cli.main(["solve", cfg]) == 0
    assert cli.main(["solve", cfg, "--tolerance", "1e-6"]) == 3


def test_plot_writes_svg(square_cfg, tmp_path):
    out = tmp_path / "fig.svg"
    assert cli.main(["plot", square_cfg, "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert 'class="conic"' in svg
    assert cli.main(["plot", square_cfg, "--viewport=-3,-3,3,3", "--out", str(out)]) == 0


def test_batch_runs_directory_with_isolation(tmp_path, capsys):
    d = tmp_path / "cfgs"
    d.mkdir()
    write_config(d / "a_good.json", SQUARE_TANGENT)
    write_config(
        d / "b_bad.json",
        {"points": [[1, 1], [-1, 1], [-1, -1], [1, -1]], "lines": [[1, 0, -1]]},
    )
    (d / "c_broken.json").write_text("{oops")
    code = cli.main(["batch", str(d)])
    out = capsys.readouterr().out
    assert code == 3  # worst structured failure wins
    assert "a_good.json: ok case=4p1l/generic real=2 complex=0" in out
    assert "b_bad.json: error[3]" in out
    assert "c_broken.json: error[2]" in out


def test_out_flag_writes_file(square_cfg, tmp_path):
    target = tmp_path / "res.json"
    assert cli.main(["solve", square_cfg, "--format", "json", "--out", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert doc["real_count"] == 2


def test_solve_predict_and_batch_run_without_numpy():
    # numpy is the oracle's and the plotter's; solving, predicting and
    # batch reports must not need it
    gallery = FIXTURES / "gallery"
    script = f"""
import os, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
sys.path.insert(0, {str(Path(minconic.__file__).parents[1])!r})
from minconic import cli
from pathlib import Path
for f in sorted(Path({str(gallery)!r}).glob("*.json")):
    for command in ("solve", "predict"):
        assert cli.main([command, str(f), "--out", os.devnull]) == 0, (command, f.name)
assert cli.main(["batch", {str(gallery)!r}, "--out", os.devnull]) == 0
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["check", "plot"])
def test_check_and_plot_without_numpy_exit_1_with_an_error_line(command):
    # numpy is the `check` and `plot` extra: without it the command names
    # the extra on one error line instead of dying in a traceback
    script = f"""
import os, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
sys.path.insert(0, {str(Path(minconic.__file__).parents[1])!r})
from minconic import cli
sys.exit(cli.main([{command!r}, {str(FIXTURES / "gallery" / "4p1l_generic_real_a.json")!r}, "--out", os.devnull]))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == (
        f"error: minconic {command} needs numpy; install it with "
        f"pip install 'minconic[{command}]'\n"
    )
