"""Command-line interface: formats, exit codes, batch isolation."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import minconic
from minconic import cli

from conftest import FIXTURES, NEAR_TIE_LINES, NEAR_TIE_POINTS, gallery_names, load_gallery_case


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


@pytest.mark.parametrize("name", gallery_names())
def test_solve_reports_the_public_functions_residuals(name, capsys):
    # the report's residuals are the worst point_residual and
    # tangency_residual of the solved conics, printed as every report float
    points, lines, _ = load_gallery_case(name)
    sol = minconic.solve(points, lines)
    pin = max((minconic.point_residual(c, p) for c in sol for p in points), default=0.0)
    tan = max((minconic.tangency_residual(c, l) for c in sol for l in lines), default=0.0)
    path = str(FIXTURES / "gallery" / f"{name}.json")
    assert cli.main(["solve", path]) == 0
    text = capsys.readouterr().out
    assert f"residuals: max incidence={cli._g(pin)} max tangency={cli._g(tan)}\n" in text
    assert cli.main(["solve", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residuals"] == {"max_incidence": float(cli._g(pin)), "max_tangency": float(cli._g(tan))}


@pytest.mark.parametrize("name", gallery_names())
def test_text_report_prints_the_json_reports_numbers(name, capsys):
    # each number of the text report is _g of the JSON report's number: a
    # 15-digit float read back rounds to the same 15 digits
    path = str(FIXTURES / "gallery" / f"{name}.json")
    assert cli.main(["solve", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert cli.main(["solve", path]) == 0
    text = capsys.readouterr().out
    g, gs = cli._g, lambda xs: ", ".join(map(cli._g, xs))
    want = []
    if "discriminant" in doc:
        want.append(f"discriminant: {g(doc['discriminant'])}")
    if "pencil_eigenvalues" in doc:
        want.append(f"pencil eigenvalues: {gs(doc['pencil_eigenvalues'])}")
    for c in doc["conics"]:
        want.append(f"  six-vector: [{gs(c['six_vector'])}]")
        if "s" in c:
            want.append(f"  s={g(c['s'])} t={'-' if c['t'] is None else g(c['t'])}")
    res = doc["residuals"]
    want.append(f"residuals: max incidence={g(res['max_incidence'])} max tangency={g(res['max_tangency'])}")
    keys = ("discriminant:", "pencil eigenvalues:", "  six-vector:", "  s=", "residuals:")
    assert [row for row in text.splitlines() if row.startswith(keys)] == want


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


@pytest.mark.parametrize(
    "name, judged",
    [("3p2l_case1", False), ("4p1l_generic_real_a", True)],
)
def test_check_names_the_checks_it_did_not_judge(name, judged, capsys):
    # a special-position input's count is not judged: one line says so,
    # before the result, and the exit code is that of the checks run
    assert cli.main(["check", str(FIXTURES / "gallery" / f"{name}.json")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1] == "result: all checks passed"
    if judged:
        assert "pass count-consistency: 2 (limit 2)" in rows
        assert not any(row.startswith("not judged") for row in rows)
    else:
        assert rows[-2] == "not judged count-consistency"
        assert not any("count-consistency:" in row for row in rows)


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
    "command, payload, flags, message",
    [
        ("solve", {**SQUARE_TANGENT, "lines": [[1, 1]]}, [], "lines[0] must be [a, b, c]"),
        ("solve", {**SQUARE_TANGENT, "options": [1]}, [], "options must be an object"),
        ("plot", SQUARE_TANGENT, ["--viewport=0,0,1"], "viewport must be xmin,ymin,xmax,ymax"),
        ("plot", {**SQUARE_TANGENT, "options": {"viewport": [0, 0, 1]}}, [],
         "viewport must be a list of four numbers"),
    ],
    ids=["line", "options", "viewport-flag", "viewport-option"],
)
def test_malformed_config_parts_exit_2_with_one_error_line(tmp_path, capsys, command, payload, flags, message):
    cfg = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "fig.svg"
    assert cli.main([command, cfg, *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


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


@pytest.mark.parametrize("source", ["flag", "options"])
@pytest.mark.parametrize("viewport", [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
def test_viewport_of_no_extent_exits_2(tmp_path, capsys, source, viewport):
    # the plot's screen transform raised a bare ValueError, a traceback
    # and exit 1
    if source == "flag":
        cfg = write_config(tmp_path / "sq.json", SQUARE_TANGENT)
        args = ["--viewport=" + ",".join(map(str, viewport))]
    else:
        cfg = write_config(tmp_path / "sq.json", {**SQUARE_TANGENT, "options": {"viewport": viewport}})
        args = []
    assert cli.main(["plot", cfg, *args, "--out", str(tmp_path / "fig.svg")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: viewport must have xmax > xmin and ymax > ymin, got ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "fig.svg").exists()


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


UNDERFLOW = FIXTURES / "underflow"


@pytest.mark.parametrize("name", sorted(p.name for p in UNDERFLOW.glob("*.json")))
def test_underflowing_divisor_exits_3_without_traceback(capsys, name):
    # 5p_square_1e-40: SQUARE_FIFTH_POINT scaled by 1e-40, whose five-point
    # fit's divisor underflows to 0.0; 3p2l_incidence_underflow: a generic
    # input whose pencil-eigenvalue divisor a1*b1 underflows to 0.0. solve
    # names each as a degenerate case (exit 3) instead of dividing by it, and
    # so does predict where the divisor is the analysis's; the five-point fit
    # is the builder's, so predict answers that input
    path = UNDERFLOW / name
    expected = json.loads(path.read_text())["expected"]["error"]
    assert cli.main(["solve", str(path)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {expected}\n")
    if name.startswith("5p"):
        assert cli.main(["predict", str(path)]) == 0
        capsys.readouterr()
    else:
        assert cli.main(["predict", str(path)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {expected}\n")


def test_batch_reports_every_underflowing_divisor_with_exit_3(capsys):
    # one error[3] row per file, in batch's order, and nothing else: not an
    # unexpected error[1], a duplicated row or a stray line
    names = sorted(p.name for p in UNDERFLOW.iterdir() if p.name.endswith(".json"))
    rows = "".join(
        f"{name}: error[3] {json.loads((UNDERFLOW / name).read_text())['expected']['error']}\n"
        for name in names
    )
    assert len(names) >= 2
    assert cli.main(["batch", str(UNDERFLOW)]) == 3
    assert capsys.readouterr().out == rows


def test_non_finite_input_exits_nonzero_without_traceback(tmp_path, capsys):
    # json.dumps writes inf, -inf and nan as the JSON extension literals
    # Infinity, -Infinity and NaN; each is a parse error with one error line,
    # in a point and in a line
    for x, literal in ((math.inf, "Infinity"), (-math.inf, "-Infinity"), (math.nan, "NaN")):
        for cfg in (
            {"points": [[0, 0], [4, x], [1, 3]], "lines": [[1, 0, 5], [0, 1, 2]]},
            {"points": [[0, 0], [4, 1], [1, 3]], "lines": [[1, 0, 5], [0, 1, x]]},
        ):
            path = write_config(tmp_path / "non_finite.json", cfg)
            assert f", {literal}]" in Path(path).read_text()
            assert cli.main(["solve", path]) == 2
            assert capsys.readouterr().err == f"error: expected a finite number, got {x!r}\n"


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


#: five points, the third nudged 1e-8 off the line through the first two
NUDGED_FIVE = [[-1, -1], [1, -1], [0, -1 + 1e-8], [1, 1], [-1, 2]]


def test_tolerance_option_reaches_the_collinearity_decision(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"points": NUDGED_FIVE})
    assert cli.main(["solve", cfg]) == 0
    loose = write_config(
        tmp_path / "loose.json", {"points": NUDGED_FIVE, "options": {"tolerance": 1e-6}}
    )
    assert cli.main(["solve", loose]) == 3
    assert "points 0, 1, 2 are collinear" in capsys.readouterr().err


def test_tolerance_flag_overrides_the_tolerance_option(tmp_path):
    loose = write_config(
        tmp_path / "loose.json", {"points": NUDGED_FIVE, "options": {"tolerance": 1e-6}}
    )
    assert cli.main(["solve", loose, "--tolerance", "1e-10"]) == 0
    tight = write_config(
        tmp_path / "tight.json", {"points": NUDGED_FIVE, "options": {"tolerance": 1e-10}}
    )
    assert cli.main(["solve", tight, "--tolerance", "1e-6"]) == 3


@pytest.mark.parametrize("source", ["flag", "option"])
@pytest.mark.parametrize("command", ["solve", "predict", "check", "plot"])
def test_negative_tolerance_exits_2_without_traceback(tmp_path, capsys, command, source):
    # a negative tolerance fires no band test: the collinear fixture used to
    # solve to a line pair that check then failed
    special = FIXTURES / "special" / "5p_collinear.json"
    if source == "flag":
        args = [command, str(special), "--tolerance=-1"]
    else:
        doc = {**json.loads(special.read_text()), "options": {"tolerance": -1}}
        args = [command, write_config(tmp_path / "neg.json", doc)]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the geometry tolerance must be a finite number >= 0, got -1.0\n"
    )


def test_batch_reports_a_negative_tolerance_option_as_one_parse_error(tmp_path, capsys):
    d = tmp_path / "cfgs"
    d.mkdir()
    write_config(d / "a_good.json", SQUARE_TANGENT)
    write_config(d / "b_negative.json", {**SQUARE_TANGENT, "options": {"tolerance": -1e-10}})
    assert cli.main(["batch", str(d)]) == 2
    assert capsys.readouterr().out == (
        "a_good.json: ok case=4p1l/generic real=2 complex=0\n"
        "b_negative.json: error[2] the geometry tolerance must be a finite number >= 0, "
        "got -1e-10\n"
    )
    # the flag is refused once, before any file is read, not once per file
    assert cli.main(["batch", str(d), "--tolerance=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the geometry tolerance must be a finite number >= 0, got -1.0\n"


@pytest.mark.parametrize("command", ["check", "plot"])
def test_format_is_an_option_of_solve_and_predict_only(square_cfg, capsys, command):
    # check and plot have one output form each; --format is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main([command, square_cfg, "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


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
    # the package needs only the standard library: every command runs on
    # every gallery file with numpy unimportable
    gallery = FIXTURES / "gallery"
    script = f"""
import os, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
sys.path.insert(0, {str(Path(minconic.__file__).parents[1])!r})
from minconic import cli
from pathlib import Path
for f in sorted(Path({str(gallery)!r}).glob("*.json")):
    for command in ("solve", "predict", "check", "plot"):
        assert cli.main([command, str(f), "--out", os.devnull]) == 0, (command, f.name)
assert cli.main(["batch", {str(gallery)!r}, "--out", os.devnull]) == 0
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _undecodable(path):
    path.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark, not UTF-8 text


def _nested_too_deeply(path):
    path.write_text("[" * 100_000 + "]" * 100_000)


def _integer_beyond_float(path):
    path.write_text(json.dumps({"points": [[10**400, 1], [0, 1], [1, 0], [2, 2], [3, 5]]}))


def _integer_too_long(path):
    # beyond the decoder's 4,300-digit limit for integers, where it has one
    path.write_text('{"points": [[' + "1" * 5000 + ", 1], [0, 1], [1, 0], [2, 2], [3, 5]]}")


UNREADABLE_AS_CONFIGS = {
    "undecodable.json": _undecodable,
    "nested.json": _nested_too_deeply,
    "bigint.json": _integer_beyond_float,
    "longint.json": _integer_too_long,
}


@pytest.fixture()
def unreadable_dir(tmp_path):
    d = tmp_path / "unreadable"
    d.mkdir()
    for name, write in UNREADABLE_AS_CONFIGS.items():
        write(d / name)
    return d


@pytest.mark.parametrize("command", ["solve", "predict", "check", "plot"])
def test_undecodable_deep_or_huge_input_exits_2_without_traceback(unreadable_dir, capsys, command):
    # each input used to escape load_config as a bare exception: a decode
    # error, a RecursionError from the JSON decoder, an OverflowError from a
    # 401-digit integer coordinate and the decoder's ValueError for an
    # integer too long to convert
    for name in UNREADABLE_AS_CONFIGS:
        assert cli.main([command, str(unreadable_dir / name)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1, name
        assert "Traceback" not in captured.err


def test_batch_reports_undecodable_deep_or_huge_input_as_parse_errors(unreadable_dir, capsys):
    assert cli.main(["batch", str(unreadable_dir)]) == 2
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(": ", 1)[0] for row in rows] == sorted(UNREADABLE_AS_CONFIGS)
    assert all(row.split(": ", 1)[1].startswith("error[2] ") for row in rows)
    assert rows[0] == "bigint.json: error[2] expected a finite number, got an integer beyond the float range"


OK_ROW = "ok case=4p1l/generic real=2 complex=0"


def test_batch_lists_every_name_ending_in_json(tmp_path, capsys):
    # as Path.glob("*.json") did: dotfiles and directories are listed, the
    # match is case-sensitive and whole-suffix, and names sort as strings
    d = tmp_path / "d"
    d.mkdir()
    for name in (".hidden.json", "B.json", "a.json"):
        write_config(d / name, SQUARE_TANGENT)
    (d / "sub.json").mkdir()
    (d / "X.JSON").write_text("{oops")
    (d / "x.json.bak").write_text("{oops")
    assert cli.main(["batch", str(d)]) == 2
    rows = capsys.readouterr().out.splitlines()
    assert rows[:3] == [f".hidden.json: {OK_ROW}", f"B.json: {OK_ROW}", f"a.json: {OK_ROW}"]
    assert rows[3].startswith(f"sub.json: error[2] cannot read {d / 'sub.json'}: ")
    assert len(rows) == 4


def _text_mode_reference(path):
    """load_config's outcome as a text-mode read gives it: the config, or the
    ParseError message. The payloads that decode are well-formed configs."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read {path}: {exc}"
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        return f"{path}: invalid JSON: {exc}"
    if not isinstance(doc, dict):
        return f"{path}: top level must be an object"
    return {
        "points": [(float(x), float(y), float(w[0]) if w else 1.0) for x, y, *w in doc.get("points", [])],
        "lines": [tuple(map(float, line)) for line in doc.get("lines", [])],
        "options": doc.get("options", {}),
    }


SQUARE_TEXT = '{\n "points": [[1, 1], [-1, 1], [-1, -1], [1, -1]],\n "lines": [[1, 1, -3]]\n}\n'

READER_PAYLOADS = {
    "utf8_bom": b"\xef\xbb\xbf" + SQUARE_TEXT.encode(),
    "lf_non_ascii": SQUARE_TEXT.replace("\n}", ',\n "options": {"note": "\u00e9\u20ac"}\n}').encode(),
    "crlf_valid": SQUARE_TEXT.replace("\n", "\r\n").encode(),
    "crlf_invalid": SQUARE_TEXT.replace("\n", "\r\n").replace("[1, 1, -3]", "[1, 1, oops]").encode(),
    "lone_cr_invalid": SQUARE_TEXT.replace("\n", "\r").replace("[1, 1, -3]", "[1, 1, oops]").encode(),
    "cr_in_string": b'{\r\n "points": [],\r\n "options": {"note": "a\rb"}\r\n}',
    "utf16_bom": b"\xff\xfe{}",
    "invalid_utf8_mid_file": b'{"points": [], "options": {"note": "\x80"}, "lines": []}',
    "multibyte_cut_at_eof": b'{"options": {"note": "\xe2\x82',
    "empty": b"",
}


@pytest.mark.parametrize("case", [*READER_PAYLOADS, "directory", "missing"])
def test_the_reader_gives_what_a_text_mode_read_gives(tmp_path, case):
    # load_config reads bytes unbuffered and decodes them itself; its config
    # or its error message is the one a text-mode read would lead to
    path = tmp_path / "x.json"
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        path.write_bytes(READER_PAYLOADS[case])
    want = _text_mode_reference(str(path))
    try:
        got = cli.load_config(str(path))
    except cli.ParseError as exc:
        got = str(exc)
    assert got == want
    if case == "crlf_valid":
        assert got["lines"] == [(1.0, 1.0, -3.0)]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["", "/", "//", "///"]),
    st.lists(st.sampled_from(["", ".", "..", "a", "b.json"]), max_size=8),
)
def test_the_batch_directory_is_spelled_as_pathlib_spells_it(lead, segments):
    directory = lead + "/".join(segments)
    assert cli._posix_dir(directory) == str(Path(directory))


@pytest.mark.parametrize(
    "given, cwd, shown",
    [
        ("d", "parent", "d/"),
        ("d/", "parent", "d/"),
        ("d//", "parent", "d/"),
        ("./d", "parent", "d/"),
        (".", "d", ""),
        ("absolute", None, "absolute/"),
    ],
)
def test_batch_names_each_file_by_its_path_under_the_given_directory(
    tmp_path, capsys, monkeypatch, given, cwd, shown
):
    d = tmp_path / "d"
    d.mkdir()
    write_config(d / "a.json", SQUARE_TANGENT)
    (d / "b.json").write_text("[]")
    if cwd is not None:
        monkeypatch.chdir(tmp_path if cwd == "parent" else d)
    if given == "absolute":
        given, shown = str(d), f"{d}/"
    assert cli.main(["batch", given]) == 2
    assert capsys.readouterr().out == (
        f"a.json: {OK_ROW}\nb.json: error[2] {shown}b.json: top level must be an object\n"
    )


def test_batch_refuses_a_missing_path_or_a_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "sq.json", SQUARE_TANGENT)
    for target in (str(tmp_path / "missing"), cfg):
        assert cli.main(["batch", target]) == 2
        assert capsys.readouterr().err == f"error: {target} is not a directory\n"


def test_batch_refuses_an_empty_or_unlistable_directory(tmp_path, capsys, monkeypatch):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["batch", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: no .json configurations in {empty}\n"

    d = tmp_path / "d"
    d.mkdir()
    write_config(d / "a.json", SQUARE_TANGENT)
    scandir = os.scandir

    def refuse(path="."):
        # the suite runs as root, so chmod cannot make a directory unlistable
        if os.fspath(path) == str(d):
            raise PermissionError(13, "Permission denied", str(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refuse)
    assert cli.main(["batch", str(d)]) == 2
    assert capsys.readouterr().err == f"error: no .json configurations in {d}\n"
