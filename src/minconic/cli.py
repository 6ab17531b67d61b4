"""Command-line front end: solve, predict, check, plot, and batch.

Configurations are single JSON documents:

    {
      "points": [[x, y], [x, y, w], ...],
      "lines":  [[a, b, c], ...],
      "options": {"tolerance": 1e-10, "format": "text",
                  "viewport": [xmin, ymin, xmax, ymax]}
    }

Reports are byte-stable: fixed field order, floats at 15 significant digits,
no timestamps. Exit codes: 0 ok, 1 any other solver error, 2 parse error,
3 general-position or degeneracy error, 4 unsupported element count,
5 certification failure.
"""
from __future__ import annotations

import argparse
import json
import locale
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import _kernels, plotting
from .conics import classify, point_residual, tangency_residual
from .errors import (
    DegenerateCase,
    GeneralPositionError,
    MinconicError,
    UnsupportedCount,
)
from .solvers import CountPrediction, SolutionSet, predict, solve
from .tolerances import DEFAULT, Tolerances

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GENERAL_POSITION = 3
EXIT_UNSUPPORTED = 4
EXIT_CERTIFICATION = 5


class ParseError(ValueError):
    pass


def _num(x) -> float:
    # the JSON decoder gives every non-integer number as a float; x - x is
    # 0.0 exactly when it is finite (inf - inf and nan - nan are nan)
    if type(x) is float and x - x == 0.0:
        return x
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:
            raise ParseError("expected a finite number, got an integer beyond the float range") from None
        if math.isfinite(value):
            return value
    raise ParseError(f"expected a finite number, got {x!r}")


def _items(doc: dict, key: str) -> list:
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise ParseError(f"{key} must be a list")
    return items


def load_config(path: str) -> dict:
    """The configuration at path: (x, y, w) point and (a, b, c) line tuples of floats, and options."""
    # What text-mode open(path).read() gives, read unbuffered in one call: the
    # bytes decoded with the codec text mode picks, then universal newlines
    # (each \r\n and each lone \r read as \n). The errors are text mode's too.
    try:
        with open(path, "rb", buffering=0) as fh:
            raw = fh.read().decode(locale.getpreferredencoding(False))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if "\r" in raw:
        raw = raw.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an integer too long, nesting too deep
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")

    points = []
    for i, item in enumerate(_items(doc, "points")):
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise ParseError(f"points[{i}] must be [x, y] or [x, y, w]")
        points.append((_num(item[0]), _num(item[1]), _num(item[2]) if len(item) == 3 else 1.0))
    lines = []
    for i, item in enumerate(_items(doc, "lines")):
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError(f"lines[{i}] must be [a, b, c]")
        lines.append((_num(item[0]), _num(item[1]), _num(item[2])))

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("options must be an object")
    return {"points": points, "lines": lines, "options": options}


def _tolerances(options: dict, override: Optional[float]) -> Tolerances:
    tau = override if override is not None else options.get("tolerance")
    try:
        return DEFAULT if tau is None else Tolerances(_num(tau))
    except ValueError as exc:  # _num's ParseError, or a negative tolerance
        raise ParseError(str(exc)) from None


def _g(x: float) -> str:
    if x == 0.0:
        x = 0.0
    return f"{x:.15g}"


def _prediction_dict(pred: CountPrediction) -> dict:
    return {
        "real": pred.predicted_real,
        "complex": pred.predicted_complex,
        "rule": pred.rule,
        "predicate": None if pred.predicate is None else float(_g(pred.predicate)),
    }


def _solution_dict(sol: SolutionSet, cfg: dict) -> dict:
    """The solve report: every float as float(_g(x)), and the worst incidence
    and tangency residuals of sol's conics on the configuration."""
    diag = sol.diagnostics
    pin = tan = 0.0
    conics = []
    for i, cm in enumerate(sol.real_conics):
        pin = max([pin] + [point_residual(cm, p) for p in cfg["points"]])
        tan = max([tan] + [tangency_residual(cm, l) for l in cfg["lines"]])
        entry = {
            "index": i,
            "class": classify(cm).value,
            "six_vector": [float(_g(v)) for v in cm.sym6()],
        }
        if i < len(diag.parameters):
            s, t = diag.parameters[i]
            entry["s"] = float(_g(s))
            entry["t"] = None if math.isnan(t) else float(_g(t))
        conics.append(entry)
    out = {
        "case": sol.case_label,
        "real_count": sol.real_count,
        "complex_count": sol.complex_count,
        "conics": conics,
        "residuals": {"max_incidence": float(_g(pin)), "max_tangency": float(_g(tan))},
        "backend": _kernels.BACKEND,
    }
    if diag.discriminant is not None:
        out["discriminant"] = float(_g(diag.discriminant))
    if diag.eigenvalues is not None:
        out["pencil_eigenvalues"] = [float(_g(v)) for v in diag.eigenvalues]
    if diag.prediction is not None:
        out["prediction"] = _prediction_dict(diag.prediction)
    if diag.double_root:
        out["double_root"] = True
    return out


def _solution_text(rec: dict) -> str:
    # rec holds each float as float(_g(x)); _g(float(_g(x))) == _g(x) for every
    # double, subnormals, inf and NaN included: the double nearest a 15-digit
    # decimal lies no farther from it than x does, so it rounds to the same digits
    rows = [
        f"case: {rec['case']}",
        f"solutions: {rec['real_count']} real, {rec['complex_count']} complex",
    ]
    if "prediction" in rec:
        p = rec["prediction"]
        rows.append(f"prediction: {p['real']} real, {p['complex']} complex ({p['rule']})")
    if "discriminant" in rec:
        rows.append(f"discriminant: {_g(rec['discriminant'])}")
    if "pencil_eigenvalues" in rec:
        rows.append("pencil eigenvalues: " + ", ".join(map(_g, rec["pencil_eigenvalues"])))
    for c in rec["conics"]:
        rows.append(f"conic[{c['index']}]: class={c['class']}")
        rows.append("  six-vector: [" + ", ".join(map(_g, c["six_vector"])) + "]")
        if "s" in c:
            rows.append(f"  s={_g(c['s'])} t={'-' if c['t'] is None else _g(c['t'])}")
    res = rec["residuals"]
    pin, tan = _g(res["max_incidence"]), _g(res["max_tangency"])
    rows.append(f"residuals: max incidence={pin} max tangency={tan}")
    if "double_root" in rec:
        rows.append("note: double root; one conic with multiplicity two")
    rows.append(f"backend: {rec['backend']}")
    return "\n".join(rows) + "\n"


def _prediction_text(rec: dict) -> str:
    return f"prediction: {rec['real']} real, {rec['complex']} complex\nrule: {rec['rule']}\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read(args, run):
    """The configuration at args.config, its tolerances, and run's answer on it."""
    cfg = load_config(args.config)
    tol = _tolerances(cfg["options"], args.tolerance)
    return cfg, tol, run(cfg["points"], cfg["lines"], tol)


def _report(args, options: dict, rec: dict, text) -> int:
    """Print rec as JSON or as text(rec), by --format, else options.format."""
    as_json = (args.format or options.get("format", "text")) == "json"
    _emit(json.dumps(rec, indent=2, sort_keys=True) + "\n" if as_json else text(rec), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg, _, sol = _read(args, solve)
    return _report(args, cfg["options"], _solution_dict(sol, cfg), _solution_text)


def cmd_predict(args) -> int:
    cfg, _, pred = _read(args, predict)
    return _report(args, cfg["options"], _prediction_dict(pred), _prediction_text)


def cmd_check(args) -> int:
    # imported here, the oracle (about 10 ms) loads only for check
    from . import oracle

    cfg, tol, sol = _read(args, solve)
    cert = oracle.certify(cfg["points"], cfg["lines"], sol, tol)
    rows = [f"case: {sol.case_label}"]
    for chk in cert.checks:
        status = "pass" if chk.passed else "FAIL"
        rows.append(f"{status} {chk.name}: {_g(chk.magnitude)} (limit {_g(chk.limit)})")
    rows += [f"not judged {name}" for name in cert.not_judged]
    rows.append("result: " + ("all checks passed" if cert.ok else "CERTIFICATION FAILED"))
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK if cert.ok else EXIT_CERTIFICATION


def _viewport(args, options: dict) -> plotting.Viewport:
    raw = args.viewport or options.get("viewport")
    if raw is None:
        return plotting.DEFAULT_VIEWPORT
    if isinstance(raw, str):
        parts = raw.split(",")
        if len(parts) != 4:
            raise ParseError("viewport must be xmin,ymin,xmax,ymax")
        try:
            floats = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"viewport must be four numbers, got {raw!r}") from None
        vals = [_num(v) for v in floats]
    else:
        if not isinstance(raw, list) or len(raw) != 4:
            raise ParseError("viewport must be a list of four numbers")
        vals = [_num(v) for v in raw]
    if not (vals[2] > vals[0] and vals[3] > vals[1]):
        raise ParseError(f"viewport must have xmax > xmin and ymax > ymin, got {raw!r}")
    return (vals[0], vals[1], vals[2], vals[3])


def cmd_plot(args) -> int:
    cfg, _, sol = _read(args, solve)
    viewport = _viewport(args, cfg["options"])
    _emit(plotting.render_svg(cfg["points"], cfg["lines"], sol.real_conics, viewport), args.out)
    return EXIT_OK


def _posix_dir(path: str) -> str:
    """str(Path(path)) on POSIX, by string operations: a leading "/" kept, or
    exactly two kept as "//", empty and "." segments dropped, "" read as "."."""
    root = "//" if path[:2] == "//" and path[2:3] != "/" else "/" if path[:1] == "/" else ""
    return root + "/".join([part for part in path.split("/") if part and part != "."]) or "."


def cmd_batch(args) -> int:
    # the flag is checked once, for every file; a file's options.tolerance
    # is checked with that file
    flag = None if args.tolerance is None else _tolerances({}, args.tolerance)
    # Every entry whose name ends in .json, files or not, sorted by name: what
    # Path.glob("*.json") listed. Each path is the directory as _posix_dir
    # spells it, a "/" unless it ends in one, and the name; "." gives the name.
    root = _posix_dir(args.directory)
    try:
        with os.scandir(root) as entries:
            names = sorted(e.name for e in entries if e.name.endswith(".json"))
    except (OSError, ValueError):
        if not os.path.isdir(root):
            raise ParseError(f"{args.directory} is not a directory") from None
        names = []  # a directory that cannot be listed holds no configurations
    if not names:
        raise ParseError(f"no .json configurations in {args.directory}")
    prefix = "" if root == "." else root if root[-1] == "/" else root + "/"
    worst = EXIT_OK
    rows = []
    for name in names:
        try:
            cfg = load_config(prefix + name)
            tol = flag if flag is not None else _tolerances(cfg["options"], None)
            sol = solve(cfg["points"], cfg["lines"], tol)
            rows.append(
                f"{name}: ok case={sol.case_label} real={sol.real_count} "
                f"complex={sol.complex_count}"
            )
        except Exception as exc:  # per-file isolation; the run continues
            code = _exit_code_for(exc)
            worst = max(worst, code)
            rows.append(f"{name}: error[{code}] {exc}")
    _emit("\n".join(rows) + "\n", args.out)
    return worst


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, UnsupportedCount):
        return EXIT_UNSUPPORTED
    if isinstance(exc, (GeneralPositionError, DegenerateCase)):
        return EXIT_GENERAL_POSITION
    return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="minconic",
        description="Closed-form conic solvers for minimal point/line configurations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="JSON configuration file")
        p.add_argument("--tolerance", type=float, default=None, help="geometric predicate tolerance")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("solve", help="solve a configuration for its conics")
    common(p)
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("predict", help="predict real/complex counts from sign tests")
    common(p)
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("check", help="solve and certify against the oracle")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("plot", help="render the configuration and solutions as SVG")
    common(p)
    p.add_argument("--viewport", default=None, help="xmin,ymin,xmax,ymax")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("batch", help="solve every .json configuration in a directory")
    p.add_argument("directory")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_batch)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, MinconicError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
