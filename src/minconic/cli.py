"""Command-line front end: solve, predict, check, plot, and batch.

Configurations are single JSON documents:

    {
      "points": [[x, y], [x, y, w], ...],
      "lines":  [[a, b, c], ...],
      "options": {"tolerance": 1e-10, "format": "text",
                  "viewport": [xmin, ymin, xmax, ymax]}
    }

Reports are byte-stable: fixed field order, floats at 15 significant digits,
no timestamps. Exit codes: 0 ok, 1 any other solver error or a missing
numpy, 2 parse error, 3 general-position or degeneracy error, 4 unsupported
element count, 5 certification failure.

`check` and `plot` need numpy, the `check` and `plot` extras; the other
commands run without it.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import plotting
from .conics import classify
from .errors import (
    DegenerateCase,
    DegenerateParameter,
    GeneralPositionError,
    MinconicError,
    PointAtInfinity,
    UnsupportedCount,
)
from .projective import HomogeneousPoint, ProjectiveLine
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
    if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
        raise ParseError(f"expected a finite number, got {x!r}")
    return float(x)


def _items(doc: dict, key: str) -> list:
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise ParseError(f"{key} must be a list")
    return items


def load_config(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")

    points = []
    for i, item in enumerate(_items(doc, "points")):
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise ParseError(f"points[{i}] must be [x, y] or [x, y, w]")
        nums = [_num(v) for v in item]
        if len(nums) == 2:
            nums.append(1.0)
        points.append(HomogeneousPoint(*nums))
    lines = []
    for i, item in enumerate(_items(doc, "lines")):
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError(f"lines[{i}] must be [a, b, c]")
        lines.append(ProjectiveLine(*(_num(v) for v in item)))

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("options must be an object")
    return {"points": points, "lines": lines, "options": options}


def _tolerances(options: dict, override: Optional[float]) -> Tolerances:
    tau = override if override is not None else options.get("tolerance")
    if tau is None:
        return DEFAULT
    return DEFAULT.with_geometry(_num(tau))


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


def _solution_dict(sol: SolutionSet, tol: Tolerances) -> dict:
    diag = sol.diagnostics
    conics = []
    for i, cm in enumerate(sol.real_conics):
        entry = {
            "index": i,
            "class": classify(cm, tol).value,
            "six_vector": [float(_g(v)) for v in cm.six_vector()],
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
        "residuals": {
            "max_incidence": float(_g(diag.max_incidence_residual)),
            "max_tangency": float(_g(diag.max_tangency_residual)),
        },
        "backend": diag.backend,
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


def _solution_text(sol: SolutionSet, tol: Tolerances) -> str:
    diag = sol.diagnostics
    rows = [
        f"case: {sol.case_label}",
        f"solutions: {sol.real_count} real, {sol.complex_count} complex",
    ]
    if diag.prediction is not None:
        p = diag.prediction
        rows.append(
            f"prediction: {p.predicted_real} real, {p.predicted_complex} complex "
            f"({p.rule})"
        )
    if diag.discriminant is not None:
        rows.append(f"discriminant: {_g(diag.discriminant)}")
    if diag.eigenvalues is not None:
        rows.append(
            "pencil eigenvalues: "
            + ", ".join(_g(v) for v in diag.eigenvalues)
        )
    for i, cm in enumerate(sol.real_conics):
        rows.append(f"conic[{i}]: class={classify(cm, tol).value}")
        rows.append(
            "  six-vector: [" + ", ".join(_g(v) for v in cm.six_vector()) + "]"
        )
        if i < len(diag.parameters):
            s, t = diag.parameters[i]
            trep = "-" if math.isnan(t) else _g(t)
            rows.append(f"  s={_g(s)} t={trep}")
    rows.append(
        f"residuals: max incidence={_g(diag.max_incidence_residual)} "
        f"max tangency={_g(diag.max_tangency_residual)}"
    )
    if diag.double_root:
        rows.append("note: double root; one conic with multiplicity two")
    rows.append(f"backend: {diag.backend}")
    return "\n".join(rows) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    tol = _tolerances(cfg["options"], args.tolerance)
    sol = solve(cfg["points"], cfg["lines"], tol)
    fmt = args.format or cfg["options"].get("format", "text")
    if fmt == "json":
        _emit(json.dumps(_solution_dict(sol, tol), indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(_solution_text(sol, tol), args.out)
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    tol = _tolerances(cfg["options"], args.tolerance)
    pred = predict(cfg["points"], cfg["lines"], tol)
    fmt = args.format or cfg["options"].get("format", "text")
    if fmt == "json":
        _emit(json.dumps(_prediction_dict(pred), indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(
            f"prediction: {pred.predicted_real} real, {pred.predicted_complex} "
            f"complex\nrule: {pred.rule}\n",
            args.out,
        )
    return EXIT_OK


def cmd_check(args) -> int:
    from . import oracle  # imports numpy: loaded only by the commands that use it

    cfg = load_config(args.config)
    tol = _tolerances(cfg["options"], args.tolerance)
    sol = solve(cfg["points"], cfg["lines"], tol)
    cert = oracle.certify(cfg["points"], cfg["lines"], sol, tol)
    rows = [f"case: {sol.case_label}"]
    for chk in cert.checks:
        status = "pass" if chk.passed else "FAIL"
        rows.append(f"{status} {chk.name}: {_g(chk.magnitude)} (limit {_g(chk.limit)})")
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
    return (vals[0], vals[1], vals[2], vals[3])


def cmd_plot(args) -> int:
    cfg = load_config(args.config)
    tol = _tolerances(cfg["options"], args.tolerance)
    sol = solve(cfg["points"], cfg["lines"], tol)
    svg = plotting.render_svg(
        cfg["points"], cfg["lines"], sol.real_conics, _viewport(args, cfg["options"]), tol
    )
    _emit(svg, args.out)
    return EXIT_OK


def cmd_batch(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        raise ParseError(f"{args.directory} is not a directory")
    files = sorted(root.glob("*.json"))
    if not files:
        raise ParseError(f"no .json configurations in {args.directory}")
    worst = EXIT_OK
    rows = []
    for f in files:
        try:
            cfg = load_config(str(f))
            tol = _tolerances(cfg["options"], args.tolerance)
            sol = solve(cfg["points"], cfg["lines"], tol)
            rows.append(
                f"{f.name}: ok case={sol.case_label} real={sol.real_count} "
                f"complex={sol.complex_count}"
            )
        except Exception as exc:  # per-file isolation; the run continues
            code = _exit_code_for(exc)
            worst = max(worst, code)
            rows.append(f"{f.name}: error[{code}] {exc}")
    _emit("\n".join(rows) + "\n", args.out)
    return worst


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (ParseError, json.JSONDecodeError)):
        return EXIT_PARSE
    if isinstance(exc, UnsupportedCount):
        return EXIT_UNSUPPORTED
    if isinstance(
        exc, (GeneralPositionError, PointAtInfinity, DegenerateCase, DegenerateParameter)
    ):
        return EXIT_GENERAL_POSITION
    return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="minconic",
        description="Closed-form conic solvers for minimal point/line configurations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("config", help="JSON configuration file")
        p.add_argument("--tolerance", type=float, default=None, help="geometric predicate tolerance")
        p.add_argument("--format", choices=("text", "json"), default=None)
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("solve", help="solve a configuration for its conics")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("predict", help="predict real/complex counts from sign tests")
    common(p)
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
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(
            f"error: minconic {args.command} needs numpy; install it with "
            f"pip install 'minconic[{args.command}]'",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
