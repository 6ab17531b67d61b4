"""The README's Quick start block runs and prints what its comments say."""
import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text.split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs_and_its_commented_values_hold():
    block = quick_start_block()
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked = []
    # the comment lines under `pred = predict(...)` show the prediction's repr
    shown = " ".join(line.strip() for line in block.splitlines() if line.lstrip().startswith("#"))
    assert shown.startswith("# CountPrediction(")
    for field, value in re.findall(r"(\w+)=('[^']*'|\d+)", shown):
        assert getattr(namespace["pred"], field) == ast.literal_eval(value), field
        checked.append(field)
    # an expression with a literal in its trailing comment evaluates to it
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue  # no comment, or prose such as the sym6() layout
        assert eval(code.strip(), namespace) == want, code
        checked.append(code.strip())
    assert checked == [
        "predicted_real",
        "predicted_complex",
        "rule",
        "sol.case_label",
        "len(sol.real_conics)",
        "sol.complex_count",
    ]
