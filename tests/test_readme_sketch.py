"""The README's "Python API sketch" runs as printed and gives the values
its comments state."""

import ast
import re
from pathlib import Path

from cremona import p4, weyl

README = Path(__file__).resolve().parents[1] / "README.md"


def sketch():
    text = README.read_text()
    body = text.split("## Python API sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def run_sketch(code):
    # runs every statement in order; returns each top-level expression's
    # (comment at the end of its last line, value)
    lines = code.splitlines()
    namespace, values = {}, []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"),
                         namespace)
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            values.append((comment, value))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return values


def test_python_api_sketch_gives_its_commented_values():
    values = run_sketch(sketch())
    numbers = [(comment, value) for comment, value in values
               if re.fullmatch(r"-?\d+", comment)]
    assert numbers == [("204", 204), ("3", 3), ("-10", -10), ("9", 9),
                       ("-1", -1)]
    notes = {comment: value for comment, value in values}
    R = p4.RING
    assert notes["S, the hyperplane square"] == R.cls("S")
    assert notes["4H - 3 sum E_i - 2 sum E_ij - sum E_ijk"] == R.make_class(
        1, [("H", 4)] + [(("E", (i,)), -3) for i in p4.POINTS]
        + [(("E", q), -2) for q in p4.PAIRS]
        + [(("E", t), -1) for t in p4.TRIPLES])
    assert notes["lands on S1(1,2,3)"] == weyl.s1_plane(1, 2, 3)
