"""The README's library quickstart runs, and states what it computes."""
import ast
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _stated_values(block: str) -> dict:
    """Lines `expr  # value` whose comment is a Python literal."""
    stated = {}
    for line in block.splitlines():
        expr, _, comment = line.partition("#")
        try:
            stated[expr.strip()] = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
    return stated


def test_quickstart_runs_and_its_comments_hold():
    block = _quickstart()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    stated = _stated_values(block)
    assert stated == {"gw_distance(X, Y)": 0.3535533905932738,
                      "evaluate(g, 0.5).omega": [[0.5, 1.0], [1.0, 0.5]]}
    for expr, value in stated.items():
        assert np.array_equal(eval(expr, namespace), value), expr
