"""The README's "Library in one minute" block runs, and each value its
comments give is the value the code gives."""

import ast
import contextlib
import io
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

# Each expression statement of the block, and the value its comment (on its
# line, else on the line below) starts with.
COMMENTED = {
    "multiply(a, a)": "Plm((3, 3, 3))",
    "structural_multiply(a, a)": "Plm((3, 3, 3))",
    "classify(a).kind": "'cplm'",
    "periodicity(a).to_json_dict()": "{'periodicity': 'prerow', 'e': 2, 'm': 3, 'is_prerow': True}",
    "eigen_check(a).spectral_radius_numeric": "1.0",
    "check_decomposition(b, decompose(b))": "[]",
}


@pytest.fixture(scope="module")
def block():
    """The block's lines, its namespace after it ran, and what it printed."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library in one minute")) + len("```python\n")
    code = text[start:text.index("```", start)]
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    return code.splitlines(), namespace, out.getvalue()


def test_each_expression_has_the_value_its_comment_gives(block):
    lines, namespace, _ = block
    exprs = [node for node in ast.parse("\n".join(lines)).body if isinstance(node, ast.Expr)]
    assert [ast.unparse(node) for node in exprs] == list(COMMENTED)
    for node in exprs:
        source = ast.unparse(node)
        line = lines[node.end_lineno - 1]
        comment = line.partition("#")[2] or lines[node.end_lineno].lstrip().removeprefix("#")
        assert comment.strip().startswith(COMMENTED[source]), (source, comment)
        value, expected = eval(source, namespace), eval(COMMENTED[source], namespace)
        if isinstance(expected, float):
            assert value == pytest.approx(expected, abs=1e-9), source
        else:
            assert value == expected, source


def test_printed_terms_are_the_comment_lines_below_the_loop(block):
    lines, _, printed = block
    after = lines[lines.index("    print(lam, p.colmap)") + 1:]
    comments = []
    for line in after:
        if not line.startswith("# "):
            break
        comments.append(line.removeprefix("# "))
    assert comments, "no comment lines below the print loop"
    assert printed.splitlines() == comments
