"""tools/code_lines.py on a small source string and a small tree."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a comment after code


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (1,
                2)
'''
# Code: import, class, x = (two lines), def, return (two lines).
CODE = 7


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_but_not_comments_docstrings_or_blank_lines(code_lines):
    assert code_lines.code_lines(SOURCE) == CODE


def test_prints_each_file_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\nx = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(CODE), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        [str(CODE + 1), "total"],
    ]
