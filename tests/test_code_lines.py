"""tools/code_lines.py counts code lines the way the ROADMAP quotes them."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line

import os  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        over two lines."""
        text = """a string
that is no docstring,
over three lines"""
        return text


async def run():
    \'\'\'Async docstring.\'\'\'
    "a string statement after the docstring"
    return os.sep
'''


def test_docstrings_and_comments_are_not_counted():
    # import, class, def, the three lines of text, return, async def, the
    # second string statement and its return
    assert code_lines.code_lines(FIXTURE) == 10


def test_a_multi_line_string_counts_each_line():
    assert code_lines.code_lines('x = """one\ntwo\nthree"""\n') == 3
    assert code_lines.code_lines('"""one\ntwo\nthree"""\n') == 0


def test_prints_each_file_and_the_total():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows[-1][1] == "total"
    assert int(rows[-1][0]) == sum(int(count) for count, _path in rows[:-1])
    assert {"__init__.py", "realize/builders.py"} <= {path for _count, path in rows[:-1]}
