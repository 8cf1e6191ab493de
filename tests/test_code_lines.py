"""``scripts/code_lines.py``: what counts as a code line, and the printed table."""

import importlib.util
import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_PATH = os.path.join(_ROOT, "scripts", "code_lines.py")
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring
over two lines."""

# a comment line
X = 1  # a trailing comment keeps its line


def f(a):
    """One-line docstring."""

    text = """a string that is
    not a docstring"""
    return a + len(text)


class C:
    """Class docstring."""
    y = 2
'''


def test_blank_comment_and_docstring_lines_are_not_code():
    # code: X = 1; def f; text = (2 lines); return; class C; y = 2
    assert code_lines.count_lines(SAMPLE) == (18, 7)


def test_table_lists_every_module_and_their_sums(tmp_path):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("\n# only a comment\nA = [\n    1,\n]\n")
    proc = subprocess.run([sys.executable, _PATH, str(tmp_path)],
                          capture_output=True, text=True, check=True)
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [
        ["module", "lines", "code"],
        ["a.py", "5", "3"],
        ["b.py", "18", "7"],
        ["total", "23", "10"],
    ]


def test_package_total_is_the_sum_of_its_modules():
    proc = subprocess.run([sys.executable, _PATH], capture_output=True, text=True, check=True)
    *modules, total = [line.split() for line in proc.stdout.splitlines()[1:]]
    names = sorted(n for n in os.listdir(os.path.join(_ROOT, "src", "spikecal")) if n.endswith(".py"))
    assert [row[0] for row in modules] == names
    assert total[0] == "total"
    for column in (1, 2):
        assert int(total[column]) == sum(int(row[column]) for row in modules)
    assert all(0 < int(code) <= int(lines) for _, lines, code in modules)
