"""``tools/src_lines.py`` counts the lines of ``src/`` the same way at every
change: blank, comment-only and docstring lines are not code lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = ROOT / "tests" / "data" / "src_lines_sample.py"


def test_counts_only_statement_lines_as_code():
    # 12 lines: two module docstring lines, a blank, a comment, ``import``,
    # two blanks, ``def``, two docstring lines and a ``return`` whose string
    # argument spans two lines, both code
    assert src_lines.count_lines(SAMPLE) == (12, 4)


def test_prints_each_file_and_the_total(capsys):
    assert src_lines.main([str(SAMPLE), str(SAMPLE)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "src_lines_sample.py 12 4", "src_lines_sample.py 12 4", "total 24 8"]
