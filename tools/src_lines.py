"""Total lines and code lines of the package's Python sources.

    python3 tools/src_lines.py                 # src/saddlescape/*.py
    python3 tools/src_lines.py path/to/a.py ...

Prints one line ``<file> <total> <code>`` per file, then ``total <total>
<code>``.  A code line holds a token of a statement: blank lines,
comment-only lines and the lines of a docstring (a statement that is only
a string literal, as module, class and function docstrings are) are not
code.  A string that is part of a larger statement, such as a multi-line
argument, is code on every line it spans.  Standard library only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "saddlescape"

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(path: Path) -> tuple[int, int]:
    """``(total lines, code lines)`` of the Python source at ``path``."""
    with tokenize.open(path) as fh:
        total = len(fh.read().splitlines())
        fh.seek(0)
        tokens = list(tokenize.generate_tokens(fh.readline))
    code: set = set()
    statement: list = []  # the significant tokens of the statement being read
    for tok in tokens:
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(t.type == tokenize.STRING for t in statement):  # a docstring is not code
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return total, len(code)


def main(argv: list) -> int:
    paths = [Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    totals = [0, 0]
    for path in paths:
        total, code = count_lines(path)
        totals[0] += total
        totals[1] += code
        print(f"{path.name} {total} {code}")
    print(f"total {totals[0]} {totals[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
