"""Line counts of flagnef's source, per module and in total.

    python tools/loc.py

prints, for each module of ``src/flagnef`` and then for all of them, two
counts: every line (as ``wc -l`` counts them) and the lines of code, that
is, lines that are not blank and not wholly a comment or part of a
docstring.  A docstring is the string that opens a module, class or
function body (found with ``ast``); any other string, one that spans many
lines included, is code.  Tokens are read with ``tokenize``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flagnef"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """``(lines, code)`` of one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstrings)


def main() -> None:
    total_lines = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:16} {lines:5} {code:5}")
    print(f"{'total':16} {total_lines:5} {total_code:5}")


if __name__ == "__main__":
    main()
