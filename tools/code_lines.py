"""Count the code lines of the sdpcolor package: the lines that hold a
token other than a comment, with docstrings and blank lines left out.

    python3 tools/code_lines.py [package_dir]

Prints one ``<count> <module>`` line per module of ``src/sdpcolor`` (or of
``package_dir``) and then the total. A statement spread over several lines
counts each line it holds a token on, and a string that is not a docstring
counts every line it spans.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src", "sdpcolor")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    """The lines spanned by the docstrings of the module, classes and
    functions of ``source``."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(source))


def package_counts(package: str = PACKAGE) -> dict[str, int]:
    """Code lines per module file of ``package``, by file name."""
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                counts[name] = code_lines(fh.read())
    return counts


def main(argv: list[str]) -> int:
    counts = package_counts(*argv[:1])
    for name, count in counts.items():
        print(f"{count:6d} {name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
