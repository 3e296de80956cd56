"""Line counts of a source tree: total, and code-only (lines holding at
least one token that is not a comment, a blank or part of a docstring)."""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(source)
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


def main(root: str) -> None:
    total = code = 0
    for path in sorted(Path(root).rglob("*.py")):
        t, c = count(path)
        total, code = total + t, code + c
    print(f"{root}: {total} lines, {code} code-only")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/repro")
