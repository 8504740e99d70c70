"""Line counts of a Python source directory, per module and in total, split
into code, docstring, comment and blank lines.

    python tools/src_lines.py [DIR]      # DIR defaults to src/airytau

A docstring line is any line of a module, class or function docstring
(found with ``ast``), blank lines inside it included.  Outside docstrings a
line that holds only a comment is a comment line, an empty line is blank,
and every other line is code: a statement with a trailing comment, and each
line of a string that is not a docstring.  So the four parts of a file sum
to its line count, and cutting a docstring or a comment does not show as a
cut in code.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PARTS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> dict[str, int]:
    """The four line counts of one module's source text."""
    docs = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(PARTS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if number in docs:
            counts["docstring"] += 1
        elif number in code or (line.strip() and number not in comments):
            counts["code"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def count_tree(root: Path) -> dict[str, dict[str, int]]:
    """Counts of every ``*.py`` file under ``root`` by relative path."""
    return {str(path.relative_to(root)): count_lines(
                path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/airytau")
    rows = count_tree(root)
    total = {part: sum(row[part] for row in rows.values()) for part in PARTS}
    width = max(map(len, rows), default=5)
    print(f"{'module':<{width}}  {'lines':>6}"
          + "".join(f"  {part:>9}" for part in PARTS))
    for name, row in [*rows.items(), ("total", total)]:
        print(f"{name:<{width}}  {sum(row.values()):>6}"
              + "".join(f"  {row[part]:>9}" for part in PARTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
