"""Count the settable defaults of a Python source directory: every
parameter with a default, positional or keyword-only, of every function
and method, and every dataclass field with a default or
``default_factory``.

    python tools/knobs.py [DIR]      # DIR defaults to src/airytau

Each counted value is one knob a caller can leave alone or set, so the
count is the number of independently settable values the code offers
beyond its required arguments.  A dataclass is a class decorated with
``dataclass`` or ``dataclasses.dataclass``, called or not; a field is an
annotated assignment in its body that is not a ``ClassVar``.  Nested
functions and lambdas count like any other.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (target.attr if isinstance(target, ast.Attribute)
                else getattr(target, "id", None))
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = (annotation.value if isinstance(annotation, ast.Subscript)
              else annotation)
    return (getattr(target, "id", None) == "ClassVar"
            or getattr(target, "attr", None) == "ClassVar")


def knobs(text: str) -> list[str]:
    """Names of the settable defaults of one module's source, as
    ``function.parameter`` or ``Class.field``, in source order."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            owner = getattr(node, "name", "<lambda>")
            found += [(arg.lineno, f"{owner}.{arg.arg}") for arg in defaulted]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [(stmt.lineno, f"{node.name}.{stmt.target.id}")
                      for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)
                      and stmt.value is not None
                      and not _is_classvar(stmt.annotation)]
    return [name for _, name in sorted(found)]


def knobs_tree(root: Path) -> dict[str, list[str]]:
    """Knobs of every ``*.py`` file under ``root`` by relative path."""
    return {str(path.relative_to(root)): knobs(
                path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/airytau")
    rows = knobs_tree(root)
    width = max(map(len, rows), default=5)
    for name, found in rows.items():
        print(f"{name:<{width}}  {len(found):>4}  {' '.join(found)}")
    print(f"{'total':<{width}}  {sum(map(len, rows.values())):>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
