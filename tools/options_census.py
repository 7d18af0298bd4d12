"""Settable-value census of ``src/pomest``: every keyword default and dataclass field.

Usage (from anywhere, no flags):

    python tools/options_census.py

Parses each ``src/pomest/*.py`` with ``ast`` and lists, one per line as
``file:line: kind name``,

- each parameter with a default value (positional or keyword-only) of every
  function, method and lambda, as ``default function.parameter``;
- each annotated assignment in the body of a class decorated with
  ``dataclass`` (bare or called), as ``field Class.name``, ``ClassVar``
  annotations excluded.

Then prints the totals: ``defaults D + fields F = N settable values``.
Nothing is imported or run, so the census needs only the standard library.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pomest"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted(args: ast.arguments) -> list[str]:
    """Names of the parameters that carry a default."""
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def settable_values(path: Path) -> list[tuple[int, str, str]]:
    """(line, kind, qualified name) of each keyword default and dataclass field in one module."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                qual = f"{scope}.{name}" if scope else name
                found.extend((child.lineno, "default", f"{qual}.{arg}") for arg in _defaulted(child.args))
                visit(child, qual)
            elif isinstance(child, ast.ClassDef):
                qual = f"{scope}.{child.name}" if scope else child.name
                if _is_dataclass(child):
                    found.extend(
                        (stmt.lineno, "field", f"{qual}.{stmt.target.id}") for stmt in child.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation))
                visit(child, qual)
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), "")
    return sorted(found)


def main() -> int:
    counts = {"default": 0, "field": 0}
    for path in sorted(PACKAGE.glob("*.py")):
        for line, kind, name in settable_values(path):
            counts[kind] += 1
            print(f"{path.relative_to(ROOT)}:{line}: {kind} {name}")
    print(f"defaults {counts['default']} + fields {counts['field']} = "
          f"{sum(counts.values())} settable values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
