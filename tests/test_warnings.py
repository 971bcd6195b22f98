"""Every ``warnings.warn`` in ``src/fnls`` sits in a function on an explicit
list.  Results are to carry what a caller should know as data, not as
warnings, so a new warning is added to the list on purpose, never by
accident."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fnls"
ALLOWED = ["phase.partition", "solitons._check_solved"]


def _is_warn(call: ast.Call) -> bool:
    f = call.func
    if isinstance(f, ast.Attribute):
        return f.attr == "warn" and isinstance(f.value, ast.Name) and f.value.id == "warnings"
    return isinstance(f, ast.Name) and f.id == "warn"


def _sites(node, module, owner):
    """``module.owner`` for every warning call in ``node``, ``owner`` being
    the innermost function around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _is_warn(child):
            yield f"{module}.{owner}"
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        yield from _sites(child, module, inner)


def _warning_functions():
    for path in sorted(SRC.glob("*.py")):
        yield from _sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")


def test_warnings_are_raised_only_where_listed():
    assert sorted(set(_warning_functions())) == ALLOWED
