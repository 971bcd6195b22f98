"""Every ``warnings.warn`` in ``src/fnls`` sits in a function on an explicit
list.  Results are to carry what a caller should know as data, not as
warnings, so a new warning is added to the list on purpose, never by
accident.  Nothing in ``src/fnls`` reads the call stack: what a result
means may not depend on who asked for it."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fnls"
ALLOWED = ["solitons._check_solved"]
# (module, attribute) pairs that hand out stack frames
FRAME_READERS = {("sys", "_getframe"), ("inspect", "currentframe"), ("inspect", "stack")}


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


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _warning_functions():
    for module, tree in _trees():
        yield from _sites(tree, module, "<module>")


def test_warnings_are_raised_only_where_listed():
    assert sorted(set(_warning_functions())) == ALLOWED


def test_no_stack_frames_are_read():
    reads = []
    for module, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module, a.name) for a in node.names]
            else:
                continue
            reads += [f"{module}:{node.lineno} {m}.{a}" for m, a in names
                      if (m, a) in FRAME_READERS]
    assert reads == []
