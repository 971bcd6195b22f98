"""Every top-level function and class in ``src/fnls`` has a caller there,
or is one the benchmark's tracer wraps.  Code that only tests use lives in
the tests; a definition that nothing in the library reaches is a second
route kept by accident."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fnls"
# The writer of the CSV format that ``load_profile`` reads.
ALLOWED = {"scattering.save_profile"}


def _statements():
    """``(module, statement)`` for each top-level statement."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path.stem, node


def _references(node):
    """Names loaded and attributes read in ``node``."""
    return ({sub.id for sub in ast.walk(node)
             if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)})


def _traced():
    """``module.name`` of each function or class named in the tracer's
    SPANS and COUNTERS."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    named = set()
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("SPANS", "COUNTERS")):
            continue
        for item in node.value.elts:
            module, *names = [e.value for e in item.elts
                              if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            named.update(f"{module.removeprefix('fnls.')}.{n}" for n in names)
    return named


def _uncalled():
    statements = [(module, node, _references(node)) for module, node in _statements()]
    allowed = ALLOWED | _traced()
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if f"{module}.{node.name}" in allowed:
            continue
        # a definition's references to itself do not count
        if not any(node.name in refs for _, other, refs in statements if other is not node):
            yield f"{module}.{node.name}"


def test_every_definition_has_a_library_caller():
    assert list(_uncalled()) == []
