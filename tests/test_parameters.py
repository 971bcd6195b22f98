"""Every parameter of every function and lambda in ``src/fnls`` is read in
its body.  A parameter that nothing reads is still one every caller must
pass, and its name promises a dependence the code does not have."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fnls"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parameters(fn) -> list[str]:
    """The names a function binds as parameters, less ``self`` and ``cls``."""
    a = fn.args
    bound = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
    return [p.arg for p in bound if p.arg not in ("self", "cls")]


def _reads(node, name: str) -> bool:
    """Whether ``name`` is loaded in ``node``, not counting the functions
    nested there that bind a parameter of their own by that name."""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, FUNCTIONS) and name in _parameters(node):
        return False
    return any(_reads(child, name) for child in ast.iter_child_nodes(node))


def _unread_parameters():
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, FUNCTIONS):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            for name in _parameters(fn):
                if not any(_reads(node, name) for node in body):
                    yield f"{path.name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({name})"


def test_every_parameter_is_read():
    assert list(_unread_parameters()) == []
