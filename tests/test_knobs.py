"""Every parameter with a default of every function in ``src/fnls``, and
every field with a default of every dataclass there, is passed by some call
there: by keyword, positionally at its place or later, or through
``*``/``**``.  A default that no library call overrides is a setting only
tests turn; it belongs in the tests or nowhere."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fnls"
# The console entry point: its caller is the interpreter.
ALLOWED = {"cli.main(argv)"}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _is_dataclass(node):
    """Whether ``node`` is a class under ``@dataclass`` or ``@dataclass(...)``."""
    return isinstance(node, ast.ClassDef) and any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list)


def _defaulted(tree):
    """``(name, parameter, index)`` for each parameter with a default;
    ``index`` is its place among a caller's positional arguments, or
    ``None`` for keyword-only parameters.  ``__init__`` and the fields of a
    dataclass go by their class's name."""
    for owner in ast.walk(tree):
        if _is_dataclass(owner):
            fields = [node for node in owner.body
                      if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
            for i, node in enumerate(fields):
                if node.value is not None:
                    yield owner.name, node.target.id, i
        for fn in ast.iter_child_nodes(owner):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            name = owner.name if fn.name == "__init__" else fn.name
            positional = a.posonlyargs + a.args
            bound = int(isinstance(owner, ast.ClassDef)
                        and bool(positional) and positional[0].arg in ("self", "cls"))
            first = len(positional) - len(a.defaults)
            for i, p in enumerate(positional[first:], first):
                yield name, p.arg, i - bound
            for p, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield name, p.arg, None


def _called_name(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _passes(call: ast.Call, parameter: str, index) -> bool:
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == parameter for kw in call.keywords):
        return True
    return index is not None and len(call.args) > index


def _unpassed():
    trees = list(_modules())
    calls = [node for _, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    for module, tree in trees:
        for name, parameter, index in _defaulted(tree):
            if f"{module}.{name}({parameter})" in ALLOWED:
                continue
            if not any(_called_name(c) == name and _passes(c, parameter, index)
                       for c in calls):
                yield f"{module}.{name}({parameter})"


def test_every_default_is_overridden_by_a_library_call():
    assert list(_unpassed()) == []
