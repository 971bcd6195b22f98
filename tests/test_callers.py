"""Every top-level function and class in ``src/fnls`` has a caller there,
and every method or property of its classes is read there outside its own
body, or is one the benchmark's tracer wraps.  Code that only tests use
lives in the tests; a definition that nothing in the library reaches is a
second route kept by accident."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fnls"


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
    """``module.name``, or ``module.class.name`` for a method, of each
    function the tracer's SPANS ``(module, name, ...)`` and COUNTERS
    ``(module, class or None, name, ...)`` wrap."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    named = set()
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("SPANS", "COUNTERS")):
            continue
        width = 3 if node.targets[0].id == "COUNTERS" else 2
        for item in node.value.elts:
            module, *path = [e.value for e in item.elts[:width] if e.value is not None]
            named.add(".".join([module.removeprefix("fnls."), *path]))
    return named


def _uncalled():
    statements = [(module, node, _references(node)) for module, node in _statements()]
    traced = _traced()
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if f"{module}.{node.name}" in traced:
            continue
        # a definition's references to itself do not count
        if not any(node.name in refs for _, other, refs in statements if other is not node):
            yield f"{module}.{node.name}"


def test_every_definition_has_a_library_caller():
    assert list(_uncalled()) == []


def _unread_methods():
    statements = list(_statements())
    traced = _traced()
    for module, cls in statements:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = method.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if f"{module}.{cls.name}.{name}" in traced:
                continue
            # reads in its own body (recursion) do not count
            elsewhere = [node for _, node in statements if node is not cls]
            elsewhere += [item for item in cls.body if item is not method]
            if not any(name in _attributes(node) for node in elsewhere):
                yield f"{module}.{cls.name}.{name}"


def _attributes(node):
    """Attributes read in ``node``."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def test_every_method_is_read_in_the_library():
    assert list(_unread_methods()) == []


def _conjugated_pole_positions(tree):
    """Lines of ``np.conj(<...>.z)`` (or ``np.conjugate``) and
    ``<...>.z.conjugate()`` in ``tree``."""
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if not (isinstance(func, ast.Attribute) and func.attr in ("conj", "conjugate")):
            continue
        target = node.args[0] if node.args else func.value
        if isinstance(target, ast.Attribute) and target.attr == "z":
            yield node.lineno


def _calls(tree, name):
    """Lines of the calls of ``name`` (or ``<...>.name``) in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if name in (getattr(func, "id", None), getattr(func, "attr", None)):
                yield node.lineno


def test_blaschke_factors_are_formed_in_solitons_only():
    # a product over a subset of poles goes through solitons.blaschke_product,
    # and only T0 in phase needs one outside solitons: the cone reads its
    # row in T's normalization straight from the solve
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    found = [f"{stem}:{line}" for stem, tree in trees.items() if stem != "solitons"
             for line in _conjugated_pole_positions(tree)]
    found += [f"{stem}:{line}" for stem, tree in trees.items() if stem not in ("solitons", "phase")
              for line in _calls(tree, "blaschke_product")]
    assert found == []


def test_pointwise_reference_assembles_its_own_pole_system():
    # the reference checks the library's one pole form against the
    # two-orientation form it replaced, so it must not read the library's,
    # nor the solve that assumes it
    tree = ast.parse((ROOT / "tests" / "pointwise_reference.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "fnls.solitons"
                for alias in node.names}
    assert imported and not imported & {"_row_forms", "pole_system", "_solve_stack"}
