"""The public surface: the README's library example and command-line
examples run, every exported name exists, every function the benchmark's
tracer wraps is still there with the argument it reads, and the cone
formula's and the forward map's traffic reaches the functions it wraps."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import fnls
from fnls import asymptotics, scattering
from fnls.cli import main
from fnls.scattering import DiscreteDatum, ScatteringData

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```",
                      text, re.S | re.M)
    assert match, "README has no python block under 'Library quick start'"
    exec(compile(match.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    # in order: compare reads the evolution that evolve writes
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^### Examples\n(.*?)^## ", text, re.S | re.M)
    assert section, "README has no '### Examples' section"
    blocks = re.findall(r"^```sh\n(.*?)^```", section.group(1), re.S | re.M)
    commands = [line for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("fnls ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
    # the cone example's window holds its pole
    (asymptote,) = [c for c in commands if c.startswith("fnls asymptote ")]
    out = Path(shlex.split(asymptote)[-1])
    table = np.loadtxt(out / "asymptotics.csv", delimiter=",")
    assert np.any(table[:, 2:4] != 0.0)


MODULES = sorted(f"fnls.{m.name}" for m in pkgutil.iter_modules(fnls.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _arg_reads(node):
    """``(position, name)`` of each argument a tracer amount reads: the
    ``_arg(a, k, position, name)`` calls, and a tuple of leading parameter
    names bound as ``names``."""
    reads = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_arg":
            reads.append((sub.args[2].value, sub.args[3].value))
        if (isinstance(sub, ast.Assign) and getattr(sub.targets[0], "id", None) == "names"
                and isinstance(sub.value, ast.Tuple)):
            reads.extend(enumerate(e.value for e in sub.value.elts))
    return reads


def _traced_entries():
    """``(module, owner class or None, attribute, arg reads)`` for every
    entry of SPANS and COUNTERS in perfbench/tracing.py."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    lists = {node.targets[0].id: node.value for node in tree.body
             if isinstance(node, ast.Assign)
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("SPANS", "COUNTERS")}
    assert set(lists) == {"SPANS", "COUNTERS"}
    entries = []
    for list_name, value in lists.items():
        for item in value.elts:
            consts = [e.value if isinstance(e, ast.Constant) else None
                      for e in item.elts]
            if list_name == "SPANS":
                module, owner, attr = consts[0], None, consts[1]
            else:
                module, owner, attr = consts[:3]
            amount = item.elts[-1]
            if isinstance(amount, ast.Name):
                amount = functions[amount.id]
            entries.append((module, owner, attr, _arg_reads(amount)))
    return entries


TRACED = _traced_entries()


@pytest.mark.parametrize("module,owner,attr,reads", TRACED,
                         ids=[f"{m}.{o + '.' if o else ''}{a}" for m, o, a, _ in TRACED])
def test_traced_names_exist_with_their_arguments(module, owner, attr, reads):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    fn = getattr(target, attr)
    params = list(inspect.signature(fn).parameters)
    for position, name in reads:
        assert params[position] == name


def test_cone_formula_reaches_the_traced_spans(monkeypatch):
    # the cone formula calls the public cone functions themselves, so a
    # traced run times the split, the dressing and the reorientation
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    s = np.linspace(-5.0, 5.0, 401)
    poles = (DiscreteDatum(-0.1 + 0.6j, (1.0,)), DiscreteDatum(0.3 + 0.8j, (1.0, 0.2)))
    scattering = ScatteringData(s, 0.5 * np.exp(-s ** 2), poles)
    tracer.install()
    try:
        asymptotics.q_asymptotic(np.array([-1.0, 1.0]), 10.0, scattering,
                                 (-2.0, 2.0, -1.0, 1.0))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"phase.partition", "solitons.modulate", "solitons.reorient",
            "phase.context", "asymptotics.point"} <= names
    # the window is taken before the dressing, so only kept poles are dressed
    start = {span[0]: span[1] for span in reversed(tracer.spans)}
    assert start["solitons.reorient"] < start["solitons.modulate"]


def test_scatter_reaches_the_traced_scattering_spans(monkeypatch, tmp_path):
    # fnls scatter runs the zero search and reads each zero's constants
    # through the public names, so a traced run times both stages, and the
    # contour's s11 samples are taken inside the search
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    box = importlib.import_module("workloads").SECH_BOX
    sampled = []
    s11_on_grid = scattering.s11_on_grid

    def timed(profile, zs):
        sampled.append(perf_counter())
        return s11_on_grid(profile, zs)

    monkeypatch.setattr(scattering, "s11_on_grid", timed)
    tracer.install()
    try:
        assert main(["scatter", "--profile-kind", "sech", "--profile-amplitude", "2.0",
                     "--scatter-box", box, "--output-dir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    (zeros,) = [span for span in tracer.spans if span[0] == "scattering.zeros"]
    norming = [span for span in tracer.spans if span[0] == "scattering.norming"]
    doc = json.loads((tmp_path / "scattering.json").read_text(encoding="utf-8"))
    assert len(norming) == len(doc["discrete"]) == 2
    assert tracer.counts["scattering.s11_points"] > 0
    assert sampled and all(zeros[1] < t < zeros[2] for t in sampled)
