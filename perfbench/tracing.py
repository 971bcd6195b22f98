"""Per-layer tracing by wrapping ``fnls`` functions from outside.

:class:`Tracer` replaces each traced function at every name an ``fnls``
module binds it to (so ``fnls.cli.soliton_field`` and
``fnls.solitons.soliton_field`` are both caught) and restores the originals
on :meth:`Tracer.uninstall`.  No source file changes.  Each call becomes a
span ``[name, start, end, parent, amount]`` kept in memory; ``amount`` is
the work the call did (points, steps, bytes) where that is known.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import split_steps


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(path):
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.iterdir() if f.is_file())
    return p.stat().st_size if p.exists() else 0


def _steps(args, kwargs):
    """(order, steps) of one ``split_step`` call."""
    names = ("q0", "grid", "t_final", "dt", "t_start", "t_samples")
    call = {"dt": 1e-3, "t_start": 0.0, "t_samples": None,
            **dict(zip(names, args)), **kwargs}
    times = [float(t) for t in call["t_samples"] or ()] + [float(call["t_final"])]
    return call.get("order", 2), split_steps(float(call["t_start"]), times, call["dt"])


# (module, attribute, span name, amount(args, kwargs) or None).  Amounts
# are taken after the call returns.  Writes are attributed to the cli
# layer whatever module defines them.  A name the program no longer has
# is skipped, and its metrics read 0.
SPANS = [
    ("fnls.cli", "main", "cli.main", None),
    ("fnls.cli", "_write_csv", "cli.write", lambda a, k: _size(_arg(a, k, 0, "path"))),
    ("fnls.cli", "save_scattering", "cli.write",
     lambda a, k: _size(_arg(a, k, 1, "path"))),
    ("fnls.cli", "save_asymptotics", "cli.write",
     lambda a, k: _size(_arg(a, k, 0, "path"))),
    ("fnls.cli", "save_evolution", "cli.write",
     lambda a, k: _size(_arg(a, k, 1, "directory"))),
    ("fnls.solitons", "soliton_field", "solitons.field",
     lambda a, k: int(np.size(_arg(a, k, 1, "x_values")))),
    ("fnls.solitons", "solve_soliton", "solitons.solve", None),
    ("fnls.solitons", "restrict_to_interval", "solitons.reorient", None),
    ("fnls.solitons", "modulate_constants", "solitons.modulate", None),
    ("fnls.scattering", "extract_scattering", "scattering.extract", None),
    ("fnls.scattering", "reflection_coefficient", "scattering.reflection", None),
    ("fnls.scattering", "locate_zeros", "scattering.zeros", None),
    ("fnls.scattering", "norming_constants", "scattering.norming", None),
    ("fnls.scattering", "load_scattering", "scattering.load", None),
    ("fnls.phase", "delta_fn", "phase.delta", None),
    ("fnls.phase", "phase_context", "phase.context", None),
    ("fnls.phase", "partition", "phase.partition", None),
    ("fnls.asymptotics", "q_asymptotic", "asymptotics.point", None),
    ("fnls.splitstep", "split_step", "splitstep.run", _steps),
    ("fnls.splitstep", "fourier_interpolate", "splitstep.interp", None),
    ("fnls.splitstep", "load_evolution", "splitstep.load", None),
]

# Spans not recorded when their parent is the named span: one pole solve
# per point inside soliton_field would cost more than the solve itself.
SKIP_UNDER = {"solitons.solve": "solitons.field"}

# Counted, not spanned: called too often for a span each.
# (module, class or None, attribute, counter, amount(args, kwargs)).
COUNTERS = [
    ("fnls.scattering", None, "s11_on_grid", "scattering.s11_points",
     lambda a, k: int(np.size(_arg(a, k, 1, "zs")))),
    ("fnls.scattering", "InitialProfile", "evaluate", "scattering.rhs_evals",
     lambda a, k: 1),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, amount):
        spans, stack = self.spans, self._stack
        skip_under = SKIP_UNDER.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if skip_under and parent >= 0 and spans[parent][0] == skip_under:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, parent, 0]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if amount is not None:
                rec[4] = amount(args, kwargs)
            return result
        return wrapper

    def _counter(self, key, fn, amount):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += amount(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("fnls") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        for mod_name, attr, name, amount in SPANS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is not None:
                self._patch_everywhere(original, self._span(name, original, amount))
        for mod_name, cls_name, attr, key, amount in COUNTERS:
            owner = sys.modules[mod_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._counter(key, original, amount)
            if cls_name is None:
                self._patch_everywhere(original, wrapper)
            else:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-layer figures averaged over ``rounds`` traced rounds."""
        spans = self.spans
        dur = np.array([s[2] - s[1] for s in spans])
        child = np.zeros(len(spans))
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        self_t = dur - child
        by_name = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)

        def total(name, values=dur):
            return float(sum(values[i] for i in by_name.get(name, ())))

        def mean_us(name, values=dur):
            idx = by_name.get(name, ())
            return 1e6 * total(name, values) / len(idx) if idx else 0.0

        def amount(name):
            return sum(spans[i][4] for i in by_name.get(name, ()))

        def per_round(value):
            return value / rounds

        def count(value):
            # rounds repeat the same work, so counts divide exactly
            return value // rounds if value % rounds == 0 else value / rounds

        runs = [spans[i] for i in by_name.get("splitstep.run", ())]
        steps = {o: sum(r[4][1] for r in runs if r[4][0] == o) for o in (2, 4)}
        run_time = {o: sum(r[2] - r[1] for r in runs if r[4][0] == o) for o in (2, 4)}
        layers = ("cli", "solitons", "scattering", "phase", "asymptotics", "splitstep")
        layer_self = {layer: 0.0 for layer in layers}
        for i, s in enumerate(spans):
            layer_self[s[0].split(".")[0]] += self_t[i]
        points = amount("solitons.field")
        out = {
            "cli.write_s": ("s", per_round(total("cli.write"))),
            "cli.bytes_written": ("bytes", count(amount("cli.write"))),
            "solitons.field_us_per_point": (
                "us", 1e6 * total("solitons.field") / points if points else 0.0),
            "solitons.points": ("count", count(points)),
            "solitons.solve_us": ("us", mean_us("solitons.solve")),
            "solitons.solve_calls": ("count", count(len(by_name.get("solitons.solve", ())))),
            "solitons.reorient_us": ("us", mean_us("solitons.reorient")),
            "scattering.reflection_s": ("s", per_round(total("scattering.reflection"))),
            "scattering.zeros_s": ("s", per_round(total("scattering.zeros"))),
            "scattering.norming_s": ("s", per_round(total("scattering.norming"))),
            "scattering.s11_points": ("count", count(self.counts["scattering.s11_points"])),
            "scattering.rhs_evals": ("count", count(self.counts["scattering.rhs_evals"])),
            "phase.delta_us": ("us", mean_us("phase.delta")),
            "phase.delta_calls": ("count", count(len(by_name.get("phase.delta", ())))),
            "phase.context_us": ("us", mean_us("phase.context")),
            "asymptotics.point_us": ("us", mean_us("asymptotics.point")),
            "asymptotics.self_us": ("us", mean_us("asymptotics.point", self_t)),
            "asymptotics.points": ("count", count(len(by_name.get("asymptotics.point", ())))),
            "splitstep.order4.step_us": ("us", 1e6 * run_time[4] / steps[4] if steps[4] else 0.0),
            "splitstep.order2.step_us": ("us", 1e6 * run_time[2] / steps[2] if steps[2] else 0.0),
            "splitstep.steps": ("count", count(steps[2] + steps[4])),
            "splitstep.interp_s": ("s", per_round(total("splitstep.interp"))),
            "trace.spans": ("count", count(len(spans))),
        }
        for layer in layers:
            out[f"{layer}.self_s"] = ("s", per_round(layer_self[layer]))
        return out
