"""Batch command-line front end for the toolkit.

Six subcommands drive the pipeline end to end and emit plot-ready CSVs:

* ``scatter``    -- profile in, scattering document + reflection CSV out
* ``soliton``    -- discrete data in, exact field on an (x, t) grid out
* ``asymptote``  -- discrete data + cone in, leading-order field out
* ``evolve``     -- profile or discrete data in, split-step run out
* ``compare``    -- two stored/closed-form fields in, error table (t, linf, l2) out
* ``verify``     -- runs the acceptance criteria, machine-readable report out

Configuration lives in a single INI file (sections of key = value pairs);
every key can be overridden on the command line as ``--<section>-<key>``,
with a negative value in any form (``-1e-3`` included).
``--config-reference`` prints a fully commented reference config with every
default.  The only environment variable honoured is ``FNLS_OUTPUT_DIR``,
which overrides ``run.output_dir``.

Exit codes: 0 on success, 1 when a verification criterion fails or the pole
solver fails on valid input, 2 on input or configuration errors, finite
input whose arithmetic overflows included.  A criterion
whose gate raises has failed: ``verify`` still writes its report, with the
error in that criterion's ``detail`` and its measured value and threshold
null, and exits 1.  Unknown criterion ids are refused, with exit 2, before
any gate runs.  Outputs are deterministic: a fixed number format (17
significant digits, '.' decimal), fixed row order, no locale or timestamp
dependence.  The one exception is the wall time of each gate, which
``verify`` prints and records as that criterion's ``seconds``.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .acceptance import run_all
from .asymptotics import q_asymptotic, save_asymptotics
from .csvio import formatted, write_grid
from .scattering import (
    DiscreteDatum,
    ScatteringData,
    _from_spelled,
    extract_scattering,
    gaussian_profile,
    load_profile,
    load_scattering,
    save_scattering,
    sech_profile,
)
from .solitons import soliton_field
from .splitstep import Grid, load_evolution, save_evolution, split_step

__all__ = ["main", "build_parser", "config_reference"]

OUTPUT_DIR_ENV = "FNLS_OUTPUT_DIR"

# Every configuration key: section -> key -> (default, help).  The argument
# parser, the override machinery and the generated reference are all built
# from this one table, so flags, config keys and documentation cannot drift
# apart.
SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "run": {
        "output_dir": ("out", "directory receiving all written artifacts"),
    },
    "profile": {
        "kind": ("none", "initial profile: none | sech | gaussian | csv"),
        "amplitude": ("1.0", "peak amplitude for sech/gaussian profiles"),
        "width": ("1.0", "width parameter for the gaussian profile"),
        "file": ("", "CSV with x,re_q,im_q columns (kind = csv)"),
        "x_min": ("-26.0", "left end of the profile sampling grid"),
        "x_max": ("26.0", "right end of the profile sampling grid"),
        "n": ("1041", "number of profile sample points"),
    },
    "discrete": {
        "file": ("", "scattering document (JSON) holding poles and r samples"),
        "poles": ("", "inline pole list, one per line: re im order c0_re c0_im "
                      "c1_re c1_im [c2_re c2_im ...], c0 to c_{order-1}"),
    },
    "scatter": {
        "z_min": ("-4.0", "left end of the real spectral grid for r(z)"),
        "z_max": ("4.0", "right end of the real spectral grid for r(z)"),
        "n_z": ("321", "number of spectral grid points"),
        "box": ("", "zero-search box 're_min re_max im_min im_max'; "
                    "empty skips the search"),
    },
    "soliton": {
        "x_min": ("-20.0", "left end of the output x grid"),
        "x_max": ("20.0", "right end of the output x grid"),
        "n_x": ("801", "number of x samples"),
        "t_min": ("0.0", "first output time"),
        "t_max": ("0.0", "last output time"),
        "n_t": ("1", "number of output times"),
    },
    "cone": {
        "x1": ("-1.0", "left foot of the cone at t = 0"),
        "x2": ("1.0", "right foot of the cone at t = 0"),
        "v1": ("-0.5", "lower edge velocity"),
        "v2": ("0.5", "upper edge velocity"),
    },
    "asymptote": {
        "t_min": ("10.0", "first evaluation time"),
        "t_max": ("40.0", "last evaluation time"),
        "n_t": ("4", "number of evaluation times"),
        "n_x": ("9", "points across the cone cross-section per time"),
    },
    "evolve": {
        "n": ("4096", "number of Fourier modes"),
        "x_min": ("-125.66370614359172", "left end of the periodic domain"),
        "x_max": ("125.66370614359172", "right end of the periodic domain"),
        "dt": ("1e-3", "time step"),
        "t_start": ("0.0", "initial time of the run"),
        "t_final": ("1.0", "final time of the run"),
        "t_samples": ("", "extra times to record in (t_start, t_final], "
                          "space/comma separated"),
        "order": ("2", "splitting order: 2 or 4"),
    },
    "compare": {
        "a": ("", "evolution directory (with manifest.json) for field A"),
        "b": ("", "field B: an evolution directory, or the word 'discrete' "
                  "to use the closed-form field from the discrete source"),
        "x_min": ("-20.0", "left end of the comparison window"),
        "x_max": ("20.0", "right end of the comparison window"),
        "n_x": ("801", "comparison points across the window"),
        "times": ("", "times to compare, space/comma separated; "
                      "empty uses every stored time of A"),
    },
    "verify": {
        "criteria": ("", "comma-separated criterion ids; empty runs all"),
    },
}

# ---------------------------------------------------------------------------
# Configuration resolution
# ---------------------------------------------------------------------------

class Settings:
    """Merged view of defaults, config file and command-line overrides."""

    def __init__(self, config_path: str | None, overrides: dict[str, str]):
        self._file: dict[tuple[str, str], str] = {}
        if config_path:
            parser = _read("config file", _parse_ini, config_path)
            for section in parser.sections():
                if section not in SCHEMA:
                    raise ValueError(f"unknown config section [{section}]")
                for key, value in parser.items(section):
                    if key not in SCHEMA[section]:
                        raise ValueError(
                            f"unknown config key '{key}' in section [{section}]")
                    self._file[(section, key)] = value
        self._cli = dict(overrides)

    def raw(self, section: str, key: str) -> str:
        cli = self._cli.get(f"{section}__{key}")
        if cli is not None:
            return cli
        if (section, key) in self._file:
            return self._file[(section, key)]
        return SCHEMA[section][key][0]

    def text(self, section: str, key: str) -> str:
        return self.raw(section, key).strip()

    def number(self, section: str, key: str) -> float:
        value = self.text(section, key)
        try:
            if math.isfinite(number := float(value)):
                return number
        except ValueError:
            pass
        raise ValueError(f"{section}.{key} must be a finite number, got {value!r}")

    def integer(self, section: str, key: str) -> int:
        value = self.text(section, key)
        try:
            if (number := float(value)) == int(number):
                return int(number)
        except (ValueError, OverflowError):
            pass
        raise ValueError(f"{section}.{key} must be an integer, got {value!r}")

    def positive(self, section: str, key: str) -> float:
        value = self.number(section, key)
        if not value > 0.0:
            raise ValueError(f"{section}.{key} must be positive")
        return value

    def numbers(self, section: str, key: str) -> list[float]:
        text = self.text(section, key).replace(",", " ")
        try:
            values = [float(tok) for tok in text.split()]
        except ValueError:
            values = [math.nan]
        if all(map(math.isfinite, values)):
            return values
        raise ValueError(f"{section}.{key} must be a list of finite numbers")

    def grid(self, section: str, lo_key: str, hi_key: str, n_key: str,
             least: int = 2) -> tuple[float, float, int]:
        """``(lo, hi, n)`` of an evenly spaced grid: at least ``least``
        points and ``lo < hi``, except that one point has ``lo == hi``."""
        lo, hi = self.number(section, lo_key), self.number(section, hi_key)
        n = self.integer(section, n_key)
        if n < least or not (lo == hi if n == 1 else lo < hi):
            one = f", or {lo_key} = {hi_key} for one point" if least == 1 else ""
            raise ValueError(
                f"bad grid in [{section}]: needs {n_key} >= {least} and "
                f"{lo_key} < {hi_key}{one}, got {n_key} = {n}, "
                f"{lo_key} = {lo!r}, {hi_key} = {hi!r}")
        return lo, hi, n

    def output_dir(self) -> Path:
        cli = self._cli.get("run__output_dir")
        if cli is not None:
            return Path(cli)
        env = os.environ.get(OUTPUT_DIR_ENV)
        if env:
            return Path(env)
        return Path(self.raw("run", "output_dir"))


def _parse_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return parser


def _read(what: str, load, path):
    """``load(path)``, with any failure to read or parse the file turned
    into a ``ValueError`` that names ``what``."""
    try:
        return load(path)
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, configparser.Error) as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


def config_reference() -> str:
    """A complete config file with every default and its documentation."""
    lines = [
        "# Configuration reference: every key with its default value.",
        "# Command-line flags --<section>-<key> override these; the",
        f"# {OUTPUT_DIR_ENV} environment variable overrides run.output_dir",
        "# (command-line flag wins over both).",
    ]
    for section, keys in SCHEMA.items():
        lines.append("")
        lines.append(f"[{section}]")
        for key, (default, help_text) in keys.items():
            lines.append(f"# {help_text}")
            lines.append(f"{key} = {default}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Data sources
# ---------------------------------------------------------------------------

def _profile_configured(cfg: Settings) -> bool:
    return cfg.text("profile", "kind") != "none"


def _discrete_configured(cfg: Settings) -> bool:
    return bool(cfg.text("discrete", "file") or cfg.text("discrete", "poles"))


def _check_single_source(cfg: Settings) -> None:
    if _profile_configured(cfg) and _discrete_configured(cfg):
        raise ValueError(
            "exactly one data source may be set: found both a profile "
            "and discrete data")


def _load_source_profile(cfg: Settings):
    kind = cfg.text("profile", "kind")
    if kind == "none":
        raise ValueError("this command needs a profile source "
                         "(set profile.kind)")
    if kind == "csv":
        path = cfg.text("profile", "file")
        if not path:
            raise ValueError("profile.kind = csv requires profile.file")
        return _read("profile file", load_profile, path)
    x = np.linspace(*cfg.grid("profile", "x_min", "x_max", "n"))
    amplitude = cfg.number("profile", "amplitude")
    if kind == "sech":
        return sech_profile(amplitude, x)
    if kind == "gaussian":
        return gaussian_profile(amplitude, x, width=cfg.positive("profile", "width"))
    raise ValueError(f"unknown profile.kind {kind!r}")


def _parse_pole_line(line: str) -> DiscreteDatum:
    tokens = line.replace(",", " ").split()
    if len(tokens) < 7 or len(tokens) % 2 == 0:
        raise ValueError(
            "each discrete.poles line needs 7 numbers (re im order c0_re c0_im "
            f"c1_re c1_im), then c2_re c2_im ... up to the order, got {line!r}")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"bad number in discrete.poles line {line!r}") from exc
    return _from_spelled(complex(values[0], values[1]), values[2],
                         [complex(*v) for v in zip(values[3::2], values[4::2])])


def _load_source_discrete(cfg: Settings) -> ScatteringData:
    """The discrete source as a full scattering record (r may be empty)."""
    file_path = cfg.text("discrete", "file")
    poles_text = cfg.text("discrete", "poles")
    if file_path and poles_text:
        raise ValueError("set discrete.file or discrete.poles, not both")
    if file_path:
        return _read("scattering document", load_scattering, file_path)
    if not poles_text:
        raise ValueError("this command needs a discrete source "
                         "(set discrete.file or discrete.poles)")
    data = tuple(_parse_pole_line(line)
                 for line in poles_text.splitlines() if line.strip())
    empty = np.zeros(0)
    return ScatteringData(empty, np.zeros(0, dtype=np.complex128), data)


def _write_csv(path: Path, x, values: np.ndarray, header: str, times=None) -> None:
    # The command's own table, apart from the library's writers, so that the
    # benchmark's tracer times each write once: the x column and its value
    # columns, or with ``times`` the values ``values[i, j]`` at ``(times[i],
    # x[j])`` (csvio.write_grid).
    write_grid(path, values, header, formatted(x), times)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_scatter(cfg: Settings, out_dir: Path) -> int:
    profile = _load_source_profile(cfg)
    z_grid = np.linspace(*cfg.grid("scatter", "z_min", "z_max", "n_z"))
    box_text = cfg.numbers("scatter", "box")
    box = None
    if box_text:
        if len(box_text) != 4:
            raise ValueError("scatter.box needs 4 numbers: "
                             "re_min re_max im_min im_max")
        box = tuple(box_text)
    data = extract_scattering(profile, z_grid, box=box)
    save_scattering(data, out_dir / "scattering.json")
    _write_csv(out_dir / "reflection.csv", data.z,
               np.column_stack([data.r.real, data.r.imag]), "z,re_r,im_r")
    for d in data.discrete:
        print(f"zero: z = {complex(d.z):.12g} order = {d.order}")
    print(f"wrote {out_dir / 'scattering.json'} and {out_dir / 'reflection.csv'}"
          f" ({len(data.discrete)} discrete point(s))")
    return 0


def cmd_soliton(cfg: Settings, out_dir: Path) -> int:
    source = _load_source_discrete(cfg)
    x = np.linspace(*cfg.grid("soliton", "x_min", "x_max", "n_x", least=1))
    times = np.linspace(*cfg.grid("soliton", "t_min", "t_max", "n_t", least=1))
    # one solve over the whole grid, a row per (t, x) with t slowest
    q = soliton_field(source.discrete, np.tile(x, times.size), np.repeat(times, x.size))
    _write_csv(out_dir / "soliton_field.csv", x,
               np.stack([q.real, q.imag], axis=-1).reshape(times.size, x.size, 2),
               "t,x,re_q,im_q", times)
    print(f"wrote {out_dir / 'soliton_field.csv'} "
          f"({times.size} time slice(s), {x.size} x-points)")
    return 0


def cmd_asymptote(cfg: Settings, out_dir: Path) -> int:
    source = _load_source_discrete(cfg)
    cone = tuple(cfg.number("cone", key) for key in ("x1", "x2", "v1", "v2"))
    scattering = source if source.r.size and np.any(source.r != 0) else None
    n_x = cfg.integer("asymptote", "n_x")
    if n_x < 1:
        raise ValueError("asymptote.n_x must be at least 1")
    times = np.linspace(*cfg.grid("asymptote", "t_min", "t_max", "n_t", least=1))
    x = np.array([np.linspace(cone[0] + cone[2] * t, cone[1] + cone[3] * t, n_x)
                  for t in times])
    values = q_asymptotic(x, times[:, None], source.discrete, scattering, cone)
    save_asymptotics(out_dir / "asymptotics.csv", values)
    print(f"wrote {out_dir / 'asymptotics.csv'} ({x.size} points)")
    return 0


def cmd_evolve(cfg: Settings, out_dir: Path) -> int:
    x_min, x_max, n = cfg.grid("evolve", "x_min", "x_max", "n")
    grid = Grid(n=n, x_min=x_min, x_max=x_max)
    t_start = cfg.number("evolve", "t_start")
    if _profile_configured(cfg):
        q0 = _load_source_profile(cfg).evaluate(grid.x)
    elif _discrete_configured(cfg):
        q0 = soliton_field(_load_source_discrete(cfg).discrete, grid.x, t_start)
    else:
        raise ValueError("evolve needs a profile or a discrete source")
    samples = cfg.numbers("evolve", "t_samples")
    order = cfg.integer("evolve", "order")
    ev = split_step(q0, grid,
                    cfg.number("evolve", "t_final"),
                    dt=cfg.positive("evolve", "dt"),
                    t_start=t_start,
                    t_samples=samples or None,
                    order=order)
    target = out_dir / "evolution"
    save_evolution(ev, target, dt=cfg.number("evolve", "dt"))
    print(f"wrote {target} ({len(ev.t)} slices, "
          f"edge mass fraction {ev.edge_fraction:.3e})")
    return 0


def cmd_compare(cfg: Settings, out_dir: Path) -> int:
    a_dir = cfg.text("compare", "a")
    b_source = cfg.text("compare", "b")
    if not a_dir or not b_source:
        raise ValueError("compare needs both compare.a and compare.b")
    ev_a = _read("evolution A", load_evolution, a_dir)
    stored = {"A": ev_a.grid}
    if b_source == "discrete":
        data = _load_source_discrete(cfg).discrete

        def b_fn(x, t):
            return soliton_field(data, x, t)
    else:
        ev_b = _read("evolution B", load_evolution, b_source)
        stored["B"] = ev_b.grid

        def b_fn(x, t):
            return ev_b.interp(t, x)

    x_min, x_max, n_x = cfg.grid("compare", "x_min", "x_max", "n_x")
    # Past the ends of a stored grid its field is read at the periodic image.
    for name, grid in stored.items():
        where = f"the grid [{grid.x_min!r}, {grid.x_max!r}] of evolution {name}"
        if x_max < grid.x_min or x_min > grid.x_max:
            raise ValueError(f"comparison window is disjoint from {where}")
        if x_min < grid.x_min or x_max > grid.x_max:
            raise ValueError(f"comparison window [{x_min!r}, {x_max!r}] is not inside "
                             f"{where}, where its field would be read at the "
                             "periodic image")
    x = np.linspace(x_min, x_max, n_x)
    dx = x[1] - x[0]
    times = cfg.numbers("compare", "times") or [float(t) for t in ev_a.t]
    rows = []
    for t in times:
        diff = np.abs(ev_a.interp(t, x) - np.asarray(b_fn(x, t)))
        rows.append((float(np.max(diff)), float(math.sqrt(np.sum(diff ** 2) * dx))))
    _write_csv(out_dir / "comparison.csv", times, np.array(rows), "t,linf,l2")
    worst = float(np.max([row[0] for row in rows]))
    print(f"wrote {out_dir / 'comparison.csv'} "
          f"({len(rows)} times, worst Linf {worst:.6g})")
    return 0


def _report_record(res) -> dict:
    """A criterion's record as strict JSON: a non-finite measured value or
    threshold (a gate that raised) is written as null."""
    record = dataclasses.asdict(res)
    for key in ("measured", "threshold"):
        if not math.isfinite(record[key]):
            record[key] = None
    return record


def cmd_verify(cfg: Settings, out_dir: Path) -> int:
    results = run_all(cfg.text("verify", "criteria").replace(",", " ").split() or None)
    report = {"criteria": [_report_record(res) for res in results],
              "all_passed": all(res.passed for res in results)}
    with open(out_dir / "verify_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, allow_nan=False)
    for res in results:
        print(res.line())
    print(f"wrote {out_dir / 'verify_report.json'}")
    return 0 if report["all_passed"] else 1


# Each subcommand's handler, the sections whose keys it consumes (and
# therefore exposes as command-line flags; 'run' is global), and its help.
COMMANDS = {
    "scatter": (cmd_scatter, ("profile", "scatter"),
                "profile in; scattering document and reflection CSV out"),
    "soliton": (cmd_soliton, ("discrete", "soliton"),
                "discrete data in; exact field on an (x, t) grid out"),
    "asymptote": (cmd_asymptote, ("discrete", "cone", "asymptote"),
                  "discrete data and cone in; leading-order field CSV out"),
    "evolve": (cmd_evolve, ("profile", "discrete", "evolve"),
               "initial data in; split-step evolution directory out"),
    "compare": (cmd_compare, ("discrete", "compare"),
                "two stored/closed-form fields in; error table out"),
    "verify": (cmd_verify, ("verify",),
               "run acceptance criteria; machine-readable report out"),
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: ``parse_args`` leaves it as it is and returns a new namespace
    each time."""
    parser = argparse.ArgumentParser(
        prog="fnls",
        description="Pipeline driver: forward scattering, exact pole "
                    "solutions, cone asymptotics and split-step runs.")
    parser.add_argument("--config-reference", action="store_true",
                        help="print a fully documented reference config "
                             "and exit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="INI configuration file")
    common.add_argument("--output-dir", dest="run__output_dir", metavar="DIR",
                        help="where to write artifacts (overrides config and "
                             f"the {OUTPUT_DIR_ENV} environment variable)")
    subparsers = parser.add_subparsers(dest="command")
    for command, (_, sections, summary) in COMMANDS.items():
        sub = subparsers.add_parser(command, parents=[common], help=summary)
        # argparse reads -1e-3, which repr() writes, as a flag: a token that
        # starts as a negative number is a value (no flag starts so)
        sub._negative_number_matcher = re.compile(r"^-\.?\d")
        for section in sections:
            for key, (default, help_text) in SCHEMA[section].items():
                sub.add_argument(
                    f"--{section}-{key.replace('_', '-')}",
                    dest=f"{section}__{key}", metavar="VALUE",
                    help=f"{help_text} (default: {default or 'empty'})")
    return parser


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD
# (malloc.h), each with the value at which glibc's own dynamic rule stops
# raising it on 64-bit builds.
_HEAP_THRESHOLDS = ((-1, 64 << 20), (-3, 32 << 20))


@functools.cache
def _hold_the_heap() -> None:
    """Keep the kernels' temporaries in the heap, once per process.

    At glibc's start-up thresholds, blocks above 128 KiB are mapped afresh
    for each allocation and more than 128 KiB free at the heap's top is
    returned to the OS, so every chunk of the Jost march is faulted in
    again page by page: about 7.6 k minor faults per ``scatter`` of a sech
    profile, against 0-2 from the second call on at these values.  glibc
    raises both thresholds itself only after it frees a larger mapped
    block, as importing SciPy once did by accident.  Only the command sets
    them: importing the library leaves its host's allocator alone.
    Without ``mallopt`` (not glibc) nothing is done."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    for param, value in _HEAP_THRESHOLDS:
        mallopt(param, value)


def main(argv=None) -> int:
    _hold_the_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config_reference:
        sys.stdout.write(config_reference())
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return 2

    overrides = {key: value for key, value in vars(args).items()
                 if "__" in key and value is not None}
    try:
        cfg = Settings(args.config, overrides)
        _check_single_source(cfg)
        out_dir = cfg.output_dir()
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command][0](cfg, out_dir)
    except np.linalg.LinAlgError as exc:
        # A ValueError subclass, but valid input: the solver failed.
        print(f"error: pole solver failed: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        # finite input whose arithmetic overflows, not a solver failure
        print(f"error: input out of range: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        # Domain guards from the library (bad cone, t below the floor,
        # spectral singularity at a real z, non-decaying profile, ...)
        # are input problems by the time they reach the CLI.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
