"""Command-line front end: round trips, error paths, exit codes."""

from __future__ import annotations

import configparser
import json
import math
import os
import platform
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import fnls
from fnls import acceptance
from fnls.cli import SCHEMA, _parse_pole_line, config_reference, main
from fnls.scattering import ScatteringData, load_scattering, save_scattering
from fnls.solitons import soliton_field
from fnls.splitstep import Grid, load_evolution
from profile_file import save_profile


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


# ---------------------------------------------------------------------------
# configuration machinery
# ---------------------------------------------------------------------------

def test_config_reference_is_valid_ini_and_complete():
    text = config_reference()
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    assert set(parser.sections()) == set(SCHEMA)
    for section in SCHEMA:
        assert set(parser.options(section)) == set(SCHEMA[section])
        for key, (default, _) in SCHEMA[section].items():
            assert parser.get(section, key) == default


def test_flag_overrides_config_file(tmp_path, out):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[discrete]\npoles =\n    0 1 2 0 0 1 0\n"
        "[soliton]\nn_x = 11\nx_min = -1\nx_max = 1\n")
    assert run_cli("soliton", "--config", str(cfg),
                   "--soliton-n-x", "5", "--output-dir", str(out)) == 0
    arr = np.loadtxt(out / "soliton_field.csv", delimiter=",", comments="#")
    assert arr.shape == (5, 4)  # flag n_x = 5 beat the config's 11


def test_env_var_sets_output_dir_but_flag_wins(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("FNLS_OUTPUT_DIR", str(env_dir))
    args = ("soliton", "--discrete-poles", "0 1 2 0 0 1 0",
            "--soliton-n-x", "3")
    assert run_cli(*args) == 0
    assert (env_dir / "soliton_field.csv").exists()
    assert run_cli(*args, "--output-dir", str(flag_dir)) == 0
    assert (flag_dir / "soliton_field.csv").exists()


def test_unknown_config_key_is_rejected(tmp_path, out):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[soliton]\nbogus = 1\n")
    assert run_cli("soliton", "--config", str(cfg),
                   "--output-dir", str(out)) == 2


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1"])
def test_negative_value_in_exponent_form_is_a_value(out, value):
    # argparse took only -1 and -1.5 for negative numbers and refused these,
    # which repr() may write, with "expected one argument"
    pole = ("--discrete-poles", "0 1 2 0 0 1 0", "--output-dir", str(out))
    assert run_cli("soliton", *pole, "--soliton-n-x", "3", "--soliton-t-min", value,
                   "--soliton-t-max", "0", "--soliton-n-t", "2") == 0
    arr = np.loadtxt(out / "soliton_field.csv", delimiter=",", comments="#")
    assert arr[0, 0] == float(value)
    assert run_cli("asymptote", *pole, "--cone-x1", value, "--asymptote-t-max", "10",
                   "--asymptote-n-t", "1", "--asymptote-n-x", "3") == 0
    arr = np.loadtxt(out / "asymptotics.csv", delimiter=",", comments="#")
    assert arr[0, 0] == float(value) - 0.5 * 10.0


def test_missing_command_is_an_error(capsys):
    assert run_cli() == 2
    assert "command is required" in capsys.readouterr().err


def _fresh_process(script, *args):
    """The last stdout line of ``script`` run in a new interpreter that
    imports this checkout's ``fnls``, as JSON."""
    src = str(Path(fnls.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# A fresh process that counts the argument parsers built: none at import,
# then those of one `build_parser` over two `main` calls.
PARSER_COUNT = """
import argparse, json, sys

built = []
init = argparse.ArgumentParser.__init__


def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting_init
from fnls.cli import main

at_import = len(built)
codes = [main(["soliton", "--discrete-poles", "0 1 2 0 0 1 0", "--soliton-n-x", str(n),
               "--output-dir", sys.argv[1]]) for n in (3, 4)]
print(json.dumps({"at_import": at_import, "codes": codes, "fnls": built.count("fnls"),
                  "total": len(built)}))
"""


def test_parser_is_built_once_per_process_and_not_at_import(tmp_path):
    report = _fresh_process(PARSER_COUNT, str(tmp_path))
    assert report["at_import"] == 0
    assert report["codes"] == [0, 0]
    assert report["fnls"] == 1
    # the top-level parser, the shared options and one per command
    assert report["total"] == 2 + len(fnls.cli.COMMANDS)


def test_bad_flag_leaves_the_shared_parser_as_it_was(tmp_path, capsys):
    argv = ["soliton", "--discrete-poles", "0 1 2 0 0 1 0", "--soliton-n-x", "5",
            "--soliton-t-max", "1", "--soliton-n-t", "2"]
    assert run_cli(*argv, "--output-dir", str(tmp_path / "alone")) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("soliton", "--soliton-no-such-flag", "1",
                "--output-dir", str(tmp_path / "bad"))
    assert exc.value.code == 2
    assert "--soliton-no-such-flag" in capsys.readouterr().err
    assert run_cli(*argv, "--output-dir", str(tmp_path / "after")) == 0
    assert not (tmp_path / "bad").exists()
    assert ((tmp_path / "after" / "soliton_field.csv").read_bytes()
            == (tmp_path / "alone" / "soliton_field.csv").read_bytes())


# A fresh process with SciPy blocked imports the command line, runs
# `soliton` and `asymptote` (with a dispersive part, so through Gamma) from a
# scattering document, then scatters a sampled profile (so through the
# quintic spline), and notes which scipy modules were loaded.
NO_SCIPY = """
import json, sys
from pathlib import Path

sys.modules["scipy"] = None

import numpy as np

from fnls.cli import main
from fnls.scattering import ScatteringData, save_scattering
from fnls.solitons import DiscreteDatum

out = Path(sys.argv[1])
z = np.linspace(-4.0, 4.0, 161)
save_scattering(ScatteringData(z, 0.3 * np.exp(-z ** 2) + 0j,
                               (DiscreteDatum(0.1 + 0.5j, (1.0, 0.2)),)),
                out / "source.json")
codes = [main([command, "--discrete-file", str(out / "source.json"),
               "--output-dir", str(out / command)])
         for command in ("soliton", "asymptote")]
x = np.linspace(-13.0, 13.0, 201)
np.savetxt(out / "profile.csv", np.column_stack([x, 0.3 * np.exp(-x ** 2), 0.0 * x]),
           delimiter=",")
codes.append(main(["scatter", "--profile-kind", "csv", "--profile-file",
                   str(out / "profile.csv"), "--scatter-n-z", "5",
                   "--output-dir", str(out / "scatter")]))
loaded = sorted(m for m, mod in sys.modules.items()
                if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_no_scipy_module_loads_at_run_time(tmp_path):
    report = _fresh_process(NO_SCIPY, str(tmp_path))
    assert report["codes"] == [0, 0, 0]
    assert report["loaded"] == []
    f = np.loadtxt(tmp_path / "asymptote" / "asymptotics.csv", delimiter=",", comments="#")
    assert np.all(f[:, 4] ** 2 + f[:, 5] ** 2 > 0.0)
    assert len(json.loads((tmp_path / "scatter" / "scattering.json").read_text())["r"]) == 5


# Minor page faults of each of two `scatter` calls in one fresh process.
SCATTER_FAULTS = """
import contextlib, io, json, resource, sys

from fnls.cli import main

faults = []
for call in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["scatter", "--profile-kind", "sech", "--profile-amplitude", "2.0",
                   "--output-dir", f"{sys.argv[1]}/{call}"])
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert rc == 0
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's mallopt")
def test_second_scatter_in_a_process_reuses_the_heap(tmp_path):
    # with glibc's start-up thresholds every call faults in its march
    # temporaries afresh: 6.7-7.6 k minor faults; measured 0-2 here
    first, second = _fresh_process(SCATTER_FAULTS, str(tmp_path))
    assert second < 1000, (first, second)


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------

def test_scatter_zero_profile_reports_empty_discrete_list(tmp_path, out):
    x = np.linspace(-13.0, 13.0, 201)
    profile = tmp_path / "zero.csv"
    np.savetxt(profile, np.column_stack([x, 0.0 * x, 0.0 * x]),
               delimiter=",", header="x,re_q,im_q", comments="# ")
    rc = run_cli("scatter", "--profile-kind", "csv",
                 "--profile-file", str(profile),
                 "--scatter-n-z", "17", "--scatter-box", "-1 1 0.1 2",
                 "--output-dir", str(out))
    assert rc == 0
    doc = json.loads((out / "scattering.json").read_text())
    assert doc["discrete"] == []
    assert all(re == 0.0 and im == 0.0 for re, im in doc["r"])
    arr = np.loadtxt(out / "reflection.csv", delimiter=",", comments="#")
    assert arr.shape == (17, 3)


def test_scatter_non_finite_profile_exits_2_naming_it(tmp_path, out, capsys):
    # a NaN sample once reached the step count of the Jost march and failed
    # there with "cannot convert float NaN to integer"
    x = np.linspace(-13.0, 13.0, 201)
    q = 0.3 * np.exp(-x ** 2)
    q[100] = np.nan
    profile = tmp_path / "nan.csv"
    np.savetxt(profile, np.column_stack([x, q, 0.0 * x]), delimiter=",")
    rc = run_cli("scatter", "--profile-kind", "csv", "--profile-file", str(profile),
                 "--scatter-n-z", "5", "--output-dir", str(out))
    assert rc == 2
    assert "profile samples must be finite" in capsys.readouterr().err
    assert not (out / "scattering.json").exists()


def test_scatter_two_sech_finds_two_simple_zeros(out):
    rc = run_cli("scatter", "--profile-kind", "sech",
                 "--profile-amplitude", "2.0",
                 "--scatter-z-min", "-2", "--scatter-z-max", "2",
                 "--scatter-n-z", "9", "--scatter-box", "-0.6 0.6 0.2 1.9",
                 "--output-dir", str(out))
    assert rc == 0
    doc = json.loads((out / "scattering.json").read_text())
    zeros = sorted((complex(*rec["z"]) for rec in doc["discrete"]),
                   key=lambda z: z.imag)
    assert [rec["order"] for rec in doc["discrete"]] == [1, 1]
    assert zeros[0] == pytest.approx(0.5j, abs=1e-6)
    assert zeros[1] == pytest.approx(1.5j, abs=1e-6)


def test_scatter_box_edge_through_a_zero_exits_2_naming_the_box(out, capsys):
    # the top edge runs through the zero at 1.5i; the search used to move
    # the box and report that zero as found inside it
    rc = run_cli("scatter", "--profile-kind", "sech",
                 "--profile-amplitude", "2.0",
                 "--scatter-box", "-0.6 0.6 0.2 1.5",
                 "--output-dir", str(out))
    assert rc == 2
    assert "(-0.6, 0.6, 0.2, 1.5)" in capsys.readouterr().err
    assert not (out / "scattering.json").exists()


def test_scatter_real_axis_zero_exits_2_naming_z(out, capsys):
    # a half-amplitude sech parks a zero exactly at z = 0
    rc = run_cli("scatter", "--profile-kind", "sech",
                 "--profile-amplitude", "0.5",
                 "--scatter-z-min", "-1", "--scatter-z-max", "1",
                 "--scatter-n-z", "21", "--output-dir", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert "z = 0" in err


def test_order_three_pole_from_scatter_to_soliton(tmp_path, out, triple_pole):
    profile = tmp_path / "triple.csv"
    save_profile(triple_pole.profile, profile)
    assert run_cli("scatter", "--profile-kind", "csv", "--profile-file", str(profile),
                   "--scatter-n-z", "3", "--scatter-box", "-0.5 0.5 0.5 1.5",
                   "--output-dir", str(out)) == 0
    (rec,) = json.loads((out / "scattering.json").read_text())["discrete"]
    assert rec["order"] == 3 and {"c0", "c1", "c2"} <= set(rec)
    rebuilt = tmp_path / "rebuilt"
    assert run_cli("soliton", "--discrete-file", str(out / "scattering.json"),
                   "--soliton-x-min", "-20", "--soliton-x-max", "20",
                   "--soliton-n-x", "8001", "--output-dir", str(rebuilt)) == 0
    arr = np.loadtxt(rebuilt / "soliton_field.csv", delimiter=",", comments="#")
    q = triple_pole.profile.q
    assert np.max(np.abs(arr[:, 2] + 1j * arr[:, 3] - q)) <= 1e-9 * np.max(np.abs(q))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

# A scattering document of an order-2 and an order-1 pole as every earlier
# version wrote it, and the same poles as discrete.poles lines.
PINNED_DOCUMENT = """{
 "z_grid": [
  0.5
 ],
 "r": [
  [
   0.1,
   -0.2
  ]
 ],
 "s11": null,
 "s21": null,
 "discrete": [
  {
   "z": [
    0.0,
    1.0
   ],
   "order": 2,
   "c0": [
    0.36,
    -0.24
   ],
   "c1": [
    1.1,
    0.55
   ],
   "b": [
    0.5,
    0.1
   ],
   "d": [
    -0.0,
    -0.3
   ]
  },
  {
   "z": [
    0.6,
    0.35
   ],
   "order": 1,
   "c0": [
    -0.4,
    0.15
   ],
   "c1": [
    0.0,
    0.0
   ],
   "b": null,
   "d": null
  }
 ]
}"""
PINNED_LINES = ("0 1 2 0.36 -0.24 1.1 0.55", "0.6 0.35 1 -0.4 0.15 0 0")


def test_order_one_and_two_files_read_and_write_as_before(tmp_path):
    doc = tmp_path / "pinned.json"
    doc.write_text(PINNED_DOCUMENT)
    data = load_scattering(doc)
    assert [d.coefficients for d in data.discrete] == [
        (1.1 + 0.55j, 0.36 - 0.24j), (-0.4 + 0.15j,)]
    lines = [_parse_pole_line(line) for line in PINNED_LINES]
    assert [(d.z, d.coefficients) for d in lines] == [
        (d.z, d.coefficients) for d in data.discrete]
    # written back compact: the same document, without its whitespace and
    # without the connection coefficients b and d, which are read and ignored
    again = tmp_path / "again.json"
    save_scattering(data, again)
    pinned = json.loads(PINNED_DOCUMENT)
    for rec in pinned["discrete"]:
        del rec["b"], rec["d"]
    assert again.read_text() == json.dumps(pinned)


def test_order_three_pole_line_and_document(tmp_path, out, triple_pole):
    line = "0 1 3 0.3 0 0.2 0.1 1 0"
    datum = _parse_pole_line(line)
    assert datum == triple_pole.datum
    doc = tmp_path / "triple.json"
    save_scattering(ScatteringData(np.zeros(0), np.zeros(0, complex), (datum,)), doc)
    assert load_scattering(doc).discrete == (datum,)
    for source in (("--discrete-poles", line), ("--discrete-file", str(doc))):
        assert run_cli("soliton", *source, "--soliton-n-x", "41",
                       "--output-dir", str(out)) == 0
        arr = np.loadtxt(out / "soliton_field.csv", delimiter=",", comments="#")
        q = soliton_field((datum,), arr[:, 1], 0.0)
        assert np.array_equal(arr[:, 2] + 1j * arr[:, 3], q)


@pytest.mark.parametrize("field,value", [
    ("order", 2.7), ("order", "2"), ("order", 0), ("order", True), ("order", None),
    ("c1", None), ("c1", [1.0]), ("c2", [0.5, 0.0]), ("c3", [0.0, 0.0])])
def test_malformed_pole_record_exit_2(tmp_path, out, capsys, field, value):
    # "order": 2.7 used to load as an order-2 pole
    doc = json.loads(PINNED_DOCUMENT)
    rec = doc["discrete"][0]
    if value is None and field != "order":
        del rec[field]
    else:
        rec[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("soliton", "--discrete-file", str(path),
                   "--output-dir", str(out)) == 2
    assert "malformed scattering document" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# soliton
# ---------------------------------------------------------------------------

def test_soliton_solver_failure_exits_1_not_bad_input(out, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("fnls.cli.soliton_field", fail)
    rc = run_cli("soliton", "--discrete-poles", "0 1 1 2 0 0 0",
                 "--output-dir", str(out))
    assert rc == 1
    assert "error: pole solver failed: Singular matrix" in capsys.readouterr().err


def test_soliton_breather_on_the_default_window(out):
    # the data 2 sech x scatters to; its all-lower system is singular at x = -20
    rc = run_cli("soliton", "--discrete-poles", "0 0.5 1 0 -2 0 0\n0 1.5 1 0 -6 0 0",
                 "--soliton-t-min", "0.3", "--soliton-t-max", "0.3",
                 "--output-dir", str(out))
    assert rc == 0
    arr = np.loadtxt(out / "soliton_field.csv", delimiter=",", comments="#")
    assert arr.shape == (801, 4) and np.all(np.isfinite(arr))


def test_soliton_empty_discrete_data_gives_zero_field(tmp_path, out):
    doc = tmp_path / "empty.json"
    save_scattering(ScatteringData(np.zeros(0), np.zeros(0, complex), ()), doc)
    rc = run_cli("soliton", "--discrete-file", str(doc),
                 "--soliton-n-x", "21", "--soliton-t-min", "0",
                 "--soliton-t-max", "1", "--soliton-n-t", "2",
                 "--output-dir", str(out))
    assert rc == 0
    arr = np.loadtxt(out / "soliton_field.csv", delimiter=",", comments="#")
    assert arr.shape == (42, 4)
    assert np.all(arr[:, 2:] == 0.0)


def test_soliton_malformed_poles_exit_2(out, capsys):
    assert run_cli("soliton", "--discrete-poles", "0 1 2 0 0",
                   "--output-dir", str(out)) == 2
    assert "7 numbers" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "1e400", "-inf", "nan"])
def test_non_finite_integer_setting_exit_2(out, capsys, value):
    assert run_cli("soliton", "--discrete-poles", "0 1 1 2 0 0 0",
                   f"--soliton-n-x={value}", "--output-dir", str(out)) == 2
    assert "soliton.n_x must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["inf", "nan", "1.5", "0"])
def test_non_integer_pole_order_exit_2(out, capsys, order):
    assert run_cli("soliton", "--discrete-poles", f"0 1 {order} 2 0 0 0",
                   "--output-dir", str(out)) == 2
    assert "order must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("0 1 3 0.3 0 0.2 0.1", "order-3 pole needs c0 to c2"),
    ("0 1 1 2 0 1 0", "order-1 pole must carry c1 = 0"),
    ("0 1 2 2 0 1 0 0.5 0", "order-2 pole must carry c2 = 0"),
    ("0 1 1 0 0 0 0", "leading coefficient c0 of an order-1 pole"),
    ("0 1 2 2 0 0 0", "leading coefficient c1 of an order-2 pole"),
    ("0 1 3 2 0 1 0 0 0", "leading coefficient c2 of an order-3 pole"),
])
def test_pole_line_constants_must_match_the_order_exit_2(out, capsys, line, message):
    # a zero leading coefficient used to pass, warn of a division by zero,
    # exit 0 and write q = 0
    assert run_cli("soliton", "--discrete-poles", line,
                   "--output-dir", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not (out / "soliton_field.csv").exists()


@pytest.mark.parametrize("line,name", [("nan 1 1 2 0 0 0", "z"),
                                       ("0 inf 1 2 0 0 0", "z"),
                                       ("0 1 1 inf 0 0 0", "c0"),
                                       ("0 1 2 0 0 0 nan", "c1"),
                                       ("0 1 3 0 0 0 0 inf 0", "c2")])
def test_non_finite_pole_data_exit_2(out, capsys, line, name):
    assert run_cli("soliton", "--discrete-poles", line,
                   "--output-dir", str(out)) == 2
    assert f"pole {name} must be finite" in capsys.readouterr().err


def test_non_finite_number_setting_exit_2(out, capsys):
    # used to reach the pole solver and exit 1 with "pole solver failed"
    assert run_cli("soliton", "--discrete-poles", "0 1 1 2 0 0 0",
                   "--soliton-x-max", "inf", "--output-dir", str(out)) == 2
    assert "soliton.x_max must be a finite number" in capsys.readouterr().err


def test_non_finite_evolve_step_exit_2_without_manifest(out, capsys):
    # used to take one step of size t_final and write "dt": Infinity
    assert run_cli("evolve", "--discrete-poles", "0 1 1 2 0 0 0",
                   "--evolve-n", "64", "--evolve-dt", "inf",
                   "--output-dir", str(out)) == 2
    assert "evolve.dt must be a finite number" in capsys.readouterr().err
    assert not (out / "evolution" / "manifest.json").exists()


def test_non_finite_number_in_a_list_exit_2(out, capsys):
    assert run_cli("scatter", "--profile-kind", "sech",
                   "--scatter-box", "-0.5 0.5 nan 1.5",
                   "--output-dir", str(out)) == 2
    assert "scatter.box must be a list of finite numbers" in capsys.readouterr().err


def test_soliton_output_is_deterministic(tmp_path):
    args = ("soliton", "--discrete-poles", "0.2 0.9 2 0.1 0 1 0.3",
            "--soliton-n-x", "31", "--soliton-t-min", "-1",
            "--soliton-t-max", "1", "--soliton-n-t", "3")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--output-dir", str(a)) == 0
    assert run_cli(*args, "--output-dir", str(b)) == 0
    assert (a / "soliton_field.csv").read_bytes() == \
        (b / "soliton_field.csv").read_bytes()


# ---------------------------------------------------------------------------
# asymptote
# ---------------------------------------------------------------------------

def test_asymptote_reflectionless_f_column_is_zero(out):
    rc = run_cli("asymptote", "--discrete-poles", "0 1 2 0 0 1 0",
                 "--cone-x1", "-1", "--cone-x2", "-0.5",
                 "--cone-v1", "-0.3", "--cone-v2", "-0.1",
                 "--asymptote-t-min", "10", "--asymptote-t-max", "20",
                 "--asymptote-n-t", "2", "--asymptote-n-x", "5",
                 "--output-dir", str(out))
    assert rc == 0
    arr = np.loadtxt(out / "asymptotics.csv", delimiter=",", comments="#")
    assert arr.shape == (10, 8)
    assert np.all(arr[:, 4:6] == 0.0)
    assert np.array_equal(arr[:, 2:4], arr[:, 6:8])


def _swapped_samples(doc):
    doc["z_grid"][78], doc["z_grid"][82] = doc["z_grid"][82], doc["z_grid"][78]


def _repeated_sample(doc):
    doc["z_grid"][80] = doc["z_grid"][79]


def _reversed_grid(doc):
    doc["z_grid"].reverse()
    doc["r"].reverse()


def _short_r(doc):
    del doc["r"][-1]


@pytest.mark.parametrize("damage,reason", [
    (_swapped_samples, "strictly increasing"),
    (_repeated_sample, "strictly increasing"),
    (_reversed_grid, "strictly increasing"),
    (_short_r, "r has shape (160,)"),
], ids=["swapped", "repeated", "reversed", "short-r"])
def test_asymptote_malformed_reflection_grid_exit_2(tmp_path, out, capsys, damage, reason):
    # the ray density searches and interpolates on the grid: a swapped or
    # repeated sample once moved f silently, a reversed grid failed with
    # "does not bracket z0", and a short r with numpy's own message
    z = np.linspace(-4.0, 4.0, 161)
    source = tmp_path / "source.json"
    save_scattering(ScatteringData(z, 0.3 * np.exp(-z ** 2) + 0j), source)
    doc = json.loads(source.read_text())
    damage(doc)
    source.write_text(json.dumps(doc))
    rc = run_cli("asymptote", "--discrete-file", str(source),
                 "--asymptote-t-min", "20", "--asymptote-t-max", "20",
                 "--asymptote-n-t", "1", "--output-dir", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert "malformed scattering document" in err and reason in err
    assert not (out / "asymptotics.csv").exists()


def test_asymptote_t_below_floor_exit_2(out, capsys):
    rc = run_cli("asymptote", "--discrete-poles", "0 1 2 0 0 1 0",
                 "--asymptote-t-min", "1", "--asymptote-t-max", "1",
                 "--asymptote-n-t", "1", "--output-dir", str(out))
    assert rc == 2
    assert "floor" in capsys.readouterr().err


def test_asymptote_ill_ordered_cone_exit_2(out, capsys):
    rc = run_cli("asymptote", "--discrete-poles", "0 1 2 0 0 1 0",
                 "--cone-x1", "2", "--cone-x2", "-2", "--output-dir", str(out))
    assert rc == 2
    assert "cone bounds must be ordered" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evolve and compare
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def evolved(tmp_path_factory):
    out = tmp_path_factory.mktemp("evolved")
    rc = main(["evolve", "--discrete-poles", "0 1 2 0 0 1 0",
               "--evolve-n", "1024",
               "--evolve-x-min", "-62.831853071795862",
               "--evolve-x-max", "62.831853071795862",
               "--evolve-dt", "2e-3", "--evolve-t-final", "0.5",
               "--output-dir", str(out)])
    assert rc == 0
    return out / "evolution"


def test_evolve_writes_reloadable_slices_and_manifest(evolved):
    manifest = json.loads((evolved / "manifest.json").read_text())
    assert manifest["grid"]["n"] == 1024
    assert manifest["dt"] == 2e-3
    assert manifest["t"] == [0.0, 0.5]
    assert len(manifest["slices"]) == 2
    ev = load_evolution(evolved)
    assert ev.grid == Grid(1024, -62.831853071795862, 62.831853071795862)
    assert ev.q.shape == (2, 1024)
    # t = 0 slice round-trips to the exact sampled field, bit for bit
    from fnls.solitons import DiscreteDatum, soliton_field
    q0 = soliton_field((DiscreteDatum(1j, (1.0, 0.0)),),
                       ev.grid.x, 0.0)
    assert np.array_equal(ev.q[0], q0)


def test_compare_field_with_itself_is_zero(evolved, out):
    rc = run_cli("compare", "--compare-a", str(evolved),
                 "--compare-b", str(evolved),
                 "--compare-x-min", "-10", "--compare-x-max", "10",
                 "--compare-n-x", "101", "--output-dir", str(out))
    assert rc == 0
    arr = np.loadtxt(out / "comparison.csv", delimiter=",", comments="#")
    assert arr.shape == (2, 3)
    assert np.all(arr[:, 1:] == 0.0)


def test_compare_against_closed_form_is_small(evolved, out):
    rc = run_cli("compare", "--compare-a", str(evolved),
                 "--compare-b", "discrete",
                 "--discrete-poles", "0 1 2 0 0 1 0",
                 "--compare-x-min", "-8", "--compare-x-max", "8",
                 "--compare-n-x", "161", "--compare-times", "0.5",
                 "--output-dir", str(out))
    assert rc == 0
    assert (out / "comparison.csv").read_text().splitlines()[0] == "# t,linf,l2"
    t, linf, l2 = np.loadtxt(out / "comparison.csv", delimiter=",", comments="#")
    assert t == 0.5
    # dt^2 splitting error plus the 1024-mode interpolation tail
    assert 0.0 < linf < 5e-3
    assert 0.0 < l2


def test_compare_disjoint_window_exit_2(evolved, out, capsys):
    rc = run_cli("compare", "--compare-a", str(evolved),
                 "--compare-b", str(evolved),
                 "--compare-x-min", "100", "--compare-x-max", "120",
                 "--output-dir", str(out))
    assert rc == 2
    assert "disjoint" in capsys.readouterr().err


@pytest.mark.parametrize("which, window", [("A", ("-20", "80")), ("A", ("-70", "0")),
                                           ("B", ("-20", "20"))])
def test_compare_window_past_a_stored_grid_exit_2(evolved, tmp_path, out, capsys,
                                                  which, window):
    # x = 80 on [-62.8, 62.8) used to be read at its periodic image, about
    # -45.7, with exit 0
    narrow = _copy_evolution(evolved, tmp_path / "narrow",
                             lambda manifest: manifest["grid"].update(x_min=-10.0,
                                                                      x_max=10.0))
    b = narrow if which == "B" else evolved
    rc = run_cli("compare", "--compare-a", str(evolved), "--compare-b", str(b),
                 "--compare-x-min", window[0], "--compare-x-max", window[1],
                 "--output-dir", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert "is not inside" in err and f"of evolution {which}" in err
    assert not (out / "comparison.csv").exists()


def test_compare_window_of_the_whole_grid_is_accepted(evolved, out):
    edge = "62.831853071795862"
    assert run_cli("compare", "--compare-a", str(evolved), "--compare-b", str(evolved),
                   "--compare-x-min", f"-{edge}", "--compare-x-max", edge,
                   "--output-dir", str(out)) == 0
    assert np.all(np.loadtxt(out / "comparison.csv", delimiter=",")[:, 1:] == 0.0)


def test_compare_missing_evolution_exit_2(tmp_path, out):
    rc = run_cli("compare", "--compare-a", str(tmp_path / "nowhere"),
                 "--compare-b", "discrete",
                 "--discrete-poles", "0 1 2 0 0 1 0",
                 "--output-dir", str(out))
    assert rc == 2


def test_both_data_sources_exit_2(tmp_path, out, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[profile]\nkind = sech\n"
                   "[discrete]\npoles =\n    0 1 2 0 0 1 0\n")
    assert run_cli("soliton", "--config", str(cfg),
                   "--output-dir", str(out)) == 2
    assert "exactly one data source" in capsys.readouterr().err


def test_evolve_has_no_edge_guard_setting(tmp_path, out, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("evolve", "--profile-kind", "sech", "--evolve-edge-guard", "1e-10",
                "--output-dir", str(out))
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[evolve]\nedge_guard = 1e-10\n")
    assert run_cli("evolve", "--config", str(cfg), "--profile-kind", "sech",
                   "--output-dir", str(out)) == 2
    assert "unknown config key 'edge_guard'" in capsys.readouterr().err


@pytest.mark.parametrize("command,section,key,args", [
    ("scatter", "profile", "tail_tol", ("--profile-kind", "sech")),
    ("asymptote", "asymptote", "min_t", ("--discrete-poles", "0 1 2 0 0 1 0")),
    # the errors are reported unscaled, p = 0 being the one value in use
    ("compare", "compare", "scale_exponent", ("--compare-b", "discrete")),
])
def test_fixed_bounds_have_no_setting(tmp_path, out, capsys, command, section, key, args):
    flag = f"--{section}-{key.replace('_', '-')}"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *args, flag, "1", "--output-dir", str(out))
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{section}]\n{key} = 1\n")
    assert run_cli(command, "--config", str(cfg), *args, "--output-dir", str(out)) == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_scatter_of_a_profile_that_does_not_decay_exit_2(out, capsys):
    # sech x is 1.3e-2 of its peak at x = 5: far above the fixed tail bound
    rc = run_cli("scatter", "--profile-kind", "sech", "--profile-x-min", "-5",
                 "--profile-x-max", "5", "--profile-n", "101", "--output-dir", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert "tail does not decay" in err and "exceeds 1.0e-10 of the peak" in err
    assert not (out / "scattering.json").exists()


def test_evolve_reports_the_edge_fraction_as_data(out, capsys):
    # sech x on [-4, 4): its mass reaches the edges, which is reported in
    # the summary line and the manifest, and raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli("evolve", "--profile-kind", "sech", "--evolve-n", "256",
                     "--evolve-x-min", "-4", "--evolve-x-max", "4",
                     "--evolve-t-final", "0.01", "--output-dir", str(out))
    assert rc == 0
    fraction = json.loads((out / "evolution" / "manifest.json").read_text())["edge_fraction"]
    assert fraction > 1e-4
    assert f"edge mass fraction {fraction:.3e}" in capsys.readouterr().out


def test_evolve_sample_past_t_final_exit_2_without_manifest(out, capsys):
    # used to integrate on to the sample, past t_final
    assert run_cli("evolve", "--profile-kind", "sech", "--evolve-n", "64",
                   "--evolve-t-final", "0.1", "--evolve-t-samples", "0.05 0.2",
                   "--output-dir", str(out)) == 2
    assert "sample times must lie in (t_start, t_final]" in capsys.readouterr().err
    assert not (out / "evolution" / "manifest.json").exists()


def _copy_evolution(src, dst, damage):
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    manifest = json.loads((src / "manifest.json").read_text())
    damage(manifest)
    (dst / "manifest.json").write_text(json.dumps(manifest))
    return dst


def _no_grid(manifest):
    del manifest["grid"]


def _extra_time(manifest):
    manifest["t"].append(1.0)


def _nan_time(manifest):
    manifest["t"][-1] = float("nan")


@pytest.mark.parametrize("which", ["a", "b"])
def test_compare_malformed_evolution_exit_2(evolved, tmp_path, out, capsys, which):
    # a manifest without "grid" used to raise KeyError, and one more time
    # than slices an IndexError from slice_at, both with exit 1; a nan time
    # read as the first slice and wrote a row for t = nan with exit 0
    for damage, reason in ((_no_grid, "grid"), (_extra_time, "2 slices"),
                           (_nan_time, "finite")):
        bad = _copy_evolution(evolved, tmp_path / f"bad{damage.__name__}", damage)
        a, b = (bad, evolved) if which == "a" else (evolved, bad)
        assert run_cli("compare", "--compare-a", str(a), "--compare-b", str(b),
                       "--compare-x-min", "-10", "--compare-x-max", "10",
                       "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert f"malformed evolution {which.upper()}" in err and reason in err
        assert not (out / "comparison.csv").exists()


POLE = "0 1 2 0 0 1 0"

# One bad grid per section, an unreadable and a malformed file of each
# kind, and finite input whose arithmetic overflows; {name} is a path from
# _bad_files.  The profile CSVs, evolve.n = 0 and the two overflows used to
# escape as tracebacks with exit 1; evolve.n = 1 ran to an edge fraction of
# 2; and a soliton grid of one x with x_min < x_max, or of several points
# with equal ends, was read.
REFUSALS = [
    pytest.param(["scatter", "--profile-kind", "sech", "--profile-x-min", "1",
                  "--profile-x-max", "-1"], "bad grid in [profile]", id="profile-order"),
    pytest.param(["scatter", "--profile-kind", "sech", "--profile-n", "1"],
                 "bad grid in [profile]", id="profile-n"),
    pytest.param(["scatter", "--profile-kind", "sech", "--scatter-n-z", "1"],
                 "bad grid in [scatter]", id="scatter-n"),
    pytest.param(["soliton", "--discrete-poles", POLE, "--soliton-n-x", "1"],
                 "bad grid in [soliton]", id="soliton-one-x-of-two-ends"),
    pytest.param(["soliton", "--discrete-poles", POLE, "--soliton-x-min", "1",
                  "--soliton-x-max", "1"], "bad grid in [soliton]", id="soliton-equal-x"),
    pytest.param(["soliton", "--discrete-poles", POLE, "--soliton-n-t", "3"],
                 "bad grid in [soliton]", id="soliton-equal-t"),
    pytest.param(["soliton", "--discrete-poles", POLE, "--soliton-t-min", "1",
                  "--soliton-n-t", "2"], "bad grid in [soliton]", id="soliton-t-order"),
    pytest.param(["asymptote", "--discrete-poles", POLE, "--asymptote-n-t", "0"],
                 "bad grid in [asymptote]", id="asymptote-n-t"),
    pytest.param(["evolve", "--discrete-poles", POLE, "--evolve-n", "0"],
                 "bad grid in [evolve]", id="evolve-n0"),
    pytest.param(["evolve", "--discrete-poles", POLE, "--evolve-n", "1"],
                 "bad grid in [evolve]", id="evolve-n1"),
    pytest.param(["evolve", "--discrete-poles", POLE, "--evolve-x-min", "1",
                  "--evolve-x-max", "1"], "bad grid in [evolve]", id="evolve-equal-x"),
    pytest.param(["evolve", "--profile-kind", "gaussian", "--profile-amplitude", "1e160",
                  "--evolve-n", "64"], "|q0|^2 must be finite at every sample",
                 id="evolve-squared-modulus-overflows"),
    pytest.param(["soliton", "--discrete-poles", "0 1e308 1 1 0 0 0"],
                 "input out of range", id="soliton-pole-far-up-overflows"),
    pytest.param(["scatter", "--profile-kind", "sech", "--scatter-box",
                  "-1e300 1e300 0.1 1e300"], "input out of range",
                 id="scatter-box-overflows"),
    pytest.param(["compare", "--compare-a", "{evolved}", "--compare-b", "discrete",
                  "--discrete-poles", POLE, "--compare-n-x", "1"],
                 "bad grid in [compare]", id="compare-n"),
    pytest.param(["soliton", "--config", "{missing}"], "cannot read config file",
                 id="config-unreadable"),
    pytest.param(["soliton", "--config", "{no_header}"], "malformed config file",
                 id="config-malformed"),
    pytest.param(["scatter", "--profile-kind", "csv", "--profile-file", "{missing}"],
                 "cannot read profile file", id="profile-unreadable"),
    pytest.param(["scatter", "--profile-kind", "csv", "--profile-file", "{two_columns}"],
                 "malformed profile file", id="profile-two-columns"),
    pytest.param(["scatter", "--profile-kind", "csv", "--profile-file", "{one_row}"],
                 "malformed profile file", id="profile-one-row"),
    pytest.param(["evolve", "--profile-kind", "csv", "--profile-file", "{two_columns}",
                  "--evolve-n", "64"], "malformed profile file", id="evolve-profile-two-columns"),
    pytest.param(["evolve", "--profile-kind", "csv", "--profile-file", "{one_row}",
                  "--evolve-n", "64"], "malformed profile file", id="evolve-profile-one-row"),
    pytest.param(["soliton", "--discrete-file", "{missing}"],
                 "cannot read scattering document", id="scattering-unreadable"),
    pytest.param(["soliton", "--discrete-file", "{not_json}"],
                 "malformed scattering document", id="scattering-malformed"),
    pytest.param(["compare", "--compare-a", "{missing}", "--compare-b", "{evolved}"],
                 "cannot read evolution A", id="evolution-a-unreadable"),
    pytest.param(["compare", "--compare-a", "{evolved}", "--compare-b", "{missing}"],
                 "cannot read evolution B", id="evolution-b-unreadable"),
    pytest.param(["compare", "--compare-a", "{not_json_evolution}", "--compare-b",
                  "{evolved}"], "malformed evolution A", id="evolution-a-malformed"),
    pytest.param(["compare", "--compare-a", "{evolved}", "--compare-b",
                  "{one_mode_evolution}"], "malformed evolution B: a grid needs n >= 2",
                 id="evolution-b-one-mode"),
]


def _bad_files(tmp_path, evolved):
    files = {"evolved": evolved, "missing": tmp_path / "missing",
             "no_header": tmp_path / "no_header.ini",
             "two_columns": tmp_path / "two_columns.csv",
             "one_row": tmp_path / "one_row.csv", "not_json": tmp_path / "not.json",
             "not_json_evolution": tmp_path / "not_json_evolution"}
    files["no_header"].write_text("n_x = 5\n")
    files["two_columns"].write_text("0,1\n1,2\n")
    files["one_row"].write_text("0,1,0\n")
    files["not_json"].write_text("{")
    files["not_json_evolution"].mkdir()
    (files["not_json_evolution"] / "manifest.json").write_text("{")
    files["one_mode_evolution"] = _copy_evolution(
        evolved, tmp_path / "one_mode_evolution",
        lambda manifest: manifest["grid"].update(n=1))
    return files


@pytest.mark.parametrize("argv, message", REFUSALS)
def test_bad_grid_or_file_exit_2_with_its_message(evolved, tmp_path, out, capsys,
                                                  argv, message):
    files = _bad_files(tmp_path, evolved)
    argv = [arg.format(**files) for arg in argv]
    assert run_cli(*argv, "--output-dir", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_evolve_needs_some_source(out, capsys):
    assert run_cli("evolve", "--output-dir", str(out)) == 2
    assert "profile or a discrete source" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_writes_machine_readable_report(out, capsys):
    rc = run_cli("verify", "--verify-criteria", "7", "--output-dir", str(out))
    assert rc == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    (entry,) = report["criteria"]
    assert list(entry) == ["id", "description", "measured", "threshold", "passed",
                           "detail", "seconds"]
    assert entry["id"] == "7"
    assert entry["passed"] is True
    assert 0.0 <= entry["measured"] < entry["threshold"]
    assert math.isfinite(entry["seconds"]) and entry["seconds"] >= 0.0
    assert "criterion 7" in capsys.readouterr().out


def test_verify_unknown_criterion_exit_2(out, monkeypatch, capsys):
    # every id is checked before any gate runs
    ran = []
    monkeypatch.setitem(acceptance.CRITERIA, "7",
                        (lambda: ran.append("7"), acceptance.CRITERIA["7"][1]))
    assert run_cli("verify", "--verify-criteria", "7,42", "--output-dir", str(out)) == 2
    assert "unknown criterion '42'" in capsys.readouterr().err
    assert ran == []


def test_verify_criteria_without_ids_runs_all(out, monkeypatch):
    # a list of separators only is empty, not a request for no gates
    ran = []
    for cid, (_, description) in list(acceptance.CRITERIA.items()):
        monkeypatch.setitem(acceptance.CRITERIA, cid, (
            lambda cid=cid: ran.append(cid) or (0.0, 1.0, True, ""), description))
    assert run_cli("verify", "--verify-criteria", ",", "--output-dir", str(out)) == 0
    assert ran == list(acceptance.CRITERIA)


def test_verify_reports_a_raising_gate_as_failed(out, monkeypatch, capsys):
    def boom():
        time.sleep(0.02)
        raise RuntimeError("no zero found")

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    monkeypatch.setitem(acceptance.CRITERIA, "6", (boom, acceptance.CRITERIA["6"][1]))
    assert run_cli("verify", "--verify-criteria", "7,6", "--output-dir", str(out)) == 1
    report = json.loads((out / "verify_report.json").read_text(), parse_constant=refuse)
    seven, six = report["criteria"]
    assert report["all_passed"] is False
    assert seven["id"] == "7" and seven["passed"] is True
    assert six["id"] == "6" and six["passed"] is False
    assert six["measured"] is None and six["threshold"] is None
    assert six["detail"] == "RuntimeError: no zero found"
    # a gate that raised is timed too
    assert math.isfinite(seven["seconds"]) and seven["seconds"] >= 0.0
    assert math.isfinite(six["seconds"]) and six["seconds"] >= 0.02
    assert "[FAIL] criterion 6" in capsys.readouterr().out


def test_criterion_5_fails_on_a_nan_part(monkeypatch):
    # the NaN part is not the first, so a max that drops NaN would pass it
    monkeypatch.setattr(acceptance, "delta_fn", lambda *args: complex("nan"))
    measured, _, passed, detail = acceptance.criterion_5()
    assert math.isnan(measured) and not passed
    assert "large-z coefficient of delta: nan" in detail


def test_criterion_7_fails_on_a_nan_residual(monkeypatch):
    solve, calls = acceptance.solve_soliton, []

    def second_is_nan(*args):
        state = solve(*args)
        calls.append(state)
        if len(calls) == 2:
            state.residual = math.nan
        return state

    monkeypatch.setattr(acceptance, "solve_soliton", second_is_nan)
    measured, _, passed, _ = acceptance.criterion_7()
    assert math.isnan(measured) and not passed


def test_criterion_6_keeps_its_description_when_it_fails(out, monkeypatch):
    monkeypatch.setattr(acceptance, "extract_scattering",
                        lambda profile, z_grid, box: ScatteringData([], []))
    assert run_cli("verify", "--verify-criteria", "6", "--output-dir", str(out)) == 1
    (six,) = json.loads((out / "verify_report.json").read_text())["criteria"]
    assert six["description"] == "scattering round trip (worst ratio to tolerance)"
    assert six["detail"] == "RuntimeError: located []"
