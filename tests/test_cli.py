"""Command-line front end: round trips, error paths, exit codes."""

from __future__ import annotations

import configparser
import json

import numpy as np
import pytest

from fnls.cli import SCHEMA, config_reference, main
from fnls.scattering import ScatteringData, save_scattering
from fnls.splitstep import Grid, load_evolution


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


def test_missing_command_is_an_error(capsys):
    assert run_cli() == 2
    assert "command is required" in capsys.readouterr().err


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


def test_scatter_real_axis_zero_exits_2_naming_z(out, capsys):
    # a half-amplitude sech parks a zero exactly at z = 0
    rc = run_cli("scatter", "--profile-kind", "sech",
                 "--profile-amplitude", "0.5",
                 "--scatter-z-min", "-1", "--scatter-z-max", "1",
                 "--scatter-n-z", "21", "--output-dir", str(out))
    assert rc == 2
    err = capsys.readouterr().err
    assert "z = 0" in err


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


@pytest.mark.parametrize("order", ["inf", "nan", "1.5"])
def test_non_integer_pole_order_exit_2(out, capsys, order):
    assert run_cli("soliton", "--discrete-poles", f"0 1 {order} 2 0 0 0",
                   "--output-dir", str(out)) == 2
    assert "discrete.poles order must be 1 or 2" in capsys.readouterr().err


@pytest.mark.parametrize("line,name", [("nan 1 1 2 0 0 0", "z"),
                                       ("0 inf 1 2 0 0 0", "z"),
                                       ("0 1 1 inf 0 0 0", "c0"),
                                       ("0 1 2 0 0 0 nan", "c1")])
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


def test_asymptote_t_below_floor_exit_2(out, capsys):
    rc = run_cli("asymptote", "--discrete-poles", "0 1 2 0 0 1 0",
                 "--asymptote-t-min", "1", "--asymptote-t-max", "1",
                 "--asymptote-n-t", "1", "--output-dir", str(out))
    assert rc == 2
    assert "floor" in capsys.readouterr().err


def test_asymptote_ill_ordered_cone_exit_2(out):
    rc = run_cli("asymptote", "--discrete-poles", "0 1 2 0 0 1 0",
                 "--cone-x1", "2", "--cone-x2", "-2", "--output-dir", str(out))
    assert rc == 2


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
    q0 = soliton_field((DiscreteDatum(1j, order=2, c0=0.0, c1=1.0),),
                       ev.grid.x, 0.0)
    assert np.array_equal(ev.q[0], q0)


def test_compare_field_with_itself_is_zero(evolved, out):
    rc = run_cli("compare", "--compare-a", str(evolved),
                 "--compare-b", str(evolved),
                 "--compare-x-min", "-10", "--compare-x-max", "10",
                 "--compare-n-x", "101", "--output-dir", str(out))
    assert rc == 0
    arr = np.loadtxt(out / "comparison.csv", delimiter=",", comments="#")
    assert arr.shape == (2, 5)
    assert np.all(arr[:, 1:] == 0.0)


def test_compare_against_closed_form_is_small(evolved, out):
    rc = run_cli("compare", "--compare-a", str(evolved),
                 "--compare-b", "discrete",
                 "--discrete-poles", "0 1 2 0 0 1 0",
                 "--compare-x-min", "-8", "--compare-x-max", "8",
                 "--compare-n-x", "161", "--compare-times", "0.5",
                 "--compare-scale-exponent", "0.75",
                 "--output-dir", str(out))
    assert rc == 0
    t, linf, l2, slinf, sl2 = np.loadtxt(out / "comparison.csv",
                                         delimiter=",", comments="#")
    assert t == 0.5
    # dt^2 splitting error plus the 1024-mode interpolation tail
    assert 0.0 < linf < 5e-3
    assert slinf == pytest.approx(0.5 ** 0.75 * linf)
    assert sl2 == pytest.approx(0.5 ** 0.75 * l2)


def test_compare_disjoint_window_exit_2(evolved, out, capsys):
    rc = run_cli("compare", "--compare-a", str(evolved),
                 "--compare-b", str(evolved),
                 "--compare-x-min", "100", "--compare-x-max", "120",
                 "--output-dir", str(out))
    assert rc == 2
    assert "disjoint" in capsys.readouterr().err


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
    assert entry["id"] == "7"
    assert entry["passed"] is True
    assert 0.0 <= entry["measured"] < entry["threshold"]
    assert "criterion 7" in capsys.readouterr().out


def test_verify_unknown_criterion_exit_2(out, capsys):
    assert run_cli("verify", "--verify-criteria", "42",
                   "--output-dir", str(out)) == 2
    assert "unknown criterion" in capsys.readouterr().err
