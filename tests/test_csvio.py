"""The package's CSV writer writes ``np.savetxt``'s bytes, and so does each
of the writers built on it."""

from __future__ import annotations

import numpy as np
import pytest

from fnls import cli, csvio
from fnls.asymptotics import AsymptoticValue, save_asymptotics
from fnls.scattering import InitialProfile
from fnls.solitons import soliton_field
from fnls.splitstep import Evolution, Grid, save_evolution
from profile_file import save_profile

EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.8e308, -1.8e308,
         0.1, 1.0 / 3.0, 2.0 ** 52 + 1.0, 1e-300, 123456789.0]


def _savetxt(path, table, header):
    """The reference: what the package wrote before it had its own writer."""
    np.savetxt(path, table, delimiter=",", fmt="%.17g", header=header, comments="# ")
    return path.read_bytes()


def _wide(rng, *shape):
    """Values over many decades, of both signs."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-30.0, 30.0, shape)


TABLES = {
    "edge-values": np.array(EDGES).reshape(2, 7),
    "edge-column": np.array(EDGES).reshape(-1, 1),
    "one-row": np.array([EDGES[:5]]),
    "one-column": np.arange(5.0).reshape(-1, 1) / 7.0,
    "zero-rows": np.zeros((0, 3)),
    "one-cell": np.array([[np.pi]]),
    "block-boundary": _wide(np.random.default_rng(1), 2 * csvio._BLOCK_ROWS + 1, 4),
    "one-block": _wide(np.random.default_rng(2), csvio._BLOCK_ROWS, 3),
}


@pytest.mark.parametrize("name", TABLES)
def test_writer_bytes_are_savetxt_bytes(tmp_path, name):
    # the first column is the x column, formatted once
    table = TABLES[name]
    csvio.write_grid(tmp_path / "new.csv", table[:, 1:], "a,b,c",
                     csvio.formatted(table[:, 0]))
    assert (tmp_path / "new.csv").read_bytes() == _savetxt(tmp_path / "ref.csv", table,
                                                          "a,b,c")


def test_cli_table_bytes_are_savetxt_bytes(tmp_path):
    table = TABLES["edge-values"]
    cli._write_csv(tmp_path / "new.csv", table[:, 0], table[:, 1:], "h")
    assert (tmp_path / "new.csv").read_bytes() == _savetxt(tmp_path / "ref.csv", table, "h")


# (x_min, x_max, n_x, t_min, t_max, n_t) of the soliton command's grid
GRIDS = {
    "one-time": ("-3", "3", "7", "-0.0", "-0.0", "1"),
    "five-times": ("-3", "3", "7", "0", "1", "5"),
    "one-x": ("1.5", "1.5", "1", "0", "1", "5"),
    "slice-past-a-block": ("-8", "8", str(csvio._BLOCK_ROWS + 3), "0.2", "0.7", "2"),
    "signed-zero-and-17-digits": (repr(-1.0 / 3.0), "-0.0", "7", "0.1", repr(2.0 / 3.0), "3"),
}


@pytest.mark.parametrize("name", GRIDS)
def test_soliton_table_bytes_are_savetxt_bytes(tmp_path, name):
    # the grid's t and x strings are formatted once and reused row by row
    x_min, x_max, n_x, t_min, t_max, n_t = GRIDS[name]
    poles = "0 1 2 0 0 1 0\n0.4 0.6 1 0.5 0.2 0 0"
    assert cli.main(["soliton", "--discrete-poles", poles, "--soliton-x-min", x_min,
                     "--soliton-x-max", x_max, "--soliton-n-x", n_x, "--soliton-t-min", t_min,
                     "--soliton-t-max", t_max, "--soliton-n-t", n_t,
                     "--output-dir", str(tmp_path)]) == 0
    x = np.linspace(float(x_min), float(x_max), int(n_x))
    times = np.linspace(float(t_min), float(t_max), int(n_t))
    t, x_all = np.repeat(times, x.size), np.tile(x, times.size)
    q = soliton_field([cli._parse_pole_line(line) for line in poles.splitlines()], x_all, t)
    ref = _savetxt(tmp_path / "ref.csv", np.column_stack([t, x_all, q.real, q.imag]),
                   "t,x,re_q,im_q")
    assert (tmp_path / "soliton_field.csv").read_bytes() == ref


def test_profile_bytes_are_savetxt_bytes(tmp_path):
    x = np.linspace(-13.0, 13.0, 201)
    q = _wide(np.random.default_rng(3), 201) + 1j * _wide(np.random.default_rng(4), 201)
    q[[0, -1]] = 0.0
    save_profile(InitialProfile(x, q), tmp_path / "new.csv")
    ref = _savetxt(tmp_path / "ref.csv", np.column_stack([x, q.real, q.imag]), "x,re_q,im_q")
    assert (tmp_path / "new.csv").read_bytes() == ref


def test_evolution_slice_bytes_are_savetxt_bytes(tmp_path):
    grid = Grid(n=64, x_min=-10.0, x_max=10.0)
    rng = np.random.default_rng(5)
    q = _wide(rng, 2, 64) + 1j * _wide(rng, 2, 64)
    save_evolution(Evolution(grid, np.array([0.0, 0.5]), q), tmp_path / "ev", dt=None)
    for i in range(2):
        ref = _savetxt(tmp_path / f"ref{i}.csv",
                       np.column_stack([grid.x, q[i].real, q[i].imag]), "x,re_q,im_q")
        assert (tmp_path / "ev" / f"slice_{i:04d}.csv").read_bytes() == ref


def test_asymptotics_bytes_are_savetxt_bytes(tmp_path):
    rng = np.random.default_rng(6)
    x, t = rng.uniform(-5.0, 5.0, (3, 4)), rng.uniform(5.0, 50.0, (3, 4))
    value = AsymptoticValue(x, t, _wide(rng, 3, 4) + 1j * _wide(rng, 3, 4),
                            _wide(rng, 3, 4) + 1j * _wide(rng, 3, 4))
    save_asymptotics(tmp_path / "new.csv", value)
    q = value.q_total.ravel()
    ref = _savetxt(tmp_path / "ref.csv", np.column_stack(
        [x.ravel(), t.ravel(), value.q_sol_part.real.ravel(), value.q_sol_part.imag.ravel(),
         value.f_part.real.ravel(), value.f_part.imag.ravel(), q.real, q.imag]),
        "x,t,re_q_sol,im_q_sol,re_f,im_f,re_q_total,im_q_total")
    assert (tmp_path / "new.csv").read_bytes() == ref
