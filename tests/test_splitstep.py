from __future__ import annotations

import warnings

import numpy as np
import pytest

from fnls.splitstep import Grid, fourier_interpolate, pde_residual, split_step

from invariants import conserved, conserved_drift, sech_soliton


@pytest.fixture(scope="module")
def sech_run():
    grid = Grid()
    sol = sech_soliton(1.0)
    ev = split_step(sol(grid.x, 0.0), grid, 1.0, dt=1e-3,
                    t_samples=[0.25, 0.5, 0.75])
    return grid, sol, ev


def test_sech_soliton_linf(sech_run):
    grid, sol, ev = sech_run
    err = np.max(np.abs(ev.q[-1] - sol(grid.x, 1.0)))
    assert err < 1e-6


def test_mass_conserved_to_1e10(sech_run):
    _, _, ev = sech_run
    drift = conserved_drift(ev)
    assert drift["mass"] < 1e-10


def test_all_conserved_quantities_drift(sech_run):
    _, _, ev = sech_run
    drift = conserved_drift(ev)
    assert max(drift.values()) < 1e-8


def test_strang_is_second_order():
    grid = Grid(1024, -16 * np.pi, 16 * np.pi)
    sol = sech_soliton(1.5)
    q0 = sol(grid.x, 0.0)
    ref = sol(grid.x, 1.0)
    errs = []
    for dt in (2e-3, 1e-3):
        ev = split_step(q0, grid, 1.0, dt=dt)
        errs.append(np.max(np.abs(ev.q[-1] - ref)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_triple_jump_is_fourth_order():
    grid = Grid(1024, -16 * np.pi, 16 * np.pi)
    sol = sech_soliton(1.5)
    q0 = sol(grid.x, 0.0)
    ref = sol(grid.x, 1.0)
    errs = []
    for dt in (4e-3, 2e-3):
        ev = split_step(q0, grid, 1.0, dt=dt, order=4)
        errs.append(np.max(np.abs(ev.q[-1] - ref)))
    ratio = errs[0] / errs[1]
    assert 11.0 < ratio < 22.0


def test_closed_form_has_tiny_residual():
    grid = Grid(1024, -16 * np.pi, 16 * np.pi)
    res = pde_residual(sech_soliton(1.0), grid, [0.3, 0.7], h_t=5e-3)
    assert res < 1e-9


def test_non_solution_has_order_one_residual():
    grid = Grid(1024, -16 * np.pi, 16 * np.pi)
    sol = sech_soliton(1.0)

    def bad(x, t):
        return sol(x, t) * np.exp(0.3j * t * np.tanh(x))

    assert pde_residual(bad, grid, [0.5]) > 1e-3


def test_residual_window_restriction():
    grid = Grid(512, -8 * np.pi, 8 * np.pi)
    sol = sech_soliton(1.0)

    def tail_perturbed(x, t):
        # large defect confined to |x| > 15, so a window excludes it
        return sol(x, t) + 0.1 * np.exp(-((np.abs(x) - 20.0) ** 2))

    full = pde_residual(tail_perturbed, grid, [0.5])
    windowed = pde_residual(tail_perturbed, grid, [0.5], x_window=(-5, 5))
    assert full > 1e-2
    assert windowed < full / 10


def test_edge_fraction_reports_wraparound_risk():
    # the risk is data on the result, not a warning
    grid = Grid(256, -8 * np.pi, 8 * np.pi)
    q0 = np.ones(grid.n, dtype=complex)  # mass right up to the boundary
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = split_step(q0, grid, 0.01, dt=1e-3)
    assert ev.edge_fraction > 0.1


def test_fourier_interpolation_matches_closed_form_off_grid():
    grid = Grid(512, -8 * np.pi, 8 * np.pi)
    sol = sech_soliton(1.0)
    q = sol(grid.x, 0.4)
    x_new = np.linspace(-3.0, 3.0, 41) + 0.12345 * grid.dx
    vals = fourier_interpolate(q, grid, x_new)
    assert np.max(np.abs(vals - sol(x_new, 0.4))) < 1e-10


def _direct_synthesis(q, grid, x_new):
    """The trigonometric interpolant summed mode by mode: one exponential
    per (point, mode)."""
    coeffs = np.fft.fft(q) / grid.n
    return np.exp(1j * np.outer(x_new - grid.x_min, grid.k)) @ coeffs


@pytest.mark.parametrize("n", [4096, 4095, 512, 511, 7, 2])
def test_fourier_interpolation_matches_direct_synthesis(n):
    grid = Grid(n, -40 * np.pi, 40 * np.pi)
    if n > 64:
        q = 1.3 / np.cosh(1.3 * grid.x) * np.exp(0.3j * grid.x)
    else:
        q = np.random.default_rng(n).normal(size=(n, 2)) @ np.array([1.0, 1j])
    inside = np.linspace(-20.0, 20.0, 801)
    # periodic images of the inside points, one to three periods away
    length = grid.x_max - grid.x_min
    outside = np.concatenate([inside[::40] + p * length for p in (1, -1, 3)]
                             + [[grid.x_max]])
    for x_new in (inside, outside):
        direct = _direct_synthesis(q, grid, x_new)
        vals = fourier_interpolate(q, grid, x_new)
        assert np.max(np.abs(vals - direct)) <= 1e-13 * np.max(np.abs(q))


@pytest.mark.parametrize("n, x_min, x_max", [(0, -1.0, 1.0), (1, -1.0, 1.0), (8, 1.0, 1.0),
                                            (8, np.nan, 1.0), (8, -1.0, np.inf),
                                            (8.5, -1.0, 1.0), (8.0, -1.0, 1.0)])
def test_grid_refuses_a_degenerate_domain(n, x_min, x_max):
    # n = 0 divided by zero in dx, and n = 1 counted its one point as both
    # edges, for an edge fraction of 2; n = 8.5 passed and failed later, in
    # numpy.fft, at grid.k
    with pytest.raises(ValueError, match="a grid needs n >= 2 modes"):
        Grid(n, x_min, x_max)


def test_interp_requires_stored_sample():
    grid = Grid(256, -8 * np.pi, 8 * np.pi)
    ev = split_step(sech_soliton(1.0)(grid.x, 0.0), grid, 0.5, dt=1e-3)
    # nan used to pass the distance check and read the first slice
    for t in (0.123, np.nan):
        with pytest.raises(ValueError):
            ev.slice_at(t)


def test_conserved_values_of_sech():
    # closed forms for A sech(Ax): mass 2A, momentum 0, energy -A^3/3
    grid = Grid(2048, -20 * np.pi, 20 * np.pi)
    a = 1.3
    vals = conserved(sech_soliton(a)(grid.x, 0.0), grid)
    assert abs(vals["mass"] - 2 * a) < 1e-10
    assert abs(vals["momentum"]) < 1e-12
    assert abs(vals["energy"] + a ** 3 / 3) < 1e-9


# Reference compositions with no merged flows: one Strang sweep per segment
# at order 2, three one-step Strang sweeps per step at order 4.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1


def _strang_sweep(q, k2, h, steps):
    half = np.exp(-0.25j * k2 * h)
    full = half * half
    q = np.fft.ifft(np.fft.fft(q) * half)
    for s in range(steps):
        q = q * np.exp(1j * h * np.abs(q) ** 2)
        q = np.fft.ifft(np.fft.fft(q) * (full if s < steps - 1 else half))
    return q


def _reference_run(q, grid, times, dt, order):
    k2 = grid.k ** 2
    out, t_prev, steps_taken = [], 0.0, 0
    for t_next in times:
        steps = max(1, int(round((t_next - t_prev) / dt)))
        h = (t_next - t_prev) / steps
        if order == 2:
            q = _strang_sweep(q, k2, h, steps)
        else:
            for _ in range(steps):
                for w in (_W1, _W0, _W1):
                    q = _strang_sweep(q, k2, w * h, 1)
        out.append(q)
        t_prev, steps_taken = t_next, steps_taken + steps
    return np.array(out), steps_taken


@pytest.mark.parametrize("order", [2, 4])
def test_composition_sweep_matches_the_strang_compositions(order):
    grid = Grid(512, -8 * np.pi, 8 * np.pi)
    q0 = (1.4 / np.cosh(grid.x + 2.0) * np.exp(0.5j * grid.x)
          + 0.6 * np.exp(-(grid.x - 3.0) ** 2))
    times = [0.3, 0.7, 1.2]
    dt = 2e-3
    ref, steps = _reference_run(q0.astype(complex), grid, times, dt, order)
    assert steps >= 500
    ev = split_step(q0, grid, times[-1], dt=dt, t_samples=times[:-1],
                    order=order)
    assert np.max(np.abs(ev.q[1:] - ref)) <= 1e-11


def test_split_step_rejects_bad_order_and_step():
    grid = Grid(64, -4 * np.pi, 4 * np.pi)
    q0 = sech_soliton(1.0)(grid.x, 0.0)
    with pytest.raises(ValueError, match="order"):
        split_step(q0, grid, 0.1, order=3)
    for dt in (0.0, -1e-3, np.inf, np.nan):
        with pytest.raises(ValueError, match="dt"):
            split_step(q0, grid, 0.1, dt=dt)


def test_split_step_refuses_samples_outside_the_run():
    # a sample past t_final used to extend the run to it: t_final = 1 with
    # samples 0.5 and 2.0 returned t = [0, 0.5, 1, 2]
    grid = Grid(64, -4 * np.pi, 4 * np.pi)
    q0 = sech_soliton(1.0)(grid.x, 0.0)
    for samples in ([0.5, 2.0], [0.0, 0.5], [-0.5], [np.nan], [1.0 + 1e-12]):
        with pytest.raises(ValueError, match=r"\(t_start, t_final\]"):
            split_step(q0, grid, 1.0, dt=1e-2, t_samples=samples)
    ev = split_step(q0, grid, 1.0, dt=1e-2, t_samples=np.array([0.5, 1.0]))
    assert ev.t.tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match="t_final must lie past t_start"):
        split_step(q0, grid, 0.5, dt=1e-2, t_start=1.0)


@pytest.mark.parametrize("times", [{"t_final": np.inf}, {"t_final": 1.0, "t_start": -np.inf},
                                   {"t_final": np.nan}])
def test_split_step_refuses_times_that_are_not_finite(times):
    # an infinite span raised OverflowError from the step count
    grid = Grid(64, -4 * np.pi, 4 * np.pi)
    q0 = sech_soliton(1.0)(grid.x, 0.0)
    name = "t_start" if "t_start" in times else "t_final"
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        split_step(q0, grid, dt=1e-2, **times)


def test_split_step_refuses_a_q0_whose_squared_modulus_is_not_finite():
    # a nan sample, or |q|^2 past the float range, used to give an all-nan
    # run with edge_fraction = nan and no error
    grid = Grid(64, -4 * np.pi, 4 * np.pi)
    with_nan = sech_soliton(1.0)(grid.x, 0.0)
    with_nan[5] = complex(np.nan, 0.0)
    huge = sech_soliton(1.0)(grid.x, 0.0)
    huge[[10, 20, 30]] = 1e160
    for q0, bad in ((with_nan, 1), (huge, 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"finite at every sample; {bad} of 64 "):
                split_step(q0, grid, 0.1, dt=1e-2)


def test_in_place_sweep_keeps_what_it_recorded():
    grid = Grid(256, -8 * np.pi, 8 * np.pi)
    q0 = 1.3 / np.cosh(grid.x) * np.exp(0.4j * grid.x)
    kept = q0.copy()
    ev = split_step(q0, grid, 0.3, dt=1e-2, t_samples=[0.1, 0.2], order=4)
    assert q0.tobytes() == kept.tobytes()
    assert ev.q[0].tobytes() == kept.tobytes()
    for i, t in enumerate(ev.t[1:], start=1):
        alone = split_step(q0, grid, t, dt=1e-2, t_samples=ev.t[1:i], order=4)
        assert ev.q[i].tobytes() == alone.q[-1].tobytes()


@pytest.mark.parametrize("order", [2, 4])
def test_plane_wave_with_a_large_phase_per_sub_step(order):
    # A = 30, dt = 1e-2: each order-2 sub-step turns q by 9 rad, and order
    # 4's backward sub-step by about -15 rad, so no small-angle form of the
    # rotation could pass; measured 1.5e-14 (order 2) and 7.6e-14 (order 4)
    grid = Grid(64, -4 * np.pi, 4 * np.pi)
    amplitude, t_final = 30.0, 0.5
    ev = split_step(np.full(grid.n, amplitude), grid, t_final, dt=1e-2, order=order)
    exact = amplitude * np.exp(1j * amplitude ** 2 * t_final)
    assert np.max(np.abs(ev.q[-1] - exact)) / amplitude <= 1e-12
