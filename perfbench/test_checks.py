"""Each benchmark check accepts the exact answer and rejects a wrong one.

The references in ``checks.py`` are what the benchmark trusts instead of
the program, so each one is tested here against an independent property
(the PDE, a known value) and against a perturbed field or constant.
Run with ``python3 -m pytest perfbench/test_checks.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import checks
import workloads

X = np.linspace(-20.0, 20.0, 800, endpoint=False)
DX = X[1] - X[0]
H = 2e-3


def stencil(fn, t):
    return np.array([fn(X, t + j * H) for j in (-2, -1, 0, 1, 2)])


def sech_fn(z, c0):
    return lambda x, t: checks.sech_soliton(x, t, z, c0)


# -- closed forms and the PDE residual -----------------------------------

@pytest.mark.parametrize("z, c0", [(1j, 2.0), (0.3 + 0.7j, 0.4 - 1.1j)])
def test_sech_closed_form_solves_the_pde(z, c0):
    assert checks.pde_residual(stencil(sech_fn(z, c0), 0.4), DX, H) < 1e-8


def test_sech_closed_form_matches_a_known_value():
    # z = i, c0 = 2: q = -2i sech(2x) e^{2it}
    q = checks.sech_soliton(X, 0.7, 1j, 2.0)
    assert np.max(np.abs(q + 2j / np.cosh(2 * X) * np.exp(1.4j))) < 1e-14


def test_breather_starts_as_two_sech_and_solves_the_pde():
    assert np.max(np.abs(checks.breather(X, 0.0) - 2.0 / np.cosh(X))) < 1e-14
    assert checks.pde_residual(stencil(checks.breather, 0.9), DX, H) < 1e-7


@pytest.mark.parametrize("scale", [1.001, np.exp(1e-3j)])
def test_pde_residual_rejects_a_perturbed_field(scale):
    slices = stencil(checks.breather, 0.9)
    slices[2] *= scale
    assert checks.pde_residual(slices, DX, H) > checks.PDE_TOL


def test_pde_residual_rejects_a_solution_of_another_equation():
    # the conjugate of a solution solves the time-reversed equation
    good = stencil(sech_fn(0.5j, 1.0), 0.2)
    assert checks.pde_residual(good, DX, H) < checks.PDE_TOL
    assert checks.pde_residual(np.conj(good), DX, H) > checks.PDE_TOL


def test_finite_difference_residual_agrees_and_rejects():
    x = np.linspace(-6.0, 6.0, 601)
    fn = sech_fn(0.2 + 0.6j, 1.3)
    slices = np.array([fn(x, 0.5 + j * H) for j in (-2, -1, 0, 1, 2)])
    dx = x[1] - x[0]
    assert checks.fd_pde_residual(slices, dx, H) < 1e-7
    slices[2] *= 1.001
    assert checks.fd_pde_residual(slices, dx, H) > checks.PDE_TOL


def test_sech_check_rejects_a_wrong_constant():
    q = checks.sech_soliton(X, 0.3, 0.2 + 0.6j, 1.5)
    assert checks.rel_max_error(q, checks.sech_soliton(X, 0.3, 0.2 + 0.6j, 1.5)) == 0.0
    wrong = checks.sech_soliton(X, 0.3, 0.2 + 0.6j, 1.5 * (1 + 1e-6))
    assert checks.rel_max_error(q, wrong) > checks.SECH_TOL


def test_breather_check_rejects_a_shifted_time():
    q = checks.breather(X, 1.1)
    assert checks.rel_max_error(q, checks.breather(X, 1.1 + 1e-6)) > checks.BREATHER_TOL


# -- trace-formula mass ----------------------------------------------------

def test_trace_mass_matches_sech_and_rejects_wrong_data():
    z = 0.25 + 0.7j
    q = checks.sech_soliton(X, 0.0, z, 0.9)
    assert checks.mass_error(q, DX, [(z, 1)]) < 1e-12
    assert checks.mass_error(q, DX, [(z, 2)]) > checks.MASS_TOL
    assert checks.mass_error(q * 1.0001, DX, [(z, 1)]) > checks.MASS_TOL
    assert checks.mass_error(checks.breather(X, 0.4), DX, [(0.5j, 1), (1.5j, 1)]) < 1e-12


# -- scattering references -------------------------------------------------

def test_sech_zeros_and_scattering_references():
    assert checks.sech_zeros(0.4) == []
    assert checks.sech_zeros(2.0) == [0.5j, 1.5j]
    assert checks.zeros_error([1.5j, 0.5j], checks.sech_zeros(2.0)) == 0.0
    assert checks.zeros_error([0.5j], checks.sech_zeros(2.0)) == math.inf
    assert checks.zeros_error([0.8j + 1e-5], checks.sech_zeros(1.3)) > checks.ZERO_TOL
    # integer amplitudes are reflectionless
    assert checks.sech_s21_sq(2.0, 0.3) < 1e-30
    s21 = np.sqrt(checks.sech_s21_sq(1.3, np.linspace(-2, 2, 9)))
    s11 = np.sqrt(1.0 - s21 ** 2)
    assert checks.unitarity_error(s11, s21) < 1e-15
    assert checks.unitarity_error(s11 * 1.001, s21) > checks.UNITARITY_TOL


def test_roundtrip_rejects_a_wrong_pole_or_constant():
    z, c0, c1 = 1j, 0.36 - 0.24j, 1.1 + 0.55j
    assert checks.roundtrip_ratio([(z, 2, c0, c1)], z, 2, c0, c1) == 0.0
    assert checks.roundtrip_ratio([(z + 2e-4, 2, c0, c1)], z, 2, c0, c1) > 1.0
    assert checks.roundtrip_ratio([(z, 2, c0 * 1.002, c1)], z, 2, c0, c1) > 1.0
    assert checks.roundtrip_ratio([(z, 2, c0, c1 * 1.002)], z, 2, c0, c1) > 1.0
    assert checks.roundtrip_ratio([(z, 1, c0, 0.0)], z, 2, c0, c1) == math.inf
    assert checks.roundtrip_ratio([], z, 2, c0, c1) == math.inf


# -- cone asymptotics ------------------------------------------------------

def _nu_field(x, t, amplitude):
    s = checks.sech_s21_sq(amplitude, -x / (2 * t))
    return np.sqrt(np.log1p(s / (1 - s)) / (2 * math.pi) / t) * np.exp(0.3j * x)


def test_nu_identity_accepts_the_modulus_and_rejects_a_scaled_one():
    x, t = np.linspace(-8, 8, 16), np.full(16, 15.0)
    q = _nu_field(x, t, 0.4)
    assert checks.nu_identity_error(x, t, q, 0.4) < 1e-12
    assert checks.nu_identity_error(x, t, 1.05 * q, 0.4) > checks.NU_TOL


def test_evenness_rejects_an_off_centre_field():
    x = np.tile(np.linspace(-1.0, 1.0, 16), 2)
    t = np.repeat([10.0, 20.0], 16)
    assert checks.evenness_error(x, t, 1.6 / np.cosh(1.6 * x)) < 1e-15
    assert checks.evenness_error(x, t, 1.6 / np.cosh(1.6 * (x - 0.01))) > checks.EVEN_TOL


def test_remainder_growth_rejects_growth():
    times = [10.0, 20.0, 40.0]
    assert checks.remainder_growth(times, [0.0116, 0.0071, 0.0044]) < 1.0
    assert checks.remainder_growth(times, [0.59, 0.82, 1.27]) > 1.0
    assert checks.remainder_growth(times[::-1], [1.27, 0.82, 0.59]) > 1.0


# -- split-step invariants -------------------------------------------------

def test_fourier_interpolation_and_invariants():
    length = 40.0
    x = -20.0 + length / 512 * np.arange(512)
    q = checks.sech_soliton(x, 0.0, 1j, 2.0)
    pts = np.array([-0.33, 0.0, 1.7])
    assert np.max(np.abs(checks.fourier_interp(q, -20.0, length, pts)
                         - checks.sech_soliton(pts, 0.0, 1j, 2.0))) < 1e-10
    mass, energy = checks.invariants(q, length / 512)
    assert mass == pytest.approx(4.0, rel=1e-12)
    # E = 0.5 int |q_x|^2 - 0.5 int |q|^4 = -A^3 / 3 for q = A sech(Ax)
    assert energy == pytest.approx(-8.0 / 3.0, rel=1e-10)
    drift = checks.invariant_drift(np.array([q, q * np.exp(0.1j)]), length / 512)
    assert drift[0] < 1e-14 and drift[1] < 1e-14
    assert checks.invariant_drift(np.array([q, 1.001 * q]), length / 512)[0] > checks.MASS_DRIFT_TOL


# -- op checks on written outputs ------------------------------------------

def test_field_op_check_reads_output_and_rejects_a_perturbation(tmp_path):
    z, c0 = 0.1 + 0.9j, 0.5 + 0.5j
    x = np.linspace(-20.0, 20.0, 801)
    t = np.array([0.2, 0.7, 1.2])
    q = np.array([checks.sech_soliton(x, tt, z, c0) for tt in t])

    def write(field):
        rows = np.column_stack([np.repeat(t, x.size), np.tile(x, t.size),
                                field.real.ravel(), field.imag.ravel()])
        np.savetxt(tmp_path / "soliton_field.csv", rows, delimiter=",", fmt="%.17g",
                   header="t,x,re_q,im_q", comments="# ")

    check = workloads._sech_check(z, c0)
    write(q)
    assert check(tmp_path)[0]
    q[1, 400] *= 1.0 + 1e-6
    write(q)
    assert not check(tmp_path)[0]


def test_known_faults_explain_only_the_failure_they_cause():
    singular = "exit 2: error: Singular matrix"
    assert workloads.SINGULAR.explains(2, singular)
    wrong_breather = workloads._verdict(0.1, checks.BREATHER_TOL, "breather closed form")
    assert not workloads.SINGULAR.explains(0, wrong_breather[1])
    assert not workloads.SINGULAR.explains(1, "exit 1: error: no such file")
    odd = workloads._verdict(0.2, checks.EVEN_TOL, "evenness in x")
    assert not odd[0] and workloads.DELTA_EVEN.explains(0, odd[1])
    assert not workloads.DELTA_EVEN.explains(2, singular)
    assert not workloads.DELTA_EVEN.explains(0, "unreadable output: ValueError()")
    assert not workloads.DELTA_REMAINDER.explains(0, odd[1])
