from __future__ import annotations

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from fnls.scattering import (
    InitialProfile,
    _halves,
    _integrate_columns,
    ScatteringData,
    extract_scattering,
    gaussian_profile,
    load_profile,
    load_scattering,
    locate_zeros,
    norming_constants,
    reflection_coefficient,
    s11_derivatives,
    s11_from_integral,
    s11_on_grid,
    save_profile,
    save_scattering,
    sech_profile,
    soliton_profile,
)
from fnls.solitons import DiscreteDatum, soliton_field

# The double-pole datum used for all round-trip checks below: generate the
# exact field at t = 0, resample it as a plain profile, and require forward
# scattering to recover what we started from.
ROUNDTRIP_DATUM = DiscreteDatum(1j, order=2, c0=0.36 - 0.24j, c1=1.1 + 0.55j)


@pytest.fixture(scope="module")
def sech2():
    return sech_profile(2.0, np.linspace(-26.0, 26.0, 1041))


@pytest.fixture(scope="module")
def gauss03():
    return gaussian_profile(0.3, np.linspace(-8.0, 8.0, 641))


@pytest.fixture(scope="module")
def roundtrip():
    return soliton_profile((ROUNDTRIP_DATUM,), np.linspace(-16.0, 16.0, 6401))


# ---------------------------------------------------------------------------
# scattering entries
# ---------------------------------------------------------------------------

def test_zero_potential_scatters_to_identity():
    x = np.linspace(-6.0, 6.0, 64)
    prof = InitialProfile(x, np.zeros(64, dtype=complex))
    data = reflection_coefficient(prof, [-1.0, 0.0, 2.0])
    assert np.all(data.r == 0)
    assert np.all(data.s11 == 1)
    assert locate_zeros(prof, (-1.0, 1.0, 0.2, 2.0)) == []


def test_sech_family_matches_gamma_function_formula(sech2):
    """For A/cosh(x) the transmission data is hypergeometric and the
    Wronskian entry has the closed form G(w)^2 / (G(w+A) G(w-A)) with
    w = 1/2 - iz, so the ODE route can be checked point by point."""
    zs = np.array([0.37, -1.2, 0.25 + 0.4j, -0.5 + 0.9j, 1.3j, 2.1 + 0.05j])
    got = s11_on_grid(sech2, zs)
    w = 0.5 - 1j * zs
    exact = gamma(w) ** 2 / (gamma(w + 2.0) * gamma(w - 2.0))
    assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-9


def test_unitarity_on_the_real_axis(gauss03):
    data = reflection_coefficient(gauss03, np.linspace(-2.0, 2.0, 41))
    defect = np.abs(np.abs(data.s11) ** 2 + np.abs(data.s21) ** 2 - 1.0)
    assert np.max(defect) < 1e-8


@pytest.mark.parametrize("profile", [
    sech_profile(2.0, np.linspace(-26.0, 26.0, 1041)),
    sech_profile(1.3, np.linspace(-26.0, 26.0, 1041)),
    sech_profile(0.4, np.linspace(-26.0, 26.0, 1041)),
    gaussian_profile(0.3, np.linspace(-8.0, 8.0, 641)),
], ids=["sech2.0", "sech1.3", "sech0.4", "gauss0.3"])
def test_s21_from_symmetry_matches_a_third_integration(profile):
    # reference: integrate the first-kind column in from the right as a
    # third family, the route the Schwarz symmetry replaces
    zs = np.linspace(-4.0, 4.0, 321)
    a, _ = _halves(profile, zs)
    d = _integrate_columns(profile, zs, "first", profile.x[-1], 0.0)
    direct = d[:, 0] * a[:, 1] - d[:, 1] * a[:, 0]
    s21 = reflection_coefficient(profile, zs).s21
    assert np.max(np.abs(s21 - direct)) <= 1e-14


def test_reflectionless_profile_has_tiny_reflection(sech2):
    data = reflection_coefficient(sech2, np.linspace(-8.0, 8.0, 65))
    assert np.max(np.abs(data.r)) < 1e-6


def test_determinant_and_integral_routes_agree(gauss03):
    # two independent constructions of the same analytic function
    for z in (0.3 + 0.5j, -0.6 + 1.1j, 1.0j):
        det_route = complex(s11_on_grid(gauss03, [z])[0])
        int_route = s11_from_integral(gauss03, z)
        assert abs(det_route - int_route) < 1e-9


def test_matching_point_does_not_matter(gauss03):
    z = 0.2 + 0.6j
    left = complex(s11_on_grid(gauss03, [z], x_match=0.0)[0])
    right = complex(s11_on_grid(gauss03, [z], x_match=0.7)[0])
    assert abs(left - right) < 1e-10


def test_costate_derivative_matches_finite_differences(gauss03):
    z = 0.4 + 0.6j
    _, ds = s11_on_grid(gauss03, [z], with_deriv=True)
    h = 1e-5
    fd = (s11_on_grid(gauss03, [z + h])[0]
          - s11_on_grid(gauss03, [z - h])[0]) / (2.0 * h)
    assert abs(ds[0] - fd) < 1e-8


# ---------------------------------------------------------------------------
# reflection values
# ---------------------------------------------------------------------------

def test_gaussian_reflection_at_the_origin(gauss03):
    # At z = 0 the scattering system for a real profile is a plane rotation
    # by the integral of q0, which gives r(0) = -tan(0.3 sqrt(pi)) here.
    data = reflection_coefficient(gauss03, [0.0, 0.5])
    assert abs(data.r[0] - (-np.tan(0.3 * np.sqrt(np.pi)))) < 1e-10
    # regression pin for a generic sample point
    assert abs(data.r[1] - (-0.42687603066641466 - 0.03700635361952436j)) < 1e-9


def test_spectral_singularity_is_refused():
    # amplitude 1/2 puts a zero of s11 exactly at the origin
    prof = sech_profile(0.5, np.linspace(-26.0, 26.0, 1041))
    with pytest.raises(RuntimeError, match="spectral singularity"):
        reflection_coefficient(prof, [-0.5, 0.0, 0.5])


# ---------------------------------------------------------------------------
# zeros in the upper half plane
# ---------------------------------------------------------------------------

def test_two_soliton_sech_spectrum(sech2):
    zeros = locate_zeros(sech2, (-0.7, 0.7, 0.1, 1.9))
    zeros.sort(key=lambda p: p[0].imag)
    assert len(zeros) == 2
    assert abs(zeros[0][0] - 0.5j) < 1e-6 and zeros[0][1] == 1
    assert abs(zeros[1][0] - 1.5j) < 1e-6 and zeros[1][1] == 1


def test_three_soliton_sech_spectrum_forces_subdivision():
    prof = sech_profile(3.0, np.linspace(-26.0, 26.0, 1041))
    zeros = locate_zeros(prof, (-0.7, 0.7, 0.1, 2.9))
    zeros.sort(key=lambda p: p[0].imag)
    assert [m for _, m in zeros] == [1, 1, 1]
    for (z, _), ref in zip(zeros, (0.5j, 1.5j, 2.5j)):
        assert abs(z - ref) < 1e-6


def test_gaussian_has_empty_discrete_spectrum(gauss03):
    assert locate_zeros(gauss03, (-1.0, 1.0, 0.05, 1.0)) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", range(4))
def test_non_finite_box_is_refused_at_once(sech2, side, bad):
    # a nan bound once sent the contour search into an endless retry
    box = [-0.5, 0.5, 0.5, 1.5]
    box[side] = bad
    start = time.perf_counter()
    with pytest.raises(ValueError, match="finite"):
        locate_zeros(sech2, tuple(box))
    assert time.perf_counter() - start < 0.5


def test_round_trip_finds_one_double_zero(roundtrip):
    zeros = locate_zeros(roundtrip, (-0.6, 0.6, 0.4, 1.7))
    assert zeros == [(pytest.approx(1j, abs=1e-6), 2)]


def test_near_degenerate_pair_is_reported_not_merged():
    twins = (DiscreteDatum(0.4 + 1.0j, order=1, c0=1.0, c1=0.0),
             DiscreteDatum(0.405 + 1.0j, order=1, c0=1.0, c1=0.0))
    with warnings.catch_warnings():
        # the pole-condition warnings during sampling are expected here:
        # nearly coincident eigenvalues make the reconstruction system stiff
        warnings.simplefilter("ignore", RuntimeWarning)
        prof = soliton_profile(twins, np.linspace(-22.0, 22.0, 4401))
    with pytest.warns(RuntimeWarning, match="near-degenerate"):
        zeros = locate_zeros(prof, (0.0, 0.8, 0.5, 1.5), merge_radius=0.01)
    zeros.sort(key=lambda p: p[0].real)
    assert [m for _, m in zeros] == [1, 1]
    assert abs(zeros[0][0] - (0.4 + 1.0j)) < 1e-6
    assert abs(zeros[1][0] - (0.405 + 1.0j)) < 1e-6


# ---------------------------------------------------------------------------
# derivatives and connection constants
# ---------------------------------------------------------------------------

def test_derivatives_at_the_double_zero(roundtrip):
    """The round-trip profile is reflectionless with a single order-2 zero
    at i, so s11 = ((z-i)/(z+i))^2 exactly: the first derivative vanishes
    there, the second is -1/2 and the third is -3i/2."""
    s1, s2, s3 = s11_derivatives(roundtrip, 1j)
    assert abs(s1) < 1e-6
    assert abs(s2) > 1e-3
    assert abs(s2 - (-0.5)) < 1e-6
    assert abs(s3 - (-1.5j)) < 1e-5


def test_simple_zero_has_nonvanishing_derivative(sech2):
    s1, _, _ = s11_derivatives(sech2, 0.5j, other_zeros=(1.5j,))
    assert abs(s1) > 1e-3


def test_injected_polynomial_stub_derivatives():
    s1, s2, s3 = s11_derivatives(None, 1j, s11_fn=lambda zs: (zs - 1j) ** 2)
    assert abs(s1) < 1e-12
    assert abs(s2 - 2.0) < 1e-12
    assert abs(s3) < 1e-10


def test_non_analytic_stub_is_rejected():
    # radius-dependent circle averages cannot come from an analytic function
    stub = lambda zs: (zs - 1j) * np.abs(zs - 1j) ** 2  # noqa: E731
    with pytest.raises(RuntimeError, match="did not converge"):
        s11_derivatives(None, 1j, s11_fn=stub)


def test_norming_constants_round_trip(roundtrip):
    datum = norming_constants(roundtrip, 1j, order=2)
    assert datum.order == 2
    assert abs(datum.c0 - ROUNDTRIP_DATUM.c0) / abs(ROUNDTRIP_DATUM.c0) < 1e-6
    assert abs(datum.c1 - ROUNDTRIP_DATUM.c1) / abs(ROUNDTRIP_DATUM.c1) < 1e-6
    assert datum.b is not None and np.isfinite(datum.b) and datum.b != 0


def test_point_off_the_spectrum_is_rejected(roundtrip):
    with pytest.raises(RuntimeError, match="not a zero"):
        norming_constants(roundtrip, 0.9j, order=2)


def test_injected_jost_stub_order_one():
    # first column exactly twice the second: the ratio must come out as 2
    mu2 = np.array([0.6, -0.8, 0.1, 0.3j], dtype=complex)
    stub = lambda z: (2.0 * mu2, mu2)  # noqa: E731
    datum = norming_constants(None, 1j, order=1, jost_fn=stub, derivs=(1.0,))
    assert datum.b == pytest.approx(2.0)
    assert datum.c0 == pytest.approx(2.0)
    assert datum.c1 == 0.0


def test_injected_jost_stub_order_two():
    mu2 = np.array([0.6, -0.8], dtype=complex)
    dmu2 = np.array([0.1, 0.3j], dtype=complex)
    b_true, d_true = 2.0, 5.0
    mu1 = b_true * mu2
    dmu1 = b_true * dmu2 + d_true * mu2
    stub = lambda z: (np.concatenate([mu1, dmu1]),  # noqa: E731
                      np.concatenate([mu2, dmu2]))
    datum = norming_constants(None, 1j, order=2, jost_fn=stub,
                              derivs=(0.0, 1.0, 0.0))
    assert datum.b == pytest.approx(2.0)
    assert datum.d == pytest.approx(5.0)
    assert datum.c1 == pytest.approx(4.0)          # 2 b / s11''
    assert datum.c0 == pytest.approx(10.0)         # c1 (d/b - s11'''/(3 s11''))


def test_inconsistent_derivative_columns_are_rejected():
    mu2 = np.array([0.6, -0.8], dtype=complex)
    dmu2 = np.array([0.1, 0.3j], dtype=complex)
    dmu1 = 2.0 * dmu2 + 5.0 * mu2 + 0.01 * np.array([0.8, 0.6])
    stub = lambda z: (np.concatenate([2.0 * mu2, dmu1]),  # noqa: E731
                      np.concatenate([mu2, dmu2]))
    with pytest.raises(RuntimeError, match="derivative matching"):
        norming_constants(None, 1j, order=2, jost_fn=stub,
                          derivs=(0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# end-to-end extraction
# ---------------------------------------------------------------------------

def test_extracted_two_soliton_data_rebuilds_the_profile(sech2):
    data = extract_scattering(sech2, [-1.0, 1.0], box=(-0.7, 0.7, 0.1, 1.9))
    assert len(data.discrete) == 2
    low, high = sorted(data.discrete, key=lambda d: d.z.imag)
    assert abs(low.z - 0.5j) < 1e-6 and low.order == 1
    assert abs(high.z - 1.5j) < 1e-6 and high.order == 1
    # frozen connection constants of the amplitude-2 profile
    assert abs(low.b - 1.0) < 1e-8
    assert abs(high.b - (-1.0)) < 1e-8
    assert abs(low.c0 - (-2.0j)) < 1e-8
    assert abs(high.c0 - (-6.0j)) < 1e-8
    x = np.linspace(-8.0, 8.0, 321)
    rebuilt = soliton_field(data.discrete, x, 0.0)
    assert np.max(np.abs(rebuilt - 2.0 / np.cosh(x))) < 1e-8


# ---------------------------------------------------------------------------
# profiles and files
# ---------------------------------------------------------------------------

def test_profile_validation():
    x = np.linspace(-5.0, 5.0, 64)
    with pytest.raises(ValueError, match="at least 8"):
        InitialProfile(x[:4], np.zeros(4, dtype=complex))
    with pytest.raises(ValueError, match="differ in length"):
        InitialProfile(x, np.zeros(10, dtype=complex))
    with pytest.raises(ValueError, match="strictly increasing"):
        InitialProfile(x[::-1], np.zeros(64, dtype=complex))
    bad = x.copy()
    bad[10] += 0.03
    with pytest.raises(ValueError, match="uniform"):
        InitialProfile(bad, np.zeros(64, dtype=complex))
    with pytest.raises(ValueError, match="tail does not decay"):
        sech_profile(2.0, x)


def test_evaluate_outside_the_support_is_zero():
    x = np.linspace(-14.0, 14.0, 701)
    prof = InitialProfile(x, 1.3 / np.cosh(x) ** 2)
    assert prof.evaluate(17.0) == 0.0
    vals = prof.evaluate(np.array([-15.0, 0.0, 15.0]))
    assert vals[0] == 0.0 and vals[2] == 0.0
    assert abs(vals[1] - 1.3) < 1e-12


def test_spline_interpolation_tracks_the_generator(roundtrip):
    # the resampled profile carries no closed form, only the quintic spline
    xs = np.array([-3.21, -0.477, 0.113, 2.944])
    exact = soliton_field((ROUNDTRIP_DATUM,), xs, 0.0)
    assert np.max(np.abs(roundtrip.evaluate(xs) - exact)) < 1e-9


def test_profile_file_round_trip(tmp_path, gauss03):
    path = tmp_path / "profile.csv"
    save_profile(gauss03, path)
    back = load_profile(path)
    assert np.array_equal(back.x, gauss03.x)
    assert np.array_equal(back.q, gauss03.q)
    # the loaded profile falls back to the interpolant and must still be
    # usable as an evaluation source
    assert abs(back.evaluate(0.371) - gauss03.evaluate(0.371)) < 1e-10


def test_scattering_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    zg = np.linspace(-1.0, 1.0, 5)
    r = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    discrete = (
        DiscreteDatum(1j, order=2, c0=0.36 - 0.24j, c1=1.1 + 0.55j,
                      b=0.5 + 0.1j, d=-0.3j),
        DiscreteDatum(0.6 + 0.35j, order=1, c0=-0.4 + 0.15j, c1=0.0),
    )
    data = ScatteringData(zg, r, discrete, s11=r + 1.0)
    path = tmp_path / "scattering.json"
    save_scattering(data, path)
    back = load_scattering(path)
    assert np.array_equal(back.z, zg)
    assert np.array_equal(back.r, r)
    assert np.array_equal(back.s11, r + 1.0)
    assert back.s21 is None
    for got, ref in zip(back.discrete, discrete):
        assert got.z == ref.z and got.order == ref.order
        assert got.c0 == ref.c0 and got.c1 == ref.c1
        assert (got.b is None) == (ref.b is None)
        if ref.b is not None:
            assert got.b == ref.b and got.d == ref.d


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(
    amp=st.floats(0.1, 1.5),
    width=st.floats(0.5, 2.0),
    z=st.floats(-1.5, 1.5),
)
def test_unitarity_for_random_gaussians(amp, width, z):
    prof = gaussian_profile(amp, np.linspace(-12.0, 12.0, 961), width=width)
    data = reflection_coefficient(prof, [z])
    defect = abs(abs(data.s11[0]) ** 2 + abs(data.s21[0]) ** 2 - 1.0)
    assert defect < 1e-8
    assert abs(data.r[0] - data.s21[0] / data.s11[0]) == 0.0
