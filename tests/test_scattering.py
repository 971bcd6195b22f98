from __future__ import annotations

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import make_interp_spline
from scipy.linalg import expm
from scipy.special import gamma

from fnls import scattering
from fnls.scattering import (
    _GAUSS_C,
    InitialProfile,
    _breaks,
    _chunks,
    _circle_series,
    _circles,
    _halves,
    _integrate_columns,
    _pole_constants,
    _propagate,
    _step_product,
    _steps,
    _traceless_exponentials,
    _tree_product,
    ScatteringData,
    extract_scattering,
    gaussian_profile,
    load_profile,
    load_scattering,
    locate_zeros,
    norming_constants,
    reflection_coefficient,
    save_scattering,
    sech_profile,
    soliton_profile,
)
from fnls.solitons import DiscreteDatum, _inv, _mul, soliton_field

from profile_file import save_profile
from second_routes import s11_from_integral

# The double-pole datum used for all round-trip checks below: generate the
# exact field at t = 0, resample it as a plain profile, and require forward
# scattering to recover what we started from.
ROUNDTRIP_DATUM = DiscreteDatum(1j, (1.1 + 0.55j, 0.36 - 0.24j))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_profile_refuses_non_finite_samples(bad):
    x = np.linspace(-6.0, 6.0, 64)
    q = np.exp(-x ** 2).astype(complex)
    q[40] = bad
    with pytest.raises(ValueError, match="profile samples must be finite"):
        InitialProfile(x, q)


def test_reflection_grid_must_be_increasing_finite_and_match_r():
    z = np.linspace(-1.0, 1.0, 5)
    r = np.zeros(5, dtype=complex)
    ScatteringData(np.zeros(0), np.zeros(0, dtype=complex))   # pole-only
    for bad_z in (z[::-1], np.r_[z[:2], z[1:4]], np.r_[z[:4], np.nan], z[None, :]):
        with pytest.raises(ValueError, match="reflection grid"):
            ScatteringData(bad_z, r)
    with pytest.raises(ValueError, match="r has shape"):
        ScatteringData(z, r[:4])
    with pytest.raises(ValueError, match="must be finite"):
        ScatteringData(z, np.r_[r[:4], np.inf])


def test_sech_family_matches_gamma_function_formula(sech2):
    """For A/cosh(x) the transmission data is hypergeometric and the
    Wronskian entry has the closed form G(w)^2 / (G(w+A) G(w-A)) with
    w = 1/2 - iz, so the ODE route can be checked point by point."""
    zs = np.array([0.37, -1.2, 0.25 + 0.4j, -0.5 + 0.9j, 1.3j, 2.1 + 0.05j])
    got = _halves(sech2, zs)[2]
    w = 0.5 - 1j * zs
    exact = gamma(w) ** 2 / (gamma(w + 2.0) * gamma(w - 2.0))
    assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-9


def test_long_profile_far_up_the_plane_stays_finite():
    # the columns grow like e^{Im z |x|} between the scalar factors: on
    # [-200, 200] at Im z = 4 and 5 an unguarded product would overflow
    prof = sech_profile(2.0, np.linspace(-200.0, 200.0, 8001))
    zs = np.array([4j, 0.5 + 5j])
    w = 0.5 - 1j * zs
    exact = gamma(w) ** 2 / (gamma(w + 2.0) * gamma(w - 2.0))
    assert np.max(np.abs(_halves(prof, zs)[2] - exact) / np.abs(exact)) < 1e-9
    circle, = _circles(prof, zs[:1], [0.5])
    assert np.isfinite(circle.s11[0]) and np.isfinite(circle.s11[1])


def test_unitarity_on_the_real_axis(gauss03):
    data = reflection_coefficient(gauss03, np.linspace(-2.0, 2.0, 41))
    defect = np.abs(np.abs(data.s11) ** 2 + np.abs(data.s21) ** 2 - 1.0)
    assert np.max(defect) < 1e-8


FOUR_PROFILES = pytest.mark.parametrize("profile", [
    sech_profile(2.0, np.linspace(-26.0, 26.0, 1041)),
    sech_profile(1.3, np.linspace(-26.0, 26.0, 1041)),
    sech_profile(0.4, np.linspace(-26.0, 26.0, 1041)),
    gaussian_profile(0.3, np.linspace(-8.0, 8.0, 641)),
], ids=["sech2.0", "sech1.3", "sech0.4", "gauss0.3"])


@FOUR_PROFILES
def test_s21_from_symmetry_matches_a_third_integration(profile):
    # reference: integrate the first-kind column in from the right as a
    # third family, the route the Schwarz symmetry replaces
    zs = np.linspace(-4.0, 4.0, 321)
    a, _, _, _ = _halves(profile, zs)
    d, _ = _integrate_columns(profile, zs, "first", profile.x[-1], 0.0)
    direct = d[:, 0] * a[:, 1] - d[:, 1] * a[:, 0]
    s21 = reflection_coefficient(profile, zs).s21
    assert np.max(np.abs(s21 - direct)) <= 1e-14


@FOUR_PROFILES
def test_unitarity_to_rounding_on_the_real_grid(profile):
    # for real z every step is unitary up to its phase, whatever its size
    data = reflection_coefficient(profile, np.linspace(-4.0, 4.0, 321))
    defect = np.abs(np.abs(data.s11) ** 2 + np.abs(data.s21) ** 2 - 1.0)
    assert np.max(defect) <= 1e-13


@pytest.mark.parametrize("amplitude", [2.0, 1.3, 0.4])
def test_reflection_matches_the_closed_form_to_the_grid_edge(amplitude):
    # |s21| = |sin(pi A)| / cosh(pi z) for A sech x.  Out at |z| = 4 the
    # steps must also resolve e^{2izx} where the profile is negligible: with
    # unit steps there the error reached 2.5e-9
    prof = sech_profile(amplitude, np.linspace(-26.0, 26.0, 1041))
    zs = np.linspace(-4.0, 4.0, 321)
    exact = abs(np.sin(np.pi * amplitude)) / np.cosh(np.pi * zs)
    data = reflection_coefficient(prof, zs)
    assert np.max(np.abs(np.abs(data.s21) - exact)) <= 5e-10


@pytest.mark.parametrize("z", [0.7, 0.4 + 0.6j, -1.1 + 1.4j])
def test_base_step_is_fourth_order(sech2, z):
    """The fourth-order Magnus step alone, on uniform steps over [-8, 0],
    against a run with 64 times as many: the error falls by 2^4 per
    halving."""
    def column(steps):
        breaks = np.linspace(-8.0, 0.0, steps + 1)
        h = np.diff(breaks)
        q = sech2.evaluate((breaks[:-1, None] + h[:, None] * _GAUSS_C).ravel())
        return _propagate(np.array([z], dtype=complex), h, q.reshape(-1, 2), 1,
                          (1.0, 0.0))[0]

    steps = np.array([40, 80, 160, 320])
    ref = column(64 * steps[0])
    errors = [np.max(np.abs(column(n) - ref)) for n in steps]
    slope = -np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert slope >= 3.8, (slope, errors)


@pytest.mark.parametrize("size", [0.0, 1e-3, 0.1, 50.0])
def test_traceless_exponential_matches_expm(size):
    """exp([[a, b], [c, -a]]) for complex entries with |a^2 + bc| = size,
    the last several squarings deep; size 0 is exact (bc = -a^2)."""
    if size == 0.0:
        a, b, c = 1.0 + 1.0j, 2.0 + 0.0j, -1.0j
    else:
        a, b, c = 0.3 + 0.4j, -0.7 + 0.2j, 0.5 - 0.9j
        scale = np.sqrt(size / abs(a * a + b * c))
        a, b, c = scale * a, scale * b, scale * c
    assert abs(a * a + b * c) == pytest.approx(size, rel=1e-12)
    got = np.array(_traceless_exponentials(*(np.array([v]) for v in (a, b, c))))
    ref = expm(np.array([[a, b], [c, -a]])).ravel()
    assert np.max(np.abs(got[:, 0] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("z", [0.7, 0.4 + 0.6j])
def test_step_on_a_constant_profile_is_the_exact_exponential(z):
    # the commutator vanishes, so the step is exp(h B) with B at that value
    h, q = 0.3, 0.8 - 0.5j
    got = np.array(_steps(np.array([z]), np.array([h]), np.array([[q, q]])))
    ref = expm(h * np.array([[-1j * z, q], [-np.conj(q), 1j * z]])).ravel()
    assert np.max(np.abs(got[:, 0, 0] - ref)) <= 1e-14 * np.max(np.abs(ref))


def _march_levels(profile, zs):
    """``(h, q)`` of every march the library makes for the batch ``zs``:
    each column kind on its graded breaks and on their midpoint halving."""
    for x_from in (profile.x[0], profile.x[-1]):
        coarse = _breaks(profile, zs, x_from, 0.0)
        fine = np.empty(2 * coarse.size - 1)
        fine[::2], fine[1::2] = coarse, 0.5 * (coarse[1:] + coarse[:-1])
        for breaks in (coarse, fine):
            h = np.diff(breaks)
            q = profile.evaluate((breaks[:-1, None] + h[:, None] * _GAUSS_C).ravel())
            yield h, q.reshape(-1, 2)


@pytest.mark.parametrize("name", ["sech2", "gauss03", "roundtrip"])
def test_real_axis_rows_are_bitwise_the_general_product(name, request, monkeypatch):
    # the SU(2) first-row march against the four-entry product on the
    # reflection grid; the sampled double pole reads its profile through
    # the quintic B-spline
    profile = request.getfixturevalue(name)
    zs = np.linspace(-4.0, 4.0, 321)
    rows = _halves(profile, zs)
    monkeypatch.setattr(scattering, "_step_product",
                        lambda zs, h, q: _tree_product(_steps(zs, h, q)))
    for got, want in zip(rows, _halves(profile, zs)):
        assert np.array_equal(got, want)
    # chunk by chunk the rows drop only the imaginary part of w, which a
    # fused multiply-add leaves at rounding size: measured at most 8.7e-19
    # of a row's size, on the double pole near z = 0, and 0 on the others
    zs = zs.astype(complex)
    for h, q in _march_levels(profile, zs):
        for part in _chunks(zs, h, q):
            su2 = np.array(_step_product(zs, h[part], q[part]))
            general = np.array(_tree_product(_steps(zs, h[part], q[part])))
            size = np.hypot(np.abs(general[0]), np.abs(general[1]))
            assert np.all(np.abs(su2 - general) <= 2.0 ** -56 * size)


def test_a_batch_with_a_complex_point_takes_the_general_path(gauss03, monkeypatch):
    calls = []
    rows = scattering._su2_rows

    def counted(*args):
        calls.append(args)
        return rows(*args)

    monkeypatch.setattr(scattering, "_su2_rows", counted)
    real = np.linspace(-2.0, 2.0, 9)
    _halves(gauss03, real)
    assert calls
    calls.clear()
    _halves(gauss03, np.append(real, 0.3 + 0.5j))
    assert calls == []


def test_reflectionless_profile_has_tiny_reflection(sech2):
    data = reflection_coefficient(sech2, np.linspace(-8.0, 8.0, 65))
    assert np.max(np.abs(data.r)) < 1e-6


def test_determinant_and_integral_routes_agree(gauss03):
    # two independent constructions of the same analytic function
    for z in (0.3 + 0.5j, -0.6 + 1.1j, 1.0j):
        det_route = complex(_halves(gauss03, [z])[2][0])
        int_route = s11_from_integral(gauss03, z)
        assert abs(det_route - int_route) < 1e-9


def test_matching_point_does_not_matter(gauss03):
    # the Wronskian of the two columns is constant in x: formed at 0.7
    # it is the s11 the library forms at 0
    z = 0.2 + 0.6j
    a, _ = _integrate_columns(gauss03, [z], "first", gauss03.x[0], 0.7)
    b, _ = _integrate_columns(gauss03, [z], "second", gauss03.x[-1], 0.7)
    right = complex(a[0, 0] * b[0, 1] - a[0, 1] * b[0, 0])
    left = complex(_halves(gauss03, [z])[2][0])
    assert abs(left - right) < 1e-10


def test_costate_derivative_matches_finite_differences(gauss03):
    # the derivative from a circle's Taylor series against central
    # differences of s11
    z = 0.4 + 0.6j
    circle, = _circles(gauss03, [z], [0.3])
    h = 1e-5
    fd = (_halves(gauss03, [z + h])[2][0]
          - _halves(gauss03, [z - h])[2][0]) / (2.0 * h)
    assert abs(circle.s11[1] - fd) < 1e-8


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


def test_three_soliton_sech_spectrum():
    prof = sech_profile(3.0, np.linspace(-26.0, 26.0, 1041))
    zeros = locate_zeros(prof, (-0.7, 0.7, 0.1, 2.9))
    zeros.sort(key=lambda p: p[0].imag)
    assert [m for _, m in zeros] == [1, 1, 1]
    for (z, _), ref in zip(zeros, (0.5j, 1.5j, 2.5j)):
        assert abs(z - ref) < 1e-6


@pytest.mark.parametrize("amplitude", [2.0, 3.0])
def test_zeros_on_the_imaginary_axis_are_listed_up_it(amplitude):
    # their real parts are rounding noise of either sign; it must not
    # decide the order
    prof = sech_profile(amplitude, np.linspace(-26.0, 26.0, 1041))
    zeros = [z for z, _ in locate_zeros(prof, (-0.7, 0.7, 0.1, amplitude - 0.1))]
    assert np.all(np.diff(np.imag(zeros)) > 0.9), zeros


def test_mirror_pair_is_listed_by_real_part():
    pair = (DiscreteDatum(0.3 + 0.5j, (1.0,)), DiscreteDatum(-0.3 + 0.5j, (1.0,)))
    prof = soliton_profile(pair, np.linspace(-30.0, 30.0, 6001))
    zeros = locate_zeros(prof, (-0.7, 0.7, 0.2, 0.9))
    assert [z for z, _ in zeros] == [pytest.approx(-0.3 + 0.5j, abs=1e-6),
                                    pytest.approx(0.3 + 0.5j, abs=1e-6)]


README_BOX = (-0.6, 0.6, 0.2, 1.9)


def _first_placement_fails(monkeypatch):
    """A list of the calls placing zeros from guesses, the first of which
    fails as failed circles do."""
    calls = []
    place = scattering._zeros_from_guesses

    def first_fails(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("circles about the guesses failed")
        return place(*args)

    monkeypatch.setattr(scattering, "_zeros_from_guesses", first_fails)
    return calls


def test_failed_circles_subdivide_the_box(sech2, monkeypatch):
    # when the circles about the first box's guesses fail, the box is cut
    # in two, and each half places its own
    calls = _first_placement_fails(monkeypatch)
    zeros = sorted(locate_zeros(sech2, README_BOX), key=lambda p: p[0].imag)
    assert len(calls) == 3
    assert [m for _, m in zeros] == [1, 1]
    assert abs(zeros[0][0] - 0.5j) < 1e-6 and abs(zeros[1][0] - 1.5j) < 1e-6


def test_a_cut_through_the_zeros_is_tried_elsewhere(sech2, monkeypatch):
    # the first circles fail, so the box is cut at Re z = 0, through 0.5i
    # and 1.5i; that half is refused, and the next cut, at -0.24, leaves
    # both zeros in the right half
    contours = _recorded_contours(monkeypatch)
    _first_placement_fails(monkeypatch)
    zeros = sorted(locate_zeros(sech2, (-2.0, 2.0, 0.2, 1.9)), key=lambda p: p[0].imag)
    boxes = [box for box, _ in contours]
    np.testing.assert_allclose(boxes, [(-2.0, 2.0, 0.2, 1.9), (-2.0, 0.0, 0.2, 1.9),
                                       (-2.0, -0.24, 0.2, 1.9), (-0.24, 2.0, 0.2, 1.9)],
                               rtol=0.0, atol=1e-12)
    assert [m for _, m in zeros] == [1, 1]
    assert abs(zeros[0][0] - 0.5j) < 1e-6 and abs(zeros[1][0] - 1.5j) < 1e-6


# Two order-2 poles whose first circles, about the whole box's guesses,
# are too coarse to count the winding of s11: the box is split at Re z = 0
# with nothing forced, and each half places its own zero.
SPLIT_PAIR = (
    DiscreteDatum(0.44194558361995484 + 1.197416932025051j,
                  (0.32808387906925746 - 5.7258375249709355j,
                   0.21548893918232892 - 0.2520065902673078j)),
    DiscreteDatum(0.8783599173817622 + 1.0744200534732689j,
                  (4.5166763907629495 + 0.9597229405096046j,
                   -0.058460125758861455 - 0.5793920504433961j)),
)


def test_a_natural_spectrum_splits_the_box(monkeypatch):
    # measured: zeros within 3.8e-11, constants within 1.3e-8 relative
    contours = _recorded_contours(monkeypatch)
    failures = []
    place = scattering._zeros_from_guesses

    def placing(*args):
        try:
            return place(*args)
        except RuntimeError as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(scattering, "_zeros_from_guesses", placing)
    profile = soliton_profile(SPLIT_PAIR, np.linspace(-30.0, 30.0, 6001))
    data = extract_scattering(profile, [0.0], box=(-1.2, 1.2, 0.1, 1.4))
    assert len(failures) == 1
    assert [box for box, _ in contours] == [(-1.2, 1.2, 0.1, 1.4), (-1.2, 0.0, 0.1, 1.4),
                                            (0.0, 1.2, 0.1, 1.4)]
    assert [d.order for d in data.discrete] == [2, 2]
    for got, ref in zip(sorted(data.discrete, key=lambda d: d.z.real), SPLIT_PAIR):
        assert abs(got.z - ref.z) < 1e-9
        for c, c_ref in zip(got.coefficients, ref.coefficients):
            assert abs(c - c_ref) < 1e-6 * abs(c_ref)


def _recorded_contours(monkeypatch):
    """A list of ``(box, sample counts)``, one entry per contour tried.  A
    contour sample that reaches the Richardson march (:func:`_halves`)
    fails the test: the contour only counts and guesses, so it marches once
    on the graded breaks."""
    contours = []
    moments, halves = scattering._contour_moments, scattering._halves
    sampling = []

    def recorded(value_fn, box, n_side):
        counts = []
        contours.append((box, counts))

        def values(zs):
            counts.append(zs.size)
            sampling.append(zs.size)
            try:
                return value_fn(zs)
            finally:
                sampling.pop()

        return moments(values, box, n_side)

    def guarded(profile, zs):
        assert not sampling, "a contour sample reached the Richardson march"
        return halves(profile, zs)

    monkeypatch.setattr(scattering, "_contour_moments", recorded)
    monkeypatch.setattr(scattering, "_halves", guarded)
    return contours


DOUBLINGS = [4 * scattering._SAMPLES_PER_SIDE * 2 ** k for k in range(4)]


def test_contour_beside_a_zero_doubles_its_samples(sech2, monkeypatch):
    # 1e-3 below 1.5i, the top edge needs every doubling to resolve the
    # phase; the zero above it stays out
    contours = _recorded_contours(monkeypatch)
    box = (-0.6, 0.6, 0.2, 1.499)
    zeros = locate_zeros(sech2, box)
    assert contours == [(box, DOUBLINGS)]
    assert len(zeros) == 1 and abs(zeros[0][0] - 0.5j) < 1e-6 and zeros[0][1] == 1


@pytest.mark.parametrize("box", [(-0.6, 0.6, 0.2, 1.4999), (-0.6, 0.6, 0.2, 1.49999),
                                 (-0.6, 0.6, 0.2, 1.5), (-0.6, 0.6, 1.5001, 1.9)])
def test_zero_on_the_box_boundary_is_refused(sech2, monkeypatch, box):
    # no doubling resolves an edge through or beside 1.5i; the box is not
    # moved, since a moved box reports a zero outside the one asked for
    contours = _recorded_contours(monkeypatch)
    with pytest.raises(RuntimeError, match="on or near its boundary") as err:
        locate_zeros(sech2, box)
    assert str(box) in str(err.value)
    assert contours == [(box, DOUBLINGS)]


@pytest.mark.parametrize("amplitude", [0.52, 0.6, 1.3, 1.49, 1.51, 1.6, 2.0, 2.45, 2.55, 3.3])
def test_sech_sweep_finds_every_zero_with_radiation_present(amplitude):
    # A sech x has the simple zeros i(A - 1/2 - j) > 0 and, but at half
    # integers, a nonzero reflection coefficient.  At A = 0.52, 1.51 and
    # 2.55 a zero has just left the real line: Im z = 0.02, 0.01, 0.05.
    # Measured worst error 6.0e-12, at A = 1.51
    prof = sech_profile(amplitude, np.linspace(-26.0, 26.0, 1041))
    zeros = sorted(locate_zeros(prof, (-0.6, 0.6, 0.005, 3.5)), key=lambda p: p[0].imag)
    exact = 1j * (amplitude - 0.5 - np.arange(int(amplitude - 0.5) + 1))[::-1]
    assert [m for _, m in zeros] == [1] * exact.size
    assert np.max(np.abs(np.array([z for z, _ in zeros]) - exact)) <= 1e-10


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


def test_round_trip_double_zero_splits_far_below_the_pair_threshold(roundtrip):
    # integration error alone splits the exact double zero at i into two
    # roots of s11's local Taylor quadratic, on a circle as wide as the old
    # pair test's (1e-4 rc = 3.5e-5 here), by far less
    rc = 0.2 * np.hypot(1.2, 1.3)
    circle, = _circles(roundtrip, [1j], [rc])
    roots = np.roots(circle.s11[2::-1])
    assert circle.winding == 2
    assert abs(roots[0] - roots[1]) <= 1e-5


def test_double_zero_split_is_a_tenth_of_the_merge_radius(roundtrip):
    # the rule's own circle at the zero it reports: the roots of the
    # quadratic must lie ten times closer than (eta / |a_2|)^(1/2), where
    # eta is the integrator's Richardson size on the circle
    (z, order), = locate_zeros(roundtrip, (-0.5, 0.5, 0.5, 1.5))
    circle, = _circles(roundtrip, [z], [0.5 * z.imag])
    roots = np.roots(circle.s11[2::-1])
    merge = (circle.eta / abs(circle.s11[2])) ** 0.5
    assert order == 2
    assert abs(roots[0] - roots[1]) <= 0.1 * merge


def _pair_zeros(gap):
    """The zeros, sorted, of a profile with simple poles at 0.4 + i and
    ``gap`` to its right."""
    pair = (DiscreteDatum(0.4 + 1.0j, (1.0,)),
            DiscreteDatum(0.4 + gap + 1.0j, (1.0,)))
    with warnings.catch_warnings():
        # the pole-condition warnings during sampling are expected here:
        # nearly coincident eigenvalues make the reconstruction system stiff
        warnings.simplefilter("ignore", RuntimeWarning)
        prof = soliton_profile(pair, np.linspace(-22.0, 22.0, 4401))
    zeros = locate_zeros(prof, (0.0, 0.8, 0.5, 1.5))
    return sorted(zeros, key=lambda p: p[0].real)


def test_near_degenerate_pair_is_reported_not_merged():
    zeros = _pair_zeros(0.005)
    assert [m for _, m in zeros] == [1, 1]
    assert abs(zeros[0][0] - (0.4 + 1.0j)) < 1e-6
    assert abs(zeros[1][0] - (0.405 + 1.0j)) < 1e-6


def test_simple_zeros_a_thousandth_apart_stay_two():
    zeros = _pair_zeros(0.001)
    assert [m for _, m in zeros] == [1, 1]
    assert abs(zeros[0][0] - (0.4 + 1.0j)) < 1e-6
    assert abs(zeros[1][0] - (0.401 + 1.0j)) < 1e-6


def test_triple_zero_is_found_with_its_constants(triple_pole):
    start = time.perf_counter()
    zeros = locate_zeros(triple_pole.profile, (-0.5, 0.5, 0.5, 1.5))
    assert time.perf_counter() - start < 60.0
    assert len(zeros) == 1 and zeros[0][1] == 3
    z = zeros[0][0]
    assert abs(z - triple_pole.z) <= 1e-10
    c = norming_constants(triple_pole.profile, z).coefficients
    ref = np.array(triple_pole.datum.coefficients)
    assert np.max(np.abs(np.array(c) - ref) / np.abs(ref)) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rounding_in_the_samples_does_not_change_the_search(roundtrip, monkeypatch):
    # a change at the 1e-15 level in the samples of the double-pole profile
    # once cost the search 44 % more work; it must cost none, move the zero
    # by no more than rounding, and raise no warning
    rng = np.random.default_rng(11)
    noise = 1.0 + 1e-15 * rng.standard_normal(roundtrip.q.size)
    jittered = InitialProfile(roundtrip.x, roundtrip.q * noise)
    norming_constants(roundtrip, 1j)
    sizes = []

    def counted(name):
        march = getattr(scattering, name)

        def wrapper(profile, zs):
            sizes[-1] += np.size(zs)
            return march(profile, zs)

        monkeypatch.setattr(scattering, name, wrapper)

    # the contour's samples and the circles'
    counted("s11_on_grid")
    counted("_halves")
    found = []
    for prof in (roundtrip, jittered):
        sizes.append(0)
        found.append(locate_zeros(prof, (-0.5, 0.5, 0.5, 1.5)))
    assert sizes[0] == sizes[1]
    assert [m for _, m in found[0]] == [m for _, m in found[1]] == [2]
    assert abs(found[0][0][0] - found[1][0][0]) <= 1e-12


# ---------------------------------------------------------------------------
# circle series and connection constants
# ---------------------------------------------------------------------------

def _on_circle(centre, radius, n=64):
    return centre + radius * np.exp(2j * np.pi * np.arange(n) / n)


def test_derivatives_at_the_double_zero(roundtrip):
    """The round-trip profile is reflectionless with a single order-2 zero
    at i, so s11 = ((z-i)/(z+i))^2 exactly: the first derivative vanishes
    there, the second is -1/2 and the third is -3i/2."""
    circle, = _circles(roundtrip, [1j], [0.5])
    s1, s2, s3 = circle.s11[1:4] * [1.0, 2.0, 6.0]
    assert abs(s1) < 1e-6
    assert abs(s2) > 1e-3
    assert abs(s2 - (-0.5)) < 1e-6
    assert abs(s3 - (-1.5j)) < 1e-5


def test_simple_zero_has_nonvanishing_derivative(sech2):
    circle, = _circles(sech2, [0.5j], [0.25])
    assert abs(circle.s11[1]) > 1e-3


def test_injected_polynomial_stub_derivatives():
    coeffs = _circle_series((_on_circle(1j, 0.5) - 1j) ** 2, 0.5)
    s1, s2, s3 = coeffs[1:4] * [1.0, 2.0, 6.0]
    assert abs(s1) < 1e-12
    assert abs(s2 - 2.0) < 1e-12
    assert abs(s3) < 1e-10


def test_non_analytic_stub_is_rejected():
    # |z - i|^2 is not analytic; on a circle not centred at i it leaves
    # negative frequencies far above rounding
    zs = _on_circle(1.2j, 0.5)
    stub = (zs - 1j) * np.abs(zs - 1j) ** 2
    with pytest.raises(RuntimeError, match="did not converge"):
        _circle_series(stub, 0.5)


def test_circle_samples_of_the_columns_are_analytic_to_rounding(roundtrip):
    # the integrator's output is entire in z for one call's breaks, so that
    # refusal never fires on it: at the double pole the negative
    # frequencies hold rounding only
    zs = _on_circle(1j, 0.5)
    a, b, _, _ = _halves(roundtrip, zs)
    hat = np.fft.fft(np.stack([a[:, 0], a[:, 1], b[:, 0], b[:, 1]]), axis=-1) / zs.size
    assert np.max(np.abs(hat[:, 33:])) <= 1e-15


def _recorded_connections(monkeypatch):
    """A list of the series of b that each call of ``_pole_constants``
    finds."""
    found = []
    constants = scattering._pole_constants

    def recorded(*args):
        b, c = constants(*args)
        found.append(b)
        return b, c

    monkeypatch.setattr(scattering, "_pole_constants", recorded)
    return found


def test_norming_constants_round_trip(roundtrip, monkeypatch):
    found = _recorded_connections(monkeypatch)
    datum = norming_constants(roundtrip, 1j)
    assert datum.order == 2
    for got, ref in zip(datum.coefficients, ROUNDTRIP_DATUM.coefficients):
        assert abs(got - ref) / abs(ref) < 1e-6
    (b,) = found
    assert np.isfinite(b[0]) and b[0] != 0


def test_point_off_the_spectrum_is_rejected(roundtrip):
    with pytest.raises(RuntimeError, match="not a zero"):
        norming_constants(roundtrip, 0.9j)


def test_injected_jost_stub_order_one():
    # first column exactly twice the second: the ratio must come out as 2
    mu2 = np.array([[0.6, -0.8], [0.1, 0.3j]], dtype=complex)
    b, c = _pole_constants(2.0 * mu2, mu2, [0.0, 1.0], 1)
    assert b == [pytest.approx(2.0)]
    assert c == [pytest.approx(2.0)]


def test_injected_jost_stub_order_two():
    mu2 = np.array([0.6, -0.8], dtype=complex)
    dmu2 = np.array([0.1, 0.3j], dtype=complex)
    b_true, d_true = 2.0, 5.0
    mu1 = b_true * mu2
    dmu1 = b_true * dmu2 + d_true * mu2
    # s11 = (z - z_k)^2 / 2 + O((z - z_k)^4), so s11'' = 1 and s11''' = 0
    b, c = _pole_constants([mu1, dmu1], [mu2, dmu2], [0.0, 0.0, 0.5, 0.0], 2)
    assert b == [pytest.approx(2.0), pytest.approx(5.0)]
    assert c[0] == pytest.approx(4.0)          # c1 = 2 b / s11''
    assert c[1] == pytest.approx(10.0)         # c0 = c1 (d / b - s11''' / (3 s11''))


def test_inconsistent_derivative_columns_are_rejected():
    mu2 = np.array([0.6, -0.8], dtype=complex)
    dmu2 = np.array([0.1, 0.3j], dtype=complex)
    dmu1 = 2.0 * dmu2 + 5.0 * mu2 + 0.01 * np.array([0.8, 0.6])
    with pytest.raises(RuntimeError, match="derivative matching"):
        _pole_constants([2.0 * mu2, dmu1], [mu2, dmu2], [0.0, 0.0, 0.5, 0.0], 2)


_COEFFS = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                             allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(order=st.integers(1, 4), data=st.data())
def test_constants_of_random_series_at_any_order(order, data):
    # mu1 = b mu2 and s11 = (z - z_k)^m g: the constants are pp[b / s11],
    # the series of b times that of 1 / g
    def series(n):
        return [data.draw(_COEFFS) for _ in range(n)]

    b, g = series(order), series(order)
    mu2 = np.array([series(2) for _ in range(order)])
    mu1 = np.stack([np.convolve(b, mu2[:, k])[:order] for k in range(2)], axis=1)
    got_b, c = _pole_constants(mu1, mu2, [0.0] * order + g, order)
    want = np.array(_mul(b, _inv(g, order), order))
    assert np.max(np.abs(np.array(got_b) - b)) <= 1e-12 * np.max(np.abs(b))
    assert np.max(np.abs(np.array(c) - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# end-to-end extraction
# ---------------------------------------------------------------------------

def test_extracted_two_soliton_data_rebuilds_the_profile(sech2, monkeypatch):
    found = _recorded_connections(monkeypatch)
    data = extract_scattering(sech2, [-1.0, 1.0], box=(-0.7, 0.7, 0.1, 1.9))
    assert len(data.discrete) == 2
    low, high = sorted(data.discrete, key=lambda d: d.z.imag)
    assert abs(low.z - 0.5j) < 1e-6 and low.order == 1
    assert abs(high.z - 1.5j) < 1e-6 and high.order == 1
    # frozen connection constants of the amplitude-2 profile, from the
    # search's series at each zero, in the order of data.discrete
    (b_low,), (b_high,) = (found[data.discrete.index(d)] for d in (low, high))
    assert abs(b_low - 1.0) < 1e-8
    assert abs(b_high - (-1.0)) < 1e-8
    assert abs(low.coefficients[0] - (-2.0j)) < 1e-8
    assert abs(high.coefficients[0] - (-6.0j)) < 1e-8
    x = np.linspace(-8.0, 8.0, 321)
    rebuilt = soliton_field(data.discrete, x, 0.0)
    assert np.max(np.abs(rebuilt - 2.0 / np.cosh(x))) < 1e-8


def _recorded_circles(monkeypatch):
    """A list of the centres of each batch of circles marched."""
    batches = []
    circles = scattering._circles

    def recorded(profile, centres, radii):
        batches.append(list(centres))
        return circles(profile, centres, radii)

    monkeypatch.setattr(scattering, "_circles", recorded)
    return batches


@pytest.fixture(scope="module")
def sech13():
    return sech_profile(1.3, np.linspace(-26.0, 26.0, 1041))


# profile fixture, search box
EXTRACTIONS = {"sech1.3": ("sech13", (-0.6, 0.6, 0.05, 1.9)),
               "sech2.0": ("sech2", (-0.6, 0.6, 0.05, 1.9)),
               "double": ("roundtrip", (-0.5, 0.5, 0.5, 1.5)),
               "triple": ("triple_pole", (-0.5, 0.5, 0.5, 1.5))}


def _extraction_profile(request, name):
    fixture, box = EXTRACTIONS[name]
    profile = request.getfixturevalue(fixture)
    return getattr(profile, "profile", profile), box


@pytest.mark.parametrize("name", ["sech2.0", "double"])
def test_extraction_marches_one_circle_per_box(request, monkeypatch, name):
    # the search's second round re-centres on the first circle's series,
    # and the constants are read from it: no circle of their own
    profile, box = _extraction_profile(request, name)
    batches = _recorded_circles(monkeypatch)
    data = extract_scattering(profile, [0.0], box=box)
    assert len(batches) == 1
    assert len(batches[0]) == len(data.discrete) == {"sech2.0": 2, "double": 1}[name]


@pytest.mark.parametrize("name", list(EXTRACTIONS))
def test_extracted_constants_match_the_one_circle_route(request, name):
    profile, box = _extraction_profile(request, name)
    data = extract_scattering(profile, [0.0], box=box)
    assert [(d.z, d.order) for d in data.discrete] == locate_zeros(profile, box)
    for datum in data.discrete:
        ref = norming_constants(profile, datum.z)
        assert ref.order == datum.order
        got, want = np.array(datum.coefficients), np.array(ref.coefficients)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_centre_outside_the_inner_half_gets_a_new_circle(sech2, monkeypatch):
    # in a box 0.01 wide about the zero at 0.5i, a guess moved 0.0045 right
    # gets a circle of radius 0.0071: the zero is inside it, so s11 winds
    # once, but outside its inner half, where the next round's centre
    # lands, so that centre is marched anew.  Each round is a Newton step;
    # the second lands 6.4e-9 from the zero
    moments = scattering._contour_moments

    def moved(value_fn, box, n_side):
        count, guesses = moments(value_fn, box, n_side)
        return count, guesses + 0.0045

    monkeypatch.setattr(scattering, "_contour_moments", moved)
    batches = _recorded_circles(monkeypatch)
    (z, order), = locate_zeros(sech2, (-0.005, 0.005, 0.495, 0.505))
    assert len(batches) == 2
    (first,), (second,) = batches
    assert abs(first - (0.0045 + 0.5j)) < 1e-6
    assert abs(second - first) > 0.5 * 0.5 * np.hypot(0.01, 0.01)
    assert order == 1 and abs(z - 0.5j) <= 2e-8


@pytest.mark.parametrize("offset", [0.15, 0.1 + 0.1j])
def test_search_from_a_poor_guess_runs_until_its_step_is_noise(sech2, monkeypatch, offset):
    # each round is one Newton step on the circle's series, so a guess this
    # far off takes more than two rounds; the search must not end on its
    # round count with the zero still 7.7e-3 or 1.0e-2 off
    box = (-0.6, 0.6, 0.2, 1.0)
    moments = scattering._contour_moments

    def moved(value_fn, bx, n_side):
        count, guesses = moments(value_fn, bx, n_side)
        return count, guesses + offset if bx == box else guesses

    monkeypatch.setattr(scattering, "_contour_moments", moved)
    (z, order), = locate_zeros(sech2, box)
    assert order == 1 and abs(z - 0.5j) <= 1e-12


def test_shifted_series_are_those_at_the_new_centre():
    # e^z about c has the coefficients e^c / n!, so the shift to c + delta,
    # near the edge of the inner half, must give e^(c + delta) / n!; the
    # coefficients are compared times radius^n, the size in which the
    # circle's own are accurate
    c, radius, delta = 0.3 + 1.0j, 0.5, 0.2 - 0.1j
    a = _circle_series(np.exp(_on_circle(c, radius)), radius)
    circle = scattering._Circle(c, radius, a[:, None], a[:, None], a, 0, 0.0)
    scale = radius ** np.arange(12)
    want = np.exp(c + delta) / gamma(np.arange(12) + 1.0) * scale
    for got in scattering._series_at(circle, c + delta):
        np.testing.assert_allclose(np.ravel(got)[:12] * scale, want, rtol=0.0, atol=1e-12)


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
    assert prof.evaluate(np.nextafter(-14.0, -np.inf)) == 0.0
    vals = prof.evaluate(np.array([-15.0, np.nextafter(14.0, np.inf), 0.0, 15.0]))
    assert vals.shape == (4,)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[3] == 0.0
    assert abs(vals[2] - 1.3) < 1e-12
    # the ends themselves are inside
    assert np.all(prof.evaluate(np.array([-14.0, 14.0])) != 0.0)


def test_spline_matches_scipy_on_the_sampled_double_pole(roundtrip):
    # second route: SciPy's not-a-knot quintic interpolant.  The two differ
    # by their end conditions, which reach about 1e-12 at the edges and
    # decay as 0.43 per sample inward; measured 1.4e-14 for |x| < 15
    xs = np.linspace(-15.0, 15.0, 20001)
    ref = make_interp_spline(roundtrip.x, roundtrip.q, k=5)(xs)
    assert np.max(np.abs(roundtrip.evaluate(xs) - ref)) < 1e-13


def test_spline_reproduces_the_samples_to_rounding(roundtrip):
    # measured 1.5e-15 of the peak, over all 6401 samples
    err = np.max(np.abs(roundtrip.evaluate(roundtrip.x) - roundtrip.q))
    assert err < 1e-14 * np.max(np.abs(roundtrip.q))


def test_spline_converges_at_sixth_order():
    # measured orders 6.2 and 6.1 on these grids, errors 1.2e-7 -> 2.5e-11
    f = lambda y: 2.0 / np.cosh(y) * np.exp(0.3j * y)  # noqa: E731
    xs = np.linspace(-29.9, 29.9, 20001)
    errs = []
    for n in (401, 801, 1601):
        x = np.linspace(-30.0, 30.0, n)
        errs.append(np.max(np.abs(InitialProfile(x, f(x)).evaluate(xs) - f(xs))))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders >= 5.5), orders


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
        DiscreteDatum(1j, (1.1 + 0.55j, 0.36 - 0.24j)),
        DiscreteDatum(0.6 + 0.35j, (-0.4 + 0.15j,)),
        DiscreteDatum(-0.2 + 0.7j, (1.0, 0.2 + 0.1j, 0.3)),
    )
    data = ScatteringData(zg, r, discrete, s11=r + 1.0)
    path = tmp_path / "scattering.json"
    save_scattering(data, path)
    back = load_scattering(path)
    assert np.array_equal(back.z, zg)
    assert np.array_equal(back.r, r)
    assert np.array_equal(back.s11, r + 1.0)
    assert back.s21 is None
    assert [d.order for d in back.discrete] == [2, 1, 3]
    assert back.discrete == discrete


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
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
