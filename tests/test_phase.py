from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import wofz

from fnls.asymptotics import q_asymptotic
from fnls.phase import (
    PhaseContext,
    _RayDensity,
    delta_fn,
    _left_of,
    nu_of,
    partition,
    phase_context,
    r0_modulated,
)
from fnls.scattering import (
    ScatteringData,
    gaussian_profile,
    reflection_coefficient,
)
from fnls.solitons import DiscreteDatum, _scaled, modulate_constants

S_GRID = np.linspace(-5.0, 5.0, 2001)
R_SMOOTH = (0.8 * np.exp(-(S_GRID ** 2) / 2) * np.exp(0.3j * S_GRID))
Z0 = 0.6


@pytest.fixture(scope="module")
def smooth():
    return ScatteringData(S_GRID, R_SMOOTH)


@pytest.fixture(scope="module")
def poles():
    return [DiscreteDatum(-0.8 + 0.6j, (1.0,)),
            DiscreteDatum(0.45 + 0.9j, (1.0, 0.2))]


def _r_at(s0):
    return complex(np.interp(s0, S_GRID, R_SMOOTH.real),
                   np.interp(s0, S_GRID, R_SMOOTH.imag))


# ---------------------------------------------------------------------------
# elementary scalars
# ---------------------------------------------------------------------------

def test_nu_reference_values():
    assert nu_of(0.0) == 0.0
    assert nu_of(1.0) == pytest.approx(-math.log(2) / (2 * math.pi))
    assert nu_of(1.0) == pytest.approx(-0.1103178, abs=1e-7)
    assert nu_of(3.0) == pytest.approx(-math.log(10) / (2 * math.pi))


@given(a=st.floats(0.0, 10.0), d=st.floats(1e-3, 5.0))
def test_nu_strictly_decreasing(a, d):
    assert nu_of(a + d) < nu_of(a)


# ---------------------------------------------------------------------------
# the scalar jump factor
# ---------------------------------------------------------------------------

def test_delta_is_one_without_reflection():
    flat = ScatteringData(S_GRID, np.zeros_like(R_SMOOTH))
    assert delta_fn(0.3 + 0.4j, flat, Z0) == 1.0
    assert np.all(delta_fn(np.array([2j, 5.0 + 0j]), flat, Z0) == 1.0)


def test_delta_matches_faddeeva_closed_form():
    """With density log(1 + |r|^2) = exp(-s^2) over the whole sampled line
    the Cauchy integral is the Faddeeva function, delta = exp(w(z)/2)."""
    sg = np.linspace(-6.0, 6.0, 24001)
    r_abs = np.sqrt(np.expm1(np.exp(-(sg ** 2))))
    scat = ScatteringData(sg, r_abs.astype(complex))
    for z in (0.3 + 0.5j, -1.2 + 0.25j, 2.0j, 1.7 + 1.1j):
        mine = delta_fn(z, scat, 6.0)
        oracle = cmath.exp(complex(wofz(z)) / 2.0)
        assert abs(mine - oracle) < 1e-6


def test_delta_log_derivative_matches_finite_differences(smooth):
    # the order-2 pole weight in modulate_constants rests on the first
    # coefficient of 1/delta, -(delta'/delta)/delta
    h = 1e-4
    ray = _RayDensity(smooth, Z0)
    for z in (0.45 + 0.9j, -0.8 + 0.6j, 2.0 + 0.3j):
        inv, slope = (complex(v) for v in ray.inverse_delta(z, 2))
        delta = 1.0 / inv
        assert abs(delta - delta_fn(z, smooth, Z0)) < 1e-14
        fd = ((delta_fn(z + h, smooth, Z0) - delta_fn(z - h, smooth, Z0))
              / (2.0 * h * delta))
        assert abs(-slope * delta - fd) < 1e-8


def test_order_three_dressing_matches_a_circle_of_delta(smooth):
    # a two-term series of 1/delta once dressed every pole, and put the
    # third constant of this one off by 0.37 relative
    ray = _RayDensity(smooth, 0.4)
    datum = DiscreteDatum(0.2 + 0.7j, (1.0, 0.2 + 0.1j, 0.3))
    dressed = modulate_constants([datum], ray.inverse_delta)
    n, radius = 64, 0.35
    inv = 1.0 / delta_fn(datum.z + radius * np.exp(2j * np.pi * np.arange(n) / n), smooth, 0.4)
    series = np.fft.fft(inv) / n / radius ** np.arange(n)
    ref = np.array(_scaled(datum.coefficients, series[:3]))
    assert np.max(np.abs(np.concatenate(dressed.series(0)) - ref) / np.abs(ref)) <= 1e-10


def test_delta_needs_a_side_on_the_ray(smooth):
    # delta jumps across the ray, and no formula reads its boundary values:
    # it is refused at z0, inside the ray and left of the grid alike
    for z in (complex(Z0), -0.5 + 0j, -6.0 + 0j):
        with pytest.raises(ValueError, match="off the ray"):
            delta_fn(z, smooth, Z0)
    with pytest.raises(ValueError, match="off the ray"):
        delta_fn(np.array([1j, -0.5 + 0j]), smooth, Z0)


def _ray_integral(scattering, z0):
    """The plain integral of nu over the ray (-inf, z0], from its nodes."""
    ray = _RayDensity(scattering, z0)
    return ray._per_panel(ray.wv)[:ray.closed].sum() + ray.tip_wv.sum()


def test_ray_keeps_its_tail_at_the_grid_edge_and_refuses_outside():
    # nu grows into the grid from its left edge, so the exponential tail
    # carries mass even when z0 sits exactly on that edge
    sg = np.linspace(-2.0, 2.0, 401)
    scat = ScatteringData(sg, (0.8 * np.exp(-sg ** 2 / 8.0)).astype(complex))
    at_edge = _ray_integral(scat, -2.0)
    assert at_edge < -0.03
    assert abs(at_edge - _ray_integral(scat, -2.0 + 1e-9)) < 1e-9
    assert abs(delta_fn(1j, scat, -2.0) - 1.0) > 1e-3
    for z0 in (-2.0 - 1e-9, 2.0 + 1e-9):
        for call in (lambda: _RayDensity(scat, z0),
                     lambda: delta_fn(1j, scat, z0)):
            with pytest.raises(ValueError, match="bracket"):
                call()


def test_offset_counts_the_window_left_of_an_untailed_grid():
    # nu is flat on the grid and 0 left of it, so the window (z0 - 1, z0)
    # subtracts nu0 over [z0 - 1, s[0]] too, wherever s[0] cuts it: the
    # offset is -nu0 log(z0 - s[0]), the limit of delta(z) (z - z0)^(-i nu0)
    flat = ScatteringData(S_GRID, np.full(S_GRID.size, 0.5 + 0j))
    nu0 = nu_of(0.5)
    for z0 in (-4.6, -4.2, -3.9, -3.0, 0.0):
        got = _RayDensity(flat, z0).offset_integral()
        assert abs(got + nu0 * math.log(z0 - S_GRID[0])) < 1e-12, z0
    # at the grid's left end the density jumps from 0 to nu0 at z0 itself
    with pytest.raises(ValueError, match="diverges"):
        _RayDensity(flat, S_GRID[0]).offset_integral()


def _quad(f, breaks):
    """Adaptive quadrature of a complex f, one call per panel."""
    return sum(quad(f, a, b, complex_func=True, epsabs=1e-15, epsrel=1e-14)[0]
               for a, b in zip(breaks[:-1], breaks[1:]))


def test_ray_integrals_near_the_tail_match_adaptive_quadrature():
    # the density is large at the grid edge, so the tail's panels and the
    # grid panels beside the edge both carry weight; the reference
    # integrates the same nu model adaptively, with the panel breaks
    sg = np.linspace(-2.0, 2.0, 401)
    scat = ScatteringData(sg, (0.8 * np.exp(-sg ** 2 / 8.0)).astype(complex))
    ray = _RayDensity(scat, 0.6)

    def nu(s):
        return float(ray.nu_at(s))

    tail = ray.breaks[:ray.first + 1]
    tail_integral = ray._per_panel(ray.wv)[:ray.first].sum()
    assert abs(tail_integral * ray.tail_kappa / ray.nu_grid[0] - 1.0) < 1e-12
    for z in (sg[0] + 0.3 + 0.05j, sg[0] + 0.3 + 0.5j):
        ref = _quad(lambda s: nu(s) / (s - z), tail)
        # the ray ending at the grid's first sample has a closing panel of
        # zero width, so its kernel sum is the tail's alone
        tail_sum = _RayDensity(scat, scat.z[0]).kernel_series(z, 1)[0]
        assert abs(tail_sum - ref) < 1e-10, z

    for z0 in (sg[0] + 0.05, sg[0] + 0.5, sg[0] + 1.5, 0.3):
        n0 = nu(z0)
        breaks = np.union1d(ray.breaks[ray.breaks < z0], [z0 - 1.0, z0])
        ref = _quad(lambda s: (nu(s) - (n0 if s > z0 - 1.0 else 0.0)) / (s - z0),
                    breaks).real
        assert abs(_RayDensity(scat, z0).offset_integral() - ref) < 1e-10, z0


# One ulp below a sample, z0 - 1 lands an ulp from another sample, and
# quad cannot estimate its error on that panel; the panel holds 1e-17.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_offset_at_a_grid_sample_matches_adaptive_quadrature(smooth):
    # z0 on a sample closes the ray with a panel of zero width, and one ulp
    # either side with one of one ulp or one a whole grid spacing wide
    ray = _RayDensity(smooth, Z0)

    def nu(s):
        return float(ray.nu_at(s))

    for sample in S_GRID[[1200, 1320, 1500]]:
        for z0 in (np.nextafter(sample, -np.inf), sample, np.nextafter(sample, np.inf)):
            n0 = nu(z0)
            breaks = np.union1d(ray.breaks[ray.breaks < z0], [z0 - 1.0, z0])
            ref = _quad(lambda s: (nu(s) - (n0 if s > z0 - 1.0 else 0.0)) / (s - z0),
                        breaks).real
            assert abs(_RayDensity(smooth, z0).offset_integral() - ref) < 1e-10, z0


def test_ray_integrals_at_many_points_equal_one_point_calls(smooth):
    z0s = np.linspace(-4.9, 4.9, 64)
    batch = _RayDensity(smooth, z0s).offset_integral()
    assert all(v == _RayDensity(smooth, z0).offset_integral()
               for z0, v in zip(z0s, batch))


def test_delta_builds_one_ray_for_many_points_on_it(smooth, ray_builds):
    pts = np.array([-2.0, -0.5, 0.1]) + 0.3j
    vals = delta_fn(pts, smooth, Z0)
    assert len(ray_builds) == 1
    for z, v in zip(pts, vals):
        assert v == delta_fn(z, smooth, Z0)


def test_delta_far_field_decay():
    # piecewise-constant reflection on |s| <= 1; the grids align the jump
    for n in (801, 1601):
        sg = np.linspace(-2.0, 2.0, n)
        r = np.where(np.abs(sg) <= 1.0, 1.0, 0.0).astype(complex)
        scat = ScatteringData(sg, r)
        near = abs(delta_fn(20j, scat, 2.0) - 1.0)
        far = abs(delta_fn(40j, scat, 2.0) - 1.0)
        assert 1.8 < near / far < 2.2


# ---------------------------------------------------------------------------
# delta's own properties and the boundary constant
# ---------------------------------------------------------------------------

def test_delta_schwarz_symmetry(smooth):
    # nu is real, so C(conj z) = conj C(z) and delta(z) conj delta(conj z) = 1
    for z in (0.9 + 0.7j, -1.3 + 0.2j, 0.2 - 1.1j, 3.0 + 0.05j):
        val = delta_fn(z, smooth, Z0) * np.conj(delta_fn(np.conj(z), smooth, Z0))
        assert abs(val - 1.0) < 1e-10


def test_delta_large_z_coefficient(smooth):
    """z (delta(z) - 1) tends to -i times the integral of nu; the integral
    reference comes from plain dense trapezoid quadrature, independent of
    the Cauchy-kernel panels inside delta."""
    fine = np.linspace(-5.0, Z0, 200001)
    nu_fine = nu_of(np.abs(np.interp(fine, S_GRID, R_SMOOTH.real)
                           + 1j * np.interp(fine, S_GRID, R_SMOOTH.imag)))
    target = -1j * np.trapezoid(nu_fine, fine)
    f1 = 200j * (delta_fn(200j, smooth, Z0) - 1.0)
    f2 = 400j * (delta_fn(400j, smooth, Z0) - 1.0)
    assert abs(2.0 * f2 - f1 - target) < 5e-4


def test_boundary_constant_reflectionless(poles):
    # both poles lie left of Z0; with neither left of z0, T0 is exactly 1
    flat = ScatteringData(S_GRID, np.zeros_like(R_SMOOTH))
    direct = np.prod([((Z0 - np.conj(d.z)) / (Z0 - d.z)) ** d.order for d in poles])
    got = phase_context(flat, poles, Z0).T0_z0
    assert abs(got - direct) < 1e-12
    assert abs(abs(got) - 1.0) < 1e-12
    assert phase_context(flat, poles, -1.0).T0_z0 == 1.0
    assert phase_context(flat, (), Z0).T0_z0 == 1.0


def test_boundary_constant_takes_the_poles_left_of_z0(smooth, poles):
    # z0 on either side of each pole, and exactly over each: the poles of T
    # are those with Re z_k < z0, a tie going right
    z0 = np.array([-0.85, -0.8, -0.75, 0.4, 0.45, 0.5])
    members = [(), (), (0,), (0,), (0,), (0, 1)]
    beta = _RayDensity(smooth, z0).offset_integral()
    got = phase_context(smooth, poles, z0).T0_z0
    for i, ks in enumerate(members):
        factor = np.prod([((z0[i] - poles[k].z) / (z0[i] - np.conj(poles[k].z)))
                          ** poles[k].order for k in ks])
        assert abs(got[i] - np.exp(1j * beta[i]) / factor) < 1e-14, z0[i]


def test_boundary_constant_is_unimodular(smooth, poles):
    assert abs(abs(phase_context(smooth, poles, Z0).T0_z0) - 1.0) < 1e-10


def test_boundary_constant_needs_bracketing(smooth, poles):
    with pytest.raises(ValueError, match="bracket"):
        phase_context(smooth, poles, 7.0)


def test_delta_approaches_the_boundary_model(smooth):
    # along the diagonal ray the mismatch must stay Hoelder-1/2 bounded;
    # without poles the boundary constant is delta's own.  The model is
    # local: from d = 0.4 to 0.1, where nu still varies, the ratio grows
    t0 = phase_context(smooth, (), Z0).T0_z0
    nu0 = nu_of(abs(_r_at(Z0)))
    ratios = []
    for d in (0.1, 0.05, 0.025, 0.0125, 0.00625):
        z = Z0 + d * cmath.exp(0.25j * math.pi)
        model = t0 * (z - Z0) ** (1j * nu0)
        ratios.append(abs(delta_fn(z, smooth, Z0) - model) / math.sqrt(d))
    assert max(ratios) <= 1.05 * ratios[0]


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def _inside(part, data):
    """The poles whose real parts lie in a partition's velocity window."""
    return tuple(k for k, d in enumerate(data)
                 if part.I[0] <= complex(d.z).real <= part.I[1])


def test_partition_about_the_stationary_point():
    data = [DiscreteDatum(1.0 + 0.5j, (1.0,)),
            DiscreteDatum(-1.0 + 0.5j, (1.0,))]
    assert _left_of(data, 0.0).tolist() == [False, True]
    assert _left_of(data, np.array([-2.0, 2.0])).tolist() == [[False, False],
                                                               [True, True]]


def test_partition_tie_goes_right():
    data = [DiscreteDatum(0.5 + 1.0j, (1.0,))]
    assert _left_of(data, 0.5).tolist() == [False]


def test_cone_membership_and_decay_rate():
    data = [DiscreteDatum(1j, (1.0, 1.0)),
            DiscreteDatum(0.6 + 0.35j, (1.0, 1.0))]
    part = partition(data, cone=(-1.0, 1.0, -0.5, 0.5))
    assert part.I == (-0.25, 0.25)
    assert _inside(part, data) == (0,)          # only the imaginary-axis pole
    assert part.mu_I == pytest.approx(0.35 * 0.35, abs=1e-12)


def test_decay_rate_simple_value_and_sentinel():
    lone = [DiscreteDatum(1.0 + 1.0j, (1.0,))]
    part = partition(lone, cone=(0.0, 0.0, -1.0, 1.0))
    assert part.mu_I == pytest.approx(0.5)
    inside = partition(lone, cone=(0.0, 0.0, -4.0, 4.0))
    assert _inside(inside, lone) == (0,) and inside.mu_I == math.inf


def test_cone_bounds_must_be_ordered():
    # a nan bound passes every ordering test, and would give the window
    # (-0.25, nan) a negative decay rate; the cone formula checks its cone
    # here, before it tests its points against it
    lone = [DiscreteDatum(0.6 + 0.35j, (1.0,))]
    for cone, message in [((1.0, 0.0, 0.0, 1.0), "ordered"),
                          ((0.0, 1.0, 1.0, 0.0), "ordered"),
                          ((math.nan, 1.0, -1.0, 1.0), "x1 must be finite"),
                          ((-1.0, math.inf, -1.0, 1.0), "x2 must be finite"),
                          ((-1.0, 1.0, math.nan, 0.5), "v1 must be finite"),
                          ((-1.0, 1.0, -1.0, -math.inf), "v2 must be finite")]:
        with pytest.raises(ValueError, match=message):
            partition(lone, cone=cone)
        with pytest.raises(ValueError, match=message):
            q_asymptotic(0.0, 10.0, lone, None, cone)


@settings(max_examples=40)
@given(
    res=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    ims=st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3),
    w1=st.floats(0.05, 1.0),
    grow=st.floats(0.05, 2.0),
)
def test_decay_rate_shrinks_as_the_interval_grows(res, ims, w1, grow):
    # monotone only while the membership is unchanged: once a pole is
    # absorbed the minimum runs over fewer terms and may jump up
    data = [DiscreteDatum(complex(re, im), (1.0,))
            for re, im in zip(res, ims)]
    w2 = w1 + grow
    small = partition(data, cone=(0.0, 0.0, -2 * w1, 2 * w1))
    large = partition(data, cone=(0.0, 0.0, -2 * w2, 2 * w2))
    assume(_inside(small, data) == _inside(large, data))
    assert large.mu_I <= small.mu_I


# ---------------------------------------------------------------------------
# context assembly and the modulated amplitude
# ---------------------------------------------------------------------------

def test_phase_context_fields(smooth, poles):
    ctx = phase_context(smooth, poles, z0=0.6)
    assert ctx.z0 == 0.6
    assert ctx.nu0 <= 0
    assert abs(ctx.r_at_z0 - _r_at(0.6)) < 1e-14
    assert abs(abs(ctx.T0_z0) - 1.0) < 1e-8


def test_phase_context_validation(smooth, poles):
    with pytest.raises(ValueError, match="bracket"):
        phase_context(smooth, poles, z0=50.0)
    with pytest.raises(ValueError, match="unimodular"):
        PhaseContext(z0=-0.5, T0_z0=1.4 + 0j, r_at_z0=0.1 + 0j, ray=None)


@pytest.mark.parametrize("field", ["T0_z0", "r_at_z0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex("nan+1j")])
def test_phase_context_refuses_constants_that_are_not_finite(field, bad):
    # a nan boundary constant used to pass the unimodularity check, since
    # |nan| - 1 > 1e-6 is False
    good = dict(T0_z0=1.0 + 0j, r_at_z0=0.1 + 0j)
    for value in (bad, np.array([good[field], bad])):
        fields = dict(good, **{field: value})
        with pytest.raises(ValueError, match="finite"):
            PhaseContext(z0=np.array([-0.5, -1.0]), ray=None, **fields)


def test_modulated_amplitude_basics(smooth, poles):
    ctx = phase_context(smooth, poles, z0=0.15)
    assert abs(abs(r0_modulated(ctx, 4.0))
               - abs(r0_modulated(ctx, 900.0))) < 1e-12
    assert abs(abs(r0_modulated(ctx, 4.0))
               - abs(ctx.r_at_z0) / abs(ctx.T0_z0) ** 2) < 1e-12
    with pytest.raises(ValueError, match="t > 0"):
        r0_modulated(ctx, -1.0)
    silent = PhaseContext(z0=0.0, T0_z0=1.0 + 0j, r_at_z0=0j, ray=None)
    assert r0_modulated(silent, 4.0) == 0.0


def test_gaussian_amplitude_regression_pin():
    prof = gaussian_profile(0.3, np.linspace(-8.0, 8.0, 641))
    scat = reflection_coefficient(prof, np.linspace(-4.0, 4.0, 321))
    ctx = phase_context(scat, [], z0=0.0)
    r0 = r0_modulated(ctx, 25.0)
    assert abs(r0 - (-0.5814569003879617 + 0.08915030374014535j)) < 1e-9

