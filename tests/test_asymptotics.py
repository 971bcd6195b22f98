"""Dispersive-correction module: oscillator coefficients, the two
independent routes to the leading coefficient, and the composite
cone formula."""

import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.special

from fnls import asymptotics, phase
from fnls.asymptotics import (
    PCCoefficients,
    pc_coefficients,
    q_asymptotic,
    save_asymptotics,
)
from fnls.phase import (
    _RayDensity,
    nu_of,
    partition,
    phase_context,
    r0_modulated,
)
from fnls.scattering import (
    DiscreteDatum,
    ScatteringData,
    extract_scattering,
    sech_profile,
)
from fnls.solitons import (
    modulate_constants,
    reorient_constants,
    restrict_to_interval,
    solve_soliton,
    soliton_field,
)
from fnls.splitstep import Grid, split_step

import pointwise_reference
from second_routes import alpha_z0, e1_matrix, pc_first_moment, solution_matrix

S_GRID = np.linspace(-5.0, 5.0, 2001)
R_SMOOTH = 0.8 * np.exp(-S_GRID ** 2 / 2.0) * np.exp(0.3j * S_GRID)
POLES = (
    DiscreteDatum(-0.8 + 0.6j, (1.0,)),
    DiscreteDatum(0.45 + 0.9j, (1.0, 0.2)),
)


@pytest.fixture(scope="module")
def smooth():
    return ScatteringData(S_GRID, R_SMOOTH, ())


def consistent_r0(nu, phase=0.7):
    """An amplitude whose modulus matches the density value ``nu``."""
    return cmath.exp(1j * phase) * math.sqrt(math.expm1(-2.0 * math.pi * nu))


# ---------------------------------------------------------------------------
# Oscillator coefficients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [-0.05, -0.11, -0.3])
def test_pc_product_and_modulus(nu):
    pc = pc_coefficients(consistent_r0(nu), nu)
    assert pc.beta21 == pc.nu / pc.beta12
    assert abs(pc.beta12 * pc.beta21 - nu) < 1e-14
    assert abs(abs(pc.beta12) ** 2 - abs(nu)) < 1e-10


def test_pc_phase_covariance():
    nu = -0.11
    base = pc_coefficients(consistent_r0(nu), nu)
    rotated = pc_coefficients(consistent_r0(nu) * cmath.exp(0.37j), nu)
    assert abs(rotated.beta12 - base.beta12 * cmath.exp(-0.37j)) < 1e-14


def test_pc_conjugate_pairing():
    # beta21 = -conj(beta12) whenever |r0| is consistent with nu
    nu = -0.17
    pc = pc_coefficients(consistent_r0(nu, phase=-1.2), nu)
    assert abs(pc.beta21 + pc.beta12.conjugate()) < 1e-13


def test_pc_first_moment_layout():
    pc = pc_coefficients(consistent_r0(-0.11), -0.11)
    m = pc_first_moment(pc)
    assert m[0, 0] == 0 and m[1, 1] == 0
    assert m[0, 1] == -1j * pc.beta12
    assert m[1, 0] == 1j * pc.beta21


GAMMA_NU = np.concatenate([np.logspace(-8.0, math.log10(20.0), 321),
                           np.linspace(-20.0, 20.0, 401)])
GAMMA_NU = np.concatenate([GAMMA_NU, -GAMMA_NU])
GAMMA_NU = GAMMA_NU[GAMMA_NU != 0.0]


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_gamma_matches_scipy_on_the_imaginary_axis(sign):
    z = sign * 1j * GAMMA_NU
    ref = scipy.special.gamma(z)
    assert np.max(np.abs(asymptotics._gamma(z) / ref - 1.0)) <= 2e-14
    # one point at a time gives the same values as the array
    assert complex(asymptotics._gamma(z[7])) == asymptotics._gamma(z)[7]


def test_pc_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        pc_coefficients(consistent_r0(-0.1), 0.0)
    with pytest.raises(ValueError):
        pc_coefficients(0.0, -0.1)
    with pytest.raises(ValueError, match="nu = 0"):
        pc_coefficients(np.full(3, consistent_r0(-0.1)), np.array([-0.1, 0.0, -0.2]))


def test_pc_rejects_inconsistent_fields():
    nu = -0.11
    good = cmath.rect(math.sqrt(abs(nu)), 0.4)
    PCCoefficients(nu=nu, beta12=good)
    with pytest.raises(ValueError, match="inconsistent"):
        PCCoefficients(nu=nu, beta12=2.0 + 0j)


# ---------------------------------------------------------------------------
# Two routes to the leading coefficient
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z0,t", [(0.6, 25.0), (-0.3, 12.0), (0.0, 40.0),
                                  (1.4, 9.0)])
def test_alpha_matches_pc_route(smooth, z0, t):
    x = -2.0 * t * z0
    ctx = phase_context(smooth, POLES, z0)
    pc = pc_coefficients(r0_modulated(ctx, t), ctx.nu0)
    alpha = alpha_z0(ctx, POLES)
    phi = x * x / (2.0 * t) - ctx.nu0 * math.log(4.0 * t)
    assert abs(pc.beta12 - alpha * cmath.exp(1j * phi)) < 1e-12
    assert abs(abs(alpha) ** 2 - abs(ctx.nu0)) < 1e-14


def test_alpha_pole_free_collapse(smooth):
    ctx = phase_context(smooth, (), 0.6)
    assert ctx.z0 == 0.6
    alpha = alpha_z0(ctx, ())
    expected = (0.25 * math.pi
                + cmath.phase(complex(scipy.special.gamma(1j * ctx.nu0)))
                - cmath.phase(ctx.r_at_z0)
                + 2.0 * _RayDensity(smooth, 0.6).offset_integral())
    assert abs(alpha / abs(alpha) - cmath.exp(1j * expected)) < 1e-12


def test_alpha_rejects_vanishing_density():
    r_odd = S_GRID * np.exp(-S_GRID ** 2)
    sc = ScatteringData(S_GRID, r_odd.astype(np.complex128), ())
    ctx = phase_context(sc, (), 0.0)
    assert ctx.nu0 == 0.0
    with pytest.raises(ValueError, match="vanishes"):
        alpha_z0(ctx, ())


def test_alpha_rejects_unbracketed_grid():
    # alpha reads its beta integral from the context's ray, and no ray
    # is built on a grid that does not bracket z0
    narrow = ScatteringData(np.linspace(2.0, 3.0, 11),
                            np.full(11, 0.1 + 0.0j), ())
    with pytest.raises(ValueError, match="bracket"):
        alpha_z0(phase_context(narrow, (), 0.6), ())


# ---------------------------------------------------------------------------
# Conjugated moment matrix
# ---------------------------------------------------------------------------

def test_e1_identity_conjugation():
    pc = pc_coefficients(consistent_r0(-0.11), -0.11)
    t = 4.0
    e1 = e1_matrix(np.eye(2), pc, t)
    assert e1[0, 0] == 0 and e1[1, 1] == 0
    assert abs(e1[0, 1] + pc.beta12 / (2.0 * math.sqrt(t))) < 1e-16
    assert abs(e1[1, 0] - pc.beta21 / (2.0 * math.sqrt(t))) < 1e-16


def test_e1_scalar_cross_check():
    pc = pc_coefficients(consistent_r0(-0.2, phase=0.3), -0.2)
    a, b = 0.8 + 0.3j, -0.2 + 0.36j
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    a, b = a / norm, b / norm
    m = np.array([[a, b], [-b.conjugate(), a.conjugate()]])
    t = 9.0
    e1 = e1_matrix(m, pc, t)
    assert abs(e1[0, 0] + e1[1, 1]) < 1e-16
    direct = -(pc.beta12 * a ** 2 + pc.beta21 * b ** 2) / (2.0 * math.sqrt(t))
    assert abs(e1[0, 1] - direct) < 1e-15


def test_e1_rejections():
    pc = pc_coefficients(consistent_r0(-0.11), -0.11)
    with pytest.raises(ValueError, match="singular"):
        e1_matrix(np.diag([1.0, 2.0]), pc, 4.0)
    with pytest.raises(ValueError, match="positive"):
        e1_matrix(np.eye(2), pc, 0.0)
    with pytest.raises(ValueError, match="2x2"):
        e1_matrix(np.eye(3), pc, 4.0)


# ---------------------------------------------------------------------------
# Composite cone evaluation
# ---------------------------------------------------------------------------

CONE_LOW = (-1.0, 1.0, -1.0, -0.8)    # keeps the order-2 pole, lower side
CONE_UP = (-1.0, 1.0, 1.5, 1.7)       # keeps the order-1 pole, flipped side


def test_reflectionless_is_bitwise_soliton_field(smooth):
    zero_r = ScatteringData(S_GRID, np.zeros_like(R_SMOOTH), ())
    x, t = -8.6, 10.0
    for sc in (None, zero_r):
        v = q_asymptotic(x, t, POLES, sc, CONE_LOW)
        assert v.f_part == 0
        assert v.q_total == v.q_sol_part
        part = partition(POLES, CONE_LOW)
        direct = solve_soliton(restrict_to_interval(POLES, part.I), x, t)
        assert v.q_sol_part == complex(direct.q)


def test_pole_free_amplitude_law(smooth):
    cone = (-1.0, 1.0, -0.05, 0.05)
    v = q_asymptotic(0.4, 25.0, (), smooth, cone)
    assert v.q_sol_part == 0
    z0 = -0.4 / 50.0
    r_at = complex(np.interp(z0, S_GRID, R_SMOOTH.real),
                   np.interp(z0, S_GRID, R_SMOOTH.imag))
    assert abs(abs(v.q_total) * 5.0 - math.sqrt(abs(nu_of(abs(r_at))))) < 1e-13


@pytest.mark.parametrize("x,t,cone,expect", [
    (-8.6, 10.0, CONE_LOW, -0.4080215002851588 + 0.25277112212796515j),
    (15.5, 10.0, CONE_UP, 0.4256887342198908 - 1.0984339373788892j),
])
def test_composite_regression_pins(smooth, x, t, cone, expect):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = q_asymptotic(x, t, POLES, smooth, cone)
    assert abs(v.q_total - expect) < 1e-10


@pytest.mark.parametrize("x,t,cone", [(-8.6, 10.0, CONE_LOW),
                                      (15.5, 10.0, CONE_UP)])
def test_composite_invariants(smooth, x, t, cone):
    v = q_asymptotic(x, t, POLES, smooth, cone)
    z0 = -x / (2.0 * t)
    part = partition(POLES, cone)

    # bound-state part mirrors the restrict-then-weight pipeline exactly
    ctx = phase_context(smooth, POLES, z0)
    kept = restrict_to_interval(POLES, part.I)
    state = solve_soliton(modulate_constants(kept, ctx.ray.inverse_delta), x, t, z0)
    assert v.q_sol_part == complex(state.q)

    # the solve's row is in T's normalization: the kept poles left of z0
    # flipped
    eta11, eta12 = (complex(v) for v in state.row)

    # triangle bound on the dispersive coefficient
    cap = (abs(eta11) ** 2 + abs(eta12) ** 2) * math.sqrt(abs(ctx.nu0))
    assert abs(v.f_part) <= cap + 1e-12

    # amplitude/phase route reproduces the coefficient-route f
    alpha = alpha_z0(ctx, POLES)
    phi = x * x / (2.0 * t) - ctx.nu0 * math.log(4.0 * t)
    w = alpha * cmath.exp(1j * phi)
    f_alpha = w * eta11 ** 2 - w.conjugate() * eta12 ** 2
    assert abs(f_alpha - v.f_part) < 1e-12
    wrap = cmath.exp(1j * (cmath.phase(w) - cmath.phase(alpha) - phi))
    assert abs(wrap - 1.0) < 1e-10

    # exact assembly of the total
    assert v.q_total == v.q_sol_part + v.f_part / math.sqrt(t)


@pytest.mark.parametrize("seed", range(6))
def test_restricting_then_dressing_is_dressing_then_slicing(smooth, seed):
    # dressing acts pole by pole, so the window may be taken first: the kept
    # poles' constants are, bit for bit, the slice of the whole dressed
    # stack, whose extra leading columns are the padding of poles left out.
    # The first pole lies outside the window [-0.4, 0.4], the second inside.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    re = [rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 0.9), rng.uniform(-0.4, 0.4),
          *rng.uniform(-0.9, 0.9, n - 2)]
    data = tuple(DiscreteDatum(complex(r, rng.uniform(0.3, 1.0)),
                               tuple(rng.normal(size=m) + 1j * rng.normal(size=m)))
                 for r, m in zip(re, rng.integers(1, 4, n)))
    keep = [k for k, d in enumerate(data) if -0.4 <= d.z.real <= 0.4]
    inverse_delta = _RayDensity(smooth, np.linspace(-0.5, 0.5, 7)).inverse_delta
    full = modulate_constants(data, inverse_delta).c[:, keep]
    kept = modulate_constants(restrict_to_interval(data, (-0.4, 0.4)), inverse_delta).c
    pad = full.shape[2] - kept.shape[2]
    assert full.shape[:2] == kept.shape[:2] == (7, len(keep))
    assert not full[:, :, :pad].any()
    assert full[:, :, pad:].tobytes() == kept.tobytes()


def test_one_ray_grid_per_call(smooth, ray_builds):
    # every point of every slice of a call reads one ray quadrature: the
    # pole dressing and the boundary constant alike
    t = np.array([[10.0], [12.0], [14.0]])
    x = np.linspace(-0.9, 0.9, 8) + CONE_LOW[2] * t
    v = q_asymptotic(x, t, POLES, smooth, CONE_LOW)
    assert v.q_total.shape == (3, 8)
    assert np.all(v.f_part != 0)
    assert len(ray_builds) == 1


def test_rejects_points_outside_the_cone(smooth):
    with pytest.raises(ValueError, match="outside"):
        q_asymptotic(30.0, 10.0, POLES, smooth, CONE_LOW)


def test_rejects_small_or_nonpositive_t(smooth):
    with pytest.raises(ValueError, match="positive"):
        q_asymptotic(0.0, -1.0, (), smooth, (-1.0, 1.0, -0.1, 0.1))
    with pytest.raises(ValueError, match="positive"):
        q_asymptotic(0.0, 0.0, (), smooth, (-1.0, 1.0, -0.1, 0.1))
    with pytest.raises(ValueError, match="floor"):
        q_asymptotic(0.0, 3.0, (), smooth, (-1.0, 1.0, -0.1, 0.1))
    v = q_asymptotic(0.0, 3.0, (), smooth, (-1.0, 1.0, -0.1, 0.1), min_t=2.0)
    assert abs(v.q_total) > 0


def test_one_point_gives_python_scalars(smooth):
    # callers at one point compare and serialise the results as before
    v = q_asymptotic(-8.6, 10.0, POLES, smooth, CONE_LOW)
    assert [type(a) for a in (v.x, v.t, v.q_sol_part, v.f_part, v.q_total)] == [
        float, float, complex, complex, complex]
    pc = pc_coefficients(consistent_r0(-0.11), -0.11)
    assert [type(a) for a in (pc.nu, pc.beta12, pc.beta21)] == [
        float, complex, complex]


def test_save_asymptotics_roundtrip(tmp_path, smooth):
    cone = (-1.0, 1.0, -0.05, 0.05)
    vals = q_asymptotic(0.0, np.array([9.0, 16.0]), (), smooth, cone)
    path = tmp_path / "asym.csv"
    save_asymptotics(path, vals)
    arr = np.loadtxt(path, delimiter=",")
    assert arr.shape == (2, 8)
    assert arr[0, 0] == 0.0 and arr[1, 1] == 16.0
    assert arr[0, 6] == vals.q_total[0].real
    assert arr[1, 7] == vals.q_total[1].imag


# ---------------------------------------------------------------------------
# Arrays of points against the pointwise reference
# ---------------------------------------------------------------------------

SIMPLE = (DiscreteDatum(-0.1 + 0.6j, (1.0,)),
          DiscreteDatum(0.1 + 0.8j, (0.5 - 0.5j,)))
DOUBLE = (DiscreteDatum(0.05 + 0.7j, (1.0, 0.2 + 0.1j)),)
WIDE = (-1.0, 1.0, -0.5, 0.5)


def _against_reference(x, t, sigma_d, scattering, cone):
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    v = q_asymptotic(x, t, sigma_d, scattering, cone)
    assert v.q_total.shape == x.shape
    worst = 0.0
    for i in np.ndindex(x.shape):
        ref = pointwise_reference.q_pointwise(float(x[i]), float(t[i]), sigma_d,
                                              scattering, cone)
        got = (v.q_sol_part[i], v.f_part[i], v.q_total[i])
        worst = max(worst, max(abs(a - b) for a, b in zip(got, ref)))
    assert worst <= 1e-12, worst
    return v


def _slices(cone, times, n):
    t = np.asarray(times, dtype=float)[:, None]
    return np.linspace(cone[0] + cone[2] * t, cone[1] + cone[3] * t, n, axis=-1)[:, 0], t


@pytest.mark.parametrize("poles", [(), SIMPLE[:1], SIMPLE, DOUBLE],
                         ids=["no-pole", "one-simple", "two-simple", "one-double"])
def test_batched_matches_pointwise_reference(smooth, poles):
    # the two simple poles sit at Re z = -0.1 and 0.1, inside the cone,
    # and z0 sweeps across both along each slice: three flip patterns
    x, t = _slices(WIDE, (9.0, 13.0, 20.0), 11)
    v = _against_reference(x, t, poles, smooth, WIDE)
    assert np.all(v.f_part != 0)


def test_batched_flip_pattern_changes_within_a_slice(smooth):
    x, t = _slices(WIDE, (10.0,), 24)
    z0 = -x / (2.0 * t)
    left = np.stack([z0 > d.z.real for d in SIMPLE], axis=-1)
    assert len(np.unique(left.reshape(-1, 2), axis=0)) == 3
    _against_reference(x, t, SIMPLE, smooth, WIDE)


def test_batched_z0_on_a_grid_sample(smooth):
    # t a power of two keeps z0 = -x / (2t) exactly on the samples
    t = 8.0
    z0 = S_GRID[[1080, 1100, 1120]]
    x = -2.0 * t * z0
    assert np.all(-x / (2.0 * t) == z0)
    _against_reference(x, t, SIMPLE, smooth, (-1.0, 1.0, -1.5, 1.5))


def test_batched_window_edge_left_of_the_grid(smooth):
    # z0 - 1 falls in the exponential tail, and on a grid with no tail it
    # falls left of the quadrature altogether
    cone = (-1.0, 1.0, 8.5, 9.5)
    x, t = _slices(cone, (8.0, 9.0), 7)
    assert np.all(-x / (2.0 * t) - 1.0 < S_GRID[0])
    _against_reference(x, t, SIMPLE, smooth, cone)
    flat_edge = ScatteringData(S_GRID, np.where(S_GRID < 0.0, 0.3, R_SMOOTH), ())
    _against_reference(x, t, SIMPLE, flat_edge, cone)


@pytest.mark.parametrize("x,t,min_t,name,value", [
    (0.0, math.inf, 5.0, "t", math.inf),
    (0.0, math.nan, 5.0, "t", math.nan),
    ([0.0, math.nan], 10.0, 5.0, "x", math.nan),
    (-math.inf, 10.0, 5.0, "x", -math.inf),
    (0.0, 10.0, math.nan, "min_t", math.nan),
    (0.0, 10.0, math.inf, "min_t", math.inf),
    (0.0, 1e-300, 0.0, "min_t", 0.0),
])
def test_non_finite_cone_input_is_refused(smooth, x, t, min_t, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {value!r}$"):
        q_asymptotic(x, t, SIMPLE, smooth, WIDE, min_t=min_t)


def test_batched_drops_radiation_only_where_r_vanishes():
    one_sided = ScatteringData(S_GRID, np.where(S_GRID > 0.0, R_SMOOTH, 0.0), ())
    cone = (-1.0, 1.0, -0.3, 0.3)
    x, t = _slices(cone, (10.0, 15.0), 12)
    v = _against_reference(x, t, SIMPLE, one_sided, cone)
    silent = v.f_part == 0
    assert silent.any() and not silent.all()


def test_batched_tie_goes_right(smooth, monkeypatch):
    tied = (DiscreteDatum(0.125 + 0.6j, (1.0,)),)
    t = 8.0
    x = np.array([-3.0, -2.0, -1.0])        # z0 = 0.1875, 0.125, 0.0625
    _against_reference(x, t, tied, smooth, WIDE)
    # the tied pole joins the right-hand set: its row is the all-lower one,
    # like the point right of it, where the point left of it has the pole
    # flipped
    rule, flags = phase._left_of, []

    def recording(data, z0):
        left = rule(data, z0)
        flags.append(left[:, 0].tolist())
        return left

    monkeypatch.setattr(phase, "_left_of", recording)
    rows = []
    f = _recording_rows(smooth, x, t, tied, WIDE, rows).f_part
    assert flags == [[True, False, False]]
    (row,) = rows
    z0 = -x / (2.0 * t)
    ctx = phase_context(smooth, tied, z0)
    weighted = modulate_constants(tied, ctx.ray.inverse_delta)
    for i, left in enumerate(flags[0]):
        point = weighted.rows([i])
        m = solution_matrix(reorient_constants(point, [0]) if left else point, x[i], t, z0[i])
        assert np.max(np.abs(row[i] - m[0])) <= 1e-12 * np.max(np.abs(m[0]))
    pc = pc_coefficients(r0_modulated(ctx, t), ctx.nu0)
    expect = pc.beta12 * row[:, 0] ** 2 + pc.beta21 * row[:, 1] ** 2
    assert np.max(np.abs(f - expect)) <= 1e-14 * np.max(np.abs(f))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_tied_pole_side_changes_no_output(smooth, order):
    # a pole of order m exactly over z0 has the Blaschke factor (-1)^m
    # there, and the cone formula reads the flagged factors only squared,
    # so either side gives the same bits, and a tie warns of nothing
    tied = (DiscreteDatum(0.125 + 0.6j, (1.0, 0.3 - 0.2j, -0.4j)[:order]),)
    x, t = np.array([-3.0, -2.0, -1.0]), 8.0        # z0 = 0.125 at the middle point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        right = q_asymptotic(x, t, tied, smooth, WIDE)
    rule, flags = phase._left_of, []

    def tie_goes_left(data, z0):
        left = rule(data, z0) | (z0[:, None] == 0.125)
        flags.append(left[:, 0].tolist())
        return left

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phase, "_left_of", tie_goes_left)
        left = q_asymptotic(x, t, tied, smooth, WIDE)
    assert flags == [[True, True, False]]
    assert np.all(right.f_part != 0)
    assert right.q_sol_part.tobytes() == left.q_sol_part.tobytes()
    assert right.f_part.tobytes() == left.f_part.tobytes()


def _recording_rows(scattering, x, t, sigma_d, cone, rows):
    """``q_asymptotic`` with every row its solve returns appended to
    ``rows``."""
    def recording(*args):
        state = solve_soliton(*args)
        rows.append(state.row)
        return state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asymptotics, "solve_soliton", recording)
        return q_asymptotic(x, t, sigma_d, scattering, cone)


# ---------------------------------------------------------------------------
# Order-3 poles: the cone's soliton part against a 60-digit solve
# ---------------------------------------------------------------------------

# q at one point of reflectionless data with order-3 poles, from a
# 60-digit solve of the residue conditions (mpmath, agreeing with 80
# digits to 1e-57).  The cone (-1, 1, -1, 1) keeps every pole.  Flipping
# the poles left of z0 alone left the cone's q off by 2.7e-2 and 4.5e-2;
# the better conditioned of the two systems is off by 6.3e-12 and 3.6e-9.
ORDER_3_CASES = [
    pytest.param((DiscreteDatum(0.0171 + 0.9637j, (0.6898 - 0.8919j, 0.4688 - 0.0178j)),
                  DiscreteDatum(0.187 + 0.7102j, (-0.6776 - 0.2272j, -0.9936 - 1.4589j,
                                                  0.0638 + 0.7745j)),
                  DiscreteDatum(0.1676 + 0.9961j, (-0.2411 + 0.74j, -0.4 - 0.9954j,
                                                   -1.5222 - 0.8203j))),
                 -3.87, 10.0, 1.0057960719628205 + 2.105084964605587j, 1e-10, id="A"),
    pytest.param((DiscreteDatum(0.0068 + 1.1762j, (0.1486 - 1.6082j, 0.2418 + 0.2354j,
                                                   1.5756 + 0.3166j)),
                  DiscreteDatum(-0.2515 + 0.8074j, (-1.4931 + 2.2527j,)),
                  DiscreteDatum(-0.0741 + 1.0019j, (-1.9156 + 1.1018j, -0.3299 - 0.8806j,
                                                    -0.6563 - 0.672j))),
                 -0.36, 20.0, 0.7121769506456951 - 0.2887752374616573j, 4e-8, id="B"),
]


@pytest.mark.parametrize("poles,x,t,exact,bound", ORDER_3_CASES)
def test_order_3_cone_soliton_part_matches_a_60_digit_solve(poles, x, t, exact, bound):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cone = q_asymptotic(x, t, poles, None, (-1.0, 1.0, -1.0, 1.0)).q_sol_part
        field = soliton_field(poles, [x], t)[0]
    assert abs(cone - exact) <= bound * abs(exact)
    assert abs(field - exact) <= bound * abs(exact)
    assert not caught


# ---------------------------------------------------------------------------
# Against the PDE: the order-1 pole of 1.3 sech x with its radiation
# ---------------------------------------------------------------------------

SECH_CONE = (-1.0, 1.0, -0.3, 0.3)
SECH_TIMES = (10.0, 20.0, 40.0)


@pytest.fixture(scope="module")
def sech_run():
    """Scattering data of ``1.3 sech x`` and its split-step evolution."""
    profile = sech_profile(1.3, np.linspace(-26.0, 26.0, 1041))
    sc = extract_scattering(profile, np.linspace(-4.0, 4.0, 321),
                            box=(-0.6, 0.6, 0.05, 1.9))
    assert [d.order for d in sc.discrete] == [1]
    grid = Grid(8192, -160.0 * math.pi, 160.0 * math.pi)
    ev = split_step(1.3 / np.cosh(grid.x), grid, SECH_TIMES[-1], dt=4e-3,
                    t_samples=SECH_TIMES[:-1])
    return sc, ev


@pytest.mark.filterwarnings("ignore:pole")
@pytest.mark.parametrize("speed", [-0.2, 0.0, 0.2])
def test_sech_remainder_decays_along_rays(sech_run, speed):
    # the cone formula leaves an O(t^-3/4) remainder, so t^(3/4) times the
    # gap to the PDE must not grow along a ray x = speed * t
    sc, ev = sech_run
    scaled = []
    for t in SECH_TIMES:
        x = speed * t
        q_pde = complex(ev.interp(t, np.array([x]))[0])
        q_asym = q_asymptotic(x, t, sc.discrete, sc, SECH_CONE).q_total
        scaled.append(t ** 0.75 * abs(q_pde - q_asym))
    assert all(b <= a for a, b in zip(scaled, scaled[1:])), scaled


@pytest.mark.filterwarnings("ignore:pole")
def test_sech_asymptote_is_even(sech_run):
    # even initial data evolve into a field even in x
    sc, _ = sech_run
    worst = 0.0
    for t in SECH_TIMES:
        xs = np.linspace(-0.3 * t, 0.3 * t, 13)
        q = np.abs([q_asymptotic(x, t, sc.discrete, sc, SECH_CONE).q_total
                    for x in xs])
        worst = max(worst, float(np.max(np.abs(q - q[::-1])) / np.max(q)))
    assert worst <= 1e-3


@pytest.mark.filterwarnings("ignore:pole")
def test_inline_dispersive_product_is_the_e1_entry(sech_run):
    # q_asymptotic forms f = beta12 row0^2 + beta21 row1^2 from the first
    # row of the outer matrix M, in T's normalization; it must be -2 sqrt(t)
    # times the (1,2) entry of e1_matrix(M, pc, t), which also checks
    # det M = 1.  M is the whole matrix of the flipped system, from the
    # second route; its first row must be the solve's row.
    sc, _ = sech_run
    rows = []
    for t in SECH_TIMES:
        for x in np.linspace(-0.3 * t, 0.3 * t, 5):
            rows.clear()
            f = _recording_rows(sc, x, t, sc.discrete, SECH_CONE, rows).f_part
            z0 = -x / (2.0 * t)
            part = partition(sc.discrete, SECH_CONE)
            ctx = phase_context(sc, sc.discrete, z0)
            kept = restrict_to_interval(sc.discrete, part.I)
            weighted = modulate_constants(kept, ctx.ray.inverse_delta)
            left = [d.z.real < z0 for d in kept]
            m = solution_matrix(reorient_constants(weighted, np.flatnonzero(left)), x, t, z0)
            (row,) = rows
            assert np.max(np.abs(row - m[0])) <= 1e-12 * np.max(np.abs(m[0]))
            pc = pc_coefficients(r0_modulated(ctx, t), ctx.nu0)
            e1 = e1_matrix(m, pc, t)
            assert abs(f + 2.0 * math.sqrt(t) * e1[0, 1]) <= 1e-12 * abs(f)
