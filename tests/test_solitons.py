from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnls.solitons import (
    DiscreteDatum,
    OrientedData,
    blaschke_derivatives_at_member,
    blaschke_product,
    blaschke_value_and_derivs,
    evaluate_matrix,
    mass_from_spectrum,
    modulate_constants,
    outer_matrix_row,
    pole_system,
    reorient_constants,
    restrict_to_interval,
    solve_field,
    solve_soliton,
    soliton_field,
)
from fnls.splitstep import Grid, pde_residual

SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _pair():
    return (
        DiscreteDatum(1j, 2, c0=0.1 - 0.2j, c1=0.7 + 0.3j),
        DiscreteDatum(0.6 + 0.35j, 2, c0=-0.4 + 0.15j, c1=0.9 - 0.1j),
    )


def test_block_entries_single_pole_at_origin():
    # z = i, (c0, c1) = (0, 1), x = t = 0: gamma = (0, 1), w = 2i, so the
    # four 1x1 blocks are 1/4, -i/4, -i/2, -1/4 by direct evaluation.  They
    # sit in the top right of [[I, 0, A, B], [0, I, C, D], ...].
    matrix, rhs = pole_system([DiscreteDatum(1j)], [0.0], 0.0)
    assert matrix.shape == (1, 4, 4)
    assert matrix[0, 0, 2] == pytest.approx(0.25)
    assert matrix[0, 0, 3] == pytest.approx(-0.25j)
    assert matrix[0, 1, 2] == pytest.approx(-0.5j)
    assert matrix[0, 1, 3] == pytest.approx(-0.25)
    assert np.allclose(rhs[0], [0, 0, 0, 1])


def test_field_value_matches_high_precision_reference():
    # frozen from a 50-digit variable-precision solve of the same 4x4 system
    state = solve_soliton([DiscreteDatum(1j)], 0.0, 0.0)
    assert state.q == pytest.approx(0.1813031161473088, abs=1e-13)


def test_simple_pole_reduces_to_classical_soliton():
    """With c1 = 0 the system collapses to the order-1 case, whose closed
    form at z = i, c0 = 2 is q = -2i sech(2x) e^{2it}."""
    x = np.linspace(-6.0, 6.0, 481)
    q = soliton_field([DiscreteDatum(1j, order=1, c0=2.0, c1=0.0)], x, 0.7)
    exact = -2j / np.cosh(2 * x) * np.exp(1.4j)
    assert np.max(np.abs(q - exact)) < 1e-12


def test_peak_amplitude_is_twice_imag_z():
    x = np.linspace(-2, 2, 801)
    q = soliton_field([DiscreteDatum(1j, order=1, c0=2.0, c1=0.0)], x, 0.0)
    assert np.max(np.abs(q)) == pytest.approx(2.0, abs=1e-10)


def test_mass_quadrature_matches_trace_formula():
    grid = Grid(2048, -12 * np.pi, 12 * np.pi)
    data = [DiscreteDatum(1j)]
    q = soliton_field(data, grid.x, 0.0)
    mass = np.sum(np.abs(q) ** 2) * grid.dx
    assert mass_from_spectrum(data) == pytest.approx(8.0)
    assert mass == pytest.approx(8.0, abs=1e-6)


def test_reconstructed_field_solves_the_pde():
    grid = Grid(2048, -10 * np.pi, 10 * np.pi)
    data = [DiscreteDatum(1j)]

    def q_fn(x, t):
        return soliton_field(data, x, t)

    res = pde_residual(q_fn, grid, [0.5], h_t=2e-3)
    assert res < 1e-6


def test_laurent_coefficients_match_pole_conditions():
    """Contour-integrate the reconstructed matrix around each pole and compare
    the order -1 / order -2 coefficients with the defining relations: the
    principal part of column 1 must equal column 2 (and its derivative)
    weighted by the gamma pair."""
    data = _pair()
    x, t = 0.4, 0.3
    state = solve_soliton(data, x, t)

    phi = 2 * np.pi * np.arange(256) / 256
    for k, d in enumerate(data):
        circle = d.z + 0.25 * np.exp(1j * phi)
        m = evaluate_matrix(state, circle)
        w = (circle - d.z)[:, None, None]
        p1 = np.mean(m * w, axis=0)
        p2 = np.mean(m * w * w, axis=0)

        # column 2 of the closed form is analytic near z_k
        col2 = np.zeros(2, dtype=complex)
        dcol2 = np.zeros(2, dtype=complex)
        col2[1] += 1.0
        for j, dj in enumerate(data):
            v = 1.0 / (d.z - np.conj(dj.z))
            b1, b2 = state.beta1[j], state.beta2[j]
            a1, a2 = state.alpha1[j], state.alpha2[j]
            col2 += np.array([-np.conj(b1) * v - np.conj(b2) * v**2,
                              np.conj(a1) * v + np.conj(a2) * v**2])
            dcol2 += np.array([np.conj(b1) * v**2 + 2 * np.conj(b2) * v**3,
                               -np.conj(a1) * v**2 - 2 * np.conj(a2) * v**3])

        # the gamma pair of a lower pole
        ph = np.exp(2j * (t * d.z * d.z + x * d.z))
        g0 = (d.c0 + d.c1 * (4j * t * d.z + 2j * x)) * ph
        g1 = d.c1 * ph
        assert np.max(np.abs(p2[:, 0] - g1 * col2)) < 1e-8
        assert np.max(np.abs(p1[:, 0] - (g1 * dcol2 + g0 * col2))) < 1e-8
        assert np.max(np.abs(p1[:, 1])) < 1e-10
        assert np.max(np.abs(p2[:, 1])) < 1e-10


def test_conjugation_symmetry_and_unit_determinant():
    state = solve_soliton(_pair(), -0.7, 0.45)
    rng = np.random.default_rng(7)
    zs = rng.uniform(-3, 3, 12) + 1j * rng.uniform(-3, 3, 12)
    zs = zs[np.abs(zs.imag) > 0.05]
    m = evaluate_matrix(state, zs)
    m_conj = evaluate_matrix(state, np.conj(zs))
    sym = np.einsum("ij,njk,kl->nil", SIGMA2, np.conj(m_conj), SIGMA2)
    assert np.max(np.abs(m - sym)) < 1e-10
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-10


def test_field_invariant_under_orientation_changes():
    data = _pair()
    x, t = 0.3, 0.2
    q_ref = solve_soliton(data, x, t).q
    for flip in ([], [0], [1], [0, 1]):
        oriented = reorient_constants(data, flip)
        q = solve_soliton(oriented, x, t).q
        assert abs(q - q_ref) < 1e-9, f"flip {flip}"


def test_reorientation_is_a_column_scaling():
    # the transformed matrix must equal the original times diag(a, 1/a)
    data = _pair()
    x, t = 0.15, -0.25
    flip = [1]
    s_old = solve_soliton(data, x, t)
    s_new = solve_soliton(reorient_constants(data, flip), x, t)
    zs = np.array([0.4 + 2.1j, -1.3 + 0.9j, 2.0 - 1.4j])
    a = blaschke_product(zs, [data[i] for i in flip])
    m_old = evaluate_matrix(s_old, zs)
    m_new = evaluate_matrix(s_new, zs)
    scaled = m_old * np.stack([a, 1.0 / a], axis=-1)[:, None, :]
    assert np.max(np.abs(m_new - scaled)) < 1e-10


def test_reorientation_handles_simple_poles():
    data = (
        DiscreteDatum(0.2 + 0.8j, order=1, c0=1.3 - 0.4j, c1=0.0),
        DiscreteDatum(-0.5 + 1.1j, 2, c0=0.25j, c1=0.6),
    )
    q_ref = solve_soliton(data, -0.2, 0.35).q
    for flip in ([0], [1], [0, 1]):
        q = solve_soliton(reorient_constants(data, flip), -0.2, 0.35).q
        assert abs(q - q_ref) < 1e-9


def test_blaschke_member_derivatives_against_contour():
    data = _pair()
    app, appp = blaschke_derivatives_at_member(data, 0)
    zk = data[0].z
    phi = 2 * np.pi * np.arange(512) / 512
    circle = zk + 0.2 * np.exp(1j * phi)
    vals = blaschke_product(circle, data)
    w = circle - zk
    c2 = np.mean(vals / w**2)
    c3 = np.mean(vals / w**3)
    assert abs(app - 2.0 * c2) < 1e-9
    assert abs(appp - 6.0 * c3) < 1e-9


def test_blaschke_offmember_derivatives_against_contour():
    data = _pair()
    z = 1.8 + 0.6j
    a, ap, app = blaschke_value_and_derivs(z, data)
    phi = 2 * np.pi * np.arange(512) / 512
    circle = z + 0.15 * np.exp(1j * phi)
    vals = blaschke_product(circle, data)
    w = circle - z
    assert abs(a - np.mean(vals)) < 1e-10
    assert abs(ap - np.mean(vals / w)) < 1e-9
    assert abs(app - 2.0 * np.mean(vals / w**2)) < 1e-9


def test_modulation_identity_and_scaling():
    data = _pair()
    same = modulate_constants(data, lambda z: (1.0, 0.0))
    assert same == data

    # delta = 1/a with a the Blaschke product of one more pole dresses the
    # constants as the column scaling by a does: reorient_constants' rule
    # for the poles that stay lower
    other = DiscreteDatum(-0.9 + 0.5j, 1, c0=1.0, c1=0.0)

    def delta_at(z):
        a, ap, _ = blaschke_value_and_derivs(z, [other])
        return 1.0 / a, -ap / a

    scaled = modulate_constants(data, delta_at)
    flipped = reorient_constants((*data, other), [2])
    for s, f in zip(scaled, flipped.data):
        assert s.c0 == pytest.approx(f.c0, rel=1e-13)
        assert s.c1 == pytest.approx(f.c1, rel=1e-13)


def test_interval_restriction_and_tie_warning():
    data = (
        DiscreteDatum(-0.8 + 0.5j, 2, c0=0.1, c1=1.0),
        DiscreteDatum(-0.1 + 0.9j, 2, c0=0.2, c1=1.0),
        DiscreteDatum(0.4 + 0.7j, 2, c0=0.3, c1=1.0),
        DiscreteDatum(1.5 + 0.6j, 2, c0=0.4, c1=1.0),
    )
    out = restrict_to_interval(data, (-0.3, 0.6), z0=0.2)
    assert [d.z for d in out.data] == [-0.1 + 0.9j, 0.4 + 0.7j]
    assert out.orientations == ("upper", "lower")

    with pytest.warns(RuntimeWarning, match="z0"):
        tied = restrict_to_interval(data, (-1.0, 2.0), z0=0.4)
    assert tied.orientations == ("upper", "upper", "lower", "lower")


def test_input_validation():
    with pytest.raises(ValueError):
        DiscreteDatum(1.0 - 0.5j)
    with pytest.raises(ValueError):
        DiscreteDatum(1j, order=3)
    with pytest.raises(ValueError):
        DiscreteDatum(1j, order=1, c0=1.0, c1=0.5)
    with pytest.raises(ValueError):
        DiscreteDatum(1j, order=2, c0=1.0, c1=0.0)
    with pytest.raises(ValueError, match="coincident"):
        pole_system([DiscreteDatum(1j), DiscreteDatum(1j)], [0.0], 0.0)
    with pytest.raises(ValueError):
        OrientedData((DiscreteDatum(1j),), ("sideways",))


@pytest.mark.parametrize("field", ["z", "c0", "c1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_pole_data_is_rejected(field, bad):
    good = {"z": 1j, "c0": 0.5, "c1": 1.0}
    with pytest.raises(ValueError, match=f"pole {field} must be finite"):
        DiscreteDatum(**{**good, field: good[field] + bad}, order=2)


def test_condition_warning_at_extreme_x():
    # far into the exponential tail the gamma factors skew the system badly
    datum = DiscreteDatum(1j, order=1, c0=2.0, c1=0.0)
    with pytest.warns(RuntimeWarning, match="condition"):
        state = solve_soliton([datum], -26.0, 0.0)
    assert state.condition > 1e12


def _satsuma_yajima(x, t):
    """Closed form of the evolution of ``q(x, 0) = 2 sech x``."""
    num = np.cosh(3.0 * x) + 3.0 * np.exp(4j * t) * np.cosh(x)
    den = np.cosh(4.0 * x) + 4.0 * np.cosh(2.0 * x) + 3.0 * np.cos(4.0 * t)
    return 4.0 * np.exp(0.5j * t) * num / den


@pytest.mark.parametrize("t", [0.3, 1.1])
def test_breather_on_the_wide_window(t):
    # the data 2 sech x scatters to; all-lower entries reach e^60 at x = -20
    data = (DiscreteDatum(0.5j, order=1, c0=-2j, c1=0.0),
            DiscreteDatum(1.5j, order=1, c0=-6j, c1=0.0))
    x = np.linspace(-20.0, 20.0, 801)
    exact = _satsuma_yajima(x, t)
    q = soliton_field(data, x, t)
    assert np.max(np.abs(q - exact)) / np.max(np.abs(exact)) < 1e-8


def _random_spectrum(rng):
    n, zs = int(rng.integers(2, 5)), []
    while len(zs) < n:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.4, 1.2))
        if all(abs(z - w) > 0.2 for w in zs):
            zs.append(z)
    data = []
    for z in zs:
        order = int(rng.integers(1, 3))
        c0 = complex(rng.normal(), rng.normal())
        c1 = complex(rng.normal(), rng.normal()) if order == 2 else 0.0
        data.append(DiscreteDatum(z, order=order, c0=c0, c1=c1))
    return tuple(data)


def _random_slices(count=30):
    rng = np.random.default_rng(20210415)
    return [(_random_spectrum(rng), float(rng.uniform(0.0, 1.0)))
            for _ in range(count)]


def test_wide_window_solves_stay_well_posed():
    # all-lower alone reaches 7e29 on such spectra, the sign rule alone 2e13
    x = np.linspace(-20.0, 20.0, 81)
    sols = [solve_field(data, x, t) for data, t in _random_slices()]
    assert max(float(np.max(s.condition)) for s in sols) <= 1e9
    assert max(float(np.max(s.residual)) for s in sols) < 1e-10


def test_batched_field_matches_pointwise_solves():
    # the same rule point by point: the better conditioned of all-lower and
    # the poles with x + 2t Re z_k < 0 flipped
    x = np.linspace(-20.0, 20.0, 81)
    for data, t in _random_slices():
        sol = solve_field(data, x, t)
        for i, xi in enumerate(x):
            flip = [k for k, d in enumerate(data) if xi + 2.0 * t * d.z.real < 0]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                states = [solve_soliton(data, xi, t)]
                if flip:
                    states.append(solve_soliton(reorient_constants(data, flip), xi, t))
            best = min(states, key=lambda s: s.condition)
            if best.condition < 1e8:
                assert abs(sol.q[i] - best.q) <= 1e-12 * np.max(np.abs(sol.q))
                assert sol.condition[i] == pytest.approx(best.condition, rel=1e-6)


def test_given_orientations_are_kept_by_the_batch():
    data = reorient_constants(_pair(), [1])
    x = np.linspace(-3.0, 3.0, 13)
    q = soliton_field(data, x, 0.4)
    pointwise = [solve_soliton(data, xi, 0.4).q for xi in x]
    assert np.max(np.abs(q - pointwise)) < 1e-13


def test_no_finite_solve_raises_linalg_error():
    # overflowing exponentials leave no finite solve at the point
    data = OrientedData.all_lower([DiscreteDatum(1j, order=1, c0=2.0, c1=0.0)])
    with pytest.raises(np.linalg.LinAlgError, match="x = -600"):
        soliton_field(data, [0.0, -600.0], 0.0)


def test_empty_spectrum_gives_vacuum():
    state = solve_soliton([], 1.0, 2.0, z_eval=0.5 + 0.5j)
    assert state.q == 0
    assert np.allclose(state.m_out_row, [1.0, 0.0])


def test_outer_row_decay_and_field_recovery():
    state = solve_soliton(_pair(), 0.6, -0.4)
    row_far = outer_matrix_row(state, 1e6j)
    assert abs(2j * 1e6j * row_far[1] - state.q) < 1e-4 * abs(state.q)
    r1 = outer_matrix_row(state, 100.0 + 100.0j)
    r2 = outer_matrix_row(state, 200.0 + 200.0j)
    assert abs(r1[1] / r2[1]) == pytest.approx(2.0, rel=0.05)


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(-1.0, 1.0),
    im=st.floats(0.3, 1.5),
    c0=st.complex_numbers(min_magnitude=0.0, max_magnitude=2.0),
    c1=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
    x=st.floats(-3.0, 3.0),
    t=st.floats(-2.0, 2.0),
)
def test_random_data_solve_is_backward_stable(re, im, c0, c1, x, t):
    state = solve_soliton([DiscreteDatum(re + 1j * im, 2, c0, c1)], x, t)
    assert state.residual < 1e-10
    m = evaluate_matrix(state, np.array([3.7 + 0.05j]))[0]
    assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) < 1e-9
