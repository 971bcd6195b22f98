from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnls import solitons
from fnls.phase import _left_of, partition
from fnls.solitons import (
    DiscreteDatum,
    OrientedData,
    _blaschke_series,
    _check_solved,
    _inv,
    _moment,
    _mul,
    _phase_series,
    _solve_points,
    _solve_stack,
    blaschke_product,
    modulate_constants,
    pole_system,
    reorient_constants,
    restrict_to_interval,
    solve_soliton,
    soliton_field,
)
from fnls.splitstep import Grid, pde_residual

from invariants import conserved
from second_routes import mass_from_spectrum, pole_coefficients, solution_matrix

SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _pair():
    return (
        DiscreteDatum(1j, (0.7 + 0.3j, 0.1 - 0.2j)),
        DiscreteDatum(0.6 + 0.35j, (0.9 - 0.1j, -0.4 + 0.15j)),
    )


def test_block_entries_single_pole_at_origin():
    # z = i, (c0, c1) = (0, 1), x = t = 0: gamma = (0, 1), w = 2i, so the
    # four 1x1 blocks are 1/4, -i/4, -i/2, -1/4 by direct evaluation.  They
    # sit in the top right of [[I, 0, A, B], [0, I, C, D], ...].
    matrix, rhs = pole_system([DiscreteDatum(1j, (1.0, 0.0))], [0.0], 0.0)
    assert matrix.shape == (1, 4, 4)
    assert matrix[0, 0, 2] == pytest.approx(0.25)
    assert matrix[0, 0, 3] == pytest.approx(-0.25j)
    assert matrix[0, 1, 2] == pytest.approx(-0.5j)
    assert matrix[0, 1, 3] == pytest.approx(-0.25)
    assert np.allclose(rhs[0], [0, 0, 0, 1])


def test_field_value_matches_high_precision_reference():
    # frozen from a 50-digit variable-precision solve of the same 4x4 system
    state = solve_soliton([DiscreteDatum(1j, (1.0, 0.0))], 0.0, 0.0)
    assert state.q == pytest.approx(0.1813031161473088, abs=1e-13)


def _assert_blocks(matrix, rhs):
    """``M = [[I, A], [-conj(A), I]]`` with rhs 0 on the alpha rows, exactly."""
    p, d = matrix.shape[0], matrix.shape[1] // 2
    assert np.array_equal(matrix[:, :d, :d], np.broadcast_to(np.eye(d), (p, d, d)))
    assert np.array_equal(matrix[:, d:, d:], np.broadcast_to(np.eye(d), (p, d, d)))
    assert np.array_equal(matrix[:, d:, :d], -np.conj(matrix[:, :d, d:]))
    assert not rhs[:, :d].any()


def _seeded_spectrum(rng, top=4):
    """Up to three separated poles, each of order 1 to ``top``."""
    n, zs = int(rng.integers(1, 4)), []
    while len(zs) < n:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.3))
        if all(abs(z - w) > 0.2 for w in zs):
            zs.append(z)
    return [DiscreteDatum(z, tuple(complex(rng.normal(), rng.normal())
                                   for _ in range(int(rng.integers(1, top + 1)))))
            for z in zs]


def test_all_lower_system_is_identity_blocks_coupled_by_a_and_minus_its_conjugate():
    # M = [[I, A], [-conj(A), I]] with rhs 0 on the alpha rows, exactly,
    # on seeded spectra of orders 1-4: order 4 reaches the furthest shift
    # r = 3 of the rows of K_r
    rng = np.random.default_rng(3)
    for _ in range(60):
        _assert_blocks(*pole_system(_seeded_spectrum(rng), rng.uniform(-5.0, 5.0, 7),
                                    float(rng.uniform(-2.0, 2.0))))


def test_moved_system_has_the_same_blocks():
    # a pole moved to column 2 is the system's pole at conj z_k, so every
    # mix of moved poles keeps the blocks of the plain system
    data = (*_mixed(), DiscreteDatum(0.1 + 0.4j, (1.0, 0.5, -0.2j)),
            DiscreteDatum(-0.2 + 1.1j, (0.6j, 0.3, -0.4, 1.0)))
    for flip in ([0], [1, 3], [4], [0, 1, 2, 3, 4]):
        _assert_blocks(*pole_system(reorient_constants(data, flip), [-2.0, 0.3, 4.0], 0.7))


def test_condition_is_the_one_norm_condition_and_the_inverse_keeps_the_blocks():
    # the inverse of [[I, A], [-conj(A), I]] is [[P, Q], [-conj(Q), conj(P)]],
    # so its first D columns carry its 1-norm: the stacked solve's condition
    # is norm(M, 1) norm(inv(M), 1) to rounding, on plain and moved systems
    # of orders 1-4, t = 0 included
    rng = np.random.default_rng(11)
    for case in range(60):
        data = _seeded_spectrum(rng)
        flip = [k for k in range(len(data)) if rng.random() < 0.5]
        t = 0.0 if case % 4 == 0 else float(rng.uniform(-2.0, 2.0))
        matrix, rhs = pole_system(reorient_constants(data, flip), rng.uniform(-3.0, 3.0, 4), t)
        cond = _solve_stack(matrix, rhs)[1]
        for m, c in zip(matrix, cond):
            inv = np.linalg.inv(m)
            d = m.shape[0] // 2
            # these systems read at most 3.2 c 1e-16 relative
            tol = 50.0 * c * 1e-16
            scale = np.abs(inv).max()
            assert np.abs(inv[d:, d:] - np.conj(inv[:d, :d])).max() < tol * scale
            assert np.abs(inv[d:, :d] + np.conj(inv[:d, d:])).max() < tol * scale
            expect = np.linalg.norm(m, 1) * np.linalg.norm(inv, 1)
            assert abs(c - expect) < tol * expect


def test_simple_pole_reduces_to_classical_soliton():
    """An order-1 pole at z = i, c0 = 2 gives the closed form
    q = -2i sech(2x) e^{2it}."""
    x = np.linspace(-6.0, 6.0, 481)
    q = soliton_field([DiscreteDatum(1j, (2.0,))], x, 0.7)
    exact = -2j / np.cosh(2 * x) * np.exp(1.4j)
    assert np.max(np.abs(q - exact)) < 1e-12


def test_peak_amplitude_is_twice_imag_z():
    x = np.linspace(-2, 2, 801)
    q = soliton_field([DiscreteDatum(1j, (2.0,))], x, 0.0)
    assert np.max(np.abs(q)) == pytest.approx(2.0, abs=1e-10)


def test_mass_quadrature_matches_trace_formula():
    grid = Grid(2048, -12 * np.pi, 12 * np.pi)
    data = [DiscreteDatum(1j, (1.0, 0.0))]
    q = soliton_field(data, grid.x, 0.0)
    mass = np.sum(np.abs(q) ** 2) * grid.dx
    assert mass_from_spectrum(data) == pytest.approx(8.0)
    assert mass == pytest.approx(8.0, abs=1e-6)


def test_reconstructed_field_solves_the_pde():
    grid = Grid(2048, -10 * np.pi, 10 * np.pi)
    data = [DiscreteDatum(1j, (1.0, 0.0))]

    def q_fn(x, t):
        return soliton_field(data, x, t)

    res = pde_residual(q_fn, grid, [0.5], h_t=2e-3)
    assert res < 1e-6


def test_triple_pole_field_solves_the_pde(triple_pole):
    # the fourth-order time stencil's floor is 1.2e-6 at h_t = 1e-3 here
    grid = Grid(n=4096, x_min=-20.0 * np.pi, x_max=20.0 * np.pi)
    data = (triple_pole.datum,)
    times = (0.0, 0.25, 0.5, 0.75, 1.0)
    res = pde_residual(lambda x, t: soliton_field(data, x, t), grid, times,
                       h_t=5e-4, x_window=(-20.0, 20.0))
    assert res < 1e-6
    # 95 to 98 at t <= 0.75, where cut solves up to 1e2 are kept alone,
    # and 125 at t = 1
    window = grid.x[np.abs(grid.x) <= 20.0]
    assert max(float(solve_soliton(data, window, t).condition.max()) for t in times) <= 200.0


def test_triple_pole_mass_is_the_trace_formula(triple_pole):
    grid = Grid(n=4096, x_min=-20.0 * np.pi, x_max=20.0 * np.pi)
    data = (triple_pole.datum,)
    assert mass_from_spectrum(data) == 12.0
    mass = conserved(soliton_field(data, grid.x, 0.0), grid)["mass"]
    assert mass == pytest.approx(12.0, abs=1e-10)


def _coalescing(datum, e):
    """The m simple poles at ``z + e w^j``, ``w = e^{2 pi i / m}``, whose
    principal parts sum to the order-m pole's up to O(e^m): residues
    ``a_j = (1/m) sum_n c_n e^{-n} w^{-jn}``, ``c_n`` the coefficient of
    ``(z' - z)^{-(n+1)}``."""
    m, c = datum.order, datum.coefficients[::-1]
    w = np.exp(2j * np.pi / m)
    return [DiscreteDatum(datum.z + e * w ** j,
                          (sum(c[n] * e ** -n * w ** (-j * n) for n in range(m)) / m,))
            for j in range(m)]


# measured relative errors: 5.1e-5 / 5.3e-5, 5.8e-6 / 1.9e-6, 4.6e-7 / 4.7e-7
@pytest.mark.parametrize("t", [0.0, 0.7])
@pytest.mark.parametrize("coefficients, bound", [
    ((0.5 - 0.3j, 0.8 + 0.2j), 2e-4),
    ((0.3 + 0.1j, -0.4 + 0.2j, 0.7 - 0.1j), 2e-5),
    ((0.2 - 0.1j, 0.3 + 0.2j, -0.5 + 0.1j, 0.6 + 0.3j), 2e-6),
], ids=["m2", "m3", "m4"])
def test_order_m_field_is_the_limit_of_m_coalescing_simple_poles(coefficients, bound, t):
    # the simple poles' field is a series in e^m, so one Richardson step
    # over e and e/2 leaves O(e^2m): a check of the binomial forms K_r and
    # of the phase's Taylor mixing at t != 0 by the order-1 system alone,
    # whichever system each point keeps
    datum = DiscreteDatum(0.2 + 0.7j, coefficients)
    m, e = datum.order, 0.1 * np.exp(0.3j)
    x = np.linspace(-12.0, 12.0, 241)
    exact = soliton_field([datum], x, t)
    q = [soliton_field(_coalescing(datum, e / h), x, t) for h in (1, 2)]
    limit = (2 ** m * q[1] - q[0]) / (2 ** m - 1)
    assert np.max(np.abs(limit - exact)) <= bound * np.max(np.abs(exact))


def _mixed():
    return (*_pair(), DiscreteDatum(-0.7 + 0.6j, (0.8 - 0.3j,)))


def test_laurent_coefficients_match_pole_conditions():
    """Contour-integrate the reconstructed matrix and the pole's gamma around
    each pole.  Coefficient (pole k, power j) of column 1 must be the
    solved (alpha, beta), and equal sum_r g_{j+r} times the r-th Taylor
    coefficient of column 2, which is analytic there."""
    data = _mixed()
    x, t = 0.4, 0.3
    _, alpha, beta = pole_coefficients(data, x, t)

    phi = 2 * np.pi * np.arange(256) / 256
    for k, d in enumerate(data):
        circle = d.z + 0.25 * np.exp(1j * phi)
        w = circle - d.z
        m = solution_matrix(data, x, t, circle)
        gamma = (sum(c * w ** -(j + 1) for j, c in enumerate(reversed(d.coefficients)))
                 * np.exp(2j * (t * circle ** 2 + x * circle)))

        def coeff(f, power):
            """Laurent coefficient of w^-power of samples f on the circle."""
            return np.tensordot(w ** power, f, axes=1) / w.size

        col2 = [coeff(m[:, :, 1], -r) for r in range(d.order)]
        for j in range(1, d.order + 1):
            p = coeff(m, j)
            assert abs(p[0, 0] - alpha[k][j - 1]) < 1e-8
            assert abs(p[1, 0] - beta[k][j - 1]) < 1e-8
            expected = sum(coeff(gamma, j + r) * col2[r] for r in range(d.order - j + 1))
            assert np.max(np.abs(p[:, 0] - expected)) < 1e-8
            assert np.max(np.abs(p[:, 1])) < 1e-10


def test_conjugation_symmetry_and_unit_determinant():
    rng = np.random.default_rng(7)
    zs = rng.uniform(-3, 3, 12) + 1j * rng.uniform(-3, 3, 12)
    zs = zs[np.abs(zs.imag) > 0.05]
    m = solution_matrix(_pair(), -0.7, 0.45, zs)
    m_conj = solution_matrix(_pair(), -0.7, 0.45, np.conj(zs))
    sym = np.einsum("ij,njk,kl->nil", SIGMA2, np.conj(m_conj), SIGMA2)
    assert np.max(np.abs(m - sym)) < 1e-10
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert np.max(np.abs(det - 1.0)) < 1e-10


def _q_as_given(oriented, x, t):
    """q of the one system with the poles of ``oriented`` at their points,
    solved at the points ``x`` by the private stacked solve."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _moment(oriented, _solve_points(oriented, x, t)[0])


def test_field_invariant_under_orientation_changes():
    data = _pair()
    x, t = 0.3, 0.2
    q_ref = solve_soliton(data, x, t).q
    for flip in ([], [0], [1], [0, 1]):
        q = _q_as_given(reorient_constants(data, flip), x, t)[0]
        assert abs(q - q_ref) < 1e-9, f"flip {flip}"


def test_reorientation_is_a_column_scaling():
    # the transformed matrix must equal the original times diag(a, 1/a)
    data = _pair()
    x, t = 0.15, -0.25
    flip = [1]
    zs = np.array([0.4 + 2.1j, -1.3 + 0.9j, 2.0 - 1.4j])
    a = blaschke_product(zs, data, [k in flip for k in range(len(data))])
    m_old = solution_matrix(data, x, t, zs)
    m_new = solution_matrix(reorient_constants(data, flip), x, t, zs)
    scaled = m_old * np.stack([a, 1.0 / a], axis=-1)[:, None, :]
    assert np.max(np.abs(m_new - scaled)) < 1e-10


def _recorded_cuts(monkeypatch, stub=False):
    """Patch ``solve_soliton``'s reorientation and stacked solve to record
    each flipped set with the points ``(x, t)`` solved with it.  ``stub``
    leaves the constants as they are and solves nothing, for a spectrum
    too large to solve, where only the grouping is under test."""
    cuts = []
    reorient, solve = solitons.reorient_constants, solitons._solve_points

    def reorienting(data, flagged):
        cuts.append([tuple(flagged)])
        return data if stub else reorient(data, flagged)

    def solving(oriented, x, t):
        if cuts and len(cuts[-1]) == 1:
            cuts[-1].append(x + 1j * np.broadcast_to(t, x.shape))
        if stub:
            dim = 2 * sum(d.order for d in oriented.data)
            return np.zeros((x.size, dim), dtype=np.complex128), np.ones(x.size), np.zeros(x.size)
        return solve(oriented, x, t)

    monkeypatch.setattr(solitons, "reorient_constants", reorienting)
    monkeypatch.setattr(solitons, "_solve_points", solving)
    return cuts


@pytest.mark.parametrize("poles", [4, 130])
def test_flipped_sets_are_the_cuts(monkeypatch, poles):
    # the points are grouped by the signed size of their cut: each group's
    # flipped set must be the row of x + 2t Re z_k < 0 at every one of its
    # points, every distinct nonzero row gets one group, and each set is a
    # cut in Re z order.  Ties in Re z, t = 0, t < 0, points exactly on a
    # pole's line x = -2t Re z_k and next to it are all in the mix
    rng = np.random.default_rng(3)
    re = np.repeat(np.round(rng.uniform(-1.0, 1.0, (poles + 1) // 2), 3), 2)[:poles]
    data = [DiscreteDatum(complex(r, 0.4 + 0.01 * k), (1.0 + 0.1j, 0.2)[:1 + k % 2])
            for k, r in enumerate(re)]
    t = rng.choice([-1.3, -0.4, 0.0, 0.5, 2.0], 300)
    x = rng.uniform(-4.0, 4.0, 300)
    on_line = rng.integers(0, poles, 100)
    x[:100] = -2.0 * t[:100] * re[on_line]
    x[50:100] = np.nextafter(x[50:100], rng.choice([-np.inf, np.inf], 50))
    cuts = _recorded_cuts(monkeypatch, stub=poles > 8)
    solve_soliton(data, x, t)
    flips = x[:, None] + 2.0 * t[:, None] * re[None, :] < 0
    assert len(cuts) == len(np.unique(flips[flips.any(axis=1)], axis=0))
    points = []
    for flagged, at in cuts:
        mask = np.isin(np.arange(poles), flagged)
        assert np.all((at.real[:, None] + 2.0 * at.imag[:, None] * re[None, :] < 0) == mask)
        inside, outside = re[mask], re[~mask]
        assert (not outside.size or inside.max() < outside.min()
                or inside.min() > outside.max())
        points.extend(at)
    flipped = flips.any(axis=1)
    assert np.array_equal(np.sort(points), np.sort(x[flipped] + 1j * t[flipped]))


def _high_orders():
    return (DiscreteDatum(0.3 + 0.9j, (0.8 - 0.2j, 0.3 + 0.4j, -0.5 + 0.1j)),
            DiscreteDatum(-0.4 + 0.6j, (0.6 + 0.5j, -0.2 + 0.3j, 0.4 - 0.1j, 0.7 + 0.2j)))


def _moved_condition(data, flip, x, t):
    return _solve_points(reorient_constants(data, flip), np.array([x]), t)[1][0]


@pytest.mark.parametrize("x, t", [(0.25, -0.3), (-0.2, 0.35)])
@pytest.mark.parametrize("flip", [[0], [1], [0, 1]], ids=str)
def test_field_invariant_under_moving_poles_of_orders_3_and_4(flip, x, t):
    # at (0.25, -0.3) the plain system's condition is 58, the moved ones'
    # 4.9e6 to 1.6e9; q moved by at most 1.8e-2 cond eps |q|
    data = _high_orders()
    q_ref = solve_soliton(data, x, t).q
    q = _q_as_given(reorient_constants(data, flip), x, t)[0]
    assert abs(q - q_ref) <= _moved_condition(data, flip, x, t) * 1e-15 * abs(q_ref)


@pytest.mark.parametrize("flip", [[0], [1], [0, 1]], ids=str)
def test_moving_poles_of_orders_3_and_4_is_a_column_scaling(flip):
    data, x, t = _high_orders(), 0.25, -0.3
    zs = np.array([0.4 + 2.1j, -1.3 + 0.9j, 2.0 - 1.4j])
    a = blaschke_product(zs, data, [k in flip for k in range(len(data))])
    scaled = solution_matrix(data, x, t, zs) * np.stack([a, 1.0 / a], axis=-1)[:, None, :]
    m_new = solution_matrix(reorient_constants(data, flip), x, t, zs)
    bound = _moved_condition(data, flip, x, t) * 1e-15 * np.max(np.abs(scaled))
    assert np.max(np.abs(m_new - scaled)) <= bound


def _four_poles(rng):
    """Four separated poles of orders 1 and 2 near x = 0, scaled as the
    benchmark's random spectra are."""
    zs = []
    while len(zs) < 4:
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 0.8))
        if all(abs(z - w) > 0.2 for w in zs):
            zs.append(z)
    return tuple(DiscreteDatum(z, tuple(
        2.0 * z.imag * np.exp(2.0 * z.imag * rng.uniform(-1.0, 1.0))
        * complex(rng.normal(), rng.normal()) for _ in range(int(rng.integers(1, 3)))))
        for z in zs)


@pytest.mark.parametrize("case", ["four-poles", "orders-3-and-4"])
def test_a_certified_cut_solve_keeps_its_point_alone(monkeypatch, case):
    # the cut system is solved first at every cut point; the plain one is
    # solved, in one stack, exactly where the cut's condition exceeds 1e2
    # or there is no cut, and the kept condition is the cut's there alone,
    # else the smaller of the two
    data, span = ((_four_poles(np.random.default_rng(0)), 6.0) if case == "four-poles"
                  else (_high_orders(), 10.0))
    x = np.tile(np.linspace(-span, span, 121), 3)
    t = np.repeat([-0.4, 0.0, 0.5], 121)
    solves = []
    solve = solitons._solve_points

    def solving(oriented, x_at, t_at):
        out = solve(oriented, x_at, t_at)
        plain = all(p.imag > 0 for p in oriented.points)
        solves.append((plain, dict(zip(x_at + 1j * t_at, out[1]))))
        return out

    monkeypatch.setattr(solitons, "_solve_points", solving)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = solve_soliton(data, x, t)
    re_z = np.array([d.z.real for d in data])
    on_cut = (x[:, None] + 2.0 * t[:, None] * re_z[None, :] < 0).any(axis=1)
    points = x + 1j * t
    *moved, (plain, conds) = solves
    assert plain and not any(flag for flag, _ in moved)
    cut = {p: c for _, solved in moved for p, c in solved.items()}
    assert set(cut) == set(points[on_cut])
    certified = {p for p, c in cut.items() if c <= 1e2}
    assert certified and len(certified) < len(cut)
    assert set(conds) == set(points) - certified
    for p, kept in zip(points, state.condition):
        rule = cut[p] if p in certified else min(conds[p], cut.get(p, np.inf))
        assert kept == rule


def test_reorientation_handles_simple_poles():
    data = (
        DiscreteDatum(0.2 + 0.8j, (1.3 - 0.4j,)),
        DiscreteDatum(-0.5 + 1.1j, (0.6, 0.25j)),
    )
    q_ref = solve_soliton(data, -0.2, 0.35).q
    for flip in ([0], [1], [0, 1]):
        q = _q_as_given(reorient_constants(data, flip), -0.2, 0.35)[0]
        assert abs(q - q_ref) < 1e-9


def test_blaschke_member_derivatives_against_contour():
    # at its own double zero the series of a / (z - z_k)^2 starts with the
    # second and third derivatives of a over 2! and 3!
    data = _pair()
    zk = data[0].z
    g = _blaschke_series(zk, data, 2)
    app, appp = 2.0 * g[0], 6.0 * g[1]
    phi = 2 * np.pi * np.arange(512) / 512
    circle = zk + 0.2 * np.exp(1j * phi)
    vals = blaschke_product(circle, data, [True] * len(data))
    w = circle - zk
    c2 = np.mean(vals / w**2)
    c3 = np.mean(vals / w**3)
    assert abs(app - 2.0 * c2) < 1e-9
    assert abs(appp - 6.0 * c3) < 1e-9


def test_blaschke_offmember_derivatives_against_contour():
    data = _pair()
    z = 1.8 + 0.6j
    series = _blaschke_series(z, data, 3)
    a, ap, app = series[0], series[1], 2.0 * series[2]
    phi = 2 * np.pi * np.arange(512) / 512
    circle = z + 0.15 * np.exp(1j * phi)
    vals = blaschke_product(circle, data, [True] * len(data))
    w = circle - z
    assert abs(a - np.mean(vals)) < 1e-10
    assert abs(ap - np.mean(vals / w)) < 1e-9
    assert abs(app - 2.0 * np.mean(vals / w**2)) < 1e-9


def test_masked_blaschke_rows_are_the_products_over_member_lists():
    # a pole left out of a point's row multiplies by exactly 1, so each
    # point's value is, bit for bit, the product over its own members
    rng = np.random.default_rng(11)
    data = (*_mixed(), DiscreteDatum(0.1 + 0.4j, (1.0, 0.5, -0.2j)))
    z = rng.normal(size=40) + 1j * rng.normal(size=40)
    members = rng.random((40, len(data))) < 0.5
    got = blaschke_product(z, data, members)
    for i, row in enumerate(members):
        listed = [d for d, m in zip(data, row) if m]
        ref = blaschke_product(z, listed, [True] * len(listed))
        assert got[i].tobytes() == ref[i].tobytes()
    # one flag per pole serves every point
    assert np.array_equal(blaschke_product(z, data, members[0]),
                          blaschke_product(z, data, np.tile(members[0], (40, 1))))
    with pytest.raises(TypeError, match="boolean mask"):
        blaschke_product(z, data, [0, 1, 2, 3])


@pytest.mark.parametrize("half", [1.0, -1.0])
def test_series_helpers_against_contour(half):
    # four terms, past what orders 1 and 2 use, so every term of the
    # phase recurrence and of the reciprocal is exercised; a moved pole's
    # point conj z_k lies in the lower half plane
    z, x, t = complex(0.3, half * 0.8), np.array([-1.2, 0.7]), 0.45
    phase = _phase_series(z, x, t, 4)
    phi = 2 * np.pi * np.arange(256) / 256
    w = 0.3 * np.exp(1j * phi)
    vals = np.exp(2j * (t * (z + w[:, None]) ** 2 + x * (z + w[:, None])))
    for k in range(4):
        assert np.max(np.abs(phase[k] - np.mean(vals / w[:, None] ** k, axis=0))) < 1e-12
    a = [1.5 - 0.5j, 0.25j, -0.75, 2.0]
    assert np.allclose(_mul(a, _inv(a, 4), 4), [1, 0, 0, 0], rtol=0, atol=1e-15)


def test_modulation_identity_and_scaling():
    data = _mixed()
    same = modulate_constants(data, lambda z, n: [1.0] + [0.0] * (n - 1))
    assert same.data == data and same.points == tuple(d.z for d in data)
    for k, d in enumerate(data):
        assert [complex(v[0]) for v in same.series(k)] == list(d.coefficients)

    # delta = 1/a with a the Blaschke product of one more pole dresses the
    # constants as the column scaling by a does: reorient_constants' rule
    # for the poles that stay
    other = DiscreteDatum(-0.9 + 0.5j, (1.0,))
    scaled = modulate_constants(data, lambda z, n: _blaschke_series(z, [other], n))
    flipped = reorient_constants((*data, other), [len(data)])
    for k, d in enumerate(data):
        s, f = scaled.series(k), flipped.series(k)
        assert len(s) == len(f) == d.order
        for j in range(d.order):
            assert s[j][0] == pytest.approx(f[j][0], rel=1e-13)


def test_stacks_compare_by_identity():
    # a stack is its constants as much as its poles: two stacks of one pole
    # with different constants must neither compare nor hash equal
    pole = (DiscreteDatum(0.3 + 0.5j, (1.0,)),)
    doubled = modulate_constants(pole, lambda z, n: [2.0])
    plain = modulate_constants(pole, lambda z, n: [1.0])
    assert doubled.series(0)[0][0] == 4.0 and plain.series(0)[0][0] == 1.0
    assert doubled != plain and doubled == doubled
    assert len({doubled, plain, doubled}) == 2


def test_interval_restriction_and_tie():
    data = (
        DiscreteDatum(-0.8 + 0.5j, (1.0, 0.1)),
        DiscreteDatum(-0.1 + 0.9j, (1.0, 0.2)),
        DiscreteDatum(0.4 + 0.7j, (1.0, 0.3)),
        DiscreteDatum(1.5 + 0.6j, (1.0, 0.4)),
    )
    # the cone's velocity window is [-0.3, 0.6]; the kept poles keep their
    # constants
    part = partition(data, (0.0, 0.0, -1.2, 0.6))
    out = restrict_to_interval(data, part.I)
    assert [d.z for d in out] == [-0.1 + 0.9j, 0.4 + 0.7j]
    assert out == data[1:3]
    assert _left_of(data, 0.2).tolist() == [True, True, False, False]

    # the window [-1, 2] keeps every pole, and the one over z0 goes right
    part = partition(data, (0.0, 0.0, -4.0, 2.0))
    assert restrict_to_interval(data, part.I) == data
    assert _left_of(data, 0.4).tolist() == [True, True, False, False]


def test_input_validation():
    with pytest.raises(ValueError):
        DiscreteDatum(1.0 - 0.5j, (1.0, 0.0))
    with pytest.raises(ValueError, match="at least one coefficient"):
        DiscreteDatum(1j, ())
    with pytest.raises(ValueError, match="coincident"):
        pole_system([DiscreteDatum(1j, (1.0, 0.0)), DiscreteDatum(1j, (1.0, 0.0))], [0.0], 0.0)
    with pytest.raises(ValueError, match="one point per datum"):
        OrientedData((DiscreteDatum(1j, (1.0, 0.0)),), ())
    # the Blaschke map of the constants holds for data with no pole moved
    with pytest.raises(ValueError, match="no pole moved"):
        reorient_constants(reorient_constants(_pair(), [1]), [0])
    # a moved pole sits at conj z_k, yet two poles at one z_k still coincide
    two = (DiscreteDatum(0.3 + 1j, (1.0,)), DiscreteDatum(0.3 + 1j, (0.5, 1.0)))
    for flip in ([0], [1], [0, 1]):
        with pytest.raises(ValueError, match="coincident"):
            pole_system(reorient_constants(two, flip), [0.0], 0.0)


@pytest.mark.parametrize("field", ["z", "c0", "c1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_pole_data_is_rejected(field, bad):
    good = {"z": 1j, "c0": 0.5, "c1": 1.0}
    v = {**good, field: good[field] + bad}
    with pytest.raises(ValueError, match=f"pole {field} must be finite"):
        DiscreteDatum(v["z"], (v["c1"], v["c0"]))


@pytest.mark.parametrize("coefficients", [(0.0,), (0.0, 0.0), (0.0, 1.0), (0.0, 1.0, 2.0)])
def test_zero_leading_coefficient_is_rejected(coefficients):
    # at order 1 such a pole used to pass here and fail later, in the
    # reorientation, as "pole c0 must be finite, got (inf+nanj)"
    m = len(coefficients)
    with pytest.raises(ValueError, match=f"leading coefficient c{m - 1} of an order-{m} pole"):
        DiscreteDatum(1j, coefficients)


def test_condition_warning_at_extreme_x():
    # the all-lower breather at x = -20: its gamma factors reach e^60 and
    # skew the system badly, yet the solve stays backward stable
    data = (DiscreteDatum(0.5j, (-2j,)),
            DiscreteDatum(1.5j, (-6j,)))
    x = np.array([-20.0])
    _, cond, residual = _solve_points(OrientedData(data), x, 0.3)
    with pytest.warns(RuntimeWarning, match="condition"):
        _check_solved(cond, x, 0.3)
    assert cond[0] > 1e12
    assert residual[0] < 1e-10
    # the public solve takes the flipped system there, and stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_soliton(data, -20.0, 0.3).condition < 1e3


@pytest.mark.parametrize("x", [-26.0, -10.0])
def test_simple_pole_system_is_two_by_two_and_well_conditioned(x):
    # one unknown per pole and block: no padded rows to inflate the condition
    datum = DiscreteDatum(1j, (2.0,))
    matrix, rhs = pole_system([datum], [x], 0.0)
    assert matrix.shape == (1, 2, 2) and rhs.shape == (1, 2)
    assert solve_soliton([datum], x, 0.0).condition <= 10.0


def _satsuma_yajima(x, t):
    """Closed form of the evolution of ``q(x, 0) = 2 sech x``."""
    num = np.cosh(3.0 * x) + 3.0 * np.exp(4j * t) * np.cosh(x)
    den = np.cosh(4.0 * x) + 4.0 * np.cosh(2.0 * x) + 3.0 * np.cos(4.0 * t)
    return 4.0 * np.exp(0.5j * t) * num / den


@pytest.mark.parametrize("t", [0.3, 1.1])
def test_breather_on_the_wide_window(t):
    # the data 2 sech x scatters to; all-lower entries reach e^60 at x = -20
    data = (DiscreteDatum(0.5j, (-2j,)),
            DiscreteDatum(1.5j, (-6j,)))
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
        data.append(DiscreteDatum(z, (c1, c0)[2 - order:]))
    return tuple(data)


def _random_slices(count=30):
    rng = np.random.default_rng(20210415)
    return [(_random_spectrum(rng), float(rng.uniform(0.0, 1.0)))
            for _ in range(count)]


def test_wide_window_solves_stay_well_posed():
    # all-lower alone reaches 7e29 on such spectra, the sign rule alone 2e13
    x = np.linspace(-20.0, 20.0, 81)
    sols = [solve_soliton(data, x, t) for data, t in _random_slices()]
    assert max(float(np.max(s.condition)) for s in sols) <= 1e9
    assert max(float(np.max(s.residual)) for s in sols) < 1e-10


def test_batched_field_matches_pointwise_solves():
    # the same rule point by point: the system with the poles where
    # x + 2t Re z_k < 0 flipped alone where its condition is at most 1e2,
    # else the better conditioned of it and all-lower, a tie to all-lower
    x = np.linspace(-20.0, 20.0, 81)
    for data, t in _random_slices():
        sol = solve_soliton(data, x, t)
        for i, xi in enumerate(x):
            flip = [k for k, d in enumerate(data) if xi + 2.0 * t * d.z.real < 0]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                systems = [OrientedData(data)]
                if flip:
                    systems.append(reorient_constants(data, flip))
                solved = [(_moment(o, u)[0], cond[0]) for o in systems
                          for u, cond, _ in [_solve_points(o, np.array([xi]), t)]]
            if solved[-1][1] <= 1e2:
                solved = solved[-1:]
            q, cond = min(solved, key=lambda s: s[1])
            if cond < 1e8:
                assert abs(sol.q[i] - q) <= 1e-12 * np.max(np.abs(sol.q))
                assert sol.condition[i] == pytest.approx(cond, rel=1e-6)


def test_given_orientations_are_kept_by_the_batch():
    data = reorient_constants(_pair(), [1])
    x = np.linspace(-3.0, 3.0, 13)
    q = _q_as_given(data, x, 0.4)
    pointwise = [_q_as_given(data, xi, 0.4)[0] for xi in x]
    assert np.max(np.abs(q - pointwise)) < 1e-13
    # the public solve moves the poles itself
    with pytest.raises(ValueError, match="no pole moved"):
        solve_soliton(data, 0.0, 0.4)


def test_no_finite_solve_raises_linalg_error():
    # overflowing exponentials leave no finite all-lower solve at the point
    data = OrientedData((DiscreteDatum(1j, (2.0,)),))
    x = np.array([0.0, -600.0])
    _, cond, _ = _solve_points(data, x, 0.0)
    assert cond[0] < 10.0 and cond[1] == np.inf
    with pytest.raises(np.linalg.LinAlgError, match="x = -600"):
        _check_solved(cond, x, 0.0)
    # the flipped system decays there instead; a point that no system
    # solves still fails loudly
    assert abs(soliton_field(data, x, 0.0)[1]) < 1e-300
    with pytest.raises(np.linalg.LinAlgError, match="x = nan"):
        soliton_field(data, [0.0, np.nan], 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_singular_member_of_a_stack_leaves_the_others_alone():
    # an exactly singular matrix makes the stacked LU solve raise; the
    # fallback solves the rest again and marks that member alone.  With
    # A = [[0, 1], [-1, 0]], I + conj(A) A = 0, so [[I, A], [-conj(A), I]]
    # is singular
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    a[1] = [[0.0, 1.0], [-1.0, 0.0]]
    eye = np.broadcast_to(np.eye(2), a.shape)
    matrix = np.block([[eye, a], [-np.conj(a), eye]])
    rhs = np.concatenate([np.zeros((3, 2)), rng.standard_normal((3, 2))
                          + 1j * rng.standard_normal((3, 2))], axis=1)
    u, cond, residual = _solve_stack(matrix, rhs)
    assert np.all(np.isnan(u[1])) and cond[1] == np.inf
    for i in (0, 2):
        alone = _solve_stack(matrix[i:i + 1], rhs[i:i + 1])
        for one, stacked in zip(alone, (u, cond, residual)):
            assert np.array_equal(one[0], stacked[i])


def test_empty_spectrum_gives_vacuum():
    state = solve_soliton([], 1.0, 2.0, 0.5 + 0.5j)
    assert state.q == 0
    assert np.allclose(state.row, [1.0, 0.0])
    assert solve_soliton([], 1.0, 2.0).row is None


def test_outer_row_decay_and_field_recovery():
    # one z per point: the three points share (x, t)
    state = solve_soliton(_pair(), 0.6, -0.4, [1e6j, 100.0 + 100.0j, 200.0 + 200.0j])
    q = complex(state.q[0])
    row_far, r1, r2 = state.row
    assert abs(2j * 1e6j * row_far[1] - q) < 1e-4 * abs(q)
    assert abs(r1[1] / r2[1]) == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize("x, flipped_wins", [(-3.0, True), (-1.0, False), (2.5, False)])
def test_row_is_the_cut_row_whichever_system_wins(x, flipped_wins):
    # at x = -3 and x = -1 both poles lie on the cut; the flipped system
    # wins at -3 and keeps its row, the all-lower one wins at -1 and its
    # row is moved by a^{sigma3}.  At x = 2.5 the cut is empty
    data, t = _pair(), 0.3
    zs = np.array([0.25 + 0.0j, -1.1 + 0.4j, 0.7 - 2.0j])
    state = solve_soliton(data, x, t, zs)
    cut = [k for k, d in enumerate(data) if x + 2.0 * t * d.z.real < 0]
    assert bool(cut) == (x < 0)
    flipped = reorient_constants(data, cut)
    assert (_solve_points(flipped, np.array([x]), t)[1][0]
            < _solve_points(OrientedData(data), np.array([x]), t)[1][0]) == flipped_wins
    expect = solution_matrix(flipped, x, t, zs)[:, 0, :]
    assert np.max(np.abs(state.row - expect)) < 1e-10 * np.max(np.abs(expect))
    a = blaschke_product(zs, data, [k in cut for k in range(len(data))])
    moved = solution_matrix(data, x, t, zs)[:, 0, :] * np.stack([a, 1.0 / a], axis=-1)
    assert np.max(np.abs(state.row - moved)) < 1e-10 * np.max(np.abs(expect))
    assert np.all(state.q == solve_soliton(data, x, t).q)


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(-1.0, 1.0),
    im=st.floats(0.3, 1.5),
    low=st.complex_numbers(min_magnitude=0.0, max_magnitude=2.0),
    lead=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
    x=st.floats(-3.0, 3.0),
    t=st.floats(-2.0, 2.0),
)
def test_random_data_solve_is_backward_stable(re, im, low, lead, x, t):
    data = [DiscreteDatum(re + 1j * im, (lead, low))]
    state = solve_soliton(data, x, t)
    assert state.residual < 1e-10
    m = solution_matrix(data, x, t, np.array([3.7 + 0.05j]))[0]
    assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) < 1e-9
