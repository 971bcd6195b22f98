"""Second routes to quantities the library computes another way.

None of these is on a path ``fnls`` takes: each exists so that a test can
reach the same number by different means.

* :func:`alpha_z0` -- the dispersive coefficient in amplitude/phase form,
  with scipy's Gamma, against :func:`fnls.asymptotics.pc_coefficients`.
* :func:`e1_matrix` -- the moment matrix conjugated by the outer solution,
  whose (1,2) entry ``q_asymptotic`` forms inline.
* :func:`solution_matrix` -- the whole solution matrix of a pole system,
  each pole at its point, of which the library reads only the first row,
  from the Laurent coefficients of :func:`pole_coefficients`.
* :func:`mass_from_spectrum` -- the trace formula for the mass.
* :func:`s11_from_integral` -- s11 as an integral along the line, against
  the Wronskian of the two Jost columns.  Its Jost column comes from
  :func:`second_column_on_grid`, SciPy's DOP853 on the untransformed
  system, which shares no code with the library's transfer-matrix march.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import gamma

from fnls.phase import _unwrap
from fnls.scattering import InitialProfile
from fnls.solitons import _as_oriented, _per_pole, _principal, _solve_points


def pc_first_moment(pc) -> np.ndarray:
    """The traceless moment matrix ``[[0, -i b12], [i b21, 0]]``."""
    return np.array([[0.0, -1j * pc.beta12], [1j * pc.beta21, 0.0]],
                    dtype=np.complex128)


def alpha_z0(phase_ctx, data):
    """Leading dispersive coefficient in amplitude/phase form.

    The modulus is ``sqrt(|nu(z0)|)``.  The argument accumulates pi/4, the
    phase of ``Gamma(i nu)``, minus the phase of the sampled reflection
    amplitude at ``z0`` (the amplitude itself -- no extra normalisation),
    minus ``4 m_k arg(z0 - z_k)`` summed over the poles with ``Re z_k <
    z0``, those left of the stationary point (the pole factor of order
    ``m_k`` through the boundary constant's inverse square), plus twice
    beta, the finite part at ``z0`` of the kernel integral of the density
    along the context's ray: the integral of ``(nu(s) - chi nu(z0)) / (s -
    z0)``, with chi the indicator of ``(z0 - 1, z0)``.

    This route never touches the complex products behind the boundary
    constant, and takes Gamma from scipy rather than from ``fnls``, so
    agreement with ``pc_coefficients`` applied to the modulated amplitude is
    a genuine two-route consistency check.
    """
    z0 = phase_ctx.z0
    nu0 = phase_ctx.nu0
    if np.any(nu0 == 0.0):
        raise ValueError("the density vanishes at z0; the coefficient "
                         "has no defined phase")
    arg = (0.25 * math.pi
           + np.angle(gamma(1j * nu0))
           - np.angle(phase_ctx.r_at_z0))
    for d in data:
        zk = complex(d.z)
        arg = arg - 4.0 * d.order * np.where(zk.real < z0, np.angle(z0 - zk), 0.0)
    arg = arg + 2.0 * np.reshape(phase_ctx.ray.offset_integral(), np.shape(z0))
    return _unwrap(np.sqrt(np.abs(nu0)) * np.exp(1j * arg))


def e1_matrix(m_out_at_z0, pc, t: float) -> np.ndarray:
    """Moment matrix conjugated by the outer solution at the stationary
    point: ``(1 / (2 i sqrt(t))) M m1 adj(M)`` with ``det M = 1``."""
    if not t > 0:
        raise ValueError("t must be positive")
    M = np.asarray(m_out_at_z0, dtype=np.complex128)
    if M.shape != (2, 2):
        raise ValueError("the outer matrix must be 2x2")
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det - 1.0) > 1e-6:
        raise ValueError("outer matrix is near-singular: det deviates "
                         f"from 1 by {abs(det - 1.0):.2e}")
    adj = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]],
                   dtype=np.complex128)
    return (M @ pc_first_moment(pc) @ adj) / (2j * math.sqrt(t))


def pole_coefficients(data, x: float, t: float):
    """``(oriented, alpha, beta)`` at one point ``(x, t)``, solved with
    each pole at its point ``p_k`` (``z_k`` for plain data) by the
    library's private stacked solve: ``alpha[k][j - 1]`` and
    ``beta[k][j - 1]`` multiply ``(z - p_k)^{-j}`` in column 1."""
    oriented = _as_oriented(data)
    u = _solve_points(oriented, np.array([float(x)]), float(t))[0][0]
    half = u.size // 2
    return (oriented, _per_pole(oriented, u[:half]),
            tuple(np.conj(b) for b in _per_pole(oriented, u[half:])))


def solution_matrix(data, x: float, t: float, z) -> np.ndarray:
    """The solution matrix at points ``z`` (shape ``z.shape + (2, 2)``) for
    the point ``(x, t)``, with each pole of ``data`` at its point ``p_k``:
    each pole puts its Laurent terms in column 1 at ``p_k`` and their mirror
    images, by ``m(z) = sigma2 conj(m(conj z)) sigma2``, in column 2 at
    ``conj(p_k)``."""
    oriented, alpha, beta = pole_coefficients(data, x, t)
    z = np.asarray(z, dtype=np.complex128)
    m = np.zeros(z.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = 1.0
    for p, a, b in zip(oriented.points, alpha, beta):
        w, v = 1.0 / (z - p), 1.0 / (z - np.conj(p))
        m[..., 0, 0] += _principal(a, w)
        m[..., 1, 0] += _principal(b, w)
        m[..., 0, 1] -= _principal(np.conj(b), v)
        m[..., 1, 1] += _principal(np.conj(a), v)
    return m


def mass_from_spectrum(data) -> float:
    """Trace-formula mass: each pole contributes ``4 * order * Im z_k``."""
    return float(sum(4.0 * d.order * d.z.imag for d in data))


def second_column_on_grid(profile: InitialProfile, z: complex) -> np.ndarray:
    """The normalised second Jost column ``(m1, m2)`` at every point of the
    profile's grid, shape (2, n): ``m1' = -2iz m1 + q m2`` and
    ``m2' = -conj(q) m1``, from ``(0, 1)`` at the right end of the grid
    integrated to its left end by SciPy's DOP853."""
    z = complex(z)

    def rhs(x, m):
        q = complex(profile.evaluate(x))
        return [-2j * z * m[0] + q * m[1], -np.conj(q) * m[0]]

    x = profile.x
    sol = solve_ivp(rhs, (x[-1], x[0]), [0j, 1 + 0j], method="DOP853",
                    t_eval=x[::-1], rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y[:, ::-1]


def s11_from_integral(profile: InitialProfile, z: complex) -> complex:
    """Independent route to s11: 1 + the integral over the line of conj(q0)
    times the first entry of the second Jost column, by the trapezoid rule
    on the profile's grid."""
    m1 = second_column_on_grid(profile, z)[0]
    return complex(1.0 + np.trapezoid(np.conj(profile.q) * m1, profile.x))
