"""Long-time evaluation of the field inside a space-time cone.

Inside a cone ``x = x0 + v t`` with ``x0 in [x1, x2]`` and ``v in [v1, v2]``
the field splits into a multi-pole bound-state part, computed from the
interval-restricted and phase-weighted discrete data, plus a dispersive
correction of size ``t**-0.5`` whose coefficient comes from the model
oscillator problem at the stationary point ``z0 = -x / (2 t)``.  The
remainder after both terms decays like ``t**-0.75``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma

from .phase import (
    delta_and_log_derivative,
    endpoint_offset_integral,
    partition,
    phase_context,
    r0_modulated,
)
from .solitons import modulate_constants, restrict_to_interval, solve_soliton

__all__ = [
    "PCCoefficients",
    "pc_coefficients",
    "pc_first_moment",
    "alpha_z0",
    "e1_matrix",
    "AsymptoticValue",
    "q_asymptotic",
    "save_asymptotics",
]


# ---------------------------------------------------------------------------
# Oscillator model coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PCCoefficients:
    """Off-diagonal coefficients of the model problem's large-argument
    moment, tied to the modulated amplitude ``r0`` and the density ``nu``."""

    nu: float
    r0: complex
    beta12: complex
    beta21: complex

    def __post_init__(self) -> None:
        if self.beta12 == 0:
            raise ValueError("beta12 must be nonzero")
        if self.beta21 != self.nu / self.beta12:
            raise ValueError("beta21 must equal nu / beta12 exactly")
        # |beta12|^2 = |nu| encodes the Gamma modulus identity; a failure
        # here means (r0, nu) were not produced by the same amplitude
        if abs(abs(self.beta12) ** 2 - abs(self.nu)) > 1e-10:
            raise ValueError(
                "inconsistent coefficients: |beta12|^2 differs from |nu|")


def pc_coefficients(r0: complex, nu: float) -> PCCoefficients:
    """Build the moment coefficients from the modulated amplitude.

    ``beta12 = sqrt(2 pi) e^{i pi/4} e^{-pi nu / 2} / (r0 Gamma(-i nu))``
    and ``beta21 = nu / beta12``.
    """
    nu = float(nu)
    r0 = complex(r0)
    if nu == 0.0:
        raise ValueError(
            "nu = 0 only happens when the amplitude vanishes; the "
            "dispersive coefficients are undefined there")
    if r0 == 0:
        raise ValueError("r0 must be nonzero (the dispersive term is "
                         "dropped upstream when the amplitude vanishes)")
    beta12 = (math.sqrt(2.0 * math.pi) * cmath.exp(0.25j * math.pi)
              * math.exp(-0.5 * math.pi * nu)
              / (r0 * complex(gamma(-1j * nu))))
    return PCCoefficients(nu=nu, r0=r0, beta12=beta12, beta21=nu / beta12)


def pc_first_moment(pc: PCCoefficients) -> np.ndarray:
    """The traceless moment matrix ``[[0, -i b12], [i b21, 0]]``."""
    return np.array([[0.0, -1j * pc.beta12], [1j * pc.beta21, 0.0]],
                    dtype=np.complex128)


# ---------------------------------------------------------------------------
# Amplitude/phase form of the leading coefficient
# ---------------------------------------------------------------------------

def alpha_z0(phase_ctx, delta_minus, data, scattering) -> complex:
    """Leading dispersive coefficient in amplitude/phase form.

    The modulus is ``sqrt(|nu(z0)|)``.  The argument accumulates pi/4, the
    phase of ``Gamma(i nu)``, minus the phase of the sampled reflection
    amplitude at ``z0`` (the amplitude itself -- no extra normalisation),
    minus ``4 m_k arg(z0 - z_k)`` summed over the poles left of the stationary
    point (the pole factor of order ``m_k`` through the boundary constant's
    inverse square), plus twice the
    window-regularised log-kernel integral of the density along the ray.

    This route never touches the complex products behind the boundary
    constant, so agreement with :func:`pc_coefficients` applied to the
    modulated amplitude is a genuine two-route consistency check.
    """
    grid = np.asarray(scattering.z, dtype=float)
    z0 = phase_ctx.z0
    if not (grid[0] <= z0 <= grid[-1]):
        raise ValueError("reflection samples do not bracket z0")
    nu0 = phase_ctx.nu0
    if nu0 == 0.0:
        raise ValueError("the density vanishes at z0; the coefficient "
                         "has no defined phase")
    arg = (0.25 * math.pi
           + cmath.phase(complex(gamma(1j * nu0)))
           - cmath.phase(phase_ctx.r_at_z0))
    for k in delta_minus:
        arg -= 4.0 * data[k].order * cmath.phase(z0 - complex(data[k].z))
    arg += 2.0 * endpoint_offset_integral(scattering, z0)
    return math.sqrt(abs(nu0)) * cmath.exp(1j * arg)


# ---------------------------------------------------------------------------
# Conjugated moment matrix
# ---------------------------------------------------------------------------

def e1_matrix(m_out_at_z0, pc: PCCoefficients, t: float) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Composite evaluation
# ---------------------------------------------------------------------------

# Below this |r(z0)| the dispersive term is dropped.
_R_THRESHOLD = 1e-12


@dataclass(frozen=True)
class AsymptoticValue:
    """One evaluation of the cone formula at a point (x, t)."""

    x: float
    t: float
    q_sol_part: complex
    f_part: complex
    q_total: complex
    error_order: str = field(default="t^(-3/4)")

    def __post_init__(self) -> None:
        if self.q_total != self.q_sol_part + self.f_part / math.sqrt(self.t):
            raise ValueError(
                "q_total must equal q_sol_part + f_part / sqrt(t) exactly")


def q_asymptotic(x: float, t: float, sigma_d, scattering, cone, *,
                 min_t: float = 5.0) -> AsymptoticValue:
    """Evaluate the leading-order field at one point of a cone.

    ``sigma_d`` is the plain (all-lower) discrete data, ``scattering``
    carries the sampled reflection amplitude (``None`` means reflectionless),
    and ``cone = (x1, x2, v1, v2)``.  The bound-state part uses only the
    poles whose velocities fall inside the cone, dressed by the radiation
    factor ``delta`` and re-oriented about ``z0``; the dispersive part adds the
    oscillator coefficient scaled by ``t**-0.5``.  Points outside the cone,
    nonpositive times, and times below ``min_t`` are rejected.
    """
    x = float(x)
    t = float(t)
    if t <= 0.0:
        raise ValueError("t must be positive")
    if t < min_t:
        raise ValueError(f"t = {t:g} is below the asymptotic floor "
                         f"min_t = {min_t:g}")
    x1, x2, v1, v2 = (float(v) for v in cone)
    if not (x1 + v1 * t <= x <= x2 + v2 * t):
        raise ValueError(f"(x, t) = ({x:g}, {t:g}) lies outside the cone")

    sigma_d = tuple(sigma_d)
    z0 = -x / (2.0 * t)
    part = partition(sigma_d, z0, cone)

    if scattering is None:
        weighted = sigma_d
    else:
        weighted = modulate_constants(
            sigma_d, lambda z: delta_and_log_derivative(z, scattering, z0))
    oriented = restrict_to_interval(weighted, part.I, z0)
    state = solve_soliton(oriented, x, t, z_eval=z0)
    q_sol = complex(state.q)

    f = 0.0 + 0.0j
    if scattering is not None:
        ctx = phase_context(scattering, sigma_d, x, t,
                            delta_minus=part.delta_minus)
        if abs(ctx.r_at_z0) >= _R_THRESHOLD:
            pc = pc_coefficients(r0_modulated(scattering, ctx, t), ctx.nu0)
            eta11, eta12 = (complex(v) for v in state.m_out_row)
            f = pc.beta12 * eta11 ** 2 + pc.beta21 * eta12 ** 2

    return AsymptoticValue(x=x, t=t, q_sol_part=q_sol, f_part=f,
                           q_total=q_sol + f / math.sqrt(t))


def save_asymptotics(path, values) -> None:
    """CSV dump of evaluations: one row per point."""
    rows = [(v.x, v.t, v.q_sol_part.real, v.q_sol_part.imag,
             v.f_part.real, v.f_part.imag, v.q_total.real, v.q_total.imag)
            for v in values]
    np.savetxt(path, np.asarray(rows, dtype=float), delimiter=",",
               fmt="%.17g",
               header="x,t,re_q_sol,im_q_sol,re_f,im_f,re_q_total,im_q_total",
               comments="# ")
