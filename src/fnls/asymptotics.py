"""Long-time evaluation of the field inside a space-time cone.

Inside a cone ``x = x0 + v t`` with ``x0 in [x1, x2]`` and ``v in [v1, v2]``
the field splits into a multi-pole bound-state part, from the poles whose
velocities fall in the cone, kept first and then dressed by the radiation
and by the poles left out on their left, plus a dispersive correction of
size ``t**-0.5`` whose coefficient comes from the model oscillator problem
at the stationary point ``z0 = -x / (2 t)``.  The remainder after both
terms decays like ``t**-0.75``.  The formula is evaluated over arrays of
points at once: one ray quadrature and one call of
:func:`fnls.solitons.solve_soliton` per call.
The field does not depend on which poles are moved to column 2, so the
bound-state part is that solve's; the dispersive part reads the first row
of the solution matrix at z0 as the solve returns it, with the kept poles
left of z0 moved: the normalization of T.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .csvio import formatted, write_grid
from .phase import _unwrap, partition, phase_context, r0_modulated
from .solitons import (
    _blaschke_series,
    _mul,
    modulate_constants,
    restrict_to_interval,
    solve_soliton,
)

__all__ = [
    "PCCoefficients",
    "pc_coefficients",
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
    moment at the density ``nu`` (scalars, or arrays elementwise)."""

    nu: float | np.ndarray
    beta12: complex | np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.beta12 == 0):
            raise ValueError("beta12 must be nonzero")
        # |beta12|^2 = |nu| encodes the Gamma modulus identity; a failure
        # here means (r0, nu) were not produced by the same amplitude
        if np.any(np.abs(np.abs(self.beta12) ** 2 - np.abs(self.nu)) > 1e-10):
            raise ValueError(
                "inconsistent coefficients: |beta12|^2 differs from |nu|")

    @property
    def beta21(self) -> complex | np.ndarray:
        return self.nu / self.beta12


# B_{2k} / (2k (2k - 1)), k = 1..12: the terms of Stirling's series for
# log Gamma in odd powers of 1/w.  At |w| >= _STIRLING_RADIUS the first term
# left out is below 2e-18.  The radius is kept small because Gamma(w) is
# taken as the exponential of log Gamma(w), whose rounding grows with |w|.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400, 43867 / 244188, -174611 / 125400,
             77683 / 5796, -236364091 / 1506960)
_STIRLING_RADIUS = 7.0


def _gamma(z) -> np.ndarray:
    """Gamma at points of the closed right half plane (``Re z >= 0``, z not
    0), elementwise: Stirling's series at ``w = z + N``, with N the least
    shift that puts ``|w|`` on or past the series' radius, carried back by
    ``Gamma(z) = Gamma(w) / (z (z + 1) ... (z + N - 1))``."""
    z = np.asarray(z, dtype=np.complex128)
    reach = np.sqrt(np.maximum(_STIRLING_RADIUS ** 2 - z.imag ** 2, 0.0))
    shift = np.maximum(np.ceil(reach - z.real), 0.0)
    w, rising = z + shift, np.ones_like(z)
    for j in range(int(shift.max(initial=0.0))):
        rising = rising * np.where(j < shift, z + j, 1.0)
    u, series = 1.0 / (w * w), np.zeros_like(w)
    for c in reversed(_STIRLING):
        series = series * u + c
    return np.exp((w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi)
                  + series / w) / rising


def pc_coefficients(r0, nu) -> PCCoefficients:
    """Build the moment coefficients from the modulated amplitude, at one
    point or elementwise over arrays.

    ``beta12 = sqrt(2 pi) e^{i pi/4} e^{-pi nu / 2} / (r0 Gamma(-i nu))``
    and ``beta21 = nu / beta12``.
    """
    nu = _unwrap(np.asarray(nu, dtype=float))
    r0 = _unwrap(np.asarray(r0, dtype=np.complex128))
    if np.any(nu == 0.0):
        raise ValueError(
            "nu = 0 only happens when the amplitude vanishes; the "
            "dispersive coefficients are undefined there")
    if np.any(r0 == 0):
        raise ValueError("r0 must be nonzero (the dispersive term is "
                         "dropped upstream when the amplitude vanishes)")
    beta12 = _unwrap(math.sqrt(2.0 * math.pi) * cmath.exp(0.25j * math.pi)
                     * np.exp(-0.5 * math.pi * nu)
                     / (r0 * _gamma(-1j * nu)))
    return PCCoefficients(nu=nu, beta12=beta12)


# ---------------------------------------------------------------------------
# Composite evaluation
# ---------------------------------------------------------------------------

# Below this |r(z0)| the dispersive term is dropped.
_R_THRESHOLD = 1e-12
# The earliest time the cone formula is evaluated at.
_MIN_T = 5.0


@dataclass(frozen=True)
class AsymptoticValue:
    """The cone formula at a point (x, t), or elementwise over arrays of
    points."""

    x: float | np.ndarray
    t: float | np.ndarray
    q_sol_part: complex | np.ndarray
    f_part: complex | np.ndarray

    @property
    def q_total(self) -> complex | np.ndarray:
        """The bound-state part plus the dispersive part over ``sqrt(t)``;
        the remainder decays like ``t**-0.75``."""
        return self.q_sol_part + self.f_part / np.sqrt(self.t)


def q_asymptotic(x, t, sigma_d, scattering, cone) -> AsymptoticValue:
    """Evaluate the leading-order field at points of a cone.

    ``x`` and ``t`` are scalars or arrays that broadcast together; the
    result has their shape.  ``sigma_d`` is the discrete data,
    ``scattering`` carries the sampled reflection amplitude (``None`` means
    reflectionless), and ``cone = (x1, x2, v1, v2)``.  The bound-state part
    uses only the poles whose velocities fall inside the cone, dressed as
    under the column scaling by ``1 / T``: by the radiation factor
    ``1 / delta`` and by the Blaschke product ``B`` of the poles the
    window leaves out on its left, ``c -> pp[c B^2 delta^-2]``.  For points
    of the cone z0 lies in the window up to O(1/t), so those are the poles
    of T that the window drops, one list for all points.  The dispersive
    part adds the oscillator coefficient scaled by ``t**-0.5``, read
    through the first row of the solution matrix at ``z0`` in T's
    normalization, the kept poles left of ``z0`` moved.
    Non-finite points, points outside the cone, nonpositive times and
    times below ``_MIN_T`` are rejected.
    """
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    shape = x.shape
    x, t = x.ravel(), t.ravel()
    for name, v in (("x", x), ("t", t)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite, got {float(v[~np.isfinite(v)][0])!r}")
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    if np.any(t < _MIN_T):
        raise ValueError(f"t = {t.min():g} is below the asymptotic floor "
                         f"t = {_MIN_T:g}")
    sigma_d = tuple(sigma_d)
    z0 = -x / (2.0 * t)
    # the window checks the cone before the points are tested against it
    part = partition(sigma_d, cone)
    x1, x2, v1, v2 = (float(v) for v in cone)
    outside = ~((x1 + v1 * t <= x) & (x <= x2 + v2 * t))
    if outside.any():
        i = np.argmax(outside)
        raise ValueError(f"(x, t) = ({x[i]:g}, {t[i]:g}) lies outside the cone")

    # the window first: only the poles it keeps are dressed and solved
    kept = restrict_to_interval(sigma_d, part.I)
    left_out = tuple(d for d in sigma_d if d.z.real < part.I[0])
    # one ray for all points: the pole dressing and T0 read its nodes
    ctx = None if scattering is None else phase_context(scattering, sigma_d, z0)

    def inverse_t(z, n):
        b = _blaschke_series(z, left_out, n)
        return b if ctx is None else _mul(b, ctx.ray.inverse_delta(z, n), n)

    state = solve_soliton(modulate_constants(kept, inverse_t), x, t, z0)

    f = np.zeros(x.size, dtype=np.complex128)
    if ctx is not None:
        # a pole over z0 may fall on either side of the solve's cut; its
        # Blaschke factor there is (-1)^m, and f reads the row only squared
        live = np.abs(ctx.r_at_z0) >= _R_THRESHOLD
        if live.any():
            pc = pc_coefficients(r0_modulated(ctx, t)[live], ctx.nu0[live])
            row = state.row[live]
            f[live] = pc.beta12 * row[:, 0] ** 2 + pc.beta21 * row[:, 1] ** 2

    x, t, q_sol, f = (_unwrap(a.reshape(shape)) for a in (x, t, state.q, f))
    return AsymptoticValue(x=x, t=t, q_sol_part=q_sol, f_part=f)


def save_asymptotics(path, value: AsymptoticValue) -> None:
    """CSV dump of an evaluation over any number of points, one row per
    point."""
    x, t, q_sol, f, q = (np.ravel(v) for v in (value.x, value.t, value.q_sol_part,
                                               value.f_part, value.q_total))
    write_grid(path, np.column_stack([t, q_sol.real, q_sol.imag, f.real, f.imag,
                                      q.real, q.imag]),
               "x,t,re_q_sol,im_q_sol,re_f,im_f,re_q_total,im_q_total", formatted(x))
