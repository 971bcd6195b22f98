"""Independent references and property checks for the benchmark.

Nothing here imports ``fnls``: every reference is computed from a closed
form or from a property the exact solution must have, so the benchmark can
tell a wrong answer from a slow one.  The equation throughout is

    i q_t + (1/2) q_xx + |q|^2 q = 0.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances, set well above the error floors measured on correct outputs
# and well below the errors of the perturbed fields in test_checks.py.
SECH_TOL = 1e-9
BREATHER_TOL = 1e-8
PDE_TOL = 1e-4
MASS_TOL = 1e-6
SY_TOL = 1e-9
UNITARITY_TOL = 1e-10
ZERO_TOL = 1e-6
ROUNDTRIP_Z_TOL = 1e-4
ROUNDTRIP_C_TOL = 1e-3
NU_TOL = 3e-2
EVEN_TOL = 1e-6
CLOSED_FORM_LINF = 1e-6
MASS_DRIFT_TOL = 1e-10
ENERGY_DRIFT_TOL = 1e-4


def sech_soliton(x, t, z, c0):
    """One-soliton field of the simple pole ``z`` with norming constant ``c0``.

    Amplitude ``2 Im z``, velocity ``-2 Re z``, centred where
    ``2 Im z (x + 2 Re z t) = log(|c0| / (2 Im z))``.
    """
    xi, eta = z.real, z.imag
    x = np.asarray(x, dtype=float)
    arg = 2.0 * eta * (x + 2.0 * xi * t) - math.log(abs(c0) / (2.0 * eta))
    phase = (-0.5 * math.pi - np.angle(c0) - 2.0 * xi * x
             - 2.0 * (xi * xi - eta * eta) * t)
    return 2.0 * eta / np.cosh(arg) * np.exp(1j * phase)


def breather(x, t):
    """Satsuma-Yajima breather, the evolution of ``q(x, 0) = 2 sech x``."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    num = np.cosh(3.0 * x) + 3.0 * np.exp(4j * t) * np.cosh(x)
    den = np.cosh(4.0 * x) + 4.0 * np.cosh(2.0 * x) + 3.0 * np.cos(4.0 * t)
    return 4.0 * np.exp(0.5j * t) * num / den


def rel_max_error(q, ref):
    """``max |q - ref| / max |ref|``."""
    return float(np.max(np.abs(q - ref)) / np.max(np.abs(ref)))


def wavenumbers(n, dx):
    return 2.0 * np.pi * np.fft.fftfreq(n, d=dx)


def pde_residual(slices, dx, h):
    """Scaled PDE residual at the middle of five equally spaced time slices.

    ``slices`` has shape (5, n) on a periodic grid of spacing ``dx``; the
    time derivative is the fourth-order five-point stencil with spacing
    ``h`` and ``q_xx`` is spectral.  Returns ``max |residual| / max |q|^3``,
    so the figure does not depend on the field's amplitude.
    """
    q = np.asarray(slices, dtype=np.complex128)
    q_t = (q[0] - 8.0 * q[1] + 8.0 * q[3] - q[4]) / (12.0 * h)
    qc = q[2]
    k = wavenumbers(qc.size, dx)
    q_xx = np.fft.ifft(-(k ** 2) * np.fft.fft(qc))
    res = 1j * q_t + 0.5 * q_xx + np.abs(qc) ** 2 * qc
    return float(np.max(np.abs(res)) / np.max(np.abs(qc)) ** 3)


def _fd_xx(q, dx):
    """Sixth-order central second difference on the interior points."""
    c = (1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90)
    n = q.shape[-1]
    return sum(ci * q[..., i:n - 6 + i] for i, ci in enumerate(c)) / dx ** 2


def fd_pde_residual(slices, dx, h):
    """Scaled PDE residual like :func:`pde_residual`, but with finite
    differences in x, for windows where the field has not decayed."""
    q = np.asarray(slices)
    q_t = ((q[0] - 8 * q[1] + 8 * q[3] - q[4]) / (12 * h))[3:-3]
    qc = q[2, 3:-3]
    res = 1j * q_t + 0.5 * _fd_xx(q[2], dx) + np.abs(qc) ** 2 * qc
    return float(np.max(np.abs(res)) / np.max(np.abs(q[2])) ** 3)


def trace_mass(poles):
    """Trace-formula mass ``4 sum m_k Im z_k`` of reflectionless data."""
    return 4.0 * sum(order * z.imag for z, order in poles)


def grid_mass(q, dx):
    """``integral |q|^2 dx`` on a periodic grid (exact for band-limited q)."""
    return float(dx * np.sum(np.abs(q) ** 2))


def mass_error(q, dx, poles):
    """Relative gap between the field's mass and the trace formula."""
    m = trace_mass(poles)
    return abs(grid_mass(q, dx) - m) / m


def sech_s21_sq(amplitude, z):
    """Satsuma-Yajima ``|s21(z)|^2 = sin^2(pi A) / cosh^2(pi z)`` for
    ``q(x, 0) = A sech x`` on the real line."""
    return math.sin(math.pi * amplitude) ** 2 / np.cosh(math.pi * np.asarray(z)) ** 2


def sech_zeros(amplitude):
    """Zeros of s11 for ``A sech x``: ``i (A - 1/2 - n)`` while positive."""
    out = []
    n = 0
    while amplitude - 0.5 - n > 0.0:
        out.append(complex(0.0, amplitude - 0.5 - n))
        n += 1
    return sorted(out, key=lambda z: z.imag)


def unitarity_error(s11, s21):
    return float(np.max(np.abs(np.abs(s11) ** 2 + np.abs(s21) ** 2 - 1.0)))


def zeros_error(found, expected):
    """Worst distance between matched zeros; ``inf`` if the counts differ."""
    found = sorted((complex(z) for z in found), key=lambda z: z.imag)
    if len(found) != len(expected):
        return math.inf
    return max((abs(a - b) for a, b in zip(found, expected)), default=0.0)


def roundtrip_ratio(found, z, order, c0, c1):
    """Worst error-to-tolerance ratio of a recovered pole and its constants.

    ``found`` is a list of (z, order, c0, c1); exactly one pole of the same
    order must come back.
    """
    if len(found) != 1 or found[0][1] != order:
        return math.inf
    zf, _, c0f, c1f = found[0]
    parts = [abs(zf - z) / ROUNDTRIP_Z_TOL,
             abs(c0f - c0) / abs(c0) / ROUNDTRIP_C_TOL]
    if order == 2:
        parts.append(abs(c1f - c1) / abs(c1) / ROUNDTRIP_C_TOL)
    return max(parts)


def nu_identity_error(x, t, q, amplitude):
    """Pole-free cone asymptotics of ``A sech x``:
    ``t |q|^2 = log(1 + |r(z0)|^2) / (2 pi)`` at ``z0 = -x / (2t)``, with
    ``|r|^2 = |s21|^2 / (1 - |s21|^2)`` from the closed form.  Returns the
    worst relative error."""
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    s = sech_s21_sq(amplitude, -x / (2.0 * t))
    ref = np.log1p(s / (1.0 - s)) / (2.0 * math.pi)
    return float(np.max(np.abs(t * np.abs(q) ** 2 / ref - 1.0)))


def evenness_error(x, t, q):
    """Worst ``| |q(x)| - |q(-x)| | / max |q|`` over the mirrored pairs of
    points at each time; even initial data give a field even in x."""
    x, t, q = (np.asarray(v) for v in (x, t, q))
    worst = 0.0
    for tt in np.unique(t):
        m = t == tt
        xs, qs = x[m], np.abs(q[m])
        order = np.argsort(xs)
        xs, qs = xs[order], qs[order]
        if not np.allclose(xs, -xs[::-1], rtol=0.0, atol=1e-9):
            return math.inf
        worst = max(worst, float(np.max(np.abs(qs - qs[::-1])) / np.max(qs)))
    return worst


def fourier_interp(q, x_min, length, x_new):
    """Trigonometric interpolant of a periodic slice at arbitrary points."""
    q = np.asarray(q, dtype=np.complex128)
    n = q.size
    k = wavenumbers(n, length / n)
    coeffs = np.fft.fft(q) / n
    return np.exp(1j * np.outer(np.asarray(x_new) - x_min, k)) @ coeffs


def invariants(q, dx):
    """Mass and energy of a periodic slice from spectral sums."""
    q = np.asarray(q, dtype=np.complex128)
    k = wavenumbers(q.size, dx)
    qx = np.fft.ifft(1j * k * np.fft.fft(q))
    mass = dx * float(np.sum(np.abs(q) ** 2))
    energy = dx * float(np.sum(0.5 * np.abs(qx) ** 2 - 0.5 * np.abs(q) ** 4))
    return mass, energy


def invariant_drift(slices, dx):
    """Largest relative drifts (mass, energy) across stored slices.

    Split-step keeps the mass to rounding; the energy drifts by the
    splitting error, so the two get separate tolerances."""
    m0, e0 = invariants(slices[0], dx)
    dm = de = 0.0
    for s in slices[1:]:
        m, e = invariants(s, dx)
        dm = max(dm, abs(m - m0) / abs(m0))
        de = max(de, abs(e - e0) / max(abs(e0), abs(m0)))
    return dm, de


def remainder_growth(times, scaled):
    """Growth of the scaled remainder ``t^(3/4) |q_pde - q_asym|`` along one
    ray: the ratio of its last to its first value.  The cone asymptotics
    leave an ``O(t^(-3/4))`` remainder, so the ratio must not exceed 1."""
    order = np.argsort(times)
    s = np.asarray(scaled, dtype=float)[order]
    return float(s[-1] / s[0])
