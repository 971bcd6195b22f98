"""Scalar modulation machinery for the long-time analysis.

Everything here works off a sampled reflection coefficient plus the list of
discrete pole data.  The continuous factors are Cauchy-type integrals over
the ray (-inf, z0] of the real axis, evaluated with composite Gauss-Legendre
panels on the sample grid: the integrand density is modelled linearly
between samples and exponentially beyond the left grid edge.  Boundary
values on the ray carry the half-residue correction; the principal value at
an interior point is computed by subtracting the local density over a unit
window and adding the window's exact kernel integral back.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .solitons import blaschke_product

TWO_PI = 2.0 * math.pi

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
# Points closer than this to a pole of the modulation factor are rejected.
_GUARD_RADIUS = 1e-8


# ---------------------------------------------------------------------------
# Elementary scalars
# ---------------------------------------------------------------------------

def nu_of(r_abs):
    """Logarithmic density -log(1 + |r|^2) / (2 pi); never positive."""
    r_abs = np.asarray(r_abs, dtype=float)
    out = -np.log1p(r_abs ** 2) / TWO_PI
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Quadrature over the ray (-inf, z0]
# ---------------------------------------------------------------------------

def _panel_nodes(breaks):
    """Gauss-Legendre nodes and weights on the panels between breaks."""
    a, b = breaks[:-1], breaks[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    s = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    w = half[:, None] * np.broadcast_to(_GL_WEIGHTS, s.shape)
    return s.ravel(), w.ravel()


def _safe_ratio(num, den):
    """Elementwise num/den with exact zero-denominator terms dropped.

    A quadrature node can round onto the singular point when a panel
    breakpoint falls within an ulp of it; such nodes carry ulp-sized
    weights, so their regularised contribution is below roundoff anyway.
    """
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


class _RayDensity:
    """The density nu sampled on (-inf, z0]: panel breakpoints on the grid
    part, linear interpolation inside panels, exponential model to the left
    of the grid."""

    def __init__(self, scattering, z0: float):
        s = np.asarray(scattering.z, dtype=float)
        nu = nu_of(np.abs(np.asarray(scattering.r)))
        self.z0 = float(z0)
        self.grid = s
        self.nu_grid = nu

        keep = s <= z0
        breaks = s[keep]
        values = nu[keep]
        if breaks.size and breaks[-1] < z0 <= s[-1]:
            # close the ray exactly at z0 with an interpolated sample
            breaks = np.append(breaks, z0)
            values = np.append(values, np.interp(z0, s, nu))
        self.breaks = breaks
        self.values = values

        # exponential continuation nu(s) ~ nu_edge * exp(kappa (s - edge))
        self.tail_edge = None
        if s.size >= 2 and z0 > s[0]:
            n0, n1 = abs(nu[0]), abs(nu[1])
            if n0 > 0.0 and n1 > n0:
                self.tail_edge = s[0]
                self.tail_value = nu[0]
                self.tail_kappa = math.log(n1 / n0) / (s[1] - s[0])

    def nu_at(self, s0: float) -> float:
        return float(np.interp(s0, self.grid, self.nu_grid))

    def nodes(self, extra_breaks=()):
        """Quadrature nodes, weights and density values on the whole ray."""
        breaks = self.breaks
        values = self.values
        extra = [b for b in extra_breaks
                 if breaks.size and breaks[0] < b < breaks[-1]]
        if extra:
            breaks = np.unique(np.concatenate([breaks, extra]))
            values = np.interp(breaks, self.breaks, self.values)
        parts = []
        if breaks.size >= 2:
            s, w = _panel_nodes(breaks)
            parts.append((s, w, np.interp(s, breaks, values)))
        if self.tail_edge is not None:
            upper = min(self.tail_edge, self.z0)
            span = 40.0 / self.tail_kappa
            tb = np.linspace(upper - span, upper, 17)
            cuts = [b for b in extra_breaks if tb[0] < b < tb[-1]]
            if cuts:
                tb = np.unique(np.concatenate([tb, cuts]))
            s, w = _panel_nodes(tb)
            v = self.tail_value * np.exp(self.tail_kappa * (s - self.tail_edge))
            parts.append((s, w, v))
        if not parts:
            empty = np.zeros(0)
            return empty, empty, empty
        s = np.concatenate([p[0] for p in parts])
        w = np.concatenate([p[1] for p in parts])
        v = np.concatenate([p[2] for p in parts])
        return s, w, v

    def integral(self) -> float:
        s, w, v = self.nodes()
        return float(np.sum(w * v))

    def cauchy(self, z):
        """integral of nu(s) / (s - z) over the ray, z off the ray."""
        s, w, v = self.nodes()
        z = np.asarray(z, dtype=np.complex128)
        acc = np.sum((w * v)[:, None] / (s[:, None] - z.ravel()[None, :]),
                     axis=0)
        return acc.reshape(z.shape) if z.ndim else complex(acc[0])

    def cauchy_principal(self, s0: float) -> float:
        """Principal value of the same integral at an interior ray point."""
        n0 = self.nu_at(s0)
        w1 = s0 - 1.0
        if self.breaks.size:
            w1 = max(w1, self.breaks[0])
        w2 = min(s0 + 1.0, self.z0)
        s, w, v = self.nodes(extra_breaks=(w1, s0, w2))
        inw = (s > w1) & (s < w2)
        v = v - np.where(inw, n0, 0.0)
        pv = float(np.sum(_safe_ratio(w * v, s - s0)))
        pv += n0 * math.log((w2 - s0) / (s0 - w1))
        return pv

    def offset_integral(self) -> float:
        """integral of (nu(s) - chi nu(z0)) / (s - z0) with chi the
        indicator of the unit window left of the ray endpoint."""
        n0 = self.nu_at(self.z0)
        w1 = self.z0 - 1.0
        s, w, v = self.nodes(extra_breaks=(w1,))
        v = v - np.where(s > w1, n0, 0.0)
        return float(np.sum(_safe_ratio(w * v, s - self.z0)))


def nu_integral(scattering, z0: float) -> float:
    """Plain integral of the density nu over (-inf, z0]."""
    return _RayDensity(scattering, z0).integral()


def endpoint_offset_integral(scattering, z0: float) -> float:
    """The real window-subtracted kernel integral at the ray endpoint (the
    argument of the boundary constant before the pole factors)."""
    return _RayDensity(scattering, z0).offset_integral()


# ---------------------------------------------------------------------------
# The partial-transmission factors
# ---------------------------------------------------------------------------

def delta_fn(z, scattering, z0: float, side: str | None = None):
    """Sectionally analytic scalar solving the multiplicative jump
    1 + |r|^2 across (-inf, z0]; ``side`` selects the boundary value
    ("+" from above, "-" from below) when z lies on the ray."""
    ray = _RayDensity(scattering, z0)
    z_arr = np.asarray(z, dtype=np.complex128)
    on_ray = (z_arr.imag == 0.0) & (z_arr.real <= z0)
    if np.any(on_ray):
        if side not in ("+", "-"):
            raise ValueError(
                "z lies on the ray (-inf, z0]; pass side='+' or side='-' "
                "to select a boundary value")
        if z_arr.ndim:
            flat_mask = on_ray.ravel()
            flat = z_arr.ravel()
            vals = [
                delta_fn(complex(zz), scattering, z0,
                         side=side if m else None)
                for zz, m in zip(flat, flat_mask)
            ]
            return np.array(vals).reshape(z_arr.shape)
        pv = ray.cauchy_principal(float(z_arr.real))
        half = math.pi * ray.nu_at(float(z_arr.real))
        sign = 1.0 if side == "+" else -1.0
        return cmath.exp(1j * pv - sign * half)
    acc = ray.cauchy(z_arr)
    out = np.exp(1j * np.asarray(acc, dtype=np.complex128))
    return complex(out) if z_arr.ndim == 0 else out


def delta_and_log_derivative(z: complex, scattering, z0: float):
    """``(delta(z), delta'(z) / delta(z))`` at z off the ray, on the nodes of
    :func:`delta_fn`: ``delta'/delta = i * integral of nu(s) / (s - z)^2``."""
    s, w, v = _RayDensity(scattering, z0).nodes()
    inv = 1.0 / (s - complex(z))
    return (cmath.exp(1j * complex(np.sum(w * v * inv))),
            1j * complex(np.sum(w * v * inv * inv)))


def T_fn(z, delta_minus, data, scattering, z0: float,
         side: str | None = None):
    """Full modulation factor: the inverse Blaschke product of the poles in
    ``delta_minus`` times the continuous factor from the reflection data."""
    z_arr = np.asarray(z, dtype=np.complex128)
    for k in delta_minus:
        zk = complex(data[k].z)
        gap = np.min(np.abs(z_arr - zk))
        if gap <= _GUARD_RADIUS:
            raise ValueError(
                f"evaluation point within the guard radius of the pole at "
                f"{zk}; the factor is singular there")
    prod = 1.0 / blaschke_product(z_arr, [data[k] for k in delta_minus])
    d = delta_fn(z_arr, scattering, z0, side=side)
    out = prod * d
    return complex(out) if z_arr.ndim == 0 else out


def T0_at_z0(delta_minus, data, scattering, z0: float) -> complex:
    """Boundary constant of the modulation factor at the ray endpoint,
    with the endpoint singularity removed by the unit-window subtraction."""
    s = np.asarray(scattering.z, dtype=float)
    if not (s[0] <= z0 <= s[-1]):
        raise ValueError("the reflection grid does not bracket z0")
    ray = _RayDensity(scattering, z0)
    beta = ray.offset_integral()
    prod = complex(1.0 / blaschke_product(z0, [data[k] for k in delta_minus]))
    return prod * cmath.exp(1j * beta)


# ---------------------------------------------------------------------------
# Context and partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseContext:
    """Everything scalar the asymptotic formulas need at one (x, t)."""

    x: float
    t: float
    z0: float
    nu0: float
    T0_z0: complex
    r_at_z0: complex

    def __post_init__(self) -> None:
        if self.t == 0:
            raise ValueError("the phase is undefined at t = 0")
        if self.z0 != -self.x / (2.0 * self.t):
            raise ValueError("z0 must equal -x/(2t) exactly")
        if self.nu0 > 0:
            raise ValueError("the logarithmic density is never positive")
        # on the real line every pole factor is unimodular and the window
        # integral is real, so the boundary constant must have modulus 1
        if abs(abs(self.T0_z0) - 1.0) > 1e-6:
            raise ValueError("boundary constant is not unimodular; the "
                             "quadrature behind it is inconsistent")


def phase_context(scattering, data, x: float, t: float,
                  delta_minus=None) -> PhaseContext:
    """Assemble the scalar context at (x, t) from sampled reflection data."""
    if t == 0:
        raise ValueError("the phase is undefined at t = 0")
    z0 = -x / (2.0 * t)
    s = np.asarray(scattering.z, dtype=float)
    if not (s[0] <= z0 <= s[-1]):
        raise ValueError("the reflection grid does not bracket z0")
    r = np.asarray(scattering.r)
    r_at = complex(np.interp(z0, s, r.real), np.interp(z0, s, r.imag))
    if delta_minus is None:
        delta_minus = partition(data, z0).delta_minus
    return PhaseContext(
        x=float(x), t=float(t), z0=z0, nu0=nu_of(abs(r_at)),
        T0_z0=T0_at_z0(delta_minus, data, scattering, z0), r_at_z0=r_at)


@dataclass(frozen=True)
class ConePartition:
    """Index bookkeeping for a space-time cone: which poles sit left/right
    of the stationary point, which fall inside the cone's velocity window,
    and how fast everything else is suppressed."""

    x1: float
    x2: float
    v1: float
    v2: float
    I: tuple
    delta_minus: tuple
    delta_plus: tuple
    zI: tuple
    mu_I: float

    def __post_init__(self) -> None:
        if self.x1 > self.x2 or self.v1 > self.v2:
            raise ValueError("cone bounds must be ordered")
        if set(self.delta_minus) & set(self.delta_plus):
            raise ValueError("pole index assigned to both sides")
        if not (self.mu_I > 0.0):
            raise ValueError("suppression rate must be positive")


def partition(data, z0: float, cone=None) -> ConePartition:
    """Split the pole indices about the stationary point and, when a cone
    (x1, x2, v1, v2) is given, about its velocity interval."""
    if cone is None:
        x1 = x2 = 0.0
        v1 = v2 = -2.0 * z0
    else:
        x1, x2, v1, v2 = (float(v) for v in cone)
    interval = (-v2 / 2.0, -v1 / 2.0)

    minus, plus = [], []
    for k, d in enumerate(data):
        re = complex(d.z).real
        if re < z0:
            minus.append(k)
        else:
            if re == z0:
                warnings.warn(
                    "pole sits exactly over the stationary point; "
                    "assigning it to the right-hand set",
                    RuntimeWarning, stacklevel=2)
            plus.append(k)

    zI = [k for k, d in enumerate(data)
          if interval[0] <= complex(d.z).real <= interval[1]]
    mu = math.inf
    for k, d in enumerate(data):
        if k in zI:
            continue
        zk = complex(d.z)
        dist = max(interval[0] - zk.real, zk.real - interval[1])
        mu = min(mu, zk.imag * dist)

    return ConePartition(x1=x1, x2=x2, v1=v1, v2=v2, I=interval,
                         delta_minus=tuple(minus), delta_plus=tuple(plus),
                         zI=tuple(zI), mu_I=mu)


# ---------------------------------------------------------------------------
# Modulated reflection amplitude
# ---------------------------------------------------------------------------

def r0_modulated(scattering, ctx: PhaseContext, t: float) -> complex:
    """Reflection amplitude dressed by the boundary constant and the
    slowly rotating logarithmic phase; drives the dispersive term."""
    if not t > 0:
        raise ValueError("the modulated amplitude needs t > 0")
    rot = 2.0 * (ctx.nu0 * math.log(2.0 * math.sqrt(t)) - t * ctx.z0 ** 2)
    return ctx.r_at_z0 * ctx.T0_z0 ** (-2) * cmath.exp(1j * rot)
