"""Scalar modulation machinery for the long-time analysis.

Everything here works off a sampled reflection coefficient plus the list of
discrete pole data.  The continuous factors are Cauchy-type integrals over
the ray (-inf, z0] of the real axis.  One ray object serves every
stationary point z0 of a call: composite Gauss-Legendre panels on the
sample grid, where the density is modelled linearly between samples, and
panels on an exponential model beyond the left grid edge, built once; each
z0 adds only its closing panel from the last sample to z0.  The factor
delta and the Taylor series of 1/delta, at points off the ray, and the
boundary constant T0 read that node set, and work over arrays of stationary
points.  The formulas read delta at the poles and at z0 only, through T0,
so the one integral taken at a point of the ray is the finite part beta at
its own endpoint z0: the node sum of ``(nu(s) - nu(z0)) / (s - z0)``,
smooth on every panel, plus the exact finite part of ``nu(z0) / (s - z0)``
over the ray.  The boundary values of delta on the ray belong to the jump
it solves, and are not computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solitons import _exp, blaschke_product

__all__ = [
    "nu_of",
    "delta_fn",
    "PhaseContext",
    "phase_context",
    "ConePartition",
    "partition",
    "r0_modulated",
]

TWO_PI = 2.0 * math.pi

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
# Points times quadrature nodes per dense kernel sum, which bounds its memory.
_CHUNK_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# Elementary scalars
# ---------------------------------------------------------------------------

def _unwrap(a):
    """A result at one point as a Python scalar; arrays as they are."""
    return np.asarray(a).item() if np.ndim(a) == 0 else a


def nu_of(r_abs):
    """Logarithmic density -log(1 + |r|^2) / (2 pi); never positive."""
    r_abs = np.asarray(r_abs, dtype=float)
    out = -np.log1p(r_abs ** 2) / TWO_PI
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Quadrature over the ray (-inf, z0]
# ---------------------------------------------------------------------------

def _panel_nodes(breaks):
    """Gauss-Legendre nodes and weights on the panels between breaks, one
    row per panel (``breaks`` may carry leading axes)."""
    a, b = breaks[..., :-1], breaks[..., 1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[..., None] + half[..., None] * _GL_NODES, half[..., None] * _GL_WEIGHTS


def _powers(wv, gap, n: int) -> np.ndarray:
    """``wv / gap^k`` for k = 1 .. n, stacked on a new leading axis."""
    terms = [wv / gap]
    for _ in range(1, n):
        terms.append(terms[-1] / gap)
    return np.stack(terms)


class _RayDensity:
    """The density nu on the rays (-inf, z0] of one stationary point or an
    array of them, and the one quadrature every integral over a ray is
    read from.

    Between grid samples nu is linear, and left of the grid an exponential
    continuation takes over.  The fixed panels (the tail's, then one per
    grid interval) are built once; the ray of a point takes those left of
    the last sample ``s_J <= z0`` and closes with its own panel
    ``[s_J, z0]``.  Sums against the kernels ``1/(s - z)^k`` at points z
    off the rays are :meth:`kernel_series`; the finite part at each ray's
    endpoint reads the same nodes through :meth:`offset_integral`.
    """

    def __init__(self, scattering, z0):
        s = np.asarray(scattering.z, dtype=float)
        z0 = np.asarray(z0, dtype=float)
        if not np.all((s[0] <= z0) & (z0 <= s[-1])):
            raise ValueError("the reflection grid does not bracket z0")
        self.grid = s
        self.nu_grid = nu_of(np.abs(np.asarray(scattering.r)))
        self.z0 = z0

        # exponential continuation nu(s) ~ nu[0] * exp(kappa (s - s[0])) out
        # to 40/kappa.  Its panels grow from one grid spacing, doubling up to
        # 2/kappa: an integrand less nu(z0) carries the kink at the grid edge,
        # and graded panels keep it as far from their nodes as they are wide.
        self.tail_kappa = None
        breaks = s
        if s.size >= 2:
            n0, n1 = abs(self.nu_grid[0]), abs(self.nu_grid[1])
            if n0 > 0.0 and n1 > n0:
                kappa = self.tail_kappa = math.log(n1 / n0) / (s[1] - s[0])
                depth, width, tail = 0.0, s[1] - s[0], []
                while depth < 40.0 / kappa:
                    depth = min(depth + width, 40.0 / kappa)
                    width = min(2.0 * width, 2.0 / kappa)
                    tail.append(s[0] - depth)
                breaks = np.concatenate([tail[::-1], s])
        self.breaks = breaks
        self.first = breaks.size - s.size        # fixed panels left of the grid
        nodes, w = _panel_nodes(breaks)
        self.s, self.w = nodes.ravel(), w.ravel()
        self.wv = self.w * self.nu_at(self.s)

        # the fixed panels left of each ray's closing panel, and that panel
        self.closed = self.first + np.searchsorted(s, z0, side="right") - 1
        tip_s, tip_w = _panel_nodes(np.stack([breaks[self.closed], z0], axis=-1))
        self.tip_s = tip_s[..., 0, :]
        self.tip_wv = tip_w[..., 0, :] * self.nu_at(self.tip_s)

    def nu_at(self, s0):
        """The density model at real points: linear between the samples,
        the exponential tail left of them, where only the tail's nodes lie."""
        s0 = np.asarray(s0, dtype=float)
        inside = np.interp(s0, self.grid, self.nu_grid)
        left = s0 < self.grid[0]
        if not np.any(left):
            return inside
        return np.where(left, self.nu_grid[0]
                        * np.exp(self.tail_kappa * (s0 - self.grid[0])), inside)

    @staticmethod
    def _per_panel(terms):
        return terms.reshape(terms.shape[:-1] + (-1, _GL_NODES.size)).sum(axis=-1)

    def kernel_series(self, z, n: int) -> np.ndarray:
        """The first ``n`` Taylor coefficients at points z off the rays of
        ``C``, the integral of ``nu(s) / (s - z)``: shape ``(n,) + z0.shape +
        z.shape``."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.empty((n,) + self.z0.shape + (z.size,), dtype=np.complex128)
        for i, zi in enumerate(z.ravel()):
            fixed = self._per_panel(_powers(self.wv, self.s - zi, n))
            sums = np.cumsum(np.pad(fixed, ((0, 0), (1, 0))), axis=1)
            tip = _powers(self.tip_wv, self.tip_s - zi, n).sum(axis=-1)
            out[..., i] = sums[:, self.closed] + tip
        return out.reshape((n,) + self.z0.shape + z.shape)

    def inverse_delta(self, z, n: int) -> list:
        """The first ``n`` Taylor coefficients of ``1 / delta = exp(-i C)``
        at points z off the rays, each of shape ``z0.shape + z.shape``."""
        return _exp(list(-1j * self.kernel_series(z, n)), n)

    def offset_integral(self):
        """``beta``, the integral of ``(nu(s) - chi nu(z0)) / (s - z0)`` over
        each ray with chi the indicator of ``(z0 - 1, z0)``.

        This is the finite part at z0 of the integral of
        ``nu(s) / (s - z0)``, because the kernel integrates to
        ``-log(z0 - start)`` over the part of the ray outside the window and
        over the window outside the ray alike.  So it is the node sum of
        ``w (nu(s) - nu(z0)) / (s - z0)``, whose integrand is smooth on every
        panel, less ``nu(z0) log(z0 - start)``.  On the closing panel nu is
        linear, so the quotient is the panel's slope and its integral the
        rise of nu across the panel; a node sum there would divide a rounded
        difference by a gap as small as the panel is wide.  The points are
        grouped by closing panel, and each point's sums over the fixed nodes
        left of it are dot products of their own, so a point's value does
        not depend on the others in the call.
        """
        m = _GL_NODES.size
        z0, closed = self.z0.ravel(), np.ravel(self.closed)
        n0 = self.nu_at(z0)
        start = self.breaks[0]
        if np.any((z0 <= start) & (n0 != 0.0)):
            raise ValueError(
                "z0 sits on the left end of a grid with no exponential tail, "
                "where the density jumps from 0 to nu(z0) != 0; the integral "
                "behind the boundary constant diverges there")
        out = n0 - self.nu_grid[closed - self.first]
        for panels in np.unique(closed):
            rows = np.flatnonzero(closed == panels)
            end = m * int(panels)
            step = max(1, _CHUNK_ENTRIES // max(end, 1))
            for lo in range(0, rows.size, step):
                at = rows[lo:lo + step]
                kernel = 1.0 / (self.s[:end] - z0[at, None])
                out[at] += (np.vecdot(kernel, self.wv[:end])
                            - n0[at] * np.vecdot(kernel, self.w[:end]))
        lead = np.log(z0 - start, out=np.zeros_like(z0), where=z0 > start)
        return (out - n0 * lead).reshape(self.z0.shape)[()]


# ---------------------------------------------------------------------------
# The partial-transmission factors
# ---------------------------------------------------------------------------

def delta_fn(z, scattering, z0: float):
    """Sectionally analytic scalar solving the multiplicative jump
    1 + |r|^2 across (-inf, z0], at points z off that ray."""
    z_arr = np.asarray(z, dtype=np.complex128)
    if np.any((z_arr.imag == 0.0) & (z_arr.real <= z0)):
        raise ValueError(
            "z lies on the ray (-inf, z0], where delta jumps; delta is "
            "evaluated off the ray only")
    out = np.exp(1j * _RayDensity(scattering, z0).kernel_series(z_arr, 1)[0])
    return complex(out) if z_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Context and partitions
# ---------------------------------------------------------------------------

def _left_of(data, z0) -> np.ndarray:
    """The poles of T at the stationary points ``z0``, those with ``Re z_k <
    z0``: one flag per point and pole, shape ``z0.shape + (N,)``.  A pole
    exactly over a stationary point goes right.  Its Blaschke factor at z0
    is ``(-1)^m``, and the cone formula reads T0 only squared, so its side
    changes no output."""
    re = np.array([complex(d.z).real for d in data])
    return re < np.asarray(z0, dtype=float)[..., None]


@dataclass(frozen=True)
class PhaseContext:
    """Everything scalar the asymptotic formulas need at a stationary point
    z0, or elementwise over an array of them, and the ray quadrature they
    come from."""

    z0: float | np.ndarray
    T0_z0: complex | np.ndarray
    r_at_z0: complex | np.ndarray
    ray: _RayDensity | None

    def __post_init__(self) -> None:
        # nan passes every comparison below that asks for a fault
        if not all(np.all(np.isfinite(v)) for v in (self.nu0, self.T0_z0, self.r_at_z0)):
            raise ValueError("nu0, the boundary constant and r(z0) must be finite")
        # on the real line every pole factor is unimodular and beta is
        # real, so the boundary constant must have modulus 1
        if np.any(np.abs(np.abs(self.T0_z0) - 1.0) > 1e-6):
            raise ValueError("boundary constant is not unimodular; the "
                             "quadrature behind it is inconsistent")

    @property
    def nu0(self) -> float | np.ndarray:
        """The density at z0, ``nu(|r(z0)|)``."""
        return nu_of(np.abs(self.r_at_z0))


def phase_context(scattering, data, z0) -> PhaseContext:
    """Assemble the scalar context at the stationary points ``z0`` from
    sampled reflection data; ``z0`` may be an array, whose points share one
    ray quadrature.

    The boundary constant at the ray endpoint is the inverse Blaschke
    product of the poles left of z0 (:func:`_left_of`) times
    ``exp(i beta)``, with beta the finite part at z0 of the kernel integral
    of the density (:meth:`_RayDensity.offset_integral`).
    """
    z0 = np.asarray(z0, dtype=float)
    shape = z0.shape
    # one code path for one point and many: the ray runs over a flat array
    z0 = z0.ravel()
    ray = _RayDensity(scattering, z0)
    r = np.asarray(scattering.r)
    r_at = np.interp(z0, ray.grid, r.real) + 1j * np.interp(z0, ray.grid, r.imag)
    inv = blaschke_product(z0, data, _left_of(data, z0))
    T0 = (1.0 / inv) * np.exp(1j * ray.offset_integral())
    z0, T0, r_at = (_unwrap(np.reshape(a, shape)) for a in (z0, T0, r_at))
    return PhaseContext(z0=z0, T0_z0=T0, r_at_z0=r_at, ray=ray)


@dataclass(frozen=True)
class ConePartition:
    """The poles of a space-time cone: the window ``I`` of pole positions
    whose velocities fall inside the cone, and how fast the poles outside
    it are suppressed."""

    I: tuple
    mu_I: float


def partition(data, cone) -> ConePartition:
    """The velocity window of the cone ``(x1, x2, v1, v2)``: the poles with
    ``Re z_k`` in ``I = [-v2/2, -v1/2]``, and the decay rate ``mu_I`` of
    the rest."""
    bounds = tuple(float(v) for v in cone)
    for name, v in zip(("x1", "x2", "v1", "v2"), bounds):
        if not math.isfinite(v):
            raise ValueError(f"cone bound {name} must be finite, got {v!r}")
    x1, x2, v1, v2 = bounds
    if x1 > x2 or v1 > v2:
        raise ValueError("cone bounds must be ordered: x1 <= x2 and v1 <= v2")
    lo, hi = -v2 / 2.0, -v1 / 2.0
    mu = math.inf
    for d in data:
        zk = complex(d.z)
        if lo <= zk.real <= hi:
            continue
        mu = min(mu, zk.imag * max(lo - zk.real, zk.real - hi))
    return ConePartition(I=(lo, hi), mu_I=mu)


# ---------------------------------------------------------------------------
# Modulated reflection amplitude
# ---------------------------------------------------------------------------

def r0_modulated(ctx: PhaseContext, t):
    """Reflection amplitude dressed by the boundary constant and the
    slowly rotating logarithmic phase; drives the dispersive term."""
    if not np.all(np.asarray(t) > 0):
        raise ValueError("the modulated amplitude needs t > 0")
    rot = 2.0 * (ctx.nu0 * np.log(2.0 * np.sqrt(t)) - t * ctx.z0 ** 2)
    return _unwrap(ctx.r_at_z0 * ctx.T0_z0 ** (-2) * np.exp(1j * rot))
