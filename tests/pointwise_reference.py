"""The cone formula evaluated one point at a time, as ``fnls`` did before
it worked over arrays of points.

Each point builds its own ray quadrature (with the panel at ``z0 - 1``
split for every integral, and the part of that window left of the ray's
start added in closed form), dresses ``DiscreteDatum`` tuples by ``1 /
delta`` and by the poles the window leaves out on its left, reorients them,
and solves a one-point pole system.  It solves the flipped system only,
with the kept poles left of z0 in the upper orientation, where the library
keeps the better conditioned of that system and the all-lower one.  So it
agrees with the library only where the flipped system is well conditioned:
on the cones its tests use, not on the order-3 cases of the 60-digit gate
in ``test_asymptotics``, where it is off by 2.7e-2 and 4.5e-2.  The batched
code must agree with it; only the series helpers are shared.  The pole
system is assembled here in two orientations, and solved by
``np.linalg.solve``: a flipped pole keeps its point ``z_k`` and puts its
singular column on the right, with the phase ``e^{-2i(tz^2 + xz)}``,
where the library writes the same pole as a column-1 pole at ``conj z_k``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np
from scipy.special import gamma

from fnls.phase import nu_of
from fnls.solitons import (
    _blaschke_series,
    _exp,
    _inv,
    _mul,
    _scaled,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
R_THRESHOLD = 1e-12


def _panel_nodes(breaks):
    a, b = breaks[:-1], breaks[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    s = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    w = half[:, None] * np.broadcast_to(_GL_WEIGHTS, s.shape)
    return s.ravel(), w.ravel()


def _safe_ratio(num, den):
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


class Ray:
    """The density and its quadrature on (-inf, z0] of one point."""

    def __init__(self, scattering, z0: float):
        s = np.asarray(scattering.z, dtype=float)
        assert s[0] <= z0 <= s[-1]
        nu = nu_of(np.abs(np.asarray(scattering.r)))
        self.z0, self.grid, self.nu_grid = float(z0), s, nu
        keep = s <= z0
        self.breaks, self.values = s[keep], nu[keep]
        if self.breaks[-1] < z0:
            self.breaks = np.append(self.breaks, z0)
            self.values = np.append(self.values, np.interp(z0, s, nu))
        self.tail_kappa = None
        n0, n1 = abs(nu[0]), abs(nu[1])
        if n0 > 0.0 and n1 > n0:
            self.tail_kappa = math.log(n1 / n0) / (s[1] - s[0])
        self.s, self.w, self.v = self._nodes((self.z0 - 1.0,))

    def _nodes(self, extra_breaks):
        breaks, values = self.breaks, self.values
        extra = [b for b in extra_breaks if breaks[0] < b < breaks[-1]]
        if extra:
            breaks = np.unique(np.concatenate([breaks, extra]))
            values = np.interp(breaks, self.breaks, self.values)
        s, w = _panel_nodes(breaks)
        v = np.interp(s, breaks, values)
        if self.tail_kappa is not None:
            edge = self.grid[0]
            tb = np.linspace(edge - 40.0 / self.tail_kappa, edge, 17)
            cuts = [b for b in extra_breaks if tb[0] < b < tb[-1]]
            if cuts:
                tb = np.unique(np.concatenate([tb, cuts]))
            ts, tw = _panel_nodes(tb)
            s, w = np.concatenate([s, ts]), np.concatenate([w, tw])
            v = np.concatenate(
                [v, self.nu_grid[0] * np.exp(self.tail_kappa * (ts - edge))])
        return s, w, v

    def inverse_delta(self, z, n: int):
        """The first ``n`` Taylor coefficients of ``1 / delta`` at z."""
        gap = self.s - complex(z)
        terms = self.w * self.v / gap
        kernel = []
        for _ in range(n):
            kernel.append(-1j * np.sum(terms))
            terms = terms / gap
        return _exp(kernel, n)

    def offset_integral(self) -> float:
        """The integral of ``(nu(s) - chi nu(z0)) / (s - z0)`` with chi the
        indicator of ``(z0 - 1, z0)``.  Left of the ray's start nu is 0, so
        the window's part there integrates exactly to
        ``-n0 log(z0 - max(start, z0 - 1))``."""
        n0 = float(np.interp(self.z0, self.grid, self.nu_grid))
        v = self.v - np.where(self.s > self.z0 - 1.0, n0, 0.0)
        start = self.grid[0] - (40.0 / self.tail_kappa if self.tail_kappa else 0.0)
        return float(np.sum(_safe_ratio(self.w * v, self.s - self.z0))
                     - n0 * math.log(self.z0 - max(start, self.z0 - 1.0)))


def _row_forms(zs, lower, orders):
    """For each shift ``r``, the rows ``K_r`` acts on and ``K_r`` on those
    rows; the mask of rows with a unit term; and the (pole, power) of each
    unknown of a block, for poles in the orientations ``lower``."""
    z = np.array(zs, dtype=np.complex128)
    # Row and column i: block (alpha, then conj(beta)), pole, power.
    pole = np.tile(np.repeat(np.arange(len(zs)), orders), 2)
    power = np.tile(np.concatenate([np.arange(1, m + 1) for m in orders]), 2)
    is_alpha = np.arange(pole.size) < pole.size // 2
    low = np.array(lower)[pole]
    same = low[:, None] == low[None, :]
    # Rows whose residue form has no unit term (alpha rows of lower poles,
    # conj(beta) rows of upper poles); they couple to equal orientations
    # with sign -1.
    bare = is_alpha == low
    coupled = is_alpha[None, :] == (is_alpha[:, None] != same)
    sign = np.where(same & bare[:, None], 1.0, -1.0)
    point = np.where(is_alpha, z[pole], np.conj(z[pole]))
    inv = 1.0 / np.where(coupled, point[:, None] - point[None, :], 1.0)
    forms = []
    for r in range(max(orders)):
        rows = np.flatnonzero(np.array(orders)[pole] - power >= r)
        binom = np.array([math.comb(j + r - 1, r) for j in power])
        k = np.where(coupled, sign * (-1) ** r * binom * inv ** (power + r), 0.0)
        forms.append((rows, k[rows]))
    half = pole.size // 2
    return forms, np.where(bare, 0.0, 1.0), pole[:half], power[:half]


def _phase_series(z, sign, x, t, n):
    """The first ``n`` Taylor coefficients at ``z`` of
    ``e^{sign 2i (t z^2 + x z)}``."""
    s2i = 2j * sign
    return _exp([s2i * (t * z + x) * z, s2i * (2.0 * t * z + x), s2i * t], n)


def _reorient(data, flip):
    members = [data[i] for i in flip]
    out = []
    for i, d in enumerate(data):
        c = _scaled(d.coefficients, _blaschke_series(d.z, members, d.order))
        out.append(replace(d, coefficients=_inv(c, d.order) if i in flip else c))
    return tuple(out), tuple("upper" if i in flip else "lower" for i in range(len(data)))


def _solve(data, orientations, x: float, t: float):
    """``(q, alpha, beta)`` of the one-point pole system."""
    lower = tuple(o == "lower" for o in orientations)
    orders = tuple(d.order for d in data)
    zs = tuple(complex(d.z) for d in data)
    forms, unit, pole, power = _row_forms(zs, lower, orders)
    top = max(orders)
    coeffs = np.array([(0.0,) * (top - d.order) + d.coefficients for d in data],
                      dtype=np.complex128).T
    phase = _phase_series(np.array(zs), np.where(lower, 1.0, -1.0),
                          np.array([[x]]), t, top)
    series = np.concatenate(_mul(coeffs, phase, top), axis=1)
    g = series[:, (top - power) * len(zs) + pole]
    gamma_ = np.concatenate([g, np.conj(g)], axis=1)
    matrix = gamma_[:, :, None] * forms[0][1]
    for r, (rows, k) in enumerate(forms[1:], 1):
        matrix[:, rows] += gamma_[:, rows + r, None] * k
    matrix += np.eye(gamma_.shape[1])
    u = np.linalg.solve(matrix[0], (gamma_ * unit)[0])
    half = u.size // 2
    ends = np.cumsum(orders)
    alpha = [u[e - m:e] for m, e in zip(orders, ends)]
    beta = [np.conj(u[half + e - m:half + e]) for m, e in zip(orders, ends)]
    q = 2j * sum(a[0] if o == "upper" else -np.conj(b[0])
                 for a, b, o in zip(alpha, beta, orientations))
    return complex(q), alpha, beta


def _outer_row(data, orientations, alpha, beta, z: float):
    def principal(c, inv):
        return sum(cj * inv ** (j + 1) for j, cj in enumerate(c))

    row = np.array([1.0, 0.0], dtype=np.complex128)
    for d, o, a, b in zip(data, orientations, alpha, beta):
        near, far, s = (0, 1, 1.0) if o == "lower" else (1, 0, -1.0)
        row[near] += principal(a, 1.0 / (z - d.z))
        row[far] -= s * principal(np.conj(b), 1.0 / (z - np.conj(d.z)))
    return row


def q_pointwise(x: float, t: float, sigma_d, scattering, cone):
    """``(q_sol, f, q_total)`` of the cone formula at one point."""
    z0 = -x / (2.0 * t)
    lo, hi = -cone[3] / 2.0, -cone[2] / 2.0
    minus = [k for k, d in enumerate(sigma_d) if d.z.real < z0]
    data = tuple(sigma_d)
    r = np.asarray(scattering.r)
    # the library's rule: a record with no nonzero reflection sample is
    # reflectionless, and no ray is built for it
    ray, r_at = None, 0j
    if np.any(r != 0):
        ray = Ray(scattering, z0)
        r_at = complex(np.interp(z0, ray.grid, r.real), np.interp(z0, ray.grid, r.imag))
        data = tuple(replace(d, coefficients=_scaled(
            d.coefficients, ray.inverse_delta(d.z, d.order))) for d in data)
    # the poles the window leaves out on its left dress the kept ones by
    # their Blaschke product, as they would the column scaling by 1 / T
    left_out = [d for d in sigma_d if d.z.real < lo]
    kept = [replace(d, coefficients=_scaled(
        d.coefficients, _blaschke_series(d.z, left_out, d.order)))
        for d in data if lo <= d.z.real <= hi]
    oriented, orientations = _reorient(
        kept, [i for i, d in enumerate(kept) if d.z.real < z0])
    q_sol, alpha, beta = (_solve(oriented, orientations, x, t) if kept
                          else (0j, [], []))
    f = 0j
    if abs(r_at) >= R_THRESHOLD:
        nu0 = nu_of(abs(r_at))
        blaschke = 1.0 + 0j
        for k in minus:
            d = sigma_d[k]
            blaschke *= ((z0 - d.z) / (z0 - np.conj(d.z))) ** d.order
        T0 = cmath.exp(1j * ray.offset_integral()) / blaschke
        rot = 2.0 * (nu0 * math.log(2.0 * math.sqrt(t)) - t * z0 ** 2)
        r0 = r_at * T0 ** (-2) * cmath.exp(1j * rot)
        beta12 = (math.sqrt(2.0 * math.pi) * cmath.exp(0.25j * math.pi)
                  * math.exp(-0.5 * math.pi * nu0) / (r0 * complex(gamma(-1j * nu0))))
        eta11, eta12 = _outer_row(oriented, orientations, alpha, beta, z0)
        f = beta12 * eta11 ** 2 + nu0 / beta12 * eta12 ** 2
    return q_sol, f, q_sol + f / math.sqrt(t)
