"""Exact multi-soliton fields of the focusing NLS from discrete spectral data.

A double (order-2) pole of the transmission problem at ``z_k`` in the upper
half plane carries two complex constants ``(c0, c1)``.  The piecewise-rational
solution matrix is reconstructed from a dense 4N x 4N linear system over the
Laurent coefficients of its pole expansion; the field is read off the ``1/z``
moment,

    q(x, t) = 2i * lim_{z->inf} z * m_12(z).

Order-1 (simple pole) data embeds as the degenerate case ``c1 = 0``.

Two orientations are supported per pole: "lower" poles put the singular
columns on the left (the natural normalization), "upper" poles on the right.
Re-orienting a subset ``Delta`` of the spectrum is the column scaling
``m -> m * a_Delta(z)^{sigma3}`` with ``a_Delta`` the squared Blaschke product
over ``Delta``; :func:`reorient_constants` maps the pole constants
accordingly, and the reconstructed field is invariant under the change.

One system serves every mix of orientations (:func:`pole_system`), and its
x dependence is a row scaling, so a whole slice of x is solved as one stack
of LU solves.  Each point reports the 1-norm condition number and the scaled
backward residual of its solve.  All-lower entries grow like
``exp(2 Im z_k |x|)`` on the far side of a pole; :func:`solve_field` keeps,
at each x, the better conditioned of the all-lower system and the one with
the poles where ``x + 2t Re z_k < 0`` flipped.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DiscreteDatum",
    "OrientedData",
    "SolitonState",
    "FieldSolution",
    "pole_coefficients",
    "pole_system",
    "solve_soliton",
    "solve_field",
    "soliton_field",
    "evaluate_matrix",
    "outer_matrix_row",
    "mass_from_spectrum",
    "blaschke_product",
    "blaschke_derivatives_at_member",
    "reorient_constants",
    "modulate_constants",
    "restrict_to_interval",
]

_COINCIDENCE_TOL = 1e-12
_COND_WARN = 1e12
# Matrix entries per stacked solve, which bounds its memory.
_CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class DiscreteDatum:
    """One point of the discrete spectrum with its reconstruction constants.

    ``c0`` and ``c1`` are the t-independent parts; the time/space dependent
    factors are assembled by :func:`pole_coefficients` at evaluation time.
    ``b`` and ``d`` optionally keep the raw connection coefficients recovered
    by forward scattering (they are not needed to reconstruct the field).
    """

    z: complex
    order: int = 2
    c0: complex = 0.0
    c1: complex = 1.0
    b: complex | None = None
    d: complex | None = None

    def __post_init__(self) -> None:
        if self.order not in (1, 2):
            raise ValueError("pole order must be 1 or 2")
        if self.z.imag <= 0:
            raise ValueError("discrete spectrum must lie in the upper half plane")
        if self.order == 1 and self.c1 != 0:
            raise ValueError("order-1 data must carry c1 = 0")
        if self.order == 2 and self.c1 == 0:
            raise ValueError("order-2 data needs c1 != 0")


@dataclass(frozen=True)
class OrientedData:
    """Spectrum plus a per-pole column orientation ("lower" or "upper")."""

    data: tuple[DiscreteDatum, ...]
    orientations: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.data) != len(self.orientations):
            raise ValueError("one orientation per datum required")
        for o in self.orientations:
            if o not in ("lower", "upper"):
                raise ValueError(f"unknown orientation {o!r}")

    @staticmethod
    def all_lower(data) -> "OrientedData":
        data = tuple(data)
        return OrientedData(data, ("lower",) * len(data))


@dataclass
class SolitonState:
    """Solved Laurent coefficients of the solution matrix at one ``(x, t)``."""

    oriented: OrientedData
    x: float
    t: float
    alpha1: np.ndarray
    alpha2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    q: complex
    residual: float
    condition: float
    ill_conditioned: bool
    m_out_row: np.ndarray | None = None


@dataclass
class FieldSolution:
    """``q`` over an array of ``x``, with the 1-norm condition number and
    the scaled backward residual of the solve kept at each point."""

    q: np.ndarray
    condition: np.ndarray
    residual: np.ndarray


def _gammas(z, c0, c1, sign, x, t: float):
    """``(gamma0, gamma1)`` of poles ``z`` (orientation ``sign``: +1 lower,
    -1 upper) at points ``x``; all arguments broadcast."""
    ph = np.exp(sign * (2j * t * z * z + 2j * x * z))
    return (c0 + sign * c1 * (4j * t * z + 2j * x)) * ph, c1 * ph


def pole_coefficients(datum: DiscreteDatum, x, t: float,
                      orientation: str = "lower"):
    """Assemble the (gamma0, gamma1) pair for one pole at ``(x, t)``.

    Lower orientation: ``gamma_i = c_i(x,t) * exp(+2i(t z^2 + x z))`` with the
    linear-in-derivative shift folded into gamma0; upper orientation mirrors
    the exponent and the shift sign.  ``x`` may be an array.
    """
    if orientation not in ("lower", "upper"):
        raise ValueError(f"unknown orientation {orientation!r}")
    sign = 1.0 if orientation == "lower" else -1.0
    return _gammas(datum.z, datum.c0, datum.c1, sign, np.asarray(x, dtype=float), t)


def _as_oriented(data, orientations=None) -> OrientedData:
    if isinstance(data, OrientedData):
        return data
    data = tuple(data)
    if orientations is None:
        return OrientedData.all_lower(data)
    return OrientedData(data, tuple(orientations))


@functools.lru_cache(maxsize=256)
def _row_forms(zs: tuple, lower: tuple):
    """The x-independent parts ``(K0, K1, e)`` of :func:`pole_system`."""
    n = len(zs)
    z = np.array(zs, dtype=np.complex128)
    gap = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(n, np.inf))
    if n > 1 and gap.min() < _COINCIDENCE_TOL:
        i, j = np.unravel_index(np.argmin(gap), gap.shape)
        raise ValueError(f"coincident spectral points {z[i]} and {z[j]}")
    lower = np.array(lower)

    # Row and column r = block * n + pole; blocks 0-3 are alpha1, alpha2,
    # conj(beta1), conj(beta2).
    block, pole = np.divmod(np.arange(4 * n), n)
    is_alpha = block < 2
    first = block % 2 == 0
    same = lower[pole][:, None] == lower[pole][None, :]
    # Rows whose residue form has no unit term (alpha rows of lower poles,
    # conj(beta) rows of upper poles); they couple to equal orientations
    # with sign -1.
    bare = is_alpha == lower[pole]
    coupled = is_alpha[None, :] == (is_alpha[:, None] != same)
    sign = np.where(same & bare[:, None], -1.0, 1.0)
    point = np.where(is_alpha, z[pole], np.conj(z[pole]))
    inv = 1.0 / np.where(coupled, point[:, None] - point[None, :], 1.0)
    k0 = np.where(coupled, -sign * np.where(first, inv, inv * inv), 0.0)
    k1 = np.where(coupled & first[:, None],
                  sign * np.where(first, inv * inv, 2.0 * inv ** 3), 0.0)
    unit = np.where(bare, 0.0, 1.0)
    for a in (k0, k1, unit):
        a.flags.writeable = False
    return k0, k1, unit


def pole_system(data, x_values, t: float):
    """The pole system at every ``x``: matrices ``(P, 4N, 4N)``, rhs ``(P, 4N)``.

    ``data`` is an :class:`OrientedData` or a sequence of
    :class:`DiscreteDatum`, taken as all lower.

    The unknowns are ``(alpha1, alpha2, conj(beta1), conj(beta2))``, each of
    length N, whatever the orientations.  Rows come in the same four blocks:
    the alpha rows write the residue conditions at ``z_k``, the conj(beta)
    rows their conjugates at ``conj(z_k)``.  A row couples to the other
    block of a pole with the same orientation and to its own block of a pole
    with the other one.  Every row is affine in its pole's ``(gamma0,
    gamma1)`` (conjugated on conj(beta) rows), so

        M(x) = I + Gamma0(x) K0 + Gamma1(x) K1,   rhs = Gamma0(x) e,

    with row scalings ``Gamma0, Gamma1`` and ``K0, K1, e`` fixed by ``z`` and
    the orientations.  For all-lower data this is the block matrix
    ``[[I, 0, A, B], [0, I, C, D], [-conj A, -conj B, I, 0],
    [-conj C, -conj D, 0, I]]`` with rhs ``(0, 0, conj g0, conj g1)``.
    """
    oriented = _as_oriented(data)
    lower = tuple(o == "lower" for o in oriented.orientations)
    k0, k1, unit = _row_forms(tuple(complex(d.z) for d in oriented.data), lower)
    z, c0, c1 = (np.array([getattr(d, a) for d in oriented.data], dtype=np.complex128)
                 for a in ("z", "c0", "c1"))
    x = np.asarray(x_values, dtype=float).reshape(-1, 1)
    g0, g1 = _gammas(z, c0, c1, np.where(lower, 1.0, -1.0), x, t)
    gamma0 = np.concatenate([g0, g1, np.conj(g0), np.conj(g1)], axis=1)
    # Gamma1 is gamma0 one block on (g1 on alpha1 rows, conj g1 on
    # conj(beta1) rows); K1 vanishes on the order-2 rows.
    n = len(lower)
    matrix = gamma0[:, :, None] * k0
    matrix[:, :3 * n] += gamma0[:, n:, None] * k1[:3 * n]
    matrix += np.eye(4 * n)
    return matrix, gamma0 * unit


def _solve_stack(matrix: np.ndarray, rhs: np.ndarray):
    """LU-solve a stack of systems: ``(u, condition, residual)`` per system.

    The 1-norm condition uses the inverse from the same factorisation; the
    residual is ``|M u - rhs| / (|M| |u| + |rhs|)`` in max norms.  Exactly
    singular matrices give ``u = nan`` and condition ``inf``.
    """
    dim = matrix.shape[-1]
    eye = np.eye(dim)
    cols = np.concatenate(
        [rhs[:, :, None], np.broadcast_to(eye, matrix.shape)], axis=2)
    try:
        sol = np.linalg.solve(matrix, cols)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(matrix)[0] == 0
        sol = np.linalg.solve(np.where(singular[:, None, None], eye, matrix), cols)
        sol[singular] = np.nan
    u = sol[:, :, 0]
    size = np.abs(matrix)
    cond = size.sum(axis=1).max(axis=1) * np.abs(sol[:, :, 1:]).sum(axis=1).max(axis=1)
    cond[~np.isfinite(cond)] = np.inf
    num = np.abs(np.matmul(matrix, u[:, :, None])[:, :, 0] - rhs).max(axis=1)
    den = (size.max(axis=(1, 2)) * np.abs(u).max(axis=1)
           + np.abs(rhs).max(axis=1) + 1e-300)
    return u, cond, num / den


def _solve_points(oriented: OrientedData, x: np.ndarray, t: float):
    """Solve the pole system of ``oriented`` at every ``x``, a bounded chunk
    of points per stacked solve: ``(u, condition, residual)``.  Overflowing
    exponentials far from the poles leave a non-finite solve, reported as
    condition ``inf`` like a singular matrix."""
    dim = 4 * len(oriented.data)
    u = np.empty((x.size, dim), dtype=np.complex128)
    cond = np.empty(x.size)
    residual = np.empty(x.size)
    step = max(1, _CHUNK_ENTRIES // (dim * (dim + 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, x.size, step):
            part = slice(lo, lo + step)
            u[part], cond[part], residual[part] = _solve_stack(
                *pole_system(oriented, x[part], t))
    return u, cond, residual


def _moment(oriented: OrientedData, u: np.ndarray) -> np.ndarray:
    """``q = 2i * (1/z moment of m_12)``: lower poles contribute
    ``-conj(beta1)``, upper poles ``alpha1``."""
    n = len(oriented.data)
    upper = np.array([o == "upper" for o in oriented.orientations], dtype=float)
    return 2j * (u[:, :n] @ upper - u[:, 2 * n:3 * n] @ (1.0 - upper))


def _check_solved(cond: np.ndarray, x: np.ndarray, t: float) -> None:
    if np.isinf(cond).any():
        bad = float(x[np.argmax(np.isinf(cond))])
        raise np.linalg.LinAlgError(
            f"pole system is singular or overflows at x = {bad:g}, t = {t:g}")
    worst = float(cond.max(initial=1.0))
    if worst > _COND_WARN:
        warnings.warn(f"pole system condition number {worst:.2e}", RuntimeWarning)


def solve_soliton(data, x: float, t: float,
                  orientations=None, z_eval: complex | None = None) -> SolitonState:
    """Solve the pole system at ``(x, t)`` and reconstruct the field value.

    ``data`` may be a sequence of :class:`DiscreteDatum` (all-lower by
    default) or an :class:`OrientedData`; the orientation given is kept.
    ``z_eval`` optionally requests the first row of the solution matrix at
    one point (stored in ``m_out_row``).
    """
    oriented = _as_oriented(data, orientations)
    n = len(oriented.data)
    if n:
        xs = np.array([float(x)])
        u, cond, residual = _solve_points(oriented, xs, t)
        _check_solved(cond, xs, t)
        q = complex(_moment(oriented, u)[0])
        cond, residual = float(cond[0]), float(residual[0])
    else:
        u, q, cond, residual = np.zeros((1, 0), dtype=np.complex128), 0j, 1.0, 0.0
    state = SolitonState(oriented, x, t, u[0, :n], u[0, n:2 * n],
                         np.conj(u[0, 2 * n:3 * n]), np.conj(u[0, 3 * n:]),
                         q=q, residual=residual, condition=cond,
                         ill_conditioned=cond > _COND_WARN)
    if z_eval is not None:
        state.m_out_row = outer_matrix_row(state, z_eval)
    return state


def solve_field(data, x_values, t: float, orientations=None) -> FieldSolution:
    """Solve for ``q(x, t)`` over an array of ``x`` with stacked solves.

    Given orientations (or an :class:`OrientedData`) are kept.  For plain
    data each point takes the better conditioned of two equivalent systems:
    all poles lower, and the poles with ``x + 2t Re z_k < 0`` flipped by
    :func:`reorient_constants`, whose entries decay where the all-lower ones
    grow.  The flipped constants do not depend on ``x``, so each sign
    pattern (at most N + 1 per slice) costs one reorientation.
    """
    x = np.asarray(x_values, dtype=float).ravel()
    oriented = _as_oriented(data, orientations)
    if not oriented.data:
        return FieldSolution(np.zeros(x.size, dtype=np.complex128),
                             np.ones(x.size), np.zeros(x.size))
    u, cond, residual = _solve_points(oriented, x, t)
    q = _moment(oriented, u)
    if not isinstance(data, OrientedData) and orientations is None:
        re_z = np.array([d.z.real for d in oriented.data])
        flips = x[:, None] + 2.0 * t * re_z[None, :] < 0
        patterns, which = np.unique(flips, axis=0, return_inverse=True)
        which = which.ravel()
        for p, pattern in enumerate(patterns):
            if not pattern.any():
                continue
            at = np.flatnonzero(which == p)
            flipped = reorient_constants(oriented.data, np.flatnonzero(pattern))
            u_f, cond_f, res_f = _solve_points(flipped, x[at], t)
            better = cond_f < cond[at]
            at = at[better]
            q[at] = _moment(flipped, u_f[better])
            cond[at] = cond_f[better]
            residual[at] = res_f[better]
    _check_solved(cond, x, t)
    return FieldSolution(q, cond, residual)


def soliton_field(data, x_values, t: float, orientations=None) -> np.ndarray:
    """``q(x, t)`` over an array of ``x``; see :func:`solve_field`."""
    return solve_field(data, x_values, t, orientations).q


def evaluate_matrix(state: SolitonState, z) -> np.ndarray:
    """Closed-form solution matrix at points ``z`` (shape ``z.shape + (2, 2)``)."""
    z = np.asarray(z, dtype=np.complex128)
    m = np.zeros(z.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = 1.0
    for j, o in enumerate(state.oriented.orientations):
        zj = state.oriented.data[j].z
        w1 = 1.0 / (z - zj)
        w2 = w1 * w1
        v1 = 1.0 / (z - np.conj(zj))
        v2 = v1 * v1
        a1, a2 = state.alpha1[j], state.alpha2[j]
        b1, b2 = state.beta1[j], state.beta2[j]
        if o == "lower":
            m[..., 0, 0] += a1 * w1 + a2 * w2
            m[..., 1, 0] += b1 * w1 + b2 * w2
            m[..., 0, 1] += -np.conj(b1) * v1 - np.conj(b2) * v2
            m[..., 1, 1] += np.conj(a1) * v1 + np.conj(a2) * v2
        else:
            m[..., 0, 1] += a1 * w1 + a2 * w2
            m[..., 1, 1] += b1 * w1 + b2 * w2
            m[..., 0, 0] += np.conj(b1) * v1 + np.conj(b2) * v2
            m[..., 1, 0] += -np.conj(a1) * v1 - np.conj(a2) * v2
    return m


def outer_matrix_row(state: SolitonState, z: complex) -> np.ndarray:
    """First row ``(m_11, m_12)`` of the solution matrix at one point."""
    m = evaluate_matrix(state, np.asarray(z, dtype=np.complex128))
    return np.array([m[..., 0, 0], m[..., 0, 1]]).reshape(2)


def mass_from_spectrum(data) -> float:
    """Trace-formula mass: each pole contributes ``4 * order * Im z_k``."""
    return float(sum(4.0 * d.order * d.z.imag for d in data))


# ---------------------------------------------------------------------------
# Orientation changes (column scaling by a squared Blaschke product)
# ---------------------------------------------------------------------------

def blaschke_product(z, members) -> np.ndarray:
    """``prod_k ((z - z_k)/(z - conj z_k))^order`` over the member data."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.ones_like(z)
    for d in members:
        out = out * ((z - d.z) / (z - np.conj(d.z))) ** d.order
    return out


def _log_deriv_sums(z: complex, members, skip: int | None = None):
    """First three derivatives of ``log a_Delta`` at a regular point ``z``."""
    l1 = l2 = l3 = 0.0 + 0.0j
    for i, d in enumerate(members):
        if i == skip:
            continue
        p = d.order
        for c, sgn in ((d.z, 1.0), (np.conj(d.z), -1.0)):
            w = z - c
            l1 += sgn * p / w
            l2 -= sgn * p / w**2
            l3 += sgn * 2.0 * p / w**3
    return l1, l2, l3


def blaschke_value_and_derivs(z: complex, members) -> tuple[complex, complex, complex]:
    """``(a, a', a'')`` of the Blaschke product at a non-member point."""
    a = complex(blaschke_product(np.asarray(z, dtype=np.complex128), members))
    l1, l2, _ = _log_deriv_sums(z, members)
    return a, a * l1, a * (l2 + l1 * l1)


def blaschke_derivatives_at_member(members, k: int) -> tuple[complex, complex]:
    """Leading derivatives of ``a_Delta`` at its own k-th zero.

    For an order-2 member returns ``(a'', a''')``; for order-1, ``(a', a'')``.
    Uses the factored form ``a(z) = (z - z_k)^p g(z)`` with ``g`` evaluated
    exactly, so no cancellation occurs at the zero.
    """
    d = members[k]
    zk = d.z
    p = d.order
    g = (zk - np.conj(zk)) ** (-p)
    for i, other in enumerate(members):
        if i == k:
            continue
        g = g * ((zk - other.z) / (zk - np.conj(other.z))) ** other.order
    # log-derivative of g at z_k
    lg = -p / (zk - np.conj(zk))
    l1, _, _ = _log_deriv_sums(zk, members, skip=k)
    lg += l1
    if p == 2:
        return 2.0 * g, 6.0 * g * lg
    return g, 2.0 * g * lg


def reorient_constants(data, delta_indices) -> OrientedData:
    """Move the poles listed in ``delta_indices`` to the upper orientation.

    The constants of every pole change under the column scaling by the
    squared Blaschke product ``a`` over the flipped subset:

    * member ``k`` of the flipped set (order 2):
      ``c1~ = 4 / (c1 * a''(z_k)^2)``,
      ``c0~ = -c1~ * (c0/c1 + 2 a'''(z_k) / (3 a''(z_k)))``;
      order-1 members: ``c0~ = 1 / (c0 * a'(z_k)^2)``;
    * remaining poles keep the lower orientation with
      ``c1~ = c1 * a(z_k)^2``, ``c0~ = (c0 + 2 c1 a'(z_k)/a(z_k)) * a(z_k)^2``
      (order-1: ``c0~ = c0 * a(z_k)^2``).
    """
    data = tuple(data)
    delta_indices = sorted(set(int(i) for i in delta_indices))
    members = [data[i] for i in delta_indices]
    member_pos = {i: pos for pos, i in enumerate(delta_indices)}

    new_data = []
    orients = []
    for i, d in enumerate(data):
        if i in member_pos:
            if d.order == 2:
                app, appp = blaschke_derivatives_at_member(members, member_pos[i])
                c1t = 4.0 / (d.c1 * app * app)
                c0t = -c1t * (d.c0 / d.c1 + 2.0 * appp / (3.0 * app))
            else:
                ap, _ = blaschke_derivatives_at_member(members, member_pos[i])
                c0t, c1t = 1.0 / (d.c0 * ap * ap), 0.0
            new_data.append(replace(d, c0=complex(c0t), c1=complex(c1t)))
            orients.append("upper")
        else:
            a, ap, _ = blaschke_value_and_derivs(d.z, members)
            if d.order == 2:
                c1t = d.c1 * a * a
                c0t = (d.c0 + 2.0 * d.c1 * ap / a) * a * a
            else:
                c0t, c1t = d.c0 * a * a, 0.0
            new_data.append(replace(d, c0=complex(c0t), c1=complex(c1t)))
            orients.append("lower")
    return OrientedData(tuple(new_data), tuple(orients))


def modulate_constants(data, delta_at) -> tuple[DiscreteDatum, ...]:
    """Weight every pole's constants by ``delta(z_k)^2``.

    ``delta_at`` is a callable returning the scalar radiation factor at a
    point of the upper half plane (supplied by :mod:`fnls.phase`); for
    reflectionless data pass ``lambda z: 1.0``.
    """
    out = []
    for d in data:
        if d.z.imag <= 0:
            raise ValueError("modulation is defined off the real axis only")
        w = complex(delta_at(d.z)) ** 2
        out.append(replace(d, c0=d.c0 * w, c1=d.c1 * w))
    return tuple(out)


def restrict_to_interval(data, interval: tuple[float, float],
                         z0: float) -> OrientedData:
    """Keep the poles whose ``Re z_k`` lies in the closed interval, then give
    those left of ``z0`` the upper orientation (ties stay lower with a
    warning, mirroring the partition convention)."""
    lo, hi = interval
    kept = [d for d in data if lo <= d.z.real <= hi]
    delta = []
    for i, d in enumerate(kept):
        if d.z.real < z0:
            delta.append(i)
        elif d.z.real == z0:
            warnings.warn(f"pole at Re z = z0 = {z0}; keeping lower orientation",
                          RuntimeWarning)
    return reorient_constants(kept, delta)
