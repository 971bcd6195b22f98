"""Exact multi-soliton fields of the focusing NLS from discrete spectral data.

A pole of order ``m`` at ``z_k`` in the upper half plane carries as its
constants the principal part of a Laurent series at ``z_k``: the
coefficients ``(c_{m-1}, ..., c_0)`` of ``(z - z_k)^{-m}, ..., (z - z_k)^{-1}``
(:attr:`DiscreteDatum.coefficients`).  Every change of these constants is
the principal part of a product or a reciprocal of short Taylor series:
the phase ``e^{2i(tz^2 + xz)}``, a move to column 2 and the radiation
factor ``delta`` alike.  The piecewise-rational solution matrix is reconstructed
from a linear system over the Laurent coefficients of its pole expansion,
``m`` unknowns per pole in each of two blocks; the field is read off the
``1/z`` moment,

    q(x, t) = 2i * lim_{z->inf} z * m_12(z).

By the symmetry ``m(z) = sigma2 conj(m(conj z)) sigma2`` the residue
conditions pair up, and a pole is known by the point ``p_k`` of its
column-1 conditions: ``z_k``, or ``conj z_k`` once it is moved to column 2.
Moving a subset ``Delta`` of the spectrum is the column scaling
``m -> m * a_Delta(z)^{sigma3}`` with ``a_Delta`` the Blaschke product over
``Delta``, each factor raised to its pole's order;
:func:`reorient_constants` maps the poles accordingly, and the
reconstructed field is invariant under the change.
:func:`blaschke_product` forms every product over a masked subset of poles.

One system serves every pole at either point (:func:`pole_system`), and its
x dependence is a row scaling, so a whole slice of x is solved as one stack
of LU solves.  The constants may differ from point to point
(:attr:`OrientedData.c`): the cone formula keeps the plain data of its
window and dresses only those constants by the radiation at each
stationary point.  :func:`solve_soliton` is the one solve: the plain
system's entries grow like ``exp(2 Im z_k |x|)`` on the far side of a pole,
so at each point it first solves the system with the poles where ``x + 2t
Re z_k < 0`` moved.  Where that solve's 1-norm condition is at most
``1e2`` it is kept alone; elsewhere the plain system is solved too and the
better conditioned of the two kept.  It reports the condition number and
the scaled backward residual of the solve it kept.  The moved poles are a
cut in ``Re z`` order about the stationary point ``-x / (2t)``, the split
of the steepest descent's factor T, and the first row of the solution
matrix it returns is in that cut system's normalization whichever system
was kept: at the cone's stationary point it is T's.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "DiscreteDatum",
    "OrientedData",
    "SolitonState",
    "pole_system",
    "solve_soliton",
    "soliton_field",
    "blaschke_product",
    "reorient_constants",
    "modulate_constants",
    "restrict_to_interval",
]

_COINCIDENCE_TOL = 1e-12
_COND_WARN = 1e12
# A cut system solved with at most this 1-norm condition keeps its point
# alone: its relative error is then at most about 1e2 eps, and the plain
# system is not solved there.
_COND_CERTIFIED = 1e2
# Entries of a stacked solve's largest array, its (P, 2D, 2D) matrices:
# 16384 complex entries, 256 KiB, are 83 points at dimension 14, enough
# that numpy's per-call overhead is spread thin.  The ``fnls`` command
# holds glibc's mmap threshold at 32 MiB, so each chunk's arrays are
# reused from the heap; a library caller's glibc raises its threshold past
# that size after it frees the first mapped block.  The solve takes one
# matrix at a time, so results do not depend on the chunking.
_CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class DiscreteDatum:
    """One point of the discrete spectrum with its reconstruction constants.

    ``coefficients`` is the principal part ``(c_{m-1}, ..., c_0)``, the
    coefficients of ``(z' - z)^{-m}, ..., (z' - z)^{-1}`` with ``c_{m-1} !=
    0``; its length is the order m.  A pole found by forward scattering
    carries only these: its connection coefficients enter through them.
    """

    z: complex
    coefficients: tuple

    def __post_init__(self) -> None:
        c = tuple(complex(v) for v in self.coefficients)
        object.__setattr__(self, "coefficients", c)
        for name, v in [("z", self.z), *((f"c{j}", v) for j, v in enumerate(c[::-1]))]:
            if not cmath.isfinite(v):
                raise ValueError(f"pole {name} must be finite, got {v!r}")
        if self.z.imag <= 0:
            raise ValueError("discrete spectrum must lie in the upper half plane")
        if not c:
            raise ValueError("a pole needs at least one coefficient")
        if c[0] == 0:
            raise ValueError(f"the leading coefficient c{len(c) - 1} of an "
                             f"order-{len(c)} pole must be nonzero")

    @property
    def order(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True, eq=False)
class OrientedData:
    """Spectrum plus each pole's point ``p_k``: ``z_k`` when not given, or
    ``conj z_k`` for a pole moved to column 2 (:func:`reorient_constants`).

    ``c`` holds the constants of a stack of points: shape ``(P, N, m)``,
    each pole's principal part padded with leading zeros to the largest
    order ``m`` (see :attr:`DiscreteDatum.coefficients`).  When it is not
    given it is built once from the data's own constants, with ``P = 1``;
    when it is, the data carry only the positions and orders.  Stacks
    compare and hash by identity.
    """

    data: tuple[DiscreteDatum, ...]
    points: tuple[complex, ...] | None = None
    c: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        points = self.points if self.points is not None else (d.z for d in self.data)
        object.__setattr__(self, "points", tuple(complex(p) for p in points))
        if len(self.points) != len(self.data):
            raise ValueError("one point per datum required")
        if self.c is None:
            top = max((d.order for d in self.data), default=0)
            c = np.zeros((1, len(self.data), top), dtype=np.complex128)
            for k, d in enumerate(self.data):
                c[0, k, top - d.order:] = d.coefficients
            object.__setattr__(self, "c", c)

    def series(self, k: int) -> list:
        """Pole ``k``'s principal part as a list of ``(P,)`` arrays."""
        m = self.c.shape[2]
        return [self.c[:, k, j] for j in range(m - self.data[k].order, m)]

    def with_series(self, series, points) -> "OrientedData":
        """The same poles with the principal parts ``series`` (one list per
        pole, as :meth:`series` gives) at the given points."""
        top = max((d.order for d in self.data), default=0)
        size = np.broadcast_shapes((1,), *(np.shape(v) for s in series for v in s))
        c = np.zeros(size + (len(self.data), top), dtype=np.complex128)
        for k, s in enumerate(series):
            for j, v in enumerate(s, top - len(s)):
                c[:, k, j] = v
        return OrientedData(self.data, points, c)

    def rows(self, at) -> "OrientedData":
        """The points ``at`` of a stack; shared constants stay shared."""
        if self.c.shape[0] == 1:
            return self
        return replace(self, c=self.c[at])


@dataclass
class SolitonState:
    """The field ``q`` at points ``(x, t)``, with the 1-norm condition
    number and the scaled backward residual of the solve kept at each
    point, and, when a point ``z`` was asked for, the first row
    ``(m_11, m_12)`` of the solution matrix there in the normalization of
    the system with the poles ``x + 2t Re z_k < 0`` moved (else
    ``None``).  Scalars at one point, ``row`` of shape
    ``(2,)``; over points, arrays of their broadcast shape, ``row`` with a
    last axis of 2."""

    q: complex | np.ndarray
    condition: float | np.ndarray
    residual: float | np.ndarray
    row: np.ndarray | None


# ---------------------------------------------------------------------------
# Truncated Taylor series: lists of coefficients, each a scalar or an array
# ---------------------------------------------------------------------------

def _mul(a, b, n: int) -> list:
    """The first ``n`` Taylor coefficients of the product of ``a`` and ``b``."""
    out = [0.0] * n
    for i, ai in enumerate(a[:n]):
        for j, bj in enumerate(b[:n - i]):
            out[i + j] = out[i + j] + ai * bj
    return out


def _inv(a, n: int) -> list:
    """The first ``n`` Taylor coefficients of ``1 / a`` (``a[0] != 0``)."""
    out = [1.0 / a[0]]
    for i in range(1, n):
        acc = 0.0
        for j in range(1, min(i + 1, len(a))):
            acc = acc + a[j] * out[i - j]
        out.append(-acc * out[0])
    return out


def _exp(a, n: int) -> list:
    """The first ``n`` Taylor coefficients of ``e^a``: ``k e_k = sum j a_j e_{k-j}``."""
    out = [np.exp(a[0])]
    for k in range(1, n):
        out.append(sum(j * a[j] * out[k - j] for j in range(1, min(k + 1, len(a)))) / k)
    return out


def _scaled(c, f) -> list:
    """``pp[c f^2]``: the principal part ``c`` under the column scaling by
    ``f``, given by its Taylor coefficients at the pole."""
    return _mul(c, _mul(f, f, len(c)), len(c))


def _phase_series(z, x, t: float, n: int) -> list:
    """The first ``n`` Taylor coefficients at ``z`` of ``e^{2i (t z^2 +
    x z)}``; ``z`` and ``x`` broadcast."""
    return _exp([2j * (t * z + x) * z, 2j * (2.0 * t * z + x), 2j * t], n)


def _as_oriented(data) -> OrientedData:
    return data if isinstance(data, OrientedData) else OrientedData(tuple(data))


@functools.lru_cache(maxsize=256)
def _row_forms(points: tuple, orders: tuple):
    """The x-independent parts of :func:`pole_system`: for each shift
    ``r``, the alpha rows ``K_r`` acts on and, on those rows, the block of
    ``K_r`` in the conj(beta) columns; and the (pole, power) of each
    unknown of a block."""
    n = len(points)
    p = np.array(points, dtype=np.complex128)
    # two poles at one z_k coincide whichever column each sits in
    z = p.real + 1j * np.abs(p.imag)
    gap = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(n, np.inf))
    if n > 1 and gap.min() < _COINCIDENCE_TOL:
        i, j = np.unravel_index(np.argmin(gap), gap.shape)
        raise ValueError(f"coincident spectral points {z[i]} and {z[j]}")

    # Row i of the alpha block and column i of the conj(beta) block: pole, power.
    pole = np.repeat(np.arange(n), orders)
    power = np.concatenate([np.arange(1, m + 1) for m in orders])
    inv = 1.0 / (p[pole][:, None] - np.conj(p[pole])[None, :])
    # Taylor coefficient r at the row's point of the column's (z - p)^{-j}.
    headroom = np.array(orders)[pole] - power
    forms = []
    for r in range(max(orders)):
        rows = np.flatnonzero(headroom >= r)
        binom = np.array([math.comb(j + r - 1, r) for j in power])
        k = ((-1) ** r * binom * inv ** (power + r))[rows]
        for a in (rows, k):
            a.flags.writeable = False
        forms.append((rows, k))
    for a in (pole, power):
        a.flags.writeable = False
    return tuple(forms), pole, power


def pole_system(data, x_values, t):
    """The pole system at every ``x``: matrices ``(P, 2D, 2D)``, rhs
    ``(P, 2D)`` with ``D`` the sum of the pole orders.

    ``data`` is an :class:`OrientedData` or a sequence of
    :class:`DiscreteDatum`, each pole at its own ``z_k``.  Its constants
    ``c`` have shape ``(P, N, m)``, or ``(1, N, m)`` to share one set (see
    :attr:`OrientedData.c`); ``t`` is a scalar or one time per ``x``.

    The unknowns are the blocks ``alpha`` and ``conj(beta)``, each holding
    the Laurent coefficients of ``(z - p_k)^{-1}, ..., (z - p_k)^{-m_k}``
    pole by pole, with ``p_k`` the pole's point.  Rows come in the same
    layout: the alpha rows write the principal part at ``p_k`` of the
    residue conditions of column 1, the conj(beta) rows their conjugates at
    ``conj(p_k)``; each row couples to the other block.  Alpha row ``(k,
    j)`` is linear in the coefficients ``g_{k, j+r}`` of ``Gamma_k = pp[c_k
    e^{2i(tz^2 + xz)}]`` at ``p_k``, so

        M(x) = [[I, A], [-conj(A), I]],   A = sum_r G_r(x) K_r,
        rhs = (0, conj(g_{k, j})),

    with ``G_r`` the row scaling by ``g_{k, j+r}`` (zero past the pole's
    order) and ``K_r[i, l] = (-1)^r C(n+r-1, r) (p_i - conj p_l)^{-n-r}``,
    ``n`` the column's power.  ``A`` is built once and written in both
    off-diagonal blocks.
    """
    oriented = _as_oriented(data)
    orders = tuple(d.order for d in oriented.data)
    forms, pole, power = _row_forms(oriented.points, orders)
    x = np.asarray(x_values, dtype=float).reshape(-1, 1)
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    # Leading zeros leave a principal part as it is, so every pole's
    # Gamma is one series of length max(orders), a column per pole.
    c = oriented.c
    top = c.shape[2]
    phase = _phase_series(np.array(oriented.points), x, t, top)
    series = np.concatenate(_mul([c[:, :, j] for j in range(top)], phase, top), axis=1)
    # g[:, i] for unknown i = (k, j) is the coefficient of (z - p_k)^{-j}
    g = series[:, (top - power) * len(orders) + pole]
    a = g[:, :, None] * forms[0][1]
    for r, (rows, k) in enumerate(forms[1:], 1):
        a[:, rows] += g[:, rows + r, None] * k
    size, half = g.shape
    matrix = np.empty((size, 2 * half, 2 * half), dtype=np.complex128)
    matrix[:] = np.eye(2 * half)
    matrix[:, :half, half:] = a
    matrix[:, half:, :half] = -np.conj(a)
    return matrix, np.concatenate([np.zeros_like(g), np.conj(g)], axis=1)


def _solve_stack(matrix: np.ndarray, rhs: np.ndarray):
    """LU-solve a stack of systems: ``(u, condition, residual)`` per system.

    Each matrix must have the block form ``[[I, A], [-conj(A), I]]`` of
    :func:`pole_system`.  Its inverse has the form ``[[P, Q], [-conj(Q),
    conj(P)]]``, so inverse column ``D + j`` is column ``j`` rearranged and
    conjugated, and the 1-norm condition ``(1 + max_j |A e_j|_1) max_{j <=
    D} |M^{-1} e_j|_1`` needs only the first ``D`` columns from the same
    factorisation.  The residual is ``|M u - rhs| / (|M| |u| + |rhs|)`` in
    max norms.  Exactly singular matrices give ``u = nan`` and condition
    ``inf``.
    """
    dim = matrix.shape[-1]
    half = dim // 2
    eye = np.eye(dim)
    cols = np.concatenate(
        [rhs[:, :, None], np.broadcast_to(eye[:, :half], rhs.shape + (half,))], axis=2)
    try:
        sol = np.linalg.solve(matrix, cols)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(matrix)[0] == 0
        sol = np.linalg.solve(np.where(singular[:, None, None], eye, matrix), cols)
        sol[singular] = np.nan
    u = sol[:, :, 0]
    size = np.abs(matrix[:, :half, half:])
    cond = ((1.0 + size.sum(axis=1).max(axis=1))
            * np.abs(sol[:, :, 1:]).sum(axis=1).max(axis=1))
    cond[~np.isfinite(cond)] = np.inf
    num = np.abs(np.matmul(matrix, u[:, :, None])[:, :, 0] - rhs).max(axis=1)
    den = (np.maximum(1.0, size.max(axis=(1, 2))) * np.abs(u).max(axis=1)
           + np.abs(rhs).max(axis=1) + 1e-300)
    return u, cond, num / den


def _solve_points(oriented: OrientedData, x: np.ndarray, t):
    """Solve the pole system of ``oriented`` at every ``x`` (with ``t`` a
    scalar or one time per point), a bounded chunk of points per stacked
    solve: ``(u, condition, residual)``.  Overflowing exponentials far from
    the poles leave a non-finite solve, reported as condition ``inf`` like
    a singular matrix."""
    dim = 2 * sum(d.order for d in oriented.data)
    u = np.empty((x.size, dim), dtype=np.complex128)
    cond = np.empty(x.size)
    residual = np.empty(x.size)
    step = max(1, _CHUNK_ENTRIES // dim ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, x.size, step):
            part = slice(lo, lo + step)
            u[part], cond[part], residual[part] = _solve_stack(*pole_system(
                oriented.rows(part), x[part], t if np.ndim(t) == 0 else t[part]))
    return u, cond, residual


def _per_pole(oriented: OrientedData, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Split one block of unknowns into each pole's powers ``1, ..., m_k``."""
    ends = itertools.accumulate(d.order for d in oriented.data)
    return tuple(v[..., e - d.order:e] for d, e in zip(oriented.data, ends))


def _moment(oriented: OrientedData, u: np.ndarray) -> np.ndarray:
    """``q = 2i * (1/z moment of m_12) = -2i sum_k conj(beta_{k,1})``."""
    return -2j * sum(b[:, 0] for b in _per_pole(oriented, u[:, u.shape[1] // 2:]))


def _check_solved(cond: np.ndarray, x: np.ndarray, t) -> None:
    if np.isinf(cond).any():
        at = np.argmax(np.isinf(cond))
        bad_t = float(t if np.ndim(t) == 0 else t[at])
        raise np.linalg.LinAlgError(
            f"pole system is singular or overflows at x = {float(x[at]):g}, t = {bad_t:g}")
    worst = float(cond.max(initial=1.0))
    if worst > _COND_WARN:
        warnings.warn(f"pole system condition number {worst:.2e}", RuntimeWarning)


def _principal(coeffs, inv) -> np.ndarray:
    """``sum_j coeffs[..., j - 1] inv^j`` by Horner's rule."""
    out = coeffs[..., -1] * inv
    for j in range(coeffs.shape[-1] - 2, -1, -1):
        out = (out + coeffs[..., j]) * inv
    return out


def _first_row(oriented: OrientedData, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """First row ``(m_11, m_12)`` of the solution matrix at one ``z`` per
    point: shape ``(P, 2)``.  Pole ``k`` adds its alpha terms at ``p_k`` to
    column 1 and its conj(beta) terms at ``conj(p_k)`` to column 2."""
    half = u.shape[1] // 2
    row = np.zeros((u.shape[0], 2), dtype=np.complex128)
    row[:, 0] = 1.0
    for p, a, conj_b in zip(oriented.points, _per_pole(oriented, u[:, :half]),
                            _per_pole(oriented, u[:, half:])):
        row[:, 0] += _principal(a, 1.0 / (z - p))
        row[:, 1] -= _principal(conj_b, 1.0 / (z - np.conj(p)))
    return row


def solve_soliton(data, x, t, z=None) -> SolitonState:
    """Solve the pole system at the points ``(x, t)`` and reconstruct the
    field there.

    ``data`` is a sequence of :class:`DiscreteDatum` or an
    :class:`OrientedData` with no pole moved, whose per-point constants
    (:attr:`OrientedData.c`) follow the points.  ``x``, ``t`` and ``z``
    broadcast, and the points are solved as stacks.  A point has two
    equivalent systems: the plain one, and the cut system with the poles
    where ``x + 2t Re z_k < 0`` moved by :func:`reorient_constants`, whose
    entries decay where the plain ones grow.  The test is monotone in
    ``Re z_k``, so the moved poles are a cut in that order: those left of
    ``-x / (2t)`` for ``t > 0``, right of it for ``t < 0``, all or none at
    ``t = 0``.  The points are grouped by the set of poles they move, and
    each nonempty set costs one :func:`reorient_constants` call and one
    stacked solve at its points.  A cut solve whose 1-norm condition is at
    most ``1e2`` is kept alone.  The plain system is then solved in one
    stack at every other point, those that move no pole included, and kept
    where its condition is no larger than the cut system's.

    ``z`` asks for the first row of the solution matrix at one point per
    point, in the cut system's normalization ``m_Delta``: a point solved
    in the cut system keeps its row, and a plain one is moved by
    ``m_Delta = m a_Delta^{sigma3}``, ``a_Delta`` the Blaschke product of
    the moved poles (exactly 1 where none moves).
    """
    oriented = _as_oriented(data)
    if any(p.imag < 0 for p in oriented.points):
        raise ValueError("solve_soliton takes data with no pole moved and "
                         "moves the poles itself")
    x, t, at_z = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float),
                                     np.asarray(0.0 if z is None else z, dtype=np.complex128))
    shape = x.shape
    x, t = x.ravel(), t.ravel()
    z = None if z is None else at_z.ravel()
    if oriented.data:
        re_z = np.array([d.z.real for d in oriented.data])
        flips = x[:, None] + 2.0 * t[:, None] * re_z[None, :] < 0
        # the points grouped by the set of poles they move, each row read as
        # one string of bytes: np.unique over rows (axis=0) sorts 10x slower
        sets, group = np.unique(flips.view(np.dtype((np.void, re_z.size)))[:, 0],
                                return_inverse=True)
        sets = sets.view(bool).reshape(-1, re_z.size)
        q = np.empty(x.size, dtype=np.complex128)
        cond, residual = np.full(x.size, np.inf), np.empty(x.size)
        row = None if z is None else np.empty((x.size, 2), dtype=np.complex128)

        def keep(system, at, u, cond_at, residual_at):
            q[at], cond[at], residual[at] = _moment(system, u), cond_at, residual_at
            if row is not None:
                row[at] = _first_row(system, u, z[at])

        for g in np.flatnonzero(sets.any(axis=1)):
            at = np.flatnonzero(group == g)
            flipped = reorient_constants(oriented.rows(at), np.flatnonzero(sets[g]))
            keep(flipped, at, *_solve_points(flipped, x[at], t[at]))
        # the plain system where no cut solve is certified, or no pole moves
        at = np.flatnonzero(cond > _COND_CERTIFIED)
        u, cond_p, res_p = _solve_points(oriented.rows(at), x[at], t[at])
        better = cond_p <= cond[at]
        at = at[better]
        keep(oriented, at, u[better], cond_p[better], res_p[better])
        if row is not None:
            a = blaschke_product(z[at], oriented.data, flips[at])
            row[at] *= np.stack([a, 1.0 / a], axis=-1)
        _check_solved(cond, x, t)
    else:
        q = np.zeros(x.size, dtype=np.complex128)
        cond, residual = np.ones(x.size), np.zeros(x.size)
        row = None if z is None else np.tile([1.0 + 0j, 0j], (x.size, 1))
    if not shape:
        return SolitonState(complex(q[0]), float(cond[0]), float(residual[0]),
                            None if row is None else row[0])
    return SolitonState(q.reshape(shape), cond.reshape(shape), residual.reshape(shape),
                        None if row is None else row.reshape(shape + (2,)))


def soliton_field(data, x_values, t: float | np.ndarray) -> np.ndarray:
    """``q(x, t)`` over an array of ``x``, with ``t`` a scalar or one time
    per ``x``; see :func:`solve_soliton`."""
    return solve_soliton(data, np.ravel(x_values), t).q


# ---------------------------------------------------------------------------
# Moving poles to column 2 (column scaling by a Blaschke product)
# ---------------------------------------------------------------------------

def blaschke_product(z, data, members) -> np.ndarray:
    """``prod_k ((z - z_k)/(z - conj z_k))^order`` over the poles of
    ``data`` flagged in the boolean mask ``members``: one flag per pole, or
    one row of flags per point of ``z``.  A pole left out multiplies by
    exactly 1."""
    z = np.asarray(z, dtype=np.complex128)
    members = np.asarray(members)
    if members.size and members.dtype != bool:
        raise TypeError(f"members must be a boolean mask, got dtype {members.dtype}")
    members = np.broadcast_to(members, z.shape + (len(data),))
    out = np.ones_like(z)
    for k, d in enumerate(data):
        out = out * np.where(members[..., k], ((z - d.z) / (z - np.conj(d.z))) ** d.order, 1.0)
    return out


def _blaschke_series(z: complex, members, n: int) -> list:
    """The first ``n`` Taylor coefficients at ``z`` of the Blaschke product
    over ``members``, divided by ``(z' - z)^m`` when ``z`` is a member of
    order ``m``.  The factors are expanded one by one, so the zero at a
    member costs no cancellation."""
    z = complex(z)
    out = [1.0]
    for d in members:
        zl = complex(d.z)
        q = z - zl.conjugate()
        # the series of 1 / (z' - conj z_l) and, off the member, of
        # (z' - z_l) / (z' - conj z_l) = 1 + (conj z_l - z_l) / (z' - conj z_l)
        factor = [(-1) ** k / q ** (k + 1) for k in range(n)]
        if zl != z:
            factor = [(z - zl) / q] + [(zl.conjugate() - zl) * f for f in factor[1:]]
        for _ in range(d.order):
            out = _mul(out, factor, n)
    return out


def reorient_constants(data, delta_indices) -> OrientedData:
    """Move the poles listed in ``delta_indices`` to column 2.

    ``data`` is a sequence of :class:`DiscreteDatum` or an
    :class:`OrientedData` stack with no pole moved, and every point of the
    stack is mapped.  The column scaling by the Blaschke product ``a`` over
    the moved subset maps the principal part ``c`` of every pole:
    ``c -> pp[c a^2]`` for the poles that stay.  A moved pole's column-2
    constants at ``z_k`` are ``pp[1 / (c g^2)]`` with ``g = a / (z -
    z_k)^m``; by the symmetry it is the pole at ``p_k = conj z_k`` with the
    constants ``-conj(pp[1 / (c g^2)])``.
    """
    oriented = _as_oriented(data)
    if any(p.imag < 0 for p in oriented.points):
        raise ValueError("reorient_constants starts from data with no pole moved")
    flip = sorted(set(int(i) for i in delta_indices))
    members = [oriented.data[i] for i in flip]
    series = []
    for k, d in enumerate(oriented.data):
        c = _scaled(oriented.series(k), _blaschke_series(d.z, members, d.order))
        series.append([-np.conj(v) for v in _inv(c, d.order)] if k in flip else c)
    return oriented.with_series(series, (p.conjugate() if k in flip else p
                                         for k, p in enumerate(oriented.points)))


def modulate_constants(data, inverse_delta) -> OrientedData:
    """Dress every pole's constants by the radiation factor ``delta``.

    ``data`` is a sequence of :class:`DiscreteDatum`.
    ``inverse_delta(z, n)`` returns the first ``n`` Taylor coefficients of
    ``f = 1 / delta`` at a point ``z`` of the upper half plane, one value
    per point of a stack (supplied by :mod:`fnls.phase`), and the
    constants change as under the column scaling by ``f``:
    ``c -> pp[c f^2]``, in a stack of one set per point.
    """
    oriented = OrientedData(tuple(data))
    series = [_scaled(oriented.series(k), inverse_delta(d.z, d.order))
              for k, d in enumerate(oriented.data)]
    return oriented.with_series(series, oriented.points)


def restrict_to_interval(data, interval: tuple[float, float]) -> tuple[DiscreteDatum, ...]:
    """The poles of ``data`` whose ``Re z_k`` lies in the closed interval."""
    lo, hi = interval
    return tuple(d for d in data if lo <= d.z.real <= hi)
