"""Forward scattering map for the focusing NLS Lax pair.

Integrates the Jost systems of the Zakharov-Shabat problem as ODEs in x,
forms the scattering entries from Wronskians at a matching point, samples
the reflection coefficient on a real grid, locates zeros of the analytic
entry in the upper half plane by the argument principle, and reads their
orders and the connection constants that feed the pole system of
:mod:`fnls.solitons` from Taylor series on circles about them.

Conventions: the bare wave functions carry e^{±i z x}; the normalized
variables used here tend to the identity columns at the respective
infinity.  All extraction of constants happens at (x, t) = (0, 0) where
the exponential factors drop out.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .solitons import DiscreteDatum, _inv, _mul, soliton_field

__all__ = [
    "InitialProfile",
    "ScatteringData",
    "sech_profile",
    "gaussian_profile",
    "soliton_profile",
    "load_profile",
    "reflection_coefficient",
    "locate_zeros",
    "norming_constants",
    "extract_scattering",
    "save_scattering",
    "load_scattering",
]

# |s11| below this on the real grid counts as a spectral singularity.
_SINGULAR_TOL = 1e-8
# Contour samples per box side, and how often a box may be subdivided.
_SAMPLES_PER_SIDE = 96
_MAX_DEPTH = 8
# Points on a circle about guessed zeros, rounds of circles before the
# guesses must settle, and the largest share of the samples' size that the
# negative frequencies of analytic samples may hold.
_CIRCLE_POINTS = 64
_MAX_ROUNDS = 8
_ALIAS_TOL = 1e-12
# The binomial coefficients C(n, j) (row j, column n, zero for n < j) and
# the lags max(n - j, 0) of the shift of a circle's Taylor series to a new
# centre.
_TERMS = _CIRCLE_POINTS // 2 + 1
_BINOMIAL = np.array([[math.comb(n, j) for n in range(_TERMS)] for j in range(_TERMS)],
                     dtype=float)
_LAG = np.maximum(np.arange(_TERMS) - np.arange(_TERMS)[:, None], 0)
# Largest defect of the Jost-column proportionality at an accepted zero,
# relative to the column sizes.
_RATIO_TOL = 1e-6
# Largest phase step between neighbouring samples of s11 along a closed
# path that a winding count trusts, in radians: comfortably below pi.
_MAX_PHASE_STEP = 1.2
# Zeros are listed by real part rounded to this, far above their placement
# error (about 1e-13) and below the merge radius (about 3e-5), then upwards.
_ORDER_RESOLUTION = 1e-9
# Largest |q| at either end of a profile's grid, relative to its peak.
_TAIL_TOL = 1e-10


@dataclass
class InitialProfile:
    """Complex field samples q0(x) on a uniform grid, optionally with the
    exact generating function attached (used instead of the interpolant when
    available)."""

    x: np.ndarray
    q: np.ndarray
    fn: object = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.q = np.asarray(self.q, dtype=np.complex128)
        if self.x.ndim != 1 or self.x.size < 8:
            raise ValueError("need a 1-d grid with at least 8 points")
        if self.q.shape != self.x.shape:
            raise ValueError("samples and grid differ in length")
        bad = np.flatnonzero(~np.isfinite(self.q))
        if bad.size:
            raise ValueError(
                f"profile samples must be finite: {bad.size} are not, the "
                f"first at x = {self.x[bad[0]]:g}")
        dx = np.diff(self.x)
        if np.any(dx <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.allclose(dx, dx[0], rtol=1e-8, atol=0.0):
            raise ValueError("grid must be uniform")
        peak = float(np.max(np.abs(self.q)))
        if peak > 0.0:
            edge = max(abs(self.q[0]), abs(self.q[-1]))
            if edge > _TAIL_TOL * peak:
                raise ValueError(
                    f"profile tail does not decay: |q| = {edge:.3e} at the "
                    f"boundary exceeds {_TAIL_TOL:.1e} of the peak {peak:.3e}")
        self._spline = None
        self._grading = None

    def _grading_integral(self):
        """Running integral over the grid of ``max(M, floor)^(1/5)``, M the
        sum of ``|q^(k)|`` for k <= 4 by finite differences: the measure in
        which the Jost integrator spaces its steps (cached)."""
        if self._grading is None:
            q, monitor = self.q, np.abs(self.q)
            for _ in range(4):
                q = np.gradient(q, self.x)
                monitor += np.abs(q)
            rho = np.maximum(monitor, _MONITOR_FLOOR) ** 0.2
            self._grading = np.concatenate(
                [[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(self.x))])
        return self._grading

    def evaluate(self, xv):
        """q0 at arbitrary positions (0 outside the grid support): the
        generating function if there is one, else the uniform quintic
        B-spline through the samples (Unser, Aldroubi & Eden, IEEE Trans.
        Signal Process. 41, 1993)."""
        if self.fn is not None:
            return np.asarray(self.fn(xv), dtype=np.complex128)
        if self._spline is None:
            self._spline = _quintic_coefficients(self.q)
        xv = np.asarray(xv, dtype=float)
        out = np.zeros(xv.shape, dtype=np.complex128)
        inside = (xv >= self.x[0]) & (xv <= self.x[-1])
        out[inside] = _quintic_spline(self._spline, self.x, xv[inside])
        return out


# Zero samples padded on each side of a profile before its B-spline
# prefilter.  The prefilter's impulse response decays as 0.43^|k|, so the
# FFT's wrap-around reaches the support only below rounding, and the
# spline reads coefficients up to three past each end.
_SPLINE_PAD = 32
# The quintic B-spline's weights on a unit grid, times 120, as polynomials
# in the distance u in [0, 1) past a sample: (u^5, (1 + u)^5 - 6 u^5,
# (2 + u)^5 - 6 (1 + u)^5 + 15 u^5), lowest power first.  Their mirrors
# in 1 - u give the other three.  By Horner's rule the terms of a weight
# sum to at most 146 in size, against 120 for the six weights, so each is
# good to a few roundings; sums of truncated powers (.)_+^5 cancel terms up
# to 3^5 and lose about 50x in accuracy.
_QUINTIC = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                     [1.0, 5.0, 10.0, 10.0, 5.0, -5.0],
                     [26.0, 50.0, 20.0, -20.0, -20.0, 10.0]])


def _quintic_coefficients(q):
    """B-spline coefficients that interpolate the samples ``q``, with
    ``_SPLINE_PAD`` more on each side: the samples, zero outside, divided by
    the symbol ``(66 + 52 cos k + 2 cos 2k)/120`` of the spline at the
    grid points."""
    size = q.size + 2 * _SPLINE_PAD
    k = 2.0 * np.pi * np.fft.fftfreq(size)
    padded = np.zeros(size, dtype=np.complex128)
    padded[_SPLINE_PAD:_SPLINE_PAD + q.size] = q
    return np.fft.ifft(np.fft.fft(padded) * (120.0 / (66.0 + 52.0 * np.cos(k)
                                                       + 2.0 * np.cos(2.0 * k))))


def _quintic_spline(coef, x, xv):
    """The spline with the coefficients ``coef`` of ``_quintic_coefficients``
    on the grid ``x`` at the points ``xv`` inside it: six weighted
    coefficients about each point."""
    # the mean spacing: x[1] - x[0] carries the rounding of two positions
    h = (x[-1] - x[0]) / (x.size - 1)
    below = np.floor((xv - x[0]) / h).astype(np.intp)
    # measured from the sample below, not from x[0], the offset's rounding
    # scales with the spacing, not with the width of the grid
    u = (xv - x[below]) / h
    s = 1.0 - u
    first = below + (_SPLINE_PAD - 2)
    out = np.zeros(xv.shape, dtype=np.complex128)
    for j, (y, poly) in enumerate(zip((s, s, s, u, u, u), (*_QUINTIC, *_QUINTIC[::-1]))):
        out += _series(y, poly) * coef[first + j]
    return out / 120.0


def sech_profile(amplitude: float, x) -> InitialProfile:
    x = np.asarray(x, dtype=float)
    # cosh overflows to inf past |y| ~ 710, where the sample 0 is right
    fn = np.errstate(over="ignore")(lambda y: amplitude / np.cosh(y))
    return InitialProfile(x, fn(x), fn=fn)


def gaussian_profile(amplitude: float, x, width: float = 1.0) -> InitialProfile:
    x = np.asarray(x, dtype=float)
    fn = lambda y: amplitude * np.exp(-((np.asarray(y) / width) ** 2))  # noqa: E731
    return InitialProfile(x, fn(x), fn=fn)


def soliton_profile(data, x) -> InitialProfile:
    """Sample an exact multi-pole solution at t = 0 as an initial profile."""
    x = np.asarray(x, dtype=float)
    return InitialProfile(x, soliton_field(data, x, 0.0))


def load_profile(path) -> InitialProfile:
    arr = np.loadtxt(path, delimiter=",", comments="#")
    return InitialProfile(arr[:, 0], arr[:, 1] + 1j * arr[:, 2])


# ---------------------------------------------------------------------------
# Jost integration
# ---------------------------------------------------------------------------

# Gauss nodes of a step, at which the fourth-order Magnus step samples the
# profile.
_GAUSS_C = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
# Step breaks equidistribute h^5 M(x), M the sum of |q^(k)| for k <= 4: they
# are spaced this far apart in the integral of max(M, floor)^(1/5), and the
# floor caps a step at one unit of x where the profile is negligible.
_MONITOR_SPACING = 0.05
_MONITOR_FLOOR = _MONITOR_SPACING ** 5
# (spectral point, step) entries per chunk of the product over x.
_CHUNK_ENTRIES = 8000
# Taylor coefficients in w of cosh(sqrt w) and sinh(sqrt w)/sqrt w, accurate
# to rounding for |w| <= _W_MAX.
_W_MAX = 0.1
_TAYLOR = np.array([[1.0 / math.factorial(2 * n + j) for n in range(7)] for j in (0, 1)])
# Largest exponent by which a chunk's product of traceless steps may grow
# before its scalar factor brings it back.
_GROWTH_MAX = 300.0
# Most steps one march may take, counted before any is made.  The breaks,
# the profile's samples on them and their temporaries take about 200 bytes
# a step, so a march at the cap takes about 200 MB (1 s for one point of
# sech x); the steps grow with |z| and the grid's width, and a far point
# or a wide grid would ask for more than memory holds.
_MAX_STEPS = 10 ** 6


def _breaks(profile, zs, x_from, x_to):
    """Step breaks from ``x_from`` to ``x_to`` for the spectral points
    ``zs``, equally spaced in the profile's grading, and cut into equal
    parts where a step is longer than ``1 / max(1, |z|)``: two Gauss nodes
    resolve the coupling's oscillation e^{2izx} only on steps shorter than
    about 1/|z|, and the grading alone allows a unit step where the profile
    is negligible."""
    top = float(np.max(np.abs(zs)))

    def counted(steps):
        # a float count, so that one too large to cast is refused too
        if not steps <= _MAX_STEPS:
            raise ValueError(
                f"a march from x = {x_from:g} to {x_to:g} at |z| up to {top:.3g} "
                f"would take {steps:.3g} steps, more than {_MAX_STEPS:.0e}: narrow "
                "the profile's grid, the reflection grid or the search box")
        return int(steps)

    longest = 1.0 / max(1.0, top)
    x, cum = profile.x, profile._grading_integral()
    ends = np.interp([x_from, x_to], x, cum)
    steps = max(1, counted(np.ceil(abs(ends[1] - ends[0]) / _MONITOR_SPACING)))
    breaks = np.interp(np.linspace(ends[0], ends[1], steps + 1), cum, x)
    breaks[[0, -1]] = x_from, x_to
    h = np.diff(breaks)
    parts = np.maximum(1.0, np.ceil(np.abs(h) / longest))
    counted(np.sum(parts))
    parts = parts.astype(int)
    if np.any(parts > 1):
        first = np.repeat(np.cumsum(parts) - parts, parts)
        frac = (np.arange(first.size) - first) / np.repeat(parts, parts)
        breaks = np.append(np.repeat(breaks[:-1], parts) + frac * np.repeat(h, parts), x_to)
    return breaks


def _series(w, coef):
    """The power series with coefficients ``coef`` at w, by Horner's rule."""
    out = np.full_like(w, coef[-1])
    for c in coef[-2::-1]:
        out *= w
        out += c
    return out


def _cosh_sinhc(w):
    """``cosh(sqrt w)`` and ``sinh(sqrt w) / sqrt w``, entire in w, real
    where w is real.  Both come from their Taylor series at ``w / 4^k``,
    inside ``_W_MAX``, squared k times: ``(C, S) -> (C^2 + w S^2, 2 C S)``.
    No root, exponential or division of the entries is taken: nothing
    cancels where w vanishes, and the series cost a fraction of numpy's
    complex sqrt and exp."""
    top = float(np.max(np.abs(w), initial=0.0))
    k = math.ceil(math.log(top / _W_MAX, 4)) if top > _W_MAX else 0
    scaled = w / 4.0 ** k if k else w
    C, S = (_series(scaled, coef) for coef in _TAYLOR)
    if k:
        S /= 2.0 ** k
    for _ in range(k):
        C, S = C * C + w * S * S, 2.0 * C * S
    return C, S


def _traceless_exponentials(a, b, c):
    """``exp(X)`` for ``X = [[a, b], [c, -a]]``, entry by entry.

    X squares to ``w I``, ``w = a^2 + b c``, so ``exp(X) = C I + S X``
    with ``C = cosh(sqrt w)`` and ``S = sinh(sqrt w) / sqrt w``
    (:func:`_cosh_sinhc`).  Returns the components (11, 12, 21, 22), made
    in place of a, b and c (fewer allocations in the march's hottest loop).
    """
    C, S = _cosh_sinhc(a * a + b * c)
    for X in (a, b, c):
        X *= S
    return [C + a, b, c, C - a]


def _omega(zs, h, q):
    """The entries (a, b, c) of ``Omega = [[a, b], [c, -a]] = h/2 (B_1 +
    B_2) + sqrt(3) h^2/12 [B_2, B_1]``, the fourth-order Magnus exponent for
    the traceless part ``B = [[-iz, q], [-conj q, iz]]`` of the
    Zakharov-Shabat matrix, at every pair of a step (rows) and a spectral
    point (columns), with ``B_j`` at the step's Gauss nodes, one row of
    ``q`` (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009).  B's
    diagonal is the same at both, so ``[B_2, B_1] = [[2i Im(q_1 conj q_2),
    2iz (q_2 - q_1)], [2iz conj(q_2 - q_1), -2i Im(q_1 conj q_2)]]``: Omega
    is polynomial in z, su(2) for real z."""
    q1, q2 = q.T
    g = (1j * math.sqrt(3.0) / 6.0) * h * h
    mean, dq = ((0.5 * h) * (q1 + q2))[:, None], (g * (q2 - q1))[:, None]
    a = (g * (q1 * np.conj(q2)).imag)[:, None] - (1j * h)[:, None] * zs
    return a, mean + dq * zs, -np.conj(dq) * zs - np.conj(mean)


def _steps(zs, h, q):
    """The fourth-order Magnus steps ``exp(Omega)`` (:func:`_omega`), as
    components (11, 12, 21, 22)."""
    return _traceless_exponentials(*_omega(zs, h, q))


def _su2_rows(zs, h, q):
    """The first rows (11, 12) of the steps of :func:`_steps` at real z.

    There Omega is in su(2): a is imaginary and ``c = -conj b``, so ``w =
    a^2 + b c = -|a|^2 - |b|^2`` and the step ``[[alpha, beta], [-conj
    beta, conj alpha]]`` is fixed by its first row.  w is the general
    step's complex product, and C and S are summed as real series of its
    real part.  Its imaginary part is zero in exact arithmetic, and where
    a complex multiply fuses its multiply-add, of rounding size; what
    dropping it moves lies far below an entry's rounding."""
    a, b, c = _omega(zs, h, q)
    C, S = _cosh_sinhc((a * a + b * c).real)
    a *= S
    b *= S
    return [C + a, b]


def _mat(L, R):
    """Products of 2x2 matrices held as component lists (11, 12, 21, 22)."""
    return [L[0] * R[0] + L[1] * R[2], L[0] * R[1] + L[1] * R[3],
            L[2] * R[0] + L[3] * R[2], L[2] * R[1] + L[3] * R[3]]


def _su2_mat(L, R):
    """Products of SU(2) matrices held as first rows (11, 12): the rows
    below are ``(-conj R_12, conj R_11)``."""
    return [L[0] * R[0] - L[1] * np.conj(R[1]), L[0] * R[1] + L[1] * np.conj(R[0])]


def _tree_product(E):
    """``E_{k-1} ... E_1 E_0`` over the first axis, multiplied pairwise;
    ``E`` holds the components (11, 12, 21, 22), or the first rows (11, 12)
    of SU(2) matrices."""
    mul = _mat if len(E) == 4 else _su2_mat
    while E[0].shape[0] > 1:
        k = E[0].shape[0]
        even = k - k % 2
        P = mul([e[1:even:2] for e in E], [e[0:even:2] for e in E])
        if k % 2:
            P = [np.concatenate([p, e[-1:]]) for p, e in zip(P, E)]
        E = P
    return [e[0] for e in E]


def _step_product(zs, h, q):
    """The product of the steps of :func:`_steps`, as components (11, 12,
    21, 22).  Where every z is real the steps are in SU(2), so only their
    first rows are multiplied (:func:`_su2_rows`) and the product is
    expanded from its own: the rows below, which the general product forms
    from the same roundings, are their conjugates.  The columns marched
    from it are bitwise those of the general product on the reflection
    grids tested."""
    if np.any(zs.imag):
        return _tree_product(_steps(zs, h, q))
    alpha, beta = _tree_product(_su2_rows(zs, h, q))
    return [alpha, beta, -np.conj(beta), np.conj(alpha)]


def _chunks(zs, h, q):
    """Slices of the steps, each of about ``_CHUNK_ENTRIES`` (step, point)
    entries, over which the traceless steps' product can grow by at most
    ``e^_GROWTH_MAX`` (their exponents are at most h (|Im z| + |q|) and the
    Magnus commutator's term, of order h^3))."""
    width = max(1, _CHUNK_ENTRIES // zs.size)
    growth = np.cumsum(np.abs(h) * (np.max(np.abs(zs.imag)) + np.max(np.abs(q), axis=1)))
    lo = 0
    while lo < h.size:
        room = np.searchsorted(growth, (growth[lo - 1] if lo else 0.0) + _GROWTH_MAX)
        hi = min(lo + width, max(lo + 1, int(room)))
        yield slice(lo, hi)
        lo = hi


def _propagate(zs, h, q, sign, y0):
    """The column after the steps from ``y0``.

    The traceless steps are multiplied chunk by chunk
    (:func:`_step_product`), and each chunk's product takes the scalar
    factor ``e^{sign i z L}`` of its length L.  Over a chunk where the
    profile vanishes this is the free propagator, whose normalised
    diagonal entry is set to 1 exactly.
    """
    v = [np.full(zs.size, c, dtype=np.complex128) for c in y0]
    unit = 0 if sign > 0 else 3
    for part in _chunks(zs, h, q):
        E = _step_product(zs, h[part], q[part])
        phase = np.exp((sign * 1j) * np.cumsum(h[part])[-1] * zs)
        P = [phase * c for c in E]
        if not np.any(q[part]):
            P[unit] = np.ones_like(P[unit])
        v = [P[0] * v[0] + P[1] * v[1], P[2] * v[0] + P[3] * v[1]]
    return np.stack(v, axis=1)


def _march(profile, zs, kind, breaks):
    """One Jost column type for a batch of spectral points, marched over
    ``breaks`` from its normalisation at the first to the last: an (n, 2)
    array.

    ``kind`` 'first' evolves the (m1, m2) pair obeying m1' = q m2,
    m2' = 2iz m2 - conj(q) m1 (the column normalized to (1,0)); 'second' the
    mirror pair normalized to (0,1).  The system is ``y' = (sign i z I +
    B(x)) y`` with B traceless, sign +1 for 'first' and -1 for 'second'.
    Each step is the fourth-order Magnus step (:func:`_steps`): one
    closed-form exponential, of the profile at the step's two Gauss nodes
    and their commutator.  The steps' product is formed pairwise over all
    points at once.  For given breaks the result is a product of entire
    functions of z, so it is analytic in z whatever the integration error.
    """
    sign = 1 if kind == "first" else -1
    y0 = (1.0, 0.0) if kind == "first" else (0.0, 1.0)
    h = np.diff(breaks)
    q = profile.evaluate((breaks[:-1, None] + h[:, None] * _GAUSS_C).ravel())
    return _propagate(zs, h, q.reshape(-1, 2), sign, y0)


def _integrate_columns(profile, zs, kind, x_from, x_to):
    """One Jost column type (see :func:`_march`) for a batch of spectral
    points, at ``x_to`` from ``x_from``, to sixth order.  Returns an (n, 2)
    array, and the Richardson correction that was added to it, of the same
    shape.

    The column is marched twice: on breaks graded by the profile
    (:func:`_breaks`), and on those breaks halved at their midpoints.  One
    Richardson level on the two lifts the order.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    coarse = _breaks(profile, zs, x_from, x_to)
    fine = np.empty(2 * coarse.size - 1)
    fine[::2] = coarse
    fine[1::2] = 0.5 * (coarse[1:] + coarse[:-1])
    coarse_cols, fine_cols = (_march(profile, zs, kind, b) for b in (coarse, fine))
    # the step is symmetric, so its error runs in even powers of h: this
    # cancels the h^4 term and leaves h^6
    correction = (fine_cols - coarse_cols) / 15.0
    return fine_cols + correction, correction


def _wronskian(a, b):
    """s11, the Wronskian of the Jost columns ``a`` (first kind) and ``b``
    (second kind) at one point of x."""
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def _halves(profile, zs):
    """The Jost columns at x = 0, integrated in from the left and from the
    right, their Wronskian s11, and the size at each point of the
    Richardson correction carried through to s11 to first order (an
    estimate of its error)."""
    a, da = _integrate_columns(profile, zs, "first", profile.x[0], 0.0)
    b, db = _integrate_columns(profile, zs, "second", profile.x[-1], 0.0)
    eta = np.abs(da[:, 0] * b[:, 1] + a[:, 0] * db[:, 1]
                 - da[:, 1] * b[:, 0] - a[:, 1] * db[:, 0])
    return a, b, _wronskian(a, b), eta


def s11_on_grid(profile, zs):
    """s11 for a batch of points, from one march of each column on the
    graded breaks alone (:func:`_march`): fourth order, without the
    Richardson level of :func:`_halves`.  The argument-principle contour
    reads only a winding count and guesses from it, and the circles that
    follow re-place every zero (:func:`locate_zeros`)."""
    zs = np.asarray(zs, dtype=np.complex128)
    a, b = (_march(profile, zs, kind, _breaks(profile, zs, x_from, 0.0))
            for kind, x_from in (("first", profile.x[0]), ("second", profile.x[-1])))
    return _wronskian(a, b)


# ---------------------------------------------------------------------------
# Reflection coefficient
# ---------------------------------------------------------------------------

@dataclass
class ScatteringData:
    """Reflection samples on a real grid plus the discrete spectrum."""

    z: np.ndarray
    r: np.ndarray
    discrete: tuple = ()
    s11: np.ndarray | None = None
    s21: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=float)
        self.r = np.asarray(self.r, dtype=np.complex128)
        self.discrete = tuple(self.discrete)
        # the ray density searches and interpolates on the grid
        if self.z.ndim != 1 or not np.all(np.isfinite(self.z)):
            raise ValueError("the reflection grid z must be 1-d and finite")
        if np.any(np.diff(self.z) <= 0):
            raise ValueError("the reflection grid z must be strictly increasing")
        if self.r.shape != self.z.shape:
            raise ValueError(f"r has shape {self.r.shape}, the grid z {self.z.shape}")
        if not np.all(np.isfinite(self.r)):
            raise ValueError("the reflection samples r must be finite")


def reflection_coefficient(profile: InitialProfile, z_grid) -> ScatteringData:
    zs = np.asarray(z_grid, dtype=float)
    a, b, s11, _ = _halves(profile, zs)
    # on the real line the first-kind column from the right is
    # (conj b2, -conj b1) by the Schwarz symmetry of the system
    s21 = np.conj(b[:, 1]) * a[:, 1] + np.conj(b[:, 0]) * a[:, 0]
    if np.any(np.abs(s11) < _SINGULAR_TOL):
        worst = float(zs[np.argmin(np.abs(s11))])
        raise RuntimeError(
            f"spectral singularity: |s11| < {_SINGULAR_TOL:.1e} at z = {worst:g}"
            " (zero on or too near the real axis)")
    return ScatteringData(zs, s21 / s11, (), s11=s11, s21=s21)


# ---------------------------------------------------------------------------
# Zeros of s11 in the upper half plane
# ---------------------------------------------------------------------------

def _contour_points(box, n_side):
    re0, re1, im0, im1 = box
    bottom = re0 + np.linspace(0, 1, n_side, endpoint=False) * (re1 - re0) + 1j * im0
    right = re1 + 1j * (im0 + np.linspace(0, 1, n_side, endpoint=False) * (im1 - im0))
    top = re1 + np.linspace(0, 1, n_side, endpoint=False) * (re0 - re1) + 1j * im1
    left = re0 + 1j * (im1 + np.linspace(0, 1, n_side, endpoint=False) * (im0 - im1))
    return np.concatenate([bottom, right, top, left])


def _phase_steps(values):
    """Steps of the unwrapped phase along closed samples, the last one
    back to the first sample.  A step of :data:`_MAX_PHASE_STEP` or more
    is refused: the samples are too coarse to tell it from a wrap."""
    steps = np.diff(np.unwrap(np.angle(np.concatenate([values, values[:1]]))))
    if np.max(np.abs(steps)) >= _MAX_PHASE_STEP:
        raise RuntimeError("samples too coarse to count the winding of s11")
    return steps


def _contour_moments(value_fn, box, n_side):
    """Winding count of s11 on a box, and guesses of the zeros inside.

    Returns (count, guesses).  The phase is unwrapped along the sampled
    contour; sampling is doubled, at most three times, until adjacent phase
    steps are below :data:`_MAX_PHASE_STEP`.  The moments
    ``sum (z - centre)^j`` over the zeros, j = 1..count, are contour sums
    of ``(z - centre)^j d log s11``; Newton's identities turn them into the
    polynomial whose roots are the guesses.
    """
    centre = complex(0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3]))
    for attempt in range(4):
        pts = _contour_points(box, n_side * 2 ** attempt)
        s = value_fn(pts)
        if np.any(s == 0) or not np.all(np.isfinite(s)):
            raise RuntimeError(f"the contour of the box {box} hits a zero of s11 exactly")
        try:
            steps = _phase_steps(s)
        except RuntimeError:
            continue
        winding = np.sum(steps) / (2 * np.pi)
        count = int(round(winding))
        if abs(winding - count) > 0.05:
            continue
        zc = np.concatenate([pts, pts[:1]])
        dlog = np.diff(np.log(np.abs(np.concatenate([s, s[:1]])))) + 1j * steps
        w = 0.5 * (zc[1:] + zc[:-1]) - centre
        p = [np.sum(w ** j * dlog) / (2j * np.pi) for j in range(1, count + 1)]
        e = [1.0]
        for j in range(1, count + 1):
            e.append(sum((-1) ** (i - 1) * e[j - i] * p[i - 1]
                         for i in range(1, j + 1)) / j)
        guesses = centre + np.roots([(-1) ** j * e[j] for j in range(count + 1)])
        return count, guesses
    raise RuntimeError(
        f"argument-principle contour of the box {box} did not resolve the "
        "phase of s11: a zero lies on or near its boundary; move that edge")


def _circle_series(samples, radius):
    """Taylor coefficients 0 to n/2 at a circle's centre of functions
    sampled at ``centre + radius e^{2 pi i k / n}`` (the last axis of
    ``samples``), by the FFT: the trapezoid rule, exponentially accurate
    for analytic functions.

    The coefficients of negative frequency vanish for an analytic function
    whose series has converged on the circle.  Samples that leave more
    there than rounding of the largest of them are refused.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    n = samples.shape[-1]
    hat = np.fft.fft(samples, axis=-1) / n
    stray = float(np.max(np.abs(hat[..., n // 2 + 1:])))
    if stray > _ALIAS_TOL * float(np.max(np.abs(samples))):
        raise RuntimeError(
            f"circle series did not converge: negative frequencies hold "
            f"{stray:.3e}; the samples are not those of a function analytic "
            "in the disc")
    return hat[..., :n // 2 + 1] / radius ** np.arange(n // 2 + 1)


def _winding(values):
    """The winding number of closed samples about 0."""
    if not np.all(np.isfinite(values)) or np.any(values == 0):
        raise RuntimeError("circle hits a zero of s11 exactly")
    return int(round(np.sum(_phase_steps(values)) / (2 * np.pi)))


class _Circle(NamedTuple):
    """A circle of ``radius`` about ``centre``, with the Taylor series at
    its centre of the two Jost columns (rows are coefficients) and of s11,
    the winding of s11 along it and the largest Richardson size there (see
    :func:`_halves`)."""

    centre: complex
    radius: float
    mu1: np.ndarray
    mu2: np.ndarray
    s11: np.ndarray
    winding: int
    eta: float


def _circles(profile, centres, radii):
    """One :class:`_Circle` per centre, from one batched evaluation of the
    Jost columns on all the circles."""
    n = _CIRCLE_POINTS
    unit = np.exp(2j * np.pi * np.arange(n) / n)
    pts = np.asarray(centres)[:, None] + np.asarray(radii)[:, None] * unit
    a, b, s11, eta = _halves(profile, pts.ravel())
    rows = np.stack([a[:, 0], a[:, 1], b[:, 0], b[:, 1], s11]).reshape(5, -1, n)
    out = []
    for k, (c, r, e) in enumerate(zip(centres, radii, eta.reshape(-1, n).max(axis=1))):
        series = _circle_series(rows[:, k], r)
        out.append(_Circle(complex(c), float(r), series[:2].T, series[2:4].T, series[4],
                           _winding(rows[4, k]), float(e)))
    return out


def _inner(circle, point):
    """Whether ``point`` lies in the inner half of ``circle``, where its
    series converge at least as fast as ``2^-n``."""
    return abs(point - circle.centre) <= 0.5 * circle.radius


def _series_at(circle, point):
    """The circle's series of the two Jost columns and of s11 re-centred at
    ``point``, by the binomial shift ``b_j = sum_{n >= j} C(n, j) a_n
    delta^(n - j)``, delta the step from the circle's centre."""
    if point == circle.centre:
        return circle.mu1, circle.mu2, circle.s11
    shift = _BINOMIAL * (point - circle.centre) ** _LAG
    return shift @ circle.mu1, shift @ circle.mu2, shift @ circle.s11


def _linked(points, radius):
    """``points`` split into groups joined by chains of steps no longer
    than ``radius``."""
    label = np.arange(len(points))
    for i in range(len(points)):
        near = np.abs(points - points[i]) <= radius
        label[np.isin(label, label[near])] = label[i]
    return [points[label == v] for v in np.unique(label)]


def _zeros_from_guesses(profile, guesses, scale):
    """Zeros of s11 with their orders, and the series at each
    (:func:`_series_at`), from guesses of them.

    Guesses closer than 5 % of ``scale`` form a cluster, and each cluster
    of k is centred at its centroid.  A cluster gets a circle there, of
    radius half the least of its distance to the real axis, its distance
    to the next cluster, and ``scale``, unless it keeps the circle it was
    found on: it does while it has not split and its centre stays in that
    circle's inner half, and the circle's series are shifted to the centre.
    s11 must wind k times along the circle.  The roots of its Taylor
    polynomial of degree k at the centre that lie within the noise radius
    ``(eta / |a_k|)^{1/k}`` of each other are one zero, whose order is
    their number: integration error of size eta splits an order-k zero
    into k roots that far apart.  The groups of roots are the next round's
    clusters; the rounds end, at the second or later, when every cluster
    stays one group, its zero lies in the inner half of its circle, and the
    zero moved from the cluster's centre by at most its noise radius or
    ``1e-13 scale``: each round is one Newton step on the series, so from a
    poor guess the rounds go on until the step is noise.
    """
    groups = [(g, None) for g in _linked(guesses, 0.05 * scale)]
    for rounds in range(_MAX_ROUNDS):
        centres = np.array([g.mean() for g, _ in groups])
        apart = np.abs(centres[:, None] - centres[None, :])
        np.fill_diagonal(apart, np.inf)
        radii = 0.5 * np.minimum(np.minimum(centres.imag, scale), apart.min(axis=1))
        new = np.array([circle is None or not _inner(circle, c)
                        for c, (_, circle) in zip(centres, groups)])
        marched = iter(_circles(profile, centres[new], radii[new]) if new.any() else ())
        found, settled = [], True
        for c, (g, circle), fresh in zip(centres, groups, new):
            circle = next(marched) if fresh else circle
            k = g.size
            if circle.winding != k:
                raise RuntimeError(
                    f"s11 winds {circle.winding} times about {circle.centre!r}, "
                    f"where {k} zeros were guessed")
            s11 = _series_at(circle, c)[2]
            roots = c + np.roots(s11[k::-1])
            noise = (circle.eta / abs(s11[k])) ** (1.0 / k)
            parts = _linked(roots, noise)
            settled = settled and len(parts) == 1 and (
                abs(parts[0].mean() - c) <= max(noise, 1e-13 * scale))
            found.extend((part, circle if len(parts) == 1 else None) for part in parts)
        zeros = [complex(g.mean()) for g, _ in found]
        if rounds and settled and all(_inner(circle, z) for z, (_, circle) in zip(zeros, found)):
            return [(z, g.size, _series_at(circle, z)) for z, (g, circle) in zip(zeros, found)]
        groups = found
    raise RuntimeError("circles about the guessed zeros did not settle")


def locate_zeros(profile: InitialProfile, box):
    """Zeros of s11 inside an upper-half-plane rectangle, each as ``(zero,
    order, series)``, ``series`` the Taylor series ``(mu1, mu2, s11)`` of
    the two Jost columns and of s11 at the zero (:func:`_series_at`).

    ``box`` is (re_min, re_max, im_min, im_max) with im_min > 0.  Counting
    is by the argument principle on the box boundary, whose moments also
    guess where the zeros are; the contour's s11 is marched once, on the
    graded breaks alone (:func:`s11_on_grid`).  Circles about the guesses
    then place the zeros and tell their orders from the sixth-order march
    and its Richardson size (:func:`_zeros_from_guesses`).  A box whose
    circles fail, or place a zero outside it, is split across its longer
    side.  A box is never moved: a zero on or near the boundary of the
    given box is refused, and a cut through a zero is tried elsewhere.
    """
    re0, re1, im0, im1 = (float(v) for v in box)
    if not all(math.isfinite(v) for v in (re0, re1, im0, im1)):
        raise ValueError(f"box bounds must be finite, got {tuple(box)!r}")
    if im0 <= 0:
        raise ValueError("box must lie in the open upper half plane")
    if re0 >= re1 or im0 >= im1:
        raise ValueError("degenerate box")

    def solve_box(bx, depth):
        count, guesses = _contour_moments(lambda zs: s11_on_grid(profile, zs),
                                          bx, _SAMPLES_PER_SIDE)
        if count == 0:
            return []
        try:
            found = _zeros_from_guesses(profile, guesses,
                                        np.hypot(bx[1] - bx[0], bx[3] - bx[2]))
            if not all(bx[0] < z.real < bx[1] and bx[2] < z.imag < bx[3]
                       for z, *_ in found):
                raise RuntimeError(f"circles placed a zero outside the box {bx}")
            return found
        except RuntimeError:
            if depth >= _MAX_DEPTH:
                raise
        re0_, re1_, im0_, im1_ = bx
        horizontal = re1_ - re0_ >= im1_ - im0_
        last_err = None
        # a cut through a zero fails the halves' contours; the next is tried
        for frac in (0.5, 0.44, 0.57, 0.35, 0.65):
            if horizontal:
                mid = re0_ + frac * (re1_ - re0_)
                parts = [(re0_, mid, im0_, im1_), (mid, re1_, im0_, im1_)]
            else:
                mid = im0_ + frac * (im1_ - im0_)
                parts = [(re0_, re1_, im0_, mid), (re0_, re1_, mid, im1_)]
            try:
                found = []
                for part in parts:
                    found.extend(solve_box(part, depth + 1))
            except RuntimeError as err:
                last_err = err
                continue
            if sum(m for _, m, _ in found) == count:
                return found
        raise RuntimeError(
            f"zero count mismatch after subdivision in box {bx}") from last_err

    found = solve_box((re0, re1, im0, im1), 0)
    found.sort(key=lambda zero: (round(zero[0].real / _ORDER_RESOLUTION), zero[0].imag))
    return found


# ---------------------------------------------------------------------------
# Norming constants
# ---------------------------------------------------------------------------

def _pole_constants(mu1, mu2, s11, order: int):
    """The series of b and the pole constants at a zero of s11 of order m,
    from Taylor series there: ``mu1`` and ``mu2`` of the two Jost columns
    (rows are coefficients, at least m), ``s11`` of s11 (at least 2m).

    The columns are proportional to order m, ``mu1 = b(z) mu2 +
    O((z - z_k)^m)``; matching them coefficient by coefficient gives b's
    first m coefficients, and the constants ``(c_{m-1}, ..., c_0)`` are the
    principal part ``pp[b(z) / s11(z)]``, the series of b times that of
    ``(z - z_k)^m / s11(z)``.
    """
    mu1, mu2 = (np.asarray(v, dtype=np.complex128) for v in (mu1, mu2))
    denom = np.vdot(mu2[0], mu2[0])
    if denom == 0:
        raise RuntimeError("degenerate Jost column at the requested point")
    b = []
    for j in range(order):
        resid = mu1[j] - sum(b[i] * mu2[j - i] for i in range(j))
        b.append(complex(np.vdot(mu2[0], resid) / denom))
        defect = float(np.max(np.abs(resid - b[j] * mu2[0])))
        scale = float(np.max(np.abs(resid))) + float(np.max(np.abs(mu2[0]))) + 1e-300
        if defect > 10 ** j * _RATIO_TOL * scale:
            raise RuntimeError(
                f"derivative matching of order {j} failed (defect {defect:.3e}); "
                f"not a zero of s11 of order {order} at working precision")
    return b, _mul(b, _inv(list(s11[order:2 * order]), order), order)


def norming_constants(z_k: complex, series, order: int) -> DiscreteDatum:
    """The pole datum at the zero ``z_k`` of s11 of the given order, from
    the series ``(mu1, mu2, s11)`` there (:func:`_pole_constants`)."""
    return DiscreteDatum(z_k, _pole_constants(*series, order)[1])


def extract_scattering(profile: InitialProfile, z_grid, box=None) -> ScatteringData:
    """Full forward map: reflection samples plus, when a search box is
    given, the located discrete spectrum (:func:`locate_zeros`) with its
    constants (:func:`norming_constants`), read from the series the search
    ends with at each zero."""
    data = reflection_coefficient(profile, z_grid)
    if box is None:
        return data
    return replace(data, discrete=[norming_constants(z, s, m)
                                   for z, m, s in locate_zeros(profile, box)])


# ---------------------------------------------------------------------------
# Serialization (full double precision round-trip)
# ---------------------------------------------------------------------------

def _complex_list(arr):
    arr = np.asarray(arr, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _from_complex_list(lst):
    arr = np.asarray(lst, dtype=float).reshape(len(lst), 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _pair(v):
    return [complex(v).real, complex(v).imag]


def _unpair(p):
    return p[0] + 1j * p[1]


def _from_spelled(z, order, spelled) -> DiscreteDatum:
    """The pole of a CLI line or a scattering document: an integer ``order``
    m >= 1 and its constants ``spelled = (c0, c1, ...)``, at least c0 and c1,
    with those past ``c_{m-1}`` 0."""
    if (isinstance(order, bool) or not isinstance(order, (int, float))
            or not float(order).is_integer() or order < 1):
        raise ValueError(f"pole order must be an integer >= 1, got {order!r}")
    m = int(order)
    if len(spelled) < max(m, 2):
        raise ValueError(f"an order-{m} pole needs c0 to c{max(m, 2) - 1}, got {len(spelled)}")
    for j, v in enumerate(spelled[m:], m):
        if v != 0:
            raise ValueError(f"an order-{m} pole must carry c{j} = 0, got {v!r}")
    return DiscreteDatum(z, spelled[m - 1::-1])


def save_scattering(data: ScatteringData, path) -> None:
    doc = {
        "z_grid": np.asarray(data.z, dtype=float).tolist(),
        "r": _complex_list(data.r),
        "s11": None if data.s11 is None else _complex_list(data.s11),
        "s21": None if data.s21 is None else _complex_list(data.s21),
        # each pole's constants as c0, c1, ... to c_{m-1}, and always c0, c1
        "discrete": [
            {"z": _pair(d.z), "order": d.order,
             **{f"c{j}": _pair(v) for j, v in
                enumerate([*d.coefficients[::-1], 0.0][:max(d.order, 2)])}}
            for d in data.discrete
        ],
    }
    # compact and in one piece: only then does json use its C encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def load_scattering(path) -> ScatteringData:
    """Read a document :func:`save_scattering` wrote; the keys ``b`` and
    ``d`` that older documents carry per pole are ignored."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    discrete = []
    for rec in doc["discrete"]:
        count = sum(k[:1] == "c" and k[1:].isdigit() for k in rec)
        discrete.append(_from_spelled(
            _unpair(rec["z"]), rec["order"], [_unpair(rec[f"c{j}"]) for j in range(count)]))
    return ScatteringData(
        np.asarray(doc["z_grid"], dtype=float),
        _from_complex_list(doc["r"]),
        tuple(discrete),
        s11=None if doc["s11"] is None else _from_complex_list(doc["s11"]),
        s21=None if doc["s21"] is None else _from_complex_list(doc["s21"]),
    )
