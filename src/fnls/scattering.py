"""Forward scattering map for the focusing NLS Lax pair.

Integrates the Jost systems of the Zakharov-Shabat problem as ODEs in x,
forms the scattering entries from Wronskians at a matching point, samples
the reflection coefficient on a real grid, locates zeros of the analytic
entry in the upper half plane by the argument principle, and extracts the
connection constants that feed the pole system of :mod:`fnls.solitons`.

Conventions: the bare wave functions carry e^{±i z x}; the normalized
variables used here tend to the identity columns at the respective
infinity.  All extraction of constants happens at (x, t) = (0, 0) where
the exponential factors drop out.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline

from .solitons import DiscreteDatum, soliton_field

__all__ = [
    "InitialProfile",
    "ScatteringData",
    "sech_profile",
    "gaussian_profile",
    "soliton_profile",
    "load_profile",
    "save_profile",
    "s11_on_grid",
    "s11_from_integral",
    "reflection_coefficient",
    "locate_zeros",
    "s11_derivatives",
    "norming_constants",
    "extract_scattering",
    "save_scattering",
    "load_scattering",
]

_RTOL = 1e-11
_ATOL = 1e-12
# |s11| below this on the real grid counts as a spectral singularity.
_SINGULAR_TOL = 1e-8
# Contour samples per box side, and how often a box may be subdivided.
_SAMPLES_PER_SIDE = 96
_MAX_DEPTH = 8
# Largest defect of the Jost-column proportionality at an accepted zero,
# relative to the column sizes.
_RATIO_TOL = 1e-6


@dataclass
class InitialProfile:
    """Complex field samples q0(x) on a uniform grid, optionally with the
    exact generating function attached (used instead of the interpolant when
    available)."""

    x: np.ndarray
    q: np.ndarray
    fn: object = None
    tail_tol: float = 1e-10

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.q = np.asarray(self.q, dtype=np.complex128)
        if self.x.ndim != 1 or self.x.size < 8:
            raise ValueError("need a 1-d grid with at least 8 points")
        if self.q.shape != self.x.shape:
            raise ValueError("samples and grid differ in length")
        dx = np.diff(self.x)
        if np.any(dx <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.allclose(dx, dx[0], rtol=1e-8, atol=0.0):
            raise ValueError("grid must be uniform")
        peak = float(np.max(np.abs(self.q)))
        if peak > 0.0:
            edge = max(abs(self.q[0]), abs(self.q[-1]))
            if edge > self.tail_tol * peak:
                raise ValueError(
                    f"profile tail does not decay: |q| = {edge:.3e} at the "
                    f"boundary exceeds {self.tail_tol:.1e} of the peak {peak:.3e}")
        self._spline = None

    def evaluate(self, xv):
        """q0 at arbitrary positions (0 outside the grid support)."""
        if self.fn is not None:
            return np.asarray(self.fn(xv), dtype=np.complex128)
        if self._spline is None:
            self._spline = make_interp_spline(self.x, self.q, k=5)
        xv = np.asarray(xv, dtype=float)
        out = np.zeros(xv.shape, dtype=np.complex128)
        inside = (xv >= self.x[0]) & (xv <= self.x[-1])
        if out.ndim == 0:
            return self._spline(xv) if inside else out
        out[inside] = self._spline(xv[inside])
        return out


def sech_profile(amplitude: float, x, tail_tol: float = 1e-10) -> InitialProfile:
    x = np.asarray(x, dtype=float)
    fn = lambda y: amplitude / np.cosh(y)  # noqa: E731
    return InitialProfile(x, fn(x), fn=fn, tail_tol=tail_tol)


def gaussian_profile(amplitude: float, x, width: float = 1.0,
                     tail_tol: float = 1e-10) -> InitialProfile:
    x = np.asarray(x, dtype=float)
    fn = lambda y: amplitude * np.exp(-((np.asarray(y) / width) ** 2))  # noqa: E731
    return InitialProfile(x, fn(x), fn=fn, tail_tol=tail_tol)


def soliton_profile(data, x, tail_tol: float = 1e-10) -> InitialProfile:
    """Sample an exact multi-pole solution at t = 0 as an initial profile."""
    x = np.asarray(x, dtype=float)
    return InitialProfile(x, soliton_field(data, x, 0.0), tail_tol=tail_tol)


def save_profile(profile: InitialProfile, path) -> None:
    arr = np.column_stack([profile.x, profile.q.real, profile.q.imag])
    np.savetxt(path, arr, delimiter=",", fmt="%.17g",
               header="x,re_q,im_q", comments="# ")


def load_profile(path, tail_tol: float = 1e-10) -> InitialProfile:
    arr = np.loadtxt(path, delimiter=",", comments="#")
    return InitialProfile(arr[:, 0], arr[:, 1] + 1j * arr[:, 2],
                          tail_tol=tail_tol)


# ---------------------------------------------------------------------------
# Jost integration
# ---------------------------------------------------------------------------

def _integrate_columns(profile, zs, kind, x_from, x_to, with_deriv=False,
                       x_eval=None):
    """Integrate one Jost column type for a batch of spectral points.

    ``kind`` 'first' evolves the (m1, m2) pair obeying m1' = q m2,
    m2' = 2iz m2 - conj(q) m1 (the column normalized to (1,0)); 'second' the
    mirror pair normalized to (0,1).  With ``with_deriv`` the z-derivative
    pair is co-integrated (zero initial data).  Returns an (n, width) array
    at ``x_to``, or (n, width, len(x_eval)) when sampling along the way.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=np.complex128))
    n = zs.size
    width = 4 if with_deriv else 2
    y0 = np.zeros(n * width, dtype=np.complex128)
    y0[(0 if kind == "first" else 1)::width] = 1.0
    two_iz = 2j * zs

    def rhs(xv, y):
        qv = complex(profile.evaluate(xv))
        qc = qv.conjugate()
        m = y.reshape(n, width)
        out = np.empty_like(m)
        if kind == "first":
            out[:, 0] = qv * m[:, 1]
            out[:, 1] = two_iz * m[:, 1] - qc * m[:, 0]
            if with_deriv:
                out[:, 2] = qv * m[:, 3]
                out[:, 3] = 2j * m[:, 1] + two_iz * m[:, 3] - qc * m[:, 2]
        else:
            out[:, 0] = -two_iz * m[:, 0] + qv * m[:, 1]
            out[:, 1] = -qc * m[:, 0]
            if with_deriv:
                out[:, 2] = -2j * m[:, 0] - two_iz * m[:, 2] + qv * m[:, 3]
                out[:, 3] = -qc * m[:, 2]
        return out.ravel()

    sol = solve_ivp(rhs, (x_from, x_to), y0, method="DOP853",
                    rtol=_RTOL, atol=_ATOL, t_eval=x_eval)
    if not sol.success:
        raise RuntimeError(f"Jost integration failed: {sol.message}")
    if x_eval is None:
        return sol.y[:, -1].reshape(n, width)
    return sol.y.reshape(n, width, -1)


def _halves(profile, zs, with_deriv=False, x_match=0.0):
    a = _integrate_columns(profile, zs, "first", profile.x[0], x_match,
                           with_deriv)
    b = _integrate_columns(profile, zs, "second", profile.x[-1], x_match,
                           with_deriv)
    return a, b


def s11_on_grid(profile, zs, with_deriv=False, x_match=0.0):
    """s11 (and optionally its z-derivative) for a batch of points in the
    closed upper half plane."""
    a, b = _halves(profile, zs, with_deriv, x_match)
    s11 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    if not with_deriv:
        return s11
    ds11 = (a[:, 2] * b[:, 1] + a[:, 0] * b[:, 3]
            - a[:, 3] * b[:, 0] - a[:, 1] * b[:, 2])
    return s11, ds11


def s11_from_integral(profile: InitialProfile, z: complex) -> complex:
    """Independent route to s11: 1 + integral of conj(q0) times the (1,2)
    Jost entry over the line, using densely sampled backward integration."""
    x_rev = profile.x[::-1]
    vals = _integrate_columns(profile, [z], "second", profile.x[-1],
                              profile.x[0], x_eval=x_rev)[0]
    m12 = vals[0][::-1]
    return complex(1.0 + np.trapezoid(np.conj(profile.q) * m12, profile.x))


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


def reflection_coefficient(profile: InitialProfile, z_grid) -> ScatteringData:
    zs = np.asarray(z_grid, dtype=float)
    a, b = _halves(profile, zs)
    d = _integrate_columns(profile, zs, "first", profile.x[-1], 0.0)
    s11 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    s21 = d[:, 0] * a[:, 1] - d[:, 1] * a[:, 0]
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


def _contour_moments(value_fn, box, n_side):
    """Winding count and the first two zero-location moments on a box.

    Returns (count, p1, p2, min|s|).  The phase is unwrapped along the
    sampled contour; sampling is doubled, at most three times, until
    adjacent phase steps are comfortably below pi.
    """
    for attempt in range(4):
        pts = _contour_points(box, n_side * 2 ** attempt)
        s = value_fn(pts)
        if np.any(s == 0) or not np.all(np.isfinite(s)):
            raise RuntimeError("contour hits a zero of s11 exactly")
        closed = np.concatenate([s, s[:1]])
        zc = np.concatenate([pts, pts[:1]])
        phase = np.unwrap(np.angle(closed))
        steps = np.abs(np.diff(phase))
        if steps.max() < 1.2:
            dlog = np.diff(np.log(np.abs(closed))) + 1j * np.diff(phase)
            mid = 0.5 * (zc[1:] + zc[:-1])
            winding = (phase[-1] - phase[0]) / (2 * np.pi)
            count = int(round(winding))
            if abs(winding - count) > 0.05:
                continue
            p1 = np.sum(mid * dlog) / (2j * np.pi)
            p2 = np.sum(mid * mid * dlog) / (2j * np.pi)
            return count, p1, p2, float(np.min(np.abs(s)))
    raise RuntimeError(
        "argument-principle contour did not resolve the phase; a zero may "
        "lie on or very near the box boundary")


def _circle_coeffs(value_fn, center, radius):
    """Taylor coefficients 0 to 3 of an analytic function from one circle
    of 64 samples (trapezoid rule, spectrally accurate), plus the winding
    number of the function along that circle."""
    n = 64
    phi = 2 * np.pi * np.arange(n) / n
    pts = center + radius * np.exp(1j * phi)
    s = value_fn(pts)
    hat = np.fft.fft(s) / n
    coeffs = np.array([hat[k] / radius ** k for k in range(4)])
    phase = np.unwrap(np.angle(np.concatenate([s, s[:1]])))
    winding = int(round((phase[-1] - phase[0]) / (2 * np.pi)))
    return coeffs, winding


def _newton(value_deriv_fn, z0, mult):
    z = complex(z0)
    best = (np.inf, z)
    stale = 0
    for _ in range(60):
        s, ds = value_deriv_fn(z)
        if abs(s) < best[0]:
            best = (abs(s), z)
            stale = 0
        else:
            stale += 1
            if stale >= 5:
                break
        if ds == 0 or not np.isfinite(ds):
            z += 1e-7 * (1 + 1j)
            continue
        step = mult * s / ds
        z -= step
        if abs(step) < 1e-9 * max(1.0, abs(z)):
            s, _ = value_deriv_fn(z)
            if abs(s) < best[0]:
                best = (abs(s), z)
            break
    return best[1]


def locate_zeros(profile: InitialProfile, box, tol: float = 1e-6,
                 merge_radius: float = 1e-3):
    """Zeros of s11 inside an upper-half-plane rectangle, with multiplicity.

    ``box`` is (re_min, re_max, im_min, im_max) with im_min > 0.  Counting
    is by the argument principle on the box boundary; boxes are subdivided
    until they hold at most two zeros (with multiplicity); locations are
    refined by Newton iteration with the co-integrated z-derivative and, for
    double zeros, polished from local Taylor coefficients.  A zero is
    classified as order 2 only when |s11'| < tol * |s11''| * radius at the
    refined point and the local winding number is 2.
    """
    re0, re1, im0, im1 = (float(v) for v in box)
    if im0 <= 0:
        raise ValueError("box must lie in the open upper half plane")
    if re0 >= re1 or im0 >= im1:
        raise ValueError("degenerate box")

    def values(zs):
        return s11_on_grid(profile, zs)

    def value_deriv(z):
        s, ds = s11_on_grid(profile, [z], with_deriv=True)
        return complex(s[0]), complex(ds[0])

    def moments_with_retry(bx):
        for grow in (0.0, 0.04, -0.03, 0.08):
            w, h = bx[1] - bx[0], bx[3] - bx[2]
            trial = (bx[0] - grow * w, bx[1] + grow * w,
                     max(bx[2] - grow * h, bx[2] * 0.5), bx[3] + grow * h)
            try:
                count, p1, p2, smin = _contour_moments(values, trial,
                                                       _SAMPLES_PER_SIDE)
            except RuntimeError:
                continue
            scale = np.hypot(trial[1] - trial[0], trial[3] - trial[2])
            if smin > 1e-9:
                return trial, count, p1, p2, scale
        raise RuntimeError("could not place a clean counting contour; "
                           "a zero sits (nearly) on every candidate boundary")

    def resolve_cluster(zc, bx, scale):
        """Tell a true double zero from a tight pair of simple zeros.

        Works from the local Taylor quadratic on a circle around the cluster
        center: a decisive root separation marks a pair; otherwise the
        order-2 criterion (small first derivative plus winding 2) applies at
        the re-centered point.  Marginal splits are settled by whether two
        independent Newton runs stay apart or collapse together.
        """
        rc = min(0.45 * zc.imag, 0.2 * scale)
        coeffs, winding = _circle_coeffs(values, zc, rc)
        shift = -coeffs[1] / (2.0 * coeffs[2])
        if abs(shift) < 0.3 * rc:
            zc = zc + shift
            coeffs, winding = _circle_coeffs(values, zc, rc)
        roots = np.roots([coeffs[2], coeffs[1], coeffs[0]])
        if abs(roots[0] - roots[1]) > 1e-4 * rc:
            za = _newton(value_deriv, zc + roots[0], 1)
            zb = _newton(value_deriv, zc + roots[1], 1)
            if abs(za - zb) > 0.5 * abs(roots[0] - roots[1]):
                if not (inside(za, bx) and inside(zb, bx)):
                    raise RuntimeError("refinement left the box")
                out = [(za, 1), (zb, 1)]
                _warn_if_close(out, merge_radius)
                return out
        if not (abs(coeffs[1]) < tol * abs(2.0 * coeffs[2]) * rc
                and winding == 2):
            raise RuntimeError(
                f"cluster near {zc!r} is neither a clean double zero nor a "
                "resolvable pair at working precision")
        return [(zc, 2)]

    def solve_box(bx, depth):
        bx, count, p1, p2, scale = moments_with_retry(bx)
        if count == 0:
            return []
        if count <= 2:
            try:
                return solve_leaf(bx, count, p1, p2, scale)
            except RuntimeError:
                if depth >= _MAX_DEPTH:
                    raise
        if depth >= _MAX_DEPTH:
            raise RuntimeError(
                f"zero search exceeded subdivision depth in box {bx}")
        re0_, re1_, im0_, im1_ = bx
        horizontal = re1_ - re0_ >= im1_ - im0_
        last_err = None
        # split the longer edge; retry with shifted cuts when the cut line
        # grazes a zero or the halves disagree with the parent count
        for frac in (0.5, 0.44, 0.57, 0.35, 0.65):
            if horizontal:
                mid = re0_ + frac * (re1_ - re0_)
                cut = mid + 1j * np.linspace(im0_, im1_, 33)
                parts = [(re0_, mid, im0_, im1_), (mid, re1_, im0_, im1_)]
            else:
                mid = im0_ + frac * (im1_ - im0_)
                cut = np.linspace(re0_, re1_, 33) + 1j * mid
                parts = [(re0_, re1_, im0_, mid), (re0_, re1_, mid, im1_)]
            if np.min(np.abs(values(cut))) <= 1e-9:
                continue
            try:
                found = []
                for part in parts:
                    found.extend(solve_box(part, depth + 1))
            except RuntimeError as err:
                last_err = err
                continue
            if sum(m for _, m in found) == count:
                return found
        raise RuntimeError(
            f"zero count mismatch after subdivision in box {bx}") from last_err

    def inside(z, bx):
        w, h = 0.15 * (bx[1] - bx[0]), 0.15 * (bx[3] - bx[2])
        return (bx[0] - w <= z.real <= bx[1] + w
                and bx[2] - h <= z.imag <= bx[3] + h)

    def solve_leaf(bx, count, p1, p2, scale):
        if count == 1:
            z = _newton(value_deriv, p1, 1)
            if not inside(z, bx):
                raise RuntimeError("refinement left the box")
            return [(z, 1)]
        e1, e2 = p1, (p1 * p1 - p2) / 2.0
        disc = np.sqrt(complex(e1 * e1 - 4.0 * e2))
        if abs(disc) > 0.05 * scale:
            out = []
            for guess in ((e1 + disc) / 2.0, (e1 - disc) / 2.0):
                z = _newton(value_deriv, guess, 1)
                if not inside(z, bx):
                    raise RuntimeError("refinement left the box")
                out.append((z, 1))
            _warn_if_close(out, merge_radius)
            return out
        zc = _newton(value_deriv, e1 / 2.0, 2)
        if not inside(zc, bx):
            raise RuntimeError("refinement left the box")
        return resolve_cluster(zc, bx, scale)

    found = solve_box((re0, re1, im0, im1), 0)
    found.sort(key=lambda pair: (pair[0].real, pair[0].imag))
    return [(complex(z), int(m)) for z, m in found]


def _warn_if_close(pairs, merge_radius):
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            gap = abs(pairs[i][0] - pairs[j][0])
            if gap < merge_radius:
                warnings.warn(
                    f"near-degenerate simple zeros separated by {gap:.2e}; "
                    "reporting both (not merging)", RuntimeWarning)


# ---------------------------------------------------------------------------
# Derivatives of s11 and norming constants
# ---------------------------------------------------------------------------

def s11_derivatives(profile, z_k: complex, s11_fn=None, other_zeros=()):
    """First three derivatives of s11 at a point of the open upper half
    plane by Cauchy circles at two radii (a half and a quarter of the
    distance to the real axis or the nearest other zero), cross-checked
    against each other to 1e-7 relative.

    ``s11_fn`` substitutes an analytic callable for the profile-based
    evaluation (used by tests and synthetic data paths).
    """
    z_k = complex(z_k)
    if z_k.imag <= 0:
        raise ValueError("derivatives are taken in the open upper half plane")

    if s11_fn is not None:
        values = lambda zs: np.asarray(s11_fn(np.asarray(zs)))  # noqa: E731
    else:
        if profile is None:
            raise ValueError("need a profile or an injected s11 callable")
        values = lambda zs: s11_on_grid(profile, zs)  # noqa: E731

    dist = z_k.imag
    for other in other_zeros:
        gap = abs(z_k - complex(other))
        if gap > 0:
            dist = min(dist, gap)

    # k! times the Taylor coefficient k, for k = 1, 2, 3, on both circles
    ref, other = (np.array([1.0, 2.0, 6.0])
                  * _circle_coeffs(values, z_k, frac * dist)[0][1:]
                  for frac in (0.5, 0.25))
    gap = np.abs(ref - other)
    scale = np.maximum(np.abs(ref), np.abs(other))
    if not np.all(gap <= 1e-7 * scale + 1e3 * _ATOL / 0.25 ** 3):
        worst = int(np.argmax(gap - 1e-7 * scale))
        raise RuntimeError(
            "circle quadrature for s11 derivatives did not converge: "
            f"order {worst + 1} disagrees by {gap[worst]:.3e} "
            f"(achieved relative {gap[worst] / max(scale[worst], 1e-300):.2e})")
    return tuple(complex(v) for v in ref)


def norming_constants(profile, z_k: complex, order: int = 2, derivs=None,
                      other_zeros=(), jost_fn=None) -> DiscreteDatum:
    """Connection constants at a confirmed zero, assembled into the pole
    datum used by the reconstruction engine.

    The proportionality constant b is the componentwise ratio of the two
    analytic Jost columns at (x, t) = (0, 0); for order 2 the second
    constant d comes from the z-differentiated matching relation, with the
    derivative columns co-integrated through the variational equations.
    ``jost_fn``, when given, must return (mu1_minus, mu2_plus) each of
    length 4: (m1, m2, dm1/dz, dm2/dz); it replaces the ODE solve.
    """
    z_k = complex(z_k)
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if jost_fn is not None:
        a, b_col = (np.asarray(v, dtype=np.complex128) for v in jost_fn(z_k))
    else:
        a2, b2 = _halves(profile, [z_k], with_deriv=True)
        a, b_col = a2[0], b2[0]

    mu1, dmu1 = a[:2], a[2:]
    mu2, dmu2 = b_col[:2], b_col[2:]
    denom = np.vdot(mu2, mu2)
    if denom == 0:
        raise RuntimeError("degenerate Jost column at the requested point")
    b_k = complex(np.vdot(mu2, mu1) / denom)
    defect = float(np.max(np.abs(mu1 - b_k * mu2)))
    scale = float(np.max(np.abs(mu1))) + float(np.max(np.abs(mu2)))
    if defect > _RATIO_TOL * scale:
        raise RuntimeError(
            f"columns are not proportional at z = {z_k!r} (defect "
            f"{defect:.3e}); not a zero of s11 at working precision")

    if order == 1:
        if derivs is None:
            _, ds11 = s11_on_grid(profile, [z_k], with_deriv=True)
            s1 = complex(ds11[0])
        else:
            s1 = complex(derivs[0])
        return DiscreteDatum(z_k, 1, c0=b_k / s1, c1=0.0, b=b_k)

    resid = dmu1 - b_k * dmu2
    d_k = complex(np.vdot(mu2, resid) / denom)
    defect2 = float(np.max(np.abs(resid - d_k * mu2)))
    scale2 = float(np.max(np.abs(resid))) + float(np.max(np.abs(mu2))) + 1e-300
    if defect2 > 10 * _RATIO_TOL * scale2:
        raise RuntimeError(
            f"derivative matching failed at z = {z_k!r} (defect {defect2:.3e});"
            " the zero is not of order 2 at working precision")

    if derivs is None:
        derivs = s11_derivatives(profile, z_k, other_zeros=other_zeros)
    s2, s3 = complex(derivs[1]), complex(derivs[2])
    a_k = 2.0 * b_k / s2
    b_big = d_k / b_k - s3 / (3.0 * s2)
    return DiscreteDatum(z_k, 2, c0=a_k * b_big, c1=a_k, b=b_k, d=d_k)


def extract_scattering(profile: InitialProfile, z_grid, box=None,
                       tol: float = 1e-6) -> ScatteringData:
    """Full forward map: reflection samples plus, when a search box is
    given, the located discrete spectrum with its constants."""
    data = reflection_coefficient(profile, z_grid)
    if box is None:
        return data
    zeros = locate_zeros(profile, box, tol=tol)
    discrete = []
    all_pts = [z for z, _ in zeros]
    for z, mult in zeros:
        others = [w for w in all_pts if w != z]
        discrete.append(norming_constants(profile, z, order=mult,
                                          other_zeros=others))
    return ScatteringData(data.z, data.r, tuple(discrete),
                          s11=data.s11, s21=data.s21)


# ---------------------------------------------------------------------------
# Serialization (full double precision round-trip)
# ---------------------------------------------------------------------------

def _complex_list(arr):
    return [[float(v.real), float(v.imag)] for v in np.asarray(arr)]


def _from_complex_list(lst):
    arr = np.asarray(lst, dtype=float)
    if arr.size == 0:
        return np.zeros(0, dtype=np.complex128)
    return arr[:, 0] + 1j * arr[:, 1]


def save_scattering(data: ScatteringData, path) -> None:
    doc = {
        "z_grid": [float(v) for v in data.z],
        "r": _complex_list(data.r),
        "s11": None if data.s11 is None else _complex_list(data.s11),
        "s21": None if data.s21 is None else _complex_list(data.s21),
        "discrete": [
            {
                "z": [d.z.real, d.z.imag],
                "order": d.order,
                "c0": [complex(d.c0).real, complex(d.c0).imag],
                "c1": [complex(d.c1).real, complex(d.c1).imag],
                "b": None if d.b is None else [complex(d.b).real, complex(d.b).imag],
                "d": None if d.d is None else [complex(d.d).real, complex(d.d).imag],
            }
            for d in data.discrete
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def load_scattering(path) -> ScatteringData:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    discrete = []
    for rec in doc["discrete"]:
        discrete.append(DiscreteDatum(
            z=rec["z"][0] + 1j * rec["z"][1],
            order=int(rec["order"]),
            c0=rec["c0"][0] + 1j * rec["c0"][1],
            c1=rec["c1"][0] + 1j * rec["c1"][1],
            b=None if rec["b"] is None else rec["b"][0] + 1j * rec["b"][1],
            d=None if rec["d"] is None else rec["d"][0] + 1j * rec["d"][1],
        ))
    return ScatteringData(
        np.asarray(doc["z_grid"], dtype=float),
        _from_complex_list(doc["r"]),
        tuple(discrete),
        s11=None if doc["s11"] is None else _from_complex_list(doc["s11"]),
        s21=None if doc["s21"] is None else _from_complex_list(doc["s21"]),
    )
