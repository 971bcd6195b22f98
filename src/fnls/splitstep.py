"""Split-step Fourier integrator for the focusing nonlinear Schrodinger
equation, plus PDE-side verification helpers.

The equation integrated is

    i q_t + (1/2) q_xx + |q|^2 q = 0

on a periodic domain.  Both sub-flows of the splitting are solved exactly:

* nonlinear sub-flow ``i q_t + |q|^2 q = 0``: since ``|q|`` is pointwise
  conserved by it, ``q <- q * exp(i |q|^2 dt)``;
* linear sub-flow ``i q_t + (1/2) q_xx = 0``: in Fourier space
  ``qhat_t = -(i/2) k^2 qhat``, so a flow over ``dt`` multiplies by
  ``exp(-i k^2 dt / 2)``.

A step is a composition of Strang sub-steps, one per weight: ``(1,)`` at
order 2, Yoshida's (1990) triple jump ``(w1, w0, w1)`` at order 4.  Adjacent
half-linear flows merge, so a step costs one FFT pair per weight, and the
linear factors are built once per segment between recorded times.  The
domain is periodic, so mass that reaches its edges wraps around: a run
reports the worst fraction of its mass in the outer sixteenth of each side
over the recorded slices (:attr:`Evolution.edge_fraction`) as data, for the
caller to judge, and raises no warning.

Below the integrator, :func:`pde_residual` checks a candidate solution
against the equation itself, and :func:`fourier_interpolate` reads a stored
slice between grid points, where exact solutions and asymptotic formulas
are compared with it.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import formatted, write_grid

__all__ = [
    "Grid",
    "Evolution",
    "split_step",
    "pde_residual",
    "fourier_interpolate",
    "save_evolution",
    "load_evolution",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on ``[x_min, x_max)`` with ``n`` Fourier modes."""

    n: int = 4096
    x_min: float = -40.0 * math.pi
    x_max: float = 40.0 * math.pi

    def __post_init__(self) -> None:
        # one point would count as both edges, and none has no spacing
        if not (isinstance(self.n, numbers.Integral) and self.n >= 2
                and math.isfinite(self.x_min) and math.isfinite(self.x_max)
                and self.x_min < self.x_max):
            raise ValueError(f"a grid needs n >= 2 modes, n an integer, on a finite "
                             f"domain with x_min < x_max, got n = {self.n} on "
                             f"[{self.x_min!r}, {self.x_max!r})")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        """Angular wavenumbers matching ``numpy.fft`` ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclass
class Evolution:
    """Field snapshots produced by :func:`split_step`."""

    grid: Grid
    t: np.ndarray           # sample times, first entry is the initial time
    q: np.ndarray           # shape (len(t), grid.n)

    @property
    def edge_fraction(self) -> float:
        """The worst fraction of mass near the domain edges over the stored
        slices; NaN if any slice's is."""
        return float(np.max([_edge_mass_fraction(q) for q in self.q]))

    def slice_at(self, t: float) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.t - t)))
        if not abs(self.t[idx] - t) <= 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} was not among the stored samples")
        return self.q[idx]

    def interp(self, t: float, x_new: np.ndarray) -> np.ndarray:
        """Evaluate the stored slice at time ``t`` on arbitrary points."""
        return fourier_interpolate(self.slice_at(t), self.grid, x_new)


def _edge_mass_fraction(q: np.ndarray) -> float:
    """Fraction of the total mass sitting in the outer 1/16 of each side."""
    n = q.shape[-1]
    m = max(1, n // 16)
    dens = np.abs(q) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    return float((np.sum(dens[:m]) + np.sum(dens[-m:])) / total)


# The triple jump's weights cancel the leading dt^2 error term.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_COMPOSITIONS = {2: (1.0,), 4: (_W1, _W0, _W1)}


def _composition_sweep(q: np.ndarray, k2: np.ndarray, h: float, steps: int,
                       weights: tuple[float, ...]) -> np.ndarray:
    """``steps`` steps of size ``h``, each a Strang sub-step of size ``w h``
    per weight ``w``, with the half-linear flows of adjacent sub-steps merged."""
    lin = -0.5j * h * k2        # the linear flow over one step, in Fourier space
    ends = np.exp(0.5 * weights[0] * lin)
    gaps = [np.exp(0.5 * (a + b) * lin)
            for a, b in zip(weights, weights[1:] + weights[:1])]
    # A new array, so the steps work on it in place (split_step stores copies);
    # cos + i sin of the real phase is bitwise numpy's exp of (+-0 + i theta)
    q = np.fft.ifft(np.fft.fft(q) * ends)
    theta, turn = np.empty(q.shape), np.empty_like(q)
    for s in range(steps):
        for j, w in enumerate(weights):
            np.multiply(q.real, q.real, out=theta)
            theta += np.multiply(q.imag, q.imag, out=turn.real)
            theta *= w * h
            np.cos(theta, out=turn.real)
            np.sin(theta, out=turn.imag)
            q *= turn
            np.fft.fft(q, out=q)
            q *= gaps[j] if s < steps - 1 or j < len(weights) - 1 else ends
            np.fft.ifft(q, out=q)
    return q


def split_step(
    q0: np.ndarray,
    grid: Grid,
    t_final: float,
    dt: float = 1e-3,
    t_start: float = 0.0,
    t_samples: np.ndarray | None = None,
    order: int = 2,
) -> Evolution:
    """Integrate the focusing NLS from ``t_start`` to ``t_final``.

    ``t_samples`` lists intermediate times to record, each in
    ``(t_start, t_final]`` (``t_final`` is always recorded; ``t_start`` is
    stored as the first slice).  Each inter-sample segment is integrated
    with a step as close to ``dt`` as divides it evenly, so the recorded
    times are hit exactly.

    ``order`` is 2 (Strang splitting) or 4 (the triple jump, for long runs
    that must beat tight tolerances); ``dt`` must be positive and finite,
    and the times and ``|q0|^2`` at every sample finite.
    """
    q = np.asarray(q0, dtype=np.complex128).copy()
    if q.shape != (grid.n,):
        raise ValueError("q0 must live on the supplied grid")
    with np.errstate(over="ignore"):
        bad = np.count_nonzero(~np.isfinite(q.real ** 2 + q.imag ** 2))
    if bad:
        raise ValueError(f"|q0|^2 must be finite at every sample; {bad} of {grid.n} are not")
    weights = _COMPOSITIONS.get(order)
    if weights is None:
        raise ValueError("order must be 2 or 4")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    for name, v in (("t_start", t_start), ("t_final", t_final)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    samples = set() if t_samples is None else {float(t) for t in t_samples}
    if any(not t_start < t <= t_final for t in samples):
        raise ValueError(f"sample times must lie in (t_start, t_final] = "
                         f"({t_start:g}, {t_final:g}], got {sorted(samples)}")
    if t_final == t_start:
        return Evolution(grid, np.array([t_start]), q[None, :].copy())
    if not t_final > t_start:
        raise ValueError(f"t_final must lie past t_start, got {t_final!r} "
                         f"<= {t_start!r}")

    k2 = grid.k ** 2
    out_t = [t_start]
    out_q = [q.copy()]

    t_prev = t_start
    for t_next in sorted(samples | {float(t_final)}):
        span = t_next - t_prev
        steps = max(1, int(round(span / dt)))
        q = _composition_sweep(q, k2, span / steps, steps, weights)
        out_t.append(t_next)
        out_q.append(q.copy())
        t_prev = t_next
    return Evolution(grid, np.array(out_t), np.array(out_q))


def pde_residual(
    q_fn,
    grid: Grid,
    t_values,
    h_t: float = 5e-3,
    x_window: tuple[float, float] | None = None,
) -> float:
    """Max of ``|i q_t + q_xx/2 + |q|^2 q|`` over the window and times.

    ``q_fn(x_array, t)`` must evaluate the candidate solution on the full
    periodic grid (needed for the spectral x-derivative).  The time derivative
    uses a 5-point fourth-order central stencil with spacing ``h_t``.  A NaN
    anywhere in the window makes the result NaN, which fails every gate.
    """
    x = grid.x
    if x_window is None:
        mask = np.ones_like(x, dtype=bool)
    else:
        mask = (x >= x_window[0]) & (x <= x_window[1])
        if not mask.any():
            raise ValueError("x_window contains no grid points")
    worst = 0.0
    for t in np.atleast_1d(np.asarray(t_values, dtype=float)):
        slices = [np.asarray(q_fn(x, t + j * h_t), dtype=np.complex128)
                  for j in (-2, -1, 0, 1, 2)]
        q_t = (slices[0] - 8 * slices[1] + 8 * slices[3] - slices[4]) / (12 * h_t)
        q_c = slices[2]
        q_xx = np.fft.ifft(-(grid.k ** 2) * np.fft.fft(q_c))
        res = 1j * q_t + 0.5 * q_xx + (np.abs(q_c) ** 2) * q_c
        worst = float(np.maximum(worst, np.max(np.abs(res[mask]))))
    return worst


def fourier_interpolate(q: np.ndarray, grid: Grid, x_new: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of a periodic slice anywhere
    (one value per point of ``x_new``, flattened).

    Each mode number is split as ``m = b hi + lo`` with ``lo`` in
    ``[-b/2, b/2)`` and b about sqrt(n), so that ``e^{i m theta}`` is
    ``e^{i lo theta} e^{i b hi theta}``: two tables of about sqrt(n)
    exponentials per point, one matrix product with the coefficients laid
    out by (hi, lo), and a row-wise dot product, in place of an n-column
    table.  Small modes keep ``hi = 0``, so their phases are as exact as in
    the direct synthesis.
    """
    q = np.asarray(q, dtype=np.complex128)
    theta = (np.ravel(np.asarray(x_new, dtype=float)) - grid.x_min) * (
        2.0 * math.pi / (grid.x_max - grid.x_min))
    mode = np.fft.fftfreq(grid.n, 1.0 / grid.n).round().astype(int)
    b = 2 * math.ceil(math.sqrt(grid.n) / 2)
    hi = (mode + b // 2) // b
    lo = mode - b * hi
    coeffs = np.zeros((hi.max() - hi.min() + 1, b), dtype=np.complex128)
    coeffs[hi - hi.min(), lo + b // 2] = np.fft.fft(q) / grid.n
    near = np.exp(1j * np.outer(theta, np.arange(-(b // 2), b - b // 2)))
    far = np.exp(1j * np.outer(theta, b * np.arange(hi.min(), hi.max() + 1)))
    return np.sum((near @ coeffs.T) * far, axis=1)


# ---------------------------------------------------------------------------
# Persistence: one plain-text CSV per slice plus a JSON manifest, so stored
# runs can be reloaded for offline comparison.
# ---------------------------------------------------------------------------

def save_evolution(ev: Evolution, directory, dt: float | None = None) -> None:
    """Write each stored slice as ``slice_NNNN.csv`` plus ``manifest.json``.

    ``dt`` is recorded in the manifest when known so offline consumers can
    see how the run was produced; it does not affect reloading.  The
    manifest is strict JSON: a non-finite ``edge_fraction``, the NaN of a
    run that blew up, is written as null.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    names, x = [], formatted(ev.grid.x)
    for i in range(len(ev.t)):
        name = f"slice_{i:04d}.csv"
        write_grid(path / name, np.stack([ev.q[i].real, ev.q[i].imag], axis=-1),
                   "x,re_q,im_q", x)
        names.append(name)
    manifest = {
        "grid": {"n": ev.grid.n, "x_min": ev.grid.x_min, "x_max": ev.grid.x_max},
        "dt": dt,
        "t": [float(v) for v in ev.t],
        "slices": names,
        "edge_fraction": float(ev.edge_fraction) if math.isfinite(ev.edge_fraction) else None,
    }
    with open(path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, allow_nan=False)


def load_evolution(directory) -> Evolution:
    """Reload an evolution written by :func:`save_evolution`."""
    path = Path(directory)
    with open(path / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    times = np.asarray(manifest["t"], dtype=float)
    if times.shape != (len(manifest["slices"]),):
        raise ValueError(f"the manifest lists {times.size} times for "
                         f"{len(manifest['slices'])} slices")
    if not np.all(np.isfinite(times)):
        raise ValueError("the manifest's times must be finite")
    g = manifest["grid"]
    grid = Grid(n=g["n"], x_min=float(g["x_min"]), x_max=float(g["x_max"]))
    slices = []
    for name in manifest["slices"]:
        arr = np.loadtxt(path / name, delimiter=",", comments="#")
        if arr.shape != (grid.n, 3):
            raise ValueError(f"slice file {name} does not match the manifest grid")
        slices.append(arr[:, 1] + 1j * arr[:, 2])
    return Evolution(grid, times, np.asarray(slices))
