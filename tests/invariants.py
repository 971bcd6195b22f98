"""What split-step runs are checked against: the conserved quantities of
the focusing NLS and its one-soliton in closed form.

None of these is on a path ``fnls`` takes.
"""

from __future__ import annotations

import numpy as np

from fnls.splitstep import Evolution, Grid


def conserved(q: np.ndarray, grid: Grid) -> dict[str, float]:
    """Mass, momentum and energy of a field slice (spectral derivatives)."""
    q = np.asarray(q, dtype=np.complex128)
    qx = np.fft.ifft(1j * grid.k * np.fft.fft(q))
    dx = grid.dx
    mass = dx * float(np.sum(np.abs(q) ** 2))
    momentum = dx * float(np.sum(np.imag(np.conj(q) * qx)))
    energy = dx * float(np.sum(0.5 * np.abs(qx) ** 2 - 0.5 * np.abs(q) ** 4))
    return {"mass": mass, "momentum": momentum, "energy": energy}


def conserved_drift(ev: Evolution) -> dict[str, float]:
    """Largest relative drift of each conserved quantity across the samples."""
    base = conserved(ev.q[0], ev.grid)
    drift = {key: 0.0 for key in base}
    for slice_q in ev.q[1:]:
        cur = conserved(slice_q, ev.grid)
        for key in base:
            scale = max(1.0, abs(base[key]))
            drift[key] = max(drift[key], abs(cur[key] - base[key]) / scale)
    return drift


def sech_soliton(amplitude: float = 1.0):
    """Closed-form one-soliton ``A sech(A x) e^{i A^2 t / 2}`` as a callable."""

    def _eval(x: np.ndarray, t: float) -> np.ndarray:
        a = amplitude
        return a / np.cosh(a * np.asarray(x, dtype=float)) * np.exp(0.5j * a * a * t)

    return _eval
