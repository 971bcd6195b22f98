"""Quantitative acceptance gates for the whole toolkit.

Each ``criterion_*`` function runs one self-contained experiment tying the
closed-form pole solutions, the forward scattering map, the cone asymptotics
and the split-step integrator to each other, and returns its numbers
(measured value, threshold, pass flag, detail).  ``run_all`` runs the ones
asked for and makes each outcome a :class:`CriterionResult`, a gate that
raises included; the command-line ``verify`` subcommand and the acceptance
test suite both feed from here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .asymptotics import pc_coefficients, q_asymptotic
from .phase import delta_fn, nu_of, partition
from .scattering import (
    DiscreteDatum,
    ScatteringData,
    extract_scattering,
    gaussian_profile,
    reflection_coefficient,
    sech_profile,
    soliton_profile,
)
from .solitons import restrict_to_interval, solve_soliton, soliton_field
from .splitstep import Grid, pde_residual, split_step

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    id: str
    description: str
    measured: float
    threshold: float
    passed: bool
    detail: str
    seconds: float      # wall time of the gate, a gate that raised included

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (f"[{status}] criterion {self.id}: measured {self.measured:.6g}"
               f" vs threshold {self.threshold:.6g} -- {self.description}")
        if self.detail:
            out += f" ({self.detail})"
        return out + f" [{self.seconds:.1f} s]"


_DOUBLE_POLE = (DiscreteDatum(1j, (1.0, 0.0)),)


def criterion_1():
    """Closed-form double-pole field satisfies the equation pointwise."""
    grid = Grid(n=4096, x_min=-20.0 * math.pi, x_max=20.0 * math.pi)

    def q_fn(x, t):
        return soliton_field(_DOUBLE_POLE, x, t)

    # the collision transient near t = 0 has a large fifth time derivative;
    # the stencil spacing is chosen so the finite-difference floor sits
    # well under the gate
    res = pde_residual(q_fn, grid, (0.0, 0.25, 0.5, 0.75, 1.0),
                       h_t=2e-3, x_window=(-20.0, 20.0))
    return res, 1e-6, res < 1e-6, ""


def criterion_2():
    """Evolving the t = 0 slice numerically reproduces the closed form."""
    grid = Grid(n=4096, x_min=-20.0 * math.pi, x_max=20.0 * math.pi)
    q0 = soliton_field(_DOUBLE_POLE, grid.x, 0.0)
    ev = split_step(q0, grid, 10.0, dt=5e-4, order=4)
    err = float(np.max(np.abs(ev.slice_at(10.0)
                              - soliton_field(_DOUBLE_POLE, grid.x, 10.0))))
    return err, 1e-6, err < 1e-6, ""


def criterion_3():
    """Poles outside the cone's velocity window decay exponentially fast."""
    data = (DiscreteDatum(1j, (1.0, 0.3 - 0.1j)),
            DiscreteDatum(0.6 + 0.35j, (0.8, 0.5j)))
    cone = (-1.0, 1.0, -0.5, 0.5)
    ts = np.linspace(2.0, 12.0, 11)
    x = 0.1 * ts
    part = partition(data, cone)
    full = solve_soliton(data, x, ts).q
    kept = solve_soliton(restrict_to_interval(data, part.I), x, ts).q
    diffs = np.abs(full - kept)
    slope = float(np.polyfit(ts, np.log(diffs), 1)[0])
    mu = part.mu_I
    return (slope, -2.0 * mu, slope <= -2.0 * mu,
            f"mu(I) = {mu:.4f}, diffs {diffs[0]:.2e} -> {diffs[-1]:.2e}")


def criterion_4():
    """Dispersive remainder: scaled error stays bounded along x = 0."""
    profile = gaussian_profile(0.3, np.linspace(-8.0, 8.0, 641))
    # the route ``fnls scatter`` runs
    sc = extract_scattering(profile, np.linspace(-4.0, 4.0, 321),
                            box=(-1.0, 1.0, 0.05, 1.0))
    if sc.discrete:
        raise RuntimeError("unexpected discrete spectrum "
                           f"{[(d.z, d.order) for d in sc.discrete]}")

    grid = Grid(n=16384, x_min=-160.0 * math.pi, x_max=160.0 * math.pi)
    q0 = 0.3 * np.exp(-grid.x ** 2)
    ev = split_step(q0, grid, 80.0, dt=4e-3, t_samples=[20.0, 40.0], order=4)
    j0 = int(np.argmin(np.abs(grid.x)))
    cone = (-1.0, 1.0, -0.05, 0.05)
    scaled = []
    for t in (20.0, 40.0, 80.0):
        q_pde = complex(ev.slice_at(t)[j0])
        q_asym = q_asymptotic(0.0, t, sc, cone).q_total
        scaled.append(t ** 0.75 * abs(q_pde - q_asym))
    ratio = float(np.max(scaled) / np.min(scaled))
    return (ratio, 3.0, ratio < 3.0 and scaled[-1] <= scaled[0],
            "t^(3/4)|q-q_asym| = " + ", ".join(f"{e:.4g}" for e in scaled))


def criterion_5():
    """Bundle of closed-form identities; measured value is the worst
    part-wise ratio to its own tolerance (pass iff < 1)."""
    parts = []

    # (a) coefficient modulus identity
    worst_a = 0.0
    for nu in (-0.05, -0.11, -0.3):
        r0 = math.sqrt(math.expm1(-2.0 * math.pi * nu)) * np.exp(0.4j)
        pc = pc_coefficients(complex(r0), nu)
        worst_a = float(np.maximum(worst_a, abs(abs(pc.beta12) ** 2 - abs(nu))))
    parts.append(("|beta12|^2 = |nu|", worst_a, 1e-10))

    s = np.linspace(-5.0, 5.0, 2001)
    r = 0.8 * np.exp(-s ** 2 / 2.0) * np.exp(0.3j * s)
    sc = ScatteringData(s, r, ())
    z0 = 0.6

    # (b) large-z coefficient of delta, -i times the integral of nu over
    # (-inf, z0], via Richardson extrapolation; the three-point rule removes
    # both the 1/z and 1/z^2 truncation terms.  The integral is the
    # trapezoid rule on the samples closed at z0, nu linear between them as
    # the ray models it, and reads none of the quadrature inside delta
    def coef(rr):
        z = complex(0.0, rr)
        return z * (delta_fn(z, sc, z0) - 1.0)

    est = (8.0 * coef(1600.0) - 6.0 * coef(800.0) + coef(400.0)) / 3.0
    nu = nu_of(np.abs(r))
    left = s < z0
    integral = np.trapezoid(np.append(nu[left], np.interp(z0, s, nu)),
                            np.append(s[left], z0))
    parts.append(("large-z coefficient of delta", abs(est + 1j * integral), 1e-6))

    # (c) unitarity of the scattering row on a two-sech profile
    prof = sech_profile(2.0, np.linspace(-26.0, 26.0, 1041))
    sc2 = reflection_coefficient(prof, np.linspace(-2.0, 2.0, 41))
    unit = np.abs(np.abs(sc2.s11) ** 2 + np.abs(sc2.s21) ** 2 - 1.0)
    parts.append(("|s11|^2 + |s21|^2 = 1", float(np.max(unit)), 1e-8))

    worst = float(np.max([v / tol for _, v, tol in parts]))
    detail = "; ".join(f"{name}: {v:.3g} (tol {tol:g})"
                       for name, v, tol in parts)
    return worst, 1.0, worst < 1.0, detail


def criterion_6():
    """Forward scattering on a generated double-pole slice recovers the
    generating spectrum and constants."""
    datum = DiscreteDatum(1j, (1.1 + 0.55j, 0.36 - 0.24j))
    profile = soliton_profile((datum,), np.linspace(-16.0, 16.0, 6401))
    # the route ``fnls scatter`` runs; one real point for its reflection part
    discrete = extract_scattering(profile, [0.0], box=(-0.5, 0.5, 0.5, 1.5)).discrete
    if len(discrete) != 1 or discrete[0].order != 2:
        raise RuntimeError(f"located {[(rec.z, rec.order) for rec in discrete]}")
    rec, = discrete
    zero_err = abs(rec.z - 1j)
    c1_err, c0_err = (abs(a - b) / abs(b)
                      for a, b in zip(rec.coefficients, datum.coefficients))
    worst = float(np.max([zero_err / 1e-4, c0_err / 1e-3, c1_err / 1e-3]))
    return (worst, 1.0, worst < 1.0,
            f"|z-i| = {zero_err:.2e}, rel c0 = {c0_err:.2e}, rel c1 = {c1_err:.2e}")


def criterion_7():
    """Random pole systems stay well-posed with tiny backward residuals."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        data = []
        for _ in range(n):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
            order = int(rng.integers(1, 3))
            c0 = complex(rng.normal(), rng.normal())
            c1 = complex(rng.normal(), rng.normal()) if order == 2 else 0.0
            data.append(DiscreteDatum(z, (c1, c0)[2 - order:]))
        x = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(-2.0, 2.0))
        state = solve_soliton(tuple(data), x, t)
        worst = float(np.maximum(worst, state.residual))
    return worst, 1e-10, worst < 1e-10, ""


CRITERIA = {
    "1": (criterion_1, "double-pole field PDE residual on x in [-20,20], t in [0,1]"),
    "2": (criterion_2, "split-step evolution matches the closed form at t = 10"),
    "3": (criterion_3, "cone localisation error decay rate (log-linear fit slope)"),
    "4": (criterion_4, "dispersive remainder bounded (scaled-error ratio)"),
    "5": (criterion_5, "identity bundle (worst part-wise ratio to tolerance)"),
    "6": (criterion_6, "scattering round trip (worst ratio to tolerance)"),
    "7": (criterion_7, "worst scaled residual over 200 random pole systems"),
}


def run_all(which=None) -> list[CriterionResult]:
    """Run the criteria with the ids ``which`` (all when ``None``), in that
    order.  Every id is checked before any gate runs.  A gate that raises
    fails, with its error as the detail, and the gates after it still run.
    Each record carries the seconds its gate took."""
    ids = list(CRITERIA) if which is None else [str(w) for w in which]
    for cid in ids:
        if cid not in CRITERIA:
            raise ValueError(f"unknown criterion {cid!r}")
    out = []
    for cid in ids:
        gate, description = CRITERIA[cid]
        start = time.perf_counter()
        try:
            outcome = gate()
        except Exception as exc:
            outcome = math.inf, math.nan, False, f"{type(exc).__name__}: {exc}"
        out.append(CriterionResult(cid, description, *outcome,
                                   time.perf_counter() - start))
    return out
