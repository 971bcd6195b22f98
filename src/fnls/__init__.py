"""Toolkit for multi-soliton solutions of the focusing nonlinear Schrodinger
equation with poles of any order: exact fields from discrete scattering data,
forward scattering from initial profiles, long-time asymptotics inside
space-time cones, and a split-step Fourier integrator to validate all of it.

Normalization used throughout: i q_t + (1/2) q_xx + |q|^2 q = 0.
"""

__version__ = "0.1.0"
