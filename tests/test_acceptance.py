"""End-to-end acceptance gates.

Each test runs one quantitative criterion from ``fnls.acceptance`` and
asserts its pass flag, so ``pytest -v`` prints one pass/fail line per
criterion.  The measured value, threshold and a short description are
echoed both to stdout and into the assertion message, so a red test
states exactly which gate failed and by how much.

The slowest gates drive the split-step integrator over long windows;
the whole file takes a few minutes of CPU.
"""

from __future__ import annotations

import warnings

import pytest

from fnls.acceptance import CRITERIA


def _run(cid: str) -> None:
    # The criteria raise no warning; a new one fails the gate it comes from.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = CRITERIA[cid]()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_closed_form_solves_pde():
    _run("1")


def test_criterion_2_integrator_tracks_exact_solution():
    _run("2")


def test_criterion_3_cone_restriction_error_decays():
    _run("3")


def test_criterion_4_dispersive_correction_rate():
    _run("4")


def test_criterion_5_phase_factor_identities():
    _run("5")


def test_criterion_6_scattering_roundtrip():
    _run("6")


def test_criterion_7_symmetry_sweep():
    _run("7")
