"""End-to-end acceptance gates.

One parametrized test runs each quantitative criterion of
``fnls.acceptance`` through ``run_all`` and asserts its pass flag, so
``pytest -v`` prints one pass/fail line per criterion, named by its
description.  The record's line (measured value, threshold, description,
detail and seconds) is echoed both to stdout and into the assertion
message, so a red test states exactly which gate failed and by how much.
A warning raised inside a gate is an error there, so it fails that gate.

The slowest gates drive the split-step integrator over long windows;
the whole file takes a few minutes of CPU.
"""

from __future__ import annotations

import math
import warnings

import pytest

from fnls.acceptance import CRITERIA, run_all


@pytest.mark.parametrize("cid", list(CRITERIA),
                         ids=[description for _, description in CRITERIA.values()])
def test_criterion(cid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (result,) = run_all([cid])
    print(result.line())
    assert result.passed, result.line()
    assert math.isfinite(result.seconds) and result.seconds >= 0.0
