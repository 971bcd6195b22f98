from types import SimpleNamespace

import numpy as np
import pytest

from fnls import phase
from fnls.scattering import soliton_profile
from fnls.solitons import DiscreteDatum, OrientedData


@pytest.fixture
def ray_builds(monkeypatch):
    """A list that records every construction of the phase module's ray
    quadrature while the test runs."""
    built = []

    class Counted(phase._RayDensity):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(phase, "_RayDensity", Counted)
    return built


@pytest.fixture(scope="session")
def triple_pole():
    """An order-3 pole at i with constants ``(c_2, c_1, c_0) = (1, 0.2 +
    0.1i, 0.3)``, sampled at t = 0 on 8001 points of [-20, 20]: ``z``,
    ``coefficients`` and ``profile``.  ``DiscreteDatum`` holds orders 1 and
    2 only, so the order is set past its check and the constants are
    passed as a stack of one point."""
    datum = DiscreteDatum(1j, order=2, c0=0.3, c1=1.0)
    object.__setattr__(datum, "order", 3)
    coefficients = (1.0, 0.2 + 0.1j, 0.3)
    data = OrientedData((datum,), ("lower",), np.array([[coefficients]], dtype=complex))
    profile = soliton_profile(data, np.linspace(-20.0, 20.0, 8001))
    return SimpleNamespace(z=1j, coefficients=coefficients, profile=profile)
