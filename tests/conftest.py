from types import SimpleNamespace

import numpy as np
import pytest

from fnls import phase
from fnls.scattering import soliton_profile
from fnls.solitons import DiscreteDatum


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
    0.1i, 0.3)``, sampled at t = 0 on 8001 points of [-20, 20]: ``datum``,
    ``z`` and ``profile``."""
    datum = DiscreteDatum(1j, (1.0, 0.2 + 0.1j, 0.3))
    profile = soliton_profile((datum,), np.linspace(-20.0, 20.0, 8001))
    return SimpleNamespace(datum=datum, z=datum.z, profile=profile)
