import pytest

from fnls import phase


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
