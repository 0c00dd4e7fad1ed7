import numpy as np
import pytest

from equimesh import SpheroidDomain, icosphere

# collected by tests/test_acceptance.py; printed after the run so each
# criterion gets one visible PASS/FAIL line even when pytest captures stdout
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def first_dt(mesh):
    """The engine's first time step at the default dt_scale 0.5, alpha 1."""
    h = mesh.mean_edge_length()
    return 0.5 * h * h


@pytest.fixture(scope="session")
def unit_sphere_2():
    return icosphere(2)


@pytest.fixture(scope="session")
def oblate_dom():
    return SpheroidDomain(kind="oblate", e=0.8, zeta0=1.1)


@pytest.fixture(scope="session")
def prolate_dom():
    return SpheroidDomain(kind="prolate", e=0.9, zeta0=0.9)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
