import numpy as np
import pytest

from rho_toolkit import DiscGrid


def random_unitary(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def quick_grid():
    """Coarser grid than the default, for tests where speed matters more
    than certification strength."""
    return DiscGrid(radii=(0.2, 0.5, 0.8, 0.95, 0.999), angles_per_radius=16)
