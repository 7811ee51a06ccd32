import numpy as np
import pytest

from rho_toolkit import DiscGrid, null_profile, shift_radius, verify
from rho_toolkit.kernel import roots_of_unity

DISC_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)


def disc_points():
    """11 rings x 64 angles, radius-major: a disc sample whose outermost ring
    is the default ``DiscGrid`` ring, for minimum-principle checks."""
    ring = roots_of_unity(64)
    return np.concatenate([r * ring for r in DISC_RADII])


def random_unitary(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def orthogonal_conjugates(*ts):
    """Q T Q^T for each T, Q the Householder reflection of c09's oracle:
    K_z(Q T Q^T) = Q K_z(T) Q^T, so null spaces, principal angles and
    domination constants are those of T, but a weighted shift stops being
    one and takes the sampled Harnack route."""
    q = verify._householder(np.shape(ts[0])[0])
    return [q @ t @ q.T for t in ts]


@pytest.fixture(autouse=True)
def cold_solve_caches():
    """Each test starts with empty (n, rho) memos, so a test that counts
    solves or patches what they call sees every solve."""
    shift_radius.cache_clear()
    null_profile.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def quick_grid():
    """Coarser grid than the default, for tests where speed matters more
    than certification strength."""
    return DiscGrid(radii=(0.2, 0.5, 0.8, 0.95, 0.999), angles_per_radius=16)
