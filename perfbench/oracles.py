"""Reference answers the benchmark checks the toolkit against.

Every oracle here is computed by the benchmark itself, outside the timed and
the traced regions, and does not route through the toolkit's bisection on
the disc grid:

* ``numerical_radius`` -- w_2(T), the classical numerical radius, as the
  maximum over theta of lambda_max(Re(e^{-i theta} T)) (Johnson, SIAM J.
  Numer. Anal. 15, 1978), on a dense angle grid polished by golden-section
  search around the best grid angles.
* ``sampled_numerical_radius`` -- the same maximum over ``angles`` equispaced
  angles only: the value a disc-grid route can resolve at rho = 2.  The
  kernel at |z| = 1, rho = 2 is Re((I - conj(z) T / g)^-1), which is positive
  semidefinite exactly when lambda_max(Re(conj(z) T)) <= g, so the grid
  route's answer is this maximum over the unit-circle angles it samples.
* ``closed_form_shift_radius`` -- w_rho of the unit-weight truncated shift
  where a closed form exists: 1 at rho = 1, cos(pi/(n+2)) at rho = 2 and
  n/(n+2) at rho = n + 2.
* ``rotated_shift_radius`` -- w_rho(U (b S) U*) = b w_rho(S), from the closed
  form where one exists and otherwise from the toolkit's shift route, which
  solves the angle system or the determinant recurrence and never samples
  the disc.
"""

from __future__ import annotations

import math

import numpy as np

ANGLE_GRID = 4096
POLISHED_PEAKS = 3
GOLDEN_STEPS = 90


def _lambda_max(t: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max(Re(e^{-i theta} T)) for each theta."""
    rot = np.exp(-1j * thetas)[:, None, None] * t[None, :, :]
    herm = 0.5 * (rot + np.conj(np.swapaxes(rot, -1, -2)))
    return np.linalg.eigvalsh(herm)[:, -1]


def numerical_radius(t: np.ndarray) -> float:
    """Classical numerical radius max_{|x|=1} |<Tx, x>| to about 1e-13."""
    thetas = 2.0 * math.pi * np.arange(ANGLE_GRID) / ANGLE_GRID
    values = _lambda_max(t, thetas)
    step = 2.0 * math.pi / ANGLE_GRID
    best = float(np.max(values))
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for i in np.argsort(values)[-POLISHED_PEAKS:]:
        lo, hi = thetas[i] - step, thetas[i] + step
        for _ in range(GOLDEN_STEPS):
            m1 = hi - inv_phi * (hi - lo)
            m2 = lo + inv_phi * (hi - lo)
            f1, f2 = _lambda_max(t, np.array([m1, m2]))
            if f1 < f2:
                lo = m1
            else:
                hi = m2
        best = max(best, float(_lambda_max(t, np.array([0.5 * (lo + hi)]))[0]))
    return best


def sampled_numerical_radius(t: np.ndarray, angles: int) -> float:
    """max over theta = 2 pi k / angles of lambda_max(Re(e^{-i theta} T))."""
    return float(np.max(_lambda_max(t, 2.0 * math.pi * np.arange(angles) / angles)))


def closed_form_shift_radius(n: int, rho: float) -> float | None:
    """w_rho of the unit-weight shift of size n + 1, or None without a closed form."""
    if rho == 1.0:
        return 1.0
    if rho == 2.0:
        return math.cos(math.pi / (n + 2))
    if rho == float(n + 2):
        return n / (n + 2.0)
    return None


def rotated_shift_radius(n: int, b: float, rho: float, shift_radius) -> float:
    """w_rho(U (b S_{n+1}) U*) for any unitary U: b times the shift's radius.

    ``shift_radius`` is the toolkit's shift route, used only where no closed
    form exists.
    """
    closed = closed_form_shift_radius(n, rho)
    return b * (closed if closed is not None else shift_radius(n, rho).value)
