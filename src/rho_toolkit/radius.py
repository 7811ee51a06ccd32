"""Computation of the rho-numerical radius w_rho.

By the Durszt congruence, gamma^2 K_z(T/gamma) is positive exactly when

    Q_z(gamma) = rho gamma^2 I - (rho - 1) gamma (conj(z) T + z T*) + (rho - 2) |z|^2 T*T

is, so the membership threshold of T/gamma at z is the largest real
eigenvalue of a companion matrix of Q_z (Tisseur and Meerbergen, SIAM Rev.
43, 2001; ``kernel.companion_threshold``).

* ``radius_bisect`` — any matrix: the largest threshold over the
  unit-circle samples, floored at max(spectral radius, norm/rho).
* ``shift_radius`` — the unit-weight truncated shift S of size n + 1: the
  threshold at z = 1.  Exact closed forms at rho = 1, n + 2.
* ``determinant_radius`` — the first weight where the z = 1 kernel stops
  being positive definite, by two bisections on [1, rho] that must agree
  (Sylvester's pivots, smallest eigenvalue); the oracle for ``shift_radius``.

For 1 < rho < n + 2 and n >= 2, x = w_rho and an angle w solve

    sin(n w) / sin(w) = rho x,
    cos(w) = (rho x^2 + rho - 2) / (2 x (rho - 1));

``shift_radius`` takes w from the cosine equation and checks the sine one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .determinants import kernel_det, kernel_det_matrix, kernel_is_positive
from .errors import BracketInvalidError, NoRootError, NotNilpotentError
from .kernel import DEFAULT_PSD_TOL, DiscGrid, companion_threshold, default_grid, grid_minimum
from .kernel import is_rho_contraction  # noqa: F401, bound by perfbench/test_bench.py
from .linalg import as_cmatrix, spectral_norm, spectral_radius

BISECT_MAX_ITER = 200
CERTIFICATE_TOL = 1e-6  # |lambda_min| at a radius, relative to the kernel's scale
ROUTE_AGREEMENT = 100.0  # tol units by which determinant_radius's bisections may part


@dataclass(frozen=True)
class RadiusResult:
    """A computed radius with its provenance.

    value     -- the computed w_rho
    method    -- one of grid_companion | companion | determinant_oracle | closed_form
    omega     -- auxiliary angle of the radius system when it exists, else None
    residual  -- defining-equation residual of the returned value
    bracket   -- final enclosing interval for the value
    """

    value: float
    method: str
    omega: float | None
    residual: float
    bracket: tuple[float, float]


def critical_rho(n: int) -> tuple[float, float]:
    """The parameter value where the recurrence discriminant vanishes at the
    normalized weight: (rho0, a0) = (n + 2, (n + 2)/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(n + 2), (n + 2.0) / n


def _boundary_min_eig(n: int, a: float, rho: float) -> float:
    """Smallest eigenvalue of the shift kernel at z = 1 and weight a."""
    return float(np.linalg.eigvalsh(kernel_det_matrix(n, a, rho))[0])


def determinant_radius(n: int, rho: float, tol: float = 1e-10) -> RadiusResult:
    """w_rho = 1/a* of the unit-weight shift, a* > 1 the first weight with a
    singular kernel at z = 1.

    The kernel is positive definite at a = 1 (BracketInvalidError if not) and
    not at a = rho (minor rho^2 - a^2).  Assuming the positive definite weights
    form the interval [1, a*), which no sampled (n, rho) contradicts, a* is
    bisected on [1, rho] twice: on Sylvester's criterion (``kernel_is_positive``)
    and on the smallest eigenvalue, which must agree to ROUTE_AGREEMENT * tol
    (NoRootError).  ``bracket`` is the last Sylvester interval as radii.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not rho > 1:
        raise ValueError("determinant route requires rho > 1")
    if not kernel_is_positive(n, 1.0, rho):
        raise BracketInvalidError("kernel not positive definite at a = 1")

    def bisect(positive) -> tuple[float, float]:
        lo, hi = 1.0, float(rho)
        for _ in range(BISECT_MAX_ITER):
            if hi - lo < tol * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            if positive(mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    lo, hi = bisect(lambda a: kernel_is_positive(n, a, rho))
    a_star = 0.5 * (lo + hi)
    a_eig = 0.5 * sum(bisect(lambda a: _boundary_min_eig(n, a, rho) > 0))
    if abs(a_star - a_eig) > ROUTE_AGREEMENT * tol * max(1.0, a_star):
        raise NoRootError(
            f"Sylvester and eigenvalue routes disagree: {a_star!r} vs {a_eig!r}"
        )
    resid = abs(_boundary_min_eig(n, a_star, rho))
    return RadiusResult(value=1.0 / a_star, method="determinant_oracle", omega=None,
                        residual=resid, bracket=(1.0 / hi, 1.0 / lo))


def _system_residual(n: int, rho: float, x: float, w: float) -> float:
    """Worst residual of the two original angle-system equations."""
    r1 = abs(math.sin(n * w) / math.sin(w) - rho * x)
    r2 = abs(math.cos(w) - (rho * x * x + rho - 2.0) / (2.0 * x * (rho - 1.0)))
    return max(r1, r2)


def shift_radius(n: int, rho: float, tol: float = 1e-9) -> RadiusResult:
    """w_rho of the unit-weight truncated shift of size n + 1, any rho >= 1.

    Exact at rho = 1 (norm 1) and rho = n + 2 (n/(n+2)); otherwise the
    companion threshold x of S at z = 1 (module docstring).  NoRootError
    when the z = 1 kernel at weight 1/x is not singular to CERTIFICATE_TOL rho
    (x = -inf, no real eigenvalue, included) or the radius system misses
    ``tol`` at (x, omega).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if rho < 1:
        raise ValueError("rho must be >= 1")

    if rho == 1.0:
        return RadiusResult(value=1.0, method="closed_form", omega=None,
                            residual=0.0, bracket=(1.0, 1.0))
    if rho == float(n + 2):
        value = n / (n + 2.0)
        resid = abs(kernel_det(n, 1.0 / value, rho)) / rho ** n
        return RadiusResult(value=value, method="closed_form", omega=None,
                            residual=resid, bracket=(value, value))

    x = float(companion_threshold(np.eye(n + 1, k=1), np.ones(1), rho)[0])
    certificate = abs(_boundary_min_eig(n, 1.0 / x, rho))
    if certificate > CERTIFICATE_TOL * rho:
        raise NoRootError(
            f"companion eigenvalue {x!r} is off the kernel positivity boundary "
            f"(certificate {certificate:.3e}) for n={n}, rho={rho}"
        )
    w, resid = None, 0.0
    if n >= 2 and rho < n + 2:
        cos_w = (rho * x * x + rho - 2.0) / (2.0 * x * (rho - 1.0))
        if not -1.0 < cos_w < 1.0:
            raise NoRootError(f"no angle: cos(omega) = {cos_w!r} for n={n}, rho={rho}")
        w = math.acos(cos_w)
        # the cosine form loses digits like 1/(rho - 1) as rho -> 1; one
        # Newton step on the sine equation, well conditioned there, restores them
        sw = math.sin(w)
        u = math.sin(n * w) / sw
        w -= (u - rho * x) * sw / (n * math.cos(n * w) - u * cos_w)
        resid = _system_residual(n, rho, x, w)
        if resid > tol:
            raise NoRootError(f"angle-system residual {resid:.3e} exceeds {tol:.1e}")
    return RadiusResult(value=x, method="companion", omega=w,
                        residual=max(certificate, resid), bracket=(x, x))


def radius_bisect(t, rho: float, grid: DiscGrid | None = None) -> RadiusResult:
    """w_rho(T) of any matrix: max(lo, largest ``companion_threshold`` over
    the torus samples), lo = max(spectral radius, norm/rho).  No interior
    threshold exceeds that value (minimum principle, ``grid_minimum``).

    lo >= norm (rho = 1, normal T, T = 0) is exact: ``closed_form``.  A largest
    threshold x > lo is certified by |lambda_min Q_w(x)| <= CERTIFICATE_TOL rho
    x^2 at its witness w (NoRootError if not); x above the norm is a bug
    (BracketInvalidError).
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    a = as_cmatrix(t)
    norm = spectral_norm(a)
    lo = max(spectral_radius(a), norm / rho)
    if lo >= norm:
        return RadiusResult(value=lo, method="closed_form", omega=None,
                            residual=0.0, bracket=(lo, lo))
    w, neg = grid_minimum(lambda zs: -companion_threshold(a, zs, rho),
                          grid or default_grid(), True)
    if -neg <= lo:
        # T/lo is a member at every sample; w need not be on its boundary
        return RadiusResult(value=lo, method="grid_companion", omega=None,
                            residual=0.0, bracket=(lo, lo))
    x = -neg
    if x > norm * (1.0 + DEFAULT_PSD_TOL):
        raise BracketInvalidError(f"grid value {x!r} exceeds ||T|| = {norm!r} at "
                                  f"rho={rho}: w_rho <= ||T|| fails, a bug")
    astar = np.conj(a.T)
    q = (rho * x * x * np.eye(a.shape[0]) - (rho - 1.0) * x * (np.conj(w) * a + w * astar)
         + (rho - 2.0) * abs(w) ** 2 * (astar @ a))
    certificate = abs(float(np.linalg.eigvalsh(q)[0]))
    if certificate > CERTIFICATE_TOL * rho * x * x:
        raise NoRootError(f"grid value {x!r} is off the positivity boundary at "
                          f"z={w!r} (certificate {certificate:.3e}), rho={rho}")
    return RadiusResult(value=x, method="grid_companion", omega=None,
                        residual=certificate, bracket=(x, x))


def nilpotent_bound(m: int, t, tol: float = 1e-5) -> bool:
    """Check w_{m+1}(T) <= (m-1)/(m+1) ||T|| for a matrix with T^m = 0.

    Raises NotNilpotentError when ||T^m|| exceeds 1e-10 ||T||^m.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    a = as_cmatrix(t)
    norm = spectral_norm(a)
    power = np.linalg.matrix_power(a, m)
    if spectral_norm(power) > 1e-10 * norm ** m:
        raise NotNilpotentError(f"||T^{m}|| = {spectral_norm(power):.3e} is not ~0")
    w = radius_bisect(a, float(m + 1)).value
    return w <= (m - 1.0) / (m + 1.0) * norm + tol


def omega_of_rho_curve(n: int, rho_samples) -> list[tuple[float, float]]:
    """Angle of the radius system at each sample; strict decrease in rho is
    asserted (samples must lie in (1, n+2), n >= 2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    samples = [float(r) for r in rho_samples]
    if any(not 1.0 < r < n + 2 for r in samples):
        raise ValueError("samples must lie inside (1, n+2)")
    curve = []
    for r in samples:
        res = shift_radius(n, r)
        if res.omega is None:
            raise NoRootError(f"no angle at rho={r}")
        curve.append((r, res.omega))
    ordered = sorted(curve)
    for (r1, w1), (r2, w2) in zip(ordered, ordered[1:]):
        if r2 > r1 and not w2 < w1:
            raise AssertionError(
                f"angle failed to decrease: omega({r1})={w1!r}, omega({r2})={w2!r}"
            )
    return curve
