"""Computation of the rho-numerical radius w_rho.

By the Durszt congruence, gamma^2 K_z(T/gamma) is positive exactly when

    Q_z(gamma) = rho gamma^2 I - (rho - 1) gamma (conj(z) T + z T*) + (rho - 2) |z|^2 T*T

is, so the membership threshold of T/gamma at z is the largest real
eigenvalue of a companion matrix of Q_z (Tisseur and Meerbergen, SIAM Rev.
43, 2001; ``kernel.companion_threshold``).

* ``radius_bisect`` — any matrix: the largest threshold on the unit
  circle, floored at max(spectral radius, norm/rho), by the level-set
  (criss-cross) iteration of Boyd and Balakrishnan (Systems Control Lett.
  15, 1990) and Mengi and Overton (IMA J. Numer. Anal. 25, 2005): each step
  finds every point where Q_z(gamma) is singular from one 2d x 2d
  eigenproblem and moves gamma to the best midpoint threshold.
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
from dataclasses import dataclass, field

import numpy as np

from .determinants import kernel_det, kernel_det_matrix, kernel_is_positive
from .errors import BracketInvalidError, NoRootError, NotNilpotentError
from .kernel import DEFAULT_PSD_TOL, companion_threshold, roots_of_unity
from .kernel import is_rho_contraction  # noqa: F401, bound by perfbench/test_bench.py
from .linalg import as_cmatrix, spectral_norm, spectral_radius

BISECT_MAX_ITER = 200
CERTIFICATE_TOL = 1e-6  # |lambda_min| at a radius, relative to the kernel's scale
LEVEL_GAP = 1e-10  # relative height above the level set's value that no threshold reaches
CROSSING_TOL = 1e-4  # |Im s| cut-off, relative to max(1, |s|), of a candidate crossing
ROUTE_AGREEMENT = 100.0  # tol units by which determinant_radius's bisections may part


@dataclass(frozen=True)
class RadiusResult:
    """A computed radius with its provenance.

    value     -- the computed w_rho
    method    -- one of level_set | companion | determinant_oracle | closed_form
    omega     -- auxiliary angle of the radius system when it exists, else None
    residual  -- defining-equation residual of the returned value
    bracket   -- final enclosing interval for the value
    stats     -- how the value was found; filled by ``radius_bisect``'s level
                 set (iterations, threshold_points, crossing_tol, witness),
                 empty for ``shift_radius``, ``determinant_radius`` and the
                 closed forms
    """

    value: float
    method: str
    omega: float | None
    residual: float
    bracket: tuple[float, float]
    stats: dict = field(default_factory=dict)


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


def _q(a: np.ndarray, rho: float, g: float, z: complex) -> np.ndarray:
    """Q_z(g) at a unit-circle point z (module docstring)."""
    astar = np.conj(a.T)
    return (rho * g * g * np.eye(a.shape[0]) - (rho - 1.0) * g * (np.conj(z) * a + z * astar)
            + (rho - 2.0) * (astar @ a))


def _crossing_angles(a: np.ndarray, rho: float, g: float, z0: complex) -> np.ndarray:
    """Angles psi in (0, 2 pi), increasing, of the candidate points z0 e^{i psi}
    where Q_z(g) is singular.

    z = z0 (s + i)/(s - i) turns (s^2 + 1) Q_z(g) into s^2 Q_z0(g) + s B +
    Q_-z0(g), B = 2 i (rho - 1) g (conj(z0) T - z0 T*), whose real roots s
    give psi = 2 atan2(1, s).  With Q_z0(g) = L L* the roots are those of the
    monic Hermitian L^-1 (...) L^-*, read off its companion scaled by
    s = alpha mu, alpha^2 = ||L^-1 Q_-z0(g) L^-*|| (Fan, Lin and Van Dooren,
    SIAM J. Matrix Anal. Appl. 26, 2004).  Roundoff moves a real root off the
    axis by up to a few 1e-6 on ill-conditioned inputs, farther than some
    complex pairs near a peak lie, so no cut-off tells them apart: every root
    within CROSSING_TOL is a candidate and the caller judges each arc at its
    midpoint.  NoRootError unless Q_z0(g) is positive definite.
    """
    try:
        inv = np.linalg.inv(np.linalg.cholesky(_q(a, rho, g, z0)))
    except np.linalg.LinAlgError as exc:
        raise NoRootError(f"Q_z0 is not positive definite at z0={z0!r}, level {g!r}") from exc
    d = a.shape[0]
    mid = inv @ (2j * (rho - 1.0) * g * (np.conj(z0) * a - z0 * np.conj(a.T))) @ np.conj(inv.T)
    low = inv @ _q(a, rho, g, -z0) @ np.conj(inv.T)
    alpha = math.sqrt(np.linalg.norm(low))
    c = np.zeros((2 * d, 2 * d), dtype=complex)
    c[:d, :d], c[:d, d:], c[d:, :d] = -mid / alpha, -low / alpha ** 2, np.eye(d)
    s = alpha * np.linalg.eigvals(c)
    s = s[np.abs(s.imag) <= CROSSING_TOL * np.maximum(1.0, np.abs(s))].real
    return np.sort(2.0 * np.arctan2(1.0, s))


def radius_bisect(t, rho: float) -> RadiusResult:
    """w_rho(T) of any matrix: max(lo, largest threshold on the unit circle),
    lo = max(spectral radius, norm/rho), by a level-set iteration.  No
    interior threshold exceeds that value: above it Q_z > 0 on the circle, so
    K_z(T/gamma) >= 0 on the whole disc (minimum principle: K_z is harmonic
    in z there, so lambda_min K_z is least on the circle).

    lo >= norm (rho = 1, normal T, T = 0) is exact: ``closed_form``.
    Otherwise g starts at max(lo, largest ``companion_threshold`` over 8
    roots of unity), anchored at z0, the sample of least threshold.  Each
    step finds the candidate crossings of the level g (1 + LEVEL_GAP)
    (``_crossing_angles``) and the thresholds at the midpoints of consecutive
    ones; g becomes the largest of them while it exceeds the level, and the
    iteration stops when none does (NoRootError after BISECT_MAX_ITER
    steps).  An arc above the level lies between two crossings, so its
    midpoint would exceed the level: the result is ``level_set`` with
    bracket (x, x (1 + LEVEL_GAP)), x attained (or lo) and no circle
    threshold above the upper end, to the accuracy of ``companion_threshold``
    (about 3e-10 relative at rho = 300).  A threshold x > lo is certified by
    |lambda_min Q_w(x)| <= CERTIFICATE_TOL rho x^2 at its witness w
    (NoRootError if not); x above the norm is a bug (BracketInvalidError).
    ``stats`` holds the steps, the threshold points, the crossing cut-off and
    the witness; the other routes leave it empty.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    a = as_cmatrix(t)
    norm = spectral_norm(a)
    lo = max(spectral_radius(a), norm / rho)
    if lo >= norm:
        return RadiusResult(value=lo, method="closed_form", omega=None,
                            residual=0.0, bracket=(lo, lo))
    zs = roots_of_unity(8)
    values = companion_threshold(a, zs, rho)
    z0, i = complex(zs[np.argmin(values)]), int(np.argmax(values))
    x, w = (float(values[i]), complex(zs[i])) if values[i] > lo else (lo, None)
    points = len(zs)
    for step in range(1, BISECT_MAX_ITER + 1):
        level = x * (1.0 + LEVEL_GAP)
        psi = _crossing_angles(a, rho, level, z0)
        zs = z0 * np.exp(0.5j * (psi[:-1] + psi[1:]))
        values = companion_threshold(a, zs, rho)
        points += len(zs)
        if not (len(zs) and values.max() > level):
            break
        i = int(np.argmax(values))
        x, w = float(values[i]), complex(zs[i])
    else:
        raise NoRootError(f"level set not settled after {BISECT_MAX_ITER} steps, rho={rho}")
    if x > norm * (1.0 + DEFAULT_PSD_TOL):
        raise BracketInvalidError(f"level-set value {x!r} exceeds ||T|| = {norm!r} at "
                                  f"rho={rho}: w_rho <= ||T|| fails, a bug")
    certificate = 0.0  # the floor lo needs none: w_rho >= lo always
    if w is not None:
        certificate = abs(float(np.linalg.eigvalsh(_q(a, rho, x, w))[0]))
        if certificate > CERTIFICATE_TOL * rho * x * x:
            raise NoRootError(f"level-set value {x!r} is off the positivity boundary "
                              f"at z={w!r} (certificate {certificate:.3e}), rho={rho}")
    stats = {"iterations": step, "threshold_points": points,
             "crossing_tol": CROSSING_TOL, "witness": w}
    return RadiusResult(value=x, method="level_set", omega=None, residual=certificate,
                        bracket=(x, x * (1.0 + LEVEL_GAP)), stats=stats)


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
