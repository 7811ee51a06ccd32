"""Operatorial rho-kernels and the rho-contraction test.

The kernel of a matrix T at a point z of the closed unit disc is

    K_z^rho(T) = (I - conj(z) T)^-1 + (I - z T*)^-1 + (rho - 2) I,

Hermitian by construction.  T is a rho-contraction exactly when its
spectrum lies in the closed disc and the kernel is positive on the open
disc, that is, when w_rho(T) <= 1; ``is_rho_contraction`` decides it from
the level-set radius (``radius.radius_bisect``), not from kernel samples.
DiscGrid gives the ring on which the Harnack constants are scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import GapTooSmallError, SingularError, TorusSpectrumError
from .linalg import NULLSPACE_TOL, _null_frames, as_cmatrix, null_bases

if TYPE_CHECKING:
    from .radius import RadiusResult

# An eigenvalue this close (absolutely) to the unit circle counts as torus
# spectrum; boundary kernel evaluation is then refused.
TORUS_MARGIN = 1e-8
# |z| within this of 1 makes z a unit-circle point.
UNIT_CIRCLE_TOL = 1e-12

DEFAULT_PSD_TOL = 1e-9
# |Im| of a real companion eigenvalue, relative to the largest |eigenvalue|;
# read for rho > 2 only, where the companion is not Hermitian
REAL_EIG_TOL = 1e-6


def roots_of_unity(k: int) -> np.ndarray:
    """The k equispaced unit-circle points exp(2 pi i j / k), j = 0, ..., k-1."""
    return np.exp(1j * (2.0 * np.pi * np.arange(k) / k))


@dataclass(frozen=True)
class DiscGrid:
    """The ring |z| = radii[-1], angles_per_radius equispaced points, that
    scores the Harnack constants.  For class members T0, T1 (precondition)
    c^2 K_z(T0) - K_z(T1) is harmonic, so by the minimum principle the circle
    fixes the constant and feasibility on the disc it bounds, exactly in
    radius; inner radii (increasing, inside (0, 1)) are accepted but do not
    change them.  In angle, a pair of weighted shifts is exact from the one
    point z = radii[-1] (rotation covariance, ``harnack``); other matrices
    are sampled at the ring's points.  Nothing reads torus_angles; it is
    kept, validated, for callers that still pass it (the harnack-part
    workload of perfbench/workloads.py).
    """

    radii: tuple = (0.999,)
    angles_per_radius: int = 64
    torus_angles: int = 256

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.size == 0 or np.any(np.diff(r) <= 0) or r[-1] >= 1.0 or r[0] <= 0.0:
            raise ValueError("radii must be strictly increasing inside (0, 1)")
        if self.angles_per_radius < 1 or self.torus_angles < 1:
            raise ValueError("angle counts must be positive")

    def interior_points(self) -> np.ndarray:
        """The samples of the outermost ring, angle 0 first."""
        return self.radii[-1] * roots_of_unity(self.angles_per_radius)


@dataclass(frozen=True)
class KernelEval:
    """One kernel evaluation: the Hermitian matrix and its smallest eigenvalue."""

    z: complex
    rho: float
    matrix: np.ndarray
    min_eigenvalue: float


def _resolvent_sum(t: np.ndarray, zs: np.ndarray, rho: float) -> np.ndarray:
    """Stacked kernels K_z^rho(T) for a 1-d array of points zs: (p, d, d) for
    one T, (m, p, d, d) for an (m, d, d) stack of operands, from one ``inv``.
    The sum is exactly Hermitian in floating point and checked finite."""
    eye = np.eye(t.shape[-1], dtype=complex)
    pencil = eye - np.conj(zs)[:, None, None] * t[..., None, :, :]
    try:
        res = np.linalg.inv(pencil)
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"I - conj(z) T is singular on the sample set: {exc}") from exc
    k = res + np.conj(np.swapaxes(res, -1, -2)) + (rho - 2.0) * eye
    if not np.isfinite(k.view(float)).all():
        raise SingularError("kernel evaluation overflowed (I - conj(z) T nearly singular)")
    return k


def rho_kernel(t, z: complex, rho: float) -> KernelEval:
    """Evaluate the kernel of T at one point z (|z| <= 1).

    Raises SingularError when I - conj(z) T is numerically singular.  For
    |z| = 1 the caller is responsible for the torus-spectrum precondition
    (see torus_null_frames, which checks it).
    """
    k = _resolvent_sum(as_cmatrix(t), np.asarray([z], dtype=complex), rho)[0]
    return KernelEval(z=complex(z), rho=float(rho), matrix=k, min_eigenvalue=float(np.linalg.eigvalsh(k)[0]))


def congruence_factor(n: int, a: float, rho: float, z: complex) -> np.ndarray:
    """Middle factor of the resolvent congruence of a shift kernel.

    For the truncated shift S of size n+1 with weight a, the kernel factors as
    K_z^rho(S) = (I - z S*)^-1 M (I - conj(z) S)^-1 with M the Hermitian
    tridiagonal matrix returned here: first diagonal entry rho, the remaining
    diagonal rho + (rho-2) a^2 |z|^2, off-diagonals (1-rho) a conj(z) above and
    (1-rho) a z below.
    """
    m = np.diag(np.full(n + 1, rho + (rho - 2.0) * a * a * abs(z) ** 2, dtype=complex))
    m[0, 0] = rho
    idx = np.arange(n)
    m[idx, idx + 1] = (1.0 - rho) * a * np.conj(z)
    m[idx + 1, idx] = (1.0 - rho) * a * z
    return m


def near_torus(eigs: np.ndarray, margin: float = TORUS_MARGIN) -> np.ndarray:
    """Mask of the eigenvalues that lie within ``margin`` of the unit circle."""
    return np.abs(np.abs(eigs) - 1.0) <= margin


def _torus_spectrum(a: np.ndarray, margin: float = TORUS_MARGIN) -> np.ndarray:
    """Per matrix of a stack, from one ``eigvals``: some eigenvalue within margin of |z| = 1."""
    return near_torus(np.linalg.eigvals(a), margin).any(axis=-1)


def has_torus_spectrum(t, margin: float = TORUS_MARGIN) -> bool:
    """True when some eigenvalue of T lies within ``margin`` of the unit circle."""
    return bool(_torus_spectrum(as_cmatrix(t), margin))


def threshold_solver(rho: float) -> str:
    """The eigensolver ``quadratic_threshold`` uses at rho: ``eigvalsh`` for
    rho <= 2, ``eigvals`` above."""
    return "eigvalsh" if rho <= 2.0 else "eigvals"


def quadratic_threshold(h: np.ndarray, tail: np.ndarray, rho: float) -> np.ndarray:
    """Largest real root g of det(g^2 I - g h + b) for each Hermitian h of a
    stack (p x d x d), -inf where none; ``threshold_solver(rho)`` picks the
    linearization.  ``eigvalsh``: b = -F* F is negative semidefinite, so the
    quadratic is hyperbolic and all its roots are real (Tisseur and
    Meerbergen, SIAM Rev. 43, 2001); tail is F and, by the Schur complement,
    the roots are the eigenvalues of the Hermitian [[h, F*], [F, 0]].
    ``eigvals``: tail is b and the root is the largest real eigenvalue of the
    companion [[h, -b], [I, 0]], an eigenvalue being real within
    REAL_EIG_TOL.  tail broadcasts against h."""
    p, d = h.shape[0], h.shape[-1]
    c = np.zeros((p, 2 * d, 2 * d), dtype=np.result_type(h, tail))
    c[:, :d, :d] = h
    if threshold_solver(rho) == "eigvalsh":
        c[:, :d, d:], c[:, d:, :d] = np.conj(np.swapaxes(tail, -1, -2)), tail
        return np.linalg.eigvalsh(c)[:, -1]
    c[:, :d, d:] = -tail
    c[:, d:, :d] = np.eye(d)
    eigs = np.linalg.eigvals(c)
    real = np.abs(eigs.imag) <= REAL_EIG_TOL * np.abs(eigs).max(axis=1, keepdims=True)
    return np.where(real, eigs.real, -np.inf).max(axis=1)


def companion_threshold(t: np.ndarray, zs: np.ndarray, rho: float) -> np.ndarray:
    """Membership threshold of T/gamma at each z: the largest real root g of
    det Q_z(g) (``radius``; -inf where none, which only rho > 2 allows), from
    ``quadratic_threshold`` of Q_z/rho, with c = (rho-1)/rho and
    H_z = conj(z) T + z T*: h = c H_z and constant term (rho-2)/rho |z|^2 T*T.

    For rho <= 2 that term is -F* F, F = r T, r = sqrt((2-rho)/rho) |z|
    (``eigvalsh``; at rho = 2, r = 0 and the threshold is
    max(lambda_max(H_z)/2, 0) from the d x d block).  For rho > 2 it goes to
    the companion (``eigvals``).  The dtype follows t and zs."""
    tstar = np.conj(t.T)
    z = zs[:, None, None]
    h = (rho - 1.0) / rho * (np.conj(z) * t + z * tstar)
    if rho == 2.0:  # r = 0: the Hermitian form is diag(c H_z, 0)
        return np.maximum(np.linalg.eigvalsh(h)[:, -1], 0.0)
    tail = (math.sqrt((2.0 - rho) / rho) * np.abs(z) * t if threshold_solver(rho) == "eigvalsh"
            else (rho - 2.0) / rho * np.abs(z) ** 2 * (tstar @ t))
    return quadratic_threshold(h, tail, rho)


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of the rho-contraction test: ok is w_rho(T) <= 1 + tol, and
    radius is the ``radius_bisect`` result it was read from (method, bracket
    and, for ``level_set``, the witness in ``stats``)."""

    ok: bool
    rho: float
    tol: float
    radius: RadiusResult

    def __bool__(self) -> bool:
        return self.ok


def is_rho_contraction(t, rho: float, tol: float = DEFAULT_PSD_TOL) -> ContractionReport:
    """Membership test for the class of rho-contractions: w_rho(T) <= 1 + tol.

    tol is relative slack on w_rho: T passes when T/(1 + tol) is a member.
    It is not slack on a kernel eigenvalue, whose size follows the scale of
    T.  w_rho(T) is at least the spectral radius, so no separate spectral
    test is needed.  Errors of ``radius_bisect`` propagate.
    """
    from .radius import radius_bisect  # radius imports this module

    res = radius_bisect(t, rho)
    return ContractionReport(ok=bool(res.value <= 1.0 + tol), rho=float(rho), tol=float(tol),
                             radius=res)


def torus_null_frames(t, rho: float, zs, tol: float = NULLSPACE_TOL) -> tuple:
    """``null_frames`` of the kernels of T at the unit-circle points of a 1-d
    array zs, from one stacked extraction.

    Requires |z| = 1 at every point and an empty unit-circle spectrum for T
    (checked once; TorusSpectrumError otherwise).  GapTooSmallError, raised
    when a nullity is ill-determined, names the offending z.
    """
    points = np.asarray(zs, dtype=complex)
    off = np.abs(np.abs(points) - 1.0) > UNIT_CIRCLE_TOL
    if off.any():
        raise ValueError(f"z must lie on the unit circle, got |z| = {abs(points[off][0])}")
    a = as_cmatrix(t)
    if _torus_spectrum(a):
        raise TorusSpectrumError("T has spectrum within tolerance of the unit circle")
    return _torus_frames(_resolvent_sum(a, points, rho), points, tol)


def _torus_frames(k: np.ndarray, points: np.ndarray, tol: float) -> tuple:
    """Unchecked ``null_frames`` of the kernels k at points, one stack for one
    or more operands; GapTooSmallError names the z at fault and its index."""
    try:
        return _null_frames(k.reshape(-1, *k.shape[-2:]), tol)
    except GapTooSmallError as exc:
        i = exc.index % len(points)
        raise GapTooSmallError(f"{exc} (at z = {complex(points[i])})", index=i) from exc


def torus_nullspace(t, rho: float, z, tol: float = NULLSPACE_TOL) -> list:
    """Orthonormal basis of the kernel's null space at a unit-circle point z,
    or one basis per point of a 1-d array z: the list view of
    ``torus_null_frames``, with its checks and refusals."""
    zs = np.asarray(z, dtype=complex)
    bases = null_bases(*torus_null_frames(t, rho, np.atleast_1d(zs), tol))
    return bases if zs.ndim else bases[0]
