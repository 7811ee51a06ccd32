"""Operatorial rho-kernels and disc positivity tests.

The kernel of a matrix T at a point z of the closed unit disc is

    K_z^rho(T) = (I - conj(z) T)^-1 + (I - z T*)^-1 + (rho - 2) I,

Hermitian by construction.  Membership of T in the class of rho-contractions
is equivalent to sigma(T) inside the closed disc together with positivity of
the kernel on the open disc; positivity is sampled on a DiscGrid, one point
set per sweep: the unit circle when T has no spectrum there (the minimum
principle puts the least positive samples there, ``grid_minimum``), else the
interior circles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GapTooSmallError, SingularError, TorusSpectrumError
from .linalg import NULLSPACE_TOL, as_cmatrix, nullspace

# An eigenvalue this close (absolutely) to the unit circle counts as torus
# spectrum; boundary kernel evaluation is then refused.
TORUS_MARGIN = 1e-8
# |z| within this of 1 makes z a unit-circle point.
UNIT_CIRCLE_TOL = 1e-12

DEFAULT_PSD_TOL = 1e-9
COMPANION_CHUNK = 256


def roots_of_unity(k: int) -> np.ndarray:
    """The k equispaced unit-circle points exp(2 pi i j / k), j = 0, ..., k-1."""
    return np.exp(1j * (2.0 * np.pi * np.arange(k) / k))


@dataclass(frozen=True)
class DiscGrid:
    """Sampling grid for "for all z in the disc" statements.

    radii are the interior circles (increasing, inside (0, 1)), each with
    angles_per_radius equispaced angles; torus_angles unit-circle points.  A
    sweep samples one of the two sets, never both (``grid_minimum``).
    """

    radii: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)
    angles_per_radius: int = 64
    torus_angles: int = 256

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.size == 0 or np.any(np.diff(r) <= 0) or r[-1] >= 1.0 or r[0] <= 0.0:
            raise ValueError("radii must be strictly increasing inside (0, 1)")
        if self.angles_per_radius < 1 or self.torus_angles < 1:
            raise ValueError("angle counts must be positive")

    def interior_points(self) -> np.ndarray:
        """All interior samples, radius-major, angle 0 first on each ring."""
        ring = roots_of_unity(self.angles_per_radius)
        return np.concatenate([r * ring for r in self.radii])

    def torus_points(self) -> np.ndarray:
        return roots_of_unity(self.torus_angles)


def default_grid() -> DiscGrid:
    return DiscGrid()


@dataclass(frozen=True)
class KernelEval:
    """One kernel evaluation: the Hermitian matrix and its smallest eigenvalue."""

    z: complex
    rho: float
    matrix: np.ndarray
    min_eigenvalue: float


def _resolvent_sum(t: np.ndarray, zs: np.ndarray, rho: float) -> np.ndarray:
    """Stacked kernels K_z^rho(T) for a 1-d array of points zs."""
    d = t.shape[0]
    eye = np.eye(d, dtype=complex)
    pencil = eye[None, :, :] - np.conj(zs)[:, None, None] * t[None, :, :]
    try:
        res = np.linalg.inv(pencil)
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"I - conj(z) T is singular on the sample set: {exc}") from exc
    k = res + np.conj(np.swapaxes(res, -1, -2)) + (rho - 2.0) * eye[None, :, :]
    if not np.all(np.isfinite(k.view(float))):
        raise SingularError("kernel evaluation overflowed (I - conj(z) T nearly singular)")
    return k


def rho_kernel(t, z: complex, rho: float) -> KernelEval:
    """Evaluate the kernel of T at one point z (|z| <= 1).

    Raises SingularError when I - conj(z) T is numerically singular.  For
    |z| = 1 the caller is responsible for the torus-spectrum precondition
    (see torus_nullspace, which checks it).
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


def has_torus_spectrum(t, margin: float = TORUS_MARGIN) -> bool:
    """True when some eigenvalue of T lies within ``margin`` of the unit circle."""
    return bool(np.any(near_torus(np.linalg.eigvals(as_cmatrix(t)), margin)))


def companion_threshold(t: np.ndarray, zs: np.ndarray, rho: float) -> np.ndarray:
    """Membership threshold of T/gamma at each z (-inf where none): the largest
    real eigenvalue of [[(rho-1)/rho (conj(z) T + z T*), -(rho-2)/rho |z|^2 T*T],
    [I, 0]], the companion of Q_z (``radius``).  The dtype follows t and zs;
    COMPANION_CHUNK points per ``eigvals`` call bound memory."""
    d = t.shape[0]
    tstar = np.conj(t.T)
    out = np.empty(len(zs))
    for i in range(0, len(zs), COMPANION_CHUNK):
        z = zs[i:i + COMPANION_CHUNK, None, None]
        c = np.zeros((len(z), 2 * d, 2 * d), dtype=np.result_type(t, zs))
        c[:, :d, :d] = (rho - 1.0) / rho * (np.conj(z) * t + z * tstar)
        c[:, :d, d:] = -(rho - 2.0) / rho * np.abs(z) ** 2 * (tstar @ t)
        c[:, d:, :d] = np.eye(d)
        eigs = np.linalg.eigvals(c)
        real = np.abs(eigs.imag) <= 1e-6 * np.abs(eigs).max(axis=1, keepdims=True)
        out[i:i + len(z)] = np.where(real, eigs.real, -np.inf).max(axis=1)
    return out


def _first_min(points: np.ndarray, values: np.ndarray) -> tuple[complex, float]:
    # roundoff ties go to the earliest sample: rotation-invariant T gets z > 0
    vmin = float(np.min(values))
    tie = vmin + 1e-12 * max(1.0, abs(vmin))
    i = int(np.argmax(values <= tie))
    return complex(points[i]), float(values[i])


def grid_minimum(score, grid: DiscGrid, boundary: bool) -> tuple[complex, float]:
    """Smallest value of ``score`` (points -> values) over the torus samples
    when ``boundary``, else over the interior ones, and its witness; one
    refinement pass re-samples the witness ring at doubled angular resolution
    from the witness angle."""
    # One point set is enough.  If T has no unit-circle spectrum and spectral
    # radius below 1, K_z is harmonic on a neighbourhood of the closed disc,
    # so lambda_min K_z (a minimum of harmonic <K_z x, x>) is superharmonic
    # and smallest on the circle.
    zs = grid.torus_points() if boundary else grid.interior_points()
    worst_z, worst = _first_min(zs, score(zs))
    count = 2 * (grid.torus_angles if boundary else grid.angles_per_radius)
    ring = worst_z * roots_of_unity(count)
    ring_z, ring_min = _first_min(ring, score(ring))
    if ring_min < worst - 1e-12 * max(1.0, abs(worst)):
        worst_z, worst = ring_z, ring_min
    return worst_z, worst


@dataclass(frozen=True)
class ContractionReport:
    """Outcome of a grid positivity test, with the worst sample as witness."""

    ok: bool
    witness_z: complex
    witness_min_eig: float
    spectral_radius: float
    rho: float
    tol: float
    boundary_sampled: bool
    grid: DiscGrid = field(repr=False, default_factory=default_grid)

    def __bool__(self) -> bool:
        return self.ok


def is_rho_contraction(t, rho: float, grid: DiscGrid | None = None,
                       tol: float = DEFAULT_PSD_TOL) -> ContractionReport:
    """Grid-certified membership test for the class of rho-contractions.

    True iff the spectral radius is at most 1 + tol and the smallest kernel
    eigenvalue over the samples of ``grid_minimum`` is at least -tol: the
    torus when T has no unit-circle spectrum, else the interior circles.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    a = as_cmatrix(t)
    grid = grid or default_grid()
    eigs = np.linalg.eigvals(a)
    srad = float(np.max(np.abs(eigs))) if a.size else 0.0
    boundary = not np.any(near_torus(eigs))
    worst_z, worst = grid_minimum(
        lambda zs: np.linalg.eigvalsh(_resolvent_sum(a, zs, rho))[:, 0], grid, boundary)
    ok = srad <= 1.0 + tol and worst >= -tol
    return ContractionReport(ok=ok, witness_z=worst_z, witness_min_eig=worst,
                             spectral_radius=srad, rho=float(rho), tol=float(tol),
                             boundary_sampled=boundary, grid=grid)


def torus_nullspace(t, rho: float, z, tol: float = NULLSPACE_TOL) -> list:
    """Orthonormal basis of the kernel's null space at a unit-circle point z,
    or one basis per point of a 1-d array z, from one stacked extraction.

    Requires |z| = 1 at every point and an empty unit-circle spectrum for T
    (checked once; TorusSpectrumError otherwise).  GapTooSmallError, raised
    when a nullity is ill-determined, names the offending z.
    """
    zs = np.asarray(z, dtype=complex)
    points = np.atleast_1d(zs)
    off = np.abs(np.abs(points) - 1.0) > UNIT_CIRCLE_TOL
    if np.any(off):
        raise ValueError(f"z must lie on the unit circle, got |z| = {abs(points[off][0])}")
    a = as_cmatrix(t)
    if has_torus_spectrum(a):
        raise TorusSpectrumError("T has spectrum within tolerance of the unit circle")
    try:
        bases = nullspace(_resolvent_sum(a, points, rho), tol)
    except GapTooSmallError as exc:
        raise GapTooSmallError(f"{exc} (at z = {complex(points[exc.index])})",
                               index=exc.index) from exc
    return bases if zs.ndim else bases[0]
