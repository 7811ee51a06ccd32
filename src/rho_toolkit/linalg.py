"""Dense complex linear-algebra substrate.

All operations work on square complex numpy arrays ("CMatrix" values) and are
pure functions; nothing here mutates its inputs.  Eigen work is delegated
to LAPACK through numpy, behind the contracts below:

* Hermitian input is required (and checked) wherever the operation only makes
  sense for Hermitian matrices; after the check the matrix is symmetrized to
  remove roundoff drift.
* ``null_frames`` (and ``nullspace``, its list view) refuses to answer when
  the spectral gap above the null cluster is too small to trust in double
  precision (GapTooSmallError).
"""

from __future__ import annotations

import numpy as np

from .errors import GapTooSmallError, NotHermitianError

# Default tolerances (relative): Hermitian symmetry check, null-space
# threshold.  The null-space default matches the conditioning of the shift
# kernels up to dimension ~24 in double precision.
HERMITIAN_RTOL = 1e-12
NULLSPACE_TOL = 1e-8
# floor under a matrix's scale, so that relative tests of the zero matrix divide safely
SCALE_FLOOR = 1e-300


def as_cmatrix(m) -> np.ndarray:
    """Validate and coerce ``m`` to a square complex matrix.

    Raises ValueError if the input is not square or contains NaN/Inf.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    return a


def spectral_norm(m) -> float:
    """Largest singular value."""
    a = as_cmatrix(m)
    if a.shape[0] == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus."""
    return float(np.max(np.abs(np.linalg.eigvals(as_cmatrix(m)))))


def _require_hermitian(a: np.ndarray, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Check the symmetry residual of each matrix (the last two axes), at its
    own scale, and return the symmetrized array."""
    ah = np.conj(np.swapaxes(a, -1, -2))
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1)), SCALE_FLOOR)
    resid = np.max(np.abs(a - ah), axis=(-2, -1))
    bad = np.ravel(resid > rtol * scale)
    if np.any(bad):
        i = np.argmax(bad)  # the first offender of a stack
        raise NotHermitianError(f"matrix is not Hermitian: residual {np.ravel(resid)[i]:.3e} "
                                f"exceeds {rtol:.1e} * {np.ravel(scale)[i]:.3e}")
    return 0.5 * (a + ah)


def null_frames(m, tol: float = NULLSPACE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """One ``eigh`` of a Hermitian matrix or (k, d, d) stack: its eigenvectors
    (k, d, d), k = 1 for one matrix, and the (k, d) mask of the null columns,
    eigenvalue modulus at most tol*||M||.

    Requires a spectral gap: the first eigenvalue above the null cluster must
    exceed 10*tol*||M||, otherwise the nullity is ill-determined and
    GapTooSmallError is raised, its ``index`` naming the first stack entry at
    fault.  Every check is made per matrix, at that matrix's own scale.
    """
    a = np.asarray(m, dtype=complex)
    stacked = a.ndim == 3
    a = a if stacked else as_cmatrix(a)[None]
    if a.shape[1] != a.shape[2] or not np.all(np.isfinite(a)):
        raise ValueError(f"expected a stack of finite square matrices, got shape {a.shape}")
    return _null_frames(_require_hermitian(a), tol, stacked)


def _null_frames(a: np.ndarray, tol: float, stacked: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """``null_frames`` of a finite, exactly Hermitian (k, d, d) stack, unchecked."""
    values, vectors = np.linalg.eigh(a)
    size = np.abs(values)
    scale = np.maximum(np.max(size, axis=1), SCALE_FLOOR)[:, None]
    null_mask = size <= tol * scale
    gap = ~null_mask & (size < 10.0 * tol * scale)
    if gap.any():
        i = int(np.argmax(gap.any(axis=1)))
        raise GapTooSmallError(
            f"eigenvalues {values[i][gap[i]]} fall between the null threshold "
            f"{tol * scale[i, 0]:.3e} and the gap floor {10.0 * tol * scale[i, 0]:.3e}",
            index=i if stacked else None,
        )
    return vectors, null_mask


def null_bases(vectors: np.ndarray, null_mask: np.ndarray) -> list:
    """The list view of ``null_frames``: per matrix, copies of its null columns."""
    return [[v[:, j].copy() for j in np.flatnonzero(m)] for v, m in zip(vectors, null_mask)]


def nullspace(m, tol: float = NULLSPACE_TOL) -> list:
    """Orthonormal basis of the (numerical) null space of a Hermitian matrix,
    or one basis per matrix of a (k, d, d) stack: the list view of ``null_frames``."""
    bases = null_bases(*null_frames(m, tol))
    return bases if np.ndim(m) == 3 else bases[0]
