"""Harnack domination and equivalence between rho-contractions.

Domination of T1 by T0 means K_z(T1) <= c^2 K_z(T0) across the open disc for
some constant c >= 1.  For class members c^2 K_z(T0) - K_z(T1) is harmonic,
so the best constant on |z| <= r is attained on |z| = r, the one ring scored
(``DiscGrid``).  At each ring sample it is the largest generalized eigenvalue
of the Hermitian pencil (K(T1), K(T0)), computed by congruence with the
inverse square root of K(T0); this preserves Hermiticity in floating point,
unlike direct inversion.

The decisive equivalence predicate is equality of the kernel null spaces on
the unit circle (with constant nullity); grid domination constants are
corroborating evidence only, since sampling cannot certify an inequality for
every z in the disc.  The circle comparison is one stacked pass: one ``eigh``
of each matrix's kernels over all sample points and one stacked SVD of the
masked null frames give every nullity and principal-angle residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InteriorSingularError, TorusSpectrumError
from .kernel import DiscGrid, _resolvent_sum, near_torus, roots_of_unity, torus_null_frames
from .linalg import NULLSPACE_TOL, as_cmatrix

# relative floor under which K(T0) counts as not positive definite
PD_FLOOR = 1e-12
# relative size of K(T1) on a null direction of K(T0) that makes a pair infeasible
LEAK_TOL = 1e-9
# distance within which a torus eigenvalue of T1 matches one of T0
EIG_MATCH_TOL = 1e-6
# largest principal-angle residual 1 - sigma_k at which two null spaces are equal
NULLSPACE_MATCH_TOL = 1e-7


@dataclass(frozen=True)
class HarnackCertificate:
    """Domination constant for the ordered pair direction=(T1, T0) on the ring
    of grid: exact in radius for class members (``DiscGrid``), sampled in angle.

    feasible is False when K(T0) has a null direction at a ring sample on
    which K(T1) does not vanish; c_squared is then +inf.  The disc limit
    z -> 0 forces the true constant to be >= 1, so values below 1 are
    clamped to 1.  stats holds interior_points, the number of ring samples
    scored, and k0_relative_min, the least eigenvalue of K(T0) over its
    scale, minimized over the samples: the margin to PD_FLOOR.
    """

    c_squared: float
    feasible: bool
    worst_z: complex
    direction: tuple[str, str]
    tol: float
    grid: DiscGrid = field(repr=False, default_factory=DiscGrid)
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.feasible


def _dominate(k1: np.ndarray, k0: np.ndarray, zs: np.ndarray, grid: DiscGrid,
              labels: tuple[str, str], tol: float) -> HarnackCertificate:
    """``domination_constant`` on the stacked ring kernels k1, k0 at zs."""
    mu, v = np.linalg.eigh(k0)

    scale = np.max(np.abs(mu), axis=1)
    stats = {"interior_points": len(zs),
             "k0_relative_min": float(np.min(mu[:, 0] / np.maximum(scale, 1e-300)))}
    degenerate = mu[:, 0] <= PD_FLOOR * scale
    if np.any(degenerate):
        for i in np.nonzero(degenerate)[0]:
            null_dirs = v[i][:, mu[i] <= PD_FLOOR * scale[i]]
            leak = np.linalg.norm(k1[i] @ null_dirs, axis=0)
            if np.any(leak > tol * max(np.max(np.abs(k1[i])), 1.0)):
                return HarnackCertificate(c_squared=math.inf, feasible=False,
                                          worst_z=complex(zs[i]), direction=labels,
                                          tol=tol, grid=grid, stats=stats)
        i = int(np.nonzero(degenerate)[0][0])
        raise InteriorSingularError(
            f"K_z(T0) is not positive definite at interior sample z={zs[i]}",
            z=complex(zs[i]),
        )

    # W = K0^(-1/2) via the eigendecomposition, then lambda_max(W K1 W)
    inv_sqrt = v * (mu ** -0.5)[:, None, :]
    w = inv_sqrt @ np.conj(np.swapaxes(v, -1, -2))
    pencil = w @ k1 @ w
    lams = np.linalg.eigvalsh(pencil)[:, -1]
    i = int(np.argmax(lams))
    return HarnackCertificate(c_squared=max(float(lams[i]), 1.0), feasible=True,
                              worst_z=complex(zs[i]), direction=labels,
                              tol=tol, grid=grid, stats=stats)


def _interior_kernels(t1, t0, rho: float, grid: DiscGrid):
    """The ring samples of grid and the stacked kernels of T1 and T0 there."""
    a1, a0 = as_cmatrix(t1), as_cmatrix(t0)
    if a1.shape != a0.shape:
        raise ValueError("matrices must have equal dimensions")
    zs = grid.interior_points()
    return zs, _resolvent_sum(a1, zs, rho), _resolvent_sum(a0, zs, rho)


def domination_constant(t1, t0, rho: float, grid: DiscGrid | None = None,
                        labels: tuple[str, str] = ("T1", "T0"),
                        tol: float = LEAK_TOL) -> HarnackCertificate:
    """Best constant c^2 with K_z(T1) <= c^2 K_z(T0) on the ring of grid.

    Raises InteriorSingularError when K_z(T0) degenerates at a ring sample
    while K_z(T1) vanishes on the same directions (the pencil is then
    ill-posed); returns an infeasible certificate when K_z(T1) does not
    vanish there (no finite constant can work).
    """
    grid = grid or DiscGrid()
    zs, k1, k0 = _interior_kernels(t1, t0, rho, grid)
    return _dominate(k1, k0, zs, grid, labels, tol)


def torus_spectrum_check(t1, t0) -> bool:
    """Necessary condition for T1 to be Harnack dominated by T0: every
    eigenvalue of T1 within TORUS_MARGIN of the unit circle must match an
    eigenvalue of T0 within EIG_MATCH_TOL."""
    e1 = np.linalg.eigvals(as_cmatrix(t1))
    e0 = np.linalg.eigvals(as_cmatrix(t0))
    return all(np.any(np.abs(e0 - lam) <= EIG_MATCH_TOL) for lam in e1[near_torus(e1)])


@dataclass(frozen=True, eq=False)
class NullspaceComparison:
    """Null-space comparison at the unit-circle points z: the nullities dims1,
    dims0 and the principal-angle residuals (1 where the nullities differ)."""

    equal: bool
    z: np.ndarray
    dims1: np.ndarray
    dims0: np.ndarray
    residuals: np.ndarray

    def __bool__(self) -> bool:
        return self.equal

    def nullities(self) -> tuple[set, set]:
        return set(self.dims1.tolist()), set(self.dims0.tolist())


def nullspace_equality(t1, t0, rho: float, torus_angles: int = 256,
                       tol: float = NULLSPACE_MATCH_TOL) -> NullspaceComparison:
    """True iff the kernel null spaces of T1 and T0 agree at every sampled
    unit-circle point (equal dimension, principal angle within tol).

    Both matrices must be free of unit-circle spectrum (checked once each,
    TorusSpectrumError naming T1 or T0).  A GapTooSmallError from the
    null-space extraction names the offending z.  The residual is 1 - sigma_k,
    k the nullity, from one stacked SVD of the masked frames (V1 M1)* (V0 M0).
    """
    if np.shape(t1) != np.shape(t0):
        raise ValueError("matrices must have equal dimensions")
    zs = roots_of_unity(torus_angles)
    frames = []
    for label, t in (("T1", t1), ("T0", t0)):
        try:
            vectors, mask = torus_null_frames(t, rho, zs, NULLSPACE_TOL)
        except TorusSpectrumError as exc:
            raise TorusSpectrumError(f"{label} has spectrum on the unit circle") from exc
        frames.append((vectors * mask[:, None, :], mask.sum(axis=1)))
    (f1, dims1), (f0, dims0) = frames
    sigma = np.linalg.svd(np.conj(np.swapaxes(f1, -1, -2)) @ f0, compute_uv=False)
    cosine = sigma[np.arange(len(zs)), np.maximum(dims1 - 1, 0)]
    residuals = np.where(dims1 != dims0, 1.0, np.where(dims1 == 0, 0.0, 1.0 - cosine))
    equal = bool(np.all((dims1 == dims0) & (residuals <= tol)))
    return NullspaceComparison(equal=equal, z=zs, dims1=dims1, dims0=dims0,
                               residuals=residuals)


@dataclass(frozen=True)
class HarnackEvidence:
    nullspaces: NullspaceComparison
    constant_nullity: bool
    forward: HarnackCertificate
    backward: HarnackCertificate


def are_harnack_equivalent(t1, t0, rho: float, grid: DiscGrid | None = None,
                           torus_angles: int = 256,
                           tol: float = NULLSPACE_MATCH_TOL) -> tuple[bool, HarnackEvidence]:
    """Decide Harnack equivalence of two torus-spectrum-free class members.

    The verdict is the null-space condition (equality at every sampled torus
    point) together with constant nullity across the samples; the two
    directed ring domination constants, scored from one evaluation of each
    ring kernel, are attached as corroboration, never as the verdict.
    """
    grid = grid or DiscGrid()
    comparison = nullspace_equality(t1, t0, rho, torus_angles=torus_angles, tol=tol)
    dims1, dims0 = comparison.nullities()
    constant = len(dims1) == 1 and len(dims0) == 1
    zs, k1, k0 = _interior_kernels(t1, t0, rho, grid)
    forward = _dominate(k1, k0, zs, grid, ("T1", "T0"), LEAK_TOL)
    backward = _dominate(k0, k1, zs, grid, ("T0", "T1"), LEAK_TOL)
    verdict = bool(comparison) and constant
    return verdict, HarnackEvidence(nullspaces=comparison, constant_nullity=constant,
                                    forward=forward, backward=backward)
