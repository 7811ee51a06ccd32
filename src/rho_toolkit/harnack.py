"""Harnack domination and equivalence between rho-contractions.

Domination of T1 by T0 means K_z(T1) <= c^2 K_z(T0) across the open disc for
some constant c >= 1.  On a finite grid the best constant is the largest
generalized eigenvalue of the Hermitian pencil (K(T1), K(T0)), computed by
congruence with the inverse square root of K(T0); this preserves Hermiticity
in floating point, unlike direct inversion.

The decisive equivalence predicate is equality of the kernel null spaces on
the unit circle (with constant nullity); grid domination constants are
corroborating evidence only, since sampling cannot certify an inequality for
every z in the disc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InteriorSingularError, TorusSpectrumError
from .kernel import DiscGrid, _resolvent_sum, near_torus, roots_of_unity, torus_nullspace
from .linalg import NULLSPACE_TOL, as_cmatrix

# relative floor under which K(T0) counts as not positive definite
PD_FLOOR = 1e-12


@dataclass(frozen=True)
class HarnackCertificate:
    """Grid-based domination constant for the ordered pair direction=(T1, T0).

    feasible is False when K(T0) has a null direction at an interior sample
    on which K(T1) does not vanish; c_squared is then +inf.  The disc limit
    z -> 0 forces the true constant to be >= 1, so grid values below 1 are
    clamped to 1.
    """

    c_squared: float
    feasible: bool
    worst_z: complex
    direction: tuple[str, str]
    tol: float
    grid: DiscGrid = field(repr=False, default_factory=DiscGrid)

    def __bool__(self) -> bool:
        return self.feasible


def domination_constant(t1, t0, rho: float, grid: DiscGrid | None = None,
                        labels: tuple[str, str] = ("T1", "T0"),
                        tol: float = 1e-9) -> HarnackCertificate:
    """Best grid constant c^2 with K_z(T1) <= c^2 K_z(T0), interior samples only.

    Raises InteriorSingularError when K_z(T0) degenerates at an interior
    sample while K_z(T1) vanishes on the same directions (the pencil is then
    ill-posed); returns an infeasible certificate when K_z(T1) does not
    vanish there (no finite constant can work).
    """
    a1, a0 = as_cmatrix(t1), as_cmatrix(t0)
    if a1.shape != a0.shape:
        raise ValueError("matrices must have equal dimensions")
    grid = grid or DiscGrid()
    zs = grid.interior_points()
    k1 = _resolvent_sum(a1, zs, rho)
    k0 = _resolvent_sum(a0, zs, rho)
    mu, v = np.linalg.eigh(k0)

    scale = np.max(np.abs(mu), axis=1)
    degenerate = mu[:, 0] <= PD_FLOOR * scale
    if np.any(degenerate):
        for i in np.nonzero(degenerate)[0]:
            null_dirs = v[i][:, mu[i] <= PD_FLOOR * scale[i]]
            leak = np.linalg.norm(k1[i] @ null_dirs, axis=0)
            if np.any(leak > tol * max(np.max(np.abs(k1[i])), 1.0)):
                return HarnackCertificate(c_squared=math.inf, feasible=False,
                                          worst_z=complex(zs[i]), direction=labels,
                                          tol=tol, grid=grid)
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
                              tol=tol, grid=grid)


def torus_spectrum_check(t1, t0) -> bool:
    """Necessary condition for T1 to be Harnack dominated by T0: every
    eigenvalue of T1 within TORUS_MARGIN of the unit circle must match an
    eigenvalue of T0 within 1e-6."""
    e1 = np.linalg.eigvals(as_cmatrix(t1))
    e0 = np.linalg.eigvals(as_cmatrix(t0))
    return all(np.any(np.abs(e0 - lam) <= 1e-6) for lam in e1[near_torus(e1)])


@dataclass(frozen=True)
class AngleRecord:
    z: complex
    dim1: int
    dim0: int
    principal_angle_residual: float


@dataclass(frozen=True)
class NullspaceComparison:
    """Per-angle null-space comparison over the unit circle."""

    equal: bool
    records: tuple

    def __bool__(self) -> bool:
        return self.equal

    def nullities(self) -> tuple[set, set]:
        return ({r.dim1 for r in self.records}, {r.dim0 for r in self.records})


def _principal_angle_residual(basis1: list[np.ndarray], basis0: list[np.ndarray]) -> float:
    """1 - cos(largest principal angle) between two equal-dimension spans."""
    if not basis1 and not basis0:
        return 0.0
    u = np.column_stack(basis1)
    v = np.column_stack(basis0)
    sigma = np.linalg.svd(np.conj(u).T @ v, compute_uv=False)
    return float(1.0 - sigma[-1])


def nullspace_equality(t1, t0, rho: float, torus_angles: int = 256,
                       tol: float = 1e-7) -> NullspaceComparison:
    """True iff the kernel null spaces of T1 and T0 agree at every sampled
    unit-circle point (equal dimension, principal angle within tol).

    Both matrices must be free of unit-circle spectrum (checked once each,
    TorusSpectrumError naming T1 or T0).  A GapTooSmallError from the
    null-space extraction names the offending z.
    """
    zs = roots_of_unity(torus_angles)
    bases = []
    for label, t in (("T1", t1), ("T0", t0)):
        try:
            bases.append(torus_nullspace(t, rho, zs, NULLSPACE_TOL))
        except TorusSpectrumError as exc:
            raise TorusSpectrumError(f"{label} has spectrum on the unit circle") from exc
    records = tuple(
        AngleRecord(z=complex(z), dim1=len(ns1), dim0=len(ns0),
                    principal_angle_residual=(_principal_angle_residual(ns1, ns0)
                                              if len(ns1) == len(ns0) else 1.0))
        for z, ns1, ns0 in zip(zs, *bases))
    equal = all(r.dim1 == r.dim0 and r.principal_angle_residual <= tol for r in records)
    return NullspaceComparison(equal=equal, records=records)


@dataclass(frozen=True)
class HarnackEvidence:
    nullspaces: NullspaceComparison
    constant_nullity: bool
    forward: HarnackCertificate
    backward: HarnackCertificate


def are_harnack_equivalent(t1, t0, rho: float, grid: DiscGrid | None = None,
                           torus_angles: int = 256,
                           tol: float = 1e-7) -> tuple[bool, HarnackEvidence]:
    """Decide Harnack equivalence of two torus-spectrum-free class members.

    The verdict is the null-space condition (equality at every sampled torus
    point) together with constant nullity across the samples; the two
    directed grid domination constants are attached as corroboration, never
    as the verdict.
    """
    grid = grid or DiscGrid()
    comparison = nullspace_equality(t1, t0, rho, torus_angles=torus_angles, tol=tol)
    dims1, dims0 = comparison.nullities()
    constant = len(dims1) == 1 and len(dims0) == 1
    forward = domination_constant(t1, t0, rho, grid, labels=("T1", "T0"))
    backward = domination_constant(t0, t1, rho, grid, labels=("T0", "T1"))
    verdict = bool(comparison) and constant
    return verdict, HarnackEvidence(nullspaces=comparison, constant_nullity=constant,
                                    forward=forward, backward=backward)
