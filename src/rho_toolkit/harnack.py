"""Harnack domination and equivalence between rho-contractions.

Domination of T1 by T0 means K_z(T1) <= c^2 K_z(T0) across the open disc for
some constant c >= 1.  For class members c^2 K_z(T0) - K_z(T1) is harmonic,
so the best constant on |z| <= r is attained on |z| = r, the one ring scored
(``DiscGrid``).  At each ring sample it is the largest generalized eigenvalue
of the Hermitian pencil (K(T1), K(T0)), computed by congruence with the
inverse square root of K(T0); this preserves Hermiticity in floating point,
unlike direct inversion.

The decisive equivalence predicate is equality of the kernel null spaces on
the unit circle (with constant nullity); the domination constants are
corroborating evidence only.  A pair is scored from one stacked evaluation
of [T1, T0]: one ``eigvals`` tests both spectra, one ``inv`` gives the kernels
at the torus and ring points together, one ``eigh`` of both operands' null
frames and one SVD give every nullity and principal-angle residual, and one
``eigh`` and one ``eigvalsh`` give both directed constants.

When both operands are weighted shifts (every entry off the first
superdiagonal exactly zero), D_z T D_z* = conj(z) T for D_z = diag(1, z, ...,
z^(d-1)) and |z| = 1, so K_{rz}(T) = D_z K_r(T) D_z*: null spaces rotate by
the common unitary D_z, which leaves nullities, principal angles and the
pencil's eigenvalues unchanged.  Such a pair is decided at z = 1 and scored
at z = radii[-1] alone (route "rotation"), exact in angle: the verdict holds
at every unit-circle point and c^2 is the ring's constant.  Any other pair is
sampled (route "sampled"): the verdict holds at the torus samples and c^2 is
a lower bound in angle, since sampling cannot certify an inequality at every
z of the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InteriorSingularError, TorusSpectrumError
from .kernel import (DiscGrid, _resolvent_sum, _torus_frames, _torus_spectrum, near_torus,
                     roots_of_unity)
from .linalg import NULLSPACE_TOL, SCALE_FLOOR, as_cmatrix

# relative floor under which K(T0) counts as not positive definite
PD_FLOOR = 1e-12
# relative size of K(T1) on a null direction of K(T0) that makes a pair infeasible
LEAK_TOL = 1e-9
# distance within which a torus eigenvalue of T1 matches one of T0
EIG_MATCH_TOL = 1e-6
# largest principal-angle residual 1 - sigma_k at which two null spaces are equal
NULLSPACE_MATCH_TOL = 1e-7
_GRID = DiscGrid()  # the default ring, built once


@dataclass(frozen=True)
class HarnackCertificate:
    """Domination constant for the ordered pair (T1, T0) on the ring of the
    grid: exact in radius for class members (``DiscGrid``); exact in angle
    for a pair of weighted shifts (route "rotation", scored at z = radii[-1],
    which is then worst_z), sampled in angle otherwise (route "sampled").

    feasible is False when K(T0) has a null direction at a ring sample on
    which K(T1) does not vanish; c_squared is then +inf.  The disc limit
    z -> 0 forces the true constant to be >= 1, so values below 1 are
    clamped to 1.  stats holds route, interior_points, the number of ring
    points evaluated, and k0_relative_min, the least eigenvalue of K(T0) over
    its scale, minimized over the points: the margin to PD_FLOOR.
    """

    c_squared: float
    feasible: bool
    worst_z: complex
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.feasible


def _operands(t1, t0) -> tuple:
    """The validated stack [T1, T0] and its route: "rotation" when both are weighted
    shifts (all nonzero entries on the first superdiagonal), else "sampled"."""
    a1, a0 = as_cmatrix(t1), as_cmatrix(t0)
    if a1.shape != a0.shape:
        raise ValueError("matrices must have equal dimensions")
    pair = np.stack([a1, a0])
    shifts = np.count_nonzero(pair) == np.count_nonzero(np.diagonal(pair, 1, -2, -1))
    return pair, "rotation" if shifts else "sampled"


def _samples(route: str, zs: np.ndarray) -> np.ndarray:
    """The points of zs that route evaluates: the first alone on "rotation"."""
    return zs[:1] if route == "rotation" else zs


def _certificates(k: np.ndarray, zs: np.ndarray, route: str, dens: tuple = (1, 0)) -> list:
    """``domination_constant`` from the ring kernels k = [K(T1), K(T0)] at zs, one
    certificate per denominator in dens ((1, 0): forward and backward), from one
    ``eigh`` of the denominators and one ``eigvalsh`` of the feasible pencils."""
    mu, v = np.linalg.eigh(k[list(dens)])
    scale = np.max(np.abs(mu), axis=-1)
    margin = mu[..., 0] / np.maximum(scale, SCALE_FLOOR)
    stats = [{"route": route, "interior_points": len(zs), "k0_relative_min": float(np.min(m))}
             for m in margin]
    certs = [_infeasible(k[1 - den], mu[j], v[j], scale[j], zs, stats[j])
             for j, den in enumerate(dens)]
    pd = [j for j, cert in enumerate(certs) if cert is None]
    if pd:
        # W = K0^(-1/2) via the eigendecomposition, then lambda_max(W K1 W)
        w = (v[pd] * (mu[pd] ** -0.5)[..., None, :]) @ np.conj(np.swapaxes(v[pd], -1, -2))
        lams = np.linalg.eigvalsh(w @ k[[1 - dens[j] for j in pd]] @ w)[..., -1]
        for j, lam in zip(pd, lams):
            i = int(np.argmax(lam))
            certs[j] = HarnackCertificate(c_squared=max(float(lam[i]), 1.0), feasible=True,
                                          worst_z=complex(zs[i]), stats=stats[j])
    return certs


def _infeasible(k1: np.ndarray, mu: np.ndarray, v: np.ndarray, scale: np.ndarray,
                zs: np.ndarray, stats: dict) -> HarnackCertificate | None:
    """None when K(T0), of eigenpairs mu, v, is positive definite at every z;
    else the infeasible certificate where K(T1) first leaks out of the null
    directions (beyond LEAK_TOL), InteriorSingularError where it leaks nowhere."""
    degenerate = mu[:, 0] <= PD_FLOOR * scale
    if not degenerate.any():
        return None
    for i in np.nonzero(degenerate)[0]:
        null_dirs = v[i][:, mu[i] <= PD_FLOOR * scale[i]]
        leak = np.linalg.norm(k1[i] @ null_dirs, axis=0)
        if (leak > LEAK_TOL * max(np.max(np.abs(k1[i])), 1.0)).any():
            return HarnackCertificate(c_squared=math.inf, feasible=False,
                                      worst_z=complex(zs[i]), stats=stats)
    i = int(np.nonzero(degenerate)[0][0])
    raise InteriorSingularError(f"K_z(T0) is not positive definite at interior sample "
                                f"z={zs[i]}", z=complex(zs[i]))


def domination_constant(t1, t0, rho: float, grid: DiscGrid | None = None) -> HarnackCertificate:
    """Best constant c^2 with K_z(T1) <= c^2 K_z(T0) on the ring of grid.

    Raises InteriorSingularError when K_z(T0) degenerates at a ring sample
    while K_z(T1) vanishes on the same directions (the pencil is then
    ill-posed); returns an infeasible certificate when K_z(T1) does not
    vanish there, relative to LEAK_TOL (no finite constant can work).
    """
    pair, route = _operands(t1, t0)
    zs = _samples(route, (grid or _GRID).interior_points())
    return _certificates(_resolvent_sum(pair, zs, rho), zs, route, dens=(1,))[0]


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
    dims0 and the principal-angle residuals (1 where the nullities differ).
    route is "rotation" when they were read at z = 1 and hold at every z of
    the circle (a pair of weighted shifts), "sampled" when read at each z."""

    equal: bool
    z: np.ndarray
    dims1: np.ndarray
    dims0: np.ndarray
    residuals: np.ndarray
    route: str

    def __bool__(self) -> bool:
        return self.equal

    def nullities(self) -> tuple[set, set]:
        return set(self.dims1.tolist()), set(self.dims0.tolist())


def _torus(pair: np.ndarray, route: str, torus_angles: int) -> tuple:
    """The torus_angles unit-circle samples and the points route evaluates,
    once neither operand has unit-circle spectrum (one ``eigvals``, T1 first)."""
    if torus_angles < 1:
        raise ValueError("torus_angles must be positive")
    for label, torus in zip(("T1", "T0"), _torus_spectrum(pair)):
        if torus:
            raise TorusSpectrumError(f"{label} has spectrum on the unit circle")
    zs = roots_of_unity(torus_angles)
    return zs, _samples(route, zs)


def _compare(k: np.ndarray, route: str, zs: np.ndarray, points: np.ndarray) -> NullspaceComparison:
    """``nullspace_equality`` from the kernels k = [K(T1), K(T0)] at points:
    one ``eigh`` of both operands' null frames, then one stacked SVD."""
    vectors, mask = _torus_frames(k, points, NULLSPACE_TOL)
    frames, dims = vectors * mask[:, None, :], mask.sum(axis=1)
    p = len(points)
    f1, f0, dims1, dims0 = frames[:p], frames[p:], dims[:p], dims[p:]
    sigma = np.linalg.svd(np.conj(np.swapaxes(f1, -1, -2)) @ f0, compute_uv=False)
    cosine = sigma[np.arange(p), np.maximum(dims1 - 1, 0)]
    residuals = np.where(dims1 != dims0, 1.0, np.where(dims1 == 0, 0.0, 1.0 - cosine))
    equal = bool(((dims1 == dims0) & (residuals <= NULLSPACE_MATCH_TOL)).all())
    if route == "rotation":
        dims1, dims0, residuals = (np.repeat(x, len(zs)) for x in (dims1, dims0, residuals))
    return NullspaceComparison(equal=equal, z=zs, dims1=dims1, dims0=dims0,
                               residuals=residuals, route=route)


def nullspace_equality(t1, t0, rho: float, torus_angles: int = 256) -> NullspaceComparison:
    """True iff the kernel null spaces of T1 and T0 agree at every sampled
    unit-circle point (equal dimension, principal-angle residual within
    NULLSPACE_MATCH_TOL); for a pair of weighted shifts, read at z = 1, at
    every unit-circle point.

    Both matrices must be free of unit-circle spectrum (one test of both,
    TorusSpectrumError naming T1 or T0).  A GapTooSmallError from the
    null-space extraction names the offending z.  The residual is 1 - sigma_k,
    k the nullity, from one stacked SVD of the masked frames (V1 M1)* (V0 M0).
    """
    pair, route = _operands(t1, t0)
    zs, points = _torus(pair, route, torus_angles)
    return _compare(_resolvent_sum(pair, points, rho), route, zs, points)


@dataclass(frozen=True)
class HarnackEvidence:
    nullspaces: NullspaceComparison
    constant_nullity: bool
    forward: HarnackCertificate
    backward: HarnackCertificate


def are_harnack_equivalent(t1, t0, rho: float, grid: DiscGrid | None = None,
                           torus_angles: int = 256) -> tuple[bool, HarnackEvidence]:
    """Decide Harnack equivalence of two torus-spectrum-free class members.

    The verdict is the null-space condition (equality at every sampled torus
    point, or at every unit-circle point for a pair of weighted shifts)
    together with constant nullity across the samples; the two directed ring
    domination constants, scored from the same stacked kernel evaluation of
    both operands, are attached as corroboration, never as the verdict.
    """
    pair, route = _operands(t1, t0)
    zs, points = _torus(pair, route, torus_angles)
    ring = _samples(route, (grid or _GRID).interior_points())
    k = _resolvent_sum(pair, np.concatenate([points, ring]), rho)
    comparison = _compare(k[:, :len(points)], route, zs, points)
    dims1, dims0 = comparison.nullities()
    constant = len(dims1) == 1 and len(dims0) == 1
    forward, backward = _certificates(k[:, len(points):], ring, route)
    return bool(comparison) and constant, HarnackEvidence(comparison, constant, forward, backward)
