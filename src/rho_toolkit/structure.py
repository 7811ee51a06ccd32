"""Structural facts about the normalized shift and its Harnack part.

The kernel of the radius-normalized shift is singular along the whole unit
circle with a one-dimensional null space C (v0, z v1, ..., z^n vn).  The
coefficient vector is antisymmetric under index reversal (v_k = -v_{n-k}),
which forces the middle coordinate to vanish exactly when the dimension n+1
is odd, and all other coordinates are nonzero.  This module extracts that
profile numerically, verifies its rotation covariance and reversal symmetry,
and implements the downstream characterizations: necessary membership
conditions, the diagonal-unitary orbit predicate, irreducibility via the
commutant dimension, and the canonical family of the classical-numerical-
radius class (rho = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GapTooSmallError, NotUnitaryError
from .harnack import nullspace_equality
from .kernel import torus_nullspace
from .linalg import as_cmatrix, spectral_norm
from .radius import radius_bisect
from .shifts import make_shift, normalized_shift


@dataclass(frozen=True)
class NullProfile:
    """Null vector of the normalized-shift kernel at z = 1, phase-fixed so
    that v0 is real positive.

    zero_pattern marks coordinates with |v_k| below the support threshold
    (10 * tol for a unit vector); antisymmetry_residual is max_k |v_k + v_{n-k}|.
    """

    n: int
    rho: float
    v: np.ndarray
    antisymmetry_residual: float
    zero_pattern: tuple

    @property
    def support(self) -> tuple:
        return tuple(k for k, z in enumerate(self.zero_pattern) if not z)


def null_profile(n: int, rho: float, tol: float = 1e-7) -> NullProfile:
    """Extract the kernel null vector of the normalized shift at z = 1."""
    return _profile(normalized_shift(n, rho), rho, tol)


def _profile(s: np.ndarray, rho: float, tol: float) -> NullProfile:
    """``null_profile`` of the normalized shift s, already built."""
    if not rho > 1:
        raise ValueError("rho must be > 1")
    n = s.shape[0] - 1
    vecs = torus_nullspace(s, rho, 1.0, tol)
    if len(vecs) != 1:
        raise GapTooSmallError(
            f"expected a one-dimensional null space, found {len(vecs)} directions"
        )
    v = vecs[0]
    phase = v[0] / abs(v[0])
    v = v * np.conj(phase)
    v = v / np.linalg.norm(v)
    anti = float(max(abs(v[k] + v[n - k]) for k in range(n + 1)))
    pattern = tuple(bool(abs(v[k]) <= 10.0 * tol) for k in range(n + 1))
    return NullProfile(n=n, rho=float(rho), v=v,
                       antisymmetry_residual=anti, zero_pattern=pattern)


def rotation_family_check(n: int, rho: float, z_samples, tol: float = 1e-7) -> float:
    """Worst principal-angle residual between the null space at z and the
    rotated profile diag(1, z, ..., z^n) v, from one normalized shift and one
    stacked null-space call."""
    s = normalized_shift(n, rho)
    profile = _profile(s, rho, tol)
    zs = np.asarray(z_samples, dtype=complex)
    powers = np.arange(n + 1)
    worst = 0.0
    for z, vecs in zip(zs, torus_nullspace(s, rho, zs)):
        if len(vecs) != 1:
            raise GapTooSmallError(f"nullity {len(vecs)} != 1 at z = {z}")
        u = vecs[0]
        w = (z ** powers) * profile.v
        w = w / np.linalg.norm(w)
        worst = max(worst, float(1.0 - abs(np.vdot(u, w))))
    return worst


def reversal_symmetry_check(n: int, rho: float, tol: float = 1e-7) -> int:
    """Sign epsilon with v_k = epsilon v_{n-k} for the null profile.

    The reversal operator maps e_k to e_{n-k}; the profile must be one of its
    eigenvectors.  epsilon = +1 contradicts the antisymmetry of the profile
    and raises AssertionError.
    """
    profile = null_profile(n, rho, tol)
    v = profile.v
    reversed_v = v[::-1]
    eps = 1 if np.real(np.vdot(v, reversed_v)) >= 0 else -1
    resid = float(np.linalg.norm(reversed_v - eps * v))
    if resid > 10.0 * tol:
        raise AssertionError(f"profile is not a reversal eigenvector (residual {resid:.3e})")
    if eps == 1:
        raise AssertionError("reversal symmetry came out +1; the profile must be antisymmetric")
    return eps


@dataclass(frozen=True)
class MembershipReport:
    """The three necessary conditions for membership in the shift's part."""

    first_column_norm: float
    last_row_norm: float
    corner_value: float
    tol: float

    @property
    def first_column_zero(self) -> bool:
        return self.first_column_norm <= self.tol

    @property
    def last_row_zero(self) -> bool:
        return self.last_row_norm <= self.tol

    @property
    def corner_zero(self) -> bool:
        return self.corner_value <= self.tol

    def __bool__(self) -> bool:
        return self.first_column_zero and self.last_row_zero and self.corner_zero


def membership_necessary_conditions(t, tol: float = 1e-9) -> MembershipReport:
    """Check T e_0 = 0, T* e_n = 0 and <T e_n | e_0> = 0."""
    a = as_cmatrix(t)
    n = a.shape[0] - 1
    return MembershipReport(
        first_column_norm=float(np.linalg.norm(a[:, 0])),
        last_row_norm=float(np.linalg.norm(a[n, :])),
        corner_value=float(abs(a[0, n])),
        tol=tol,
    )


def unitary_orbit_predicate(u, n: int, rho: float, tol: float = 1e-7) -> bool:
    """True iff U fixes every supported profile coordinate up to one common
    unimodular factor: U e_k = alpha e_k for all k with v_k != 0.

    The factor alpha is fitted from the first supported coordinate.
    """
    a = as_cmatrix(u)
    if a.shape[0] != n + 1:
        raise ValueError(f"U must be {n + 1} x {n + 1}")
    eye = np.eye(n + 1)
    if spectral_norm(np.conj(a).T @ a - eye) > 1e-10:
        raise NotUnitaryError("U is not unitary within 1e-10")
    support = null_profile(n, rho).support
    alpha = a[support[0], support[0]]
    if abs(abs(alpha) - 1.0) > tol:
        return False
    return all(
        float(np.linalg.norm(a[:, k] - alpha * eye[:, k])) <= tol
        for k in support
    )


def _hermitian_basis(d: int) -> list[np.ndarray]:
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / math.sqrt(2.0)
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = -1j / math.sqrt(2.0)
            e[j, i] = 1j / math.sqrt(2.0)
            basis.append(e)
    return basis


def commutant_dimension(t, tol: float = 1e-10) -> int:
    """Real dimension of the Hermitian solutions of TX = XT, T*X = XT*.

    Dimension 1 means the commutant of {T, T*} is trivial, i.e. only the
    scalars commute with both.
    """
    a = as_cmatrix(t)
    d = a.shape[0]
    basis = _hermitian_basis(d)
    cols = []
    for b in basis:
        r1 = a @ b - b @ a
        r2 = np.conj(a).T @ b - b @ np.conj(a).T
        cols.append(np.concatenate([r1.real.ravel(), r1.imag.ravel(),
                                    r2.real.ravel(), r2.imag.ravel()]))
    system = np.column_stack(cols)
    sigma = np.linalg.svd(system, compute_uv=False)
    top = sigma[0] if sigma.size and sigma[0] > 0 else 1.0
    return int(np.sum(sigma <= tol * top))


def irreducibility_check(t, tol: float = 1e-10) -> bool:
    """True iff no nontrivial orthogonal projection commutes with T and T*,
    decided by commutant dimension 1."""
    return commutant_dimension(t, tol) == 1


def canonical_form_c2(n: int, theta: float) -> np.ndarray:
    """Canonical member of the Harnack part of the rho = 2 normalized shift
    with the same norm, superdiagonal weight a = 1/cos(pi/(n+2)).

    Odd dimension (n = 2p): the two middle superdiagonal entries carry the
    phases e^{i theta} and e^{-i theta}.  Even dimension (n odd): the part is
    phase-rigid and the matrix is the shift itself; theta is ignored.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = 1.0 / math.cos(math.pi / (n + 2))
    s = make_shift(n, a)
    if n % 2 == 1:
        return s
    p = n // 2
    s[p - 1, p] = a * np.exp(1j * theta)
    s[p, p + 1] = a * np.exp(-1j * theta)
    return s


@dataclass(frozen=True)
class C2OrbitEntry:
    theta: float
    expected_equivalent: bool
    norm_value: float
    radius_value: float
    membership: MembershipReport
    nullspace_equal: bool

    @property
    def equivalent(self) -> bool:
        return self.nullspace_equal

    @property
    def consistent(self) -> bool:
        return self.equivalent == self.expected_equivalent


def c2_orbit_report(n: int, theta_samples, tol: float = 1e-7) -> list[C2OrbitEntry]:
    """Exercise the rho = 2 canonical family (or, in even dimension, the
    forbidden single-coordinate twists) against the normalized shift.

    Odd dimension: canonical_form_c2(n, theta) must be equivalent for every
    theta.  Even dimension: a phase twist at the middle coordinate must be
    equivalent only at theta = 0 (mod 2 pi).
    """
    a = 1.0 / math.cos(math.pi / (n + 2))
    s = make_shift(n, a)
    entries = []
    for theta in theta_samples:
        if n % 2 == 0:
            t = canonical_form_c2(n, theta)
            expected = True
        else:
            p = (n + 1) // 2
            twist = np.ones(n + 1, dtype=complex)
            twist[p] = np.exp(1j * theta)
            t = np.conj(twist)[:, None] * s * twist[None, :]
            expected = math.isclose(math.cos(theta), 1.0, abs_tol=1e-12)
        entries.append(C2OrbitEntry(
            theta=float(theta),
            expected_equivalent=expected,
            norm_value=spectral_norm(t),
            radius_value=radius_bisect(t, 2.0).value,
            membership=membership_necessary_conditions(t),
            nullspace_equal=bool(nullspace_equality(t, s, 2.0, tol=tol)),
        ))
    return entries
