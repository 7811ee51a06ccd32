"""Structural facts about the normalized shift and its Harnack part.

The kernel of the radius-normalized shift is singular along the whole unit
circle with a one-dimensional null space C (v0, z v1, ..., z^n vn).  The
coefficient vector is antisymmetric under index reversal (v_k = -v_{n-k}),
which forces the middle coordinate to vanish exactly when the dimension n+1
is odd, and all other coordinates are nonzero.  This module reads that
profile off the angle of the radius system in closed form (the stacked
``eigh`` extraction, ``circle_null_vectors``, is its oracle), verifies its
rotation covariance, and implements the downstream characterizations:
necessary membership conditions, the diagonal-unitary orbit predicate,
irreducibility via the commutant dimension, and the canonical family of the
classical-numerical-radius class (rho = 2).  The battery's criterion c13
checks the orbit predicate against the null-space verdict on single-coordinate
phase twists at every n = 1..6 and every rho of its sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GapTooSmallError, NotUnitaryError
from .kernel import torus_null_frames
from .linalg import NULLSPACE_TOL, as_cmatrix, spectral_norm
from .radius import RadiusResult, cos_omega, shift_radius, solve_cache
from .shifts import make_shift, normalized_shift

STRUCTURE_TOL = 1e-7  # unit of the profile's support threshold, bound of its residuals
MEMBERSHIP_TOL = 1e-9  # largest norm at which a membership condition's entries count as zero
COMMUTANT_TOL = 1e-10  # relative singular-value floor of the commutant's null space
UNITARY_TOL = 1e-10  # spectral norm of U* U - I within which U counts as unitary


@dataclass(frozen=True)
class NullProfile:
    """Null vector of the normalized-shift kernel at z = 1, phase-fixed so
    that v0 is real positive; radius is the ``shift_radius`` result it was
    read from (the normalized shift has weight 1 / radius.value); v is
    read-only.

    zero_pattern marks coordinates with |v_k| below the support threshold
    (10 * tol for a unit vector); antisymmetry_residual is max_k |v_k + v_{n-k}|.
    """

    n: int
    rho: float
    v: np.ndarray
    antisymmetry_residual: float
    zero_pattern: tuple
    radius: RadiusResult

    @property
    def support(self) -> tuple:
        return tuple(k for k, z in enumerate(self.zero_pattern) if not z)

    @classmethod
    def from_vector(cls, v, rho: float, radius: RadiusResult,
                    tol: float = STRUCTURE_TOL) -> NullProfile:
        """The profile of a z = 1 null vector v, however it was found."""
        v = np.asarray(v, dtype=complex)
        v = v * np.conj(v[0] / abs(v[0]))
        v = v / np.linalg.norm(v)
        v.flags.writeable = False
        return cls(n=v.shape[0] - 1, rho=float(rho), v=v,
                   antisymmetry_residual=float(np.max(np.abs(v + v[::-1]))),
                   zero_pattern=tuple(bool(x) for x in np.abs(v) <= 10.0 * tol),
                   radius=radius)


@solve_cache
def null_profile(n: int, rho: float, tol: float = STRUCTURE_TOL) -> NullProfile:
    """The kernel null vector of the normalized shift at z = 1 in closed form,
    v_k = sin(m phi / 2) / (phi / 2) with m = n - 2k: the antisymmetric solution
    of the interior rows v_{k+1} = 2 cos(phi) v_k - v_{k-1} (K_1(S_a) is
    (a^|i-j|) + (rho - 1) I, a = 1/w_rho); the end rows hold because (1/a, phi)
    solves the radius system, which ``shift_radius`` checks.  phi is its angle
    where there is one, else arccos of the cosine equation: 0 at rho = n + 2,
    imaginary above (a sinh profile).  Memoized like ``shift_radius``
    (``solve_cache``)."""
    if not rho > 1:
        raise ValueError("rho must be > 1")
    res = shift_radius(n, rho)
    phi = res.omega
    if phi is None:
        phi = np.arccos(complex(cos_omega(res.value, rho)))
    m = n - 2 * np.arange(n + 1)
    return NullProfile.from_vector(m * np.sinc(m * phi / (2.0 * np.pi)), rho, res, tol)


def circle_null_vectors(n: int, rho: float, zs, tol: float = NULLSPACE_TOL) -> np.ndarray:
    """The kernel null vector of ``normalized_shift(n, rho)`` at each
    unit-circle point of a 1-d array zs, one row per z, from one stacked
    ``torus_null_frames`` extraction at tol; GapTooSmallError names a z where
    the nullity is not 1 (or is ill-determined)."""
    zs = np.asarray(zs, dtype=complex)
    vectors, mask = torus_null_frames(normalized_shift(n, rho), rho, zs, tol)
    nullity = mask.sum(axis=1)
    if np.any(nullity != 1):
        i = int(np.argmax(nullity != 1))
        raise GapTooSmallError(f"nullity {nullity[i]} != 1 at z = {zs[i]}", index=i)
    return vectors[np.arange(len(zs)), :, np.argmax(mask, axis=1)]


def rotation_family_check(n: int, rho: float, z_samples, tol: float = STRUCTURE_TOL) -> float:
    """Worst principal-angle residual 1 - |<u, w>| between the null vector u
    at z (``circle_null_vectors``, its GapTooSmallError included) and the
    rotated closed-form profile w = diag(1, z, ..., z^n) v / |v|; both read
    one radius solve.  tol reaches only the profile's zero pattern, which the
    residual does not read."""
    profile = null_profile(n, rho, tol)
    zs = np.asarray(z_samples, dtype=complex)
    u = circle_null_vectors(n, rho, zs)
    w = zs[:, None] ** np.arange(n + 1) * profile.v
    w = w / np.linalg.norm(w, axis=1, keepdims=True)
    return float(np.max(1.0 - np.abs(np.sum(np.conj(u) * w, axis=1)), initial=0.0))


@dataclass(frozen=True)
class MembershipReport:
    """The three necessary conditions for membership in the shift's part,
    each holding when its norm is at most MEMBERSHIP_TOL."""

    first_column_norm: float
    last_row_norm: float
    corner_value: float

    @property
    def first_column_zero(self) -> bool:
        return self.first_column_norm <= MEMBERSHIP_TOL

    @property
    def last_row_zero(self) -> bool:
        return self.last_row_norm <= MEMBERSHIP_TOL

    @property
    def corner_zero(self) -> bool:
        return self.corner_value <= MEMBERSHIP_TOL

    def __bool__(self) -> bool:
        return self.first_column_zero and self.last_row_zero and self.corner_zero


def membership_necessary_conditions(t) -> MembershipReport:
    """Check T e_0 = 0, T* e_n = 0 and <T e_n | e_0> = 0."""
    a = as_cmatrix(t)
    n = a.shape[0] - 1
    return MembershipReport(
        first_column_norm=float(np.linalg.norm(a[:, 0])),
        last_row_norm=float(np.linalg.norm(a[n, :])),
        corner_value=float(abs(a[0, n])),
    )


def unitary_orbit_predicate(u, n: int, rho: float) -> bool:
    """True iff U fixes every supported profile coordinate up to one common
    unimodular factor: U e_k = alpha e_k for all k with v_k != 0, each
    within STRUCTURE_TOL.

    The factor alpha is fitted from the first supported coordinate.  For a
    diagonal U the predicate says whether U* S U stays in the Harnack part
    of the normalized shift S; the battery's criterion c13 checks that
    against ``nullspace_equality`` on single-coordinate phase twists.
    """
    a = as_cmatrix(u)
    if a.shape[0] != n + 1:
        raise ValueError(f"U must be {n + 1} x {n + 1}")
    eye = np.eye(n + 1)
    if spectral_norm(np.conj(a).T @ a - eye) > UNITARY_TOL:
        raise NotUnitaryError(f"U is not unitary within {UNITARY_TOL}")
    support = null_profile(n, rho).support
    alpha = a[support[0], support[0]]
    if abs(abs(alpha) - 1.0) > STRUCTURE_TOL:
        return False
    return all(
        float(np.linalg.norm(a[:, k] - alpha * eye[:, k])) <= STRUCTURE_TOL
        for k in support
    )


def commutator_system(a: np.ndarray) -> np.ndarray:
    """The 2d^2 x d^2 system [I (x) A - A^T (x) I; I (x) A* - conj(A) (x) I],
    whose null space holds vec(X), columns stacked, of every X with AX = XA
    and A*X = XA*, from one broadcast over the stack B = [A, A*]: entry
    (i d + k, j d + l) of block B is I[i, j] B[k, l] - B[j, i] I[k, l], the
    products and differences ``np.kron`` forms, bit for bit."""
    d = a.shape[0]
    eye = np.eye(d)
    stack = np.stack([a, np.conj(a).T])
    system = (eye[:, None, :, None] * stack[:, None, :, None, :]
              - stack.transpose(0, 2, 1)[:, :, None, :, None] * eye[:, None, :])
    return system.reshape(2 * d * d, d * d)


def commutant_dimension(t) -> int:
    """Real dimension of the Hermitian solutions of TX = XT, T*X = XT*.

    Dimension 1 means the commutant of {T, T*} is trivial, i.e. only the
    scalars commute with both: T is irreducible, no nontrivial orthogonal
    projection commutes with T and T*.  The commutant is a *-algebra, X = H + iK
    with H, K Hermitian, so this equals the complex dimension of all its
    solutions: the null space of ``commutator_system``, counted by its
    singular values at or below COMMUTANT_TOL * sigma_max.
    """
    sigma = np.linalg.svd(commutator_system(as_cmatrix(t)), compute_uv=False)
    top = sigma[0] if sigma.size and sigma[0] > 0 else 1.0
    return int(np.sum(sigma <= COMMUTANT_TOL * top))


def c2_shift(n: int) -> np.ndarray:
    """The rho = 2 normalized shift in closed form: weight 1/cos(pi/(n+2))."""
    return make_shift(n, 1.0 / math.cos(math.pi / (n + 2)))


def canonical_form_c2(n: int, theta: float) -> np.ndarray:
    """Canonical member of the Harnack part of the rho = 2 normalized shift
    with the same norm, superdiagonal weight a = 1/cos(pi/(n+2)).

    Odd dimension (n = 2p): the two middle superdiagonal entries carry the
    phases e^{i theta} and e^{-i theta}.  Even dimension (n odd): the part is
    phase-rigid and the matrix is the shift itself; theta is ignored.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = c2_shift(n)
    if n % 2 == 1:
        return s
    return _phase_twist(s, n // 2, theta)


def _phase_twist(t, k: int, theta: float) -> np.ndarray:
    """D* T D with D = diag(1, ..., e^{i theta} at k, ..., 1)."""
    d = np.ones(t.shape[0], dtype=complex)
    d[k] = np.exp(1j * theta)
    # 0 * e^{i theta} can leave -0.0 in a zero entry; + 0.0 restores T's 0.0
    return np.conj(d)[:, None] * t * d[None, :] + 0.0
