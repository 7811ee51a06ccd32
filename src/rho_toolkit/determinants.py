"""Determinant recurrences for shift kernels.

The kernel of the weight-a truncated shift at z = 1 is the symmetric Toeplitz
matrix with diagonal rho and off-diagonal entries a^|i-j|.  Its principal
determinants D_k (``kernel_det``) satisfy a three-term recurrence

    D_k = alpha D_{k-1} - beta D_{k-2},
    alpha = rho + (rho - 2) a^2,   beta = a^2 (1 - rho)^2,

with D_0 = rho, D_1 = rho^2 - a^2.  The companion family ("capped": same
matrix but with the last diagonal entry replaced by 1) obeys the same
recurrence with initial values 1 and rho - a^2.  The characteristic roots of
r^2 - alpha r + beta split into three regimes by the sign of the discriminant

    (a^2 - 1) ((a+1) rho - 2a) ((a-1) rho - 2a),

which equals alpha^2 - 4 beta.  Each recurrence value is doubled by a
brute-force LU determinant of the explicitly constructed matrix in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Rescaling guard: |values| beyond this are scaled down and the exponent is
# recorded, so the recurrence never produces inf - inf.
RESCALE_LIMIT = 1e300
# relative agreement of the critical closed forms with the recurrences
CLOSED_FORM_TOL = 1e-9


@dataclass(frozen=True)
class RecurrenceState:
    """A run of the three-term recurrence with its coefficients.

    values holds the (possibly rescaled) sequence; scale_pow10 counts how many
    factors of 1e300 were divided out of the trailing values.
    """

    rho: float
    a: float
    alpha: float
    beta: float
    values: tuple = field(default=())
    scale_pow10: int = 0

    @staticmethod
    def coefficients(a: float, rho: float) -> tuple[float, float]:
        return rho + (rho - 2.0) * a * a, a * a * (1.0 - rho) ** 2


def _run(d0: float, d1: float, a: float, rho: float, length: int) -> RecurrenceState:
    alpha, beta = RecurrenceState.coefficients(a, rho)
    vals = [d0, d1][: length + 1]
    scale = 0
    prev2, prev1 = d0, d1
    for _ in range(2, length + 1):
        cur = alpha * prev1 - beta * prev2
        if abs(cur) > RESCALE_LIMIT:
            prev1 /= RESCALE_LIMIT
            cur /= RESCALE_LIMIT
            scale += 1
        vals.append(cur)
        prev2, prev1 = prev1, cur
    return RecurrenceState(rho=rho, a=a, alpha=alpha, beta=beta,
                           values=tuple(vals), scale_pow10=scale)


def _unscale(value: float, count: int) -> float:
    # repeated float multiplication saturates to +-inf instead of raising
    for _ in range(count):
        value *= RESCALE_LIMIT
        if math.isinf(value):
            break
    return value


def kernel_det(k: int, a: float, rho: float) -> float:
    """Determinant of the (k+1)x(k+1) shift-kernel matrix (diagonal rho)."""
    state = kernel_det_state(k, a, rho)
    return _unscale(state.values[k], state.scale_pow10)


def kernel_is_positive(k: int, a: float, rho: float) -> bool:
    """Whether the (k+1)x(k+1) shift-kernel matrix is positive definite, by
    Sylvester's criterion on the pivots q_j = D_j/D_{j-1}: q_0 = rho,
    q_1 = (rho^2 - a^2)/rho, q_j = alpha - beta/q_{j-1} (Barth, Martin &
    Wilkinson, Numer. Math. 9, 1967).  A positive pivot never exceeds alpha."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    alpha, beta = RecurrenceState.coefficients(a, rho)
    q = rho
    for j in range(k):
        if not q > 0:
            return False
        q = (rho * rho - a * a) / rho if j == 0 else alpha - beta / q
    return q > 0


def capped_kernel_det(m: int, a: float, rho: float) -> float:
    """Same determinant but with the last diagonal entry replaced by 1."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    state = _run(1.0, rho - a * a, a, rho, m)
    return _unscale(state.values[m], state.scale_pow10)


def kernel_det_state(k: int, a: float, rho: float) -> RecurrenceState:
    """The full recurrence run behind ``kernel_det`` (values 0..k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _run(rho, rho * rho - a * a, a, rho, k)


def kernel_det_matrix(k: int, a: float, rho: float) -> np.ndarray:
    """Explicit matrix whose determinant is kernel_det(k, a, rho)."""
    idx = np.arange(k + 1)
    m = (a ** idx.astype(float))[np.abs(idx[:, None] - idx[None, :])]
    np.fill_diagonal(m, rho)
    return m


def capped_kernel_det_matrix(m: int, a: float, rho: float) -> np.ndarray:
    out = kernel_det_matrix(m, a, rho)
    out[m, m] = 1.0
    return out


def discriminant(a: float, rho: float) -> float:
    """(a^2-1)((a+1)rho - 2a)((a-1)rho - 2a), = alpha^2 - 4 beta."""
    return (a * a - 1.0) * ((a + 1.0) * rho - 2.0 * a) * ((a - 1.0) * rho - 2.0 * a)


def recurrence_roots(a: float, rho: float) -> tuple[complex, complex]:
    """Roots of r^2 - alpha r + beta, ordered by real part (real case) or as
    the conjugate pair (lower half-plane first)."""
    alpha, beta = RecurrenceState.coefficients(a, rho)
    disc = complex(alpha * alpha - 4.0 * beta)
    root = complex(np.sqrt(disc))
    return complex((alpha - root) / 2.0), complex((alpha + root) / 2.0)


def critical_closed_form(m: int, n: int) -> tuple[float, float]:
    """Closed forms of both determinant families at the double-root point.

    The discriminant vanishes at rho0 = n + 2, a0 = (n+2)/n, where the
    recurrence has the double root lam = a0 (1 + a0) / (a0 - 1) and

        capped value at index m:  (1 + (1 - a0) m) lam^m
        kernel value at index m:  (rho0 - a0 m) lam^m.

    Agreement with the recurrences is asserted to CLOSED_FORM_TOL relative.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rho0 = float(n + 2)
    a0 = (n + 2.0) / n
    lam = a0 * (1.0 + a0) / (a0 - 1.0)
    capped = (1.0 + (1.0 - a0) * m) * lam ** m
    kernel = (rho0 - a0 * m) * lam ** m
    for closed, rec in ((capped, capped_kernel_det(m, a0, rho0)),
                        (kernel, kernel_det(m, a0, rho0))):
        # lam^m is the size of the terms the recurrence cancels, so it is the
        # honest scale when the closed form is (near) zero
        scale = max(abs(closed), abs(rec), lam ** m, 1.0)
        if abs(closed - rec) > CLOSED_FORM_TOL * scale:
            raise AssertionError(
                f"closed form {closed!r} disagrees with recurrence {rec!r} at m={m}, n={n}"
            )
    return capped, kernel


def mixed_identity_residual(m: int, a: float, rho: float) -> float:
    """Relative residual of the cross-family identity

        capped_m = (a^2 (rho-2) + 1) kernel_{m-1} - a^2 (rho-1)^2 kernel_{m-2},

    expected at roundoff level (<= 1e-10) for m >= 2.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    lhs = capped_kernel_det(m, a, rho)
    rhs = (a * a * (rho - 2.0) + 1.0) * kernel_det(m - 1, a, rho) \
        - a * a * (rho - 1.0) ** 2 * kernel_det(m - 2, a, rho)
    return relative_residual(lhs, rhs)


def relative_residual(p: float, q: float) -> float:
    """|p - q| / max(|p|, |q|, 1): relative where the values are large,
    absolute near zero."""
    return abs(p - q) / max(abs(p), abs(q), 1.0)
