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
# joint residual above which an angle-system row satisfies no identity
EXCLUSION_MARGIN = 1e-3


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
    if k < 0:
        raise ValueError("k must be nonnegative")
    state = _run(rho, rho * rho - a * a, a, rho, k)
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


def oscillatory_closed_form(k: int, n: int, rho: float) -> float:
    """Kernel determinant via the angle representation, negative-discriminant
    regime (1 < rho < n+2, weight at the radius-normalized value):

        D_k = rho a^k (rho-1)^k sin((n-k) omega) / sin(n omega).
    """
    from .radius import shift_radius

    if not 1.0 < rho < n + 2:
        raise ValueError("the oscillatory regime requires 1 < rho < n + 2")
    res = shift_radius(n, rho)
    if res.omega is None:
        raise ValueError(f"no angle available for n={n}, rho={rho}")
    a = 1.0 / res.value
    w = res.omega
    return rho * a ** k * (rho - 1.0) ** k * math.sin((n - k) * w) / math.sin(n * w)


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
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


@dataclass(frozen=True)
class AngleExclusionRow:
    """Residuals of the subordinate angle identities for one index l.

    The identities below would all have to hold if the capped determinant at
    index l vanished at the normalized weight; jointly they force the
    incompatible values pi/(n+2l) and pi/(3n-2l) for the angle.

      double_angle: |sin(2 l w) - (rho/a) sin w|
      stepdown:     |a sin((n-l) w) - sin((n-l+1) w)|
      odd_angle:    |sin((2q+1) w) - (rho-1) sin w|, q = n - l
    """

    l: int
    double_angle: float
    stepdown: float
    odd_angle: float

    @property
    def joint(self) -> float:
        return max(self.double_angle, self.stepdown)


@dataclass(frozen=True)
class AngleSystemReport:
    omega: float
    a: float
    main_residual: float
    rows: tuple

    @property
    def excluded(self) -> bool:
        """True when no index l satisfies the subordinate identities jointly."""
        return all(row.joint > EXCLUSION_MARGIN for row in self.rows)


def angle_system_report(n: int, rho: float) -> AngleSystemReport:
    """Verify the angle identities at the computed radius solution.

    The main identity sin(n w) = (rho/a) sin(w) must hold at the solution
    (residual ~ solver precision).  For each l in {1, ..., ceil(n/2)-1} the
    subordinate identities must NOT all hold, which witnesses that no interior
    coordinate of the kernel null vector can vanish.
    """
    from .radius import shift_radius

    if not 1.0 < rho < n + 2:
        raise ValueError("requires 1 < rho < n + 2")
    res = shift_radius(n, rho)
    if res.omega is None:
        raise ValueError(f"no angle available for n={n}, rho={rho}")
    w = res.omega
    a = 1.0 / res.value
    main = abs(math.sin(n * w) - (rho / a) * math.sin(w))
    rows = []
    for l in range(1, math.ceil(n / 2)):
        q = n - l
        rows.append(AngleExclusionRow(
            l=l,
            double_angle=abs(math.sin(2 * l * w) - (rho / a) * math.sin(w)),
            stepdown=abs(a * math.sin((n - l) * w) - math.sin((n - l + 1) * w)),
            odd_angle=abs(math.sin((2 * q + 1) * w) - (rho - 1.0) * math.sin(w)),
        ))
    return AngleSystemReport(omega=w, a=a, main_residual=main, rows=tuple(rows))
