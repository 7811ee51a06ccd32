"""Computation of the rho-numerical radius w_rho.

By the Durszt congruence, gamma^2 K_z(T/gamma) is positive exactly when

    Q_z(gamma) = rho gamma^2 I - (rho - 1) gamma (conj(z) T + z T*) + (rho - 2) |z|^2 T*T

is, so the membership threshold of T/gamma at z is the largest real root
of det Q_z (``kernel.companion_threshold``).  For 1 <= rho <= 2, Q_z is
hyperbolic and the root is the largest eigenvalue of a Hermitian 2d x 2d
linearization (``eigvalsh``); for rho > 2 it is the largest real eigenvalue
of a companion matrix (``eigvals``; Tisseur and Meerbergen, SIAM Rev. 43,
2001).  ``stats["threshold_solver"]`` of a ``level_set`` or ``companion``
result names the one used.

* ``radius_bisect`` — any matrix: the largest threshold on the unit
  circle, floored at max(spectral radius, norm/rho), by the level-set
  (criss-cross) iteration of Boyd and Balakrishnan (Systems Control Lett.
  15, 1990) and Mengi and Overton (IMA J. Numer. Anal. 25, 2005): each step
  finds every point where Q_z(gamma) is singular from one 2d x 2d
  eigenproblem and moves gamma to the best midpoint threshold.  For rho <= 2
  and a threshold not flat on the circle, each rise of gamma is first
  polished by a Newton ascent on the angle, the hybrid of Mitchell (SIAM J.
  Sci. Comput. 45, 2023), so the crossing step mostly certifies that the
  peak reached is global; gamma is still a threshold attained at a point.
* ``shift_radius`` — the unit-weight truncated shift S of size n + 1: the
  threshold at z = 1, from the antisymmetric half of a z = 1 quadratic of
  the kernel (below).  Exact closed forms at rho = 1, n + 2.
* ``determinant_radius`` — the first weight where the z = 1 kernel stops
  being positive definite, bracketed on [1, rho] by Sylvester's criterion
  with probes chosen by the Illinois regula falsi on the last pivot,
  confirmed by two smallest-eigenvalue probes just inside and outside the
  root; the oracle for ``shift_radius``.

At z = 1 the kernel of S/x is the Toeplitz [a^|i-j|] + (rho - 1) I, a = 1/x.
Through the tridiagonal inverse of [a^|i-j|] (Kac, Murdock and Szego, J.
Rational Mech. Anal. 2, 1953) it is singular, for a != 1, exactly when

    rho x^2 I - (rho - 1) x A + (rho - 2) I - (rho - 1) (e_0 e_0^T + e_n e_n^T)

is, A the path adjacency on n + 1 nodes.  Both [a^|i-j|] and that quadratic
commute with the index reversal, and the kernel's null vector is
antisymmetric (``structure``), so x is the largest real root of the
quadratic's antisymmetric half, of size m = floor((n + 1)/2):

    rho x^2 I - (rho - 1) x H + K,   K = (rho - 2) I - (rho - 1) e_0 e_0^T,

H the path adjacency on m nodes with H[m-1, m-1] = -1 when n + 1 is even.
The symmetric half holds the spurious root x = 1 left by clearing 1 - a^2.
``kernel.quadratic_threshold`` solves it: for rho <= 2, K <= 0 and the root
is the largest eigenvalue of the Hermitian [[c H, R], [R, 0]], c = (rho -
1)/rho, R = diag(sqrt(-K/rho)); above, of the companion [[c H, -K/rho], [I,
0]].

For 1 < rho < n + 2 and n >= 2, x = w_rho and an angle w solve

    sin(n w) / sin(w) = rho x,
    cos(w) = (rho x^2 + rho - 2) / (2 x (rho - 1));

``shift_radius`` takes w from the cosine equation and checks the sine one;
``angle_system_report`` and ``oscillatory_closed_form`` read the paper's
identities at (1/x, w).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .determinants import kernel_det, kernel_det_matrices, kernel_pivot
from .errors import BracketInvalidError, NoRootError, NotNilpotentError
from .kernel import (DEFAULT_PSD_TOL, companion_threshold, quadratic_threshold, roots_of_unity,
                     threshold_solver)
from .kernel import is_rho_contraction  # noqa: F401, bound by perfbench/test_bench.py
from .linalg import as_cmatrix, spectral_norm, spectral_radius

BISECT_MAX_ITER = 200
CERTIFICATE_TOL = 1e-6  # |lambda_min| at a radius, relative to the kernel's scale
LEVEL_GAP = 1e-10  # relative height above the level set's value that no threshold reaches
POLISH_H = 1e-4  # angle offset of the polish's central differences (``_polish``)
POLISH_STEP_TOL = 1e-7  # angle step below which the polish stops
POLISH_MAX_STEP = math.pi / 8  # clamp on one polish step, half the start's sample spacing
POLISH_MAX_ITER = 8  # polish steps per rise of the level
SCREEN_MARGIN = 1e-12  # lambda_min/||Q_z|| above which every rho > 2 start sample passes the screen
CIRCULAR_TOL = 1e-14  # trace over ||T||_F^k that ``_circular`` counts as 0
CROSSING_TOL = 1e-2  # |Im s| cut-off, relative to max(1, |s|), of a candidate crossing
NILPOTENT_TOL = 1e-10  # ||T^m|| relative to ||T||^m that counts as T^m = 0
ROUTE_AGREEMENT = 100.0  # half-width, in tol max(1, a*), of determinant_radius's eigenvalue window
SOLVE_CACHE_SIZE = 256  # (n, rho, tol) keys kept by each solve_cache memo
SHIFT_TOL = 1e-9  # shift_radius's default angle-system tolerance
EXCLUSION_MARGIN = 1e-3  # joint residual above which an angle-system row satisfies no identity


@dataclass(frozen=True)
class RadiusResult:
    """A computed radius with its provenance.

    value     -- the computed w_rho
    method    -- one of level_set | companion | determinant_oracle | closed_form
    omega     -- auxiliary angle of the radius system when it exists, else None
    residual  -- defining-equation residual of the returned value
    bracket   -- final enclosing interval for the value
    stats     -- how the value was found (see each route), read-only; empty
                 for the closed forms
    """

    value: float
    method: str
    omega: float | None
    residual: float
    bracket: tuple[float, float]
    stats: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        # a memoized result is shared by every caller, so none may change it
        object.__setattr__(self, "stats", MappingProxyType(dict(self.stats)))


def solve_cache(fn):
    """Memoize fn(n, rho, tol) in an lru_cache of SOLVE_CACHE_SIZE entries
    keyed on (n, float(rho), float(tol)), n an integer (``operator.index``,
    so 3.0 is refused as before): positional, keyword and default tol, and
    integer and float rho, share one entry.  fn's one default is tol's.  A
    refusal is raised again on every call, not cached.  ``cache_clear`` and
    ``cache_info`` are those of the lru_cache."""
    cached = functools.lru_cache(maxsize=SOLVE_CACHE_SIZE)(fn)
    (default_tol,) = fn.__defaults__

    @functools.wraps(fn)
    def solve(n, rho, tol=default_tol):
        return cached(operator.index(n), float(rho), float(tol))

    solve.cache_clear, solve.cache_info = cached.cache_clear, cached.cache_info
    return solve


def critical_rho(n: int) -> tuple[float, float]:
    """The parameter value where the recurrence discriminant vanishes at the
    normalized weight: (rho0, a0) = (n + 2, (n + 2)/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(n + 2), (n + 2.0) / n


def _boundary_min_eig(n: int, weights: np.ndarray, rho: float) -> np.ndarray:
    """Smallest eigenvalue of the shift kernel at z = 1 at each of a 1-d
    array of weights, from one stacked ``eigvalsh``."""
    return np.linalg.eigvalsh(kernel_det_matrices(n, weights, rho))[:, 0]


def _antisymmetric_threshold(n: int, rho: float) -> float:
    """Largest real root x of rho x^2 I - (rho - 1) x H + K, the antisymmetric
    half of the shift's z = 1 quadratic (module docstring)."""
    m = (n + 1) // 2
    h = (rho - 1.0) / rho * (np.eye(m, k=1) + np.eye(m, k=-1))
    if (n + 1) % 2 == 0:
        h[-1, -1] = -(rho - 1.0) / rho
    k = np.full(m, rho - 2.0)
    k[0] = -1.0
    tail = np.sqrt(-k / rho) if threshold_solver(rho) == "eigvalsh" else k / rho
    return float(quadratic_threshold(h[None], np.diag(tail), rho)[0])


def determinant_radius(n: int, rho: float, tol: float = 1e-10) -> RadiusResult:
    """w_rho = 1/a* of the unit-weight shift, a* > 1 the first weight with a
    singular kernel at z = 1.

    The kernel is positive definite at a = 1 (BracketInvalidError if not) and
    not at a = rho (minor rho^2 - a^2).  Assuming the positive definite weights
    form the interval [1, a*), which no sampled (n, rho) contradicts, a* is
    bracketed on [1, rho] by Sylvester's criterion: the lower end positive
    definite, the upper end not, until the bracket is narrower than
    tol * max(1, upper end) (NoRootError if BISECT_MAX_ITER probes do not
    get there).  The last pivot q_n (``kernel_pivot``) is smooth up to the
    first zero of an earlier pivot and changes sign at a*, so each probe is
    the Illinois regula falsi point on q_n (Dowell and Jarratt, BIT 11,
    1971), or the midpoint where q_n is -inf at the upper end or the secant
    point leaves the bracket.  At n = 1, where a* = rho is the upper end
    itself, the first probe is rho (1 - tol/2), which settles the bracket in
    one pivot run unless roundoff puts the probe past a*.  a* is the
    bracket's midpoint, confirmed by the smallest eigenvalue in the window
    a* -+ W, W = ROUTE_AGREEMENT * tol * max(1, a*): positive at the lower
    end, not at the upper, ends clipped to [1, rho] and not probed there
    (NoRootError otherwise).  A second search on the eigenvalue would only
    repeat the pivots' verdicts far from a*, where both are well
    conditioned.  ``bracket`` is the last Sylvester interval as radii;
    ``stats`` holds the pivot runs of the search, the eigenvalue probes and
    the window (below, above) of weights.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 < rho < math.inf:
        raise ValueError("determinant route requires a finite rho > 1")
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    q_lo = kernel_pivot(n, 1.0, rho)
    if not q_lo > 0:
        raise BracketInvalidError("kernel not positive definite at a = 1")
    # q_1 vanishes at a = rho, so q_n(rho) is 0 (n = 1) or -inf: both bisect;
    # kept_lo (the end kept last was lo) starts True, which halves only -inf
    ninf = -math.inf
    lo, hi, q_hi = 1.0, float(rho), ninf
    steps, kept_lo = 0, True
    if n == 1 and lo < hi - 0.5 * tol * hi:
        # the 2 x 2 kernel is positive definite exactly for a < rho: a* is the
        # upper end, which no probe moves, so the first probe is just inside it
        a = hi - 0.5 * tol * hi
        q = kernel_pivot(1, a, rho)
        if q > 0:
            lo, q_lo = a, q
        else:
            hi, q_hi, kept_lo = a, q, False
        steps = 1
    while hi - lo >= tol * (hi if hi > 1.0 else 1.0):
        if steps == BISECT_MAX_ITER:
            raise NoRootError(f"Sylvester bracket ({lo!r}, {hi!r}) not within tol={tol!r} "
                              f"after {BISECT_MAX_ITER} steps, n={n}, rho={rho}")
        if q_hi > ninf:
            a = lo + (hi - lo) * q_lo / (q_lo - q_hi)
            if not lo < a < hi:
                a = 0.5 * (lo + hi)
        else:
            a = 0.5 * (lo + hi)
        q = kernel_pivot(n, a, rho)
        # Illinois: the end kept a second time in a row has its pivot halved
        if q > 0:
            if kept_lo:
                q_hi *= 0.5
            lo, q_lo, kept_lo = a, q, True
        else:
            if not kept_lo:
                q_lo *= 0.5
            hi, q_hi, kept_lo = a, q, False
        steps += 1
    a_star = 0.5 * (lo + hi)
    width = ROUTE_AGREEMENT * tol * max(1.0, a_star)
    below, above = max(1.0, a_star - width), min(float(rho), a_star + width)
    probes = [(a, positive) for a, positive in ((below, True), (above, False)) if 1.0 < a < rho]
    eigs = _boundary_min_eig(n, np.array([a for a, _ in probes] + [a_star]), rho)
    for (a, positive), eig in zip(probes, eigs):
        if (eig > 0) != positive:
            raise NoRootError(f"Sylvester root {a_star!r} is not confirmed by the smallest "
                              f"eigenvalue at a = {a!r}")
    resid = abs(float(eigs[-1]))
    stats = {"pivot_steps": steps, "eigenvalue_probes": len(probes),
             "window": (below, above)}
    return RadiusResult(value=1.0 / a_star, method="determinant_oracle", omega=None,
                        residual=resid, bracket=(1.0 / hi, 1.0 / lo), stats=stats)


def cos_omega(x: float, rho: float) -> float:
    """cos(omega) of the radius system at the threshold x (module docstring)."""
    return (rho * x * x + rho - 2.0) / (2.0 * x * (rho - 1.0))


def _system_residual(n: int, rho: float, x: float, w: float) -> float:
    """Worst residual of the two original angle-system equations."""
    r1 = abs(math.sin(n * w) / math.sin(w) - rho * x)
    r2 = abs(math.cos(w) - cos_omega(x, rho))
    return max(r1, r2)


@solve_cache
def shift_radius(n: int, rho: float, tol: float = SHIFT_TOL) -> RadiusResult:
    """w_rho of the unit-weight truncated shift of size n + 1, any rho >= 1.

    Exact at rho = 1 (norm 1) and rho = n + 2 (n/(n+2)); otherwise the
    threshold x of S at z = 1, the largest real root of the antisymmetric
    half of the z = 1 quadratic (module docstring).  NoRootError when the
    full z = 1 kernel at weight 1/x is not singular to CERTIFICATE_TOL rho
    (x = -inf, no real eigenvalue, included) or the radius system misses
    ``tol`` at (x, omega).  ``stats`` holds the linearization's size
    (``companion_size``, 2 floor((n + 1)/2)), the threshold solver, the
    certificate and the Newton correction to the angle (None without one).
    Memoized by ``solve_cache``: a repeated (n, rho, tol) returns the same
    result object, whose ``stats`` describe the solve that produced it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= rho < math.inf:
        raise ValueError("rho must be finite and >= 1")

    if rho == 1.0:
        return RadiusResult(value=1.0, method="closed_form", omega=None,
                            residual=0.0, bracket=(1.0, 1.0))
    if rho == float(n + 2):
        value = n / (n + 2.0)
        resid = abs(kernel_det(n, 1.0 / value, rho)) / rho ** n
        return RadiusResult(value=value, method="closed_form", omega=None,
                            residual=resid, bracket=(value, value))

    x = _antisymmetric_threshold(n, rho)
    certificate = abs(float(_boundary_min_eig(n, np.array([1.0 / x]), rho)[0]))
    if certificate > CERTIFICATE_TOL * rho:
        raise NoRootError(
            f"companion eigenvalue {x!r} is off the kernel positivity boundary "
            f"(certificate {certificate:.3e}) for n={n}, rho={rho}"
        )
    w, step, resid = None, None, 0.0
    if n >= 2 and rho < n + 2:
        cos_w = cos_omega(x, rho)
        if not -1.0 < cos_w < 1.0:
            raise NoRootError(f"no angle: cos(omega) = {cos_w!r} for n={n}, rho={rho}")
        w = math.acos(cos_w)
        # the cosine form loses digits like 1/(rho - 1) as rho -> 1; one
        # Newton step on the sine equation, well conditioned there, restores them
        sw = math.sin(w)
        u = math.sin(n * w) / sw
        step = -(u - rho * x) * sw / (n * math.cos(n * w) - u * cos_w)
        w += step
        resid = _system_residual(n, rho, x, w)
        if resid > tol:
            raise NoRootError(f"angle-system residual {resid:.3e} exceeds {tol:.1e}")
    stats = {"companion_size": 2 * ((n + 1) // 2), "threshold_solver": threshold_solver(rho),
             "certificate": certificate, "newton_step": step}
    return RadiusResult(value=x, method="companion", omega=w,
                        residual=max(certificate, resid), bracket=(x, x), stats=stats)


def _angle_solution(n: int, rho: float) -> tuple[float, float]:
    """(a, omega) of the radius system, a = 1/w_rho; ValueError outside
    1 < rho < n + 2 or where ``shift_radius`` has no angle (n = 1)."""
    if not 1.0 < rho < n + 2:
        raise ValueError("the angle system requires 1 < rho < n + 2")
    res = shift_radius(n, rho)
    if res.omega is None:
        raise ValueError(f"no angle available for n={n}, rho={rho}")
    return 1.0 / res.value, res.omega


def oscillatory_closed_form(k: int, n: int, rho: float) -> float:
    """Kernel determinant via the angle representation, negative-discriminant
    regime (1 < rho < n+2, weight at the radius-normalized value):

        D_k = rho a^k (rho-1)^k sin((n-k) omega) / sin(n omega).
    """
    a, w = _angle_solution(n, rho)
    return rho * a ** k * (rho - 1.0) ** k * math.sin((n - k) * w) / math.sin(n * w)


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
    a, w = _angle_solution(n, rho)
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


def _q(a: np.ndarray, rho: float, g: float, z) -> np.ndarray:
    """Q_z(g) at a unit-circle point z, or their stack over a 1-d array of
    points (module docstring)."""
    astar = np.conj(a.T)
    z = np.asarray(z)[..., None, None]
    return (rho * g * g * np.eye(a.shape[0]) - (rho - 1.0) * g * (np.conj(z) * a + z * astar)
            + (rho - 2.0) * (astar @ a))


def _crossing_angles(a: np.ndarray, rho: float, g: float, z0: complex) -> np.ndarray:
    """Angles psi in (0, 2 pi), increasing, of the candidate points z0 e^{i psi}
    where Q_z(g) is singular.

    z = z0 (s + i)/(s - i) turns (s^2 + 1) Q_z(g) into s^2 Q_z0(g) + s B +
    Q_-z0(g), B = 2 i (rho - 1) g (conj(z0) T - z0 T*), whose real roots s
    give psi = 2 atan2(1, s).  With Q_z0(g) = L L* the roots are those of the
    monic Hermitian L^-1 (...) L^-*, read off its companion scaled by
    s = alpha mu, alpha^2 = ||L^-1 Q_-z0(g) L^-*|| (Fan, Lin and Van Dooren,
    SIAM J. Matrix Anal. Appl. 26, 2004).  Roundoff moves a real root off the
    axis by up to 4.4e-3 relative (a three-fold peak, rho = 300), farther
    than some complex pairs near a peak lie, so no cut-off tells them apart:
    every root within CROSSING_TOL is a candidate and the caller judges each
    arc at its midpoint.  NoRootError unless Q_z0(g) is positive definite.
    """
    try:
        inv = np.linalg.inv(np.linalg.cholesky(_q(a, rho, g, z0)))
    except np.linalg.LinAlgError as exc:
        raise NoRootError(f"Q_z0 is not positive definite at z0={z0!r}, level {g!r}") from exc
    d = a.shape[0]
    mid = inv @ (2j * (rho - 1.0) * g * (np.conj(z0) * a - z0 * np.conj(a.T))) @ np.conj(inv.T)
    low = inv @ _q(a, rho, g, -z0) @ np.conj(inv.T)
    alpha = math.sqrt(np.linalg.norm(low))
    c = np.zeros((2 * d, 2 * d), dtype=complex)
    c[:d, :d], c[:d, d:], c[d:, :d] = -mid / alpha, -low / alpha ** 2, np.eye(d)
    s = alpha * np.linalg.eigvals(c)
    s = s[np.abs(s.imag) <= CROSSING_TOL * np.maximum(1.0, np.abs(s))].real
    return np.sort(2.0 * np.arctan2(1.0, s))


def _circular(a: np.ndarray) -> bool:
    """Whether tr T, tr T^2, tr T^2 T* and tr T^3 T*, over ||T||_F^k, are 0
    to roundoff (CIRCULAR_TOL): a cheap necessary test for T unitarily
    similar to e^{i theta} T for every theta, as a weighted shift is, whose
    threshold is then the same all round the circle.  Each trace picks up
    e^{i j theta}, j = 1, 2, 1, 2, under the rotation; the last turns away a
    T with D T D* = -T (two equal peaks), which the first three pass."""
    f = float(np.linalg.norm(a))
    t2 = a @ a
    return max(abs(np.trace(a)) / f, abs(np.trace(t2)) / f ** 2,
               abs(np.vdot(a, t2)) / f ** 3, abs(np.vdot(a, t2 @ a)) / f ** 4) <= CIRCULAR_TOL


def _polish(a: np.ndarray, rho: float, x: float, w: complex) -> tuple[float, complex, int, int]:
    """Climb the circle threshold from its value x at w by a safeguarded
    Newton iteration on the angle theta of z = e^{i theta}: each step solves
    the thresholds at theta and theta -+ POLISH_H in one stacked
    ``companion_threshold`` (the first only the two sides: its centre is w,
    whose threshold x the caller holds), reads f' and f'' off their central
    differences and moves theta by -f'/f'', clamped to POLISH_MAX_STEP.  It
    stops when f'' >= 0, when the step falls below POLISH_STEP_TOL or after
    POLISH_MAX_ITER steps.  Returns the largest threshold solved, or x if
    none exceeds it, the point where it was taken, the number of steps and
    the number of thresholds solved."""
    theta, centre, steps, points = float(np.angle(w)), x, 0, 0
    while steps < POLISH_MAX_ITER:
        offsets = [-POLISH_H, 0.0, POLISH_H] if centre is None else [-POLISH_H, POLISH_H]
        zs = np.exp(1j * (theta + np.array(offsets)))
        values = companion_threshold(a, zs, rho)
        steps, points = steps + 1, points + len(zs)
        i = int(np.argmax(values))
        if values[i] > x:
            x, w = float(values[i]), complex(zs[i])
        if centre is None:
            fm, f0, fp = values
        else:
            (fm, fp), f0, centre = values, centre, None
        curvature = fp - 2.0 * f0 + fm
        if not curvature < 0.0:
            break
        step = min(max(POLISH_H * (fm - fp) / (2.0 * curvature), -POLISH_MAX_STEP),
                   POLISH_MAX_STEP)
        if abs(step) < POLISH_STEP_TOL:
            break
        theta += step
    return x, w, steps, points


def radius_bisect(t, rho: float) -> RadiusResult:
    """w_rho(T) of any matrix: max(lo, largest threshold on the unit circle),
    lo = max(spectral radius, norm/rho), by a level-set iteration.  No
    interior threshold exceeds that value: above it Q_z > 0 on the circle, so
    K_z(T/gamma) >= 0 on the whole disc (minimum principle: K_z is harmonic
    in z there, so lambda_min K_z is least on the circle).

    lo >= norm (rho = 1, normal T, T = 0) is exact: ``closed_form``.  Otherwise
    g starts at max(lo, largest ``companion_threshold`` over the 8 roots of
    unity), anchored at z0, the sample of least threshold (``stats["start"]``
    ``"sampled"``).  For rho > 2, where a threshold is a nonsymmetric
    companion solve, a T that passes ``_circular`` has only z = 1 solved,
    giving v; the other seven samples are screened at g = max(lo, v) (1 +
    LEVEL_GAP) by one stacked ``eigvalsh`` of Q_z(g).  If lambda_min/||Q_z||
    exceeds SCREEN_MARGIN at all seven, g starts at max(lo, v), anchored at
    the sample of largest ratio (``"screened"``); otherwise the seven are
    solved too (``"sampled"``).  Each step finds the candidate crossings of
    the level g (1 + LEVEL_GAP) (``_crossing_angles``) and the thresholds at
    the midpoints of consecutive ones; g becomes the largest of them while it
    exceeds the level, and the iteration stops when none does (NoRootError
    after BISECT_MAX_ITER steps).  An arc above the level lies between two
    crossings, so its midpoint would exceed the level.  At the stop Q_z is
    thus positive semidefinite all round the circle at the level, so by the
    minimum principle no threshold exceeds it, the samples a screened start
    leaves unsolved included (Q_z(g) > 0 at one point alone would not show
    that for rho > 2: the positive set in g need not be a half-line).
    For rho <= 2 and a T that fails ``_circular``, each time g rises (the
    start's best sample, each step's best midpoint) ``_polish`` climbs from
    it to the nearby peak before the next crossing step (Mitchell, SIAM J.
    Sci. Comput. 45, 2023): a threshold there is a Hermitian ``eigvalsh``,
    cheap next to the crossing eigenproblem, which then mostly certifies
    that the peak is global.  g stays the largest threshold solved, attained
    at its witness, so the stop rule and the bracket are unchanged.  The
    polish is skipped for rho > 2, where a threshold costs about as much as
    a crossing step, and for a circular T, whose threshold is flat.  The
    result is ``level_set`` with bracket (x, x (1 + LEVEL_GAP)), x attained
    (or lo) and no circle threshold above the upper end, to the accuracy of
    ``companion_threshold`` (about 3e-10 relative at rho = 300).  A threshold
    x > lo is certified by |lambda_min Q_w(x)| <= CERTIFICATE_TOL rho x^2 at
    its witness w (NoRootError if not); x above the norm is a bug
    (BracketInvalidError).
    ``stats`` holds the steps, the threshold points (companion thresholds
    solved, the start's and the polish's included), the threshold solver,
    the start, the crossing cut-off, the witness and the polish's Newton
    steps (``newton_steps``, 0 where it does not run).
    """
    if not 1 <= rho < math.inf:
        raise ValueError("rho must be finite and >= 1")
    a = as_cmatrix(t)
    norm = spectral_norm(a)
    lo = max(spectral_radius(a), norm / rho)
    if lo >= norm:
        return RadiusResult(value=lo, method="closed_form", omega=None,
                            residual=0.0, bracket=(lo, lo))
    zs = roots_of_unity(8)
    start, z0 = "sampled", None
    solver, circular = threshold_solver(rho), _circular(a)
    polish = solver == "eigvalsh" and not circular
    if solver == "eigvals" and circular:
        values = companion_threshold(a, zs[:1], rho)
        level = max(lo, float(values[0])) * (1.0 + LEVEL_GAP)
        eigs = np.linalg.eigvalsh(_q(a, rho, level, zs[1:]))
        ratio = eigs[:, 0] / np.abs(eigs).max(axis=1)
        if ratio.min() > SCREEN_MARGIN:
            start, z0 = "screened", complex(zs[1 + np.argmax(ratio)])
        else:
            values = np.concatenate([values, companion_threshold(a, zs[1:], rho)])
    else:
        values = companion_threshold(a, zs, rho)
    if z0 is None:
        z0 = complex(zs[np.argmin(values)])
    i = int(np.argmax(values))
    x, w = (float(values[i]), complex(zs[i])) if values[i] > lo else (lo, None)
    points, newton = len(values), 0
    for step in range(1, BISECT_MAX_ITER + 1):
        if polish and w is not None:  # x has just risen to a threshold at w
            x, w, k, solved = _polish(a, rho, x, w)
            points, newton = points + solved, newton + k
        level = x * (1.0 + LEVEL_GAP)
        psi = _crossing_angles(a, rho, level, z0)
        zs = z0 * np.exp(0.5j * (psi[:-1] + psi[1:]))
        values = companion_threshold(a, zs, rho)
        points += len(zs)
        if not (len(zs) and values.max() > level):
            break
        i = int(np.argmax(values))
        x, w = float(values[i]), complex(zs[i])
    else:
        raise NoRootError(f"level set not settled after {BISECT_MAX_ITER} steps, rho={rho}")
    if x > norm * (1.0 + DEFAULT_PSD_TOL):
        raise BracketInvalidError(f"level-set value {x!r} exceeds ||T|| = {norm!r} at "
                                  f"rho={rho}: w_rho <= ||T|| fails, a bug")
    certificate = 0.0  # the floor lo needs none: w_rho >= lo always
    if w is not None:
        certificate = abs(float(np.linalg.eigvalsh(_q(a, rho, x, w))[0]))
        if certificate > CERTIFICATE_TOL * rho * x * x:
            raise NoRootError(f"level-set value {x!r} is off the positivity boundary "
                              f"at z={w!r} (certificate {certificate:.3e}), rho={rho}")
    stats = {"iterations": step, "threshold_points": points,
             "threshold_solver": solver, "start": start,
             "crossing_tol": CROSSING_TOL, "witness": w, "newton_steps": newton}
    return RadiusResult(value=x, method="level_set", omega=None, residual=certificate,
                        bracket=(x, x * (1.0 + LEVEL_GAP)), stats=stats)


def nilpotent_margin(m: int, t) -> float:
    """w_{m+1}(T) - (m-1)/(m+1) ||T|| for a matrix with T^m = 0, at most 0
    by the nilpotent bound.

    Raises NotNilpotentError when ||T^m|| exceeds NILPOTENT_TOL ||T||^m.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    a = as_cmatrix(t)
    norm = spectral_norm(a)
    power = np.linalg.matrix_power(a, m)
    if spectral_norm(power) > NILPOTENT_TOL * norm ** m:
        raise NotNilpotentError(f"||T^{m}|| = {spectral_norm(power):.3e} is not ~0")
    w = radius_bisect(a, float(m + 1)).value
    return w - (m - 1.0) / (m + 1.0) * norm


def omega_of_rho_curve(n: int, rho_samples) -> list[tuple[float, float]]:
    """Angle of the radius system at each sample; strict decrease in rho is
    asserted (samples must lie in (1, n+2), n >= 2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    samples = [float(r) for r in rho_samples]
    if any(not 1.0 < r < n + 2 for r in samples):
        raise ValueError("samples must lie inside (1, n+2)")
    curve = [(r, shift_radius(n, r).omega) for r in samples]
    ordered = sorted(curve)
    for (r1, w1), (r2, w2) in zip(ordered, ordered[1:]):
        if r2 > r1 and not w2 < w1:
            raise AssertionError(
                f"angle failed to decrease: omega({r1})={w1!r}, omega({r2})={w2!r}"
            )
    return curve
