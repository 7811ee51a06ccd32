"""Quantitative verification battery.

Every check re-derives one numeric claim about radius-normalized truncated
shifts at desk scale and records expected vs computed values with an explicit
tolerance.  The battery backs both ``rho-toolkit verify`` and the acceptance
test module; check ids are stable.

The case-2 family (ids c08-*) checks the determinant decrease and the root
split on the normalized recurrence, D_k/(a(rho-1))^k with characteristic
polynomial r^2 - (alpha/(a(rho-1))) r + 1, the scaling that
``oscillatory_closed_form`` uses.  Read on the raw D_k the claim fails at
every case-2 point; the check notes print the normalized values compared.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .determinants import (capped_kernel_det, capped_kernel_det_matrix,
                           discriminant, kernel_det, kernel_det_matrix,
                           kernel_det_state, mixed_identity_residual,
                           recurrence_roots, relative_residual)
from .harnack import domination_constant, nullspace_equality
from .kernel import DiscGrid, rho_kernel, roots_of_unity, torus_nullspace
from .radius import (angle_system_report, critical_rho, determinant_radius, nilpotent_margin,
                     omega_of_rho_curve, oscillatory_closed_form, radius_bisect,
                     shift_radius)
from .shifts import make_shift, normalized_shift
from .structure import (STRUCTURE_TOL, NullProfile, _phase_twist, c2_shift,
                        canonical_form_c2, commutant_dimension,
                        membership_necessary_conditions, rotation_family_check)


@dataclass(frozen=True, slots=True)
class CheckResult:
    id: str
    paper_location: str
    expected: object
    computed: object
    tolerance: float
    passed: bool
    note: str = ""

    def __post_init__(self):
        # every pass of the battery rebuilds equal ids and notes; interned,
        # the reports a caller keeps share one copy of each.  Criteria may
        # compute passed as a numpy bool; the reports carry a Python bool.
        object.__setattr__(self, "id", sys.intern(self.id))
        object.__setattr__(self, "note", sys.intern(self.note))
        object.__setattr__(self, "passed", bool(self.passed))


# the fields of one check in the JSON and CSV reports, in order
_COLUMNS = ("id", "paper_location", "expected", "computed", "tolerance", "pass", "note")


@dataclass(frozen=True)
class VerifyReport:
    """The checks in battery order; seconds is each criterion's wall time,
    by criterion id, measured around its run in the calling thread (not
    compared: two reports of the same checks are equal)."""

    checks: tuple
    seconds: dict = field(default_factory=dict, compare=False)

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed,
                "failed": len(self.checks) - passed}

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {"summary": self.summary,
                "checks": [dict(zip(_COLUMNS, (c.id, c.paper_location, c.expected, c.computed,
                                               c.tolerance, c.passed, c.note)))
                           for c in self.checks],
                "seconds": dict(self.seconds)}

    def to_csv_rows(self) -> list:
        return [list(_COLUMNS)] + [
            [c.id, c.paper_location, repr(c.expected), repr(c.computed), repr(c.tolerance),
             str(c.passed), c.note] for c in self.checks]

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.id:40s} expected={_fmt(c.expected):>14s} "
                         f"computed={_fmt(c.computed):>14s} tol={c.tolerance:.1e}")
            if c.note and not c.passed:
                lines.append(f"       {c.note}")
        s = self.summary
        lines.append(f"{s['passed']}/{s['total']} checks passed, {s['failed']} failed")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.8g}"
    return str(value)


def _cap(spec_max: int, n_max: int | None) -> int:
    return spec_max if n_max is None else max(min(spec_max, n_max), 1)


def _within(cid, paper_location, expected, computed, tolerance, note=""):
    """A two-sided numeric check: passed when |computed - expected| <= tolerance."""
    return CheckResult(id=cid, paper_location=paper_location, expected=expected,
                       computed=computed, tolerance=tolerance,
                       passed=abs(computed - expected) <= tolerance, note=note)


def _equal(cid, paper_location, expected, computed, note=""):
    """An exact check: passed when computed == expected."""
    return CheckResult(id=cid, paper_location=paper_location, expected=expected,
                       computed=computed, tolerance=0.0, passed=computed == expected, note=note)


# ----------------------------------------------------------------- criteria

def _c00_sign_convention(n_max, seed):
    rho = 3.0
    k = rho_kernel(np.zeros((4, 4)), 0.37 + 0.11j, rho).matrix
    dev = float(np.max(np.abs(k - rho * np.eye(4))))
    return [_within(
        "c00-kernel-normalization", "kernel normalization at the zero matrix", 0.0, dev, 1e-13,
        note="K(0) = rho*I = 3*I; the opposite sign convention would give (4-rho)*I = 1*I",
    )]


def _c01_closed_form_rho2(n_max, seed):
    checks = []
    for n in range(2, _cap(20, n_max) + 1):
        expected = math.cos(math.pi / (n + 2))
        checks.append(_within(f"c01-closed-form-omega-n{n:02d}",
                              "closed form of the rho=2 shift radius",
                              expected, shift_radius(n, 2.0).value, 1e-10))
        checks.append(_within(f"c01-closed-form-bisect-n{n:02d}",
                              "closed form of the rho=2 shift radius (level-set route)",
                              expected, radius_bisect(make_shift(n, 1.0), 2.0).value, 1e-5))
    return checks


def _c02_critical_point(n_max, seed):
    checks = []
    for n in range(1, _cap(12, n_max) + 1):
        rho0, a0 = critical_rho(n)
        expected = n / (n + 2.0)
        checks.append(_within(f"c02-critical-value-n{n:02d}",
                              "critical parameter value for the truncated shift",
                              expected, shift_radius(n, rho0).value, 1e-8))
        det = determinant_radius(n, rho0)
        checks.append(_within(f"c02-critical-determinant-n{n:02d}",
                              "critical radius recomputed from the kernel determinant",
                              expected, det.value, 1e-8))
        checks.append(_within(f"c02-critical-discriminant-n{n:02d}",
                              "recurrence discriminant vanishes at the critical point",
                              0.0, discriminant(1.0 / det.value, rho0), 1e-8))
    return checks


def _c03_discriminant_sign(n_max, seed):
    checks = []
    for n in range(2, _cap(10, n_max) + 1):
        for delta in (-1.0, -0.25, 0.25, 1.0):
            rho = n + 2 + delta
            a = 1.0 / determinant_radius(n, rho).value
            disc = discriminant(a, rho)
            checks.append(_equal(f"c03-disc-sign-n{n:02d}-delta{delta:+.2f}",
                                 "sign of the discriminant at the normalized weight",
                                 math.copysign(1.0, delta), math.copysign(1.0, disc),
                                 note=f"discriminant({a:.6f}, {rho}) = {disc:.6e}"))
    return checks


def _c04_determinant_oracle(n_max, seed):
    grid_a = (0.5, 1.0, 1.7, 3.0)
    grid_rho = (1.5, 2.0, 4.0)
    points = [(a, rho) for a in grid_a for rho in grid_rho]
    worst_kernel = worst_capped = worst_mixed = 0.0
    for m in range(0, 9):
        lu_kernel = np.linalg.det(np.stack([kernel_det_matrix(m, a, rho) for a, rho in points]))
        lu_capped = np.linalg.det(np.stack([capped_kernel_det_matrix(m, a, rho)
                                            for a, rho in points]))
        for (a, rho), lu_k, lu_c in zip(points, lu_kernel.tolist(), lu_capped.tolist()):
            rec = kernel_det(m, a, rho)
            worst_kernel = max(worst_kernel, relative_residual(lu_k, rec))
            rec = capped_kernel_det(m, a, rho)
            worst_capped = max(worst_capped, relative_residual(lu_c, rec))
            if m >= 2:
                worst_mixed = max(worst_mixed, mixed_identity_residual(m, a, rho))
    return [
        _within("c04-kernel-dets-vs-lu", "kernel determinant recurrence vs LU factorization",
                0.0, worst_kernel, 1e-10),
        _within("c04-capped-dets-vs-lu", "capped determinant recurrence vs LU factorization",
                0.0, worst_capped, 1e-10),
        _within("c04-mixed-identity", "cross-family determinant identity",
                0.0, worst_mixed, 1e-10),
    ]


def _rho_sweep(n: int) -> list:
    return [1.2, 1.5, 2.0, 3.0, float(n + 2), float(n + 4)]


def _c05_null_profiles(n_max, seed):
    # reads the eigh extraction: null_profile's closed form is antisymmetric by design
    checks = []
    for n in range(1, _cap(12, n_max) + 1):
        worst_anti = 0.0
        failures = []
        for rho in _rho_sweep(n):
            res = shift_radius(n, rho)
            vecs = torus_nullspace(make_shift(n, 1.0 / res.value), rho, 1.0, STRUCTURE_TOL)
            if len(vecs) != 1:
                failures.append(f"nullity {len(vecs)} at rho={rho}")
                continue
            profile = NullProfile.from_vector(vecs[0], rho, res, STRUCTURE_TOL)
            v = profile.v
            worst_anti = max(worst_anti, profile.antisymmetry_residual)
            for k in range(n + 1):
                if n % 2 == 0 and k == n // 2:
                    if abs(v[k]) > STRUCTURE_TOL:
                        failures.append(f"middle coordinate not zero at rho={rho}")
                elif not abs(v[k]) > 1e-5:
                    failures.append(f"v[{k}] ~ 0 at rho={rho}")
            if profile.antisymmetry_residual > STRUCTURE_TOL:
                failures.append(f"antisymmetry {profile.antisymmetry_residual:.2e} at rho={rho}")
        checks.append(CheckResult(
            id=f"c05-null-profile-n{n:02d}",
            paper_location="null-vector antisymmetry and zero pattern",
            expected=0.0, computed=worst_anti, tolerance=STRUCTURE_TOL,
            passed=not failures, note="; ".join(failures),
        ))
    return checks


def _c06_rotation_family(n_max, seed):
    roots = roots_of_unity(16)
    checks = []
    for n in range(1, _cap(12, n_max) + 1):
        worst = 0.0
        for rho in _rho_sweep(n):
            worst = max(worst, rotation_family_check(n, rho, roots))
        checks.append(_within(f"c06-rotation-family-n{n:02d}",
                              "rotation covariance of the kernel null spaces",
                              0.0, worst, STRUCTURE_TOL))
    return checks


def _c07_angle_system(n_max, seed):
    checks = []
    for n in range(2, _cap(12, n_max) + 1):
        rhos = [1.5, 2.0, (n + 3) / 2.0, n + 1.75]
        worst_main = 0.0
        worst_closed = 0.0
        for rho in rhos:
            report = angle_system_report(n, rho)
            a = report.a
            worst_main = max(worst_main, report.main_residual)
            for k in range(0, n + 1):
                closed = oscillatory_closed_form(k, n, rho)
                rec = kernel_det(k, a, rho)
                # rho |lambda|^k is the prefactor of the sine ratio: the honest
                # relative scale where both sides cancel to ~0 (k = n)
                scale = max(abs(closed), abs(rec), rho * (a * (rho - 1.0)) ** k)
                worst_closed = max(worst_closed, abs(closed - rec) / scale)
        checks.append(_within(f"c07-main-identity-n{n:02d}",
                              "sine identity at the radius solution", 0.0, worst_main, 1e-9))
        try:
            curve = omega_of_rho_curve(n, np.linspace(1.05, n + 2 - 0.05, 16))
            drops = [w1 - w2 for (_, w1), (_, w2) in zip(curve, curve[1:])]
            ok, computed = all(d > 0 for d in drops), min(drops)
        except AssertionError as exc:
            ok, computed = False, float("nan")
        checks.append(CheckResult(
            id=f"c07-angle-monotone-n{n:02d}",
            paper_location="strict decrease of the auxiliary angle in rho",
            expected="decreasing", computed=computed, tolerance=0.0, passed=ok,
        ))
        checks.append(_within(f"c07-closed-form-n{n:02d}",
                              "oscillatory-regime determinant closed form",
                              0.0, worst_closed, 1e-8))
    return checks


def _c08_case2_monotone(n_max, seed):
    # D_k carries (a(rho-1))^k and beta = (a(rho-1))^2, so the normalized
    # roots multiply to 1.  Raw, both roots exceed 1 whenever a >= 1 and
    # rho >= 4, since 1 - alpha + beta >= (rho-2)^2 > 0.
    checks = []
    for n in range(2, _cap(10, n_max) + 1):
        rho = float(n + 4)
        a = 1.0 / determinant_radius(n, rho).value
        scale = a * (rho - 1.0)
        seq = [v / scale ** k for k, v in enumerate(kernel_det_state(n, a, rho).values)]
        rises = [(m, seq[m], seq[m + 1]) for m in range(n) if not seq[m + 1] < seq[m]]
        l1, l2 = (r / scale for r in recurrence_roots(a, rho))
        roots_ok = bool(abs(l1.imag) == 0.0 and abs(l2.imag) == 0.0
                        and l1.real < 1.0 < l2.real)
        note = (f"D_k/(a(rho-1))^k at a(rho)={a:.6f}: "
                + " -> ".join(f"{v:.6g}" for v in seq))
        if rises:
            m, lo, hi = rises[0]
            note += f"; rises at k={m}: {lo:.6g} -> {hi:.6g}"
        checks.append(_equal(f"c08-case2-monotone-n{n:02d}",
                             "normalized determinant decrease in the positive-discriminant regime",
                             True, not rises, note=note))
        checks.append(_equal(
            f"c08-case2-roots-n{n:02d}",
            "root split lambda1 < 1 < lambda2 of the normalized recurrence", True, roots_ok,
            note=(f"roots of r^2 - (alpha/(a(rho-1))) r + 1: "
                  f"lambda1={l1.real:.6f}, lambda2={l2.real:.6f}")))
    return checks


_THETAS_C9 = (0.0, 0.7, math.pi / 2, math.pi, 4.0)
_OFFSUPPORT_THETAS_C9 = (0.7, math.pi / 2)


def _householder(d: int) -> np.ndarray:
    """The reflection I - 2 u u^T / |u|^2, u = (1, 2, ..., d): real orthogonal
    and, for d >= 2, not diagonal."""
    u = np.arange(1.0, d + 1.0)
    return np.eye(d) - 2.0 * np.outer(u, u) / (u @ u)


def _c09_comparisons(n, thetas):
    """For each theta, the middle twist against the shift twice: by the
    rotation route, and by the sampled route on both operands conjugated by
    one Householder reflection Q (K_z(Q T Q^T) = Q K_z(T) Q^T, so principal
    angles agree)."""
    s, q = c2_shift(n), _householder(n + 1)
    cases = []
    for theta in thetas:
        t = _phase_twist(s, (n + 1) // 2, theta)
        cases.append((theta, nullspace_equality(t, s, 2.0, tol=STRUCTURE_TOL),
                      nullspace_equality(q @ t @ q.T, q @ s @ q.T, 2.0, tol=STRUCTURE_TOL)))
    return cases


def _c09_harnack_part(n_max, seed):
    # even n: every twist stays in the part; odd n: off-support twists leave it
    cases = {n: _c09_comparisons(n, _OFFSUPPORT_THETAS_C9 if n % 2 else _THETAS_C9)
             for n in range(1, 5)}
    checks = []
    coarse = DiscGrid(radii=(0.99,))
    fine = DiscGrid()
    for n in (2, 4):
        for theta, direct, _ in cases[n]:
            checks.append(_equal(f"c09-part-n{n}-theta{theta:.2f}",
                                 "canonical family stays in the shift's Harnack part",
                                 True, direct.equal))
        s = c2_shift(n)
        t = canonical_form_c2(n, 0.7)
        ratios = []
        for t1, t0 in ((t, s), (s, t)):
            c_coarse = domination_constant(t1, t0, 2.0, coarse)
            c_fine = domination_constant(t1, t0, 2.0, fine)
            ratios.append(c_fine.c_squared / c_coarse.c_squared)
        ok = all(math.isfinite(r) and r <= 2.0 for r in ratios)
        checks.append(CheckResult(
            id=f"c09-stability-n{n}",
            paper_location="two-way domination constants stable under grid refinement",
            expected="ratio <= 2", computed=max(ratios), tolerance=2.0, passed=ok,
        ))
    for n in (1, 3):
        checks.append(_equal(f"c09-offsupport-n{n}",
                             "off-support phase twists leave the Harnack part",
                             False, any(direct.equal for _, direct, _ in cases[n])))
    for n in range(1, 5):
        mismatches = [f"theta={theta:.2f}: {direct.route} {direct.equal} "
                      f"{direct.nullities()} vs {oracle.route} {oracle.equal} "
                      f"{oracle.nullities()}"
                      for theta, direct, oracle in cases[n]
                      if not ((direct.route, oracle.route) == ("rotation", "sampled")
                              and direct.equal == oracle.equal
                              and np.array_equal(direct.dims1, oracle.dims1)
                              and np.array_equal(direct.dims0, oracle.dims0))]
        checks.append(_equal(f"c09-oracle-n{n}",
                             "rotation-route Harnack verdicts match the sampled route",
                             True, not mismatches, note="; ".join(mismatches)))
    return checks


def _c10_membership(n_max, seed):
    checks = []
    for n in (2, 4):
        worst = 0.0
        for theta in _THETAS_C9:
            t = canonical_form_c2(n, theta)
            rep = membership_necessary_conditions(t, tol=1e-9)
            worst = max(worst, rep.first_column_norm, rep.last_row_norm, rep.corner_value)
        checks.append(_within(f"c10-membership-n{n}",
                              "necessary conditions on members of the shift's part",
                              0.0, worst, 1e-9))
    return checks


def _c11_nilpotent_bound(n_max, seed):
    checks = []
    for m in (2, 3, 4):
        rng = np.random.default_rng([seed, m])
        worst = -math.inf
        for _ in range(30):
            t = np.triu(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), k=1)
            worst = max(worst, nilpotent_margin(m, t))
        checks.append(CheckResult(
            id=f"c11-nilpotent-bound-m{m}",
            paper_location="radius bound for nilpotent matrices",
            expected=0.0, computed=worst, tolerance=1e-5, passed=worst <= 1e-5,
        ))
    return checks


def _c12_irreducibility(n_max, seed):
    checks = []
    cases = [
        ("c12-shift-dim2", normalized_shift(1, 2.0)),
        ("c12-shift-dim4", normalized_shift(3, 2.0)),
        ("c12-canonical-dim2", canonical_form_c2(1, 0.7)),
        ("c12-canonical-dim4", canonical_form_c2(3, 0.7)),
    ]
    for cid, t in cases:
        checks.append(_equal(cid, "irreducibility via trivial commutant",
                             1, commutant_dimension(t)))
    return checks


CRITERIA = (
    ("c00", "kernel sign convention", _c00_sign_convention),
    ("c01", "closed form at rho = 2", _c01_closed_form_rho2),
    ("c02", "critical point", _c02_critical_point),
    ("c03", "discriminant sign regime", _c03_discriminant_sign),
    ("c04", "determinant oracle equivalence", _c04_determinant_oracle),
    ("c05", "null-vector structure", _c05_null_profiles),
    ("c06", "rotation family", _c06_rotation_family),
    ("c07", "trig system", _c07_angle_system),
    ("c08", "case-2 monotone decrease", _c08_case2_monotone),
    ("c09", "Harnack part at rho = 2", _c09_harnack_part),
    ("c10", "membership necessaries", _c10_membership),
    ("c11", "nilpotent bound", _c11_nilpotent_bound),
    ("c12", "irreducibility", _c12_irreducibility),
)


def default_jobs() -> int:
    # the battery runs in the calling thread; perfbench/run.py still divides
    # by this for verify.pool_busy_frac
    return 1


def run_battery(n_max: int | None = None, seed: int = 0, criteria=None) -> VerifyReport:
    """Run the verification battery.

    n_max caps the upper end of every n-sweep (None = the full stated
    ranges); criteria optionally selects criterion ids like {"c05", "c07"},
    and an id not in CRITERIA raises ValueError.  The criteria run one after
    another in the calling thread, so the checks are deterministic; the
    report's seconds are not.
    """
    known = {cid for cid, _, _ in CRITERIA}
    unknown = sorted(set(criteria or ()) - known)
    if unknown:
        raise ValueError(f"unknown criterion ids: {unknown}")
    checks = []
    seconds: dict[str, float] = {}
    for cid, _, fn in CRITERIA:
        if criteria is None or cid in criteria:
            start = time.perf_counter()
            checks.extend(fn(n_max, seed))
            seconds[cid] = time.perf_counter() - start
    ids = [c.id for c in checks]
    if len(ids) != len(set(ids)):
        raise AssertionError("duplicate check ids in the battery")
    return VerifyReport(checks=tuple(checks), seconds=seconds)
