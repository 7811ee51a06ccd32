import math

import numpy as np
import pytest

from rho_toolkit import (BracketInvalidError, NotNilpotentError, critical_rho,
                         determinant_radius, discriminant, make_shift,
                         nilpotent_bound, omega_of_rho_curve, radius_bisect,
                         shift_radius, spectral_norm)

from conftest import random_unitary


class TestShiftRadius:
    def test_rho2_closed_form(self):
        for n in (2, 3, 7, 12, 20):
            res = shift_radius(n, 2.0)
            assert res.value == pytest.approx(math.cos(math.pi / (n + 2)), abs=1e-12)
            assert res.omega == pytest.approx(math.pi / (n + 2), abs=1e-9)
            assert res.method == "companion"

    def test_critical_parameter(self):
        res = shift_radius(2, 4.0)
        assert res.value == 0.5
        assert res.method == "closed_form"

    def test_dim2_is_reciprocal_rho(self):
        for rho in (1.5, 2.9):
            res = shift_radius(1, rho)
            assert res.value == pytest.approx(1.0 / rho, abs=1e-9)
            assert res.method == "companion"

    def test_norm_at_rho_one(self):
        assert shift_radius(5, 1.0).value == 1.0

    def test_angle_residual_reported(self):
        res = shift_radius(7, 2.4)
        assert res.residual <= 1e-9
        assert 0 < res.omega < math.pi / 7

    def test_result_fields_mutually_consistent(self):
        # the reported residual must bound an external recomputation of both
        # defining equations at the returned (value, omega)
        for n, rho in ((3, 1.4), (5, 2.0), (8, 4.4), (12, 9.5)):
            res = shift_radius(n, rho)
            x, w = res.value, res.omega
            r1 = abs(math.sin(n * w) / math.sin(w) - rho * x)
            r2 = abs(math.cos(w) - (rho * x * x + rho - 2) / (2 * x * (rho - 1)))
            assert max(r1, r2) <= res.residual + 1e-15
            assert res.bracket[0] <= x <= res.bracket[1]

    def test_near_tangency_regression(self):
        # near rho*(10) ~ 7.3145 the angle equation has two nearly coincident
        # admissible roots; the boundary certificate must pick the physical one
        for rho in (7.0, 7.3145, 7.317, 7.33):
            omega_route = shift_radius(10, rho)
            det_route = determinant_radius(10, rho)
            assert omega_route.value == pytest.approx(det_route.value, abs=1e-8)

    def test_dispatch_above_critical(self):
        res = shift_radius(3, 8.0)
        assert res.method == "companion"
        assert abs(res.value - determinant_radius(3, 8.0).value) <= 1e-8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shift_radius(0, 2.0)
        with pytest.raises(ValueError):
            shift_radius(3, 0.9)


class TestDeterminantRadius:
    def test_dim2_critical(self):
        res = determinant_radius(1, 3.0)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_critical_family(self):
        for n in (1, 2, 5, 9):
            res = determinant_radius(n, float(n + 2))
            assert res.value == pytest.approx(n / (n + 2.0), abs=1e-9)

    def test_rho2_cross_check(self):
        for n in (2, 5, 11):
            res = determinant_radius(n, 2.0)
            assert res.value == pytest.approx(math.cos(math.pi / (n + 2)), abs=1e-9)

    def test_residual_is_boundary_eigenvalue(self):
        res = determinant_radius(4, 3.3)
        assert res.residual <= 1e-8

    def test_rejects_rho_one(self):
        with pytest.raises(ValueError):
            determinant_radius(3, 1.0)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_bracket_holds_the_value(self, tol):
        for n in (1, 2, 5, 12, 24):
            for rho in (1.001, 2.0, (n + 3) / 2.0, n + 2.0, 3.0 * n + 7.0):
                res = determinant_radius(n, rho, tol=tol)
                lo, hi = res.bracket
                assert lo <= res.value <= hi
                assert hi - lo <= tol * hi


class TestRadiusBisect:
    def test_unimodular_scalar(self):
        for rho in (1.0, 2.0, 5.0):
            res = radius_bisect(np.diag([np.exp(0.4j)]), rho)
            assert res.value == 1.0
            assert res.bracket == (1.0, 1.0)

    def test_dim2_critical(self):
        res = radius_bisect(make_shift(1, 1.0), 3.0)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_rho2_closed_form(self):
        res = radius_bisect(make_shift(2, 1.0), 2.0)
        assert res.value == pytest.approx(math.cos(math.pi / 4), abs=1e-5)

    def test_normal_matrix_returns_lower_endpoint(self):
        res = radius_bisect(np.diag([0.7, -0.7]), 2.5)
        assert res.value == pytest.approx(0.7)
        assert res.bracket[0] == res.bracket[1]

    def test_floor_attained_off_grid_angle(self):
        # w_rho = |lambda| > w_rho(N) for lambda (+) N, arg lambda off the grid
        # angles: every sampled threshold sits below the floor
        t = np.zeros((3, 3), dtype=complex)
        t[0, 0], t[1, 2] = np.exp(0.3j), 1.5
        res = radius_bisect(t, 2.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.residual == 0.0

    def test_zero_matrix(self):
        res = radius_bisect(np.zeros((2, 2)), 2.0)
        assert res.value == 0.0
        assert res.method == "closed_form"

    def test_rejects_rho_below_one(self):
        for t in (make_shift(2, 1.0), np.diag([0.7, -0.7])):
            with pytest.raises(ValueError):
                radius_bisect(t, 0.5)

    def test_rotated_nilpotent_dense(self):
        # a draw whose sample set hit a singular I - conj(z) T when membership
        # went through the resolvent
        rng = np.random.default_rng((40, 21))
        b = rng.uniform(0.5, 2)
        u = random_unitary(rng, 21)
        res = radius_bisect(u @ make_shift(20, b) @ u.conj().T, 22.0)
        assert res.value == pytest.approx(b * 20 / 22, abs=1e-5)

    def test_general_bracket_on_random_matrices(self, rng):
        # norm/rho <= w_rho <= norm, and kernel positivity flips across the
        # computed value: above it the kernel is positive on 2048 circle
        # points, below it negative at the witness
        from rho_toolkit import rho_kernel, spectral_radius
        from rho_toolkit.kernel import _resolvent_sum, roots_of_unity

        for _ in range(5):
            t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = float(rng.uniform(1.0, 4.0))
            res = radius_bisect(t, rho)
            norm = spectral_norm(t)
            assert max(spectral_radius(t), norm / rho) - 1e-12 <= res.value <= norm + 1e-12
            if res.value > max(spectral_radius(t), norm / rho):
                above = _resolvent_sum(t / (res.value * (1 + 1e-4)), roots_of_unity(2048), rho)
                assert np.linalg.eigvalsh(above)[:, 0].min() >= -1e-9
                below = t / (res.value * (1 - 1e-4))
                assert rho_kernel(below, res.stats["witness"], rho).min_eigenvalue < 0


def _numerical_radius(t: np.ndarray) -> float:
    """max over theta of lambda_max Re(e^{-i theta} T) (w_2), on 2048 angles
    and then by golden-section search around every sampled local maximum."""
    tstar = t.conj().T

    def f_many(thetas):
        e = np.exp(-1j * thetas)[:, None, None]
        return np.linalg.eigvalsh(0.5 * (e * t + np.conj(e) * tstar))[:, -1]

    return _golden_max(lambda theta: float(f_many(np.atleast_1d(theta))[0]), f_many)


def _threshold_max(t: np.ndarray, rho: float) -> float:
    """Largest ``companion_threshold`` on the unit circle: 2048 angles, then
    golden-section search around every sampled local maximum."""
    from rho_toolkit.kernel import companion_threshold

    def f(theta):
        return float(companion_threshold(t, np.exp(1j * np.atleast_1d(theta)), rho)[0])

    return _golden_max(f, lambda thetas: companion_threshold(t, np.exp(1j * thetas), rho))


def _golden_max(f, f_many, k: int = 2048) -> float:
    thetas = 2 * np.pi * np.arange(k) / k
    v = f_many(thetas)
    best = float(v.max())
    g = (math.sqrt(5) - 1) / 2
    for i in np.flatnonzero((v >= np.roll(v, 1)) & (v >= np.roll(v, -1))):
        a, b = thetas[i] - 2 * np.pi / k, thetas[i] + 2 * np.pi / k
        for _ in range(60):
            c, d = b - g * (b - a), a + g * (b - a)
            if f(c) >= f(d):
                b = d
            else:
                a = c
        best = max(best, f(0.5 * (a + b)))
    return best


class TestLevelSet:
    @pytest.fixture(scope="class")
    def rho2_inputs(self):
        rng = np.random.default_rng(909)
        return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in (3, 4, 5, 6, 7, 8) for _ in range(4)][:20]

    def test_rho2_matches_dense_numerical_radius(self, rho2_inputs):
        for t in rho2_inputs:
            res = radius_bisect(t, 2.0)
            ref = _numerical_radius(t)
            assert abs(res.value - ref) <= 1e-9 * ref
            assert res.method == "level_set"

    def test_never_below_the_sampled_maximum(self, rho2_inputs):
        from rho_toolkit.kernel import companion_threshold, roots_of_unity

        for t in rho2_inputs:
            sampled = float(companion_threshold(t, roots_of_unity(512), 2.0).max())
            assert radius_bisect(t, 2.0).value >= sampled * (1 - 1e-12)

    def test_bracket_and_certificate(self, rng):
        from rho_toolkit.radius import CERTIFICATE_TOL, CROSSING_TOL, LEVEL_GAP

        for rho in (1.01, 1.5, 3.0, 7.0, 30.0):
            t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            res = radius_bisect(t, rho)
            lo, hi = res.bracket
            assert lo <= res.value <= hi
            assert hi - lo == pytest.approx(LEVEL_GAP * res.value, rel=1e-6)
            assert res.residual <= CERTIFICATE_TOL * rho * res.value ** 2
            stats = res.stats
            assert stats["crossing_tol"] == CROSSING_TOL
            assert 1 <= stats["iterations"] <= 6
            assert stats["threshold_points"] >= 8
            assert abs(stats["witness"]) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_invariant_shift_stops_after_one_step(self):
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 8)
        for t in (make_shift(7, 1.3), u @ make_shift(7, 1.3) @ u.conj().T):
            res = radius_bisect(t, 4.0)
            assert res.stats["iterations"] == 1
            assert res.stats["threshold_points"] == 8
            assert res.value == pytest.approx(1.3 * shift_radius(7, 4.0).value, rel=1e-10)

    def test_twin_peaks(self, rng):
        # w_rho(A (+) e^{i phi} A) = w_rho(A): two equal maxima, apart on the circle
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = np.zeros((6, 6), dtype=complex)
        t[:3, :3], t[3:, 3:] = a, np.exp(2.1j) * a
        for rho in (1.5, 2.0, 5.0):
            single = radius_bisect(a, rho).value
            assert radius_bisect(t, rho).value == pytest.approx(single, rel=1e-10)
        assert radius_bisect(t, 2.0).value == pytest.approx(_numerical_radius(a), rel=1e-9)

    def test_spurious_candidates_end_the_iteration(self, rng, monkeypatch):
        # candidates whose arcs stay below the level cost a threshold each and
        # leave the value as it is
        from rho_toolkit import radius

        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        clean = radius_bisect(t, 3.0)
        real = radius._crossing_angles
        monkeypatch.setattr(radius, "_crossing_angles", lambda *args: np.sort(
            np.concatenate([real(*args), [0.1, 0.2, 6.2]])))
        noisy = radius_bisect(t, 3.0)
        assert noisy.value == pytest.approx(clean.value, rel=1e-12)
        assert noisy.stats["threshold_points"] > clean.stats["threshold_points"]

    def test_refuses_when_the_level_does_not_settle(self, rng, monkeypatch):
        from rho_toolkit import NoRootError, radius

        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert radius_bisect(t, 2.0).stats["iterations"] > 1
        monkeypatch.setattr(radius, "BISECT_MAX_ITER", 1)
        with pytest.raises(NoRootError, match="not settled"):
            radius_bisect(t, 2.0)

    @pytest.mark.parametrize("rho", [15.0, 30.0, 60.0])
    def test_nilpotent_at_large_rho(self, rho):
        # Q_z is ill-conditioned here (norm / w_rho up to 17): roundoff moves
        # real crossings off the axis by up to 1e-4 of the plain companion
        rng = np.random.default_rng([5, int(rho)])
        for d in (3, 4, 5, 6, 7):
            t = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1)
            ref = max(_threshold_max(t, rho), spectral_norm(t) / rho)
            assert abs(radius_bisect(t, rho).value - ref) <= 1e-9 * ref

    def test_other_routes_leave_stats_empty(self):
        assert shift_radius(4, 2.5).stats == {}
        assert determinant_radius(4, 2.5).stats == {}
        assert radius_bisect(np.zeros((2, 2)), 2.0).stats == {}


class TestThreeWayAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 10, 12, 17, 24])
    def test_omega_vs_determinant(self, n):
        # rho -> 1, both regimes, the critical point, rho >> n + 2, and at
        # n = 10 the near-tangent points of the angle equation
        rhos = [1.001, 1.5, 2.0, (n + 3) / 2.0, n + 1.75, float(n + 2), n + 2.5,
                n + 6.0, 3.0 * n + 7.0]
        if n == 10:
            rhos += [7.0, 7.3145, 7.317, 7.33]
        for rho in rhos:
            res = shift_radius(n, rho)
            det_route = determinant_radius(n, rho).value
            assert abs(res.value - det_route) <= 1e-8
            if res.omega is not None:
                w = res.omega
                assert abs(math.sin(n * w) / math.sin(w) - rho * res.value) <= 1e-9

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_omega_vs_bisection(self, n):
        for rho in (1.5, 2.0, 3.0, float(n + 2), float(n + 4)):
            omega_route = shift_radius(n, rho).value
            bisect_route = radius_bisect(make_shift(n, 1.0), rho).value
            assert abs(omega_route - bisect_route) <= 1e-5

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_radius_product_bounds(self, n):
        # 1 < rho * w_rho for rho > 1; w_rho nonincreasing and rho w_rho
        # nondecreasing along a rho grid
        rhos = [1.2, 1.7, 2.5, 4.0, float(n + 2), float(n + 3)]
        values = [shift_radius(n, r).value for r in rhos]
        assert all(r * w > 1.0 for r, w in zip(rhos, values))
        assert all(w1 >= w2 - 1e-12 for w1, w2 in zip(values, values[1:]))
        products = [r * w for r, w in zip(rhos, values)]
        assert all(p2 >= p1 - 1e-9 for p1, p2 in zip(products, products[1:]))


class TestCriticalRho:
    def test_small_cases(self):
        assert critical_rho(1) == (3.0, 3.0)
        assert critical_rho(2) == (4.0, 2.0)

    def test_annuls_discriminant(self):
        for n in range(1, 13):
            rho0, a0 = critical_rho(n)
            assert discriminant(a0, rho0) == pytest.approx(0.0, abs=1e-10)


class TestNilpotentBound:
    def test_shift_equality_case(self, quick_grid):
        # w_{m+1}(S_m(1)) = (m-1)/(m+1) exactly
        for m in (2, 3, 4):
            assert nilpotent_bound(m, make_shift(m - 1, 1.0))

    def test_zero_padded_shift(self):
        t = np.zeros((3, 3), dtype=complex)
        t[0, 1] = 1.0
        assert nilpotent_bound(2, t)
        assert radius_bisect(t, 3.0).value == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_random_strictly_upper(self, rng):
        t = np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), k=1)
        assert nilpotent_bound(4, t)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            nilpotent_bound(2, np.eye(3))


class TestOmegaCurve:
    def test_known_point(self):
        curve = omega_of_rho_curve(4, [2.0])
        assert curve[0][1] == pytest.approx(math.pi / 6, abs=1e-9)

    def test_limit_toward_one(self):
        # omega -> pi/(n+1) as rho -> 1+
        n = 5
        (_, w), = omega_of_rho_curve(n, [1.0001])
        assert w == pytest.approx(math.pi / (n + 1), abs=1e-2)

    def test_strictly_decreasing(self):
        curve = omega_of_rho_curve(6, np.linspace(1.1, 7.9, 12))
        omegas = [w for _, w in curve]
        assert all(w1 > w2 for w1, w2 in zip(omegas, omegas[1:]))

    def test_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError):
            omega_of_rho_curve(4, [0.5])
        with pytest.raises(ValueError):
            omega_of_rho_curve(4, [6.0])
        with pytest.raises(ValueError):
            omega_of_rho_curve(1, [2.0])
