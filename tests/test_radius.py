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

    def test_dim2_critical(self, quick_grid):
        res = radius_bisect(make_shift(1, 1.0), 3.0, quick_grid)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_rho2_closed_form(self, quick_grid):
        res = radius_bisect(make_shift(2, 1.0), 2.0, quick_grid)
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

    def test_general_bracket_on_random_matrices(self, rng, quick_grid):
        # norm/rho <= w_rho <= norm, and the membership predicate flips
        # across the computed value
        from rho_toolkit import is_rho_contraction, spectral_radius

        for _ in range(5):
            t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = float(rng.uniform(1.0, 4.0))
            res = radius_bisect(t, rho, quick_grid)
            norm = spectral_norm(t)
            assert max(spectral_radius(t), norm / rho) - 1e-12 <= res.value <= norm + 1e-12
            if res.value > max(spectral_radius(t), norm / rho):
                assert is_rho_contraction(t / (res.value * (1 + 1e-4)), rho, quick_grid)
                assert not is_rho_contraction(t / (res.value * (1 - 1e-4)), rho, quick_grid)


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
