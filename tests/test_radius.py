import math

import numpy as np
import pytest

import rho_toolkit.radius as radius
from rho_toolkit import (BracketInvalidError, NoRootError, NotNilpotentError, critical_rho,
                         determinant_radius, discriminant, is_rho_contraction, make_shift,
                         nilpotent_margin, normalized_shift, null_profile, omega_of_rho_curve,
                         radius_bisect, run_battery, shift_radius, spectral_norm)

from conftest import random_unitary
from rho_toolkit.kernel import companion_threshold, roots_of_unity


@pytest.mark.parametrize("rho", [math.nan, math.inf])
@pytest.mark.parametrize("solve", [
    lambda rho: shift_radius(2, rho),
    lambda rho: determinant_radius(2, rho),
    lambda rho: radius_bisect(make_shift(2, 1.0), rho),
    lambda rho: normalized_shift(2, rho),
    lambda rho: null_profile(2, rho),
    lambda rho: is_rho_contraction(make_shift(2, 1.0), rho),
], ids=["shift_radius", "determinant_radius", "radius_bisect", "normalized_shift",
        "null_profile", "is_rho_contraction"])
def test_non_finite_rho_is_refused(solve, rho):
    # refused at the guard, not deep in LAPACK ("must not contain infs or NaNs")
    with pytest.raises(ValueError, match="rho"):
        solve(rho)


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

    def test_stats(self):
        res = shift_radius(4, 2.5)
        assert res.stats["companion_size"] == 4
        assert shift_radius(5, 2.5).stats["companion_size"] == 6
        assert res.stats["certificate"] <= res.residual
        assert 0 < abs(res.stats["newton_step"]) < 1e-6
        assert shift_radius(1, 2.5).stats["newton_step"] is None

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0, 10.0, 300.0])
    def test_small_sizes_are_exact(self, rho):
        # the antisymmetric half is 1 x 1: (rho x - 1)(x + 1) = 0 at n = 1 and
        # rho x^2 - 1 = 0 at n = 2
        assert shift_radius(1, rho).value == pytest.approx(1.0 / rho, rel=1e-14, abs=0.0)
        assert shift_radius(2, rho).value == pytest.approx(rho ** -0.5, rel=1e-14, abs=0.0)

    @staticmethod
    def half_roots(n, rho):
        """Real roots of the symmetric and the antisymmetric half of the
        cleared z = 1 quadratic rho x^2 I - (rho - 1) x A + (rho - 2) I -
        (rho - 1)(e_0 e_0^T + e_n e_n^T), A the path adjacency, each half
        projected on an orthonormal basis of its vectors and solved by the
        nonsymmetric companion."""
        d = n + 1
        adj = np.eye(d, k=1) + np.eye(d, k=-1)
        low = (rho - 2.0) * np.eye(d)
        low[0, 0] = low[-1, -1] = -1.0
        w, v = np.linalg.eigh(np.eye(d)[::-1])  # eigenvalue +1: symmetric, -1: antisymmetric
        out = []
        for u in (v[:, w > 0], v[:, w < 0]):
            m = u.shape[1]
            c = np.zeros((2 * m, 2 * m))
            c[:m, :m] = (rho - 1.0) / rho * (u.T @ adj @ u)
            c[:m, m:], c[m:, :m] = -(u.T @ low @ u) / rho, np.eye(m)
            roots = np.linalg.eigvals(c)
            out.append(roots[np.abs(roots.imag) <= 1e-9].real)
        return out

    def test_threshold_lives_on_the_antisymmetric_half(self):
        # the symmetric half's largest root is the spurious x = 1 (a = 1) left
        # by clearing 1 - a^2; without it, the antisymmetric half's largest
        # root is the threshold and beats every symmetric one
        for n in range(1, 65):
            for rho in (1.01, 1.5, 2.0, 3.0, 10.0, 300.0, n + 2.0 - 1e-3, n + 2.0 + 1e-3):
                sym, anti = self.half_roots(n, rho)
                spurious = np.argmin(np.abs(sym - 1.0))
                assert abs(sym[spurious] - 1.0) <= 1e-12
                x = shift_radius(n, rho).value
                assert abs(anti.max() - x) <= 1e-11 * x
                assert np.delete(sym, spurious).max() < x * (1.0 - 1e-6), (n, rho)

    def test_matches_the_full_size_companion(self):
        # the 2(n + 1) linearization of Q_1(x) itself, good to about 1.5e-11
        # relative at rho = 300
        from rho_toolkit.kernel import companion_threshold

        for n in (1, 2, 3, 8, 17, 24, 40, 64):
            for rho in (1.0001, 1.5, 2.0, 2.5, n + 2.0 - 1e-9, n + 2.0 + 1e-9, 300.0):
                full = companion_threshold(np.eye(n + 1, k=1), np.ones(1), rho)[0]
                assert shift_radius(n, rho).value == pytest.approx(full, rel=2e-11, abs=0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shift_radius(0, 2.0)
        with pytest.raises(ValueError):
            shift_radius(3, 0.9)
        with pytest.raises(TypeError):
            shift_radius(3.0, 2.0)


class TestSolveCache:
    def test_result_is_read_only(self):
        res = shift_radius(4, 2.5)
        with pytest.raises(TypeError):
            res.stats["certificate"] = 0.0
        assert shift_radius(4, 2.5) is res

    def test_call_forms_share_one_entry(self):
        first = shift_radius(4, 2.5)
        assert shift_radius(4, 2.5, 1e-9) is first
        assert shift_radius(4, 2.5, tol=1e-9) is first
        assert shift_radius(n=np.int64(4), rho=2.5) is first
        info = shift_radius.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        assert shift_radius(4, 2.5, 1e-8) is not first  # tol is part of the key

    def test_integer_and_float_rho_share_one_entry(self):
        assert shift_radius(3, 2) is shift_radius(3, 2.0)
        assert shift_radius(3, 5) is shift_radius(3, 5.0)  # rho = n + 2, closed form
        assert shift_radius.cache_info().currsize == 2

    def test_refusals_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                shift_radius(3, 0.9)
        info = shift_radius.cache_info()
        assert (info.misses, info.currsize) == (2, 0)

    def test_size_is_bounded(self):
        for k in range(radius.SOLVE_CACHE_SIZE + 8):
            shift_radius(1, 1.5 + k / 64)
        info = shift_radius.cache_info()
        assert info.maxsize == radius.SOLVE_CACHE_SIZE
        assert info.currsize <= radius.SOLVE_CACHE_SIZE

    def test_c07_solves_each_key_once(self, monkeypatch):
        calls = []
        original = radius._antisymmetric_threshold

        def counted(n, rho):
            calls.append((n, rho))
            return original(n, rho)

        monkeypatch.setattr(radius, "_antisymmetric_threshold", counted)
        assert run_battery(n_max=None, criteria={"c07"}).ok
        assert calls and len(calls) == len(set(calls))


def _record_eig_probes(monkeypatch) -> list:
    """Weights at which determinant_radius takes the smallest eigenvalue."""
    probed = []
    real = radius._boundary_min_eig
    monkeypatch.setattr(radius, "_boundary_min_eig",
                        lambda n, a, rho: probed.extend(a) or real(n, a, rho))
    return probed


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

    def test_near_double_root(self):
        # just past the critical point the first root is nearly double
        res = determinant_radius(24, 26.00000000000001)
        assert res.value == pytest.approx(24 / 26, abs=1e-8)

    def test_stats(self):
        res = determinant_radius(4, 2.5)
        a_star, width = 1.0 / res.value, 100.0 * 1e-10 / res.value
        assert 0 < res.stats["pivot_steps"] <= 16  # bisection takes 34
        assert res.stats["eigenvalue_probes"] == 2
        assert res.stats["window"] == pytest.approx((a_star - width, a_star + width),
                                                    rel=1e-15)

    @pytest.mark.parametrize("offset", [-1e-6, 1e-6])
    def test_crossing_outside_the_window_is_refused(self, offset, monkeypatch):
        # the smallest eigenvalue is replaced by one that changes sign at
        # a*(1 + offset), outside the window a* -+ 100 tol a*
        from rho_toolkit import NoRootError, radius

        cross = (1.0 + offset) / determinant_radius(6, 3.0).value
        monkeypatch.setattr(radius, "_boundary_min_eig", lambda n, a, rho: cross - a)
        with pytest.raises(NoRootError, match="not confirmed"):
            determinant_radius(6, 3.0)

    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    def test_crossing_inside_the_window_is_accepted(self, offset, monkeypatch):
        from rho_toolkit import radius

        plain = determinant_radius(6, 3.0)
        cross = (1.0 + offset) / plain.value
        monkeypatch.setattr(radius, "_boundary_min_eig", lambda n, a, rho: cross - a)
        res = determinant_radius(6, 3.0)
        assert res.value == plain.value and res.bracket == plain.bracket

    @pytest.mark.parametrize("rho, probes", [(1.0 + 1e-9, 0), (1.0 + 1e-7, 1)])
    def test_lower_probe_skipped_near_rho_one(self, rho, probes, monkeypatch):
        # a* - W falls below a = 1, where the kernel is known to be positive
        probed = _record_eig_probes(monkeypatch)
        res = determinant_radius(6, rho)
        assert res.stats["window"][0] == 1.0
        assert res.stats["eigenvalue_probes"] == probes
        assert all(a >= 1.0 / res.value for a in probed)

    def test_at_most_three_eigenvalue_calls(self, monkeypatch):
        calls = _record_eig_probes(monkeypatch)
        for n, rho in ((1, 3.0), (2, 2.5), (6, 3.0), (24, 26.0), (24, 80.0)):
            calls.clear()
            determinant_radius(n, rho)
            assert len(calls) <= 3

    def test_probes_share_one_stacked_eigvalsh(self, monkeypatch):
        # stacking changes no digit: each eigenvalue is that of its own matrix
        stacks, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a) or eigvalsh(a))
        for n, rho in ((2, 2.5), (6, 3.0), (24, 80.0)):
            stacks.clear()
            res = determinant_radius(n, rho)
            (stack,) = stacks
            assert stack.shape == (3, n + 1, n + 1)
            single = [eigvalsh(k)[0] for k in stack]
            np.testing.assert_array_equal(eigvalsh(stack)[:, 0], single)
            assert res.residual == abs(single[-1])

    @pytest.mark.parametrize("tol, total", [(1e-10, 1016), (1e-13, 1168)])
    def test_pivot_steps_over_a_fixed_grid(self, tol, total):
        # bisection takes 2,457 steps at 1e-10 and 3,177 at 1e-13 on this grid;
        # the nine n = 1 points take one step each
        steps = 0
        for n in (1, 2, 3, 5, 8, 12, 17, 24):
            for rho in (1.001, 1.5, 2.0, (n + 3) / 2.0, n + 1.0, n + 2.0, n + 2.5, n + 6.0,
                        3.0 * n + 7.0):
                steps += determinant_radius(n, rho, tol=tol).stats["pivot_steps"]
        assert steps == total

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("rho", [1.001, 1.5, 3.0, 7.0, 100.0])
    def test_n1_settles_at_the_upper_end(self, rho, tol):
        # the 2 x 2 kernel is positive definite exactly for a < rho, so a* = rho
        res = determinant_radius(1, rho, tol=tol)
        assert res.stats["pivot_steps"] <= 2
        assert res.bracket[0] <= 1.0 / rho <= res.bracket[1]
        assert res.value == pytest.approx(1.0 / rho, rel=tol)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_a_tolerance_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            determinant_radius(4, 3.0, tol=tol)

    def test_refuses_a_tolerance_below_the_float_spacing(self):
        # no two floats near a* are within 1e-17 of each other relative
        with pytest.raises(NoRootError, match="not within tol"):
            determinant_radius(4, 3.0, tol=1e-17)

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
                assert np.linalg.eigvalsh(rho_kernel(below, res.stats["witness"], rho))[0] < 0


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
            assert stats["start"] == "sampled"  # a dense input is not circular
            assert stats["threshold_points"] >= 8
            assert abs(stats["witness"]) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_invariant_shift_stops_after_one_step(self):
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 8)
        for t in (make_shift(7, 1.3), u @ make_shift(7, 1.3) @ u.conj().T):
            res = radius_bisect(t, 4.0)
            assert res.stats["iterations"] == 1
            assert res.stats["threshold_points"] == 1
            assert res.value == pytest.approx(1.3 * shift_radius(7, 4.0).value, rel=1e-10)

    @pytest.mark.parametrize("rho, d", [(3.0, 5), (7.0, 8), (30.0, 48)])
    def test_rotated_shifts_take_the_screen(self, rho, d):
        # the ratio the screen reads stays below LEVEL_GAP / rho, lower still at
        # small d, so at rho = 30 a rotated shift clears SCREEN_MARGIN only from
        # d of about 44
        rng = np.random.default_rng([17, d])
        for _ in range(2):
            b = rng.uniform(0.5, 2.0)
            u = random_unitary(rng, d)
            res = radius_bisect(u @ make_shift(d - 1, b) @ u.conj().T, rho)
            assert res.stats["start"] == "screened"
            assert res.value == pytest.approx(b * shift_radius(d - 1, rho).value, rel=1e-10)

    @staticmethod
    def circular_inputs(rng, d):
        """Rotations of a weighted shift and of a direct sum of two, random
        weights (d >= 3 for the sum): circular, so the threshold is flat on
        the circle."""
        shift = np.diag(rng.uniform(0.5, 2.0, d - 1) + 0j, 1)
        split = shift.copy()
        split[d // 2 - 1, d // 2] = 0.0
        for s in (shift, split)[:1 if d == 2 else 2]:
            u = random_unitary(rng, d)
            yield u @ s @ u.conj().T

    def test_only_circular_inputs_are_screened(self):
        rng = np.random.default_rng(41)
        for d in (2, 3, 5, 8, 21):
            for t in self.circular_inputs(rng, d):
                assert radius._circular(t)
                e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                assert not radius._circular(t + 1e-12 * np.linalg.norm(t) / np.linalg.norm(e) * e)
            if d > 2:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for t in (g, np.triu(g), np.triu(g, 1)):
                    assert not radius._circular(t)
                    assert radius_bisect(t, 3.0).stats["start"] == "sampled"
        # tr T^3 T* turns away the two-fold peaks (D T D* = -T); three-fold
        # ones keep every trace of length <= 4 at 0
        for m in (2, 3):
            for t in self.cyclic_nilpotents((m,)):
                assert radius._circular(t) == (m == 3)

    def test_screen_agrees_with_the_eight_sample_start(self, monkeypatch):
        rng = np.random.default_rng(31)
        inputs = []
        for rho in (3.0, 7.0, 30.0, 60.0, 300.0):
            for d in (3, 4, 5, 6):
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                inputs += [(t, rho) for t in (g, np.triu(g), np.triu(g, 1))]
            for d in (2, 4, 8, 21):
                inputs += [(t, rho) for t in self.circular_inputs(rng, d)]
        def outcome(t, rho):
            try:
                res = radius_bisect(t, rho)
            except NoRootError:  # 2 x 2 shifts at large rho, with either start
                return "refused", None
            return res.stats["start"], (res.value, res.stats["witness"])

        screened = [outcome(t, rho) for t, rho in inputs]
        monkeypatch.setattr(radius, "SCREEN_MARGIN", math.inf)
        for (t, rho), (start, res) in zip(inputs, screened):
            ref_start, ref = outcome(t, rho)
            assert ref_start in ("sampled", "refused")
            if start == "screened":
                assert res[0] == pytest.approx(ref[0], rel=1e-13)
            else:
                assert res == ref
        assert {"screened", "sampled"} <= {start for start, _ in screened}

    def test_screened_start_never_below_the_sampled_maximum(self):
        # the seven samples a screened start leaves unsolved stay below the
        # result: at the stop Q_z is positive semidefinite all round the circle
        rng = np.random.default_rng(43)
        for rho, d in ((2.5, 5), (3.0, 8), (3.0, 13), (7.0, 8), (7.0, 13)):
            for t in self.circular_inputs(rng, d):
                res = radius_bisect(t, rho)
                assert res.stats["start"] == "screened"
                sampled = float(companion_threshold(t, roots_of_unity(512), rho).max())
                assert res.value >= sampled * (1 - 1e-12)

    def test_roundoff_flat_start_is_sampled(self, monkeypatch):
        # a 2 x 2 rotated shift's threshold is flat on the circle, and at large
        # rho Q_z one LEVEL_GAP above it is singular to roundoff; screened
        # (SCREEN_MARGIN = 0), about 1 in 100 draws at rho = 60 or 300 would
        # anchor where the Cholesky of Q_z0 fails, so such inputs keep the
        # eight-sample start and its outcome, its own refusals included
        rng = np.random.default_rng(29)
        for rho in (15.0, 60.0, 300.0):
            for _ in range(20):
                b = rng.uniform(0.5, 2.0)
                u = random_unitary(rng, 2)
                t = u @ make_shift(1, b) @ u.conj().T
                outcomes = []
                for margin in (radius.SCREEN_MARGIN, math.inf):
                    monkeypatch.setattr(radius, "SCREEN_MARGIN", margin)
                    try:
                        res = radius_bisect(t, rho)
                    except NoRootError:
                        outcomes.append("refused")
                    else:
                        assert res.stats["start"] == "sampled"
                        outcomes.append((res.value, res.stats["witness"]))
                assert outcomes[0] == outcomes[1]

    @pytest.mark.xfail(raises=NoRootError, strict=True,
                       reason="Q_z0 is singular to roundoff one LEVEL_GAP above the flat threshold")
    @pytest.mark.parametrize("rho, draw", [(60.0, 51), (60.0, 54), (60.0, 97),
                                           (300.0, 1), (300.0, 2), (300.0, 37)])
    def test_rotated_2x2_shift_at_large_rho(self, rho, draw):
        # draws of U S_b U*, S_b the 2 x 2 shift of weight b in [0.5, 2], U
        # Haar: w_rho is b/rho, but the anchor's Cholesky fails (13 of 400
        # draws of this stream at rho = 60, 21 of 400 at rho = 300)
        rng = np.random.default_rng(123)
        for _ in range(draw + 1):
            b = rng.uniform(0.5, 2.0)
            u = random_unitary(rng, 2)
        t = u @ make_shift(1, b) @ u.conj().T
        assert radius_bisect(t, rho).value == pytest.approx(b / rho, rel=1e-9)

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

    @staticmethod
    def two_peaks(a, rho, ratio=0.999):
        """(T, w_rho(A)) for T = A1 (+) B, A1 and B rotations of A (B scaled
        by ratio): A1's peak, the global one, lies midway between two 8th
        roots of unity and B's lower peak on z = 1, so the best start sample
        lies in the lower peak's basin."""
        d = len(a)
        ref = radius_bisect(a, rho)
        peak = np.angle(ref.stats["witness"])
        t = np.zeros((2 * d, 2 * d), dtype=complex)
        t[:d, :d] = np.exp(1j * (np.pi / 8 - peak)) * a
        t[d:, d:] = ratio * np.exp(-1j * peak) * a
        return t, ref.value

    def test_refuses_when_the_level_does_not_settle(self, monkeypatch):
        from rho_toolkit import NoRootError, radius

        rng = np.random.default_rng(83)
        t, _ = self.two_peaks(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 2.0)
        assert radius_bisect(t, 2.0).stats["iterations"] > 1
        monkeypatch.setattr(radius, "BISECT_MAX_ITER", 1)
        with pytest.raises(NoRootError, match="not settled"):
            radius_bisect(t, 2.0)

    def test_polish_leaves_the_lower_peak_for_the_global_one(self):
        rng = np.random.default_rng(89)
        for d in (2, 3, 5):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for rho in (1.2, 1.5, 2.0):
                t, ref = self.two_peaks(a, rho)
                samples = companion_threshold(t, roots_of_unity(8), rho)
                assert np.argmax(samples) == 0 and samples[0] < ref
                res = radius_bisect(t, rho)
                assert res.stats["newton_steps"] >= 2 and res.stats["iterations"] == 2
                assert res.value == pytest.approx(ref, rel=1e-12)

    def test_polish_agrees_with_the_crossing_steps_alone(self, monkeypatch):
        # the polish moves x only within the bracket the crossing steps would
        # stop in, and never below where they stop
        from rho_toolkit.radius import LEVEL_GAP

        rng = np.random.default_rng(97)
        inputs = []
        for d in range(2, 17):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            inputs += [(t, rho) for t in (g, np.triu(g), np.triu(g, 1))
                       for rho in (1.2, 1.5, 1.9, 2.0)]
        polished = [radius_bisect(t, rho) for t, rho in inputs]
        monkeypatch.setattr(radius, "POLISH_MAX_ITER", 0)
        plain = [radius_bisect(t, rho) for t, rho in inputs]
        for p, q in zip(polished, plain):
            assert abs(p.value - q.value) <= LEVEL_GAP * q.value
            assert p.value >= q.value * (1.0 - 1e-14)
            assert q.stats["newton_steps"] == 0
        assert sum(p.stats["iterations"] for p in polished) < sum(
            q.stats["iterations"] for q in plain)

    def test_dense_rho2_settles_in_two_steps(self):
        # the polish leaves the crossing step little more than the globality
        # certificate: a count, not a timing, guards the saving
        rng = np.random.default_rng(101)
        for d in range(3, 22):
            for _ in range(2):
                t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                stats = radius_bisect(t, 2.0).stats
                assert stats["newton_steps"] >= 1
                assert stats["iterations"] <= 2

    @pytest.mark.parametrize("rho", [15.0, 30.0, 60.0])
    def test_nilpotent_at_large_rho(self, rho):
        # Q_z is ill-conditioned here (norm / w_rho up to 17): roundoff moves
        # real crossings off the axis by up to 1e-4 of the plain companion
        rng = np.random.default_rng([5, int(rho)])
        for d in (3, 4, 5, 6, 7):
            t = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1)
            ref = max(_threshold_max(t, rho), spectral_norm(t) / rho)
            assert abs(radius_bisect(t, rho).value - ref) <= 1e-9 * ref

    @staticmethod
    def cyclic_nilpotents(ms=(2, 3)):
        """Strictly upper triangular T supported on the offsets = 1 mod m
        (m in ms), two draws per size d: D T D* = e^{-2 pi i/m} T for
        D = diag(e^{2 pi i k/m}), so the circle threshold has m equal peaks."""
        rng = np.random.default_rng(2024)
        for m in ms:
            for d in (m + 2, m + 4, 2 * m + 3):
                offset = np.subtract.outer(np.arange(d), np.arange(d))
                for _ in range(2):
                    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    yield np.where((offset < 0) & (-offset % m == 1), g, 0.0)

    def test_eight_point_start_leaves_no_point_above(self):
        # the start is load-bearing: from 3 roots of unity the worst ratio on
        # these 36 inputs is about -5e-7, and misses of 2e-4 relative occur;
        # the m = 3 ones pass _circular (no trace of length <= 4 tells a
        # three-fold peak from a flat threshold) but not the screen, and the
        # m = 2 ones fail _circular, so all eight are solved
        zs = roots_of_unity(2048)[:, None, None]
        worst = 0.0
        for t in self.cyclic_nilpotents():
            tstar = t.conj().T
            for rho in (15.0, 60.0, 300.0):
                g = radius_bisect(t, rho).value * (1.0 + 1e-8)
                q = (rho * g * g * np.eye(len(t)) - (rho - 1.0) * g * (np.conj(zs) * t + zs * tstar)
                     + (rho - 2.0) * (tstar @ t))
                eigs = np.linalg.eigvalsh(q)
                worst = min(worst, float((eigs[:, 0] / np.abs(eigs).max(axis=1)).min()))
        assert worst >= -1e-10

    def test_three_fold_peak_at_rho_300(self):
        # Q_z is so ill-conditioned here (cond 3e10) that the ratio above
        # reads only -3.5e-11; roundoff moves the crossings up to 5.5e-4 off
        # the axis, and a CROSSING_TOL below that stops 1.7e-5 below the peaks
        t = next(t for t in self.cyclic_nilpotents() if len(t) == 5)  # m = 3, first draw
        assert radius_bisect(t, 300.0).value >= _threshold_max(t, 300.0) * (1.0 - 1e-9)

    def test_other_routes_leave_stats_empty(self):
        assert shift_radius(4, 1.0).stats == {}
        assert shift_radius(4, 6.0).stats == {}
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
            assert nilpotent_margin(m, make_shift(m - 1, 1.0)) <= 1e-5

    def test_zero_padded_shift(self):
        t = np.zeros((3, 3), dtype=complex)
        t[0, 1] = 1.0
        assert nilpotent_margin(2, t) <= 1e-5
        assert radius_bisect(t, 3.0).value == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_random_strictly_upper(self, rng):
        t = np.triu(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), k=1)
        assert nilpotent_margin(4, t) <= 1e-5

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            nilpotent_margin(2, np.eye(3))


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
