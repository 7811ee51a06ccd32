import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rho_toolkit.determinants as determinants
import rho_toolkit.verify as verify
from rho_toolkit import (RecurrenceState, capped_kernel_det, capped_kernel_det_matrix,
                         critical_closed_form, determinant_radius, discriminant, kernel_det,
                         kernel_det_matrices, kernel_det_matrix, kernel_det_state,
                         kernel_pivot, mixed_identity_residual,
                         oscillatory_closed_form, recurrence_roots, rho_kernel, make_shift,
                         run_battery, shift_radius)
from rho_toolkit.determinants import coefficients

SPEC_GRID = [(a, rho) for a in (0.5, 1.0, 1.7, 3.0) for rho in (1.5, 2.0, 4.0)]


def test_initial_values():
    a, rho = 1.3, 2.4
    assert capped_kernel_det(0, a, rho) == 1.0
    assert capped_kernel_det(1, a, rho) == pytest.approx(rho - a * a)
    assert kernel_det(0, a, rho) == rho
    assert kernel_det(1, a, rho) == pytest.approx(rho * rho - a * a)


@pytest.mark.parametrize("a,rho", SPEC_GRID)
def test_recurrences_match_lu_oracle(a, rho):
    for m in range(0, 9):
        lu = np.linalg.det(kernel_det_matrix(m, a, rho))
        rec = kernel_det(m, a, rho)
        assert abs(lu - rec) <= 1e-10 * max(abs(lu), abs(rec), 1.0)
        lu = np.linalg.det(capped_kernel_det_matrix(m, a, rho))
        rec = capped_kernel_det(m, a, rho)
        assert abs(lu - rec) <= 1e-10 * max(abs(lu), abs(rec), 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.floats(0.05, 3.0), st.floats(1.05, 5.0))
def test_recurrences_match_lu_oracle_random(m, a, rho):
    lu = np.linalg.det(kernel_det_matrix(m, a, rho))
    rec = kernel_det(m, a, rho)
    assert abs(lu - rec) <= 1e-9 * max(abs(lu), abs(rec), 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 64), st.floats(-3.0, 3.0), st.floats(1.0, 300.0))
def test_kernel_det_matrix_is_the_toeplitz_power_matrix(k, a, rho):
    # indexing one power vector by |i - j| gives the entries a ** |i - j| bit for bit
    i, j = np.indices((k + 1, k + 1))
    expected = np.where(i == j, rho, a ** np.abs(i - j).astype(float))
    np.testing.assert_array_equal(kernel_det_matrix(k, a, rho), expected)


class TestKernelDetMatrices:
    def test_stack_is_the_toeplitz_power_matrices(self):
        # bit for bit, with rho one scalar or one value per weight
        weights = np.linspace(-3.0, 3.0, 13)
        rhos = np.linspace(1.0, 300.0, 13)
        for k in range(25):
            i, j = np.indices((k + 1, k + 1))
            for rho in (2.5, rhos):
                expected = np.stack([np.where(i == j, r, a ** np.abs(i - j).astype(float))
                                     for a, r in zip(weights, np.broadcast_to(rho, 13))])
                np.testing.assert_array_equal(kernel_det_matrices(k, weights, rho), expected)
                np.testing.assert_array_equal(
                    np.stack([kernel_det_matrix(k, a, r)
                              for a, r in zip(weights, np.broadcast_to(rho, 13))]), expected)

    def test_lag_cache_is_read_only(self):
        lags = determinants._lags(5)
        assert determinants._lags(5) is lags
        assert not lags.flags.writeable
        with pytest.raises(ValueError):
            lags[0, 1] = 7.0
        kernel_det_matrices(5, [1.5], 2.0)[0, 0, 1] = 9.0  # the stack itself is writable
        assert kernel_det_matrix(5, 1.5, 2.0)[0, 1] == 1.5

    def test_rejects_negative_order(self):
        for build in (kernel_det_matrix, capped_kernel_det_matrix):
            with pytest.raises(ValueError, match="k must be nonnegative"):
                build(-1, 1.4, 3.2)
        with pytest.raises(ValueError, match="k must be nonnegative"):
            kernel_det_matrices(-1, [1.4], 3.2)


def test_kernel_det_is_boundary_kernel_determinant():
    # the explicit Toeplitz matrix equals the operator kernel of the shift at
    # z = 1, so its determinant is the same thing computed two ways
    for k, a, rho in ((3, 0.8, 2.0), (5, 1.2, 3.5)):
        kz = rho_kernel(make_shift(k, a), 1.0, rho)
        np.testing.assert_allclose(kz.real, kernel_det_matrix(k, a, rho), atol=1e-12)
        assert np.linalg.det(kz).real == pytest.approx(
            kernel_det(k, a, rho), rel=1e-10)


@st.composite
def shift_kernels(draw):
    """(n, rho) with n in 1..24 and rho in (1, 3n + 7]."""
    n = draw(st.integers(1, 24))
    return n, draw(st.floats(1.0, 3.0 * n + 7.0, exclude_min=True))


class TestKernelIsPositive:
    @settings(max_examples=40, deadline=None)
    @given(shift_kernels())
    def test_positive_on_a_prefix_of_the_weights(self, kernel):
        # the interval [1, a*) that determinant_radius brackets a* in
        n, rho = kernel
        verdicts = [kernel_pivot(n, a, rho) > 0 for a in np.linspace(1.0, rho, 1000)]
        first_false = verdicts.index(False)
        assert first_false >= 1
        assert not any(verdicts[first_false:])

    @settings(max_examples=40, deadline=None)
    @given(shift_kernels())
    def test_matches_smallest_eigenvalue(self, kernel):
        # past a = rho as well, where the first pivot is the negative one
        n, rho = kernel
        weights = np.linspace(1.0, 2.0 * rho, 1000)
        lam = np.linalg.eigvalsh(np.stack([kernel_det_matrix(n, a, rho)
                                           for a in weights]))[:, 0]
        for a, lam_min in zip(weights, lam):
            if abs(lam_min) > 1e-9 * rho:
                assert (kernel_pivot(n, a, rho) > 0) == (lam_min > 0)

    def test_small_orders(self):
        assert kernel_pivot(0, 5.0, 2.0) > 0
        assert not kernel_pivot(0, 0.5, -1.0) > 0
        assert kernel_pivot(1, 1.9, 2.0) > 0 and not kernel_pivot(1, 2.0, 2.0) > 0
        with pytest.raises(ValueError):
            kernel_pivot(-1, 1.0, 2.0)


class TestKernelPivot:
    @settings(max_examples=40, deadline=None)
    @given(shift_kernels())
    def test_sign_and_minus_infinity(self, kernel):
        # positive exactly where the kernel is positive definite, and -inf
        # exactly where its leading n x n block is not
        n, rho = kernel
        for a in np.linspace(1.0, 2.0 * rho, 200):
            q = kernel_pivot(n, a, rho)
            assert (q == -math.inf) == (not kernel_pivot(n - 1, a, rho) > 0)

    def test_is_the_ratio_of_determinants(self):
        assert kernel_pivot(0, 1.3, 2.4) == 2.4
        assert kernel_pivot(1, 1.3, 2.4) == (2.4 * 2.4 - 1.3 * 1.3) / 2.4
        # the last one past a* = 1.559 but short of the 4 x 4 block's 1.866
        for k, a, rho in ((5, 1.2, 3.5), (9, 0.7, 1.6), (4, 1.7, 7.0)):
            assert kernel_pivot(k, a, rho) == pytest.approx(
                kernel_det(k, a, rho) / kernel_det(k - 1, a, rho), rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40), st.floats(-4.0, 4.0),
           st.one_of(st.floats(-3.0, 0.0), st.floats(0.0, 60.0)))
    @example(0, 1.0, -1.0).via("k = 0 returns rho whatever its sign")
    @example(3, 1.0, 0.0).via("q_0 = 0 is not positive")
    @example(3, 1.0, -2.0).via("q_0 < 0")
    @example(3, 2.0, 2.0).via("q_1 = 0")
    @example(40, 1.9, 2.5).via("a later pivot not positive")
    def test_equals_the_per_step_loop(self, k, a, rho):
        # the recurrence with q_0 and q_1 told apart inside the loop
        alpha, beta = coefficients(a, rho)
        q = rho
        for j in range(k):
            if not q > 0:
                q = -math.inf
                break
            q = (rho * rho - a * a) / rho if j == 0 else alpha - beta / q
        assert repr(kernel_pivot(k, a, rho)) == repr(q)

    def test_earlier_pivot_not_positive(self):
        # q_1 vanishes at a = rho, so every later pivot is -inf
        assert kernel_pivot(1, 2.0, 2.0) == 0.0
        assert kernel_pivot(2, 2.0, 2.0) == -math.inf
        with pytest.raises(ValueError, match="k must be nonnegative"):
            kernel_pivot(-1, 1.0, 2.0)


class TestC04:
    def test_two_recurrence_runs_per_grid_point(self, monkeypatch):
        runs = []
        real = determinants._run
        monkeypatch.setattr(determinants, "_run", lambda *args: runs.append(args) or real(*args))
        assert run_battery(n_max=None, criteria={"c04"}).ok
        assert len(runs) == 2 * len(SPEC_GRID)
        assert {(a, rho) for _, _, a, rho, _ in runs} == set(SPEC_GRID)

    def test_values_equal_one_run_per_order(self):
        # the loop c04 replaced: one recurrence run and one matrix per (m, point)
        worst_kernel = worst_capped = worst_mixed = 0.0
        for m in range(0, 9):
            lu_kernel = np.linalg.det(np.stack([kernel_det_matrix(m, a, rho)
                                                for a, rho in SPEC_GRID]))
            lu_capped = np.linalg.det(np.stack([capped_kernel_det_matrix(m, a, rho)
                                                for a, rho in SPEC_GRID]))
            for (a, rho), lu_k, lu_c in zip(SPEC_GRID, lu_kernel.tolist(), lu_capped.tolist()):
                worst_kernel = max(worst_kernel, abs(lu_k - kernel_det(m, a, rho))
                                   / max(abs(lu_k), abs(kernel_det(m, a, rho)), 1.0))
                worst_capped = max(worst_capped, abs(lu_c - capped_kernel_det(m, a, rho))
                                   / max(abs(lu_c), abs(capped_kernel_det(m, a, rho)), 1.0))
                if m >= 2:
                    worst_mixed = max(worst_mixed, mixed_identity_residual(m, a, rho))
        computed = {c.id: c.computed for c in run_battery(n_max=None, criteria={"c04"}).checks}
        assert computed == {"c04-kernel-dets-vs-lu": worst_kernel,
                            "c04-capped-dets-vs-lu": worst_capped,
                            "c04-mixed-identity": worst_mixed}


class TestDiscriminant:
    def test_unit_weight_root(self):
        for rho in (1.5, 2.0, 7.3):
            assert discriminant(1.0, rho) == 0.0

    def test_critical_point_root(self):
        for n in (1, 2, 5, 9):
            assert discriminant((n + 2.0) / n, float(n + 2)) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 4.0), st.floats(1.0, 8.0))
    def test_equals_characteristic_discriminant(self, a, rho):
        alpha, beta = coefficients(a, rho)
        assert discriminant(a, rho) == pytest.approx(alpha * alpha - 4.0 * beta,
                                                     rel=1e-12, abs=1e-9)


class TestRecurrenceState:
    def test_coefficients_recomputable(self):
        # the run keeps its values alone; the coefficients are recomputed
        # from (a, rho) and reproduce every step bit for bit
        a, rho = 1.4, 3.2
        state = kernel_det_state(5, a, rho)
        alpha, beta = coefficients(a, rho)
        assert [f.name for f in dataclasses.fields(RecurrenceState)] == ["values", "scale_pow10"]
        assert beta > 0
        assert len(state.values) == 6
        d = state.values
        assert all(d[k] == alpha * d[k - 1] - beta * d[k - 2] for k in range(2, 6))

    def test_beta_is_the_rounded_square(self):
        # (1 - rho) ** 2 goes through libm pow, which can miss the correctly
        # rounded square by an ulp (it does here on x86-64 glibc); the product
        # is rounded once, the same on every IEEE platform
        rho = 1.7500466131824943
        _, beta = coefficients(1.0, rho)
        assert beta == float(Fraction(1.0 - rho) ** 2)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            kernel_det_state(-1, 1.4, 3.2)
        with pytest.raises(ValueError, match="k must be nonnegative"):
            kernel_det(-1, 1.4, 3.2)

    def test_rescaling_guard_avoids_nan(self):
        # lambda^m growth would overflow; the guard keeps signs and finiteness
        state = kernel_det_state(4000, 3.0, 4.0)
        assert all(not math.isnan(v) for v in state.values)
        assert state.scale_pow10 >= 1
        assert math.isinf(kernel_det(4000, 3.0, 4.0))


class TestCriticalClosedForm:
    def test_kernel_family_vanishes_at_top_index(self):
        for n in (1, 2, 4, 7):
            _, kernel_val = critical_closed_form(n, n)
            assert kernel_val == pytest.approx(0.0, abs=1e-9)

    def test_capped_base_case(self):
        capped, _ = critical_closed_form(0, 3)
        assert capped == 1.0

    @pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (1, 5), (6, 8)])
    def test_matches_recurrence(self, m, n):
        # lam^m, lam the double root, is the size of the terms the recurrence
        # cancels: the scale where a closed form is (near) zero
        rho0, a0 = float(n + 2), (n + 2.0) / n
        lam = a0 * (1.0 + a0) / (a0 - 1.0)
        for closed, rec in zip(critical_closed_form(m, n),
                               (capped_kernel_det(m, a0, rho0), kernel_det(m, a0, rho0))):
            scale = max(abs(closed), abs(rec), lam ** m, 1.0)
            assert abs(closed - rec) <= verify.CLOSED_FORM_TOL * scale

    def test_battery_judges_the_closed_forms(self, monkeypatch):
        # a wrong closed form turns its check red; the other n stay green
        def wrong(m, n):
            capped, kernel = critical_closed_form(m, n)
            return (capped * (1.0 + 1e-6), kernel) if n == 3 else (capped, kernel)

        monkeypatch.setattr(verify, "critical_closed_form", wrong)
        checks = [c for c in run_battery(n_max=4, criteria={"c07"}).checks
                  if c.id.startswith("c07-critical-closed-form")]
        assert [(c.id, c.passed) for c in checks] == [
            (f"c07-critical-closed-form-n{n:02d}", n != 3) for n in range(1, 5)]


class TestOscillatoryClosedForm:
    def test_vanishes_at_top_index(self):
        assert oscillatory_closed_form(4, 4, 2.5) == pytest.approx(0.0, abs=1e-9)

    def test_base_value(self):
        assert oscillatory_closed_form(0, 5, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_interior_positivity_and_match(self):
        for n, rho in ((3, 1.5), (5, 2.0), (6, 4.5)):
            a = 1.0 / determinant_radius(n, rho).value
            for k in range(0, n):
                val = oscillatory_closed_form(k, n, rho)
                assert val > 0
                rec = kernel_det(k, a, rho)
                assert abs(val - rec) <= 1e-8 * max(abs(val), abs(rec), 1.0)

    def test_rejects_out_of_regime(self):
        with pytest.raises(ValueError):
            oscillatory_closed_form(1, 3, 6.0)


class TestMixedIdentity:
    @pytest.mark.parametrize("a,rho", SPEC_GRID)
    def test_residual_small_on_grid(self, a, rho):
        for m in range(2, 9):
            assert mixed_identity_residual(m, a, rho) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.5, 9.0),
                              st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
                              st.floats(-1e6, 1e6)), min_size=1, max_size=8))
    @example([(1.0, 1.7500466131824943, 0.0, 1.0, 0.0)]).via(
        "(rho - 1) ** 2 through libm pow misses the rounded product by one ulp")
    def test_arrays_give_each_float_bit_for_bit(self, rows):
        # c04 applies the right side and the residual to whole tables
        rhs_of, residual_of = determinants.mixed_identity_rhs, determinants.relative_residual
        a, rho, prev, prev2, capped = (np.array(col) for col in zip(*rows))
        rhs = rhs_of(prev, prev2, a, rho)
        residual = residual_of(capped, rhs)
        for i, (a_i, rho_i, prev_i, prev2_i, capped_i) in enumerate(rows):
            one = rhs_of(prev_i, prev2_i, a_i, rho_i)
            assert repr(float(rhs[i])) == repr(one)
            assert repr(float(residual[i])) == repr(float(residual_of(capped_i, one)))

    def test_zero_weight_reduction(self):
        # at a = 0 both families are diagonal determinants: capped_m = rho^m
        for m in (2, 3, 6):
            assert capped_kernel_det(m, 0.0, 2.7) == pytest.approx(2.7 ** m)
            assert mixed_identity_residual(m, 0.0, 2.7) == 0.0


class TestRecurrenceRoots:
    def test_oscillatory_modulus(self):
        # complex case: |lambda| = a (rho - 1)
        for n, rho in ((3, 2.0), (5, 3.0)):
            a = 1.0 / determinant_radius(n, rho).value
            l1, l2 = recurrence_roots(a, rho)
            assert discriminant(a, rho) < 0
            assert abs(l1) == pytest.approx(a * (rho - 1.0), rel=1e-9)
            assert abs(l2) == pytest.approx(a * (rho - 1.0), rel=1e-9)
            assert l1 == pytest.approx(np.conj(l2))

    def test_positive_regime_roots_real_with_large_upper(self):
        # real case at the normalized weight: both roots real, lambda2 > rho/2
        for n in (2, 4, 7):
            rho = float(n + 4)
            a = 1.0 / determinant_radius(n, rho, tol=1e-13).value
            l1, l2 = recurrence_roots(a, rho)
            assert discriminant(a, rho) > 0
            assert l1.imag == 0.0 and l2.imag == 0.0
            assert l2.real > rho / 2 > 1.0
            assert kernel_det(n, a, rho) == pytest.approx(0.0, abs=1e-8 * rho ** n)

    @pytest.mark.xfail(
        strict=True,
        reason="the raw roots of r^2 - alpha r + beta carry the factor a(rho-1) "
               "and both exceed 1 at every case-2 point; the root split holds "
               "for the normalized roots that c08-case2-roots checks")
    def test_positive_regime_lower_root_below_one(self):
        for n in (2, 4, 7):
            rho = float(n + 4)
            a = 1.0 / determinant_radius(n, rho).value
            l1, _ = recurrence_roots(a, rho)
            assert l1.real < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="the raw D_k carry the factor (a(rho-1))^k and rise from D_0 = rho "
           "before falling to 0; D_k/(a(rho-1))^k decreases, which "
           "c08-case2-monotone checks")
def test_positive_regime_monotone_decrease():
    for n in (2, 4, 7):
        rho = float(n + 4)
        a = 1.0 / determinant_radius(n, rho).value
        seq = kernel_det_state(n, a, rho).values
        assert all(seq[m + 1] < seq[m] for m in range(n))


class TestAngleSystemReport:
    # the angle system as ``shift_radius`` reports it: the angle omega beside
    # the radius x = 1/a
    def test_main_identity_holds(self):
        for n, rho in ((3, 1.5), (6, 2.0), (9, 2.5)):
            res = shift_radius(n, rho)
            a, w = 1.0 / res.value, res.omega
            assert abs(math.sin(n * w) - (rho / a) * math.sin(w)) <= 1e-9


@pytest.mark.parametrize("rho", [1.5, 2.0, 2.9])
def test_no_angle_refused_at_n1(rho):
    # the 2 x 2 shift has a radius, 1/rho, but no angle in 1 < rho < 3:
    # the angle route refuses rather than guess one
    with pytest.raises(ValueError, match="no angle available"):
        oscillatory_closed_form(0, 1, rho)
