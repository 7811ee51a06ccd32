import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rho_toolkit import (RecurrenceState, angle_system_report, capped_kernel_det,
                         capped_kernel_det_matrix, critical_closed_form,
                         determinant_radius, discriminant, kernel_det,
                         kernel_det_matrix, kernel_det_state, kernel_is_positive,
                         mixed_identity_residual, oscillatory_closed_form,
                         recurrence_roots, rho_kernel, make_shift)

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


def test_kernel_det_is_boundary_kernel_determinant():
    # the explicit Toeplitz matrix equals the operator kernel of the shift at
    # z = 1, so its determinant is the same thing computed two ways
    for k, a, rho in ((3, 0.8, 2.0), (5, 1.2, 3.5)):
        ev = rho_kernel(make_shift(k, a), 1.0, rho)
        np.testing.assert_allclose(ev.matrix.real, kernel_det_matrix(k, a, rho), atol=1e-12)
        assert np.linalg.det(ev.matrix).real == pytest.approx(
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
        # the interval [1, a*) that determinant_radius bisects on
        n, rho = kernel
        verdicts = [kernel_is_positive(n, a, rho) for a in np.linspace(1.0, rho, 1000)]
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
                assert kernel_is_positive(n, a, rho) == (lam_min > 0)

    def test_small_orders(self):
        assert kernel_is_positive(0, 5.0, 2.0)
        assert not kernel_is_positive(0, 0.5, -1.0)
        assert kernel_is_positive(1, 1.9, 2.0) and not kernel_is_positive(1, 2.0, 2.0)
        with pytest.raises(ValueError):
            kernel_is_positive(-1, 1.0, 2.0)


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
        alpha, beta = RecurrenceState.coefficients(a, rho)
        assert discriminant(a, rho) == pytest.approx(alpha * alpha - 4.0 * beta,
                                                     rel=1e-12, abs=1e-9)


class TestRecurrenceState:
    def test_coefficients_recomputable(self):
        a, rho = 1.4, 3.2
        state = kernel_det_state(5, a, rho)
        alpha, beta = RecurrenceState.coefficients(a, rho)
        assert state.alpha == alpha and state.beta == beta
        assert beta > 0
        assert len(state.values) == 6

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
        # the constructor itself asserts agreement with the recurrences
        critical_closed_form(m, n)


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
    def test_main_identity_holds(self):
        for n, rho in ((3, 1.5), (6, 2.0), (9, 2.5)):
            report = angle_system_report(n, rho)
            assert report.main_residual <= 1e-9

    def test_exclusion_on_sample_parameters(self):
        # min over l of the double-angle residual alone is bounded away from
        # zero at these parameter values (it would vanish at rho = 2, l = 1)
        for n in range(3, 13):
            for rho in (1.5, 2.5):
                report = angle_system_report(n, rho)
                assert report.excluded
                if report.rows:
                    assert min(r.double_angle for r in report.rows) > 1e-3

    def test_rho2_degenerate_double_angle_needs_conjunction(self):
        # at rho = 2 the double-angle identity holds exactly at l = 1 (the
        # closed-form angle pi/(n+2)); only the conjunction with the stepdown
        # identity excludes it
        report = angle_system_report(6, 2.0)
        assert report.rows[0].double_angle < 1e-12
        assert report.rows[0].joint > 1e-3
        assert report.excluded

    def test_no_rows_for_small_n(self):
        assert angle_system_report(2, 1.7).rows == ()


@pytest.mark.parametrize("rho", [1.5, 2.0, 2.9])
def test_no_angle_refused_at_n1(rho):
    # the 2 x 2 shift has a radius, 1/rho, but no angle in 1 < rho < 3:
    # both angle routes refuse rather than guess one
    with pytest.raises(ValueError, match="no angle available"):
        angle_system_report(1, rho)
    with pytest.raises(ValueError, match="no angle available"):
        oscillatory_closed_form(0, 1, rho)
