import math
import re

import numpy as np
import pytest

import rho_toolkit.structure as structure
from rho_toolkit import (NotUnitaryError, NullProfile, are_harnack_equivalent,
                         canonical_form_c2, circle_null_vectors,
                         commutant_dimension, make_shift,
                         membership_necessary_conditions, normalized_shift,
                         null_profile, radius_bisect, rotation_family_check,
                         run_battery, shift_radius, torus_nullspace, unitary_orbit_predicate)
from rho_toolkit.radius import SOLVE_CACHE_SIZE

from conftest import random_unitary


def forward_recurrence_profile(n, rho):
    """Independent null-vector oracle: solve the tridiagonal congruence
    factor by forward substitution, then map through I - S.

    Never touches an eigensolver, so it cross-checks the spectral route.
    """
    a = 1.0 / shift_radius(n, rho).value
    u = np.zeros(n + 1)
    u[0] = 1.0
    u[1] = rho / ((rho - 1.0) * a)
    for k in range(1, n):
        u[k + 1] = ((rho + (rho - 2.0) * a * a) * u[k] - (rho - 1.0) * a * u[k - 1]) \
            / ((rho - 1.0) * a)
    last_row = (1.0 - rho) * a * u[n - 1] + (rho + (rho - 2.0) * a * a) * u[n]
    assert abs(last_row) <= 1e-8 * max(np.max(np.abs(u)), 1.0)
    v = (np.eye(n + 1) - make_shift(n, a)) @ u
    v = v / np.linalg.norm(v)
    return v if v[0] > 0 else -v


def extracted_profile(n, rho):
    """The eigh oracle: the z = 1 null vector of the normalized shift's
    kernel from ``torus_nullspace``, phase-fixed."""
    res = shift_radius(n, rho)
    vecs = torus_nullspace(make_shift(n, 1.0 / res.value), rho, 1.0, structure.STRUCTURE_TOL)
    assert len(vecs) == 1
    return NullProfile.from_vector(vecs[0], rho, res)


class TestNullProfile:
    def test_dim2(self):
        p = null_profile(1, 2.5)
        np.testing.assert_allclose(p.v.real, [1, -1] / np.sqrt(2), atol=1e-10)
        assert p.zero_pattern == (False, False)

    def test_dim3_middle_zero(self):
        p = null_profile(2, 3.0)
        np.testing.assert_allclose(p.v.real, [1, 0, -1] / np.sqrt(2), atol=1e-9)
        assert p.zero_pattern == (False, True, False)
        assert p.support == (0, 2)

    def test_dim4_all_supported(self):
        p = null_profile(3, 2.0)
        assert p.zero_pattern == (False, False, False, False)
        assert p.antisymmetry_residual <= 1e-9
        # frozen regression anchor for the leading coordinate
        assert p.v[0].real == pytest.approx(0.6605596098, abs=1e-8)

    @pytest.mark.parametrize("n,rho", [(1, 2.0), (3, 2.0), (3, 3.5), (5, 2.5),
                                       (8, 4.0), (12, 1.2),
                                       # rho = n + 2 (phi = 0), the sinh regime
                                       # above it, and n = 1 above rho = 3
                                       (4, 6.0), (10, 12.0), (3, 9.0), (6, 30.0),
                                       (1, 5.0), (1, 40.0)])
    def test_matches_forward_recurrence_oracle(self, n, rho):
        p = null_profile(n, rho)
        oracle = forward_recurrence_profile(n, rho)
        assert abs(abs(np.vdot(p.v, oracle)) - 1.0) <= 1e-8

    @pytest.mark.parametrize("n", list(range(1, 25)) + [32, 48, 64])
    def test_matches_eigh_extraction(self, n):
        for rho in (1.001, 1.2, 2.0, n + 2.0, n + 2.0 + 1e-9, n + 4.0, 300.0):
            p = null_profile(n, rho)
            oracle = extracted_profile(n, rho)
            assert np.linalg.norm(p.v - oracle.v) <= 1e-9, rho
            assert p.zero_pattern == oracle.zero_pattern, rho

    def test_runs_no_extraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("null_profile must not extract")

        monkeypatch.setattr(structure, "torus_null_frames", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        p = null_profile(6, 2.0)
        assert p.support == (0, 1, 2, 4, 5, 6)
        assert p.radius.value == shift_radius(6, 2.0).value

    def test_c05_reads_the_extraction(self, monkeypatch):
        # a vector that is not antisymmetric must fail c05; the closed form
        # is antisymmetric by construction and would hide it
        import rho_toolkit.verify as verify

        monkeypatch.setattr(verify, "circle_null_vectors",
                            lambda n, rho, zs, tol: np.ones((len(zs), n + 1), dtype=complex))
        report = run_battery(n_max=3, criteria={"c05"})
        assert len(report.checks) == 3
        assert not any(c.passed for c in report.checks)

    def test_c05_records_an_ill_determined_nullity(self, monkeypatch):
        # a refusal of the extraction fails the check it belongs to, with its
        # message in the note, instead of stopping the battery
        import rho_toolkit.kernel as kernel

        def refuse(k, points, tol):
            raise structure.GapTooSmallError("eigenvalues fall in the gap", index=0)

        monkeypatch.setattr(kernel, "_torus_frames", refuse)
        report = run_battery(n_max=2, criteria={"c05"})
        assert [c.passed for c in report.checks] == [False, False]
        assert all("eigenvalues fall in the gap at rho=1.2" in c.note for c in report.checks)

    def test_interior_coordinates_do_not_vanish(self):
        # the extracted z = 1 null vector is zero at most at its middle
        # coordinate (odd dimension n + 1); every other coordinate clears
        # c05's support floor 1e-5 by far (the least is about 0.05)
        for n in range(3, 13):
            for rho in (1.5, 2.5):
                (u,) = np.abs(circle_null_vectors(n, rho, [1.0], structure.STRUCTURE_TOL))
                middle = n // 2 if n % 2 == 0 else None
                assert all(u[k] > 1e-5 for k in range(n + 1) if k != middle), (n, rho)
                if middle is not None:
                    assert u[middle] <= structure.STRUCTURE_TOL, (n, rho)

    def test_phase_fixed_leading_coordinate(self):
        p = null_profile(4, 2.2)
        assert p.v[0].real > 0
        assert abs(p.v[0].imag) <= 1e-12


class TestProfileCache:
    def test_profile_is_read_only(self):
        profile = null_profile(4, 2.5)
        with pytest.raises(ValueError):
            profile.v[0] = 0.0
        with pytest.raises(TypeError):
            profile.radius.stats["certificate"] = 0.0
        assert null_profile(4, 2.5) is profile

    def test_call_forms_share_one_entry(self):
        first = null_profile(4, 2)
        assert null_profile(4, 2.0, structure.STRUCTURE_TOL) is first
        assert null_profile(4, 2.0, tol=structure.STRUCTURE_TOL) is first
        info = null_profile.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_size_is_bounded(self):
        for k in range(SOLVE_CACHE_SIZE + 8):
            null_profile(1, 1.5 + k / 64)
        info = null_profile.cache_info()
        assert info.maxsize == SOLVE_CACHE_SIZE
        assert info.currsize <= SOLVE_CACHE_SIZE


class TestRotationFamily:
    def test_worst_residual_small(self):
        roots = np.exp(2j * np.pi * np.arange(16) / 16)
        for n, rho in ((1, 2.0), (2, 1.5), (4, 3.0), (6, 2.0)):
            assert rotation_family_check(n, rho, roots) <= 1e-7

    def test_negative_point_dim3(self):
        assert rotation_family_check(2, 2.0, [-1.0]) <= 1e-9

    def test_one_shift_radius_per_check(self, monkeypatch):
        # the profile and the extraction read one memoized solve
        import rho_toolkit.radius as radius

        calls = []
        original = radius._antisymmetric_threshold
        monkeypatch.setattr(radius, "_antisymmetric_threshold",
                            lambda n, rho: calls.append((n, rho)) or original(n, rho))
        rotation_family_check(5, 2.0, np.exp(2j * np.pi * np.arange(8) / 8))
        assert calls == [(5, 2.0)]

    @pytest.mark.parametrize("n, rho", [(1, 2.0), (4, 3.0), (7, 9.0)])
    def test_circle_null_vectors_are_the_extraction(self, n, rho):
        # one stacked extraction, row by row the null basis at each point
        roots = np.exp(2j * np.pi * np.arange(6) / 6)
        rows = circle_null_vectors(n, rho, roots)
        assert rows.shape == (6, n + 1)
        for z, row in zip(roots, rows):
            (basis,) = torus_nullspace(normalized_shift(n, rho), rho, z)
            np.testing.assert_array_equal(row, basis)

    def test_nullity_two_names_its_z(self, monkeypatch):
        original = structure.torus_null_frames

        def doubled(t, rho, zs, tol=1e-8):
            vectors, mask = original(t, rho, zs, tol)
            mask = mask.copy()
            mask[3, -1] = True  # a second null column at the fourth point only
            return vectors, mask

        monkeypatch.setattr(structure, "torus_null_frames", doubled)
        roots = np.exp(2j * np.pi * np.arange(8) / 8)
        with pytest.raises(structure.GapTooSmallError,
                           match=rf"nullity 2 != 1 at z = {re.escape(str(roots[3]))}") as err:
            rotation_family_check(3, 2.0, roots)
        assert err.value.index == 3


class TestReversalSymmetry:
    # the extracted (eigh) vector is a reversal eigenvector of sign -1; the
    # closed form is antisymmetric by construction
    @pytest.mark.parametrize("n,rho", [(1, 1.5), (1, 3.5), (2, 2.0), (5, 2.0),
                                       (8, 3.0), (12, 2.5)])
    def test_always_antisymmetric(self, n, rho):
        assert extracted_profile(n, rho).antisymmetry_residual <= 1e-9


class TestMembershipConditions:
    def test_shift_passes(self):
        report = membership_necessary_conditions(make_shift(3, 1.4))
        assert report
        assert report.first_column_zero and report.last_row_zero and report.corner_zero

    def test_canonical_form_passes(self):
        assert membership_necessary_conditions(canonical_form_c2(4, 1.1))

    def test_lower_entry_fails_first_condition(self):
        t = np.zeros((3, 3))
        t[1, 0] = 0.5
        report = membership_necessary_conditions(t)
        assert not report.first_column_zero
        assert not report

    def test_corner_entry_fails_third_condition(self):
        t = np.zeros((3, 3))
        t[0, 2] = 1e-3
        assert not membership_necessary_conditions(t).corner_zero


class TestUnitaryOrbitPredicate:
    def test_global_phase(self):
        u = np.exp(0.4j) * np.eye(3)
        assert unitary_orbit_predicate(u, 2, 2.0)

    def test_unconstrained_middle_coordinate(self):
        u = np.diag([1.0, np.exp(1.2j), 1.0])
        assert unitary_orbit_predicate(u, 2, 2.0)

    def test_even_dimension_is_rigid(self):
        u = np.diag([1.0, np.exp(0.3j)])
        assert not unitary_orbit_predicate(u, 1, 2.0)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            unitary_orbit_predicate(np.diag([1.0, 2.0]), 1, 2.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_equivalence_verdict(self, n, rng, quick_grid):
        # the predicate must agree with the sampled equivalence decision on
        # diagonal-unimodular, permutation, and Haar-random unitaries
        rho = 2.0
        s = normalized_shift(n, rho)
        d = n + 1
        samples = [np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(d)]
        for _ in range(6):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, d))
            samples.append(np.diag(phases))
        for _ in range(4):
            samples.append(np.eye(d)[rng.permutation(d)].astype(complex))
        for _ in range(5):
            samples.append(random_unitary(rng, d))
        for u in samples:
            predicted = unitary_orbit_predicate(u, n, rho)
            verdict, _ = are_harnack_equivalent(u.conj().T @ s @ u, s, rho,
                                                quick_grid, torus_angles=24)
            assert verdict == predicted


def _kron_commutator_system(a):
    eye = np.eye(a.shape[0])
    return np.vstack([np.kron(eye, a) - np.kron(a.T, eye),
                      np.kron(eye, np.conj(a).T) - np.kron(np.conj(a), eye)])


class TestCommutatorSystem:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_equals_the_kronecker_construction(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a[0, 0] = complex(-0.0, 0.0)  # a signed zero must come out as np.kron makes it
        weighted = np.diag(np.linspace(0.5, 2.0, d - 1), 1).astype(complex)
        for t in (a, make_shift(d - 1, 1.3), weighted, np.zeros((d, d), dtype=complex)):
            system, reference = structure.commutator_system(t), _kron_commutator_system(t)
            assert system.shape == reference.shape == (2 * d * d, d * d)
            assert system.tobytes() == reference.tobytes()

    def test_null_space_is_the_commutant(self):
        # vec(X), columns stacked, is a null vector when X commutes with T and
        # T*, as I does, and not when it fails to, as T itself does
        t = make_shift(2, 1.0)
        system = structure.commutator_system(t)
        assert np.abs(system @ np.eye(3).reshape(-1, order="F")).max() == 0.0
        assert np.abs(system @ t.reshape(-1, order="F")).max() > 0.1


class TestIrreducibility:
    def test_shift_even_dimensions(self):
        assert commutant_dimension(normalized_shift(1, 2.0)) == 1
        assert commutant_dimension(normalized_shift(3, 2.0)) == 1

    def test_diagonal_projector_reduces(self):
        assert commutant_dimension(np.zeros((2, 2))) == 4

    def test_normal_matrix_reduces(self):
        # the diagonal matrices: one projection per eigenvalue
        assert commutant_dimension(np.diag([1.0, 2.0])) == 2

    def test_canonical_form_dim4(self):
        assert commutant_dimension(canonical_form_c2(3, 0.9)) == 1

    def test_scalar_matrix(self):
        assert commutant_dimension(np.eye(3)) == 9

    def test_multiplicity_counts_every_matrix_unit(self):
        # the commutant of I_2 (x) A is M_2 (x) I for irreducible A
        assert commutant_dimension(np.kron(np.eye(2), make_shift(2, 1.0))) == 4

    def test_inequivalent_direct_sum_counts_each_block(self):
        # A + B with A, B irreducible and not unitarily equivalent (norms 1, 2)
        t = np.zeros((4, 4), dtype=complex)
        t[:2, :2] = make_shift(1, 1.0)
        t[2:, 2:] = make_shift(1, 2.0)
        assert commutant_dimension(t) == 2


class TestCanonicalForm:
    def test_dim3_displayed_matrix(self):
        theta = 0.8
        t = canonical_form_c2(2, theta)
        a = math.sqrt(2)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = a * np.exp(1j * theta)
        expected[1, 2] = a * np.exp(-1j * theta)
        np.testing.assert_allclose(t, expected, atol=1e-14)

    def test_zero_phase_is_the_shift(self):
        np.testing.assert_allclose(canonical_form_c2(2, 0.0), make_shift(2, math.sqrt(2)))

    def test_even_dimension_ignores_phase(self):
        a = 1.0 / math.cos(math.pi / 5)
        np.testing.assert_allclose(canonical_form_c2(3, 2.2), make_shift(3, a))

    @pytest.mark.parametrize("n", [2, 4])
    def test_unitarily_equivalent_to_shift_via_middle_twist(self, n):
        theta = 1.17
        p = n // 2
        d = np.ones(n + 1, dtype=complex)
        d[p] = np.exp(1j * theta)
        s = make_shift(n, 1.0 / math.cos(math.pi / (n + 2)))
        conjugated = np.conj(d)[:, None] * s * d[None, :]
        np.testing.assert_allclose(canonical_form_c2(n, theta), conjugated, atol=1e-14)

    def test_norm_and_radius_normalization(self):
        t = canonical_form_c2(2, 0.6)
        assert np.linalg.norm(t, 2) == pytest.approx(math.sqrt(2), rel=1e-12)
        # every middle twist of the rho = 2 normalized shift has radius one
        for theta in (0.0, math.pi / 3, math.pi):
            t = canonical_form_c2(2, theta)
            assert radius_bisect(t, 2.0).value == pytest.approx(1.0, abs=1e-6)
