import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rho_toolkit import (GapTooSmallError, NotHermitianError, SingularError,
                         hermitian_eigen, inverse, min_eig, nullspace,
                         spectral_norm, spectral_radius)
from rho_toolkit.linalg import as_cmatrix

from conftest import random_hermitian, random_unitary


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_cmatrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_cmatrix(np.array([[np.nan, 0], [0, 1]]))

    def test_rejects_inf_imaginary(self):
        with pytest.raises(ValueError, match="finite"):
            as_cmatrix(np.array([[1j * np.inf, 0], [0, 1]]))


class TestHermitianEigen:
    def test_identity(self):
        res = hermitian_eigen(np.eye(3))
        np.testing.assert_allclose(res.values, [1, 1, 1])

    def test_classic_2x2(self):
        res = hermitian_eigen([[2, 1], [1, 2]])
        np.testing.assert_allclose(res.values, [1, 3])

    def test_rho_a_2x2(self):
        res = hermitian_eigen([[2, 1.5], [1.5, 2]])
        np.testing.assert_allclose(res.values, [0.5, 3.5])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigen([[0, 1], [0, 0]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    def test_reconstruction(self, seed, d):
        m = random_hermitian(np.random.default_rng(seed), d)
        res = hermitian_eigen(m)
        recon = (res.vectors * res.values) @ res.vectors.conj().T
        assert spectral_norm(recon - m) <= 1e-10 * max(spectral_norm(m), 1e-30)
        gram = res.vectors.conj().T @ res.vectors
        assert spectral_norm(gram - np.eye(d)) <= 1e-10
        assert np.all(np.diff(res.values) >= 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 32))
    def test_rayleigh_sandwich(self, seed, d):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, d)
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x /= np.linalg.norm(x)
        quotient = float(np.real(np.vdot(x, m @ x)))
        values = hermitian_eigen(m).values
        assert values[0] - 1e-10 <= quotient <= values[-1] + 1e-10


class TestMinEig:
    def test_scaled_identity(self):
        assert min_eig(2.0 * np.eye(4)) == pytest.approx(2.0)

    def test_classic_2x2(self):
        assert min_eig([[2, 1], [1, 2]]) == pytest.approx(1.0)

    def test_boundary_shift_kernel(self):
        # kernel of the weight-2 shift at the critical parameter: eigenvalues
        # rho -+ a = 0 and 4
        assert min_eig([[2, 2], [2, 2]]) == pytest.approx(0.0, abs=1e-12)


class TestInverse:
    def test_nilpotent_resolvent(self):
        s = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_allclose(inverse(np.eye(2) - s), np.eye(2) + s)

    def test_diagonal(self):
        np.testing.assert_allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_residual_random(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 3 * np.eye(5)
        inv = inverse(m)
        assert spectral_norm(m @ inv - np.eye(5)) < 1e-10

    def test_singular_raises(self):
        with pytest.raises(SingularError):
            inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_ill_conditioned_raises(self):
        with pytest.raises(SingularError):
            inverse(np.diag([1.0, 1e-13]))


class TestNullspace:
    def test_rank_one_projector_complement(self):
        vecs = nullspace(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert len(vecs) == 1
        expected = np.array([1.0, 1.0]) / np.sqrt(2)
        assert abs(abs(np.vdot(vecs[0], expected)) - 1.0) < 1e-12

    def test_definite_matrix_has_empty_nullspace(self):
        assert nullspace(2.0 * np.eye(3)) == []

    def test_critical_shift_kernel(self):
        vecs = nullspace(np.array([[2.0, 2.0], [2.0, 2.0]]))
        assert len(vecs) == 1
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(abs(np.vdot(vecs[0], expected)) - 1.0) < 1e-12

    def test_gap_too_small(self):
        # eigenvalue 5e-8 sits between the null threshold (1e-8) and the gap
        # floor (1e-7) relative to scale 1
        with pytest.raises(GapTooSmallError):
            nullspace(np.diag([0.0, 5e-8, 1.0]))

    def test_stack_matches_per_matrix_calls(self, rng):
        # nullities 0, 1, 2 and 3 at scales far apart, one eigh for the stack
        d = 5
        stack = []
        for k, scale in ((0, 1.0), (1, 1e-6), (2, 3.0), (3, 1e4)):
            values = np.concatenate([np.zeros(k), rng.uniform(0.5, 2.0, d - k)])
            basis = random_unitary(rng, d)
            stack.append(scale * (basis * values) @ basis.conj().T)
        stack = np.array(stack)
        bases = nullspace(stack)
        assert len(bases) == len(stack)
        for m, got in zip(stack, bases):
            want = nullspace(m)
            assert len(got) == len(want)
            for u, v in zip(got, want):
                np.testing.assert_array_equal(u, v)

    def test_stack_with_one_non_hermitian_matrix(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [0.0, 1.0]], np.eye(2)])
        with pytest.raises(NotHermitianError):
            nullspace(stack)

    def test_stack_gap_error_names_its_index(self):
        stack = np.array([np.eye(3), np.diag([0.0, 1.0, 1.0]), np.diag([0.0, 5e-8, 1.0])])
        with pytest.raises(GapTooSmallError) as info:
            nullspace(stack)
        assert info.value.index == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(0, 2))
    def test_nullity_invariant_under_unitary_conjugation(self, seed, d, k):
        rng = np.random.default_rng(seed)
        k = min(k, d - 1)
        values = np.concatenate([np.zeros(k), rng.uniform(0.5, 2.0, d - k)])
        basis = random_unitary(rng, d)
        m = (basis * values) @ basis.conj().T
        u = random_unitary(rng, d)
        assert len(nullspace(u.conj().T @ m @ u)) == len(nullspace(m)) == k


class TestNorms:
    def test_spectral_norm_of_shift(self):
        assert spectral_norm(np.array([[0, 3.0], [0, 0]])) == pytest.approx(3.0)

    def test_spectral_radius_nilpotent(self):
        assert spectral_radius(np.array([[0, 3.0], [0, 0]])) == pytest.approx(0.0, abs=1e-12)
