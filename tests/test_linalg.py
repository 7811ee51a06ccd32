import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rho_toolkit import (GapTooSmallError, NotHermitianError, nullspace, spectral_norm,
                         spectral_radius)
from rho_toolkit.linalg import as_cmatrix

from conftest import random_unitary


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

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            nullspace([[0, 1], [0, 0]])

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
