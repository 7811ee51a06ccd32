import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rho_toolkit import (is_rho_contraction, make_shift, normalized_shift, rho_kernel,
                         spectral_norm)


def test_basic_2x2():
    np.testing.assert_array_equal(make_shift(1, 1.0), [[0, 1], [0, 0]])


def test_critical_weight_3x3():
    # a = 1/cos(pi/(n+2)) = sqrt(2) for n = 2
    s = make_shift(2, math.sqrt(2))
    assert s[0, 1] == s[1, 2] == pytest.approx(math.sqrt(2))
    assert np.count_nonzero(s) == 2


@given(st.integers(0, 12), st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_nilpotency_exact(n, b):
    s = make_shift(n, b)
    assert np.all(np.linalg.matrix_power(s, n + 1) == 0)


@given(st.integers(1, 12), st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_norm_equals_weight(n, b):
    assert spectral_norm(make_shift(n, b)) == pytest.approx(b, rel=1e-12)


@given(st.integers(0, 10), st.floats(0.1, 5.0))
@settings(max_examples=30, deadline=None)
def test_weight_scaling(n, b):
    np.testing.assert_allclose(make_shift(n, b), b * make_shift(n, 1.0))


@given(st.integers(1, 10), st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=30, deadline=None)
def test_rotation_identity(n, theta):
    # diag(1, z, ..., z^n)* S diag(1, z, ..., z^n) = z S for unimodular z
    z = np.exp(1j * theta)
    s = make_shift(n, 1.7)
    d = z ** np.arange(n + 1)
    conjugated = np.conj(d)[:, None] * s * d[None, :]
    np.testing.assert_allclose(conjugated, z * s, atol=1e-12)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_shift(-1, 1.0)
    with pytest.raises(ValueError):
        make_shift(2, 0.0)
    with pytest.raises(ValueError):
        normalized_shift(0, 2.0)
    with pytest.raises(ValueError):
        normalized_shift(2, 0.5)


class TestNormalizedShift:
    def test_small_critical_case(self):
        # w_3(S_2) = 1/3, so the normalized weight is 3
        np.testing.assert_allclose(normalized_shift(1, 3.0), make_shift(1, 3.0))

    def test_rho2_weights(self):
        for n in (2, 5, 9):
            s = normalized_shift(n, 2.0)
            assert s[0, 1] == pytest.approx(1.0 / math.cos(math.pi / (n + 2)), abs=1e-10)

    def test_second_critical_case(self):
        np.testing.assert_allclose(normalized_shift(2, 4.0), make_shift(2, 2.0),
                                   atol=1e-9)

    def test_normalized_shift_is_boundary_member(self):
        s = normalized_shift(3, 2.5)
        report = is_rho_contraction(s, 2.5)
        assert report
        assert report.radius.value == pytest.approx(1.0, abs=1e-12)
        witness = report.radius.stats["witness"]
        assert rho_kernel(s, witness, 2.5).min_eigenvalue == pytest.approx(0.0, abs=1e-8)
