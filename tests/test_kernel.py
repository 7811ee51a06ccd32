import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rho_toolkit.verify as verify
from rho_toolkit import (DiscGrid, GapTooSmallError, SingularError,
                         TorusSpectrumError, congruence_factor, is_rho_contraction, make_shift,
                         normalized_shift, nullspace, radius_bisect, rho_kernel, run_battery,
                         shift_radius, spectral_norm, spectral_radius, torus_nullspace)
from rho_toolkit.kernel import (_resolvent_sum, companion_threshold, roots_of_unity,
                                threshold_solver)

from conftest import disc_points, random_unitary


class TestRhoKernel:
    def test_zero_matrix_gives_scaled_identity(self):
        for rho in (1.0, 2.0, 3.7):
            k = rho_kernel(np.zeros((3, 3)), 0.3 + 0.4j, rho)
            np.testing.assert_allclose(k, rho * np.eye(3), atol=1e-14)
            assert np.linalg.eigvalsh(k)[0] == pytest.approx(rho)

    def test_shift_2x2_at_boundary(self):
        # S^2 = 0 makes both resolvents affine: K = rho I + S + S*
        a, rho = 1.3, 2.5
        k = rho_kernel(make_shift(1, a), 1.0, rho)
        np.testing.assert_allclose(k, [[rho, a], [a, rho]], atol=1e-12)

    def test_hermitian_by_construction(self, rng):
        t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        t /= 4 * spectral_norm(t)
        k = rho_kernel(t, 0.7 - 0.2j, 1.8)
        assert spectral_norm(k - k.conj().T) <= 1e-12 * spectral_norm(k)

    def test_singular_pencil_raises(self):
        with pytest.raises(SingularError):
            rho_kernel(np.eye(2), 1.0, 2.0)

    def test_point_outside_the_disc_is_refused(self):
        # the closed disc, with UNIT_CIRCLE_TOL of slack on the circle
        t = make_shift(2, 1.0)
        for z in (2.0, 0.6 + 0.8j + 1e-9, -1.0 - 1e-11):
            with pytest.raises(ValueError, match="closed unit disc"):
                rho_kernel(t, z, 2.0)
        for z in (1.0, 1.0 + 1e-13, 0.6 + 0.8j):
            assert rho_kernel(t, z, 2.0).shape == (3, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.floats(0.1, 2 * math.pi), st.floats(0.05, 1))
    def test_rotation_covariance(self, n, theta, r):
        # the kernel spectrum at r e^{i theta} matches the spectrum at weight
        # r a and z = 1
        a, rho = 1.4, 2.2
        z = r * np.exp(1j * theta)
        spec_rot = np.linalg.eigvalsh(rho_kernel(make_shift(n, a), z, rho))
        spec_rad = np.linalg.eigvalsh(rho_kernel(make_shift(n, r * a), 1.0, rho))
        np.testing.assert_allclose(spec_rot, spec_rad, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1.0, 6.0), st.floats(1.0, 6.0))
    def test_monotonicity_in_rho(self, rho1, rho2):
        t = make_shift(2, 0.8)
        k1 = rho_kernel(t, 0.5 + 0.1j, rho1)
        k2 = rho_kernel(t, 0.5 + 0.1j, rho2)
        np.testing.assert_allclose(k1 - k2, (rho1 - rho2) * np.eye(3), atol=1e-12)


class TestCongruenceFactor:
    def test_displayed_2x2(self):
        a, rho = 1.7, 2.6
        m = congruence_factor(1, a, rho, 1.0)
        expected = [[rho, (1 - rho) * a], [(1 - rho) * a, rho + (rho - 2) * a * a]]
        np.testing.assert_allclose(m, expected)

    def test_zero_weight(self):
        np.testing.assert_allclose(congruence_factor(3, 0.0, 2.3, 0.5j), 2.3 * np.eye(4))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.floats(0.05, 1.0), st.floats(1.05, 5.0),
           st.floats(0, 1), st.floats(0, 2 * math.pi))
    # corners where a float product L @ M @ R cancels to 1e-10 and 2.5e-7
    @example(8, 1.0, 5.0, 1.0, 1.0)
    @example(12, 1.0, 5.0, 1.0, 0.3)
    def test_factorization(self, n, frac, rho, r, theta):
        # K_z(S) = (I - z S*)^-1 M (I - conj(z) S)^-1 with M the tridiagonal
        # factor, across the closed disc and weights up to rho; the right side
        # is formed at 50 digits, since in floats it cancels near |z| = 1
        a = frac * rho
        z = r * np.exp(1j * theta)
        d = n + 1
        with mpmath.workdps(50):
            zm, am, rm = mpmath.mpc(complex(z)), mpmath.mpf(a), mpmath.mpf(rho)
            s, mid = mpmath.zeros(d, d), mpmath.zeros(d, d)
            for i in range(d):
                mid[i, i] = rm + (rm - 2) * am * am * abs(zm) ** 2 if i else rm
                if i < n:
                    s[i, i + 1] = am
                    mid[i, i + 1] = (1 - rm) * am * mpmath.conj(zm)
                    mid[i + 1, i] = (1 - rm) * am * zm
            eye = mpmath.eye(d)
            left = mpmath.inverse(eye - zm * s.H)
            ref = left * mid * mpmath.inverse(eye - mpmath.conj(zm) * s)
        ref = np.array(ref.tolist(), dtype=complex)
        k = rho_kernel(make_shift(n, a), z, rho)
        assert spectral_norm(k - ref) <= 1e-10 * spectral_norm(k)
        m = congruence_factor(n, a, rho, z)
        mid = np.array(mid.tolist(), dtype=complex)
        assert spectral_norm(m - mid) <= 1e-10 * spectral_norm(mid)

    def test_battery_judges_the_factor(self, monkeypatch):
        # a wrong factor turns its check red; the other n stay green
        def wrong(n, a, rho, z):
            m = congruence_factor(n, a, rho, z)
            if n == 3:
                m[0, 0] += 1e-6
            return m

        monkeypatch.setattr(verify, "congruence_factor", wrong)
        checks = [c for c in run_battery(n_max=4, criteria={"c06"}).checks
                  if c.id.startswith("c06-congruence")]
        assert [(c.id, c.passed) for c in checks] == [
            (f"c06-congruence-n{n:02d}", n != 3) for n in range(1, 5)]

    def test_null_dimensions_match_kernel(self):
        # at the normalized weight both the kernel and the factor are singular
        # with the same nullity on the unit circle
        for n, rho in ((2, 2.0), (3, 3.0)):
            s = normalized_shift(n, rho)
            a = float(s[0, 1].real)
            k_null = torus_nullspace(s, rho, 1.0)
            l_null = nullspace(congruence_factor(n, a, rho, 1.0))
            assert len(k_null) == len(l_null) == 1


class TestDiscGrid:
    def test_default_grid_shape(self):
        grid = DiscGrid()
        pts = grid.interior_points()
        assert pts.shape == (64,)
        assert np.max(np.abs(pts)) < 1.0
        assert roots_of_unity(256).shape == (256,)

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            DiscGrid(radii=(0.5, 0.5))
        with pytest.raises(ValueError):
            DiscGrid(radii=(0.5, 1.0))
        # NaN fails every comparison, so only a test of what must hold sees it
        for radii in ((math.nan,), (0.5, math.nan)):
            with pytest.raises(ValueError):
                DiscGrid(radii=radii)

    def test_roots_of_unity_match_the_former_builders(self):
        # the disc rings and the null-space sweep built exp(i theta) from a
        # real theta; the witness ring and c06 divided a complex array, which
        # can differ by an ulp, but not at the power-of-two counts in use
        for k in range(1, 300):
            pts = roots_of_unity(k)
            np.testing.assert_array_equal(pts, np.exp(1j * (2.0 * np.pi * np.arange(k) / k)))
            np.testing.assert_array_equal(
                pts, [complex(np.exp(2j * np.pi * j / k)) for j in range(k)])
        for k in (4, 8, 16, 32, 64, 128, 256, 512):
            np.testing.assert_array_equal(roots_of_unity(k),
                                          np.exp(2j * np.pi * np.arange(k) / k))

    def test_points_are_shared_and_read_only(self):
        # built once per count (and ring): a caller that could write into
        # them would change every later caller's points
        for first, second in ((roots_of_unity(256), roots_of_unity(256)),
                              (DiscGrid().interior_points(), DiscGrid().interior_points())):
            assert first is second
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 0.0
        np.testing.assert_array_equal(DiscGrid().interior_points(), 0.999 * roots_of_unity(64))


class TestCompanionThreshold:
    def test_rho2_is_numerical_range_edge(self, rng):
        # at rho = 2 the companion is block triangular: its real spectrum is
        # that of Re(conj(z) T) together with d zeros
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        zs = np.exp(2j * np.pi * np.arange(300) / 300)
        herm = (np.conj(zs)[:, None, None] * t + zs[:, None, None] * t.conj().T) / 2
        expected = np.maximum(np.linalg.eigvalsh(herm)[:, -1], 0.0)
        np.testing.assert_allclose(companion_threshold(t, zs, 2.0), expected, atol=1e-12)

    def test_real_shift_stays_real(self):
        # at z = 1 a real T gives a real companion; the shift threshold at
        # rho = 2 is cos(pi/(n+2))
        t = make_shift(4, 1.0)
        value = companion_threshold(t.real, np.ones(1), 2.0)[0]
        assert value == pytest.approx(math.cos(math.pi / 6), abs=1e-12)

    @staticmethod
    def companion_oracle(t, zs, rho):
        """Largest real part of the eigenvalues of the nonsymmetric companion
        of Q_z: every root is real for rho <= 2, so roundoff off the axis
        leaves the real part."""
        d = t.shape[0]
        out = []
        for z in zs:
            c = np.zeros((2 * d, 2 * d), dtype=complex)
            c[:d, :d] = (rho - 1.0) / rho * (np.conj(z) * t + z * t.conj().T)
            c[:d, d:] = -(rho - 2.0) / rho * abs(z) ** 2 * (t.conj().T @ t)
            c[d:, :d] = np.eye(d)
            out.append(np.linalg.eigvals(c).real.max())
        return np.array(out)

    @staticmethod
    def inputs(rng, d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = random_unitary(rng, d)
        shift = np.diag(rng.uniform(0.2, 2.0, d - 1), 1)
        return {"dense": g, "strictly-upper": np.triu(g, 1),
                "rotated-shift": u @ shift @ u.conj().T, "zero": np.zeros((d, d))}

    @pytest.mark.parametrize("rho", [1.0, 1.0 + 1e-4, 1.5, 2.0 - 1e-3, 2.0])
    def test_hermitian_route_matches_companion(self, rho):
        rng = np.random.default_rng(int(rho * 1e4))
        for d in [*range(1, 26), 65]:
            zs = np.exp(2j * np.pi * rng.uniform(size=6)) * [1, 1, 1, *rng.uniform(0.05, 1, 3)]
            for family, t in self.inputs(rng, d).items():
                np.testing.assert_allclose(companion_threshold(t, zs, rho),
                                           self.companion_oracle(t, zs, rho), rtol=1e-12,
                                           atol=0.0, err_msg=f"{family} d={d}")

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_slices_concatenate(self, rng, rho):
        # each point is solved on its own: a stack gives what its slices give
        t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        zs = np.exp(2j * np.pi * rng.uniform(size=600)) * rng.uniform(0.05, 1, 600)
        whole = companion_threshold(t, zs, rho)
        parts = [companion_threshold(t, zs[i:j], rho)
                 for i, j in ((0, 1), (1, 256), (256, 257), (257, 600))]
        np.testing.assert_array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_no_points(self, rng, rho):
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert companion_threshold(t, np.zeros(0, dtype=complex), rho).shape == (0,)

    @pytest.fixture
    def eigvals_calls(self, monkeypatch):
        """Shapes passed to np.linalg.eigvals while the test runs."""
        eigvals, seen = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(a.shape) or eigvals(a))
        return seen

    @pytest.mark.parametrize("rho, calls", [(1.0, 0), (1.5, 0), (2.0, 0), (2.0 + 1e-9, 1), (3.0, 1)])
    def test_route_pinned_by_rho(self, rng, eigvals_calls, rho, calls):
        t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        companion_threshold(t, roots_of_unity(8), rho)
        assert len(eigvals_calls) == calls
        assert threshold_solver(rho) == ("eigvals" if calls else "eigvalsh")

    def test_shift_radius_keeps_its_companion_size(self, eigvals_calls):
        res = shift_radius(4, 1.5)
        assert eigvals_calls == []
        assert res.stats["companion_size"] == 4  # 2 floor((n + 1)/2), the antisymmetric half
        assert res.stats["threshold_solver"] == "eigvalsh"
        assert shift_radius(4, 2.5).stats["threshold_solver"] == "eigvals"

    def test_level_set_names_its_solver(self, rng):
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for rho, solver in ((1.5, "eigvalsh"), (2.0, "eigvalsh"), (3.0, "eigvals")):
            res = radius_bisect(t, rho)
            assert res.method == "level_set"
            assert res.stats["threshold_solver"] == solver


class TestMinimumPrinciple:
    """Why the unit circle bounds the disc (``radius_bisect``)."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(5150)
        for d in range(2, 9):
            for rho in (1.5, 2.0, 3.0, 5.0):
                t = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                yield t, rho

    def test_interior_thresholds_stay_below_the_torus_bound(self):
        for t, rho in self.matrices():
            lo = max(spectral_radius(t), spectral_norm(t) / rho)
            torus = companion_threshold(t, roots_of_unity(256), rho).max()
            interior = companion_threshold(t, disc_points(), rho).max()
            assert interior <= max(lo, torus)

    def test_interior_kernel_stays_above_the_torus_minimum(self):
        for t, rho in self.matrices():
            t = 0.9 * t / spectral_radius(t)
            torus = np.linalg.eigvalsh(_resolvent_sum(t, roots_of_unity(256), rho))[:, 0]
            interior = np.linalg.eigvalsh(_resolvent_sum(t, disc_points(), rho))[:, 0]
            assert interior.min() >= torus.min()


class TestIsRhoContraction:
    def test_zero_matrix(self):
        assert is_rho_contraction(np.zeros((3, 3)), 2.0)

    def test_oversized_shift_fails_at_its_radius(self):
        # the 2x2 shift of weight b has w_rho = b/rho
        rho = 3.0
        report = is_rho_contraction(make_shift(1, rho + 0.1), rho)
        assert not report
        assert report.radius.value == pytest.approx(3.1 / 3, rel=1e-12)

    def test_normalized_shift_is_member(self):
        for n, rho in ((1, 1.5), (2, 2.0), (4, 3.5)):
            assert is_rho_contraction(normalized_shift(n, rho), rho)

    def test_spectral_radius_gate(self):
        assert not is_rho_contraction(1.1 * np.eye(2), 2.0)

    def test_boundary_skipped_for_torus_spectrum(self):
        # a unitary has kernel spectrum on the circle; it is normal, so its
        # radius is the spectral radius, in closed form, and it is a member
        u = np.diag([np.exp(0.3j), np.exp(-1.1j)])
        report = is_rho_contraction(u, 2.0)
        assert report
        assert report.radius.method == "closed_form"

    @staticmethod
    def flip_inputs():
        rng = np.random.default_rng(1912)
        for d in range(2, 9):
            for rho in (1.5, 2.0, 6.0, 30.0):
                t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                yield t, rho
                yield np.triu(t, 1), rho

    def test_exact_flip_at_the_radius(self):
        # 56 inputs, scaled to w_rho = 1 -+ 1e-6: the verdict flips exactly
        for t, rho in self.flip_inputs():
            w = radius_bisect(t, rho).value
            assert is_rho_contraction(t / (w * (1 + 1e-6)), rho)
            assert not is_rho_contraction(t / (w * (1 - 1e-6)), rho)

    @pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
    def test_unit_circle_eigenvalue_non_member(self, rho):
        # spectrum on the circle, w_rho = 1 + O(1e-4 / rho): not a member
        t = np.array([[np.exp(0.3j), 1e-2], [0.0, 0.0]])
        report = is_rho_contraction(t, rho)
        assert not report
        assert report.radius.value > 1.0 + 1e-5
        if rho == 2.0:  # the numerical radius of [[l, b], [0, 0]], |l| = 1
            assert report.radius.value == pytest.approx((1 + math.sqrt(1 + 1e-4)) / 2,
                                                        rel=1e-9)


class TestTorusNullspace:
    def test_dim2_profile(self):
        vecs = torus_nullspace(normalized_shift(1, 2.2), 2.2, 1.0)
        assert len(vecs) == 1
        expected = np.array([1.0, -1.0]) / math.sqrt(2)
        assert abs(abs(np.vdot(vecs[0], expected)) - 1.0) < 1e-10

    def test_dim3_profile_middle_zero(self):
        vecs = torus_nullspace(normalized_shift(2, 3.0), 3.0, 1.0)
        assert len(vecs) == 1
        expected = np.array([1.0, 0.0, -1.0]) / math.sqrt(2)
        assert abs(abs(np.vdot(vecs[0], expected)) - 1.0) < 1e-10

    def test_rotated_point_matches_diagonal_action(self):
        n, rho = 3, 2.0
        s = normalized_shift(n, rho)
        z = np.exp(0.9j)
        v1 = torus_nullspace(s, rho, 1.0)[0]
        vz = torus_nullspace(s, rho, z)[0]
        rotated = z ** np.arange(n + 1) * v1
        rotated /= np.linalg.norm(rotated)
        assert abs(abs(np.vdot(vz, rotated)) - 1.0) < 1e-10

    def test_array_call_matches_per_point_calls(self, rng):
        zs = np.concatenate([roots_of_unity(16), np.exp(1j * rng.uniform(0, 2 * np.pi, 4))])
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        cases = [(normalized_shift(n, rho), rho) for n in range(1, 7) for rho in (1.5, 2.0, 3.0)]
        cases.append((0.8 * t / spectral_radius(t), 2.0))
        for s, rho in cases:
            bases = torus_nullspace(s, rho, zs)
            assert len(bases) == len(zs)
            for z, got in zip(zs, bases):
                want = torus_nullspace(s, rho, z)
                assert len(got) == len(want)
                if got:
                    sigma = np.linalg.svd(np.conj(np.column_stack(got)).T
                                          @ np.column_stack(want), compute_uv=False)
                    assert 1.0 - sigma[-1] <= 1e-12

    def test_gap_failure_names_z(self):
        # eigenvalues 2 +- a on the circle at rho = 2; a just below 2 leaves
        # 6e-8, between the null threshold and the gap floor
        zs = roots_of_unity(4)
        with pytest.raises(GapTooSmallError, match=r"at z = \(1\+0j\)"):
            torus_nullspace(make_shift(1, 2.0 * (1.0 - 3e-8)), 2.0, zs)

    def test_rejects_one_interior_point_of_an_array(self):
        with pytest.raises(ValueError, match="unit circle"):
            torus_nullspace(make_shift(1, 1.0), 2.0, np.array([1.0, 0.5, -1.0]))

    def test_strict_contraction_has_trivial_nullspace(self):
        assert torus_nullspace(make_shift(2, 0.9), 2.0, 1.0) == []

    def test_rejects_interior_point(self):
        with pytest.raises(ValueError):
            torus_nullspace(make_shift(1, 1.0), 2.0, 0.5)

    def test_rejects_torus_spectrum(self):
        with pytest.raises(TorusSpectrumError):
            torus_nullspace(np.diag([1.0, 0.5]), 2.0, 1.0)
