import math

import numpy as np
import pytest

import rho_toolkit.harnack as harnack
import rho_toolkit.kernel as kernel
from rho_toolkit import (DiscGrid, GapTooSmallError, InteriorSingularError,
                         TorusSpectrumError, are_harnack_equivalent, canonical_form_c2,
                         domination_constant, make_shift, normalized_shift,
                         nullspace_equality, radius_bisect, torus_nullspace,
                         torus_spectrum_check)
from rho_toolkit.kernel import roots_of_unity

from conftest import disc_points


def block_sum(a, b):
    d = a.shape[0] + b.shape[0]
    out = np.zeros((d, d), dtype=complex)
    out[:a.shape[0], :a.shape[0]] = a
    out[a.shape[0]:, a.shape[0]:] = b
    return out


def per_angle_residuals(t1, t0, rho, torus_angles):
    """Reference for the stacked comparison: one SVD per unit-circle point of
    the two extracted bases, 1 - (least singular value) on equal nullity."""
    out = []
    for z in roots_of_unity(torus_angles):
        b1, b0 = torus_nullspace(t1, rho, z), torus_nullspace(t0, rho, z)
        if len(b1) != len(b0):
            out.append(1.0)
        elif not b1:
            out.append(0.0)
        else:
            u, v = np.column_stack(b1), np.column_stack(b0)
            out.append(1.0 - np.linalg.svd(u.conj().T @ v, compute_uv=False)[-1])
    return np.array(out)


def twisted_shift(n, theta, coordinate):
    """Diagonal phase twist of the rho=2 normalized shift at one coordinate."""
    s = make_shift(n, 1.0 / math.cos(math.pi / (n + 2)))
    d = np.ones(n + 1, dtype=complex)
    d[coordinate] = np.exp(1j * theta)
    return np.conj(d)[:, None] * s * d[None, :]


class TestDominationConstant:
    def test_reflexivity(self, quick_grid):
        t = make_shift(2, 1.1)
        cert = domination_constant(t, t, 2.0, quick_grid)
        assert cert.feasible
        assert cert.c_squared == pytest.approx(1.0, abs=1e-12)

    def test_zero_dominated_by_strict_contraction(self, quick_grid):
        t = 0.8 * normalized_shift(2, 2.0)
        cert = domination_constant(np.zeros((3, 3)), t, 2.0, quick_grid)
        assert cert.feasible and math.isfinite(cert.c_squared)
        assert cert.c_squared >= 1.0

    def test_canonical_pair_finite_both_ways(self, quick_grid):
        s = make_shift(2, math.sqrt(2))
        t = canonical_form_c2(2, 1.0)
        forward = domination_constant(t, s, 2.0, quick_grid)
        backward = domination_constant(s, t, 2.0, quick_grid)
        assert forward.feasible and backward.feasible
        assert forward.c_squared < 50 and backward.c_squared < 50

    def test_infeasible_when_reference_degenerates(self):
        # the weight-2rho shift kernel is singular at z = 1/2; a different
        # matrix demands positive mass on the dead direction
        rho = 2.0
        grid = DiscGrid(radii=(0.5,), angles_per_radius=4, torus_angles=4)
        cert = domination_constant(make_shift(1, 1.0), make_shift(1, 2 * rho), rho, grid)
        assert not cert.feasible
        assert cert.c_squared == math.inf
        assert cert.worst_z == pytest.approx(0.5)

    def test_interior_singular_raises_when_pencil_degenerates(self):
        rho = 2.0
        grid = DiscGrid(radii=(0.5,), angles_per_radius=4, torus_angles=4)
        t = make_shift(1, 2 * rho)
        with pytest.raises(InteriorSingularError) as err:
            domination_constant(t, t, rho, grid)
        assert err.value.z == pytest.approx(0.5)

    def test_transitivity_on_shared_grid(self, quick_grid):
        rho = 2.0
        t0 = make_shift(2, math.sqrt(2))
        t1 = canonical_form_c2(2, 0.7)
        t2 = 0.5 * t0
        c_20 = domination_constant(t2, t0, rho, quick_grid).c_squared
        c_21 = domination_constant(t2, t1, rho, quick_grid).c_squared
        c_10 = domination_constant(t1, t0, rho, quick_grid).c_squared
        assert c_20 <= c_21 * c_10 * (1.0 + 1e-9)

    def test_monotone_growth_for_off_part_twist(self):
        # a twist that breaks the null-space condition has domination
        # constants that blow up as the grid approaches the boundary
        t1 = twisted_shift(1, 0.9, 1)
        t0 = make_shift(1, 1.0 / math.cos(math.pi / 3))
        inner = DiscGrid(radii=(0.3, 0.6, 0.9), angles_per_radius=16, torus_angles=8)
        outer = DiscGrid(radii=(0.3, 0.6, 0.9, 0.99, 0.999), angles_per_radius=16,
                         torus_angles=8)
        c_inner = domination_constant(t1, t0, 2.0, inner).c_squared
        c_outer = domination_constant(t1, t0, 2.0, outer).c_squared
        assert c_outer > 10.0 * c_inner


class TestTorusSpectrumCheck:
    def test_same_matrix(self):
        s = make_shift(2, 1.0)
        assert torus_spectrum_check(s, s)

    def test_unmatched_unimodular_eigenvalue(self):
        assert not torus_spectrum_check(np.diag([1.0]), np.diag([0.0]))

    def test_nilpotent_pair(self):
        assert torus_spectrum_check(make_shift(1, 2.0), make_shift(1, 0.5))

    def test_matched_unimodular_eigenvalue(self):
        assert torus_spectrum_check(np.diag([1.0, 0.2]), np.diag([0.5, 1.0]))


class TestNullspaceEquality:
    def test_reflexive(self):
        s = normalized_shift(2, 2.0)
        report = nullspace_equality(s, s, 2.0, torus_angles=32)
        assert report
        assert np.all(report.dims0 == 1) and np.all(report.dims1 == 1)

    def test_canonical_family_member(self):
        s = make_shift(2, math.sqrt(2))
        t = canonical_form_c2(2, 0.7)
        assert nullspace_equality(t, s, 2.0, torus_angles=64)

    def test_strict_contraction_fails_against_boundary_member(self):
        s = normalized_shift(2, 2.0)
        report = nullspace_equality(0.9 * s, s, 2.0, torus_angles=16)
        assert not report
        assert np.all(report.dims1 == 0) and np.all(report.dims0 == 1)

    def test_rejects_torus_spectrum(self):
        with pytest.raises(TorusSpectrumError, match="T1 has spectrum"):
            nullspace_equality(np.diag([1.0, 0.0]), make_shift(1, 1.0), 2.0)
        with pytest.raises(TorusSpectrumError, match="T0 has spectrum"):
            nullspace_equality(make_shift(1, 1.0), np.diag([1.0, 0.0]), 2.0)

    def test_rejects_unequal_dimensions(self):
        # a 3 x 3 and a 4 x 4 kernel cannot share a null space
        with pytest.raises(ValueError, match="equal dimensions"):
            nullspace_equality(0.9 * normalized_shift(2, 2.0), normalized_shift(3, 2.0), 2.0,
                               torus_angles=8)

    def test_gap_failure_names_z(self):
        # K_z of the 2x2 shift of weight a has eigenvalues 2 +- a on the
        # circle at rho = 2: a = 2 (1 - 3e-8) leaves 6e-8, inside the gap
        bad = make_shift(1, 2.0 * (1.0 - 3e-8))
        with pytest.raises(GapTooSmallError, match=r"\(at z = \(1\+0j\)\)"):
            nullspace_equality(normalized_shift(1, 2.0), bad, 2.0, torus_angles=8)

    def test_one_spectrum_check_per_matrix(self, monkeypatch):
        calls = []
        original = kernel.has_torus_spectrum
        monkeypatch.setattr(kernel, "has_torus_spectrum",
                            lambda t: calls.append(t) or original(t))
        s = normalized_shift(2, 2.0)
        nullspace_equality(s, s, 2.0, torus_angles=32)
        assert len(calls) == 2

    @pytest.mark.parametrize("case", ["nullity-0-1", "nullity-1", "twist-1",
                                      "nullity-2", "mismatched-2-1"])
    def test_stacked_residuals_match_per_angle_svd(self, case):
        rho = 2.0
        s1, s2 = normalized_shift(1, rho), normalized_shift(2, rho)
        pair = block_sum(s1, s2)
        phases = np.exp(1j * np.array([0.3, 1.1, 2.0, 2.9, 4.2]))
        t1, t0, dims = {
            "nullity-0-1": (0.9 * s2, s2, (0, 1)),
            "nullity-1": (canonical_form_c2(2, 0.7), make_shift(2, math.sqrt(2)), (1, 1)),
            "twist-1": (twisted_shift(1, 1.3, 1), normalized_shift(1, rho), (1, 1)),
            "nullity-2": (np.conj(phases)[:, None] * pair * phases[None, :], pair, (2, 2)),
            "mismatched-2-1": (pair, block_sum(s1, 0.9 * s2), (2, 1)),
        }[case]
        report = nullspace_equality(t1, t0, rho, torus_angles=24)
        assert report.nullities() == ({dims[0]}, {dims[1]})
        assert len(report.z) == len(report.residuals) == 24
        np.testing.assert_allclose(report.residuals,
                                   per_angle_residuals(t1, t0, rho, 24), rtol=0, atol=1e-12)


class TestAreHarnackEquivalent:
    def test_reflexive(self, quick_grid):
        s = normalized_shift(1, 2.0)
        verdict, evidence = are_harnack_equivalent(s, s, 2.0, quick_grid,
                                                   torus_angles=32)
        assert verdict
        assert evidence.constant_nullity
        assert evidence.forward.c_squared == pytest.approx(1.0, abs=1e-10)

    def test_unconstrained_coordinate_twist_stays_equivalent(self, quick_grid):
        # dimension 3: the middle profile coordinate vanishes, so a phase
        # twist there keeps the part
        t = twisted_shift(2, 1.3, 1)
        s = make_shift(2, math.sqrt(2))
        verdict, evidence = are_harnack_equivalent(t, s, 2.0, quick_grid,
                                                   torus_angles=32)
        assert verdict
        assert math.isfinite(evidence.forward.c_squared)
        assert math.isfinite(evidence.backward.c_squared)

    def test_supported_coordinate_twist_leaves_part(self, quick_grid):
        # dimension 2: both profile coordinates are supported, so any
        # nontrivial one-coordinate twist leaves the part
        t = twisted_shift(1, 1.3, 1)
        s = make_shift(1, 1.0 / math.cos(math.pi / 3))
        verdict, _ = are_harnack_equivalent(t, s, 2.0, quick_grid, torus_angles=32)
        assert not verdict

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_strict_contractions_share_the_zero_part(self, rho, quick_grid):
        t = 0.7 * normalized_shift(1, rho)
        verdict, evidence = are_harnack_equivalent(t, np.zeros((2, 2)), rho,
                                                   quick_grid, torus_angles=16)
        assert verdict
        assert evidence.constant_nullity

    def test_evaluates_each_kernel_once(self, monkeypatch, quick_grid):
        # two torus stacks and two interior stacks: the backward direction
        # reuses the forward direction's kernels
        calls = []
        original = kernel._resolvent_sum

        def counted(t, zs, rho):
            calls.append(len(zs))
            return original(t, zs, rho)

        monkeypatch.setattr(kernel, "_resolvent_sum", counted)
        monkeypatch.setattr(harnack, "_resolvent_sum", counted)
        t = canonical_form_c2(2, 0.7)
        s = make_shift(2, math.sqrt(2))
        verdict, evidence = are_harnack_equivalent(t, s, 2.0, quick_grid, torus_angles=32)
        assert verdict
        assert len(calls) == 4
        assert sorted(calls) == [16, 16, 32, 32]
        # the shared kernels give the same constants as the directed calls
        assert evidence.forward.c_squared == domination_constant(t, s, 2.0, quick_grid).c_squared
        assert evidence.backward.c_squared == domination_constant(s, t, 2.0, quick_grid).c_squared

    def test_certificates_report_points_and_margin(self, quick_grid):
        t = 0.7 * normalized_shift(1, 2.0)
        _, evidence = are_harnack_equivalent(t, np.zeros((2, 2)), 2.0, quick_grid,
                                             torus_angles=16)
        forward, backward = evidence.forward, evidence.backward
        assert forward.stats["interior_points"] == backward.stats["interior_points"] == 16
        # K(0) = rho I: the least eigenvalue is the scale
        assert forward.stats["k0_relative_min"] == pytest.approx(1.0, abs=1e-15)
        assert harnack.PD_FLOOR < backward.stats["k0_relative_min"] < 1.0


class TestMinimumPrinciple:
    """For class members the outermost ring decides the constant and the
    feasibility of the whole 11-ring disc sample (``DiscGrid``)."""

    @staticmethod
    def certificates(t1, t0, rho, zs):
        k1, k0 = kernel._resolvent_sum(t1, zs, rho), kernel._resolvent_sum(t0, zs, rho)
        return [harnack._dominate(a, b, zs, DiscGrid(), ("T1", "T0"), harnack.LEAK_TOL)
                for a, b in ((k1, k0), (k0, k1))]

    def assert_ring_decides(self, t1, t0, rho):
        ring = DiscGrid().interior_points()
        pairs = zip(self.certificates(t1, t0, rho, disc_points()),
                    self.certificates(t1, t0, rho, ring))
        for disc, outer in pairs:
            assert disc.feasible == outer.feasible
            assert disc.c_squared == pytest.approx(outer.c_squared, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_middle_twists(self, n):
        s = make_shift(n, 1.0 / math.cos(math.pi / (n + 2)))
        for theta in (0.7, math.pi / 2, 2.0, math.pi):
            self.assert_ring_decides(twisted_shift(n, theta, (n + 1) // 2), s, 2.0)

    @pytest.mark.parametrize("n", [1, 4])
    def test_contracted_shift(self, n):
        s = normalized_shift(n, 2.0)
        self.assert_ring_decides(0.9 * s, s, 2.0)

    def test_random_members(self):
        # 64 angles can miss a peak of c^2 near the circle that a 0.99 sample
        # catches, so the outer ring here has 1024 angles (the default 64
        # among them): no disc sample may exceed its constant
        rng = np.random.default_rng(1616)
        dense = 0.999 * roots_of_unity(1024)
        for d in range(2, 7):
            for rho in (1.5, 2.0, 3.0):
                t1, t0 = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                          for _ in range(2))
                t1 = t1 / (radius_bisect(t1, rho).value * rng.uniform(1.0, 1.5))
                t0 = t0 / radius_bisect(t0, rho).value
                pairs = zip(self.certificates(t1, t0, rho, disc_points()),
                            self.certificates(t1, t0, rho, DiscGrid().interior_points()),
                            self.certificates(t1, t0, rho, dense))
                for disc, outer, ring in pairs:
                    assert disc.feasible == outer.feasible == ring.feasible
                    assert disc.c_squared <= ring.c_squared * (1.0 + 1e-12)
