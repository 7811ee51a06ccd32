import math

import numpy as np
import pytest

import rho_toolkit.harnack as harnack
import rho_toolkit.kernel as kernel
from rho_toolkit import (DiscGrid, GapTooSmallError, InteriorSingularError,
                         TorusSpectrumError, are_harnack_equivalent, canonical_form_c2,
                         domination_constant, make_shift, normalized_shift,
                         nullspace_equality, radius_bisect, torus_nullspace)
from rho_toolkit.kernel import roots_of_unity

from conftest import disc_points, orthogonal_conjugates


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


class TestNullspaceEquality:
    def test_reflexive(self):
        for n in (1, 2):  # even and odd dimension
            s = normalized_shift(n, 2.0)
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

    def test_one_spectrum_check_per_matrix(self, monkeypatch, quick_grid):
        # one eigvals of the stack [T1, T0]: each operand's spectrum once
        calls = []
        original = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: calls.append(np.shape(a)) or original(a))
        s = normalized_shift(2, 2.0)
        nullspace_equality(s, s, 2.0, torus_angles=32)
        assert calls == [(2, 3, 3)]
        are_harnack_equivalent(s, s, 2.0, quick_grid, torus_angles=32)
        assert calls == [(2, 3, 3)] * 2

    @pytest.mark.parametrize("count", [0, -3])
    def test_rejects_empty_torus_sample(self, count, quick_grid):
        s = normalized_shift(2, 2.0)
        with pytest.raises(ValueError, match="torus_angles must be positive"):
            nullspace_equality(s, s, 2.0, torus_angles=count)
        with pytest.raises(ValueError, match="torus_angles must be positive"):
            are_harnack_equivalent(s, s, 2.0, quick_grid, torus_angles=count)

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

    @staticmethod
    def counted_pair(monkeypatch, quick_grid, t, s):
        """are_harnack_equivalent on (t, s) and, per kernel evaluation, the
        operands and the points it evaluated."""
        calls = []
        original = kernel._resolvent_sum

        def counted(a, zs, rho):
            calls.append((a.copy(), zs.copy()))
            return original(a, zs, rho)

        monkeypatch.setattr(kernel, "_resolvent_sum", counted)
        monkeypatch.setattr(harnack, "_resolvent_sum", counted)
        verdict, evidence = are_harnack_equivalent(t, s, 2.0, quick_grid, torus_angles=32)
        monkeypatch.undo()
        assert verdict
        # the shared kernels give the same certificates as the directed calls
        assert evidence.forward == domination_constant(t, s, 2.0, quick_grid)
        assert evidence.backward == domination_constant(s, t, 2.0, quick_grid)
        return evidence, calls

    @staticmethod
    def assert_one_evaluation(calls, t, s, points):
        # one stack [T1, T0] at every point once: each kernel evaluated once
        assert len(calls) == 1
        operands, zs = calls[0]
        np.testing.assert_array_equal(operands, [t, s])
        np.testing.assert_array_equal(zs, points)

    def test_evaluates_each_kernel_once(self, monkeypatch, quick_grid):
        # the 32 torus samples and the 16 ring samples in one evaluation of
        # both operands: the backward direction reuses the forward
        # direction's kernels.  Conjugated by an orthogonal Q the pair is no
        # longer one of weighted shifts, so every sample point is evaluated
        t, s = orthogonal_conjugates(canonical_form_c2(2, 0.7), make_shift(2, math.sqrt(2)))
        evidence, calls = self.counted_pair(monkeypatch, quick_grid, t, s)
        assert evidence.nullspaces.route == evidence.forward.stats["route"] == "sampled"
        self.assert_one_evaluation(calls, t, s, np.concatenate(
            [roots_of_unity(32), quick_grid.interior_points()]))

    def test_evaluates_weighted_shifts_at_one_point(self, monkeypatch, quick_grid):
        # the same evaluation at z = 1 and z = radii[-1] alone
        t, s = canonical_form_c2(2, 0.7), make_shift(2, math.sqrt(2))
        evidence, calls = self.counted_pair(monkeypatch, quick_grid, t, s)
        assert evidence.nullspaces.route == evidence.forward.stats["route"] == "rotation"
        self.assert_one_evaluation(calls, t, s, [1.0, quick_grid.radii[-1]])

    @pytest.mark.parametrize("route", ["rotation", "sampled"])
    def test_certificates_match_directed_calls(self, route):
        # both directions of a pair are the whole certificates of
        # domination_constant: feasible both ways, infeasible backward (the
        # weight-2rho shift is singular at z = 1/2, see
        # test_infeasible_when_reference_degenerates) and, for the shift
        # against itself, InteriorSingularError from either call
        grid = DiscGrid(radii=(0.5,), angles_per_radius=4, torus_angles=4)
        conj = (lambda *ts: ts) if route == "rotation" else orthogonal_conjugates
        for t1, t0 in ((0.7 * normalized_shift(1, 2.0), normalized_shift(1, 2.0)),
                       (make_shift(1, 4.0), make_shift(1, 1.0))):
            t1, t0 = conj(t1, t0)
            _, evidence = are_harnack_equivalent(t1, t0, 2.0, grid, torus_angles=4)
            assert evidence.forward.stats["route"] == route
            assert evidence.forward == domination_constant(t1, t0, 2.0, grid)
            assert evidence.backward == domination_constant(t0, t1, 2.0, grid)
        assert evidence.forward.feasible and not evidence.backward.feasible
        t = conj(make_shift(1, 4.0))[0]
        with pytest.raises(InteriorSingularError) as pair_error:
            are_harnack_equivalent(t, t, 2.0, grid, torus_angles=4)
        with pytest.raises(InteriorSingularError) as directed_error:
            domination_constant(t, t, 2.0, grid)
        assert pair_error.value.z == directed_error.value.z
        assert str(pair_error.value) == str(directed_error.value)

    def test_certificates_report_points_and_margin(self, quick_grid):
        pair = (0.7 * normalized_shift(1, 2.0), np.zeros((2, 2)))
        for route, (t, zero), points in (("rotation", pair, 1),
                                         ("sampled", orthogonal_conjugates(*pair), 16)):
            _, evidence = are_harnack_equivalent(t, zero, 2.0, quick_grid, torus_angles=16)
            forward, backward = evidence.forward, evidence.backward
            assert forward.stats["route"] == backward.stats["route"] == route
            assert forward.stats["interior_points"] == backward.stats["interior_points"] == points
            # K(0) = rho I: the least eigenvalue is the scale
            assert forward.stats["k0_relative_min"] == pytest.approx(1.0, abs=1e-15)
            assert harnack.PD_FLOOR < backward.stats["k0_relative_min"] < 1.0


class TestMinimumPrinciple:
    """For class members the outermost ring decides the constant and the
    feasibility of the whole 11-ring disc sample (``DiscGrid``)."""

    @staticmethod
    def certificates(t1, t0, rho, zs):
        k = kernel._resolvent_sum(np.stack([t1, t0]), zs, rho)
        return harnack._certificates(k, zs, "sampled")

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


def random_weighted_shift(rng, d):
    """A d x d weighted shift with complex weights, about a third of them
    zero (at least one nonzero)."""
    w = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
    w[rng.uniform(size=d - 1) < 0.35] = 0.0
    if not np.any(w):
        w[rng.integers(d - 1)] = 1.0
    return np.diag(w, 1)


class TestRotationRoute:
    """A pair of weighted shifts is decided at z = 1 and scored at
    z = radii[-1] alone; the sampled route on the orthogonally conjugated
    pair (same null spaces up to Q, same constants) is its oracle."""

    @staticmethod
    def assert_routes_agree(a1, a0, rho, grid):
        v, e = are_harnack_equivalent(a1, a0, rho, grid, torus_angles=64)
        vo, eo = are_harnack_equivalent(*orthogonal_conjugates(a1, a0), rho, grid,
                                        torus_angles=64)
        assert e.nullspaces.route == "rotation" and eo.nullspaces.route == "sampled"
        assert v == vo and e.constant_nullity == eo.constant_nullity
        assert e.nullspaces.equal == eo.nullspaces.equal
        np.testing.assert_array_equal(e.nullspaces.dims1, eo.nullspaces.dims1)
        np.testing.assert_array_equal(e.nullspaces.dims0, eo.nullspaces.dims0)
        np.testing.assert_allclose(e.nullspaces.residuals, eo.nullspaces.residuals,
                                   rtol=0, atol=1e-12)
        for cert, ref in ((e.forward, eo.forward), (e.backward, eo.backward)):
            assert cert.feasible == ref.feasible
            assert cert.stats["route"] == "rotation"
            assert cert.stats["interior_points"] == 1
            assert cert.worst_z == grid.radii[-1]
            if cert.feasible:
                assert cert.c_squared == pytest.approx(ref.c_squared, rel=1e-10)
            else:
                assert cert.c_squared == ref.c_squared == math.inf
        return v

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_matches_sampled_route_on_conjugated_pair(self, d, rho):
        rng = np.random.default_rng([17, d, int(2 * rho)])
        grid = DiscGrid(angles_per_radius=16)
        verdicts = []
        for _ in range(3):
            # d weights: dimension d + 1; t0 at w_rho = 1, t1 at or below it
            t1, t0 = (random_weighted_shift(rng, d + 1) for _ in range(2))
            t0 = t0 / radius_bisect(t0, rho).value
            t1 = t1 / (radius_bisect(t1, rho).value * rng.choice([1.0, 1.3]))
            phases = np.exp(2j * np.pi * rng.uniform(size=d + 1))
            twist = np.conj(phases)[:, None] * t0 * phases[None, :]
            for a1, a0 in ((t1, t0), (t0, t1), (twist, t0), (t0, t0)):
                verdicts.append(self.assert_routes_agree(a1, a0, rho, grid))
        assert any(verdicts)

    @pytest.mark.parametrize("rho", [1.5, 2.0, 3.0])
    def test_matches_sampled_route_at_nullity_two(self, rho):
        s1, s2 = normalized_shift(1, rho), normalized_shift(2, rho)
        pair = block_sum(s1, s2)
        phases = np.exp(1j * np.array([0.3, 1.1, 2.0, 2.9, 4.2]))
        grid = DiscGrid(angles_per_radius=16)
        assert self.assert_routes_agree(pair, pair, rho, grid)
        self.assert_routes_agree(np.conj(phases)[:, None] * pair * phases[None, :], pair,
                                 rho, grid)
        assert not self.assert_routes_agree(pair, block_sum(s1, 0.9 * s2), rho, grid)

    def test_matches_sampled_route_when_infeasible(self):
        # the weight-2rho shift kernel is singular at z = 1/2 (see
        # test_infeasible_when_reference_degenerates)
        grid = DiscGrid(radii=(0.5,), angles_per_radius=4, torus_angles=4)
        t1, t0 = make_shift(1, 1.0), make_shift(1, 4.0)
        exact = domination_constant(t1, t0, 2.0, grid)
        oracle = domination_constant(*orthogonal_conjugates(t1, t0), 2.0, grid)
        assert not exact.feasible and not oracle.feasible
        assert exact.worst_z == oracle.worst_z == 0.5
        assert exact.stats["interior_points"] == 1 and oracle.stats["interior_points"] == 4

    def test_comparison_arrays_span_the_torus_samples(self):
        s = normalized_shift(3, 2.0)
        report = nullspace_equality(0.9 * s, s, 2.0, torus_angles=24)
        assert report.route == "rotation"
        assert len(report.z) == len(report.dims1) == len(report.residuals) == 24
        assert np.all(report.dims1 == 0) and np.all(report.dims0 == 1)

    def test_tiny_entry_off_the_superdiagonal_is_sampled(self, quick_grid):
        s = normalized_shift(2, 2.0)
        t = s.copy()
        t[0, 2] = 1e-300
        report = nullspace_equality(t, s, 2.0, torus_angles=16)
        assert report.route == "sampled"
        _, evidence = are_harnack_equivalent(t, s, 2.0, quick_grid, torus_angles=16)
        assert evidence.forward.stats["route"] == "sampled"
        assert evidence.forward.stats["interior_points"] == 16
        assert nullspace_equality(s, s, 2.0, torus_angles=16).route == "rotation"
