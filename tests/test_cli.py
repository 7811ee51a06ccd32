import csv
import io
import json
import math
import threading

import numpy as np
import pytest

from rho_toolkit import make_shift, normalized_shift, verify
from rho_toolkit.cli import MatrixDocument, load_matrix, main, save_matrix
from rho_toolkit.radius import CROSSING_TOL

from conftest import orthogonal_conjugates


def write_matrix(tmp_path, name, matrix, label=None):
    path = tmp_path / name
    save_matrix(str(path), matrix, label)
    return str(path)


class TestMatrixDocument:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = write_matrix(tmp_path, "m.json", m, label="random")
        loaded = load_matrix(path)
        assert np.array_equal(loaded, m)
        doc1 = MatrixDocument.from_matrix(m, "random").to_json_dict()
        doc2 = MatrixDocument.from_matrix(loaded, "random").to_json_dict()
        assert json.dumps(doc1) == json.dumps(doc2)

    def test_decimal_entries_preserved(self, tmp_path):
        m = np.array([[0.1 + 0.2j, 1.2345678901234567],
                      [-3.14159265358979, 1e-300]], dtype=complex)
        path = write_matrix(tmp_path, "d.json", m)
        assert np.array_equal(load_matrix(path), m)

    def test_entry_count_validated(self):
        with pytest.raises(ValueError):
            MatrixDocument(dim=2, entries=[[1.0, 0.0]]).to_matrix()


class TestRadiusCommand:
    def test_shift_rho2(self, capsys):
        assert main(["radius", "--shift", "2", "--rho", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.70710678" in out
        assert "companion" in out

    def test_shift_critical(self, capsys):
        assert main(["radius", "--shift", "4", "--rho", "6"]) == 0
        assert "0.66666667" in capsys.readouterr().out

    def test_zero_matrix(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "zero.json", np.zeros((3, 3)))
        assert main(["radius", "--matrix", path, "--rho", "2"]) == 0
        assert "value=0" in capsys.readouterr().out

    def test_matrix_bisection(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "s.json", make_shift(1, 1.0))
        assert main(["radius", "--matrix", path, "--rho", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1 / 3, abs=1e-6)
        assert payload["method"] == "level_set"

    def test_weight_scales_every_method(self, capsys):
        # w_rho(B S) = B w_rho(S) = 2 cos(pi/5) for N = 3, B = 2, rho = 2
        values = []
        for method in ("auto", "det", "bisect"):
            assert main(["radius", "--shift", "3", "--weight", "2", "--rho", "2",
                         "--method", method, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["bracket"][0] <= payload["value"] <= payload["bracket"][1]
            values.append(payload["value"])
        assert max(values) - min(values) <= 1e-5
        assert values[0] == pytest.approx(2 * math.cos(math.pi / 5), abs=1e-9)

    def test_deterministic_output(self, capsys):
        main(["radius", "--shift", "3", "--rho", "2.5", "--json"])
        first = capsys.readouterr().out
        main(["radius", "--shift", "3", "--rho", "2.5", "--json"])
        assert capsys.readouterr().out == first

    def test_parsed_state_does_not_leak_between_calls(self, capsys):
        assert main(["radius", "--shift", "2", "--rho", "2", "--weight", "3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(
            3 * math.cos(math.pi / 4), abs=1e-12)
        assert main(["radius", "--shift", "2", "--rho", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(
            math.cos(math.pi / 4), abs=1e-12)

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        from rho_toolkit import cli

        built = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda real=cli.build_parser: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["radius", "--shift", "2", "--rho", "2"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_matrix_json_reports_stats(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "s.json", make_shift(3, 1.0))
        assert main(["radius", "--matrix", path, "--rho", "2", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["iterations"] >= 1 and stats["threshold_points"] >= 8
        assert stats["crossing_tol"] == CROSSING_TOL
        assert stats["threshold_solver"] == "eigvalsh"
        assert stats["start"] == "sampled"
        assert abs(complex(*stats["witness"])) == pytest.approx(1.0, abs=1e-12)
        # rho > 2: the shift's flat threshold passes the screen, a dense input does not
        assert main(["radius", "--matrix", path, "--rho", "3", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["start"] == "screened" and stats["threshold_points"] == 1
        dense = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0], [1.0, 0.0, 0.5j]])
        path = write_matrix(tmp_path, "dense.json", dense)
        assert main(["radius", "--matrix", path, "--rho", "3", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["start"] == "sampled" and stats["threshold_points"] >= 8
        assert main(["radius", "--shift", "3", "--rho", "2.5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["threshold_solver"] == "eigvals"

    @pytest.mark.parametrize("entry", [["a", 0], None, 5])
    def test_malformed_entry_is_usage_error(self, tmp_path, capsys, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 1, "entries": [entry]}))
        assert main(["radius", "--matrix", str(path), "--rho", "2"]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_usage_error_both_sources(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "s.json", make_shift(1, 1.0))
        assert main(["radius", "--shift", "1", "--matrix", path, "--rho", "2"]) == 2

    def test_usage_error_bad_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["radius", "--shift", "2", "--rho", "2", "--method", "nope"])
        assert err.value.code == 2

    def test_det_routes_disagreeing_is_numeric_error(self, capsys, monkeypatch):
        # both bisections agree on every shipped input, so the eigenvalue
        # route is substituted by one whose first root sits at a = rho
        import rho_toolkit.radius as radius

        monkeypatch.setattr(radius, "_boundary_min_eig", lambda n, a, rho: rho - a)
        assert main(["radius", "--shift", "24", "--rho", "26.00000000000001",
                     "--method", "det"]) == 3
        assert "NoRootError" in capsys.readouterr().err

    def test_det_json_reports_stats(self, capsys):
        assert main(["radius", "--shift", "6", "--rho", "3", "--method", "det", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert stats["bisection_steps"] > 20 and stats["eigenvalue_probes"] == 2
        below, above = stats["window"]
        assert below < 1.0 / payload["value"] < above

    def test_det_near_double_root(self, capsys):
        # just past the critical point the first root is nearly double
        assert main(["radius", "--shift", "24", "--rho", "26.00000000000001",
                     "--method", "det", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(24 / 26, abs=1e-8)

    def test_missing_file_is_usage_error(self):
        assert main(["radius", "--matrix", "/no/such/file.json", "--rho", "2"]) == 2

    def test_weight_with_matrix_is_usage_error(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "s.json", make_shift(2, 1.0))
        assert main(["radius", "--matrix", path, "--rho", "2", "--weight", "2"]) == 2
        assert "--weight" in capsys.readouterr().err


class TestKernelCommand:
    def test_shift_eigenvalues_csv(self, capsys):
        rho, a = 2.5, 1.3
        assert main(["kernel", "--shift", "1", "--weight", str(a), "--z", "1,0",
                     "--rho", str(rho)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        values = [float(r[1]) for r in rows[1:]]
        assert values == pytest.approx([rho - a, rho + a])

    def test_zero_matrix_constant_spectrum(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "zero.json", np.zeros((3, 3)))
        assert main(["kernel", "--matrix", path, "--z", "0.3,0.1", "--rho", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigenvalues"] == pytest.approx([2.0, 2.0, 2.0])

    def test_normalized_shift_boundary_eigenvalue(self, capsys):
        assert main(["kernel", "--shift", "3", "--normalized", "--z", "1,0",
                     "--rho", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eigenvalues"][0] == pytest.approx(0.0, abs=1e-8)

    def test_torus_spectrum_is_numeric_error(self, tmp_path):
        path = write_matrix(tmp_path, "u.json", np.diag([1.0 + 0j, 0.3]))
        assert main(["kernel", "--matrix", path, "--z", "1,0", "--rho", "2"]) == 3

    def test_shift_options_with_matrix_are_usage_errors(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "s.json", make_shift(2, 1.0))
        assert main(["kernel", "--matrix", path, "--normalized", "--z", "1,0",
                     "--rho", "2"]) == 2
        assert main(["kernel", "--shift", "3", "--normalized", "--weight", "2",
                     "--z", "1,0", "--rho", "2"]) == 2
        assert capsys.readouterr().out == ""


class TestNullspaceCommand:
    def test_shift_profile(self, capsys):
        assert main(["nullspace", "--shift", "2", "--rho", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nullity"] == 1
        assert payload["support"] == [0, 2]
        assert payload["antisymmetry_residual"] < 1e-7

    def test_shift_antisymmetry_reads_the_extraction(self, monkeypatch, capsys):
        # the closed form is antisymmetric by construction and would hide a
        # vector that is not
        import rho_toolkit.cli as cli

        monkeypatch.setattr(cli, "torus_nullspace",
                            lambda t, rho, z, tol: [np.ones(t.shape[0], dtype=complex)])
        assert main(["nullspace", "--shift", "3", "--rho", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["antisymmetry_residual"] > 1e-3

    def test_shift_antisymmetry_at_a_rotated_point(self, capsys):
        assert main(["nullspace", "--shift", "3", "--rho", "2", "--z=0,1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["antisymmetry_residual"] < 1e-7

    def test_shift_profile_solves_the_radius_once(self, monkeypatch, capsys):
        import rho_toolkit.shifts as shifts
        import rho_toolkit.structure as structure

        calls = []
        original = shifts.shift_radius
        for module in (shifts, structure):
            monkeypatch.setattr(module, "shift_radius",
                                lambda n, rho: calls.append((n, rho)) or original(n, rho))
        assert main(["nullspace", "--shift", "4", "--rho", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["nullity"] == 1
        assert calls == [(4, 2.0)]

    def test_matrix_at_rotated_point(self, tmp_path, capsys):
        path = write_matrix(tmp_path, "s.json", normalized_shift(1, 2.0))
        assert main(["nullspace", "--matrix", path, "--rho", "2", "--z=-1,0",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nullity"] == 1

    def test_shift_with_matrix_is_usage_error(self, tmp_path, capsys):
        # as for radius and kernel: the two operands exclude each other
        path = write_matrix(tmp_path, "s.json", normalized_shift(1, 2.0))
        assert main(["nullspace", "--shift", "2", "--matrix", path, "--rho", "2"]) == 2
        assert "exactly one of --shift or --matrix" in capsys.readouterr().err


class TestHarnackCommand:
    def test_identical_operands(self, tmp_path, capsys):
        s = normalized_shift(1, 2.0)
        for route, t, points in (("rotation", s, 1), ("sampled", *orthogonal_conjugates(s), 8)):
            path = write_matrix(tmp_path, "s.json", t)
            assert main(["harnack", "--t1", path, "--t0", path, "--rho", "2",
                         "--torus", "16", "--angles", "8"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["equivalent"] is True
            assert payload["c_squared_forward"] == pytest.approx(1.0, abs=1e-10)
            assert payload["note"].startswith("weighted-shift pair" if route == "rotation"
                                              else "sampled route")
            for key in ("stats_forward", "stats_backward"):
                assert payload[key]["route"] == route
                assert payload[key]["interior_points"] == points
                assert 0.0 < payload[key]["k0_relative_min"] <= 1.0

    def test_canonical_vs_shift(self, tmp_path, capsys):
        from rho_toolkit import canonical_form_c2

        t1 = write_matrix(tmp_path, "t1.json", canonical_form_c2(2, 1.0))
        t0 = write_matrix(tmp_path, "t0.json", make_shift(2, math.sqrt(2)))
        assert main(["harnack", "--t1", t1, "--t0", t0, "--rho", "2",
                     "--torus", "32", "--angles", "8",
                     "--grid-radii", "0.2,0.5,0.8,0.99"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is True
        assert math.isfinite(payload["c_squared_forward"])
        assert math.isfinite(payload["c_squared_backward"])

    def test_strict_contraction_not_equivalent(self, tmp_path, capsys):
        t1 = write_matrix(tmp_path, "t1.json", 0.8 * normalized_shift(1, 2.0))
        t0 = write_matrix(tmp_path, "t0.json", normalized_shift(1, 2.0))
        assert main(["harnack", "--t1", t1, "--t0", t0, "--rho", "2",
                     "--torus", "16", "--angles", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is False

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_empty_torus_sample_is_usage_error(self, count, tmp_path, capsys):
        path = write_matrix(tmp_path, "s.json", normalized_shift(1, 2.0))
        assert main(["harnack", "--t1", path, "--t0", path, "--rho", "2",
                     "--torus", count, "--angles", "8"]) == 2
        assert capsys.readouterr().err == "usage error: torus_angles must be positive\n"

    def test_torus_spectrum_rejected_with_numeric_exit(self, tmp_path):
        t1 = write_matrix(tmp_path, "u.json", np.diag([1.0 + 0j, 0.2]))
        t0 = write_matrix(tmp_path, "s.json", normalized_shift(1, 2.0))
        assert main(["harnack", "--t1", t1, "--t0", t0, "--rho", "2",
                     "--torus", "8", "--angles", "8"]) == 3


class TestDetcheckCommand:
    def test_json_payload(self, capsys):
        assert main(["detcheck", "--m", "4", "--a", "1.7", "--rho", "2.5",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel_residual"] < 1e-10
        assert payload["capped_residual"] < 1e-10
        assert payload["mixed_identity_residual"] < 1e-10


class TestOmegaCurveCommand:
    def test_csv_output(self, capsys):
        assert main(["omega-curve", "--n", "4", "--samples", "5"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["rho", "omega", "radius"]
        omegas = [float(r[1]) for r in rows[1:]]
        assert all(w1 > w2 for w1, w2 in zip(omegas, omegas[1:]))

    def test_range_without_angle_is_usage_error(self, capsys):
        # n = 1 and rho >= n + 2 have no auxiliary angle
        assert main(["omega-curve", "--n", "1"]) == 2
        assert main(["omega-curve", "--n", "4", "--rho-max", "6"]) == 2
        assert capsys.readouterr().out == ""


class TestVerifyCommand:
    def test_fast_subset_passes(self, capsys):
        assert main(["verify", "--only", "c00,c04", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["failed"] == 0
        assert all(c["paper_location"] for c in payload["checks"])
        ids = [c["id"] for c in payload["checks"]]
        assert len(ids) == len(set(ids))

    def test_json_reports_seconds_per_criterion(self, capsys):
        assert main(["verify", "--only", "c00,c03", "--n-max", "3", "--format", "json"]) == 0
        seconds = json.loads(capsys.readouterr().out)["seconds"]
        assert sorted(seconds) == ["c00", "c03"]
        assert all(s >= 0.0 for s in seconds.values())

    def test_kept_reports_share_ids_and_notes(self):
        first, second = (verify.run_battery(n_max=3, criteria={"c03"}) for _ in range(2))
        assert first == second
        assert all(a.id is b.id and a.note is b.note
                   for a, b in zip(first.checks, second.checks))

    def test_known_red_family_exits_one(self, capsys, monkeypatch):
        # every shipped criterion passes, so a failing one is substituted;
        # run_battery reads CRITERIA at call time
        def red(n_max, seed):
            return [verify.CheckResult(
                id="c99-red-n02", paper_location="deliberately failing check",
                expected=0.0, computed=1.0, tolerance=0.0, passed=False,
                note="injected failure")]

        monkeypatch.setattr(verify, "CRITERIA", (("c99", "always red", red),))
        assert main(["verify", "--only", "c99", "--n-max", "2"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] c99-red-n02" in out and "injected failure" in out

    def test_criteria_run_in_the_calling_thread(self, monkeypatch):
        seen = []

        def recording(cid):
            def criterion(n_max, seed):
                seen.append((cid, threading.get_ident()))
                return [verify.CheckResult(id=f"{cid}-check", paper_location="recorded",
                                           expected=0.0, computed=0.0, tolerance=0.0,
                                           passed=np.bool_(True))]
            return criterion

        monkeypatch.setattr(verify, "CRITERIA", (("c97", "first", recording("c97")),
                                                 ("c98", "second", recording("c98"))))
        report = verify.run_battery(criteria={"c97", "c98"})
        assert seen == [("c97", threading.get_ident()), ("c98", threading.get_ident())]
        assert sorted(report.seconds) == ["c97", "c98"]
        assert all(type(c.passed) is bool for c in report.checks)

    def test_unknown_criterion_id_is_refused(self, capsys):
        with pytest.raises(ValueError, match="c99"):
            verify.run_battery(criteria={"c00", "c99"})
        assert main(["verify", "--only", "c0"]) == 2
        assert "c0" in capsys.readouterr().err

    def test_csv_format(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        assert main(["verify", "--only", "c00", "--format", "csv",
                     "--out", str(out_file)]) == 0
        with out_file.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "id"
        assert rows[1][0] == "c00-kernel-normalization"


class TestExploreCommand:
    def test_sweep_is_marked_exploratory(self, capsys):
        assert main(["explore", "--n", "1", "--rho", "2.0", "--theta-samples", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exploratory"] is True
        assert all(cell["agrees"] for cell in payload["sweeps"])
