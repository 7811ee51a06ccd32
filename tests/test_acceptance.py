"""Acceptance gate: every quantitative criterion at its stated tolerance.

The battery runs once per session at the full stated ranges; each test covers
one criterion, prints its pass/fail line, and asserts every check in that
family.
"""

import pytest

from rho_toolkit.verify import run_battery


@pytest.fixture(scope="session")
def battery():
    return run_battery(n_max=None, seed=0)


def _assert_criterion(battery, prefix, title):
    checks = [c for c in battery.checks if c.id.startswith(prefix)]
    assert checks, f"no checks ran for {prefix}"
    failed = [c for c in checks if not c.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"criterion {prefix} ({title}): {status} "
          f"[{len(checks) - len(failed)}/{len(checks)} checks]")
    if failed:
        detail = "\n".join(
            f"  {c.id}: expected {c.expected!r}, computed {c.computed!r}, "
            f"tol {c.tolerance!r}  {c.note}" for c in failed)
        pytest.fail(f"criterion {prefix} ({title}) failed:\n{detail}")


def test_criterion_01_closed_form_rho2(battery):
    _assert_criterion(battery, "c01", "closed form at rho = 2")


def test_criterion_02_critical_point(battery):
    _assert_criterion(battery, "c02", "critical point")


def test_criterion_03_discriminant_sign(battery):
    _assert_criterion(battery, "c03", "discriminant sign regime")


def test_criterion_04_determinant_oracle(battery):
    _assert_criterion(battery, "c04", "determinant oracle equivalence")


def test_criterion_05_null_vector_structure(battery):
    _assert_criterion(battery, "c05", "null-vector structure")


def test_criterion_06_rotation_family(battery):
    _assert_criterion(battery, "c06", "rotation family")


def test_criterion_07_trig_system(battery):
    _assert_criterion(battery, "c07", "trig system")


def test_criterion_08_case2_monotone_decrease(battery):
    # read on the normalized recurrence D_k/(a(rho-1))^k; the raw D_k rise
    # before falling and both raw roots exceed 1 (see the strict xfails in
    # test_determinants.py)
    _assert_criterion(battery, "c08", "case-2 monotone decrease")


def test_criterion_09_harnack_part_c2(battery):
    _assert_criterion(battery, "c09", "Harnack part at rho = 2")


def test_criterion_09_compares_each_case_once(monkeypatch):
    # n = 2, 4 at five angles and n = 1, 3 at two: 14 (n, theta) cases, each
    # compared once by the rotation route and once by the sampled route
    from collections import Counter

    from rho_toolkit import harnack, structure, verify

    compare, seen = harnack.nullspace_equality, []

    def counting(t1, t0, *args, **kwargs):
        result = compare(t1, t0, *args, **kwargs)
        seen.append((t1.shape[0] - 1, result.route))
        return result

    for module in (harnack, structure, verify):  # every binding the battery can reach
        monkeypatch.setattr(module, "nullspace_equality", counting)
    assert verify.run_battery(criteria={"c09"}).ok
    assert len(seen) == 28
    assert Counter(seen) == {(n, route): 5 if n % 2 == 0 else 2
                             for n in range(1, 5) for route in ("rotation", "sampled")}


def test_criterion_10_membership_necessaries(battery):
    _assert_criterion(battery, "c10", "membership necessaries")


def test_criterion_11_nilpotent_bound(battery):
    _assert_criterion(battery, "c11", "nilpotent bound")


def test_criterion_12_irreducibility(battery):
    _assert_criterion(battery, "c12", "irreducibility")


def test_kernel_sign_convention_note(battery):
    _assert_criterion(battery, "c00", "kernel sign convention")


def test_report_invariants(battery):
    import json

    ids = [c.id for c in battery.checks]
    assert len(ids) == len(set(ids)), "check ids must be unique"
    assert all(c.paper_location for c in battery.checks)
    json.dumps(battery.to_json_dict())  # everything must serialize
