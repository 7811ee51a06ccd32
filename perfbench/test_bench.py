"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

rt = run.load_toolkit()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _flatten(plan):
    return [req for cycle in plan for req in cycle]


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = workloads.RadiusDense(rt, str(tmp_path / "one")).plan(7)
    second = workloads.RadiusDense(rt, str(tmp_path / "two")).plan(7)
    for a, b in zip(_flatten(first), _flatten(second)):
        assert a.name == b.name and a.params == b.params
        with open(a.args[0][2], "rb") as fa, open(b.args[0][2], "rb") as fb:
            assert fa.read() == fb.read()
    other = workloads.RadiusDense(rt, str(tmp_path / "three")).plan(8)
    assert [r.params for r in _flatten(other)] != [r.params for r in _flatten(first)]

    for cls in (workloads.ShiftFamily, workloads.HarnackPart):
        a, b = (_flatten(cls(rt, str(tmp_path)).plan(7)) for _ in range(2))
        assert [(r.name, r.params) for r in a] == [(r.name, r.params) for r in b]
        for ra, rb in zip(a, b):
            assert all(np.array_equal(x, y) for x, y in zip(ra.args, rb.args))


def _traced_counts(workload, requests):
    tracer = Tracer()
    with tracer:
        run.measure(workload, [requests], None, None)
    metrics = run.per_layer(tracer, rt.verify, 0.0)
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".matrices", "_per_solve", "repeat_frac"))}


def test_per_layer_counts_repeat_exactly(tmp_path):
    harnack = workloads.HarnackPart(rt, str(tmp_path))
    requests = _flatten(harnack.plan(3))[:6]
    first = _traced_counts(harnack, requests)
    assert first == _traced_counts(harnack, requests)
    assert first["kernel.torus_nullspace.calls"] > 0
    assert first["shifts.normalized_shift.calls"] > 0

    shifts = workloads.ShiftFamily(rt, str(tmp_path))
    requests = _flatten(shifts.plan(3))[:4]
    first = _traced_counts(shifts, requests)
    assert first == _traced_counts(shifts, requests)
    assert first["determinants.kernel_det.calls"] > 0
    assert first["kernel.lapack.inv.matrices"] == 0


def test_tracer_restores_every_binding():
    before = (rt.radius.is_rho_contraction, rt.verify.CRITERIA, np.linalg.eigvalsh)
    with Tracer():
        assert rt.radius.is_rho_contraction is not before[0]
    assert (rt.radius.is_rho_contraction, rt.verify.CRITERIA, np.linalg.eigvalsh) == before


class _Raising(workloads.Workload):
    name = "raising"

    def __init__(self, error):
        self.error = error

    def execute(self, req):
        raise self.error

    def judge(self, req, answer):  # pragma: no cover - never reached
        raise AssertionError("a raised request must not be judged")


@pytest.mark.parametrize("error, kind", [
    (rt.SingularError("pencil is singular"), "SingularError"),
    (workloads.Refused("GapTooSmallError", "numeric error"), "GapTooSmallError"),
])
def test_a_raising_request_counts_as_failed(error, kind):
    workload = _Raising(error)
    req = workloads.Request("r0", {}, 1e-5)
    records = run.measure(workload, [[req]], None, None)
    (verdict,) = run.judge(workload, records)
    assert not verdict.ok and verdict.kind == kind and not verdict.known
    assert run.accepted([verdict], 1, {}) == (False, ["r0"])


def _dense_request(tmp_path, family, pinned=False):
    dense = workloads.RadiusDense(rt, str(tmp_path))
    plan = _flatten(dense.plan(5))
    return dense, next(r for r in plan if r.params["family"] == family
                       and r.params.get("pinned", False) == pinned)


def test_singular_error_is_known_only_on_the_pinned_request(tmp_path):
    dense, pinned = _dense_request(tmp_path, "b", pinned=True)
    _, other = _dense_request(tmp_path, "b")
    assert dense.expected_refusal(pinned, "SingularError")
    assert not dense.expected_refusal(other, "SingularError")
    assert not dense.expected_refusal(pinned, "GapTooSmallError")


def test_grid_error_is_known_only_at_the_grid_resolution(tmp_path):
    dense, req = _dense_request(tmp_path, "a")
    t = req.args[1]
    ref = workloads.oracles.numerical_radius(t)
    grid = workloads.oracles.sampled_numerical_radius(t, workloads.GRID_ANGLES)
    (exact,) = dense.judge(req, ref)
    assert exact.ok
    # an answer far below the 512-angle value is wrong, whatever the grid does
    (coarse,) = dense.judge(req, grid - 50 * req.tol)
    assert not coarse.ok and coarse.kind == "wrong-answer" and not coarse.known
    (high,) = dense.judge(req, ref + 2 * req.tol)
    assert not high.ok and not high.known
    (at_grid,) = dense.judge(req, grid)
    assert at_grid.ok == (ref - grid <= req.tol)
    if not at_grid.ok:
        assert at_grid.kind == "grid-error" and at_grid.known


def test_a_known_failure_must_be_recorded_for_a_recorded_seed():
    known = workloads.Verdict("a-d03", False, "grid-error", 2e-5, 1e-5, known=True)
    passed = workloads.Verdict("a-d04", True)
    base = {"seeds": [1], "failures": [{"seed": 1, "name": "a-d03", "kind": "grid-error"}],
            "check_ids": ["a-d03", "a-d04"]}
    assert run.accepted([known, passed], 1, base) == (True, [])
    assert run.accepted([known, passed], 2, base) == (True, [])  # seed not recorded
    assert not run.accepted([known, passed], 1, {**base, "failures": []})[0]
    assert run.accepted([known], 1, base) == (False, ["missing:a-d04"])


def test_cli_error_exit_counts_as_failed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "entries": [[1, 0]]}\n')
    dense = workloads.RadiusDense(rt, str(tmp_path))
    req = workloads.Request("bad", {"family": "a"}, 1e-5,
                            args=(["radius", "--matrix", str(bad), "--rho", "2.0", "--json"],
                                  None))
    records = run.measure(dense, [[req]], None, None)
    (verdict,) = run.judge(dense, records)
    assert not verdict.ok and verdict.kind == "RuntimeError"


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(100)))
    assert (value, beyond) == (89, 10) and pct == 90.0
    assert run.tail(list(range(400)))[0] == 359
    assert run.tail(list(range(50)))[1:] == (80.0, 10)
    assert run.tail(list(range(40)))[1:] == (75.0, 10)
    assert run.tail(list(range(12))) == (8, 75.0, 3)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([5.0]) == (5.0, 100.0, 0)
