"""rho-toolkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload radius-dense --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the toolkit is imported from its
``src`` directory.  Workloads: radius-dense, shift-family, harnack-part and
battery (see ``workloads.py``).  BLAS is pinned to one thread before numpy
loads.  Requests run as a closed loop with one caller: the next request
starts when the previous answer is back.  Request times are scaled to a
reference host speed by a calibration kernel (see ``Calibration``); raw
times are printed and kept as well.  A run holds whole cycles of the
workload's plan and ends at the cycle boundary nearest ``--seconds`` of
scaled request time (at least one cycle; a battery cycle is one pass), so
a run's mix of requests does not follow the host's speed.  Throughput is
taken per cycle and the median over the run's cycles is reported, so a
stall of the host in one cycle does not move it.  Every answer
is then checked against a reference outside the timed region.  Set-up is
timed cold, in fresh interpreters, from process start to the end of warm-up,
and scaled like a request.

A run is correct when every failed item is one the seed commit shows on
that very item (``workloads.Verdict.known``) and, for a seed recorded in
``baseline.json``, is listed there by name; for the battery, every check the
baseline ran must also be present.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each request
of a fixed prefix of the plan traced and then untraced, and prints the
per-layer metrics and the tracing overhead.  Per-request verdicts and metric lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Full results, and the spans
of a traced run, are written under ``perfbench/out``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

# before numpy loads: one caller, and BLAS on one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "baseline.json")
SETUP_REPEATS = 7
# Calibration time that defines the reference speed; see Calibration.
CALIBRATION_REF_S = 0.0025
CALIBRATION_REPEATS = 3
# Interval of the calibration samples taken during a long request.
SAMPLE_S = 0.5
# cycles of the plan that a traced run covers, per workload
TRACE_CYCLES = {"radius-dense": 1, "shift-family": 1, "harnack-part": 2, "battery": 4}

SPAN_METRICS = (
    "cli.main",
    "kernel.is_rho_contraction",
    "kernel.torus_nullspace",
    "radius.radius_bisect",
    "radius.shift_radius",
    "radius.determinant_radius",
    "determinants.kernel_det",
    "harnack.nullspace_equality",
    "harnack.domination_constant",
    "structure.null_profile",
    "structure.rotation_family_check",
    "shifts.normalized_shift",
    "linalg.nullspace",
)
LAPACK_METRICS = (
    ("kernel", "inv", "matrices"),
    ("kernel", "eigvalsh", "matrices"),
    ("radius", "eigvalsh", "calls"),
    ("harnack", "eigh", "matrices"),
)
# the criteria the battery workload runs (workloads.Battery.criteria)
CRITERIA = ("c00", "c02", "c03", "c04", "c08", "c10", "c12")


def per_layer_units() -> dict:
    """Name -> (unit, better) of every per-layer metric, in print order."""
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    units["kernel.has_torus_spectrum.calls"] = ("count", "lower")
    for layer, fn, kind in LAPACK_METRICS:
        units[f"{layer}.lapack.{fn}.{kind}"] = ("count", "lower")
    units["radius.member_calls_per_solve"] = ("count", "lower")
    units["shifts.normalized_shift.repeat_frac"] = ("ratio", "higher")
    for cid in CRITERIA:
        units[f"verify.{cid}.s"] = ("s", "lower")
    units["verify.pool_busy_frac"] = ("ratio", "higher")
    units["trace.overhead_frac"] = ("ratio", "lower")
    return units


END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class Calibration:
    """A fixed kernel owned by the benchmark, timed between requests.

    The host's speed drifts by a fifth and more, over seconds to minutes
    (compare ``raw_end_to_end`` with ``end_to_end`` in baseline.json).  Each
    request is scaled by CALIBRATION_REF_S over the mean of the kernel times
    taken just before it, just after it and, from a second thread, every
    SAMPLE_S while it runs: the result is its time on this host at the
    reference speed.  The samples during a request follow the host through
    radius-dense's largest solves of a few seconds; shorter requests end
    before the first one.  The kernel never calls the toolkit.  It does the
    work of the toolkit's kernel sweep on a fixed stack of small complex
    matrices: a batched inverse, the Hermitian part and a batched
    ``eigvalsh``; over the workloads' requests its time tracked the host
    more closely than kernels of large LAPACK calls, of many single small
    ones or of interpreted loops.  Its time is the least of CALIBRATION_REPEATS back-to-back runs in
    the calling thread's CPU time: the first run refills caches a request
    evicted, and thread CPU time leaves out time that other threads take,
    so neither a request's memory traffic nor threads it runs change the
    scale.  Set-up runs in child processes while this one waits; each
    cold set-up is scaled by the kernel times taken just before and just
    after it, as the host's speed moves set-up as much as requests.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.a = rng.standard_normal((256, 8, 8)) + 1j * rng.standard_normal((256, 8, 8))

    def seconds(self) -> float:
        best = math.inf
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.thread_time()
            res = self.np.linalg.inv(self.a)
            self.np.linalg.eigvalsh(res + self.np.conj(self.np.swapaxes(res, -1, -2)))
            best = min(best, time.thread_time() - t0)
        return best

    @contextmanager
    def sampling(self, samples: list):
        """Append a kernel time to samples every SAMPLE_S while the block runs."""
        stop = threading.Event()

        def loop():
            while not stop.wait(SAMPLE_S):
                samples.append(self.seconds())

        thread = threading.Thread(target=loop, name="calibration", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()


@dataclass
class Record:
    request: object
    answer: object
    error: Exception | None
    seconds: float
    cycle: int = 0  # index of the plan cycle the request belongs to
    speed: float = 1.0  # reference-speed seconds per host second, see Calibration

    @property
    def scaled(self) -> float:
        return self.seconds * self.speed


def load_toolkit():
    """Import rho_toolkit from the checkout's src directory, or exit 2."""
    package = os.path.join(SRC, "rho_toolkit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no toolkit sources under {SRC}; run from the root of a "
              "rho-toolkit checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import rho_toolkit
    import rho_toolkit.cli  # noqa: F401  (the CLI module is not imported by the package)

    if os.path.realpath(os.path.dirname(rho_toolkit.__file__)) != os.path.realpath(package):
        print(f"error: rho_toolkit was imported from {rho_toolkit.__file__}, "
              f"not from {package}", file=sys.stderr)
        sys.exit(2)
    return rho_toolkit


def cold_setup_seconds(workload: str, seed: int) -> float:
    """One cold set-up: a fresh interpreter, with this process's environment,
    runs ``--setup-only`` and prints the monotonic clock at the end of its
    warm-up.  The time is from just before it starts to that moment, so it
    holds interpreter start, imports, input generation and warm-up, and no
    reference computation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--setup-only"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1]) - t0


def load_baseline(workload: str) -> dict:
    """The seed commit's record of one workload from baseline.json, or {}."""
    if not os.path.isfile(BASELINE):
        return {}
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh).get("workloads", {}).get(workload, {})


def accepted(verdicts: list, seed: int, baseline: dict) -> tuple[bool, list]:
    """Whether the run is correct, and the names of the failures that make
    it wrong: a failure must be known for its item, and listed in the
    baseline by seed and name when the baseline ran this seed; every check
    id the baseline recorded must have been checked."""
    recorded = {(f["seed"], f["name"]) for f in baseline.get("failures", [])}
    seeds = set(baseline.get("seeds", []))
    wrong = [v.name for v in verdicts
             if not v.ok and not (v.known and (seed not in seeds or (seed, v.name) in recorded))]
    seen = {v.name for v in verdicts}
    wrong += [f"missing:{name}" for name in baseline.get("check_ids", []) if name not in seen]
    return not wrong, wrong


def machine() -> dict:
    import numpy as np

    info = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads_env": {v: os.environ[v] for v in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        info["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu_model"] = platform.processor()
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        caches[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    info["caches"] = caches
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def measure(workload, plan, seconds: float | None, calibration: Calibration | None) -> list:
    """Closed loop over the plan, or over all of it when seconds is None;
    with a calibration, each request's time is scaled by it.

    A run holds whole cycles and stops at the cycle boundary nearest
    ``seconds`` of scaled time, so runs on a slower or a faster host do
    the same mix of requests.
    """
    records = []
    elapsed = 0.0
    before = calibration.seconds() if calibration else None
    for index, cycle in enumerate(plan):
        cycle_s = 0.0
        for req in cycle:
            samples = []
            with calibration.sampling(samples) if calibration else nullcontext():
                t0 = time.perf_counter()
                try:
                    answer, error = workload.execute(req), None
                except Exception as exc:  # a refusal is a failed request, kept with its class
                    answer, error = None, exc
                t1 = time.perf_counter()
            record = Record(req, answer, error, t1 - t0, index)
            if calibration:
                after = calibration.seconds()
                record.speed = CALIBRATION_REF_S / statistics.mean([before, after, *samples])
                before = after
            records.append(record)
            cycle_s += record.scaled
        elapsed += cycle_s
        if seconds is not None and elapsed + 0.5 * cycle_s >= seconds:
            break
    return records


def measure_traced(workload, plan, tracer) -> tuple[list, float]:
    """Run every request of the plan traced, then again untraced, so the
    two timings of a pair see the same host speed.  Returns the traced
    records and the untraced seconds."""
    records, untraced_s = [], 0.0
    for cycle in plan:
        for req in cycle:
            with tracer:
                records += measure(workload, [[req]], None, None)
            untraced_s += measure(workload, [[req]], None, None)[0].seconds
    return records, untraced_s


def judge_record(workload, rec: Record) -> list:
    """The verdicts of one request: its checked items, or one failed item
    when it raised."""
    from workloads import Refused, Verdict

    if rec.error is None:
        return workload.judge(rec.request, rec.answer)
    kind = rec.error.kind if isinstance(rec.error, Refused) else type(rec.error).__name__
    return [Verdict(rec.request.name, False, kind, None, rec.request.tol,
                    str(rec.error).splitlines()[0][:200] if str(rec.error) else "",
                    workload.expected_refusal(rec.request, kind))]


def judge(workload, records: list) -> list:
    return [v for rec in records for v in judge_record(workload, rec)]


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail latency.

    p90 once at least ten samples lie beyond it (100 samples or more);
    below that the highest percentile with ten samples beyond it, which
    rises smoothly to p90 as samples are added, but never below p75: under
    40 samples that percentile would fall towards the median, and p75 is
    reported instead (a battery run holds a dozen or two passes).
    """
    xs = sorted(samples)
    n = len(xs)
    i = min(max(n - 11, math.ceil(0.75 * n) - 1), math.ceil(0.9 * n) - 1)
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def request_metrics(records: list, items: list, latencies: list) -> dict:
    """Throughput of the closed loop and the latency median and tail.

    ``items[i]`` is the number of checked items of ``records[i]`` and
    ``latencies[i]`` its time.  Throughput is the checked items of a cycle
    over its time, median over the run's cycles.
    """
    cycles = {}
    for rec, n, s in zip(records, items, latencies):
        done, spent = cycles.get(rec.cycle, (0, 0.0))
        cycles[rec.cycle] = (done + n, spent + s)
    return {"ops_per_s": statistics.median(n / s for n, s in cycles.values()),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail(latencies)[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tracer, verify_module, overhead: float) -> dict:
    totals = tracer.totals()
    empty = (0, 0.0, 0.0)
    m = {}
    for name in SPAN_METRICS:
        calls, _, self_s = totals.get(name, empty)
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    m["kernel.has_torus_spectrum.calls"] = totals.get("kernel.has_torus_spectrum", empty)[0]
    for layer, fn, kind in LAPACK_METRICS:
        m[f"{layer}.lapack.{fn}.{kind}"] = tracer.lapack[(layer, fn, kind)]
    solves = totals.get("radius.radius_bisect", empty)[0]
    members = tracer.children_of("radius.radius_bisect", "kernel.is_rho_contraction")
    m["radius.member_calls_per_solve"] = members / solves if solves else 0.0
    keys = tracer.keys
    m["shifts.normalized_shift.repeat_frac"] = (
        (len(keys) - len(set(keys))) / len(keys) if keys else 0.0)
    busy = 0.0
    for cid in CRITERIA:
        m[f"verify.{cid}.s"] = totals.get(f"verify.{cid}", empty)[1]
        busy += m[f"verify.{cid}.s"]
    wall = totals.get("verify.run_battery", empty)[1]
    m["verify.pool_busy_frac"] = busy / (verify_module.default_jobs() * wall) if wall else 0.0
    m["trace.overhead_frac"] = overhead
    return m


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="generate inputs and warm up, print the monotonic clock, exit")
    args = parser.parse_args(argv)

    rt = load_toolkit()
    sys.path.insert(0, HERE)
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](rt, os.path.join(OUT, f"inputs-s{args.seed}"))
    if args.setup_only:
        workload.plan(args.seed)
        workload.warm_up()
        print(repr(time.monotonic()))
        return 0

    # Set-up is timed cold, in SETUP_REPEATS fresh interpreters, each scaled
    # like a request, and the median is reported.  A traced run reports no
    # end-to-end metric and skips it.
    calibration = None if args.trace else Calibration()
    setup_times, setup_scaled = [], []
    for _ in range(0 if args.trace else SETUP_REPEATS):
        before = calibration.seconds()
        setup_times.append(cold_setup_seconds(args.workload, args.seed))
        speed = CALIBRATION_REF_S / statistics.mean([before, calibration.seconds()])
        setup_scaled.append(setup_times[-1] * speed)
    setup_s = statistics.median(setup_scaled) if setup_scaled else None
    plan = workload.plan(args.seed)
    workload.warm_up()

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    extra = {}
    if args.trace:
        tracer = Tracer()
        records, untraced_s = measure_traced(workload, plan[:TRACE_CYCLES[args.workload]],
                                             tracer)
        rss = peak_rss_mb()
        traced_s = sum(r.seconds for r in records)
        layers = per_layer(tracer, rt.verify, traced_s / untraced_s - 1.0)
        spans_path = os.path.join(OUT, f"trace-{tag}.json.gz")
        tracer.write(spans_path)
        extra = {"traced_s": traced_s, "untraced_s": untraced_s, "spans": len(tracer.spans),
                 "spans_file": os.path.relpath(spans_path, ROOT)}
    else:
        records = measure(workload, plan, args.seconds, calibration)
        rss = peak_rss_mb()

    judged = [judge_record(workload, rec) for rec in records]
    items = [len(vs) for vs in judged]
    verdicts = [v for vs in judged for v in vs]
    known = workloads.KNOWN_FAILURES.get(args.workload, {})
    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if not v.ok)
    correct, wrong = accepted(verdicts, args.seed, load_baseline(args.workload))
    latencies = [r.scaled for r in records]
    _, tail_pct, beyond = tail(latencies)
    ratios = [v.err_over_tol for v in verdicts if v.err_over_tol is not None]
    end_to_end = {"setup_s": setup_s, **request_metrics(records, items, latencies),
                  "peak_rss_mb": rss}
    raw = {"setup_s": statistics.median(setup_times) if setup_times else None,
           **request_metrics(records, items, [r.seconds for r in records]),
           "peak_rss_mb": rss}
    reported = {
        **end_to_end,
        "fail_frac": failed / attempted,
        "err_over_tol_max": max(ratios) if ratios else None,
    }
    by_kind = {}
    for v in verdicts:
        if not v.ok:
            by_kind[v.kind] = by_kind.get(v.kind, 0) + 1

    for v in verdicts:
        status = "PASS" if v.ok else f"FAIL[{v.kind}{'' if v.known else ', unknown'}]"
        err = "" if v.err is None else f" err={v.err:.3e}"
        tol = "" if v.tol is None else f" tol={v.tol:.1e}"
        print(f"check {v.name} {status}{err}{tol} {v.detail}")
    for rec in records:
        print(f"request {rec.request.name} latency_ms={1e3 * rec.scaled:.3f} "
              f"raw_ms={1e3 * rec.seconds:.3f}")
    if args.trace:
        layer_units = per_layer_units()
        for name, value in layers.items():
            print(f"metric {name} = {_fmt(value)} {layer_units[name][0]}")
    else:
        units = {**END_TO_END, "fail_frac": "ratio", "err_over_tol_max": "ratio"}
        for name, value in reported.items():
            print(f"metric {name} = {_fmt(value)} {units[name]}")
        print(f"metric latency_tail_ms is p{tail_pct:.1f} of {len(latencies)} requests "
              f"with {beyond} beyond it")
        print("scaling: times are at the reference speed (see Calibration); raw: "
              + ", ".join(f"{name} = {_fmt(value)}" for name, value in raw.items()))
    print(f"failures by kind: {json.dumps(by_kind, sort_keys=True)}")
    if wrong:
        print(f"incorrect: {len(wrong)} failures the seed commit does not show: "
              + ", ".join(wrong[:20]))
    info = machine()
    print(f"machine: {json.dumps(info, sort_keys=True)}")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "end_to_end": reported,
              "raw_end_to_end": raw, "speed": [r.speed for r in records],
              "latency_tail": {"percentile": tail_pct, "samples": len(latencies),
                               "beyond": beyond},
              "setup_repeats_s": setup_times, "setup_scaled_s": setup_scaled,
              "failures_by_kind": by_kind, "known_failures": known, "wrong": wrong, **extra,
              "verdicts": [{"name": v.name, "ok": v.ok, "kind": v.kind, "known": v.known,
                            "err": v.err, "tol": v.tol, "detail": v.detail}
                           for v in verdicts],
              "latencies_s": [r.seconds for r in records]}
    if args.trace:
        result["per_layer"] = layers
        metrics = {k: {"value": v, "unit": layer_units[k][0]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
