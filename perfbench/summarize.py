"""Summarize the result files that run.py wrote under perfbench/out.

    python3 perfbench/summarize.py [--commit SHA] [--out FILE]

For each workload: every end-to-end metric's median, quartiles and spread
(distance between the quartiles over the median) across the untraced runs,
the same for the unscaled times (``raw_end_to_end``), the seeds, every
failed item by seed, name and kind, the checked item names when every run
checked the same ones, and the per-layer metrics of the traced runs (median
across them).  Units, directions, bounds and the workloads' reasons come
from BENCHMARK.json at the checkout root.  Prints the summary as JSON, or
writes it to FILE; ``run.py`` reads the failures, seeds and check names of
``perfbench/baseline.json`` to judge correctness.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def spread_stats(values: list) -> dict:
    med = statistics.median(values)
    stats = {"median": med, "min": min(values), "max": max(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        stats.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return stats


def summarize(paths: list, spec: dict) -> dict:
    metrics = {m["name"]: {k: v for k, v in m.items() if k != "name"}
               for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    why = {w["name"]: w["why"] for w in spec.get("workloads", [])}
    runs: dict[str, list] = {}
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        runs.setdefault(result["workload"], []).append(result)
    summary = {}
    for workload, results in sorted(runs.items()):
        untraced = [r for r in results if not r["trace"]]
        traced = [r for r in results if r["trace"]]
        entry = {"why": why.get(workload),
                 "seeds": sorted(r["seed"] for r in untraced),
                 "traced_seeds": sorted(r["seed"] for r in traced)}
        if untraced:
            for key in ("end_to_end", "raw_end_to_end"):
                entry[key] = {
                    name: {**(metrics.get(name, {}) if key == "end_to_end" else {}),
                           **spread_stats([r[key][name] for r in untraced
                                           if r[key][name] is not None])}
                    for name in untraced[0][key]}
            # a battery pass repeats its checks, so a failure is listed once per seed
            failures = {(r["seed"], v["name"], v["kind"]): None
                        for r in sorted(untraced, key=lambda r: r["seed"])
                        for v in r["verdicts"] if not v["ok"]}
            entry["failures"] = [{"seed": seed, "name": name, "kind": kind}
                                 for seed, name, kind in failures]
            checked = {tuple(sorted({v["name"] for v in r["verdicts"]})) for r in untraced}
            if len(checked) == 1:
                entry["check_ids"] = list(checked.pop())
            entry["machine"] = untraced[0]["machine"]
        if traced:
            entry["per_layer"] = {
                name: {**metrics.get(name, {}),
                       "median": statistics.median(r["per_layer"][name] for r in traced)}
                for name in traced[0]["per_layer"]}
        summary[workload] = entry
    return summary


ABOUT = ("Baseline of the rho-toolkit benchmark at the commit below: untraced runs "
         "(one seed each) and traced runs per workload, at run_seconds.  Spread is "
         "(q3 - q1) / median over the runs; raw_end_to_end holds the same figures "
         "without the calibration scaling.  Failures are listed by seed, name and kind; "
         "a fix shows as a lower fail_frac.")


def baseline(paths: list, spec: dict, commit: str | None) -> dict:
    sys.path.insert(0, HERE)
    from workloads import KNOWN_FAILURES

    return {"about": ABOUT, "commit": commit, "run_seconds": spec.get("run_seconds"),
            "known_failure_kinds": KNOWN_FAILURES, "workloads": summarize(paths, spec)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", help="the commit the runs measured")
    parser.add_argument("--out", help="write the summary here instead of printing it")
    args = parser.parse_args(argv)
    paths = glob.glob(os.path.join(OUT, "result-*.json"))
    if not paths:
        print(f"error: no result files under {OUT}", file=sys.stderr)
        return 2
    spec = {}
    if os.path.isfile(SPEC):
        with open(SPEC, encoding="utf-8") as fh:
            spec = json.load(fh)
    text = json.dumps(baseline(paths, spec, args.commit), indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
