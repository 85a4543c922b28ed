#!/usr/bin/env python3
"""Compares two sets of workload-benchmark runs, or summarizes one set.

    compare.py [--benchmark BENCHMARK.json] BASE CHANGE
    compare.py [--benchmark BENCHMARK.json] RUNS

Each set is a directory of result files written by bench_workloads (or
run.sh --results DIR), or a list of such files separated by commas. Runs
are grouped by workload; traced runs (per-layer metrics) and untraced runs
(end-to-end metrics) are kept apart.

For every workload and metric the tool prints each set's median and
quartiles. With two sets it gives a verdict per end-to-end metric:

  improved      the change wins at least 9 in 10 of the run pairs (ties
                count for neither) and the medians differ by more than the
                base's interquartile distance;
  unresolved    the run-to-run spread (interquartile distance over median,
                the larger of the two sets) exceeds the metric's bound, and
                not every change run beats every base run;
  regressed     the change's median is worse than the base's by more than
                the bound;
  within bound  otherwise.

A gain is not reported as improved when the change failed more operations
than the base. Per-layer metrics have no bound and get no verdict.

With one set it prints the spreads and flags any end-to-end metric other
than setup_s whose spread exceeds its bound.

Every input must carry each metric BENCHMARK.json names for its kind and
report no failed operation. Exit status: 0 clean, 1 a regressed or
unresolved metric (or a spread over its bound), 2 unusable input.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(spec):
    paths = []
    for part in spec.split(","):
        if os.path.isdir(part):
            for root, _, files in os.walk(part):
                paths += [os.path.join(root, f) for f in files if f.endswith(".json")]
        else:
            paths.append(part)
    runs = []
    for path in sorted(paths):
        with open(path) as f:
            doc = json.load(f)
        if "result" not in doc or "context" not in doc:
            continue
        runs.append((path, doc))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def fmt(x):
    return f"{x:.4g}"


def validate(runs, bench, label):
    """Returns a list of problems: missing metrics, failures, wrong answers."""
    problems = []
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for path, doc in runs:
        res, ctx = doc["result"], doc["context"]
        want = layer if ctx.get("trace") == "1" else e2e
        missing = [m for m in want if m not in res["metrics"]]
        problems += [f"{label} {path}: {m} in {res['metrics'][m]['unit']}, "
                     f"not {unit}" for m, unit in want.items()
                     if m in res["metrics"] and res["metrics"][m]["unit"] != unit]
        if ctx.get("workload") not in workloads:
            problems.append(f"{label} {path}: unknown workload {ctx.get('workload')}")
        if missing:
            problems.append(f"{label} {path}: missing {', '.join(missing)}")
        if res["failed"] > 0 or not res["correct"]:
            problems.append(f"{label} {path}: failed {res['failed']} of "
                            f"{res['attempted']}, correct={res['correct']}")
    return problems


def group(runs):
    """{(workload, trace): [result, ...]} in file order."""
    out = {}
    for _, doc in runs:
        key = (doc["context"]["workload"], doc["context"].get("trace", "0"))
        out.setdefault(key, []).append(doc["result"])
    return out


def better(a, b, direction):
    return b < a if direction == "lower" else b > a


def verdict(base, change, spec, base_failed, change_failed):
    direction, bound = spec["better"], spec["bound"]
    q1a, meda, q3a = quartiles(base)
    medb = quartiles(change)[1]
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if better(a, b, direction))
    all_better = all(better(a, b, direction) for a in base for b in change)
    worse = (medb - meda) / meda if direction == "lower" else (meda - medb) / meda
    if (pairs and wins >= 0.9 * len(pairs) and abs(medb - meda) > q3a - q1a
            and change_failed <= base_failed):
        return "improved"
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "within bound"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    ap.add_argument("sets", nargs="+", metavar="SET")
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one or two sets of runs")
    try:
        with open(args.benchmark) as f:
            bench = json.load(f)
        specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
        sets = [load_runs(s) for s in args.sets]
    except (OSError, ValueError, KeyError) as e:
        print("error:", e)
        return 2
    problems = []
    for label, runs in zip(("base", "change"), sets):
        if not runs:
            problems.append(f"{label}: no result files")
        problems += validate(runs, bench, label)
    for p in problems:
        print("error:", p)
    if problems:
        return 2

    groups = [group(runs) for runs in sets]
    bad = 0
    for key in sorted(set().union(*groups)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace == '1' else 'end-to-end'})")
        results = [g.get(key, []) for g in groups]
        failed = [sum(r["failed"] for r in rs) for rs in results]
        print("  " + "  ".join(f"{lbl}: {len(rs)} runs" for lbl, rs in
                               zip(("base", "change"), results)))
        for name in results[0][0]["metrics"] if results[0] else []:
            spec = specs.get(name, {"better": "lower", "unit": "?"})
            cols = []
            values = []
            for rs in results:
                v = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                values.append(v)
                if v:
                    q1, med, q3 = quartiles(v)
                    cols.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
                else:
                    cols.append("-")
            line = f"  {name:34s} {spec.get('unit', ''):6s} " + "  ".join(cols)
            bound = spec.get("bound")
            if trace == "0" and bound is not None and all(values):
                if len(values) == 2:
                    v = verdict(values[0], values[1], spec, *failed)
                    change = quartiles(values[1])[1] / quartiles(values[0])[1] - 1
                    line += f"  {100 * change:+.1f}%  {v}"
                    bad += v in ("regressed", "unresolved")
                else:
                    s = spread(values[0])
                    line += f"  spread {100 * s:.1f}% of bound {100 * bound:.0f}%"
                    if s > bound and name != "setup_s":
                        line += "  OVER"
                        bad += 1
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
