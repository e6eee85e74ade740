#!/usr/bin/env python3
"""Collect perfbench run records of two checkouts into one BENCH_<label>.json.

    python3 scripts/collect_bench.py --parent ../parent/.perfbench_out/runs \
        --change .perfbench_out/runs --out BENCH_<label>.json

Each directory holds the ``*.json`` records that ``perfbench/run.py`` writes
for one side of a before/after comparison.  Runs of the two sides are paired
by workload, trace mode and seed; every run is kept with its seed, side and
metrics, and each side's distinct run environments (Python, numpy, CPU
count, commit) are listed once.  Per workload, trace mode and metric the output gives each side's
median, quartiles and IQR over the paired runs, and in how many pairs the
change read better, using the direction ``BENCHMARK.json`` gives the metric
(no direction where it names none).  It also gives the median of the per-pair
change/parent ratios with a distribution-free 95% interval (order statistics;
the 2nd and 9th of ten pairs), and calls the metric a gain or a loss only
when that interval excludes 1.  Standard library only.

``resummarize`` recomputes the summary of a written file from its ``runs``:

    python3 -c 'import sys; sys.path[:0] = ["scripts"]; import collect_bench as c; [c.resummarize(
        p, c.directions("BENCHMARK.json")) for p in sys.argv[1:]]' BENCH_*.json
"""
from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def load_runs(directory, side):
    """({(workload, trace, seed): run}, [distinct environments]) for the
    records in `directory`."""
    runs, environments = {}, []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        result = record["result"]
        key = (record["workload"], int(bool(record["trace"])), record["seed"])
        if key in runs:
            raise SystemExit(f"{path}: a second {side} run of workload {key[0]}, "
                             f"trace {key[1]}, seed {key[2]}")
        env = dict(record.get("environment", {}))
        if env not in environments:
            environments.append(env)
        runs[key] = {
            "workload": key[0], "trace": key[1], "seed": key[2], "side": side,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        }
    return runs, environments


def directions(path):
    """{metric: "higher" | "lower"} from a BENCHMARK.json, or {} without one."""
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["better"]
            for group in ("end_to_end", "per_layer") for m in bench.get(group, [])}


def spread(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def paired_ratio(old, new, better):
    """Median change/parent ratio over the pairs, its interval and verdict.

    The interval runs from the k-th smallest to the k-th largest ratio, k
    the largest order whose sign-test coverage 1 - 2 P(Bin(n, 1/2) < k) is
    at least 95% (no interval below six pairs).  None when a parent value is
    0, where a ratio means nothing.
    """
    if 0 in old:
        return None
    ratios, n, k = sorted(b / a for a, b in zip(old, new)), len(old), 0
    while 1 - 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n >= 0.95:
        k += 1
    out = {"median": statistics.median(ratios), "ci95": None, "verdict": None}
    if k:
        lo, hi = out["ci95"] = [ratios[k - 1], ratios[n - k]]
        if better is not None and (lo > 1 or hi < 1):
            out["verdict"] = "gain" if (lo > 1) == (better == "higher") else "loss"
    return out


def summarize(pairs, better):
    """{workload: {"trace<t>": {metric: summary}}} over paired runs."""
    out = {}
    for (workload, trace, _), (old, new) in sorted(pairs.items()):
        group = out.setdefault(workload, {}).setdefault(f"trace{trace}", {})
        for name in old["metrics"].keys() & new["metrics"].keys():
            entry = group.setdefault(name, {"better": better.get(name), "values": ([], [])})
            entry["values"][0].append(old["metrics"][name])
            entry["values"][1].append(new["metrics"][name])
    for group in (g for w in out.values() for g in w.values()):
        for name, entry in sorted(group.items()):
            old, new = entry.pop("values")
            entry.update(pairs=len(old), parent=spread(old), change=spread(new),
                         ratio=paired_ratio(old, new, entry["better"]))
            if entry["better"] is not None:
                sign = 1 if entry["better"] == "higher" else -1
                entry["change_wins"] = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    return out


def write(path, bench):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


def resummarize(path, better):
    """Rewrite the summary of the BENCH file at `path` from its runs."""
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = {(r["workload"], r["trace"], r["seed"], r["side"]): r for r in bench["runs"]}
    bench["summary"] = summarize({key[:3]: (run, runs[key[:3] + ("change",)])
                                  for key, run in runs.items() if key[3] == "parent"}, better)
    write(path, bench)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="run records of the parent commit")
    parser.add_argument("--change", required=True, help="run records of the change")
    parser.add_argument("--out", required=True, help="BENCH_<label>.json to write")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="BENCHMARK.json giving each metric's direction")
    args = parser.parse_args(argv)
    loaded = {side: load_runs(path, side) for side, path in zip(SIDES, (args.parent, args.change))}
    runs = {side: loaded[side][0] for side in SIDES}
    paired = sorted(runs["parent"].keys() & runs["change"].keys())
    if not paired:
        raise SystemExit("no workload, trace mode and seed was run on both sides")
    pairs = {key: (runs["parent"][key], runs["change"][key]) for key in paired}
    unpaired = sorted((runs["parent"].keys() | runs["change"].keys()) - set(paired))
    bench = {
        "environments": {side: loaded[side][1] for side in SIDES},
        "runs": [run for key in paired for run in pairs[key]],
        "unpaired": [list(key) for key in unpaired],
        "summary": summarize(pairs, directions(args.benchmark)),
    }
    write(args.out, bench)
    print(f"{len(paired)} pairs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
