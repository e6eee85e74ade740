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
(no direction where it names none).  Standard library only.
"""
from __future__ import annotations

import argparse
import glob
import json
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
            entry.update(pairs=len(old), parent=spread(old), change=spread(new))
            if entry["better"] is not None:
                sign = 1 if entry["better"] == "higher" else -1
                entry["change_wins"] = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    return out


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
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(paired)} pairs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
