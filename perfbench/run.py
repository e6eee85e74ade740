"""Benchmark of the gbspline package: one workload per run.

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run sets the workload up several times (reporting
the median as ``setup_s``), then repeats whole rounds of the workload's
fixed operation list until ``--seconds`` have passed and at least
``MIN_OPS`` operations have run.  Outputs of the first round are checked
against independent computations and properties of the method after the
timed loop; every later round must reproduce them exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds that record spans around the package's public
functions, and prints per-operation layer metrics instead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
A record of the run, with the environment, goes to .perfbench_out/runs/.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = {"evaluate": 3, "refine": 3, "cli": 5}
MIN_OPS = 100   # so that at least ten operations lie beyond the 90th percentile

# metric name -> (unit, per-layer summary key); calls and times are per operation
LAYER_METRICS = {
    "knots.value.calls": ("count", "knots.value", "calls"),
    "knots.value.self_ms": ("ms", "knots.value", "self_ms"),
    "knots.build_integral_table.ms": ("ms", "knots.build_integral_table", "ms"),
    "poly.restrict_poly.calls": ("count", "poly.restrict_poly", "calls"),
    "poly.restrict_poly.ms": ("ms", "poly.restrict_poly", "ms"),
    "basis.build_local_basis.calls": ("count", "basis.build_local_basis", "calls"),
    "basis.build_local_basis.ms": ("ms", "basis.build_local_basis", "ms"),
    "basis.nonzero_basis_values.self_ms": ("ms", "basis.nonzero_basis_values", "self_ms"),
    "basis.eval_curve.self_ms": ("ms", "basis.eval_curve", "self_ms"),
    "basis.form_piecewise.ms": ("ms", "basis.form_piecewise", "ms"),
    "basis.reverse_diagonal_averages.ms": ("ms", "basis.reverse_diagonal_averages", "ms"),
    "refine.derive_family.ms": ("ms", "refine.derive_family", "ms"),
    "refine.refine_local.self_ms": ("ms", "refine.refine_local", "self_ms"),
    "refine.represent_knot_funcs.self_ms": ("ms", "refine.represent_knot_funcs", "self_ms"),
    "refine.refine_curve.self_ms": ("ms", "refine.refine_curve", "self_ms"),
    "refine.refined_spline.self_ms": ("ms", "refine.refined_spline", "self_ms"),
    "refine.greville_abscissae.ms": ("ms", "refine.greville_abscissae", "ms"),
    "curvefile.load_curve.ms": ("ms", "curvefile.load_curve", "ms"),
    "curvefile.save_curve.ms": ("ms", "curvefile.save_curve", "ms"),
    "cli.main.self_ms": ("ms", "cli.main", "self_ms"),
}


class Package:
    """The gbspline modules, reached by attribute so tracing can wrap them."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "gbspline", "__init__.py")):
            raise ImportError(f"no gbspline package under {SRC}")
        sys.path.insert(0, SRC)
        for name in ("basis", "cli", "curvefile", "errors", "knots", "poly", "reference", "refine"):
            setattr(self, name, importlib.import_module(f"gbspline.{name}"))
        origin = os.path.realpath(self.basis.__file__)
        if not origin.startswith(os.path.realpath(SRC) + os.sep):
            raise ImportError(f"gbspline imported from {origin}, not from {SRC}")


def environment():
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit_id(),
        "platform": platform.platform(),
    }


def commit_id():
    """Commit of the checkout from .git, or None where there is no repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values, q):
    """Linear-interpolated percentile of a sorted list."""
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def time_rounds(ops, seconds, min_ops, fingerprints, evidence, failures, root_span=None):
    """Repeat whole rounds of `ops`; return the wall time of each operation.

    The first round fills `fingerprints` and `evidence`; later rounds must
    reproduce each fingerprint exactly.  `failures[i]` gets one reason per
    failed attempt of operation i.
    """
    clock = time.perf_counter
    times = []
    start = clock()
    while True:
        for i, op in enumerate(ops):
            call = op.run if root_span is None else (lambda op=op: root_span(op.run))
            t0 = clock()
            try:
                raw = call()
            except Exception as exc:   # an operation that raises counts as failed
                times.append(clock() - t0)
                failures[i].append(f"raised {type(exc).__name__}: {exc}")
                continue
            times.append(clock() - t0)
            fingerprint, proof = op.capture(raw)
            if fingerprints[i] is None:
                fingerprints[i], evidence[i] = fingerprint, proof
            elif fingerprint != fingerprints[i]:
                failures[i].append("output differs from the first round")
        if clock() - start >= seconds and len(times) >= min_ops:
            return times


def run_workload(name, seed, seconds, trace, tiny=False, workdir=None, log=None):
    """Set up, time and check one workload.

    Returns (result line, run record, tracer or None).
    """
    log = log or (lambda msg: None)
    t0 = time.perf_counter()
    gb = Package()
    import tracing
    import workloads
    import_s = time.perf_counter() - t0

    setup_times = []
    for _ in range(1 if tiny else SETUP_REPEATS[name]):
        t0 = time.perf_counter()
        ops = workloads.SETUPS[name](gb, seed, tiny=tiny, workdir=workdir)
        setup_times.append(time.perf_counter() - t0)
    # A fixed shuffle, the same for every seed, spreads each size class over
    # the whole round, so a slow spell of the machine hits every class alike.
    ops = [ops[i] for i in random.Random(0).sample(range(len(ops)), len(ops))]
    setup_s = import_s + statistics.median(setup_times)
    log(f"{name}: {len(ops)} operations per round, setup {setup_s:.3f} s")

    count = len(ops)
    fingerprints, evidence = [None] * count, [None] * count
    failures = [[] for _ in range(count)]
    min_ops = 1 if tiny else MIN_OPS
    tracer = None
    if trace:
        # untraced and traced rounds alternate, so drift of the machine
        # during the run falls on both halves alike
        tracer = tracing.Tracer()
        plain, times = [], []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            plain += time_rounds(ops, 0, 1, fingerprints, evidence, failures)
            with tracer:
                times += time_rounds(ops, 0, 1, fingerprints, evidence, failures,
                                     root_span=tracer.span)
        attempted = len(plain) + len(times)
    else:
        times = time_rounds(ops, seconds, min_ops, fingerprints, evidence, failures)
        attempted = len(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    rounds = attempted // count
    failed = 0
    correct = True
    for i, op in enumerate(ops):
        message = None if evidence[i] is None else _check(gb, op, evidence[i])
        if message is not None:
            # every attempt produced this output or a differing one
            failures[i] = [f"check: {message}"] * rounds
        if any(m.startswith(("check:", "output differs")) for m in failures[i]):
            correct = False
        failed += len(failures[i])
    log(f"{name}: {rounds} rounds, {attempted} operations, "
        f"checks took {time.perf_counter() - check_start:.1f} s")
    for i, f in enumerate(failures):
        for message in dict.fromkeys(f):
            log(f"FAILED {ops[i].label}: {message}")

    if trace:
        per_op = len(times)
        summary = tracer.summary()
        metrics = {key: {"value": summary[layer][stat] / per_op, "unit": unit}
                   for key, (unit, layer, stat) in LAYER_METRICS.items()}
        overhead = (sum(times) / len(times) - sum(plain) / len(plain)) * 1e3
        metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    else:
        ordered = sorted(times)
        metrics = {
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_ms_p50": {"value": percentile(ordered, 0.5) * 1e3, "unit": "ms"},
            "op_ms_p90": {"value": percentile(ordered, 0.9) * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "result": result,
        "ops_per_round": count, "rounds": rounds,
        "setup_runs_s": setup_times, "import_s": import_s,
        "op_median_ms": _per_op_medians(ops, times if not trace else plain),
        "op_times_ms": [t * 1e3 for t in (plain if trace else times)],
        "failures": {ops[i].label: sorted(set(f)) for i, f in enumerate(failures) if f},
    }
    if trace:
        record["layers"] = summary
        record["traced_ops"] = len(times)
    return result, record, tracer


def _per_op_medians(ops, times):
    count = len(ops)
    return {op.label: statistics.median(times[i::count]) * 1e3 for i, op in enumerate(ops)}


def _check(gb, op, evidence):
    import checks
    try:
        op.check(evidence)
    except checks.CheckFailed as exc:
        return str(exc)
    except Exception as exc:   # a check that cannot complete rejects the output
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("evaluate", "refine", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, HERE)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(OUT, "work", tag)
    os.makedirs(workdir, exist_ok=True)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    try:
        result, record, tracer = run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace), workdir=workdir, log=log)
    except ImportError as exc:
        log(f"cannot import the package: {exc}")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = os.path.join(OUT, "runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.save(os.path.join(runs, tag + "-spans.npz"))
    env = record["environment"]
    log(f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"commit {env['commit']}; {record['rounds']} rounds of {record['ops_per_round']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
