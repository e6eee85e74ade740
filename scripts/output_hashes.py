#!/usr/bin/env python3
"""Print a digest of every benchmark operation's output, one line per operation.

    python3 scripts/output_hashes.py --workload refine --seed 1 [--tiny]

Sets up one workload of ``perfbench/workloads.py`` (imported, never changed)
over the package in ``src/``, runs each operation once in the list's own
order and prints its label, a tab, then the SHA-256 of the output the
benchmark compares across rounds, or the error class and message of an
operation that raises.  Two checkouts that print the same lines give the
same outputs byte for byte; two runs of one checkout that differ show an
output depending on the process.  numpy and the standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("basis", "cli", "curvefile", "errors", "knots", "poly", "reference", "refine")


def package():
    """The gbspline modules under src/, as attributes, the way the workloads reach them."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import importlib
    return types.SimpleNamespace(**{name: importlib.import_module(f"gbspline.{name}")
                                    for name in MODULES})


def digest(fingerprint):
    """SHA-256 of an operation's fingerprint: its bytes, or the repr of anything else."""
    data = fingerprint if isinstance(fingerprint, bytes) else repr(fingerprint).encode()
    return hashlib.sha256(data).hexdigest()


def lines(workload, seed, tiny=False):
    """(label, digest or 'ErrorClass: message') for each operation of one workload."""
    gb = package()
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    with tempfile.TemporaryDirectory() as workdir:
        for op in workloads.SETUPS[workload](gb, seed, tiny=tiny, workdir=workdir):
            try:
                raw = op.run()
            except Exception as exc:   # an operation's error is its output
                yield op.label, f"{type(exc).__name__}: {exc}"
                continue
            yield op.label, digest(op.capture(raw)[0])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("evaluate", "refine", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="the self-test's small grids")
    args = parser.parse_args(argv)
    for label, out in lines(args.workload, args.seed, args.tiny):
        print(f"{label}\t{out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
