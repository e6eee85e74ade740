"""The three workloads: their seeded inputs, operations and output checks.

Sizes, kinds, degrees and the order of operations are fixed; the seed draws
only control points, inserted knots and evaluation parameters.  Every run
therefore repeats the same mix of operations, whatever the seed.  Inserted
knots fall in the middle half of an existing interval, so no draw creates a
near-zero interval.

Each ``Op`` has three parts: ``run`` (timed), ``capture`` (untimed; turns
the raw output into a value compared across rounds plus the evidence to
check) and ``check`` (untimed; raises ``CheckFailed``).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from checks import require

KINDS = ("linear", "trigonometric", "exponential")
OMEGA = math.pi / 2


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    capture: Callable[[Any], tuple]   # raw output -> (fingerprint, evidence)
    check: Callable[[Any], None]      # evidence -> None, or raises CheckFailed


def uniform_knots(p, n):
    return [0.0] * p + np.linspace(0.0, 1.0, n + 1).tolist() + [1.0] * p


def make_curve(gb, kind, p, n, cpts_rng, dim=None):
    kv = gb.knots.validate_open_knot_vector(uniform_knots(p, n), p)
    fam = gb.knots.build_family(kv.knots, kind=kind, omega=OMEGA)
    shape = kv.n_basis if dim is None else (kv.n_basis, dim)
    return kv, fam, cpts_rng.uniform(-1.0, 1.0, shape)


def draw_inserts(rng, n, count):
    """`count` new knots, each in the middle half of a distinct interval."""
    cells = rng.choice(n, size=count, replace=False)
    return sorted(float((j + rng.uniform(0.25, 0.75)) / n) for j in cells)


def array_capture(values):
    return values.tobytes(), values


# evaluate ---------------------------------------------------------------------

# (degree, interval counts).  The larger count is the largest at which
# trigonometric and exponential values still agree with the quadrature
# reference today; it shrinks as the degree grows (see README.md).
EVAL_GRID = ((3, (16, 256)), (4, (16, 64)), (5, (16, 32)),
             (6, (8, 16)), (7, (4, 8)), (8, (4, 8)))
TINY_EVAL_GRID = ((3, (4,)), (4, (4,)))
EVAL_DRAWS = 96


def setup_evaluate(gb, seed, tiny=False, workdir=None):
    grid, draws = (TINY_EVAL_GRID, 4) if tiny else (EVAL_GRID, EVAL_DRAWS)
    ops = []
    for kind in KINDS:
        for p, sizes in grid:
            for n in sizes:
                rng = np.random.default_rng([seed, len(ops)])
                kv, fam, cpts = make_curve(gb, kind, p, n, rng)
                basis = gb.basis.build_local_basis(kv, fam)
                curve = gb.basis.SplineCurve(kv=kv, fam=fam, cpts=cpts)
                drawn = rng.uniform(0.0, 1.0, draws).tolist()
                ts = drawn + kv.active_region().tolist()
                ops.append(Op(
                    label=f"eval_curve {kind} p={p} n={n} x{len(ts)}",
                    run=_eval_run(gb.basis, curve, basis, ts),
                    capture=array_capture,
                    check=_eval_check(gb, curve, basis, ts, drawn[:3])))
    return ops


def _eval_run(gb_basis, curve, basis, ts):
    def run():
        return np.array([gb_basis.eval_curve(curve, basis, t) for t in ts])
    return run


def _eval_check(gb, curve, basis, ts, ref_ts):
    kv, fam, cpts = curve.kv, curve.fam, np.asarray(curve.cpts)

    def check(values):
        what = f"{fam.kinds[0]} p={kv.degree} n={len(kv.active_region()) - 1}"
        scale = checks.scale_of(cpts)
        require(values.shape == (len(ts),), f"{what}: {values.shape} values for {len(ts)} parameters")
        checks.check_ends((values[ts.index(0.0)], values[ts.index(1.0)]), cpts, what)
        piece = gb.basis.form_piecewise(cpts, basis)
        other = np.array([piece.value(t) for t in ts])
        err = float(np.max(np.abs(other - values)))
        require(err <= checks.PU_TOL * scale, f"{what}: piecewise form differs by {err:.3e}")
        if fam.kinds[0] == "linear":
            err = float(np.max(np.abs(checks.classical_curve(kv.knots, kv.degree, cpts, ts) - values)))
            require(err <= checks.LINEAR_TOL * scale, f"{what}: Cox-de Boor differs by {err:.3e}")
        elif kv.degree <= 4:
            idx = [ts.index(t) for t in ref_ts]
            checks.check_reference(gb, kv, fam, cpts, ref_ts, values[idx], what)
        checks.check_partition_of_unity(gb, basis, ts, what)
        checks.check_identity(gb, basis, ts, what)
    return check


# refine -----------------------------------------------------------------------

# (kind, degree, intervals, knots inserted, degree raise).  Kept to the range
# that preserves the curve today; see README.md for the cases left out.  The
# classes are sized so that the median falls inside the medium class and the
# 90th percentile inside the heavy one, away from a jump in cost.
REFINE_OPS = (
    # light: 4 and 16 intervals
    ("linear", 5, 16, 3, 0),
    ("trigonometric", 3, 4, 1, 0),
    ("exponential", 3, 4, 1, 0),
    ("trigonometric", 4, 16, 3, 0),
    ("exponential", 4, 16, 3, 0),
    ("exponential", 5, 4, 2, 0),
    ("trigonometric", 2, 4, 0, 1),
    ("trigonometric", 2, 16, 0, 2),
    ("exponential", 2, 16, 0, 2),
    ("trigonometric", 3, 16, 0, 1),
    ("exponential", 4, 4, 0, 1),
    ("trigonometric", 2, 16, 1, 1),
    ("exponential", 3, 4, 2, 1),
    # medium: 32 to 64 intervals
    ("linear", 3, 64, 1, 0),
    ("linear", 4, 48, 2, 0),
    ("linear", 5, 32, 2, 0),
    ("trigonometric", 3, 64, 1, 0),
    ("trigonometric", 3, 64, 2, 0),
    ("exponential", 3, 64, 1, 0),
    ("exponential", 3, 64, 3, 0),
    ("trigonometric", 2, 64, 0, 1),
    ("exponential", 2, 64, 0, 1),
    ("trigonometric", 2, 48, 0, 2),
    ("exponential", 2, 48, 0, 2),
    ("exponential", 2, 64, 1, 1),
    # heavy: 100 to 200 intervals
    ("trigonometric", 3, 100, 1, 0),
    ("trigonometric", 2, 100, 0, 1),
    ("linear", 3, 200, 1, 0),
    ("linear", 5, 128, 1, 0),
    ("trigonometric", 2, 200, 1, 0),
    ("exponential", 3, 200, 2, 0),
    ("trigonometric", 2, 160, 0, 2),
    ("exponential", 2, 200, 0, 1),
    ("exponential", 2, 128, 1, 1),
    # top: 500 and 1000 intervals
    ("exponential", 3, 500, 1, 0),
    ("exponential", 2, 1000, 0, 1),
)
TINY_REFINE_OPS = (
    ("linear", 3, 4, 2, 0),
    ("trigonometric", 3, 4, 1, 0),
    ("exponential", 2, 4, 0, 1),
    ("trigonometric", 2, 4, 1, 1),
)


def setup_refine(gb, seed, tiny=False, workdir=None):
    ops = []
    for kind, p, n, count, by in (TINY_REFINE_OPS if tiny else REFINE_OPS):
        rng = np.random.default_rng([seed, len(ops)])
        kv, fam, cpts = make_curve(gb, kind, p, n, rng)
        basis = gb.basis.build_local_basis(kv, fam)
        curve = gb.basis.SplineCurve(kv=kv, fam=fam, cpts=cpts)
        inserts = draw_inserts(rng, n, count)
        ref_ts = checks.reference_points(rng)
        if by == 0:
            name = f"insert_knots x{count}"
        elif count == 0:
            name = f"elevate_degree by={by}"
        else:
            name = f"refined_spline x{count} by={by}"
        ops.append(Op(
            label=f"{name} {kind} p={p} n={n}",
            run=_refine_run(gb.refine, curve, basis, inserts, by),
            capture=lambda out: (out.kv.knots.tobytes() + out.cpts.tobytes(), out),
            check=_refine_check(gb, curve, basis, inserts, by, ref_ts)))
    return ops


def _refine_run(gb_refine, curve, basis, inserts, by):
    if by == 0:
        return lambda: gb_refine.insert_knots(curve, basis, inserts)
    if not inserts:
        return lambda: gb_refine.elevate_degree(curve, basis, by)
    return lambda: gb_refine.refined_spline(curve, basis, insert=tuple(inserts), elevate_by=by)


def _refine_check(gb, curve, basis, inserts, by, ref_ts):
    def check(out):
        what = f"{curve.fam.kinds[0]} p={curve.kv.degree} n={len(curve.kv.active_region()) - 1}"
        basis1 = checks.check_refined(gb, curve, basis, (out.kv, out.fam, out.cpts),
                                      inserts, by, what, reference_points=ref_ts)
        checks.check_identity(gb, basis1, checks.preserve_samples(out.kv), what)
    return check


# cli --------------------------------------------------------------------------

# (file, kind, degree, intervals, dimension)
CLI_FILES = (
    ("trig2d", "trigonometric", 3, 16, 2),
    ("exp3d", "exponential", 3, 48, 3),
    ("lin2d", "linear", 3, 32, 2),
    ("trig3d", "trigonometric", 2, 48, 3),
)
TINY_CLI_FILES = (
    ("trig2d", "trigonometric", 3, 4, 2),
    ("lin3d", "linear", 3, 4, 3),
)
EVAL_SAMPLES = 200


def _commands(kind, p, n, rng):
    """(command, knots inserted, degree raise) for each command on one file."""
    one, two = draw_inserts(rng, n, 1), draw_inserts(rng, n, 2)
    cmds = [("insert", one, 0), ("insert", two, 0)]
    if kind != "linear":
        cmds.append(("elevate", [], 1))
        if p == 2:
            cmds.append(("elevate", [], 2))
    cmds += [("eval", [], 0), ("check", [], 0)]
    # degree-2 local spaces hold y = x only for the linear kind
    if p >= 3 or kind == "linear":
        cmds.append(("greville", [], 0))
    return cmds


def write_curve_file(path, kv, fam, cpts):
    doc = {
        "degree": int(kv.degree),
        "knots": [float(x) for x in kv.knots],
        "families": [{"kind": k, "omega": float(w)} for k, w in zip(fam.kinds, fam.omegas)],
        "control_points": np.asarray(cpts).tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def setup_cli(gb, seed, tiny=False, workdir=None):
    ops = []
    for index, (stem, kind, p, n, dim) in enumerate(TINY_CLI_FILES if tiny else CLI_FILES):
        rng = np.random.default_rng([seed, index])
        kv, fam, cpts = make_curve(gb, kind, p, n, rng, dim=dim)
        src = os.path.join(workdir, f"{stem}.json")
        write_curve_file(src, kv, fam, cpts)
        curve = (kv, fam, cpts)
        ref_ts = checks.reference_points(rng)
        for cmd, inserts, by in _commands(kind, p, n, rng):
            out = os.path.join(workdir, f"{stem}-{len(ops)}-{cmd}.{'csv' if cmd == 'eval' else 'json'}")
            argv = [cmd, "--curve", src]
            if cmd == "insert":
                for x in inserts:
                    argv += ["--at", repr(x)]
            if cmd == "elevate":
                argv += ["--by", str(by)]
            if cmd == "eval":
                argv += ["--samples", str(EVAL_SAMPLES)]
            if cmd in ("insert", "elevate", "eval"):
                argv += ["--out", out]
            else:
                out = None
            ops.append(Op(
                label=f"{cmd} {kind} p={p} n={n} d={dim}" + (f" x{len(inserts)}" if inserts else "")
                      + (f" by={by}" if by else ""),
                run=_cli_run(gb.cli, argv),
                capture=_cli_capture(out),
                check=_cli_check(gb, cmd, curve, inserts, by, ref_ts)))
    return ops


def _cli_run(gb_cli, argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = gb_cli.main(argv)
        return code, buf.getvalue()
    return run


def _cli_capture(out_path):
    def capture(raw):
        code, stdout = raw
        text = None
        if out_path is not None and os.path.exists(out_path):
            with open(out_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        evidence = (code, stdout, text)
        return evidence, evidence
    return capture


def parse_csv(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def _cli_check(gb, cmd, curve, inserts, by, ref_ts):
    kv, fam, cpts = curve
    p = kv.degree
    n = len(kv.active_region()) - 1
    dim = cpts.shape[1]
    what = f"{cmd} {fam.kinds[0]} p={p} n={n} d={dim}"
    scale = checks.scale_of(cpts)
    basis_cache = []

    def source_basis():
        if not basis_cache:
            basis_cache.append(gb.basis.build_local_basis(kv, fam))
        return basis_cache[0]

    def check(evidence):
        code, stdout, text = evidence
        require(code == 0, f"{what}: exit code {code}")
        if cmd in ("insert", "elevate"):
            doc = json.loads(text)
            require(set(doc) == {"degree", "knots", "families", "control_points"},
                    f"{what}: unexpected fields {sorted(doc)}")
            kv1 = gb.knots.validate_open_knot_vector(doc["knots"], doc["degree"])
            kinds = tuple(f["kind"] for f in doc["families"])
            omegas = [f["omega"] for f in doc["families"]]
            require(set(kinds) == set(fam.kinds) and set(omegas) == set(fam.omegas.tolist()),
                    f"{what}: generator families changed")
            fam1 = gb.knots.build_family(kv1.knots, kinds=kinds, omegas=omegas)
            cpts1 = np.array(doc["control_points"], dtype=float)
            require(cpts1.ndim == 2 and cpts1.shape[1] == dim,
                    f"{what}: control points shaped {cpts1.shape}")
            for k in range(dim):
                src = gb.basis.SplineCurve(kv=kv, fam=fam, cpts=cpts[:, k])
                checks.check_refined(gb, src, source_basis(), (kv1, fam1, cpts1[:, k]),
                                     inserts, by, f"{what} f{k}", reference_points=ref_ts)
        elif cmd == "eval":
            header, data = parse_csv(text)
            require(header == ["t"] + [f"f{k}" for k in range(dim)], f"{what}: header {header}")
            ts = np.linspace(0.0, 1.0, EVAL_SAMPLES + 1)
            require(data.shape == (EVAL_SAMPLES + 1, dim + 1) and bool(np.all(data[:, 0] == ts)),
                    f"{what}: sample parameters differ from the requested grid")
            values = data[:, 1:]
            checks.check_ends((values[0], values[-1]), cpts, what)
            basis = source_basis()
            for k in range(dim):
                piece = gb.basis.form_piecewise(cpts[:, k], basis)
                err = float(np.max(np.abs([piece.value(float(t)) for t in ts] - values[:, k])))
                require(err <= checks.PU_TOL * scale, f"{what} f{k}: piecewise form differs by {err:.3e}")
            if fam.kinds[0] == "linear":
                err = float(np.max(np.abs(checks.classical_curve(kv.knots, p, cpts, ts) - values)))
                require(err <= checks.LINEAR_TOL * scale, f"{what}: Cox-de Boor differs by {err:.3e}")
            elif p <= 4:
                rows = np.linspace(1, EVAL_SAMPLES - 1, 3).astype(int)
                checks.check_reference(gb, kv, fam, cpts, ts[rows], values[rows], what)
        elif cmd == "greville":
            g = np.array([float(line) for line in stdout.split()])
            checks.check_abscissae(gb, source_basis(), g, checks.preserve_samples(kv), what)
        elif cmd == "check":
            lines = stdout.strip().splitlines()
            require(len(lines) == 3 and lines[2] == "OK", f"{what}: check printed {lines}")
            pu = float(lines[0].rsplit(" ", 1)[1])
            jump = float(lines[1].rsplit(" ", 1)[1])
            require(pu <= checks.PU_TOL and jump <= checks.PRESERVE_TOL * (1.0 + float(np.max(np.abs(cpts)))),
                    f"{what}: reported deviations {pu:.3e}, {jump:.3e} over the bounds")
            checks.check_partition_of_unity(gb, source_basis(), checks.preserve_samples(kv), what)
    return check


SETUPS = {"evaluate": setup_evaluate, "refine": setup_refine, "cli": setup_cli}
