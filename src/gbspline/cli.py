"""Command-line front end: sampling, refinement, and diagnostics on curve files.

Exit codes: 0 success (and passing checks), 1 domain error (reported by
class name on stderr) or failed checks, 2 I/O or parse errors.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .basis import (
    SplineCurve,
    build_local_basis,
    eval_curve,
    form_piecewise,
    nonzero_basis_values,
)
from .curvefile import load_curve, save_curve
from .errors import CurveFileError, GBSplineError
from .poly import DEFAULT_TOL
from .refine import (COEF_TOL_FACTOR, check_tolerance, elevate_degree, greville_abscissae,
                     insert_knots)


def _tolerances(args):
    """(tol, coef_tol), each finite and positive: nan, inf or a value <= 0
    would switch the package's checks off."""
    tol, name = args.tol, "--tol"
    if tol is None:
        tol, name = float(os.environ.get("GBS_TOL") or DEFAULT_TOL), "GBS_TOL"
    coef_tol, coef_name = args.coef_tol, "--coef-tol"
    if coef_tol is None:
        coef_tol, coef_name = tol * COEF_TOL_FACTOR, f"{name} * {COEF_TOL_FACTOR:g}"
    check_tolerance(name, tol)
    check_tolerance(coef_name, coef_tol)
    return tol, coef_tol


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows.tolist()]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sample_points(kv, samples):
    reg = kv.active_region()
    return np.linspace(reg[0], reg[-1], max(samples, 0) + 1)


def _cmd_eval(args, tol, coef_tol):
    curve = SplineCurve(*load_curve(args.curve, tol))
    basis = build_local_basis(curve.kv, curve.fam, tol)
    ts = _sample_points(curve.kv, args.samples)
    rows = np.column_stack([ts, eval_curve(curve, basis, ts, tol)])
    _write_csv(args.out, ["t"] + [f"f{k}" for k in range(curve.cpts.shape[1])], rows)
    return 0


def _cmd_basis(args, tol, coef_tol):
    kv, fam, _ = load_curve(args.curve, tol)
    basis = build_local_basis(kv, fam, tol)
    ts = _sample_points(kv, args.samples)
    first, vals = nonzero_basis_values(basis, ts, tol)
    rows = np.column_stack([ts, np.zeros((len(ts), kv.n_basis))])
    np.put_along_axis(rows, 1 + first[:, None] + np.arange(kv.degree + 1), vals, axis=1)
    # as in eval_basis_function, the last function owns the closed right end
    rows[ts == kv.knots[-1], -1] = 1.0
    _write_csv(args.out, ["t"] + [f"N{i}" for i in range(kv.n_basis)], rows)
    return 0


def _cmd_insert(args, tol, coef_tol):
    curve = SplineCurve(*load_curve(args.curve, tol))
    out = insert_knots(curve, None, args.at, tol, coef_tol)
    save_curve(args.out, out.kv, out.fam, out.cpts)
    return 0


def _cmd_elevate(args, tol, coef_tol):
    curve = SplineCurve(*load_curve(args.curve, tol))
    out = elevate_degree(curve, None, args.by, tol, coef_tol)
    save_curve(args.out, out.kv, out.fam, out.cpts)
    return 0


def _cmd_greville(args, tol, coef_tol):
    kv, fam, _ = load_curve(args.curve, tol)
    basis = build_local_basis(kv, fam, tol)
    for g in greville_abscissae(basis, tol, coef_tol):
        print(repr(float(g)))
    return 0


def _cmd_check(args, tol, coef_tol):
    kv, fam, cpts = load_curve(args.curve, tol)
    basis = build_local_basis(kv, fam, tol)
    _, vals = nonzero_basis_values(basis, _sample_points(kv, 500), tol)
    worst_pu = float(np.max(np.abs(vals.sum(axis=1) - 1.0)))
    # interior breakpoints between two intervals longer than tol
    br = kv.active_region()
    x = br[1:-1][(br[1:-1] - br[:-2] > tol) & (br[2:] - br[1:-1] > tol)]
    piece = form_piecewise(cpts, basis)
    jump = piece.value(x, tol) - piece.value(np.nextafter(x, -np.inf), tol)
    worst_jump = float(np.max(np.abs(jump), initial=0.0))
    scale = 1.0 + float(np.max(np.abs(cpts)))
    applies = kv.degree > 1 or set(fam.kinds) == {"linear"}
    ok = (worst_pu <= 1e-9 or not applies) and worst_jump <= 1e-8 * scale
    print("partition of unity: " + (f"max deviation {worst_pu:.3e}" if applies
                                    else "not applicable (degree 1 with non-linear generators)"))
    print(f"breakpoint continuity: max jump {worst_jump:.3e}")
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="zero-length interval tolerance "
                             "(default 1e-10, or $GBS_TOL)")
    common.add_argument("--coef-tol", type=float, default=None,
                        help="coefficient agreement tolerance (default tol * 1e4)")

    parser = argparse.ArgumentParser(
        prog="gbspline",
        description="Generalized B-spline curves: evaluation and refinement.")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("eval", parents=[common], help="sample a curve to CSV")
    s.add_argument("--curve", required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_eval)

    s = sub.add_parser("insert", parents=[common], help="insert knots")
    s.add_argument("--curve", required=True)
    s.add_argument("--at", type=float, action="append", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_insert)

    s = sub.add_parser("elevate", parents=[common], help="raise the degree")
    s.add_argument("--curve", required=True)
    s.add_argument("--by", type=int, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_elevate)

    s = sub.add_parser("greville", parents=[common],
                       help="print control-point abscissae, one per line")
    s.add_argument("--curve", required=True)
    s.set_defaults(func=_cmd_greville)

    s = sub.add_parser("basis", parents=[common],
                       help="sample every basis function to CSV")
    s.add_argument("--curve", required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_basis)

    s = sub.add_parser("check", parents=[common],
                       help="partition-of-unity and continuity diagnostics")
    s.add_argument("--curve", required=True)
    s.set_defaults(func=_cmd_check)
    return parser


_parser = functools.cache(build_parser)   # parse_args leaves the parser unchanged


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args, *_tolerances(args))
    except CurveFileError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except GBSplineError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
