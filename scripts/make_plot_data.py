#!/usr/bin/env python3
"""Emit CSV plot data for three demo scenarios.

  basis_compare   degree-4 basis functions, polynomial vs trigonometric
                  generators on a uniform knot vector
  elevation       a degree-3 trigonometric Bernstein-like basis raised one
                  degree at a time, with control meshes of the same curve
  insertion       knot insertion at .25 and .75 on a degree-4 curve over
                  [0,0,0,0,0,.5,1,1,1,1,1], before/after samples and
                  control polygons at their abscissae

Writes one CSV per dataset under --outdir (default ./out).
"""
from __future__ import annotations

import argparse
import pathlib

import numpy as np

from gbspline import (
    SplineCurve,
    build_family,
    build_local_basis,
    elevate_degree,
    eval_curve,
    greville_abscissae,
    insert_knots,
    nonzero_basis_values,
    validate_open_knot_vector,
)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    print(f"wrote {path}")


def sample_basis(basis, samples):
    reg = basis.kv.active_region()
    ts = np.linspace(float(reg[0]), float(reg[-1]), samples)
    first, vals = nonzero_basis_values(basis, ts)
    rows = np.column_stack([ts, np.zeros((len(ts), basis.n_basis))])
    np.put_along_axis(rows, 1 + first[:, None] + np.arange(basis.degree + 1), vals, axis=1)
    rows[ts == reg[-1], -1] = 1.0   # the last function owns the closed right end
    header = ["t"] + [f"N{i}" for i in range(basis.n_basis)]
    return header, rows


def basis_compare(outdir, samples):
    knots = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 5, 5, 5, 5]
    kv = validate_open_knot_vector(knots, 4)
    for label, kind in (("polynomial", "linear"), ("trigonometric", "trigonometric")):
        fam = build_family(kv.knots, kind=kind, omega=np.pi / 4)
        basis = build_local_basis(kv, fam)
        header, rows = sample_basis(basis, samples)
        write_csv(outdir / f"basis_compare_{label}.csv", header, rows)


def elevation(outdir, samples):
    kv = validate_open_knot_vector([0, 0, 0, 0, 1, 1, 1, 1], 3)
    fam = build_family(kv.knots, kind="trigonometric", omega=np.pi / 2)
    basis = build_local_basis(kv, fam)
    rng = np.random.default_rng(1)
    curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, kv.n_basis))
    for stage in range(4):
        header, rows = sample_basis(basis, samples)
        write_csv(outdir / f"elevation_basis_deg{basis.degree}.csv", header, rows)
        mesh = zip(greville_abscissae(basis), curve.cpts)
        write_csv(outdir / f"elevation_mesh_deg{basis.degree}.csv", ["x", "y"], mesh)
        if stage < 3:
            curve = elevate_degree(curve, basis, 1)
            basis = build_local_basis(curve.kv, curve.fam)


def insertion(outdir, samples):
    kv = validate_open_knot_vector([0, 0, 0, 0, 0, .5, 1, 1, 1, 1, 1], 4)
    fam = build_family(kv.knots, kind="trigonometric", omega=np.pi / 2)
    basis = build_local_basis(kv, fam)
    rng = np.random.default_rng(2)
    curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, kv.n_basis))
    refined = insert_knots(curve, basis, [0.25, 0.75])
    refined_basis = build_local_basis(refined.kv, refined.fam)
    ts = np.linspace(0, 1, samples)
    write_csv(outdir / "insertion_before.csv", ["t", "f"],
              np.column_stack([ts, eval_curve(curve, basis, ts)]))
    write_csv(outdir / "insertion_after.csv", ["t", "f"],
              np.column_stack([ts, eval_curve(refined, refined_basis, ts)]))
    write_csv(outdir / "insertion_mesh_before.csv", ["x", "y"],
              zip(greville_abscissae(basis), curve.cpts))
    write_csv(outdir / "insertion_mesh_after.csv", ["x", "y"],
              zip(greville_abscissae(refined_basis), refined.cpts))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=pathlib.Path)
    parser.add_argument("--samples", default=401, type=int)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    basis_compare(args.outdir, args.samples)
    elevation(args.outdir, args.samples)
    insertion(args.outdir, args.samples)


if __name__ == "__main__":
    main()
