#!/usr/bin/env python3
"""Round-trip sanity run over every refinement path, printing max curve gaps.

Exercises insertion, single and double degree raises, and the combined
one-projection refinement for the trigonometric and exponential kinds.
"""
from __future__ import annotations

import numpy as np

from gbspline import (
    SplineCurve,
    build_family,
    build_local_basis,
    elevate_degree,
    eval_curve,
    insert_knots,
    refined_spline,
    validate_open_knot_vector,
)


def gap(c0, b0, c1, b1, samples=801):
    reg = c0.kv.active_region()
    ts = np.linspace(float(reg[0]), float(reg[-1]), samples)
    return float(np.max(np.abs(eval_curve(c0, b0, ts) - eval_curve(c1, b1, ts))))


def main():
    rng = np.random.default_rng(0)
    for kind in ("trigonometric", "exponential"):
        kv = validate_open_knot_vector([0, 0, 0, 0, 0, .5, 1, 1, 1, 1, 1], 4)
        fam = build_family(kv.knots, kind=kind, omega=np.pi / 2)
        basis = build_local_basis(kv, fam)
        curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, kv.n_basis))
        plans = {
            "insert {.25, .75}": insert_knots(curve, basis, [0.25, 0.75]),
            "raise degree by 1": elevate_degree(curve, basis, 1),
            "raise degree by 2": elevate_degree(curve, basis, 2),
            "combined": refined_spline(curve, basis, insert=(0.25, 0.75),
                                       elevate_by=1),
        }
        print(f"-- {kind}")
        for name, refined in plans.items():
            refined_basis = build_local_basis(refined.kv, refined.fam)
            print(f"   {name:<20} {len(curve.cpts)} -> {len(refined.cpts):>2} "
                  f"control points, max gap {gap(curve, basis, refined, refined_basis):.3e}")


if __name__ == "__main__":
    main()
