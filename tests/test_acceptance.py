"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated elsewhere.
"""
import time

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval
import pytest

from gbspline import (
    PiecewiseCurve,
    QuadratureConfig,
    ReferenceEvaluator,
    SplineCurve,
    build_family,
    build_local_basis,
    elevate_degree,
    eval_basis_function,
    eval_curve,
    greville_abscissae,
    insert_knots,
    nonzero_basis_values,
    refined_spline,
    validate_open_knot_vector,
)
from gbspline.errors import InconsistentCoefficient
from gbspline.refine import refine_curve
from conftest import ALL_KINDS, cox_de_boor, make_basis

FIG_KNOTS = [0, 0, 0, 0, 0, .5, 1, 1, 1, 1, 1]


def report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def curve_gap(c0, b0, c1, b1, samples=1001):
    reg = c0.kv.active_region()
    ts = np.linspace(float(reg[0]), float(reg[-1]), samples)
    return max(abs(eval_curve(c0, b0, float(t)) - eval_curve(c1, b1, float(t)))
               for t in ts)


def test_criterion_1_insertion_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    kv = validate_open_knot_vector(FIG_KNOTS, 4)
    fam = build_family(kv.knots, kind="trigonometric", omega=np.pi / 2)
    basis = build_local_basis(kv, fam)
    curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, 6))
    out = insert_knots(curve, basis, [0.25, 0.75])
    basis1 = build_local_basis(out.kv, out.fam)
    gap = curve_gap(curve, basis, out, basis1)
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-8 and len(out.cpts) == 8 and elapsed < 1.0
    report(1, "knot insertion", ok,
           f"gap {gap:.2e}, {len(out.cpts)} cpts, {elapsed:.2f}s")


def test_criterion_2_successive_elevation():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    kv = validate_open_knot_vector([0, 0, 0, 0, 1, 1, 1, 1], 3)
    fam = build_family(kv.knots, kind="trigonometric", omega=np.pi / 2)
    basis = build_local_basis(kv, fam)
    original = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, 4))
    worst_gap, worst_pu = 0.0, 0.0
    current, current_basis = original, basis
    for _ in range(3):   # degrees 4, 5, 6
        current = elevate_degree(current, current_basis, 1)
        current_basis = build_local_basis(current.kv, current.fam)
        worst_gap = max(worst_gap, curve_gap(original, basis, current, current_basis))
        for t in np.linspace(0, 1, 200):
            _, vals = nonzero_basis_values(current_basis, float(t))
            worst_pu = max(worst_pu, abs(float(vals.sum()) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-8 and worst_pu <= 1e-9 and elapsed < 5.0
    report(2, "degree elevation", ok,
           f"gap {worst_gap:.2e}, unity {worst_pu:.2e}, {elapsed:.2f}s")


def test_criterion_3_classical_reduction():
    kvs = {
        2: ([0, 0, 0, 1 / 3, 2 / 3, 1, 1, 1],
            [0, 0, 0, .5, .5, 1, 1, 1],
            [0, 0, 0, .2, .7, .85, 1, 1, 1]),
        3: ([0, 0, 0, 0, .25, .5, .75, 1, 1, 1, 1],
            [0, 0, 0, 0, .5, .5, 1, 1, 1, 1],
            [0, 0, 0, 0, .1, .6, .65, 1, 1, 1, 1]),
        4: ([0, 0, 0, 0, 0, .5, 1, 1, 1, 1, 1],
            [0, 0, 0, 0, 0, .4, .4, 1, 1, 1, 1, 1],
            [0, 0, 0, 0, 0, .15, .8, 1, 1, 1, 1, 1]),
    }
    worst = 0.0
    for degree, vectors in kvs.items():
        for knots in vectors:
            kv = validate_open_knot_vector(knots, degree)
            fam = build_family(kv.knots, kind="linear")
            basis = build_local_basis(kv, fam)
            reg = kv.active_region()
            for j in range(len(reg) - 1):
                if reg[j + 1] - reg[j] <= 0:
                    continue
                for t in np.linspace(reg[j], reg[j + 1], 101):
                    for i in range(kv.n_basis):
                        worst = max(worst, abs(
                            eval_basis_function(basis, i, float(t))
                            - cox_de_boor(list(kv.knots), i, degree, float(t))))
    ok = worst <= 1e-10
    report(3, "classical B-spline reduction", ok, f"max error {worst:.2e}")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for kind in ("trigonometric", "exponential"):
        for degree in (2, 3, 4):
            kv, fam, basis = make_basis(degree, interior=(0.5,), kind=kind,
                                        omega=np.pi / 2)
            oracle = ReferenceEvaluator(kv.knots, fam, QuadratureConfig(abs_tol=1e-9))
            for t in rng.uniform(0.01, 0.99, 20):
                for i in range(kv.n_basis):
                    worst = max(worst, abs(
                        oracle.basis_value(i, degree, float(t))
                        - eval_basis_function(basis, i, float(t))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report(4, "recursive-quadrature oracle", ok,
           f"max error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_greville():
    kv, fam, basis = make_basis(2, interior=(0.5,), kind="linear")
    got = greville_abscissae(basis)
    linear_err = float(np.max(np.abs(got - np.array([0, .25, .75, 1]))))
    worst_residual = 0.0
    for kind in ALL_KINDS:
        degree = 2 if kind == "linear" else 4
        kvk, famk, basisk = make_basis(degree, interior=(0.5,), kind=kind,
                                       omega=np.pi / 2)
        g = greville_abscissae(basisk)
        curve = SplineCurve(kv=kvk, fam=famk, cpts=g)
        for t in np.linspace(0, 1, 501):
            worst_residual = max(worst_residual,
                                 abs(eval_curve(curve, basisk, float(t)) - t))
    ok = linear_err <= 1e-10 and worst_residual <= 1e-8
    report(5, "control-point abscissae", ok,
           f"knot-average error {linear_err:.2e}, residual {worst_residual:.2e}")


def test_criterion_6_simultaneous_vs_sequential():
    rng = np.random.default_rng(33)
    kv = validate_open_knot_vector(FIG_KNOTS, 4)
    fam = build_family(kv.knots, kind="trigonometric", omega=np.pi / 2)
    basis = build_local_basis(kv, fam)
    curve = SplineCurve(kv=kv, fam=fam, cpts=rng.uniform(-1, 1, 6))
    combined = refined_spline(curve, basis, insert=(0.25, 0.75), elevate_by=1)
    sequential = elevate_degree(insert_knots(curve, basis, [0.25, 0.75]), None, 1)
    gap = curve_gap(combined, build_local_basis(combined.kv, combined.fam),
                    sequential, build_local_basis(sequential.kv, sequential.fam))
    source_gap = curve_gap(curve, basis, combined,
                           build_local_basis(combined.kv, combined.fam))
    ok = gap <= 1e-8 and source_gap <= 1e-8
    report(6, "simultaneous refinement", ok,
           f"vs sequential {gap:.2e}, vs source {source_gap:.2e}")


def test_criterion_7_continuity_violation_flagged():
    kv, fam, basis = make_basis(3, interior=(0.5,))
    breaks = kv.active_region()
    piece = PiecewiseCurve(
        breaks=breaks,
        coefs=np.array([[0.0, 1.0, 0.0, 0.0], [0.5, -1.0, 0.0, 0.0]]),  # slope kink at .5
        degree=3, fam=fam)
    with pytest.raises(InconsistentCoefficient):
        refine_curve(piece, basis)
    report(7, "continuity-violation detection", True, "InconsistentCoefficient raised")


def test_criterion_8_smoothness():
    def one_sided(basis, i, j, order, at_right):
        slot = basis.fam.slots[j]
        p = basis.degree
        if i <= j <= i + p:
            coeffs = np.array(basis.local.coefs[j - p, :-2, i - j + p])
            a, b = basis.local.coefs[j - p, -2:, i - j + p]
        else:
            coeffs, a, b = np.zeros(1), 0.0, 0.0
        for _ in range(order):
            coeffs = polyder(coeffs)
        left, right = basis.fam.spans[slot]
        t = right if at_right else left
        u, v = basis.fam.value(slot, basis.degree - 1 - order, t)
        return float(polyval(t - basis.kv.knots[j], coeffs) + a * u + b * v)

    worst = 0.0
    for kind in ALL_KINDS:
        for degree in (2, 3, 4, 5):
            kv, fam, basis = make_basis(degree, interior=(0.35, 0.7), kind=kind,
                                        omega=1.1)
            for x in (0.35, 0.7):
                j = int(np.searchsorted(kv.knots, x, side="right")) - 1
                for i in range(basis.n_basis):
                    for order in range(1, degree):
                        lo = one_sided(basis, i, j - 1, order, True)
                        hi = one_sided(basis, i, j, order, False)
                        worst = max(worst, abs(lo - hi) / max(1.0, abs(lo), abs(hi)))
    ok = worst <= 1e-4
    report(8, "smoothness at simple knots", ok, f"max relative jump {worst:.2e}")
