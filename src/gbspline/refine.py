"""Refinement by projection between local representations.

A curve over a source knot vector is rewritten in the local coordinates of
a target knot vector (same active region, enlarged spline space), then one
small linear system per positive-length target interval recovers the
coefficients of the nonzero target basis functions; anti-diagonal averaging
aggregates the per-interval results.  Knot insertion, degree elevation, and
any simultaneous combination all ride on the same pipeline.

Per-interval work is independent, so every stage runs on arrays over all
target intervals at once: one Taylor shift re-expands the polynomial parts,
one batched elimination solves all local systems, and one scatter averages
the anti-diagonals.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right

import numpy as np

from .basis import (
    LocalBasis,
    PiecewiseCurve,
    SplineCurve,
    build_local_basis,
    form_piecewise,
    reverse_diagonal_averages,
)
from .errors import (
    DegreeTooSmall,
    FamilyNotClosedUnderDerivative,
    InconsistentCoefficient,
    KnotOutsideActiveRegion,
    MultiplicityOverflow,
    SingularLocalSystem,
    TaylorMismatch,
)
from .knots import (
    KnotFunctionFamily,
    KnotVector,
    build_family,
    build_integral_table,
    containing_spans,
)
from .poly import (
    DEFAULT_TOL,
    elevate_polys,
    left_taylor_series,
    right_taylor_series,
    taylor_shift,
)

COEF_TOL_FACTOR = 1e4   # coefficient-agreement tolerance = tol * this
PIVOT_RATIO_WARN = 1e12


def check_tolerance(name, value):
    """Raise ValueError naming `name` unless `value` is finite and positive:
    nan, inf or a value <= 0 would switch the package's checks off."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _tolerances(tol, coef_tol):
    """(tol, coef_tol), both checked; coef_tol defaults to tol * COEF_TOL_FACTOR."""
    check_tolerance("tol", tol)
    coef_tol = tol * COEF_TOL_FACTOR if coef_tol is None else coef_tol
    check_tolerance("coef_tol", coef_tol)
    return tol, coef_tol


def _solve(matrices, rhs, name):
    """Gaussian elimination with partial pivoting over a stack of tiny systems.

    `matrices` is (systems, n, n) and `rhs` (systems, n) or (systems, n, d):
    d right-hand sides share one elimination.  `name(i)` describes system i.
    A pivot at or below 1e-13 times the system's largest entry (at least 1)
    raises SingularLocalSystem; pivot ratios above PIVOT_RATIO_WARN give one
    warning for the whole stack, at its worst system.
    """
    rhs = np.asarray(rhs, dtype=float)
    count, n = rhs.shape[:2]
    a = np.concatenate([np.asarray(matrices, dtype=float), rhs.reshape(count, n, -1)], axis=2)
    floor = 1e-13 * np.maximum(1.0, np.abs(a[:, :, :n]).max(axis=(1, 2), initial=0.0))
    every = np.arange(count)
    for col in range(n):
        r = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
        low = np.flatnonzero(np.abs(a[every, r, col]) <= floor)
        if len(low):
            i = low[0]
            raise SingularLocalSystem(
                f"system is singular at column {col} on {name(i)}: "
                f"|pivot| {abs(a[i, r[i], col]):.3e} <= floor {floor[i]:.3e}")
        a[every, col], a[every, r] = a[every, r], a[every, col]
        pivot = a[:, col : col + 1, col : col + 1]
        a[:, col + 1 :] -= a[:, col + 1 :, col : col + 1] / pivot * a[:, col : col + 1]
    pivots = np.abs(np.diagonal(a, axis1=1, axis2=2))
    ratio = pivots.max(axis=1) / pivots.min(axis=1)
    if count and ratio.max() > PIVOT_RATIO_WARN:
        i = int(np.argmax(ratio))
        warnings.warn(f"poorly conditioned local system on {name(i)} "
                      f"(pivot ratio {ratio[i]:.2e}, the worst of {count})",
                      RuntimeWarning, stacklevel=2)
    x = a[:, :, n:]
    for row in range(n - 1, -1, -1):
        dot = np.einsum("ik,ikm->im", a[:, row, row + 1 : n], x[:, row + 1 :])
        x[:, row] = (x[:, row] - dot) / a[:, row, row, None]
    return x.reshape(rhs.shape)


def refine_local(curve: PiecewiseCurve, dst_breaks, tol=DEFAULT_TOL) -> PiecewiseCurve:
    """Reindex a piecewise curve onto finer breakpoints.

    Polynomial terms are re-expanded over each contained positive-length
    target interval (one Taylor shift, by each target's offset in its
    source); generator coefficient rows are copied unchanged from the source
    interval containing each target.  Zero-length targets get zero rows.  A
    trailing component axis carries through.
    """
    src = np.asarray(curve.breaks, dtype=float)
    dst = np.asarray(dst_breaks, dtype=float)
    rows = np.flatnonzero(np.diff(src) > tol)
    spans = np.stack([src[rows], src[rows + 1]], axis=1)
    idx = containing_spans(spans, dst, tol)
    live = np.flatnonzero(idx >= 0)
    row = rows[idx[live]]
    parts = curve.poly_parts[row]
    tau = (dst[live] - spans[idx[live], 0]).reshape((-1,) + (1,) * (parts.ndim - 2))
    poly = np.zeros((len(idx),) + curve.poly_parts.shape[1:])
    poly[live] = np.moveaxis(taylor_shift(np.moveaxis(parts, 1, 0), tau), 0, 1)
    gen = np.zeros((len(idx),) + curve.gen_coefs.shape[1:])
    gen[live] = curve.gen_coefs[row]
    slots = np.full(len(idx), -1)
    slots[live] = curve.slots[row]
    return PiecewiseCurve(breaks=dst, poly_parts=poly, gen_coefs=gen,
                          degree=curve.degree, fam=curve.fam, slots=slots)


def represent_knot_funcs(gen_coefs, tables_src, ladder_table, lens, coef_tol=1e-6):
    """Rewrite generator terms of a piecewise curve in the target ladders.

    `tables_src` holds ladder values of the (derivative-shifted) source
    generators on every target interval and `ladder_table` the right-end
    values of the target generators' positive orders, shaped (orders - 1,
    intervals, 2) as `LocalBasis.ladder_table`.  The target pair rises from
    0 to 1 (u) and falls from 1 to 0 (v) on each interval, so the top
    derivative of a generator term takes its right-end value as u's
    coefficient and its left-end value as v's.  The remaining derivative
    differences are absorbed into polynomial corrections, reconstructed as
    the average of the Taylor expansions at both endpoints; at the left end
    the target's positive orders vanish.  A disagreement between the two
    expansions means the source generators lie outside the target span; it
    is measured component by component when `gen_coefs` carries a trailing
    component axis.  Zero-length intervals, whose table rows are zeros, get
    zeros.

    Returns (new coefficient rows, polynomial corrections to add).
    """
    orders, num = tables_src.shape[:2]
    gen_coefs = np.asarray(gen_coefs, dtype=float)
    tail = gen_coefs.shape[2:]
    ivals = np.einsum("kjew,jw...->kje...", tables_src, gen_coefs)
    ngen = ivals[0, :, ::-1]
    if orders < 2:
        return ngen, np.zeros((num, 0) + tail)
    left = left_taylor_series(ivals[:0:-1, :, 0])
    right = right_taylor_series(
        ivals[:0:-1, :, 1] - np.einsum("kjw,jw...->kj...", ladder_table[::-1], ngen),
        lens.reshape((-1,) + (1,) * len(tail)))
    scale = np.maximum(1.0, np.maximum(np.abs(left).max(axis=0), np.abs(right).max(axis=0)))
    bad = np.abs(left - right) > coef_tol * scale
    stray = np.flatnonzero(bad.any(axis=(0,) + tuple(range(2, bad.ndim))))
    if len(stray):
        i = stray[0]
        raise TaylorMismatch(
            f"endpoint reconstructions disagree on interval {i}: "
            f"{left[:, i].tolist()} vs {right[:, i].tolist()}")
    return ngen, np.moveaxis(0.5 * (left + right), 0, 1)


def refine_curve(curve: PiecewiseCurve, basis: LocalBasis, tables_src,
                 tol=DEFAULT_TOL, coef_tol=None) -> np.ndarray:
    """Control points of a piecewise curve relative to the target basis.

    Runs the projection pipeline: reindex onto the target breakpoints, pad
    polynomial terms to the target width, rewrite generator terms, then per
    positive-length interval solve for the coefficients of the nonzero basis
    functions and aggregate by anti-diagonal averaging.  A curve with a
    trailing axis of d components gives control points shaped (n, d), each
    interval solved once with d right-hand sides.  `tables_src` holds the
    source generators' ladder values on the target intervals; the target's
    come from `basis.ladder_table`.
    """
    tol, coef_tol = _tolerances(tol, coef_tol)
    kv = basis.kv
    q = kv.degree
    breaks = kv.active_region()
    lens = np.diff(breaks)
    expected = (q, len(lens), 2, 2)
    if tables_src.shape != expected:
        raise ValueError(f"integral tables must be shaped {expected}")

    local = refine_local(curve, breaks, tol)
    poly = elevate_polys(local.poly_parts, max(q - 2, 0))
    ngen, offsets = represent_knot_funcs(local.gen_coefs, tables_src, basis.ladder_table,
                                         lens, coef_tol)
    poly = poly + offsets

    lbases = np.concatenate([basis.local.poly_parts, basis.local.gen_coefs], axis=1)
    lfunc = np.concatenate([poly, ngen], axis=1)
    live = np.flatnonzero(lens > tol)
    coefs = np.full((len(lens), q + 1) + ngen.shape[2:], np.nan)
    coefs[live] = _solve(
        lbases[live], lfunc[live],
        lambda i: f"interval {live[i]} [{breaks[live[i]]}, {breaks[live[i] + 1]}]")
    return reverse_diagonal_averages(coefs, coef_tol)


# drivers ----------------------------------------------------------------------

def _refined_knots(kv: KnotVector, inserts, raise_by, tol):
    """Target knot vector: sorted insertion plus degree-raise repetitions."""
    reg = kv.active_region()
    a, b = float(reg[0]), float(reg[-1])
    groups: list[list[float]] = []   # [value, multiplicity]
    for x in reg[1:-1]:
        if groups and abs(x - groups[-1][0]) <= tol:
            groups[-1][1] += 1
        else:
            groups.append([float(x), 1])
    for x in inserts:
        x = float(x)
        if not (a + tol < x < b - tol):
            raise KnotOutsideActiveRegion(
                f"knot {x} not strictly inside ({a}, {b})")
        idx = bisect_right([g[0] for g in groups], x)
        near = min(groups[max(idx - 1, 0) : idx + 1], key=lambda g: abs(x - g[0]), default=None)
        if near is not None and abs(x - near[0]) <= tol:
            near[1] += 1
        else:
            groups.insert(idx, [x, 1])
    p = kv.degree
    for value, mult in groups:
        if mult > p + 1:
            raise MultiplicityOverflow(
                f"knot {value} would reach multiplicity {mult} > {p + 1}")
    q = p + raise_by
    interior = []
    for value, mult in groups:
        interior.extend([value] * (mult + raise_by))
    return np.array([a] * (q + 1) + interior + [b] * (q + 1))


def derive_family(fam: KnotFunctionFamily, knots, tol=DEFAULT_TOL) -> KnotFunctionFamily:
    """Family for refined knots: every positive interval inherits the kind and
    frequency of the source span containing it."""
    slots = containing_spans(fam.spans, knots, tol)
    slots = slots[slots >= 0]
    return build_family(knots, kinds=tuple(fam.kinds[s] for s in slots),
                        omegas=fam.omegas[slots], tol=tol)


def refined_spline(curve: SplineCurve, basis: LocalBasis | None = None, *,
                   insert=(), elevate_by=0, tol=DEFAULT_TOL,
                   coef_tol=None) -> SplineCurve:
    """Represent `curve` over a refined knot vector.

    Knot insertion, a degree raise, or both at once run through a single
    projection.  Raising the degree repeats every interior breakpoint so the
    original continuity is preserved, and requires generator derivatives that
    still span the target local spaces (true for the trigonometric and
    exponential kinds, never for linear).  Control points shaped (n, d) are
    refined together: one target basis, one integral table.
    """
    tol, coef_tol = _tolerances(tol, coef_tol)
    p = curve.kv.degree
    if p < 2:
        raise DegreeTooSmall("refinement needs degree >= 2")
    if elevate_by < 0:
        raise ValueError("elevate_by must be nonnegative")
    if elevate_by > 0 and any(k == "linear" for k in curve.fam.kinds):
        raise FamilyNotClosedUnderDerivative(
            "derivatives of linear generators collapse; cannot raise the degree")
    q = p + elevate_by
    knots1 = _refined_knots(curve.kv, insert, elevate_by, tol)
    kv1 = KnotVector(knots1, q)
    fam1 = derive_family(curve.fam, knots1, tol)
    if basis is None:
        basis = build_local_basis(curve.kv, curve.fam, tol)
    piece = form_piecewise(curve.cpts, basis)
    basis1 = build_local_basis(kv1, fam1, tol)
    tables = build_integral_table(curve.fam, kv1.active_region(), q - p, q - 1, tol)
    cpts1 = refine_curve(piece, basis1, tables, tol, coef_tol)
    return SplineCurve(kv=kv1, fam=fam1, cpts=cpts1)


def insert_knots(curve: SplineCurve, basis: LocalBasis | None, new_knots,
                 tol=DEFAULT_TOL, coef_tol=None) -> SplineCurve:
    """Insert knots strictly inside the active region, preserving the curve."""
    return refined_spline(curve, basis, insert=tuple(new_knots), tol=tol,
                          coef_tol=coef_tol)


def elevate_degree(curve: SplineCurve, basis: LocalBasis | None, by,
                   tol=DEFAULT_TOL, coef_tol=None) -> SplineCurve:
    """Raise the curve degree by `by` >= 1, preserving the curve."""
    if by < 1:
        raise ValueError("degree raise must be at least 1")
    return refined_spline(curve, basis, elevate_by=int(by), tol=tol,
                          coef_tol=coef_tol)


def greville_abscissae(basis: LocalBasis, tol=DEFAULT_TOL, coef_tol=None) -> np.ndarray:
    """Coefficients expressing the identity f(t) = t in the given basis.

    Used as the x-axis positions when plotting control points.  For degree 2
    the local polynomial part is a bare constant, so the identity exists only
    when the generator integrals supply the slope (the linear kind).
    """
    tol, coef_tol = _tolerances(tol, coef_tol)
    p = basis.kv.degree
    if p < 2:
        raise DegreeTooSmall("identity representation needs degree >= 2")
    breaks = basis.kv.active_region()
    num = len(breaks) - 1
    slots = containing_spans(basis.fam.spans, breaks, tol)
    pos = slots >= 0
    poly = np.zeros((num, p - 1))
    gen = np.zeros((num, 2))
    poly[pos, 0] = breaks[:-1][pos]
    if p >= 3:
        poly[pos, 1] = 1.0
    else:
        if any(basis.fam.kinds[s] != "linear" for s in slots[pos]):
            raise InconsistentCoefficient(
                "y = x lies outside the degree-2 local spaces of this family")
        # first integrals of the linear pair sum to the local coordinate
        gen[pos] = 1.0
    piece = PiecewiseCurve(breaks=breaks, poly_parts=poly, gen_coefs=gen,
                           degree=p, fam=basis.fam, slots=slots)
    tables = build_integral_table(basis.fam, breaks, 0, p - 1, tol)
    return refine_curve(piece, basis, tables, tol, coef_tol)
