"""Refinement by projection between local representations.

A curve over a source knot vector is rewritten in the local coordinates of
a target knot vector (same active region, enlarged spline space), then one
small linear system per positive-length target interval recovers the
coefficients of the nonzero target basis functions; anti-diagonal averaging
aggregates the per-interval results.  Knot insertion, degree elevation, and
any simultaneous combination all ride on the same pipeline.  The identity
y = t is already written in target coordinates, so `greville_abscissae`
skips the rewrite and shares only the projection.

Per-interval work is independent, so every stage runs on arrays over all
target intervals at once: one Taylor shift re-expands the polynomial parts,
one batched elimination solves all local systems, and one scatter averages
the anti-diagonals.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from operator import index

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
    InvalidFamily,
    KnotOutsideActiveRegion,
    MultiplicityOverflow,
    SingularLocalSystem,
)
from .knots import (
    KINDS,
    KnotFunctionFamily,
    KnotVector,
    build_integral_table,
    containing_spans,
    readonly,
)
from .poly import DEFAULT_TOL, left_taylor_series, taylor_shift

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
        rows = a[every, r]
        low = np.flatnonzero(np.abs(rows[:, col]) <= floor)
        if len(low):
            i = low[0]
            raise SingularLocalSystem(
                f"system is singular at column {col} on {name(i)}: "
                f"|pivot| {abs(rows[i, col]):.3e} <= floor {floor[i]:.3e}")
        a[every, r] = a[:, col]
        a[:, col] = rows
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

    Each positive-length target interval copies the row of the source
    interval containing it, then re-expands the polynomial columns (one
    Taylor shift, by each target's offset in its source); the generator
    pair stays unchanged.  Zero-length targets get zero rows.  A trailing
    component axis carries through.
    """
    src = np.asarray(curve.breaks, dtype=float)
    dst = np.asarray(dst_breaks, dtype=float)
    rows = np.flatnonzero(np.diff(src) > tol)
    spans = np.stack([src[rows], src[rows + 1]], axis=1)
    idx = containing_spans(spans, dst, tol)
    live = np.flatnonzero(idx >= 0)
    row = rows[idx[live]]
    coefs = np.zeros((len(idx),) + curve.coefs.shape[1:])
    coefs[live] = curve.coefs[row]
    tau = (dst[live] - spans[idx[live], 0]).reshape((-1,) + (1,) * (coefs.ndim - 2))
    coefs[live, :-2] = np.moveaxis(taylor_shift(np.moveaxis(coefs[live, :-2], 1, 0), tau), 0, 1)
    slots = np.full(len(idx), -1)
    slots[live] = curve.slots[row]
    return PiecewiseCurve(breaks=dst, coefs=coefs, degree=curve.degree, fam=curve.fam,
                          slots=slots)


def represent_knot_funcs(gen, tables_src):
    """Rewrite generator terms, per interval a source (u, v) pair, in the target ladders.

    `tables_src` holds ladder values of the (derivative-shifted) source
    generators on every target interval.  Each target piece keeps its source
    span's kind and frequency, and the target pair rises from 0 to 1 (u) and
    falls from 1 to 0 (v), so the top derivative of a generator term takes
    its right-end value as u's coefficient and its left-end value as v's.
    By Taylor's formula with integral remainder, the rest of the term is the
    polynomial whose derivatives at the left end are the lower orders' left
    values: there the target's positive orders vanish.  Zero-length
    intervals, whose table rows are zeros, get zeros.

    Returns rows as `PiecewiseCurve.coefs`: corrections, then the new pair.
    """
    orders, num = tables_src.shape[:2]
    gen = np.asarray(gen, dtype=float)
    ivals = np.einsum("kjew,jw...->kje...", tables_src, gen)
    out = np.zeros((num, orders + 1) + gen.shape[2:])
    out[:, -2:] = ivals[0, :, ::-1]
    out[:, :-2] = np.moveaxis(left_taylor_series(ivals[:0:-1, :, 0]), 0, 1)
    return out


def _project(basis: LocalBasis, lfunc, tol, coef_tol) -> np.ndarray:
    """Control points of the function whose target-local rows (polynomial
    part, then generator pair, as `basis.local` stores them) are `lfunc`:
    per positive-length interval solve for the coefficients of the nonzero
    basis functions, each interval once with all d components as right-hand
    sides, and aggregate by anti-diagonal averaging."""
    breaks = basis.kv.active_region()
    live = np.flatnonzero(np.diff(breaks) > tol)
    coefs = np.full(lfunc.shape, np.nan)
    coefs[live] = _solve(
        basis.local.coefs[live], lfunc[live],
        lambda i: f"interval {live[i]} [{breaks[live[i]]}, {breaks[live[i] + 1]}]")
    return reverse_diagonal_averages(coefs, coef_tol)


def refine_curve(curve: PiecewiseCurve, basis: LocalBasis,
                 tol=DEFAULT_TOL, coef_tol=None) -> np.ndarray:
    """Control points of a piecewise curve relative to the target basis.

    Runs the projection pipeline: reindex onto the target breakpoints,
    rewrite generator terms and add the source polynomial terms to the
    corrections, then project.  The source generators' ladder values on the
    target intervals are built here, shifted by the degree raise.  On every
    interval live in both slot maps, the curve's family and the basis's must
    agree in kind and, unless linear, in frequency, or InvalidFamily names
    the first interval where they differ.  A curve with a trailing axis of d
    components gives control points shaped (n, d).
    """
    tol, coef_tol = _tolerances(tol, coef_tol)
    q, p = basis.degree, curve.degree
    if q < p:
        raise ValueError(f"target degree {q} is below the curve's degree {p}")
    breaks = basis.kv.active_region()
    local = refine_local(curve, breaks, tol)
    both = np.flatnonzero((local.slots >= 0) & (basis.local.slots >= 0))
    a, b = local.slots[both], basis.local.slots[both]
    kind = curve.fam._kind_ids[a]
    bad = np.flatnonzero((kind != basis.fam._kind_ids[b]) | ((kind != KINDS.index("linear"))
                         & (curve.fam.omegas[a] != basis.fam.omegas[b])))
    if len(bad):
        j, i = bad[0], both[bad[0]]
        raise InvalidFamily(
            f"interval {i} [{breaks[i]}, {breaks[i + 1]}]: the curve has {curve.fam.kinds[a[j]]} "
            f"generators with omega {curve.fam.omegas[a[j]]}, the basis "
            f"{basis.fam.kinds[b[j]]} ones with omega {basis.fam.omegas[b[j]]}")
    tables = build_integral_table(curve.fam, breaks, q - p, q - 1, tol)
    lfunc = represent_knot_funcs(local.coefs[:, -2:], tables)
    lfunc[:, : local.coefs.shape[1] - 2] += local.coefs[:, :-2]
    return _project(basis, lfunc, tol, coef_tol)


# drivers ----------------------------------------------------------------------

def _refined_knots(kv: KnotVector, inserts, raise_by, tol):
    """Target knot vector: sorted insertion plus degree-raise repetitions."""
    reg = kv.active_region()
    a, b = float(reg[0]), float(reg[-1])
    groups: list[list[float]] = []   # [value, multiplicity]
    for x in reg[1:-1].tolist():
        if groups and abs(x - groups[-1][0]) <= tol:
            groups[-1][1] += 1
        else:
            groups.append([x, 1])
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
    frequency of the source span containing it.  A piece of a valid span is
    valid, so nothing is re-validated."""
    knots = np.asarray(knots, dtype=float)
    slots = containing_spans(fam.spans, knots, tol)
    pos = slots >= 0
    if not pos.any():
        raise InvalidFamily(f"no knot interval is longer than tol={tol:g}")
    return KnotFunctionFamily(spans=readonly(np.stack([knots[:-1][pos], knots[1:][pos]], axis=1)),
                              kinds=tuple([fam.kinds[s] for s in slots[pos].tolist()]),
                              omegas=readonly(fam.omegas[slots[pos]]),
                              slots=readonly(np.where(pos, np.cumsum(pos) - 1, -1), dtype=int))


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
    elevate_by, p = index(elevate_by), curve.kv.degree
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
    cpts1 = refine_curve(piece, basis1, tol, coef_tol)
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
    return refined_spline(curve, basis, elevate_by=by, tol=tol,
                          coef_tol=coef_tol)


def greville_abscissae(basis: LocalBasis, tol=DEFAULT_TOL, coef_tol=None) -> np.ndarray:
    """Coefficients expressing the identity f(t) = t in the given basis.

    Used as the x-axis positions when plotting control points.  The identity
    is already written in the target's local coordinates, polynomial part
    left + s and no generator term, so it is projected directly.  For degree
    2 the local polynomial part is a bare constant, so the identity exists
    only when the generator integrals supply the slope (the linear kind).
    """
    tol, coef_tol = _tolerances(tol, coef_tol)
    p = basis.kv.degree
    if p < 2:
        raise DegreeTooSmall("identity representation needs degree >= 2")
    breaks = basis.kv.active_region()
    lfunc = np.zeros((len(breaks) - 1, p + 1))
    lfunc[:, 0] = breaks[:-1]
    if p >= 3:
        lfunc[:, 1] = 1.0
    elif any(kind != "linear" for kind in basis.fam.kinds):
        raise InconsistentCoefficient(
            "y = x lies outside the degree-2 local spaces of this family")
    else:
        lfunc[:, 1:] = 1.0   # first integrals of the linear pair sum to the local coordinate
    return _project(basis, lfunc, tol, coef_tol)
