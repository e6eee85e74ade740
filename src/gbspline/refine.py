"""Refinement by projection between local representations.

A curve over a source knot vector is rewritten in the local coordinates of
a target knot vector (same active region, enlarged spline space), then one
small linear system per positive-length target interval recovers the
coefficients of the nonzero target basis functions; anti-diagonal averaging
aggregates the per-interval results.  Knot insertion, degree elevation, and
any simultaneous combination all ride on the same pipeline.  The identity
y = t is already written in target coordinates, so `greville_abscissae`
skips the rewrite and shares only the projection.

Knot insertion projects only on a clamped window of target knots around
the new ones and copies every other control point; a degree raise's window
is the whole target, clamped and solved by the same formulas.  Per-interval
work is independent, so every stage runs on arrays over the window at once.
One span search places the target intervals in the source spans; with the
source family's own interval map it also gives each solved interval its
source row and offset.  A curve whose family is built over other knots, and
a caller's basis of another family object, each take one more search.  One
ladder pass gives the target basis's right ends, the source table and, with
no basis given, the source basis's right ends; one Taylor shift where an
offset is not zero, one batched inverse and one scatter do the rest.
"""
from __future__ import annotations

import math
import warnings
from itertools import chain
from operator import index

import numpy as np

from .basis import (
    LocalBasis,
    PiecewiseCurve,
    SplineCurve,
    _basis_from_ends,
    _check_cpts,
    _form_rows,
    build_local_basis,  # not called here; the benchmark's self-test reaches it through this module
    reverse_diagonal_averages,
)
from .errors import (
    AllMissingDiagonal,
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
    _ENDS,
    _ladders_at,
    _unchecked,
    build_integral_table,
    containing_spans,
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
    """Solve a stack of tiny systems: one LAPACK inverse, checked per system.

    `matrices` is (systems, n, n) and `rhs` (systems, n) or (systems, n, d):
    d right-hand sides share one system.  `name(i)` describes system i.  A
    pivot at or below 1e-13 times the system's largest entry (at least 1)
    raises SingularLocalSystem, naming the first column where one occurs and
    the first system with one there; pivot ratios above PIVOT_RATIO_WARN give
    one warning for the whole stack, at its worst system ("the worst of N"
    counts only a knot insertion's window).  Every pivot of a partial-pivoting
    LU lies in [1/(n |A^-1|), 2^(n-1) max|a|] (infinity norm), so a system with
    2^(n-1) n max(1, max|a|) |A^-1| below PIVOT_RATIO_WARN / 10 clears both
    checks tenfold and is solved as A^-1 b.  Only the others, or the whole
    stack if one is exactly singular, go through the elimination.
    """
    a, b = np.asarray(matrices, dtype=float), np.asarray(rhs, dtype=float)
    count, n = b.shape[:2]
    b3 = b.reshape(count, n, -1)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return _eliminate(a, b3, name, count).reshape(b.shape)
    with np.errstate(over="ignore", invalid="ignore"):   # uncertified systems are redone
        x = inv @ b3
        bound = (2.0 ** (n - 1) * n * np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
                 * np.linalg.norm(inv, np.inf, axis=(1, 2)))
    bad = np.flatnonzero(~(bound < PIVOT_RATIO_WARN / 10))   # a nan bound too
    if len(bad):
        x[bad] = _eliminate(a[bad], b3[bad], lambda i: name(bad[i]), count)
    return x.reshape(b.shape)


def _eliminate(matrices, rhs, name, count):
    """`_solve`'s checks and solutions by elimination, on systems of a stack of `count`."""
    n = rhs.shape[1]
    a = np.concatenate([matrices, rhs], axis=2)
    floor = 1e-13 * np.maximum(1.0, np.abs(a[:, :, :n]).max(axis=(1, 2), initial=0.0))
    every = np.arange(len(a))
    # a system with a pivot below its floor runs on to nonsense alone, refused after the loop
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for col in range(n):
            r = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
            rows = a[every, r]
            a[every, r] = a[:, col]
            a[:, col] = rows
            pivot = a[:, col : col + 1, col : col + 1]
            a[:, col + 1 :] -= a[:, col + 1 :, col : col + 1] / pivot * a[:, col : col + 1]
    pivots = np.abs(np.diagonal(a, axis1=1, axis2=2))
    low = pivots <= floor[:, None]
    if low.any():
        col = int(np.argmax(low.any(axis=0)))
        i = int(np.argmax(low[:, col]))
        raise SingularLocalSystem(
            f"system is singular at column {col} on {name(i)}: "
            f"|pivot| {pivots[i, col]:.3e} <= floor {floor[i]:.3e}")
    ratio = pivots.max(axis=1) / pivots.min(axis=1)
    if ratio.max() > PIVOT_RATIO_WARN:
        i = int(np.argmax(ratio))
        warnings.warn(f"poorly conditioned local system on {name(i)} "
                      f"(pivot ratio {ratio[i]:.2e}, the worst of {count})",
                      RuntimeWarning, stacklevel=3)
    x = a[:, :, n:]
    for row in range(n - 1, -1, -1):
        dot = np.einsum("ik,ikm->im", a[:, row, row + 1 : n], x[:, row + 1 :])
        x[:, row] = (x[:, row] - dot) / a[:, row, row, None]
    return x


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
    idx = containing_spans(np.stack([src[rows], src[rows + 1]], axis=1), dst, tol)
    row = np.append(rows, -1)[idx]   # -1 on zero-length targets
    return PiecewiseCurve(breaks=dst, coefs=_reindex(curve, dst, row), degree=curve.degree,
                          fam=curve.fam, slots=np.where(row >= 0, curve.slots[row], -1))


def _reindex(curve: PiecewiseCurve, dst, row):
    """`refine_local`'s rows from its map: interval j of `dst` is a piece of
    curve's interval row[j], or has zero length where row[j] is -1."""
    live = np.flatnonzero(row >= 0)
    src = row[live]
    coefs = np.zeros((len(row),) + curve.coefs.shape[1:])
    coefs[live] = curve.coefs[src]
    tau = dst[live] - curve.breaks[src]
    inside = np.flatnonzero(tau)   # a piece that starts its source row keeps it as it is
    if len(inside):
        at, tau = live[inside], tau[inside].reshape((-1,) + (1,) * (coefs.ndim - 2))
        coefs[at, :-2] = taylor_shift(coefs[at, :-2].swapaxes(0, 1), tau).swapaxes(0, 1)
    return coefs


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
    tables = tables_src.reshape(tables_src.shape + (1,) * (gen.ndim - 2))   # components last
    ivals = tables[:, :, :, 0] * gen[:, None, 0] + tables[:, :, :, 1] * gen[:, None, 1]
    out = np.zeros((num, orders + 1) + gen.shape[2:])
    out[:, -2:] = ivals[0, :, ::-1]
    out[:, :-2] = left_taylor_series(ivals[:0:-1, :, 0]).swapaxes(0, 1)
    return out


def _project(breaks, rows, lfunc, tol, coef_tol, first=0) -> np.ndarray:
    """Control points of the function whose target-local rows (polynomial
    part, then generator pair, as a basis's `rows` over `breaks` store them)
    are `lfunc`: per positive-length interval solve for the coefficients of
    the nonzero basis functions, each interval once with all d components as
    right-hand sides, and aggregate by anti-diagonal averaging.  Errors count
    intervals and coefficients from `first`, the place of `rows` in the
    target's rows."""
    live = np.flatnonzero(np.diff(breaks) > tol)
    coefs = np.full(lfunc.shape, np.nan)
    coefs[live] = _solve(
        rows[live], lfunc[live],
        lambda i: f"interval {first + live[i]} [{breaks[live[i]]}, {breaks[live[i] + 1]}]")
    return reverse_diagonal_averages(coefs, coef_tol, first=first)


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
    q, p, target = basis.degree, curve.degree, basis.local
    if q < p:
        raise ValueError(f"target degree {q} is below the curve's degree {p}")
    local = refine_local(curve, target.breaks, tol)
    _check_families(curve.fam, local.slots, target.fam, target.slots, target.breaks)
    tables = build_integral_table(curve.fam, target.breaks, q - p, q - 1, tol)
    return _project(target.breaks, target.coefs, _target_rows(local.coefs, tables), tol, coef_tol)


def _target_rows(coefs, tables):
    """The rows, in target coordinates, of a curve reindexed onto the target
    breaks (its rows `coefs` there), from its source generators' integral
    table there: the rewritten generator terms plus the polynomial parts."""
    lfunc = represent_knot_funcs(coefs[:, -2:], tables)
    lfunc[:, : coefs.shape[1] - 2] += coefs[:, :-2]
    return lfunc


def _check_families(fam, slots, fam1, slots1, breaks):
    """On every interval of `breaks` live in both slot maps, the curve's family `fam` and
    the basis's `fam1` must agree in kind and, unless linear, in frequency, or
    InvalidFamily names the first interval where they differ."""
    both = np.flatnonzero((slots >= 0) & (slots1 >= 0))
    a, b = slots[both], slots1[both]
    kind = fam._kind_ids[a]
    bad = np.flatnonzero((kind != fam1._kind_ids[b]) | ((kind != KINDS.index("linear"))
                         & (fam.omegas[a] != fam1.omegas[b])))
    if len(bad):
        j, i = bad[0], both[bad[0]]
        raise InvalidFamily(
            f"interval {i} [{breaks[i]}, {breaks[i + 1]}]: the curve has "
            f"{fam.kinds[a[j]]} generators with omega {fam.omegas[a[j]]}, the basis "
            f"{fam1.kinds[b[j]]} ones with omega {fam1.omegas[b[j]]}")


# drivers ----------------------------------------------------------------------

def _refined_knots(kv: KnotVector, inserts, raise_by, tol):
    """Target knot vector: sorted insertion plus degree-raise repetitions.  A knot within
    tol of its group's first takes its value; an insert joins the nearer (left on a tie)."""
    reg, p = kv.active_region(), kv.degree
    a, b, inner = float(reg[0]), float(reg[-1]), reg[1:-1]
    gap = inner[1:] - inner[:-1]
    short = (gap > 0) & (gap <= tol)
    if short.any():
        first = np.flatnonzero(np.concatenate(([True], gap > tol)))
        for i in (np.flatnonzero(short) + 1).tolist():   # a run of short gaps splits past tol
            if inner[i] - inner[first[np.searchsorted(first, i) - 1]] > tol:
                first = np.insert(first, np.searchsorted(first, i), i)
        inner = np.repeat(inner[first], np.diff(np.append(first, len(inner))))
    for x in inserts:
        x = float(x)
        if not (a + tol < x < b - tol):
            raise KnotOutsideActiveRegion(
                f"knot {x} not strictly inside ({a}, {b})")
        i = int(np.searchsorted(inner, x, side="right"))
        near = min(inner[max(i - 1, 0) : i + 1].tolist(), key=lambda v: abs(x - v), default=x)
        if abs(x - near) <= tol:
            x, i = near, int(np.searchsorted(inner, near, side="right"))
        inner = np.concatenate((inner[:i], [x], inner[i:]))
    over = np.flatnonzero(inner[p + 1 :] == inner[: max(len(inner) - p - 1, 0)])
    if len(over):
        x = inner[over[0]]
        raise MultiplicityOverflow(
            f"knot {x} would reach multiplicity {np.count_nonzero(inner == x)} > {p + 1}")
    if raise_by:   # raise_by more copies of each value
        inner = np.repeat(inner, 1 + raise_by * (inner > np.concatenate(([-np.inf], inner[:-1]))))
    return np.concatenate(([a] * (p + raise_by + 1), inner, [b] * (p + raise_by + 1)))


def derive_family(fam: KnotFunctionFamily, knots, tol=DEFAULT_TOL) -> KnotFunctionFamily:
    """Family for refined knots: every positive interval inherits the kind and
    frequency of the source span containing it.  A piece of a valid span is
    valid, so nothing is re-validated."""
    knots = np.asarray(knots, dtype=float)
    return _derived(fam, knots, containing_spans(fam.spans, knots, tol), tol)


def _derived(fam: KnotFunctionFamily, knots, slots, tol) -> KnotFunctionFamily:
    """derive_family from `slots`, the span of fam holding each interval of knots."""
    pos = slots >= 0
    if not pos.any():
        raise InvalidFamily(f"no knot interval is longer than tol={tol:g}")
    src, live = slots[pos], pos.nonzero()[0]
    cut = (src[1:] != src[:-1] + 1).nonzero()[0]   # runs of consecutive source spans
    runs = zip(src[np.append(0, cut + 1)].tolist(), src[np.append(cut, len(src) - 1)].tolist())
    return _unchecked(KnotFunctionFamily, spans=knots[live + _ENDS].T, omegas=fam.omegas[src],
                      kinds=tuple(chain.from_iterable(fam.kinds[a : b + 1] for a, b in runs)),
                      slots=np.where(pos, pos.cumsum() - 1, -1), _kind_ids=fam._kind_ids[src])


def _clamped(knots, lo, hi, p, slots):
    """Open knot vector on [knots[lo], knots[hi]], each end moved to the inner copy of its
    value and raised to multiplicity p + 1 (a copy of `knots` if both are the active
    region's ends), the index in `knots` of its first function, and its intervals' entries
    of `slots` (a map of knots' intervals), -1 on the copies."""
    lo = int(np.searchsorted(knots, knots[lo], side="right")) - 1
    hi = int(np.searchsorted(knots, knots[hi], side="left"))
    return (np.concatenate(([knots[lo]] * p, knots[lo : hi + 1], [knots[hi]] * p)), lo - p,
            np.concatenate(([-1] * p, slots[lo:hi], [-1] * p)))


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

    Insertion alone changes the control points from p before the first knot
    that moved to the one before the last: a coefficient depends only on the
    knots inside its function's support.  The others are copied.  The
    projection runs on a clamped window of knots around the changed ones'
    supports and solves the very systems the full target has there, so its
    cost does not grow with the curve.  Errors name global intervals.  A
    caller's basis is still checked against the whole curve: its number of
    functions and, unless it holds the curve's own family, its kinds and
    frequencies.
    """
    tol, coef_tol = _tolerances(tol, coef_tol)
    elevate_by, p, fam = index(elevate_by), curve.kv.degree, curve.fam
    if p < 2:
        raise DegreeTooSmall("refinement needs degree >= 2")
    if elevate_by < 0:
        raise ValueError("elevate_by must be nonnegative")
    if elevate_by > 0 and "linear" in fam.kinds:
        raise FamilyNotClosedUnderDerivative(
            "derivatives of linear generators collapse; cannot raise the degree")
    q = p + elevate_by
    knots, knots1 = curve.kv.knots, _refined_knots(curve.kv, insert, elevate_by, tol)
    m, m1, src = len(knots), len(knots1), np.flatnonzero(fam.slots >= 0)
    if len(fam.slots) != m - 1 or not np.array_equal(fam.spans, knots[src + _ENDS].T):
        fam = derive_family(fam, knots, tol)   # built over other knots: re-derived over these
        src = np.flatnonzero(fam.slots >= 0)
    # the one search: each target interval's span, which is knot interval src[span]
    spans1 = containing_spans(fam.spans, knots1, tol)
    kv1, fam1 = _unchecked(KnotVector, knots=knots1, degree=q), _derived(fam, knots1, spans1, tol)
    if basis is not None:   # refuse another curve's basis, as the full projection does
        _check_cpts(curve.cpts, basis.n_basis)
        if basis.fam is not curve.fam:
            breaks1 = knots1[q : m1 - q]
            _check_families(basis.fam, containing_spans(basis.fam.spans, breaks1, tol),
                            fam1, fam1.slots[q : m1 - q - 1], breaks1)
    first, last = 0, kv1.n_basis - 1   # the control points that change
    if not elevate_by:   # from p before the first knot that moved to before the last
        moved = np.flatnonzero(knots1[:m] != knots)
        if not len(moved):
            return SplineCurve(kv=kv1, fam=fam1, cpts=curve.cpts)
        first = moved[0] - p
        last = np.flatnonzero(knots1[m1 - m :] != knots)[-1] + m1 - m - 1
    # the changed functions' supports and q knots more each side: every interval outside
    # is one of `knots`, and each interval of those supports has only the target's functions
    window, shift, slots = _clamped(knots1, max(first - q, q), min(last + 2 * q + 1, m1 - q - 1),
                                    q, fam1.slots)
    # source knot intervals lo..hi-1 cover the window
    lo, hi = np.searchsorted(knots, window[q], "right") - 1, np.searchsorted(knots, window[-q - 1])
    # the window's knot intervals solved, j0..j1-1: from the first to the last live one whose
    # nonzero functions are all the target's own (a clamped end's give systems the target has not)
    breaks, k = window[q : len(window) - q], shift + np.arange(len(window) - 2 * q - 1)
    own = np.flatnonzero((np.diff(breaks) > tol) & (knots1[k] >= window[q])
                         & (knots1[k + 2 * q + 1] <= window[-q - 1]))
    j0, j1 = (own[0], own[-1] + 1) if len(own) else (0, 0)   # none: nothing changes
    at, end = shift + j0, shift + j1 + q   # coefficients at..end-1 are solved, the others copied
    if first <= last and (first < at or last >= end):   # changed, unsolved: an end interval <= tol
        raise AllMissingDiagonal("no finite estimates for coefficient "
                                 f"{first if first < at else max(first, end)}")
    old, cpts = curve.cpts, curve.cpts[:0]
    if j1 > j0:
        span, dst = spans1[shift + q + j0 : shift + q + j1], breaks[j0 : j1 + 1]
        row = np.where(span >= 0, src[span] - lo, -1)   # in a source piece from knot interval lo
        if basis is None:   # a source basis exact p intervals inside its window's ends
            knots0, offset, slots0 = _clamped(knots, max(lo - p, p), min(hi + p, m - p - 1), p,
                                              fam.slots)
            slots0 = np.where(np.diff(knots0) > tol, slots0, -1)   # as a search under tol
            source = ((range(1, p), fam, slots0, knots0, False),)
        else:   # the piece's rows, and so the table, are in the basis's spans
            piece, source = _form_rows(old, basis, lo - p, hi - p), ()
            span = np.where(row >= 0, piece.slots[row], -1)
        # one ladder pass: target right ends, source table and, with no basis, source right ends
        right, tables, *ends0 = _ladders_at(
            (range(1, q), fam1, slots, window, False),
            (range(p - q, p), fam if basis is None else basis.fam, span, dst, True), *source)
        if basis is None:
            basis0 = _basis_from_ends(_unchecked(KnotVector, knots=knots0, degree=p), fam, slots0,
                                      *ends0)
            piece = _form_rows(old[offset:], basis0, lo - p - offset, hi - p - offset)
        rows = _basis_from_ends(_unchecked(KnotVector, knots=window, degree=q), fam1, slots,
                                right).local.coefs[j0:j1]
        cpts = _project(dst, rows, _target_rows(_reindex(piece, dst, row), tables), tol,
                        coef_tol, at)
    return SplineCurve(kv=kv1, fam=fam1, cpts=np.concatenate(
        [old[:first], cpts[first - at : last + 1 - at], old[len(old) - kv1.n_basis + last + 1 :]]))


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
    return _project(breaks, basis.local.coefs, lfunc, tol, coef_tol)
