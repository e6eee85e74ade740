"""Local-representation construction and evaluation of the spline basis.

On each knot interval a degree-p basis function is a polynomial term of
degree at most p-2 plus a coefficient pair (a, b) multiplying the (p-1)-th
integrals of that interval's generator pair, all in one coordinate: the
span's x = (t - left)/h, on ladders normalized to U_k/h^k.  The basis is
stored interval by interval and evaluated through `PiecewiseCurve` alone.
Construction runs the recursive-integral definition function by function;
polynomial parts integrate symbolically and generator parts read the
family's ladder values, so no quadrature enters the production path.

Built values are immutable and safe to evaluate concurrently.  On its first
evaluation a PiecewiseCurve merges each interval's row into one polynomial
in x (plus the closed forms' term on wide exponential spans).  A scalar t
runs one evaluator that bisects a list of the breaks and evaluates a
Python-float copy of the row, in one frame; a batch runs the same
operations on arrays, so batch rows equal scalar calls bit for bit.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    AllMissingDiagonal,
    DegreeTooSmall,
    InconsistentCoefficient,
    IntervalStraddle,
    InvalidFamily,
    LengthMismatch,
    OutOfActiveRegion,
    OutOfInterval,
    SingularLocalSystem,
)
from .knots import (KnotFunctionFamily, KnotVector, _as_float, _as_floats, _is_batch,
                    _ladder_polys, _ladders_at, _unchecked, containing_spans, find_interval,
                    readonly)
from .poly import DEFAULT_TOL


def _check_cpts(cpts, n_basis):
    if cpts.ndim not in (1, 2) or len(cpts) != n_basis:
        raise LengthMismatch(
            f"{n_basis} basis functions but control points shaped {cpts.shape}; "
            "expected (n,) or (n, d)")
    if not np.isfinite(cpts).all():
        raise ValueError(f"control point {np.argwhere(~np.isfinite(cpts))[0, 0]} is not finite")


def _interval_indices(j, n):
    """j as an int array of indices into n intervals, else IndexError naming the entry."""
    j = np.asarray(j)
    bad = np.flatnonzero((j < 0) | (j >= n) if j.dtype.kind in "iu" else np.ones(j.shape, bool))
    if len(bad):
        raise IndexError(f"j={j.flat[bad[0]]}{f' (entry {bad[0]})' if j.ndim else ''} is not an "
                         f"index of the {n} intervals 0..{n - 1}")
    return j.astype(int, copy=False)


def _raise_no_generators(breaks, k):
    raise IntervalStraddle(f"interval {k} [{breaks[k]}, {breaks[k + 1]}] has no generators")


@dataclass(frozen=True, eq=False)
class SplineCurve:
    """Control-point form of a spline curve.

    Control points are shaped (n,) for a scalar curve or (n, d) for a curve
    with d components; every component goes through the same projection.
    """

    kv: KnotVector
    fam: KnotFunctionFamily
    cpts: np.ndarray
    _piece: tuple = field(default=(None, None), init=False, repr=False)   # (basis, its form)

    def __post_init__(self):
        object.__setattr__(self, "cpts", readonly(self.cpts))
        _check_cpts(self.cpts, self.kv.n_basis)


@dataclass(frozen=True, eq=False)
class LocalBasis:
    """The basis functions stored interval by interval over the active region.

    `local` is a PiecewiseCurve with p+1 components: on active interval j,
    component c is basis function j+c, so `local.coefs` has shape
    (intervals, max(p-1, 0) + 2, p+1).
    Rows over zero-length intervals hold zeros and are never evaluated.
    deltas[k-1] lists the level-k normalization integrals, k = 1..p-1.
    """

    kv: KnotVector
    fam: KnotFunctionFamily
    local: PiecewiseCurve
    deltas: tuple

    @property
    def degree(self) -> int:
        return self.kv.degree

    @property
    def n_basis(self) -> int:
        return self.kv.n_basis


@dataclass(frozen=True, eq=False)
class PiecewiseCurve:
    """One curve stored interval by interval over `breaks`.

    Row j of `coefs` holds interval j's local polynomial part, ascending,
    then the coefficients of the normalized (degree-1)-th ladders (u, v) of
    the family span containing the interval, all in that span's x: before
    refinement the span is the interval, after splitting the coarser source
    span.  A trailing axis of d components is optional.  `slots` maps each
    interval to its family span, -1 for intervals without generators; the
    builders pass the map they made under their own tolerance, and it
    defaults to `containing_spans` under the default one.  Evaluation reads
    one merged polynomial per interval and component; `_at` does it for a
    scalar t.
    """

    breaks: np.ndarray
    coefs: np.ndarray   # (intervals, max(degree-1, 0) + 2[, d])
    degree: int
    fam: KnotFunctionFamily
    slots: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "breaks", readonly(self.breaks))
        object.__setattr__(self, "coefs", readonly(self.coefs))
        want = (len(self.breaks) - 1, max(self.degree - 1, 0) + 2)
        if self.coefs.ndim not in (2, 3) or self.coefs.shape[:2] != want:
            raise ValueError(f"coefs must be shaped (intervals, max(degree-1, 0) + 2) = "
                             f"{want}, then optional components; got {self.coefs.shape}")
        slots = (containing_spans(self.fam.spans, self.breaks) if self.slots is None
                 else np.asarray(self.slots))
        if (slots.shape != want[:1] or (slots != np.round(slots)).any()
                or ((slots < -1) | (slots >= self.fam.n_spans)).any()):
            raise ValueError(f"slots must be shaped {want[:1]} with whole-number entries in -1.."
                             f"{self.fam.n_spans - 1}; got {slots.shape}: {slots}")
        object.__setattr__(self, "slots", readonly(slots, dtype=int))

    def value(self, t, tol=DEFAULT_TOL):
        """Curve value at t: a float, or an array of the d components.  A
        batch of N parameters (`_is_batch`) gives values shaped (N,) or (N, d)."""
        if _is_batch(t):
            return self.value_on(find_interval(self.breaks, t, tol), t, tol)
        return self._at(t, tol)

    def value_on(self, j, t, tol=DEFAULT_TOL):
        """Value at t on interval j: one Horner pass over the interval's
        merged row in x, plus the closed forms' term if its span keeps them.

        Batches j and t (`_is_batch`) of N samples give a leading axis of N,
        each row the scalar call's bits.  A scalar mixed with a batch, or two
        shapes, raise ValueError, a j not in 0..intervals-1 IndexError, and
        an entry of t that is not a real number TypeError.
        """
        batch = _is_batch(j) or _is_batch(t)
        if batch and np.shape(j) != np.shape(t):
            raise ValueError(f"j and t must both be scalars or arrays of one shape, "
                             f"got j {np.shape(j) or 'scalar'} and t {np.shape(t) or 'scalar'}")
        if not batch:
            return self._at(t, tol, j)
        j = _interval_indices(j, len(self.slots))
        missing = np.extract(self.slots[j] < 0, j)
        if len(missing):
            _raise_no_generators(self.breaks, missing[0])
        ends, rows, weights, g = self._merged
        shape, j, t = j.shape, j.ravel(), _as_floats(t).ravel()
        left, right, h, theta = ends[:, j]
        outside = np.flatnonzero((t < left - tol) | (t > right + tol))
        if len(outside):
            i = outside[0]
            raise OutOfInterval(f"t={t[i]} outside [{left[i]}, {right[i]}] (entry {i})")
        x, acc = (t - left) / h, np.zeros(rows.shape[1:-1] + t.shape)   # components, samples
        for c in rows[..., j]:
            acc *= x
            acc += c
        pts = np.flatnonzero(theta)
        if len(pts):   # G through math, point by point, as in the scalar path
            ga, gb = (np.fromiter(map(g, (theta[pts] * y).tolist()), float, len(pts))
                      for y in (x[pts], 1.0 - x[pts]))
            on = j[pts]
            acc[..., pts] = acc[..., pts] + weights[0][..., on] * ga + weights[1][..., on] * gb
        return np.ascontiguousarray(acc.T).reshape(shape + acc.shape[:-1])

    # built on the first evaluation
    @cached_property
    def _merged(self):
        """Per interval: its span's left end, the last t it takes (its span's
        end, or the next live interval's start: find_interval sends t on dead
        intervals left), length h and theta (zero unless the span keeps the
        closed forms); one row per component, its polynomial in x = (t -
        left)/h, highest power first along axis 0; the weights of G(theta x)
        and G(theta (1 - x)); and G."""
        fam, k, slots = self.fam, self.degree - 1, self.slots
        # an interval without generators (slot -1) reads the last span, but
        # evaluation refuses it before reading its row
        lo, hi = fam.spans[slots].T
        ladders, closed = _ladder_polys(fam._kind_ids[slots], hi - lo, fam.omegas[slots], [k])
        coefs = np.moveaxis(self.coefs, 0, -1)   # columns, [components,] intervals
        col = lambda a: a.reshape(a.shape[:-1] + (1,) * (coefs.ndim - 2) + a.shape[-1:])
        live = np.where(slots >= 0, np.arange(len(slots)), len(slots))
        after = np.append(np.minimum.accumulate(live[::-1])[::-1][1:], len(slots))
        ends = np.stack([lo, np.maximum(hi, self.breaks[after]), hi - lo, np.zeros(len(slots))])
        rows = coefs[-2] * col(ladders[:, 0, 0]) + coefs[-1] * col(ladders[:, 0, 1])
        rows[len(rows) - len(coefs) + 2 :] += coefs[:-2][::-1]   # the polynomial part
        weights = np.zeros((2,) + coefs.shape[1:])
        if closed is not None:   # exponential spans wider than the series' cutoff
            on, theta, inv, (scale,) = closed
            weight = np.where(on, scale * inv, 0.0)
            ends[3] = np.where(on, theta, 0.0)
            weights[:] = coefs[-2] * weight, coefs[-1] * ((-1.0) ** k * weight)
        return ends, rows, weights, (math.sinh, math.cosh)[k & 1]

    @cached_property
    def _at(self):
        """at(t, tol, j=None, pair=False): value(t, tol) for a scalar t in one
        frame, or value_on(j, t, tol) given j; (j, value) if pair.  Its
        bisection matches find_interval, and its float operations on a list
        copy of _merged value_on's array ones in order, so the same bits."""
        ends, rows, weights, g = self._merged
        rows = [None if s < 0 else (*e[:3], r, (e[3], a, b, g) if e[3] else None)
                for s, e, r, a, b in zip(self.slots.tolist(), ends.T.tolist(), rows.T.tolist(),
                                         weights[0].T.tolist(), weights[1].T.tolist())]
        n, one, breaks = len(rows), self.coefs.ndim == 2, self.breaks.tolist()
        first, last = breaks[0], breaks[-1]

        def at(t, tol, j=None, pair=False):
            if type(t) is not float:
                t = _as_float(t)
            if j is None:
                if not first <= t <= last:
                    raise OutOfActiveRegion(f"t={t} outside [{first}, {last}]")
                j = bisect_right(breaks, t, 0, n) - 1   # the last interval holds its right end
                while j > 0 and not breaks[j + 1] - breaks[j] > tol:   # left over intervals <= tol
                    j -= 1
            elif type(j) is not int or not 0 <= j < n:
                j = int(_interval_indices(j, n))
            entry = rows[j]   # per component unless one: row, a and b
            if entry is None:
                _raise_no_generators(breaks, j)
            left, right, h, row, closed = entry
            if t < left - tol or t > right + tol:
                raise OutOfInterval(f"t={t} outside [{left}, {right}]")
            x = (t - left) / h
            if one:
                out = 0.0
                for c in row:
                    out = out * x + c
                if closed:
                    theta, a, b, g = closed
                    out = out + a * g(theta * x) + b * g(theta * (1.0 - x))
                return (j, out) if pair else out
            out = []
            for r in row:
                acc = 0.0
                for c in r:
                    acc = acc * x + c
                out.append(acc)
            if closed:
                theta, wa, wb, g = closed
                ga, gb = g(theta * x), g(theta * (1.0 - x))
                out = [o + a * ga + b * gb for o, a, b in zip(out, wa, wb)]
            return (j, np.array(out)) if pair else np.array(out)
        return at


# construction ----------------------------------------------------------------

def _next_level(table, reps, k, alive, knots):
    """One level of the construction recurrence (level k -> k + 1), for every
    function at once, on rows in x laid out [slot, column, function]: the
    level's normalization integrals and the new rows.

    Function f reads slot s of `table` (interval-major [column, interval],
    h [1/(c+1) | the level's right ends | 1], zero where dead) and of `alive`
    at interval f + s through strided views.  Its rows times the table are
    its columns' integrals in t from the left (positive orders vanish
    there), whose sums, columns added in order, are its integrals over its
    intervals.  Its accumulated, normalized integral fills its support
    slots 0..k; right of its support (or when none of its intervals is live)
    it is the unit step in slot k+1.  New function i is that accumulation for
    f = i minus the one for f = i+1, zero on dead slots.  An area that is not
    a positive normal float, of a function with a live interval, raises
    SingularLocalSystem naming that interval of `knots`.
    """
    count, (step, col), flag = reps.shape[-1], table.strides, alive.strides[0]
    table = np.ndarray((k + 1, k + 2, count), float, table, 0, (col, step, col))
    parts = reps * table[:, : k + 1]
    ints = parts.sum(axis=1)
    delta = ints.sum(axis=0)
    live = np.ndarray((k + 1, count), bool, alive, 0, (flag, flag)).any(axis=0)
    area = np.where(live, delta, np.inf)   # inf: f vanishes, its rows become 0
    if not (normal := area >= 2.0**-1022).all():   # else zero, subnormal, negative or nan
        j = (f := int(np.argmin(normal))) + int(np.argmax(alive[f:]))   # its first live interval
        raise SingularLocalSystem(f"knot interval [{knots[j]}, {knots[j + 1]}]: a degree-{k} basis "
                                  f"function over it has normalization area {delta[f]:.3e}, not a "
                                  "positive normal float")
    acc = np.empty((k + 2, k + 2, count))
    acc[0, 0], acc[1, 0], acc[k + 1] = 0.0, ints[0], 0.0
    for s in range(2, k + 1):   # cumsum along slots, which numpy runs column by column
        np.add(acc[s - 1, 0], ints[s - 1], out=acc[s, 0])
    acc[: k + 1, 1:k] = parts[:, :-2]   # h x^(c+1)/(c+1) times c's coefficient
    np.multiply(reps[:, -2:], table[:, k + 1 :], out=acc[: k + 1, k:])   # h times the pair
    acc[: k + 1] /= area
    acc[k + 1, 0] = 1.0
    acc[1:, :, :-1] -= acc[: k + 1, :, 1:]
    new = acc[:, :, :-1]   # dead slots hold zeros already, but for the accumulated integral
    new[:, 0] = np.where(np.ndarray((k + 2, count - 1), bool, alive, 0, (flag, flag)), new[:, 0], 0)
    return delta, new


def build_local_basis(kv: KnotVector, fam: KnotFunctionFamily, tol=DEFAULT_TOL) -> LocalBasis:
    """Construct the local representations of all basis functions.

    The degree-1 seed is the rising generator on the first support interval
    and the falling generator on the second; each further level accumulates
    exact integrals and divides by the lower function's normalization area.
    A span of `fam` that reaches beyond its knot interval raises InvalidFamily.
    """
    p = kv.degree
    if p < 1:
        raise DegreeTooSmall("basis construction needs degree >= 1")
    knots = kv.knots
    slots = containing_spans(fam.spans, knots, tol)   # -1 exactly where the interval is <= tol
    live = np.flatnonzero(slots >= 0)
    lo, hi = fam.spans[slots[live]].T
    if len(wide := np.flatnonzero((lo < knots[live] - tol) | (hi > knots[live + 1] + tol))):
        j, k = int(live[wide[0]]), wide[0]
        raise InvalidFamily(f"knot interval {j} [{knots[j]}, {knots[j + 1]}] lies inside the "
                            f"longer span [{lo[k]}, {hi[k]}]; build the family over the knots")
    return _basis_from_ends(kv, fam, slots, *_ladders_at((range(1, p), fam, slots, knots, False)))


def _basis_from_ends(kv: KnotVector, fam: KnotFunctionFamily, slots, right) -> LocalBasis:
    """build_local_basis from the slot map of kv's knot intervals in `fam`
    and the ladder values of orders 1..p-1 at the right end of each
    (`_ladders_at`), unchecked.  One strided copy turns `_next_level`'s last
    rows, [slot, column, function], into interval-major ones."""
    p, knots = kv.degree, kv.knots
    m, alive = len(knots), slots >= 0
    h = np.where(alive, knots[1:] - knots[:-1], 0.0)
    powers = h / np.arange(1, p - 1)[:, None]   # the integrals in t of x^c, c = 0..p-3
    reps = np.zeros((2, 2, m - 2))   # [slot, column, function]: u, then v, zero where dead
    reps[0, 0], reps[1, 1], deltas = alive[:-1], alive[1:], []
    for level in range(1, p):   # level k has m - 1 - k functions of k + 1 intervals
        table = np.concatenate([powers[: level - 1], h * right[level - 1].T, h[None]])
        delta, reps = _next_level(table, reps, level, alive, knots)
        deltas.append(delta)

    # one strided copy: row j, column w, component c is function j + c's slot p - c
    (slot, col, fn), count = reps.strides, reps.shape[-1] - p
    coefs = as_strided(reps[p], (count, p + 1, p + 1), (fn, col, fn - slot)).copy()
    local = _unchecked(PiecewiseCurve, breaks=kv.active_region(), coefs=coefs, degree=p, fam=fam,
                       slots=slots[p : m - p - 1])
    return LocalBasis(kv=kv, fam=fam, local=local, deltas=tuple(map(readonly, deltas)))


# evaluation ------------------------------------------------------------------

def eval_basis_function(basis: LocalBasis, i, t, tol=DEFAULT_TOL) -> float:
    """Value of basis function i at t inside the active region."""
    kv = basis.kv
    p, n, knots = kv.degree, kv.n_basis, kv.knots
    if _is_batch(t):
        raise ValueError(f"t must be a number, got an array shaped {np.shape(t)}")
    if not 0 <= i < n:
        raise IndexError(f"basis index {i} outside 0..{n - 1}")
    # the final function owns the closed right end of the active region
    if i == n - 1 and t == knots[-1] and knots[p] != knots[-1]:
        return 1.0
    j, vals = basis.local._at(t, tol, pair=True)
    return vals[i - j] if j <= i <= j + p else 0.0


def nonzero_basis_values(basis: LocalBasis, t, tol=DEFAULT_TOL):
    """(first index, values) of the degree+1 basis functions covering t.

    A batch of N parameters (`_is_batch`) gives first indices shaped (N,)
    and values shaped (N, degree+1).
    """
    local = basis.local
    if _is_batch(t):
        j = find_interval(local.breaks, t, tol)
        return j, local.value_on(j, t, tol)
    return local._at(t, tol, pair=True)


def eval_curve(curve: SplineCurve, basis: LocalBasis, t, tol=DEFAULT_TOL):
    """Curve value sum(cpts_i * N_i(t)) over the nonzero basis functions.

    A float for control points shaped (n,), an array of d components for
    (n, d).  A batch of N parameters (`_is_batch`) gives values shaped (N,)
    or (N, d), each equal to the scalar call bit for bit.  The value is
    `form_piecewise(curve.cpts, basis).value(t, tol)`; the curve keeps that
    piecewise form for the last basis it was evaluated against (compared by
    identity), so repeated calls check sizes and build it and its rows once.
    """
    held, piece = curve._piece
    if held is not basis:
        if len(curve.cpts) != basis.n_basis:
            raise LengthMismatch("curve and basis sizes differ")
        piece = form_piecewise(curve.cpts, basis)
        object.__setattr__(curve, "_piece", (basis, piece))
    return piece._at(t, tol) if isinstance(t, float) else piece.value(t, tol)


# piecewise form and reindexing -----------------------------------------------

def reverse_diagonal_averages(coefs, tol=1e-6, *, first=0):
    """Average anti-diagonal entries of a table, ignoring NaN markers.

    Entries on anti-diagonal r + c = d of the first two axes are the
    per-interval estimates of one coefficient; an optional trailing axis
    holds components.  A finite entry straying from its diagonal's mean by
    more than tol * max(1, |mean|), component by component, flags an
    ill-posed projection.  An estimate counts only if all its components are
    finite.  Errors number coefficient d as first + d.
    """
    coefs = np.asarray(coefs, dtype=float)
    rows, cols = coefs.shape[:2]
    flat = coefs.reshape(rows * cols, -1)
    diag = (np.arange(rows)[:, None] + np.arange(cols)).ravel()
    ok = np.isfinite(flat).all(axis=1)
    count = np.bincount(diag[ok], minlength=rows + cols - 1)
    if not count.all():
        raise AllMissingDiagonal(
            f"no finite estimates for coefficient {first + np.flatnonzero(count == 0)[0]}")
    # one slice per column, last first: each diagonal adds its entries by rising row
    total, kept = np.zeros((rows + cols - 1, flat.shape[1])), np.where(ok[:, None], flat, 0.0)
    for c in range(cols - 1, -1, -1):
        total[c : c + rows] += kept[c::cols]
    avg = total / count[:, None]
    stray = ok & (np.abs(flat - avg[diag]) > tol * np.maximum(1.0, np.abs(avg[diag]))).any(axis=1)
    if stray.any():
        d = diag[stray].min()
        vals = flat[ok & (diag == d)].reshape((-1,) + coefs.shape[2:])
        raise InconsistentCoefficient(
            f"estimates for coefficient {first + d} disagree: {vals.tolist()}")
    return avg.reshape((rows + cols - 1,) + coefs.shape[2:])


def form_piecewise(cpts, basis: LocalBasis) -> PiecewiseCurve:
    """Piecewise form of the curve with the given control points.

    On each interval, sums the stored local representations of the nonzero
    functions weighted by their control points.  Control points shaped
    (n, d) give parts with a trailing axis of d components.
    """
    cpts = np.asarray(cpts, dtype=float)
    _check_cpts(cpts, basis.n_basis)
    return _form_rows(cpts, basis, 0, len(basis.local.breaks) - 1)


def _form_rows(cpts, basis: LocalBasis, start, stop) -> PiecewiseCurve:
    """form_piecewise over active intervals start..stop-1 alone, from checked
    control points (their index counted in the basis), unchecked."""
    local = basis.local
    windows = cpts[np.arange(start, stop)[:, None] + np.arange(basis.degree + 1)]
    return _unchecked(PiecewiseCurve, breaks=local.breaks[start : stop + 1],
                      coefs=np.einsum("jwc,jc...->jw...", local.coefs[start:stop], windows),
                      degree=basis.degree, fam=basis.fam, slots=local.slots[start:stop])
